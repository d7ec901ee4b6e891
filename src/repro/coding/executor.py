"""Batch execution behind one seam: a job registry and ``Executor.run``.

Every piece of work that may leave this process is a *job*: a ``kind``
naming an entry of :data:`JOBS` plus a payload dict.  An
:class:`Executor` runs a list of payloads of one kind with
``run(kind, payloads, prefer=None)`` and returns one ``(result, node)``
pair per payload, in payload order.  Three implementations exist, and
:func:`make_executor` is the only code that picks one:

* **inline** — :class:`ParallelExecutor` of width 1 (or a single job): the
  jobs run in this process, no pool, no pickling;
* **fork** — :class:`ParallelExecutor` of width N: the jobs run in a
  ``concurrent.futures`` process pool (``fork`` preferred, so workers
  inherit the imported modules);
* **socket** — :class:`~repro.coding.netexec.SocketPoolExecutor`: the jobs
  run on remote socket workers, which serve the same :data:`JOBS`.

``prefer`` names a preferred worker node per job (the archive layer's
placement maps).  Local transports ignore it and report ``node=None``, so
callers count placement hits/fallbacks only where ``node is not None`` —
those counters move on socket runs alone.

The batched pipeline (:mod:`repro.coding.pipeline`) compresses frames
independently, so :meth:`Executor.compress` / :meth:`Executor.decompress`
are written once over ``run``: frames are dealt round-robin onto
``width()`` shards (:func:`shard_indices`), each shard runs the ordinary
serial pipeline as one ``compress``/``decompress`` job, and
:func:`merge_shard_results` reassembles the streams in the original frame
order.  Because every job runs exactly the
code the serial path runs, the merged batch is **byte-identical** to
serial execution on every transport; ``tests/coding/test_executor.py``
and ``tests/coding/test_netexec.py`` prove it.

Stats semantics: each job's per-stage wall clocks are summed into the
merged :class:`~repro.coding.pipeline.PipelineStats` (so ``stage_seconds``
reads as CPU seconds across the pool).  When jobs ran concurrently or off
this process, ``workers`` records how many ran at once and
``wall_seconds`` the batch's true elapsed time
(:func:`stamp_run_stats`); an inline run keeps the serial stats.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .pipeline import (
    CompressedBatch,
    PipelineStats,
    compress_frames,
    decompress_frames,
)
from .spec import CodecSpec, reject_spec_overrides

__all__ = [
    "JOBS",
    "Executor",
    "ParallelExecutor",
    "default_workers",
    "is_socket_workers",
    "make_executor",
    "merge_shard_results",
    "pool_context",
    "shard_indices",
    "stamp_run_stats",
]


def default_workers() -> int:
    """Worker count when none is given.

    The ``REPRO_WORKERS`` environment variable pins the count process-wide
    (the seam CI legs and benchmarks use to fix pool widths without
    plumbing kwargs, mirroring ``REPRO_ENGINE`` in
    :func:`~repro.coding.spec.default_engine`); otherwise it is the number
    of CPUs this process may actually use.
    """
    override = os.environ.get("REPRO_WORKERS", "").strip()
    if override:
        try:
            workers = int(override)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be a positive integer, got {override!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {workers}")
        return workers
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def pool_context():
    """Prefer fork (workers inherit loaded modules); fall back to default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return None


# ---------------------------------------------------------------------------
# Job registry (module-level functions, so they pickle for the process pool)
# ---------------------------------------------------------------------------

def _compress(payload: Dict) -> Dict:
    """Kind ``compress``: serial-compress one frame shard."""
    batch = compress_frames(payload["items"], spec=payload["spec"])
    return {"items": batch.streams, "stats": batch.stats}


def _decompress(payload: Dict) -> Dict:
    """Kind ``decompress``: serial-decode one stream shard."""
    frames, stats = decompress_frames(
        CompressedBatch.from_spec(payload["spec"], payload["items"])
    )
    return {"items": frames, "stats": stats}


def _verify_container(payload: Dict) -> Dict:
    """Kind ``verify_container``: verify part ``part`` of ``parts`` of one
    archive container — its frames ``part::parts`` in container order, so
    one container can spread over several jobs (``parts=1`` is all of it).

    ``target`` is a path (the worker must see the same filesystem) or,
    inline only, a storage backend.  A healthy part reports the container's
    ``frames`` count, its own ``payload_bytes`` and a ``digest`` — CRC-32
    over the container's sorted (frame name, payload CRC) pairs, free from
    the index alone — so a set-level verify can detect copies that are
    individually valid but *diverged* from their siblings (e.g. a replica
    left stale by a writer killed between copy finalisations).  Archive
    damage comes back as a failure record ``{"ok": False, "index",
    "error", "message"}`` — the part's first damaged frame (``-1`` when the
    container does not open), the error's class name and message — so
    every transport reports exactly what the serial path raises.
    """
    from ..archive.format import ArchiveError, crc32
    from ..archive.reader import ArchiveReader

    index = -1
    try:
        with ArchiveReader(
            payload["target"],
            engine=payload["engine"],
            verify_checksums=payload["verify_checksums"],
        ) as reader:
            payload_bytes = 0
            for entry in reader.frames[payload["part"] :: payload["parts"]]:
                index = entry.index
                payload_bytes += reader.verify_frame(entry, payload["deep"])
            digest_src = "\n".join(
                f"{e.name}:{e.crc32:08x}" for e in sorted(reader.frames, key=lambda e: e.name)
            )
            return {
                "ok": True,
                "frames": len(reader),
                "payload_bytes": payload_bytes,
                "digest": crc32(digest_src.encode("utf-8")),
            }
    except (ArchiveError, OSError) as exc:
        return {
            "ok": False,
            "index": index,
            "error": type(exc).__name__,
            "message": str(exc),
        }


def _echo(payload):
    """Kind ``echo``: liveness/diagnostics — returns the payload."""
    return payload


#: Job kind → function of one payload.  Every transport runs these: inline
#: and fork executors call them directly, socket workers serve them (their
#: HELLO capability list is this dict's keys).
JOBS: Dict[str, Callable] = {
    "compress": _compress,
    "decompress": _decompress,
    "verify_container": _verify_container,
    "echo": _echo,
}


# ---------------------------------------------------------------------------
# Sharding helpers
# ---------------------------------------------------------------------------

def shard_indices(count: int, shards: int) -> List[List[int]]:
    """Round-robin deal of ``count`` items onto at most ``shards`` shards.

    Round-robin (not contiguous split) so mixed-size batches balance: big
    and small frames interleave across shards instead of clustering.
    """
    shards = max(1, min(shards, count))
    return [list(range(i, count, shards)) for i in range(shards)]


def merge_shard_results(
    shards: List[List[int]],
    results: Sequence[Tuple[List, PipelineStats]],
    count: int,
) -> Tuple[List, PipelineStats]:
    """Reassemble per-shard ``(items, stats)`` results in original order.

    The inverse of :func:`shard_indices`: items return to their input
    positions and the per-shard :class:`PipelineStats` are merged.
    """
    merged_items: List = [None] * count
    stats = PipelineStats()
    for indices, (shard_items, shard_stats) in zip(shards, results):
        for position, item in zip(indices, shard_items):
            merged_items[position] = item
        stats.merge(shard_stats)
    return merged_items, stats


def stamp_run_stats(
    stats: PipelineStats,
    results: Sequence[Tuple[object, Optional[str]]],
    concurrent: int,
    wall: float,
) -> None:
    """Record how a :meth:`Executor.run` went on its merged stats.

    When more than one job ran at once, or any ran on a remote worker,
    ``workers`` becomes ``concurrent`` (jobs that could run at once:
    ``min(width, jobs)``) and ``wall_seconds`` the run's elapsed time.  An
    inline run leaves the serial stats untouched.
    """
    if concurrent > 1 or any(node is not None for _, node in results):
        stats.workers = concurrent
        stats.wall_seconds = wall


def is_socket_workers(workers) -> bool:
    """Whether a ``workers=`` value names socket workers, not a pool width.

    Integers (and ``None``) mean a local fork pool; anything else — an
    ``"host:port,host:port"`` address string, a
    :class:`~repro.coding.netexec.WorkerPool`, a list of addresses — is
    handed to the socket-pool executor.
    """
    return workers is not None and not isinstance(workers, (int, np.integer))


def make_executor(workers) -> "Executor":
    """Resolve a ``workers=`` value to the executor that runs it.

    ``None`` or an integer builds a :class:`ParallelExecutor` (local fork
    pool; 1 runs inline; below 1 is a ``ValueError``).  Worker addresses
    (``"host:port,host:port"``), a list of addresses, or a ready
    :class:`~repro.coding.netexec.WorkerPool` build a
    :class:`~repro.coding.netexec.SocketPoolExecutor` over the remote
    workers.  This is the only place a transport is chosen: every call
    site — ``compress_frames``, ``decompress_frames``, the archive's
    ``append_batch`` and ``verify`` — asks for an executor and calls
    :meth:`Executor.run`.
    """
    if not is_socket_workers(workers):
        return ParallelExecutor(None if workers is None else int(workers))
    from .netexec import SocketPoolExecutor

    if isinstance(workers, SocketPoolExecutor):
        return workers
    return SocketPoolExecutor(workers)


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

class Executor:
    """Runs :data:`JOBS`; subclasses supply the transport.

    Subclasses implement :meth:`width` and :meth:`run`; batch
    compression and decoding are written once, here, on top of them.
    """

    def width(self) -> int:
        """How many jobs can run at once."""
        raise NotImplementedError

    def run(
        self,
        kind: str,
        payloads: Sequence[Dict],
        prefer: Optional[Sequence[Optional[str]]] = None,
    ) -> List[Tuple[object, Optional[str]]]:
        """Run one ``kind`` job per payload; returns ``(result, node)`` pairs
        in payload order (``node`` is ``None`` unless a remote worker ran the
        job; ``prefer`` optionally names a preferred node per job)."""
        raise NotImplementedError

    def _run_sharded(self, kind: str, spec: CodecSpec, items: List) -> Tuple[List, PipelineStats]:
        """Deal ``items`` onto shards, run one job per shard, merge in order."""
        shards = shard_indices(len(items), self.width())
        began = time.perf_counter()
        results = self.run(
            kind,
            [{"spec": spec, "items": [items[i] for i in indices]} for indices in shards],
        )
        wall = time.perf_counter() - began
        merged_items, stats = merge_shard_results(
            shards, [(result["items"], result["stats"]) for result, _ in results], len(items)
        )
        stamp_run_stats(stats, results, len(shards), wall)
        return merged_items, stats

    def compress(
        self,
        frames: Sequence[np.ndarray],
        spec: Optional[CodecSpec] = None,
        **spec_kwargs,
    ) -> CompressedBatch:
        """Compress a batch, one job per shard; byte-identical to serial."""
        if spec is None:
            spec = CodecSpec.from_kwargs(**spec_kwargs)
        else:
            reject_spec_overrides(spec_kwargs)
        frames = [np.asarray(frame) for frame in frames]
        if not frames:
            return compress_frames(frames, spec=spec)
        streams, stats = self._run_sharded("compress", spec, frames)
        return CompressedBatch.from_spec(spec, streams, stats)

    def decompress(
        self, batch: CompressedBatch, spec: Optional[CodecSpec] = None
    ) -> Tuple[List[np.ndarray], PipelineStats]:
        """Decode a batch, one job per shard; bit-identical to serial."""
        spec = spec if spec is not None else batch.resolved_spec()
        if not batch.streams:
            return decompress_frames(CompressedBatch.from_spec(spec, []))
        return self._run_sharded("decompress", spec, list(batch.streams))

    def close(self) -> None:
        """Release transport resources (nothing to release locally)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ParallelExecutor(Executor):
    """Runs jobs in this process or across a ``concurrent.futures`` process pool.

    Parameters
    ----------
    workers:
        Pool size; ``None`` means one worker per available CPU, ``1`` means
        run inline in this process (no pool at all).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def width(self) -> int:
        return self.workers

    def run(self, kind, payloads, prefer=None):
        """Inline at width 1 or for a single job, else one pool process per
        job up to the width; ``prefer`` is ignored and every node is ``None``."""
        job = JOBS[kind]
        if self.workers == 1 or len(payloads) <= 1:
            return [(job(payload), None) for payload in payloads]
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(payloads)), mp_context=pool_context()
        ) as pool:
            futures = [pool.submit(job, payload) for payload in payloads]
            return [(future.result(), None) for future in futures]

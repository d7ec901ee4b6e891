"""Replicated shard sets: write fan-out, read failover, verify-driven repair.

PR 5's sharded sets isolate damage — a corrupted shard is *reported* while
its siblings verify and serve.  This module turns isolation into
self-healing by keeping every shard in R+1 byte-identical copies:

``ReplicatedShardSet``
    A :class:`~repro.archive.sharding.ShardedArchiveWriter` whose manifest
    (version ≥ 2) carries a replica map and whose appends **fan out**: each
    shard's streams are compressed once and written to the primary and every
    replica in the same order against the same starting bytes.  Per-frame
    compression is deterministic and containers are append-only, so the
    copies stay byte-identical — which is what makes failover and repair
    trivially correct (index entries carry across copies; repair is a byte
    copy, no re-compression that could drift).
``repair_set``
    The heal step of the ladder documented on
    :class:`~repro.archive.sharding.ShardedArchiveReader` (retry → failover
    → repair): run ``verify(strict=False)`` over every copy, then rebuild
    each damaged copy from a healthy sibling of the same shard by an atomic
    byte copy (temp file + rename, like the manifest), and re-verify what
    was rebuilt.  A shard is unrepairable only when *none* of its copies is
    healthy — exactly the condition under which reads fail too.

Read-side failover itself lives in ``ShardedArchiveReader`` (any manifest
with a replica map gets it automatically); this module owns the write
fan-out and the repair path, plus the ``python -m repro.archive repair``
wiring in :mod:`repro.archive.cli`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..coding.spec import CodecSpec
from .backend import StorageBackend
from .format import LAYOUT_SUBBAND_MAJOR, ArchiveIntegrityError, FrameInfo
from .reader import VerifyReport
from .serialize import CompressedStream
from .sharding import PathLike, ShardedArchiveReader, ShardedArchiveWriter
from .writer import ArchiveWriter

__all__ = [
    "shard_replica_names",
    "ReplicatedShardSet",
    "RepairReport",
    "repair_set",
]


def shard_replica_names(
    manifest_path: PathLike, shard_count: int, replicas: int
) -> Tuple[Tuple[str, ...], ...]:
    """Default replica file names: ``<stem>.shard<i>.r<j>.dwta``.

    One tuple per shard, ``replicas`` names each, mirroring
    :func:`~repro.archive.sharding.shard_file_names` for the primaries.
    """
    stem = Path(manifest_path).stem
    return tuple(
        tuple(f"{stem}.shard{i:03d}.r{j}.dwta" for j in range(replicas))
        for i in range(shard_count)
    )


class _FanOutWriter:
    """One shard's in-process write fan-out: primary plus replicas.

    Duck-types the slice of :class:`~repro.archive.writer.ArchiveWriter`
    that :class:`~repro.archive.sharding.ShardedArchiveWriter` uses
    (``add_stream``/``add_batch``/``close``), applying every mutation to
    each copy in primary-first order and reporting the primary's index
    entries.  All copies see identical streams against identical starting
    bytes, so they stay byte-identical.
    """

    def __init__(self, paths: Sequence[Path], spec: CodecSpec) -> None:
        self.writers = [ArchiveWriter.append(path, spec=spec) for path in paths]

    def add_stream(self, stream: CompressedStream, name: str) -> FrameInfo:
        entry: Optional[FrameInfo] = None
        for writer in self.writers:
            copy_entry = writer.add_stream(stream, name)
            if entry is None:
                entry = copy_entry
        assert entry is not None
        return entry

    def add_batch(self, batch, names: Sequence[str]) -> List[FrameInfo]:
        entries: Optional[List[FrameInfo]] = None
        for writer in self.writers:
            copy_entries = writer.add_batch(batch, names=names)
            if entries is None:
                entries = copy_entries
        return entries or []

    def close(self) -> None:
        for writer in self.writers:
            writer.close()


class ReplicatedShardSet(ShardedArchiveWriter):
    """A sharded archive set whose every shard exists in R+1 copies.

    Create with ``replicas`` ≥ 1; everything else matches
    :meth:`ShardedArchiveWriter.create`.  The replica map is stored in the
    manifest (version ≥ 2), so *any* later open — ``append`` on either
    class, ``ShardedArchiveReader``, the CLI — sees the replication:
    appends fan out, reads fail over, ``verify`` checks every copy and
    :func:`repair_set` heals from the survivors.
    """

    @classmethod
    def create(
        cls,
        path: PathLike,
        shards: int = 2,
        replicas: int = 1,
        router: str = "hash",
        boundaries: Sequence[str] = (),
        spec: Optional[CodecSpec] = None,
        overwrite: bool = False,
        workers: int = 1,
        codec: Optional[str] = None,
        scales: Optional[int] = None,
        engine: Optional[str] = None,
        layout: str = LAYOUT_SUBBAND_MAJOR,
        placement=None,
        **codec_options,
    ) -> "ReplicatedShardSet":
        """Create a replicated set: ``shards`` primaries × (1 + ``replicas``)
        copies, all empty finalised containers, plus the manifest (v2, or
        v3 when ``placement`` maps shards to preferred worker nodes)."""
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        return cls._create_set(
            path, shards, router, boundaries, spec, overwrite, workers,
            codec, scales, engine, layout, placement, codec_options,
            replica_names=shard_replica_names(path, shards, replicas),
        )

    # -- fan-out plumbing ---------------------------------------------------------------
    @property
    def replicas(self) -> int:
        """Replicas per shard (beyond the primary)."""
        return self.manifest.replicas

    def _copy_paths(self, shard: int) -> List[Path]:
        replica_map = self.manifest.replica_names or ((),) * self.shard_count
        return [
            self.shard_paths[shard],
            *(self.path.parent / name for name in replica_map[shard]),
        ]

    def _writer(self, shard: int) -> _FanOutWriter:
        """Every append (``add_stream``, ``append_batch`` on any executor)
        goes through a fan-out writer, so every copy receives it."""
        if shard not in self._writers:
            self._writers[shard] = _FanOutWriter(self._copy_paths(shard), self.spec)
        return self._writers[shard]


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------

@dataclass
class RepairReport:
    """Outcome of one :func:`repair_set` pass.

    ``repaired`` maps each rebuilt copy file name to the healthy sibling it
    was byte-copied from; ``unrepairable`` lists copies that stayed damaged
    (their shard has no healthy copy left); ``shard_status`` maps each
    primary shard file name to ``"ok"`` (was never damaged), ``"repaired"``
    (damaged copies rebuilt and re-verified) or ``"damaged"``
    (unrepairable).  ``verify`` holds the report of the pre-repair
    ``verify(strict=False)`` pass that drove the repair.
    """

    repaired: Dict[str, str] = field(default_factory=dict)
    unrepairable: List[str] = field(default_factory=list)
    shard_status: Dict[str, str] = field(default_factory=dict)
    verify: Optional[VerifyReport] = None

    @property
    def ok(self) -> bool:
        """Whether every shard is healthy after the pass."""
        return not self.unrepairable

    def to_dict(self) -> Dict:
        return {
            "repaired": dict(self.repaired),
            "unrepairable": list(self.unrepairable),
            "shard_status": dict(self.shard_status),
            "ok": self.ok,
        }


def _atomic_byte_copy(source: Path, target: Path) -> None:
    """Replace ``target`` with ``source``'s bytes, atomically.

    Same discipline as the manifest writer: temp file in the target's
    directory, fsync, one :func:`os.replace` — a crash mid-repair leaves
    the damaged copy untouched (and still repairable), never half-healed.
    """
    temp = target.with_name(target.name + ".tmp")
    data = source.read_bytes()
    with open(temp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(temp, target)


def repair_set(
    path: PathLike,
    deep: bool = False,
    workers: int = 1,
    engine: Optional[str] = None,
    verify_checksums: bool = True,
    backend_factory: Optional[Callable[[Path], StorageBackend]] = None,
) -> RepairReport:
    """Detect and heal damaged shard copies from their healthy siblings.

    Runs ``verify(strict=False)`` over every copy of every shard (the
    detect step), then for each damaged copy — corrupted, truncated, or
    stale/diverged — byte-copies a healthy sibling of the same shard over
    it (primary preferred as the source) and re-verifies the rebuilt copy.
    Copies are byte-identical by construction, so the rebuilt file is
    byte-identical to what the damaged copy held before the damage.

    A shard with *no* healthy copy cannot be healed; its damaged copies are
    reported ``unrepairable`` and the shard stays ``"damaged"``.  Exposed
    as ``python -m repro.archive repair`` (see ``docs/operations.md`` for
    the detect → repair → re-verify runbook).
    """
    path = Path(path)
    with ShardedArchiveReader(
        path,
        engine=engine,
        verify_checksums=verify_checksums,
        backend_factory=backend_factory,
    ) as reader:
        report = reader.verify(deep=deep, workers=workers, strict=False)
        manifest = reader.manifest
    result = RepairReport(verify=report)
    failures: Dict[str, str] = report["failures"]
    replica_map = manifest.replica_names or ((),) * len(manifest.shard_names)
    for shard, primary in enumerate(manifest.shard_names):
        copies = [primary, *replica_map[shard]]
        damaged = [name for name in copies if name in failures]
        if not damaged:
            result.shard_status[primary] = "ok"
            continue
        healthy = [name for name in copies if name not in failures]
        if not healthy:
            result.unrepairable.extend(damaged)
            result.shard_status[primary] = "damaged"
            continue
        source = healthy[0]  # primary-first order: primary preferred
        for name in damaged:
            _atomic_byte_copy(path.parent / source, path.parent / name)
            result.repaired[name] = source
        result.shard_status[primary] = "repaired"
    if result.repaired:
        # Re-verify what was rebuilt (direct file reads — the heal must be
        # judged on the real bytes, not through an injected-fault backend).
        with ShardedArchiveReader(
            path, engine=engine, verify_checksums=verify_checksums
        ) as reader:
            post = reader.verify(deep=deep, workers=workers, strict=False)
        for name in result.repaired:
            if name in post["failures"]:  # pragma: no cover - defensive
                raise ArchiveIntegrityError(
                    f"repaired copy {name} failed re-verification: "
                    f"{post['failures'][name]}"
                )
    return result

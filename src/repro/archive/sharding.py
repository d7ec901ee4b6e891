"""Sharded archive sets: one codec configuration spanning N container files.

A single container file caps an archive at one file and one filesystem, and
caps parallel ingest at "many workers funnel into one writer".  A *sharded
archive set* lifts both: a small manifest file (byte layout in
:mod:`repro.archive.format`) names N ordinary single-file containers — the
shards — plus a deterministic **shard router** that maps every frame name
to exactly one shard.  Each shard is a complete, self-contained archive
(the existing tools read it unchanged), and the set-level API mirrors the
single-archive API:

``ShardedArchiveWriter``
    Creates or appends to a set; :meth:`~ShardedArchiveWriter.append_batch`
    runs **one compress job per shard** on the executor ``workers`` names
    (inline, a process pool or socket workers), then writes each shard's
    streams through that shard's writer in this process — so the shard
    files are byte-identical whichever executor compressed them.
``ShardedArchiveReader``
    Lists the whole set, randomly accesses one frame by routing its name to
    its shard (only that shard is opened and only that payload is read —
    the per-shard ``bytes_read`` counters are the evidence), bulk-decodes
    through the batched pipeline, and verifies shard by shard with damage
    *isolated*: a truncated or corrupted shard is reported while every
    healthy shard still verifies and serves reads.  It is also the one
    front reader: a plain container opens as a one-shard set
    (:func:`open_archive`).

Routing is by frame *name*, never by position, so the assignment is stable
across appends and processes:

* ``hash`` (default): CRC-32 of the UTF-8 name modulo the shard count —
  stateless and uniform;
* ``range``: lexicographic ranges split by ``shards - 1`` boundary names
  (frame ``name`` goes to the first shard whose boundary exceeds it), for
  sets whose names encode a meaningful order (series, dates).

Because compression is per-frame deterministic, packing the same frames
into 1 shard or N shards yields **identical per-frame payload bytes**; only
their grouping differs.  The set-level frame order (listing, bulk decode)
is lexicographic by name, which is likewise shard-count independent —
``tests/archive/test_sharding.py`` proves both invariances.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from bisect import bisect_right
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..coding.executor import make_executor, stamp_run_stats
from ..coding.pipeline import CompressedBatch, PipelineStats
from ..coding.spec import CodecSpec, resolve_engine, resolve_spec
from .backend import RetryPolicy, StorageBackend
from .format import (
    LAYOUT_SUBBAND_MAJOR,
    MANIFEST_MAGIC,
    MANIFEST_VERSION,
    ArchiveError,
    ArchiveFormatError,
    ArchiveIntegrityError,
    FrameInfo,
    ShardManifest,
    TruncatedArchiveError,
    pack_manifest,
    require_write_layout,
    unpack_manifest,
)
from .placement import PlacementLike, count_placement, normalize_placement
from .reader import (
    ArchiveReader,
    FrameKey,
    VerifyReport,
    _ReaderHelpers,
    raise_verify_failure,
    verify_containers,
)
from .serialize import CompressedStream
from .writer import ArchiveWriter

__all__ = [
    "ShardRouter",
    "HashRouter",
    "RangeRouter",
    "make_router",
    "router_for_manifest",
    "shard_file_names",
    "write_manifest",
    "is_sharded",
    "open_archive",
    "ShardedArchiveWriter",
    "ShardedArchiveReader",
]

PathLike = Union[str, Path]
Target = Union[str, Path, StorageBackend]


# ---------------------------------------------------------------------------
# Routers
# ---------------------------------------------------------------------------

class ShardRouter:
    """Deterministic frame-name → shard-index mapping."""

    kind = "router"

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = int(shard_count)

    def route(self, name: str) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(shards={self.shard_count})"


class HashRouter(ShardRouter):
    """CRC-32 of the UTF-8 frame name modulo the shard count.

    CRC-32 (not Python's ``hash``) so the assignment is identical across
    processes, interpreter runs and platforms — a requirement for a mapping
    that is baked into file placement.
    """

    kind = "hash"

    def route(self, name: str) -> int:
        return (zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF) % self.shard_count


class RangeRouter(ShardRouter):
    """Lexicographic range sharding by ``shards - 1`` sorted boundary names.

    Frame ``name`` routes to ``bisect_right(boundaries, name)``: names
    strictly below the first boundary go to shard 0, and so on.  Useful
    when frame names encode series order and locality per shard matters.
    """

    kind = "range"

    def __init__(self, shard_count: int, boundaries: Sequence[str]) -> None:
        super().__init__(shard_count)
        self.boundaries = tuple(boundaries)
        if len(self.boundaries) != shard_count - 1:
            raise ValueError(
                f"range router over {shard_count} shards needs "
                f"{shard_count - 1} boundaries, got {len(self.boundaries)}"
            )
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("range boundaries must be sorted")

    def route(self, name: str) -> int:
        return bisect_right(self.boundaries, name)


def make_router(
    kind: str, shard_count: int, boundaries: Sequence[str] = ()
) -> ShardRouter:
    """Build a router by manifest kind name."""
    if kind == "hash":
        if boundaries:
            raise ValueError("hash router takes no boundaries")
        return HashRouter(shard_count)
    if kind == "range":
        return RangeRouter(shard_count, boundaries)
    raise ValueError(f"unknown router {kind!r} (expected 'hash' or 'range')")


def router_for_manifest(manifest: ShardManifest) -> ShardRouter:
    """The router a stored manifest describes."""
    return make_router(manifest.router, len(manifest.shard_names), manifest.boundaries)


# ---------------------------------------------------------------------------
# Set layout helpers
# ---------------------------------------------------------------------------

def shard_file_names(manifest_path: PathLike, shard_count: int) -> List[str]:
    """Default shard file names for a manifest: ``<stem>.shard<i>.dwta``."""
    stem = Path(manifest_path).stem
    return [f"{stem}.shard{i:03d}.dwta" for i in range(shard_count)]


def write_manifest(path: PathLike, manifest: ShardManifest) -> None:
    """Write a manifest crash-safely: temp file + atomic rename.

    The bytes land in ``<name>.tmp`` *in the same directory* (so the rename
    cannot cross filesystems), are fsynced, and replace the target with one
    atomic :func:`os.replace` — mirroring the container's own crash-safe
    append.  A writer killed mid-rewrite therefore leaves either the old
    manifest or the new one, never a torn half-file; at worst a stale
    ``.tmp`` remains, which the next write simply overwrites.
    """
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    data = pack_manifest(manifest)
    with open(temp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(temp, path)


def _probe(path: PathLike) -> Tuple[bool, bytes]:
    """``(existed, magic)``: whether ``path`` opened, and its first bytes."""
    try:
        with open(path, "rb") as fh:
            return True, fh.read(len(MANIFEST_MAGIC))
    except OSError:
        return False, b""


def is_sharded(path: PathLike) -> bool:
    """Whether ``path`` is a shard-set manifest (checked by magic bytes)."""
    return _probe(path)[1] == MANIFEST_MAGIC


def open_archive(path: Target, **options) -> "ShardedArchiveReader":
    """Open a sharded set *or* a plain container (a one-shard set): the one
    front door the CLI and the HTTP service read every target through.
    ``options`` are :class:`ShardedArchiveReader`'s keywords."""
    return ShardedArchiveReader(path, **options)


def _read_manifest(path: Path) -> ShardManifest:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ArchiveFormatError(f"no shard-set manifest at {path}") from None
    return unpack_manifest(data)


def _manifest_spec(manifest: ShardManifest) -> CodecSpec:
    """The set-level spec a manifest stores; a spec block that does not
    parse as one is manifest damage, like any other malformed field."""
    try:
        return CodecSpec.from_json(manifest.spec_json)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ArchiveFormatError(
            f"manifest spec block is not a codec spec ({type(exc).__name__}: {exc})"
        ) from exc


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

class ShardedArchiveWriter:
    """Writes a sharded archive set; use :meth:`create` or :meth:`append`.

    The set shares one :class:`~repro.coding.spec.CodecSpec` (stored in the
    manifest, so even empty shards know their configuration) and one router.
    Frames are routed by name; each shard is an ordinary
    :class:`~repro.archive.writer.ArchiveWriter` container and inherits its
    crash-safety: an interrupted append leaves every shard either in its
    pre-append state or finalised with its new frames — never torn.
    """

    def __init__(
        self,
        path: PathLike,
        manifest: ShardManifest,
        spec: CodecSpec,
        names: set,
        total: int,
        workers: int = 1,
    ) -> None:
        self.path = Path(path)
        self.manifest = manifest
        #: The set-level compression configuration (from the manifest).
        self.spec = spec
        self.router = router_for_manifest(manifest)
        #: Default workers for :meth:`append_batch` — a pool width
        #: (1 = serial) or socket worker addresses / a
        #: :class:`~repro.coding.netexec.WorkerPool` for distributed
        #: appends.
        self.workers = workers
        #: Aggregated pipeline stats of every append on this writer.
        self.stats = PipelineStats()
        #: Distributed appends routed to each shard's placed worker, and
        #: appends that fell back to any-worker routing (placement absent,
        #: or the placed node down/unknown).
        self.placement_hits = 0
        self.placement_fallbacks = 0
        self.shard_paths: List[Path] = [
            self.path.parent / name for name in manifest.shard_names
        ]
        self._writers: Dict[int, ArchiveWriter] = {}
        self._names = names
        self._total = total
        self._closed = False

    # -- construction -------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: PathLike,
        shards: int = 2,
        router: str = "hash",
        boundaries: Sequence[str] = (),
        spec: Optional[CodecSpec] = None,
        overwrite: bool = False,
        workers: int = 1,
        codec: Optional[str] = None,
        scales: Optional[int] = None,
        engine: Optional[str] = None,
        layout: str = LAYOUT_SUBBAND_MAJOR,
        placement: PlacementLike = None,
        **codec_options,
    ) -> "ShardedArchiveWriter":
        """Create a new set: N empty finalised shards plus the manifest.

        ``path`` is the manifest file (conventionally ``*.dwts``); shard
        containers are created next to it.  Configuration defaults match
        :meth:`ArchiveWriter.create`; ``spec`` and the legacy keywords are
        mutually exclusive, as everywhere else.  ``layout`` is kept for
        call compatibility and accepts only ``"subband-major"``, the
        layout every shard writes.  ``placement`` (shard file name →
        preferred worker node id, or a node-id sequence in shard order)
        stores the distributed routing map; a placed manifest is stamped
        version 3, an unplaced one keeps its version-2 bytes (see
        :mod:`repro.archive.placement`).
        """
        return cls._create_set(
            path, shards, router, boundaries, spec, overwrite, workers,
            codec, scales, engine, layout, placement, codec_options,
        )

    @classmethod
    def _create_set(
        cls,
        path: PathLike,
        shards: int,
        router: str,
        boundaries: Sequence[str],
        spec: Optional[CodecSpec],
        overwrite: bool,
        workers: int,
        codec: Optional[str],
        scales: Optional[int],
        engine: Optional[str],
        layout: str,
        placement: PlacementLike,
        codec_options: Dict,
        replica_names: Tuple[Tuple[str, ...], ...] = (),
    ) -> "ShardedArchiveWriter":
        """The one set constructor behind every ``create``: resolve the
        spec, build the manifest, then materialise every container
        (primaries and ``replica_names`` copies) and write the manifest
        crash-safely."""
        require_write_layout(layout)
        spec = resolve_spec(spec, codec, scales, engine, **codec_options)
        path = Path(path)
        if path.exists() and not overwrite:
            raise FileExistsError(
                f"shard-set manifest {path} already exists (pass overwrite=True)"
            )
        shard_names = tuple(shard_file_names(path, shards))
        node_ids = normalize_placement(placement, shard_names)
        manifest = ShardManifest(
            version=MANIFEST_VERSION if node_ids else 2,
            router=router,
            shard_names=shard_names,
            spec_json=spec.to_json(),
            boundaries=tuple(boundaries),
            replica_names=replica_names,
            layout=layout,
            node_ids=node_ids,
        )
        router_for_manifest(manifest)  # validate router/boundaries up front
        # Every container is born a valid (empty, finalised) archive, so the
        # set is complete and readable from the instant the manifest lands.
        replica_map = replica_names or ((),) * len(shard_names)
        for shard, name in enumerate(shard_names):
            for copy in (name, *replica_map[shard]):
                ArchiveWriter.create(
                    path.parent / copy, spec=spec, overwrite=overwrite
                ).close()
        write_manifest(path, manifest)
        return cls(path, manifest, spec, names=set(), total=0, workers=workers)

    @classmethod
    def append(
        cls, path: PathLike, workers: int = 1, engine: Optional[str] = None
    ) -> "ShardedArchiveWriter":
        """Open an existing set to add frames; configuration comes from the
        manifest, so appends always match how the set was created.  New
        frames are subband-major even in a set whose manifest says
        frame-major; the manifest bytes stay as they are.
        ``engine`` may override the entropy-coding engine — an execution
        choice, not a format one (streams are byte-identical either way).

        A manifest with a replica map opens as a
        :class:`~repro.archive.replication.ReplicatedShardSet`, so appends
        fan out to every copy no matter which class opened the set."""
        path = Path(path)
        manifest = _read_manifest(path)
        if cls is ShardedArchiveWriter and manifest.replica_names:
            from .replication import ReplicatedShardSet

            return ReplicatedShardSet.append(path, workers=workers, engine=engine)
        spec = _manifest_spec(manifest)
        if engine is not None:
            spec = spec.replace(engine=engine)
        names: set = set()
        total = 0
        for shard_name in manifest.shard_names:
            with ArchiveReader(path.parent / shard_name) as reader:
                names.update(reader.names())
                total += len(reader)
        return cls(path, manifest, spec, names=names, total=total, workers=workers)

    # -- shard plumbing -----------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.shard_paths)

    def __len__(self) -> int:
        return self._total

    @property
    def frame_names(self) -> List[str]:
        """Names of every frame stored in the set so far."""
        return sorted(self._names)

    def _writer(self, shard: int) -> ArchiveWriter:
        if shard not in self._writers:
            self._writers[shard] = ArchiveWriter.append(
                self.shard_paths[shard], spec=self.spec
            )
        return self._writers[shard]

    def _flush_shards(self) -> None:
        """Finalise every open shard writer."""
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

    def _resolve_names(
        self, count: int, names: Optional[Sequence[str]]
    ) -> List[str]:
        if names is None:
            resolved = []
            for offset in range(count):
                name = f"frame_{self._total + offset:05d}"
                while name in self._names or name in resolved:
                    name += "_"
                resolved.append(name)
            return resolved
        if len(names) != count:
            raise ValueError(f"{len(names)} names for {count} frames")
        seen = set()
        for name in names:
            if name in self._names or name in seen:
                raise ValueError(f"archive set already has a frame named {name!r}")
            seen.add(name)
        return list(names)

    # -- adding frames ------------------------------------------------------------------
    def add_stream(self, stream: CompressedStream, name: Optional[str] = None) -> FrameInfo:
        """Archive one already-compressed stream, routed to its shard.

        This is the streaming-ingest entry point: frames arrive one at a
        time (:mod:`repro.archive.ingest`) and flow straight into the right
        shard's writer without any set-level buffering.
        """
        if self._closed:
            raise ValueError("sharded archive writer is closed")
        (name,) = self._resolve_names(1, None if name is None else [name])
        entry = self._writer(self.router.route(name)).add_stream(stream, name)
        self._names.add(name)
        self._total += 1
        return entry

    def append_batch(
        self,
        frames: Sequence[np.ndarray],
        names: Optional[Sequence[str]] = None,
        workers=None,
    ) -> List[FrameInfo]:
        """Compress and archive ``frames``, one ``compress`` job per shard.

        ``workers`` (default: the writer's) picks the executor the jobs
        run on: ``1`` compresses the shards one after another in this
        process, a larger width runs one pool process per non-empty shard,
        and socket workers (``"host:port,host:port"`` or a
        :class:`~repro.coding.netexec.WorkerPool`) run each shard's job on
        a remote worker — routed to the shard's *placed* node when the
        manifest carries a placement map (``placement_hits`` /
        ``placement_fallbacks`` count the routing).  Whoever compressed
        them, every shard's streams are written here, in shard order,
        through the shard's writer, so the shard files are byte-identical
        in every mode.  Returns the new index entries in input order
        (``entry.index`` is shard-local).
        """
        if self._closed:
            raise ValueError("sharded archive writer is closed")
        executor = make_executor(self.workers if workers is None else workers)
        frames = [np.asarray(frame) for frame in frames]
        resolved = self._resolve_names(len(frames), names)
        groups: Dict[int, List[int]] = {}
        for position, name in enumerate(resolved):
            groups.setdefault(self.router.route(name), []).append(position)
        shard_order = sorted(groups)
        entries: List[Optional[FrameInfo]] = [None] * len(frames)
        if shard_order:
            placement = self.manifest.placement
            prefer = [placement.get(self.manifest.shard_names[shard]) for shard in shard_order]
            concurrent = min(executor.width(), len(shard_order))
            began = time.perf_counter()
            results = executor.run(
                "compress",
                [
                    {"spec": self.spec, "items": [frames[i] for i in groups[shard]]}
                    for shard in shard_order
                ],
                prefer,
            )
            wall = time.perf_counter() - began
            merged = PipelineStats()
            for shard, (result, _node) in zip(shard_order, results):
                batch = CompressedBatch.from_spec(self.spec, result["items"], result["stats"])
                shard_entries = self._writer(shard).add_batch(
                    batch, names=[resolved[i] for i in groups[shard]]
                )
                for position, entry in zip(groups[shard], shard_entries):
                    entries[position] = entry
                merged.merge(result["stats"])
            stamp_run_stats(merged, results, concurrent, wall)
            self.stats.merge(merged)
            hits, fallbacks = count_placement(prefer, results)
            self.placement_hits += hits
            self.placement_fallbacks += fallbacks
        self._names.update(resolved)
        self._total += len(frames)
        return [entry for entry in entries if entry is not None]

    def add_frames(
        self,
        frames: Sequence[np.ndarray],
        names: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
    ) -> List[FrameInfo]:
        """Alias of :meth:`append_batch` (single-archive API parity)."""
        return self.append_batch(frames, names=names, workers=workers)

    # -- finalisation -------------------------------------------------------------------
    def close(self) -> None:
        """Finalise every open shard writer."""
        if self._closed:
            return
        self._flush_shards()
        self._closed = True

    def __enter__(self) -> "ShardedArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

class ShardedArchiveReader(_ReaderHelpers):
    """Opens a sharded set — or a plain container — for listing, routed
    random access and verification.

    The one front reader: a *plain container* (a path or a
    :class:`~repro.archive.backend.StorageBackend`) opens as a one-shard
    set through an implicit manifest (version 0, never written, naming
    the target as given) with ``kind == "plain"``.  It opens eagerly, so
    open-time errors raise here (``FileNotFoundError`` for a path that
    never existed, :class:`TruncatedArchiveError` for one that vanished
    after the magic probe), and lists in container order.

    Shards of a set open lazily: random access by *name* routes through
    the manifest router and touches exactly one shard file —
    ``opened_shards`` and the summed ``bytes_read`` counter prove it.
    Set-level listing and bulk decoding order frames lexicographically by
    name, which is independent of the shard count (so re-sharding a set
    never changes what :meth:`decode_all` returns).

    On a *replicated* set (manifest with a replica map) every routed read
    runs the full failure-handling ladder:

    1. **retry** — transient ``OSError`` faults on a copy are absorbed by
       the reader's :class:`~repro.archive.backend.RetryPolicy` (bounded
       attempts, exponential backoff), counted in ``retries``;
    2. **failover** — persistent damage (``ArchiveIntegrityError``,
       truncation, ``OSError`` past its retries) drops the copy and
       reopens the next one, counted in ``failovers``; every copy is
       byte-identical, so index entries carry over unchanged;
    3. only when *every* copy of the shard fails does the error propagate
       (and :mod:`repro.archive.replication` can then not repair either).

    One reader instance may be shared by many threads: per-copy payload
    reads are atomic (seek+read under the copy reader's lock) and the
    shard map, ``bytes_read``/``retries``/``failovers`` counters and
    failover transitions are guarded by one set-level lock, so concurrent
    routed reads never cross-talk.
    """

    #: Error classes that mean "this copy is damaged or unreachable" and
    #: trigger failover to the next copy.  Deliberately broad within the
    #: archive taxonomy: corruption surfaces as integrity *and* format
    #: errors (bad magic, torn index, payload/index disagreement).
    _FAILOVER_ERRORS = (ArchiveError, OSError)

    def __init__(
        self,
        path: Target,
        engine: Optional[str] = None,
        verify_checksums: bool = True,
        retry: Optional[RetryPolicy] = None,
        backend_factory: Optional[Callable[[Path], StorageBackend]] = None,
        zero_copy: bool = True,
    ) -> None:
        self.engine = resolve_engine(engine)
        self.verify_checksums = verify_checksums
        #: Whether per-copy readers may serve payloads zero-copy (mmap).
        self.zero_copy = bool(zero_copy)
        #: Retry policy handed to every per-copy reader (transient faults).
        self.retry = retry if retry is not None else RetryPolicy.none()
        #: Optional hook mapping a copy's path to the backend to open it
        #: through — the fault-injection seam
        #: (:class:`~repro.archive.backend.FaultInjectionBackend`).
        self.backend_factory = backend_factory
        #: Routed reads that had to switch to another copy after damage.
        self.failovers = 0
        #: Distributed verifies routed to each shard's placed worker, and
        #: verifies that fell back to any-worker routing.
        self.placement_hits = 0
        self.placement_fallbacks = 0
        self._readers: Dict[int, ArchiveReader] = {}
        self._active: Dict[int, int] = {}
        self._retired_bytes = 0
        self._retired_zero_copy = 0
        self._retry_count = 0
        self._lock = threading.RLock()
        self._entries: Optional[List[Tuple[int, FrameInfo]]] = None
        if isinstance(path, StorageBackend):
            # A plain container held by a backend: every open of its one
            # copy goes to that backend, and its open errors pass through.
            self.backend_factory = lambda _path: path
            self._source, existed, magic = path.describe(), False, b""
        else:
            self._source = str(path)
            existed, magic = _probe(path)
        self.path = Path(self._source)
        if magic == MANIFEST_MAGIC:
            root = self.path.parent  # shard names are relative to the manifest
            self.manifest = _read_manifest(self.path)
            self.spec = _manifest_spec(self.manifest)
            #: ``"plain"``, ``"sharded"`` or ``"replicated"``.
            self.kind = "replicated" if self.manifest.replicas else "sharded"
        else:
            self.kind = "plain"
            root = Path()  # the one shard name is the target as given
            try:
                self._readers[0] = container = self._open_reader(self.path)
            except FileNotFoundError as exc:
                if not existed:
                    raise
                raise TruncatedArchiveError(
                    f"archive {self._source} disappeared while being opened "
                    "(the file existed when its magic was probed)"
                ) from exc
            self.spec = container.spec_for(0) if len(container) else None
            self.manifest = ShardManifest(
                version=0,
                router="hash",
                shard_names=(self._source,),
                spec_json=self.spec.to_json() if self.spec else "",
                layout=LAYOUT_SUBBAND_MAJOR,
            )
        self.router = router_for_manifest(self.manifest)
        self.shard_paths: List[Path] = [
            root / name for name in self.manifest.shard_names
        ]
        replica_map = self.manifest.replica_names or ((),) * len(self.shard_paths)
        #: Per shard: every copy's path, primary first.
        self.copy_paths: List[List[Path]] = [
            [primary, *(root / name for name in replicas)]
            for primary, replicas in zip(self.shard_paths, replica_map)
        ]

    # -- shard plumbing -----------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.shard_paths)

    @property
    def opened_shards(self) -> List[int]:
        """Indices of the shards actually opened so far (lazy evidence)."""
        with self._lock:
            return sorted(self._readers)

    @property
    def bytes_read(self) -> int:
        """Total payload bytes read across every copy ever opened."""
        with self._lock:
            return self._retired_bytes + sum(
                reader.bytes_read for reader in self._readers.values()
            )

    @property
    def zero_copy_reads(self) -> int:
        """Payload reads served zero-copy across every copy ever opened."""
        with self._lock:
            return self._retired_zero_copy + sum(
                reader.zero_copy_reads for reader in self._readers.values()
            )

    @property
    def retries(self) -> int:
        """Transient faults absorbed by retry across every copy touched —
        including copies whose open ultimately failed (their reader never
        existed, but the absorbed faults still count)."""
        with self._lock:
            return self._retry_count

    def _note_retry(self, exc: BaseException) -> None:
        with self._lock:
            self._retry_count += 1

    def _open_reader(self, path: Path) -> ArchiveReader:
        return ArchiveReader(
            self.backend_factory(path) if self.backend_factory else path,
            engine=self.engine,
            verify_checksums=self.verify_checksums,
            retry=self.retry,
            on_retry=self._note_retry,
            zero_copy=self.zero_copy,
        )

    def _open_copy(self, shard: int, copy: int) -> ArchiveReader:
        path = self.copy_paths[shard][copy]
        try:
            return self._open_reader(path)
        except FileNotFoundError as exc:
            # The manifest names this copy, so its absence is set damage (a
            # shard file deleted mid-session), not a configuration mistake:
            # surface it in the archive taxonomy so the failure ladder
            # (failover here, 503 in the HTTP service) handles it.
            raise TruncatedArchiveError(
                f"shard copy {path.name} is missing (the set manifest "
                "names it)"
            ) from exc

    def _fail_over(self, shard: int, failed_copy: int) -> bool:
        """After damage on ``failed_copy``, advance the shard to its next
        copy; ``False`` when there is no other copy to go to.  Must be
        called under the lock; no-op if another thread already switched."""
        copies = self.copy_paths[shard]
        if len(copies) == 1:
            return False
        if self._active.get(shard, 0) == failed_copy:
            reader = self._readers.pop(shard, None)
            if reader is not None:
                self._retire(reader)
            self._active[shard] = (failed_copy + 1) % len(copies)
            self.failovers += 1
        return True

    def _retire(self, reader: ArchiveReader) -> None:
        self._retired_bytes += reader.bytes_read
        self._retired_zero_copy += reader.zero_copy_reads
        try:
            reader.close()
        except Exception:  # pragma: no cover - best-effort close of a dead copy
            pass

    def _shard_op(self, shard: int, op: Callable[[ArchiveReader], object]):
        """Run ``op`` against one shard, failing over across its copies.

        Damage (:data:`_FAILOVER_ERRORS`) on the active copy — at open or
        mid-operation — drops it and retries the operation on the next
        copy, at most once per copy; anything else (``KeyError`` for a
        missing frame, configuration ``ValueError``) propagates untouched.
        """
        attempts = len(self.copy_paths[shard])
        last_exc: Optional[BaseException] = None
        for _ in range(attempts):
            with self._lock:
                copy = self._active.setdefault(shard, 0)
                reader = self._readers.get(shard)
                if reader is None:
                    try:
                        reader = self._open_copy(shard, copy)
                    except self._FAILOVER_ERRORS as exc:
                        last_exc = exc
                        if not self._fail_over(shard, copy):
                            raise
                        continue
                    self._readers[shard] = reader
            try:
                return op(reader)
            except self._FAILOVER_ERRORS as exc:
                last_exc = exc
                with self._lock:
                    if not self._fail_over(shard, copy):
                        raise
        raise last_exc

    def _reader(self, shard: int) -> ArchiveReader:
        """The shard's currently active copy reader (opening it if needed)."""
        return self._shard_op(shard, lambda reader: reader)

    def _all_entries(self) -> List[Tuple[int, FrameInfo]]:
        """Every frame of the set as ``(shard, entry)``: name-sorted for a
        set, in container order for a plain container."""
        with self._lock:
            if self._entries is None:
                pairs = [
                    (shard, entry)
                    for shard in range(self.shard_count)
                    for entry in self._shard_op(shard, lambda r: list(r.frames))
                ]
                if self.kind != "plain":
                    pairs.sort(key=lambda pair: pair[1].name)
                self._entries = pairs
            return self._entries

    # -- listing ------------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._all_entries())

    def __iter__(self) -> Iterator[FrameInfo]:
        return (entry for _, entry in self._all_entries())

    @property
    def frames(self) -> List[FrameInfo]:
        return [entry for _, entry in self._all_entries()]

    def describe(self) -> str:
        """The target as given: a path, or the backend's description."""
        return self._source

    def summary(self) -> str:
        """One line on what is open: ``N frames, format vX`` for a plain
        container; frames, shards, router and manifest version for a set."""
        if self.kind == "plain":
            return f"{len(self)} frames, format v{self._reader(0).header.version}"
        placement = self.manifest.placement
        placement_note = (
            f", {len(placement)} shards placed on {len(set(placement.values()))} nodes"
            if placement
            else ""
        )
        return (
            f"{len(self)} frames in {self.shard_count} shards "
            f"({self.manifest.router}-routed), "
            f"manifest v{self.manifest.version}{placement_note}"
        )

    # -- routed access ------------------------------------------------------------------
    def _locate(self, key: FrameKey) -> Tuple[int, FrameInfo]:
        """Resolve a key to ``(shard, entry)``; string keys route directly
        (touching only the target shard), integers index the name-sorted
        set listing, and :class:`FrameInfo` objects route by their name."""
        if isinstance(key, FrameInfo):
            key = key.name
        if isinstance(key, str):
            shard = self.router.route(key)
            return shard, self._shard_op(shard, lambda r: r.find(key))
        if isinstance(key, (int, np.integer)):
            entries = self._all_entries()
            try:
                return entries[key]
            except IndexError as exc:
                raise KeyError(
                    f"archive set has {len(entries)} frames, no index {key}"
                ) from exc
        raise TypeError(f"cannot resolve frame key {key!r}")

    def find(self, key: FrameKey) -> FrameInfo:
        """Resolve a frame by name, set-wide index, or identity."""
        return self._locate(key)[1]

    def read_payload(self, key: FrameKey) -> bytes:
        shard, entry = self._locate(key)
        return self._shard_op(shard, lambda r: r.read_payload(entry))

    def read_payload_slice(self, key: FrameKey, start: int, length: int) -> memoryview:
        """Routed byte-range read within one frame's payload (see
        :meth:`ArchiveReader.read_payload_slice`); only the target shard is
        touched and only ``length`` payload bytes are read."""
        shard, entry = self._locate(key)
        return self._shard_op(
            shard, lambda r: r.read_payload_slice(entry, start, length)
        )

    def read_stream(self, key: FrameKey) -> CompressedStream:
        shard, entry = self._locate(key)
        return self._shard_op(shard, lambda r: r.read_stream(entry))

    def spec_for(self, key: FrameKey) -> CodecSpec:
        shard, entry = self._locate(key)
        return self._shard_op(shard, lambda r: r.spec_for(entry))

    def decode(self, key: FrameKey) -> np.ndarray:
        """Random-access decode: route by name, open one shard, read one
        payload.  On a replicated set a damaged copy is retried on its
        replica transparently (``failovers`` counts each switch); index
        entries carry across copies because every copy is byte-identical.
        """
        shard, entry = self._locate(key)
        return self._shard_op(shard, lambda r: r.decode(entry))

    def read_preview(self, key: FrameKey, at_scale: int) -> np.ndarray:
        """Routed preview decode (see :meth:`ArchiveReader.read_preview`):
        on a subband-major set only the strict byte prefix of the target
        frame's payload is read, with the same failover ladder as
        :meth:`decode`."""
        shard, entry = self._locate(key)
        return self._shard_op(shard, lambda r: r.read_preview(entry, at_scale))

    def read_roi(self, key: FrameKey, y0: int, y1: int) -> np.ndarray:
        """Routed row-band decode (see :meth:`ArchiveReader.read_roi`)."""
        shard, entry = self._locate(key)
        return self._shard_op(shard, lambda r: r.read_roi(entry, y0, y1))

    # -- integrity ----------------------------------------------------------------------
    def verify(
        self, deep: bool = False, workers: int = 1, strict: bool = True
    ) -> VerifyReport:
        """Verify the set copy by copy, isolating damage.

        Every shard *copy* (primary and replicas) is checked (checksums;
        with ``deep`` also a full decode of every frame) even when an
        earlier one fails, so one truncated or corrupted copy never hides
        the health of the rest.  Healthy copies of one shard are also
        cross-checked against each other: a copy that is individually
        valid but diverged from its most complete sibling (a stale replica
        left by a torn fan-out append) is reported as damaged too, because
        it must not serve reads or source a repair.  The copies run as
        ``verify_container`` jobs on the executor ``workers`` names
        (:func:`~repro.archive.reader.verify_containers`: 1 runs inline; a
        wider pool or socket workers — ``"host:port,host:port"`` or a
        :class:`~repro.coding.netexec.WorkerPool`, which must see the
        set's filesystem — split the copies into index parts, each routed
        to its shard's placed node when the manifest has a placement map).
        Copies behind a backend (``backend_factory``, or a plain container
        given as one) verify inline.

        Returns a :class:`VerifyReport` with set totals (counting each
        shard's authoritative copy once) plus ``shards``, ``copies``, a
        ``failures`` mapping (copy file name → error) and ``shard_status``
        (primary shard file name → ``"ok"``/``"damaged"``).  With
        ``strict`` (the default) any damage raises: a plain container
        raises its first damaged frame's error, as
        :meth:`ArchiveReader.verify` does; a set raises
        :class:`ArchiveIntegrityError` naming the damaged shards.  The
        per-copy failure report is exactly what
        :func:`repro.archive.replication.repair_set` consumes to rebuild
        damaged copies from their healthy siblings.
        """
        copy_names: List[Tuple[int, str]] = []  # (shard, copy file name)
        targets: List[Union[Path, StorageBackend]] = []
        replica_map = self.manifest.replica_names or ((),) * self.shard_count
        for shard, primary in enumerate(self.manifest.shard_names):
            for name, path in zip((primary, *replica_map[shard]), self.copy_paths[shard]):
                copy_names.append((shard, name))
                targets.append(self.backend_factory(path) if self.backend_factory else path)
        placement = self.manifest.placement
        prefer = [placement.get(self.manifest.shard_names[shard]) for shard, _ in copy_names]
        results, (hits, fallbacks) = verify_containers(
            targets,
            deep,
            self.engine,
            self.verify_checksums,
            workers,
            prefer,
            # A plain container is open already; a set's shards may not be.
            frames=len(self) if self.kind == "plain" else None,
        )
        with self._lock:
            self.placement_hits += hits
            self.placement_fallbacks += fallbacks
        if strict and self.kind == "plain" and not results[0]["ok"]:
            raise_verify_failure(results[0])

        by_shard: Dict[int, List[Tuple[str, Dict]]] = {}
        for (shard, name), result in zip(copy_names, results):
            by_shard.setdefault(shard, []).append((name, result))

        frames = payload_bytes = 0
        failures: Dict[str, str] = {}
        shard_status: Dict[str, str] = {}
        for shard, primary in enumerate(self.manifest.shard_names):
            copies = by_shard[shard]
            healthy = [(name, res) for name, res in copies if res["ok"]]
            for name, res in copies:
                if not res["ok"]:
                    failures[name] = f"{res['error']}: {res['message']}"
            if healthy:
                # The authoritative copy: most frames wins (appends are
                # monotone), primary wins ties.  Valid-but-diverged
                # siblings are damage, not an alternate truth.
                auth_name, auth = max(healthy, key=lambda item: item[1]["frames"])
                for name, res in healthy:
                    if res["digest"] != auth["digest"]:
                        failures[name] = (
                            f"StaleCopyError: copy holds {res['frames']} frames, "
                            f"diverged from {auth_name} ({auth['frames']} frames)"
                        )
                frames += auth["frames"]
                payload_bytes += auth["payload_bytes"]
            damaged = [name for name, _ in copies if name in failures]
            shard_status[primary] = "damaged" if damaged else "ok"
        report = VerifyReport(
            frames=frames,
            payload_bytes=payload_bytes,
            deep=deep,
            shards=self.shard_count,
            copies=len(copy_names),
            failures=failures,
            shard_status=shard_status,
        )
        if strict and failures:
            damaged_shards = sorted(
                name for name, status in shard_status.items() if status == "damaged"
            )
            raise ArchiveIntegrityError(
                f"{len(damaged_shards)} of {self.shard_count} shards failed "
                f"verification ({', '.join(damaged_shards)}); the other shards "
                "verified clean"
            )
        return report

    # -- lifecycle ----------------------------------------------------------------------
    def close(self) -> None:
        for reader in self._readers.values():
            reader.close()
        self._readers.clear()

    def __enter__(self) -> "ShardedArchiveReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

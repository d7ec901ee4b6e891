"""Persistent archive container with random-access retrieval.

The paper motivates its fixed-point DWT accelerator with the storage and
*retrieval* of medical image archives; this package is the storage half of
that scenario.  An archive is a container holding many losslessly
compressed frames behind an index table, so one frame (or a slice range)
can be located, checksummed and decoded without reading anything else:

``ArchiveWriter`` / ``ArchiveReader``
    Create/append and list/random-access/verify one container.  Both talk
    to a **storage backend** (:mod:`repro.archive.backend`) rather than a
    raw file handle — paths resolve to :class:`FileBackend`, tests and
    staging flows can use :class:`MemoryBackend`, and the bytes are
    identical across backends.
``ShardedArchiveWriter`` / ``ShardedArchiveReader``
    A *sharded archive set* (:mod:`repro.archive.sharding`): one
    :class:`~repro.coding.spec.CodecSpec` spanning N containers behind a
    manifest and a deterministic by-name shard router.  Packs run one
    compress job per shard; random access opens exactly one shard;
    damage to one shard is isolated from the rest.  :func:`open_archive`
    returns a ``ShardedArchiveReader`` for every target — a plain
    container opens as a one-shard set — so callers never branch on
    which kind they opened.
``StreamingIngestor`` / ``ingest_frames`` / ``ingest_async`` / ``iter_compress``
    Streaming ingest (:mod:`repro.archive.ingest`): frames flow from a
    feed through a bounded queue with backpressure straight into (sharded,
    replicated) writers, never materialising the full batch.
``ReplicatedShardSet`` / ``repair_set``
    Self-healing replication (:mod:`repro.archive.replication`): every
    shard kept in R+1 byte-identical copies (manifest v2 replica map),
    appends fan out, routed reads run the retry → failover ladder
    (:class:`RetryPolicy`, ``failovers`` counter), ``verify`` checks every
    copy, and :func:`repair_set` rebuilds damaged copies from healthy
    siblings.  :class:`FaultInjectionBackend` makes every failure mode a
    deterministic, seeded test.
``ArchiveService`` / ``ArchiveHTTPServer`` / ``serve``
    Asyncio HTTP front end (:mod:`repro.archive.server`): frame decodes
    (hot-frame LRU cache), ``Range:`` payload slice reads, manifest/stats
    JSON and streaming ingest over HTTP/1.1 — per-shard bounded worker
    queues between the sockets and the readers, the failure ladder mapped
    to status codes (503 + ``Retry-After`` for persistent damage).
``FrameInfo``
    One frame's index entry (geometry, codec/filter/word-length metadata,
    payload location and CRC-32).

The on-disk formats — container and shard-set manifest — are defined byte
for byte in :mod:`repro.archive.format` (and documented in
``docs/archive_format.md``); frame payloads are (de)serialised in
:mod:`repro.archive.serialize`, their meta blocks as fixed-width
big-endian ``struct`` fields.
A CLI front end runs the scenario end to end against real files::

    python -m repro.archive pack archive.dwta scans/*.pgm
    python -m repro.archive pack set.dwts scans/*.pgm --shards 4 --workers 4
    python -m repro.archive list set.dwts
    python -m repro.archive extract set.dwts slice_004 -o slice.pgm
    python -m repro.archive verify set.dwts --deep --workers 4
    python -m repro.archive serve set.dwts --port 8765
"""

from .backend import (
    Fault,
    FaultInjectionBackend,
    FileBackend,
    MemoryBackend,
    RetryPolicy,
    StorageBackend,
    resolve_backend,
    seeded_fault_plan,
)
from .format import (
    LAYOUT_FRAME_MAJOR,
    LAYOUT_SUBBAND_MAJOR,
    LAYOUTS,
    MAGIC,
    MANIFEST_MAGIC,
    VERSION,
    ArchiveError,
    ArchiveFormatError,
    ArchiveIntegrityError,
    ArchiveTruncatedError,
    FrameInfo,
    ShardManifest,
    TruncatedArchiveError,
)
from .ingest import (
    IngestReport,
    StreamingIngestor,
    ingest_async,
    ingest_frames,
    iter_compress,
)
from .placement import assign_round_robin, normalize_placement, placement_of
from .reader import ArchiveReader, VerifyReport
from .serialize import (
    deserialize_prefix,
    deserialize_stream,
    deserialize_stream_with_spec,
    frame_spec,
    payload_layout,
    prefix_length,
    serialize_stream,
    spec_for_stream,
)
from .replication import (
    RepairReport,
    ReplicatedShardSet,
    repair_set,
    shard_replica_names,
)
from .sharding import (
    HashRouter,
    RangeRouter,
    ShardedArchiveReader,
    ShardedArchiveWriter,
    ShardRouter,
    is_sharded,
    make_router,
    open_archive,
    write_manifest,
)
from .server import (
    ArchiveHTTPServer,
    ArchiveService,
    HotFrameCache,
    HTTPError,
    serve,
)
from .writer import ArchiveWriter

__all__ = [
    "MAGIC",
    "MANIFEST_MAGIC",
    "VERSION",
    "LAYOUT_FRAME_MAJOR",
    "LAYOUT_SUBBAND_MAJOR",
    "LAYOUTS",
    "ArchiveError",
    "ArchiveFormatError",
    "ArchiveIntegrityError",
    "TruncatedArchiveError",
    "ArchiveTruncatedError",
    "FrameInfo",
    "ShardManifest",
    "StorageBackend",
    "FileBackend",
    "MemoryBackend",
    "resolve_backend",
    "RetryPolicy",
    "Fault",
    "FaultInjectionBackend",
    "seeded_fault_plan",
    "ArchiveReader",
    "VerifyReport",
    "ArchiveWriter",
    "ShardRouter",
    "HashRouter",
    "RangeRouter",
    "make_router",
    "is_sharded",
    "open_archive",
    "normalize_placement",
    "assign_round_robin",
    "placement_of",
    "ShardedArchiveWriter",
    "ShardedArchiveReader",
    "write_manifest",
    "ReplicatedShardSet",
    "RepairReport",
    "repair_set",
    "shard_replica_names",
    "IngestReport",
    "StreamingIngestor",
    "ingest_frames",
    "ingest_async",
    "iter_compress",
    "serialize_stream",
    "deserialize_stream",
    "deserialize_stream_with_spec",
    "deserialize_prefix",
    "payload_layout",
    "prefix_length",
    "frame_spec",
    "spec_for_stream",
    "ArchiveService",
    "ArchiveHTTPServer",
    "HotFrameCache",
    "HTTPError",
    "serve",
]

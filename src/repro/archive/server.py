"""Asyncio HTTP front end: serve archive retrieval and ingest over the network.

Everything below this module is pull-based and in-process; this is the
serving layer the paper's archive scenario ultimately needs — many remote
viewers pulling frames (or byte ranges of frames) from one archive set
while a modality feed appends to it.  The shape mirrors a hardware
datapath: **bounded queues with backpressure between transport and
datapath**.  Sockets never touch the archive directly; each request is
routed to its shard's bounded :class:`asyncio.Queue` and executed by that
shard's small pool of reader workers, so

* concurrent requests to *different* shards never serialise behind one
  reader (one queue + worker pool per shard),
* a flood of requests to one shard fills that shard's queue and defers the
  producers (``await queue.put``) instead of growing unbounded state, and
* a streaming ingest POST propagates the bounded-queue contract of
  :func:`~repro.archive.ingest.ingest_async` all the way to the socket:
  when the compressor falls behind, the server simply stops reading the
  request body and TCP pushes back on the sender.

The pieces, bottom up:

:class:`HotFrameCache`
    A byte-budgeted LRU of *decoded* frames (the expensive artifact),
    keyed by ``(generation, name)`` — appending bumps the generation, so
    an ingest invalidates the whole cached view atomically.  Modelled on
    the process-wide ``_InstanceLRU`` in :mod:`repro.coding.pipeline`,
    with ``cache_info()`` evidence counters.
:class:`ArchiveService`
    Wraps one archive target (plain container, sharded set, replicated
    set — by path or :class:`~repro.archive.backend.StorageBackend`),
    opened through the one front reader
    (:func:`~repro.archive.sharding.open_archive`; a plain container is a
    one-shard set), behind async operations: cached frame decodes,
    zero-copy payload slice reads, metadata/manifest listings, live stats,
    and serialized streaming ingest.  The PR 6 failure ladder (retry → failover) runs
    inside the readers; what survives it surfaces here as an
    :class:`~repro.archive.format.ArchiveError` the HTTP layer maps to
    **503 + Retry-After** (persistent damage needs an operator, not a
    hot loop of client retries).
:class:`ArchiveHTTPServer`
    A deliberately small HTTP/1.1 server on ``asyncio.start_server`` —
    stdlib only, keep-alive, chunked and content-length request bodies,
    hard limits on request-line/header sizes, and a strict status
    taxonomy (table in ``docs/operations.md``).  Malformed input is
    answered (400/405/411/416/431/505) or the connection is closed;
    nothing a client sends reaches the event loop as an exception.

Endpoints::

    GET  /frames/<name>        decoded frame (raw little-endian pixels;
                               X-Frame-Shape/X-Frame-Dtype headers);
                               with ``Range: bytes=a-b`` → 206 with that
                               slice of the *stored payload* read through
                               the zero-copy path (bytes_read advances by
                               the slice length only)
    GET  /frames/<name>/preview?scale=k
                               scale-k preview decode — on subband-major
                               frames only the strict byte prefix of the
                               payload is read; previews cache under
                               (generation, name, scale); ``?roi=y0-y1``
                               decodes just that row band instead
    GET  /frames/<name>/meta   one frame's index entry + stored CodecSpec
    GET  /manifest             whole-set listing: frames, shard/replica
                               layout, router, set-level spec
    GET  /stats                live counters: requests, cache, reader
                               (bytes_read/zero_copy/retries/failovers),
                               queue depths, ingest totals
    POST /ingest               streaming body of frame records →
                               ``ingest_async`` with backpressure; frames
                               become visible (and the cache generation
                               bumps) when the ingest finalises

The CLI front end is ``python -m repro.archive serve`` and the many-client
load benchmark is ``benchmarks/bench_archive_server.py``.
"""

from __future__ import annotations

import asyncio
import json
import struct
import threading
from collections import OrderedDict
from pathlib import Path
from typing import (
    AsyncIterator,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)
from urllib.parse import parse_qs, unquote

import numpy as np

from ..dwt.subbands import MAX_FRAME_PIXELS
from .backend import RetryPolicy, StorageBackend
from .format import ArchiveError, FrameInfo
from .ingest import IngestReport, ingest_async
from .serialize import frame_spec
from .sharding import (
    ShardedArchiveReader,
    ShardedArchiveWriter,
    is_sharded,
    open_archive,
)
from .writer import ArchiveWriter

__all__ = [
    "HotFrameCache",
    "ArchiveService",
    "ArchiveHTTPServer",
    "HTTPError",
    "parse_range",
    "frame_to_wire",
    "serve",
]

Target = Union[str, Path, StorageBackend]

#: Hard parser limits — a client cannot make the server hold unbounded
#: header state (the ingest *body* is unbounded by design; its records are
#: individually capped instead, a record's geometry at the library-wide
#: :data:`~repro.dwt.subbands.MAX_FRAME_PIXELS`).
MAX_REQUEST_LINE = 8192
MAX_HEADER_COUNT = 100
MAX_NAME_BYTES = 1024
MAX_CHUNK_BYTES = 1 << 24

_REASONS = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    416: "Range Not Satisfiable",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class HTTPError(Exception):
    """One HTTP error response: status, message, optional extra headers.

    Raised anywhere under a request handler; the connection loop renders it
    as a JSON error body.  ``close`` marks errors after which the
    connection's state is unknowable (half-parsed head, unconsumed body)
    and must be closed rather than kept alive.
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        self.close = close


# ---------------------------------------------------------------------------
# Hot-frame cache
# ---------------------------------------------------------------------------

class HotFrameCache:
    """Byte-budgeted LRU of decoded frames, keyed by ``(generation, name)``.

    The budget counts frame pixel bytes (``frame.nbytes``): decoded frames
    are the artifact worth keeping hot — a hit skips the shard queue, the
    payload read *and* the decode.  Eviction is LRU while over budget; a
    frame larger than the whole budget is simply not cached.  A zero
    budget disables the cache (every ``get`` is a miss).  Appends never
    mutate cached state: the service bumps its generation and calls
    :meth:`invalidate`, so stale entries cannot be addressed again.
    """

    def __init__(self, max_bytes: int = 64 << 20) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.current_bytes = 0
        # Per request kind ("full" decodes vs "preview" decodes): the
        # aggregate hits/misses above stay the totals across kinds.
        self._kind_hits: Dict[str, int] = {}
        self._kind_misses: Dict[str, int] = {}
        self._items: "OrderedDict[Tuple, Tuple[FrameInfo, np.ndarray]]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Tuple, kind: str = "full") -> Optional[Tuple[FrameInfo, np.ndarray]]:
        with self._lock:
            value = self._items.get(key)
            if value is None:
                self.misses += 1
                self._kind_misses[kind] = self._kind_misses.get(kind, 0) + 1
                return None
            self._items.move_to_end(key)
            self.hits += 1
            self._kind_hits[kind] = self._kind_hits.get(kind, 0) + 1
            return value

    def put(self, key: Tuple, entry: FrameInfo, frame: np.ndarray) -> None:
        size = int(frame.nbytes)
        if size > self.max_bytes:
            return
        with self._lock:
            if key in self._items:
                return
            self._items[key] = (entry, frame)
            self.current_bytes += size
            while self.current_bytes > self.max_bytes and self._items:
                _, (_, evicted) = self._items.popitem(last=False)
                self.current_bytes -= int(evicted.nbytes)
                self.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (called on append: the generation moved on)."""
        with self._lock:
            self._items.clear()
            self.current_bytes = 0

    def cache_info(self) -> Dict[str, object]:
        with self._lock:
            kinds = sorted(set(self._kind_hits) | set(self._kind_misses))
            return {
                "entries": len(self._items),
                "bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "kinds": {
                    kind: {
                        "hits": self._kind_hits.get(kind, 0),
                        "misses": self._kind_misses.get(kind, 0),
                    }
                    for kind in kinds
                },
            }


# ---------------------------------------------------------------------------
# Wire helpers
# ---------------------------------------------------------------------------

def frame_to_wire(frame: np.ndarray) -> Tuple[str, Tuple[int, ...], memoryview]:
    """A decoded frame as ``(dtype_str, shape, little-endian byte view)``.

    The HTTP body is the raw C-order pixel buffer; dtype and shape ride in
    response headers, so a client rebuilds the exact array (and the test
    suite proves byte identity against a direct reader decode).  The body
    is a flat byte view of the (little-endian, C-order) pixels rather than
    a copy: a cached frame goes to the socket without a per-request copy
    of its buffer.
    """
    array = np.ascontiguousarray(frame)
    little = array.astype(array.dtype.newbyteorder("<"), copy=False)
    return little.dtype.str, tuple(array.shape), memoryview(little).cast("B")


def parse_range(value: str, size: int) -> Tuple[int, int]:
    """Parse a ``Range:`` header against a ``size``-byte payload.

    Returns ``(start, length)``.  Supports the single-range forms
    ``bytes=a-b``, ``bytes=a-`` and ``bytes=-suffix``.  Malformed syntax
    (including multi-range) is **400**; a syntactically valid range that
    lies outside the payload is **416** with ``Content-Range: bytes */N``.
    """
    unsatisfiable = HTTPError(
        416,
        f"range {value!r} not satisfiable over {size} payload bytes",
        headers={"Content-Range": f"bytes */{size}"},
    )
    if not value.startswith("bytes="):
        raise HTTPError(400, f"unsupported Range unit in {value!r}")
    spec = value[len("bytes="):].strip()
    if "," in spec:
        raise HTTPError(400, "multiple ranges are not supported")
    first, dash, last = spec.partition("-")
    if not dash:
        raise HTTPError(400, f"malformed Range {value!r}")
    first, last = first.strip(), last.strip()
    if not first and not last:
        raise HTTPError(400, f"malformed Range {value!r}")
    try:
        if not first:  # bytes=-suffix: the final `last` bytes
            suffix = int(last)
            if suffix <= 0:
                raise unsatisfiable
            start = max(0, size - suffix)
            return start, size - start
        start = int(first)
        stop = int(last) if last else None
    except ValueError:
        raise HTTPError(400, f"malformed Range {value!r}") from None
    if start < 0 or (stop is not None and stop < start):
        raise HTTPError(400, f"malformed Range {value!r}")
    if start >= size:
        raise unsatisfiable
    stop = size - 1 if stop is None else min(stop, size - 1)
    return start, stop - start + 1


# ---------------------------------------------------------------------------
# Request bodies (Content-Length and chunked) and the ingest wire format
# ---------------------------------------------------------------------------

class _ContentLengthBody:
    """Reads exactly ``length`` body bytes off the stream."""

    def __init__(self, reader: asyncio.StreamReader, length: int) -> None:
        self._reader = reader
        self._remaining = length

    async def read(self, count: int) -> bytes:
        """Exactly ``count`` bytes, or ``b""`` at a clean end of body."""
        if self._remaining == 0:
            return b""
        if count > self._remaining:
            raise HTTPError(400, "ingest body ends mid-record", close=True)
        data = await self._reader.readexactly(count)
        self._remaining -= count
        return data


class _ChunkedBody:
    """Reads a ``Transfer-Encoding: chunked`` body chunk by chunk."""

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._chunk_remaining = 0
        self._done = False

    async def _next_chunk(self) -> None:
        line = await self._reader.readline()
        if not line.endswith(b"\n"):
            raise HTTPError(400, "connection closed inside chunked body", close=True)
        size_text = line.strip().split(b";", 1)[0]
        try:
            size = int(size_text, 16)
        except ValueError:
            raise HTTPError(400, f"malformed chunk size {size_text!r}", close=True) from None
        if size < 0 or size > MAX_CHUNK_BYTES:
            raise HTTPError(413, f"chunk of {size} bytes exceeds the limit", close=True)
        if size == 0:
            # Trailer section: lines until the blank line.
            while True:
                trailer = await self._reader.readline()
                if trailer in (b"\r\n", b"\n", b""):
                    break
            self._done = True
            return
        self._chunk_remaining = size

    async def read(self, count: int) -> bytes:
        """Exactly ``count`` bytes across chunks, or ``b""`` at the end."""
        parts: List[bytes] = []
        needed = count
        while needed:
            if self._done:
                if parts:
                    raise HTTPError(400, "ingest body ends mid-record", close=True)
                return b""
            if self._chunk_remaining == 0:
                await self._next_chunk()
                continue
            take = min(needed, self._chunk_remaining)
            parts.append(await self._reader.readexactly(take))
            self._chunk_remaining -= take
            needed -= take
            if self._chunk_remaining == 0:
                crlf = await self._reader.readexactly(2)
                if crlf != b"\r\n":
                    raise HTTPError(400, "malformed chunk terminator", close=True)
        return b"".join(parts)


#: One ingest record: name length, UTF-8 name, height, width (all u32 LE),
#: then ``height*width`` little-endian uint16 pixels.
_RECORD_HEAD = struct.Struct("<I")
_RECORD_DIMS = struct.Struct("<II")


def encode_ingest_record(name: str, frame: np.ndarray) -> bytes:
    """Serialise one ``(name, frame)`` pair in the POST /ingest wire format."""
    raw = np.ascontiguousarray(frame)
    if raw.ndim != 2:
        raise ValueError(f"ingest frames are 2-D, got shape {raw.shape}")
    encoded = name.encode("utf-8")
    pixels = raw.astype("<u2", copy=False)
    return b"".join(
        (
            _RECORD_HEAD.pack(len(encoded)),
            encoded,
            _RECORD_DIMS.pack(raw.shape[0], raw.shape[1]),
            pixels.tobytes(),
        )
    )


async def _frames_from_body(body) -> AsyncIterator[Tuple[str, np.ndarray]]:
    """Parse ingest records off a request body, one frame at a time.

    Pull-based: the next record is only read when the consumer —
    :func:`~repro.archive.ingest.ingest_async`, holding a bounded-queue
    permit — asks for it, which is exactly how compressor backpressure
    becomes a deferred socket read.
    """
    while True:
        head = await body.read(_RECORD_HEAD.size)
        if not head:
            return
        (name_length,) = _RECORD_HEAD.unpack(head)
        if not 0 < name_length <= MAX_NAME_BYTES:
            raise HTTPError(400, f"ingest record name length {name_length} invalid", close=True)
        try:
            name = (await body.read(name_length)).decode("utf-8")
        except UnicodeDecodeError:
            raise HTTPError(400, "ingest record name is not UTF-8", close=True) from None
        height, width = _RECORD_DIMS.unpack(await body.read(_RECORD_DIMS.size))
        if height < 1 or width < 1 or height * width > MAX_FRAME_PIXELS:
            raise HTTPError(
                400, f"ingest record geometry {height}x{width} invalid", close=True
            )
        data = await body.read(height * width * 2)
        frame = np.frombuffer(data, dtype="<u2").reshape(height, width).copy()
        yield name, frame


# ---------------------------------------------------------------------------
# The service: shard worker pools + cache over the reader stack
# ---------------------------------------------------------------------------

class ArchiveService:
    """Async operations over one archive target, behind per-shard queues.

    Parameters
    ----------
    target:
        Archive path (plain container or shard-set manifest, told apart by
        magic) or a :class:`~repro.archive.backend.StorageBackend` holding
        a plain container.
    cache_bytes:
        Hot-frame cache budget in bytes (0 disables caching).
    workers_per_shard:
        Reader worker tasks per shard (each runs its blocking archive op
        in a thread); different shards never share a queue.
    queue_depth:
        Bound of each shard's request queue; a full queue defers
        submitters instead of accumulating work.
    readonly:
        Reject ``POST /ingest`` with 403.
    retry / backend_factory / engine / zero_copy:
        Threaded through to the readers (the retry → failover ladder and
        the fault-injection seam work unchanged behind the service).
    """

    def __init__(
        self,
        target: Target,
        cache_bytes: int = 64 << 20,
        workers_per_shard: int = 2,
        queue_depth: int = 16,
        readonly: bool = False,
        engine: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        backend_factory: Optional[Callable[[Path], StorageBackend]] = None,
        zero_copy: bool = True,
        retry_after: float = 1.0,
    ) -> None:
        if workers_per_shard < 1:
            raise ValueError(f"workers_per_shard must be >= 1, got {workers_per_shard}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.target = target
        self.engine = engine
        self.retry = retry
        self.backend_factory = backend_factory
        self.zero_copy = zero_copy
        self.readonly = bool(readonly)
        self.workers_per_shard = int(workers_per_shard)
        self.queue_depth = int(queue_depth)
        #: Seconds clients are told to wait after a 503 (``Retry-After``).
        self.retry_after = retry_after
        self.cache = HotFrameCache(cache_bytes)
        self._reader = self._open_reader()
        self._graveyard: List[object] = []
        self._generation = 0
        self._ingests = 0
        self._frames_ingested = 0
        self._requests: Dict[str, int] = {}
        self._responses: Dict[str, int] = {}
        self._queues: List["asyncio.Queue"] = []
        self._queue_peaks: List[int] = []
        self._submitted = 0
        self._workers: List["asyncio.Task"] = []
        self._ingest_lock: Optional[asyncio.Lock] = None
        self._started = False

    # -- target plumbing ----------------------------------------------------------------
    def _open_reader(self) -> ShardedArchiveReader:
        return open_archive(
            self.target,
            engine=self.engine,
            retry=self.retry,
            backend_factory=self.backend_factory,
            zero_copy=self.zero_copy,
        )

    def _open_writer(self):
        if isinstance(self.target, StorageBackend):
            return ArchiveWriter.append(self.target)
        if is_sharded(self.target):
            # Dispatches to ReplicatedShardSet when the manifest carries a
            # replica map, so ingest through the server fans out too.
            return ShardedArchiveWriter.append(self.target)
        return ArchiveWriter.append(self.target)

    @property
    def kind(self) -> str:
        """``"plain"``, ``"sharded"`` or ``"replicated"``."""
        return self._reader.kind

    @property
    def shard_count(self) -> int:
        return self._reader.shard_count

    @property
    def generation(self) -> int:
        return self._generation

    def _route(self, name: str) -> int:
        return self._reader.router.route(name)

    # -- lifecycle ----------------------------------------------------------------------
    async def start(self) -> None:
        """Create the per-shard queues and worker tasks (idempotent)."""
        if self._started:
            return
        self._ingest_lock = asyncio.Lock()
        self._queues = [
            asyncio.Queue(maxsize=self.queue_depth) for _ in range(self.shard_count)
        ]
        self._queue_peaks = [0] * self.shard_count
        self._workers = [
            asyncio.create_task(
                self._worker(queue), name=f"archive-shard{shard}-worker{slot}"
            )
            for shard, queue in enumerate(self._queues)
            for slot in range(self.workers_per_shard)
        ]
        self._started = True

    async def close(self) -> None:
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        self._started = False
        for reader in (*self._graveyard, self._reader):
            try:
                reader.close()
            except Exception:  # pragma: no cover - best-effort shutdown
                pass
        self._graveyard = []
        self.cache.invalidate()

    async def _worker(self, queue: "asyncio.Queue") -> None:
        """One shard worker: drain the queue, run each op in a thread."""
        while True:
            fn, future = await queue.get()
            try:
                result = await asyncio.to_thread(fn)
            except BaseException as exc:  # noqa: BLE001 - relayed to the future
                if isinstance(exc, asyncio.CancelledError):
                    if not future.done():
                        future.set_exception(ConnectionAbortedError("server closing"))
                    raise
                if not future.done():
                    future.set_exception(exc)
            else:
                if not future.done():
                    future.set_result(result)
            finally:
                queue.task_done()

    async def _submit(self, shard: int, fn: Callable[[], object]):
        """Queue one blocking archive op on a shard; awaits its result.

        ``await queue.put`` is the backpressure point: a full shard queue
        suspends this request (and, through it, the connection's read
        loop) until the shard's workers catch up.
        """
        if not self._started:
            await self.start()
        queue = self._queues[shard]
        future = asyncio.get_running_loop().create_future()
        await queue.put((fn, future))
        self._submitted += 1
        depth = queue.qsize()
        if depth > self._queue_peaks[shard]:
            self._queue_peaks[shard] = depth
        return await future

    # -- counters -----------------------------------------------------------------------
    def note_request(self, endpoint: str) -> None:
        self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def note_response(self, status: int) -> None:
        key = str(status)
        self._responses[key] = self._responses.get(key, 0) + 1

    def _reader_counters(self) -> Dict[str, object]:
        readers = [*self._graveyard, self._reader]
        counters: Dict[str, object] = {
            name: sum(getattr(r, name) for r in readers)
            for name in (
                "bytes_read",
                "zero_copy_reads",
                "retries",
                "failovers",
                "placement_hits",
                "placement_fallbacks",
            )
        }
        counters["opened_shards"] = self._reader.opened_shards
        return counters

    def stats(self) -> Dict[str, object]:
        """The live counters behind ``GET /stats`` (plain data, no I/O)."""
        return {
            "archive": self._reader.describe(),
            "kind": self.kind,
            "readonly": self.readonly,
            "requests": {
                "total": sum(self._requests.values()),
                **dict(sorted(self._requests.items())),
            },
            "responses": dict(sorted(self._responses.items())),
            "cache": self.cache.cache_info(),
            "reader": self._reader_counters(),
            "queues": {
                "capacity": self.queue_depth,
                "workers_per_shard": self.workers_per_shard,
                "depths": [queue.qsize() for queue in self._queues],
                "peak_depths": list(self._queue_peaks),
                "submitted": self._submitted,
            },
            "ingest": {
                "ingests": self._ingests,
                "frames_ingested": self._frames_ingested,
                "generation": self._generation,
            },
            "placement": dict(self._reader.manifest.placement),
        }

    # -- read operations ----------------------------------------------------------------
    async def get_frame(self, name: str) -> Tuple[FrameInfo, np.ndarray, bool]:
        """Decode one frame, hot-cache first; returns ``(entry, frame, hit)``."""
        key = (self._generation, name, "full")
        cached = self.cache.get(key, kind="full")
        if cached is not None:
            entry, frame = cached
            return entry, frame, True

        def work() -> Tuple[FrameInfo, np.ndarray]:
            reader = self._reader
            entry = reader.find(name)
            return entry, reader.decode(entry)

        entry, frame = await self._submit(self._route(name), work)
        self.cache.put(key, entry, frame)
        return entry, frame, False

    async def get_preview(
        self, name: str, scale: int
    ) -> Tuple[FrameInfo, np.ndarray, bool]:
        """Decode one frame's scale-``scale`` preview, hot-cache first.

        Previews cache under ``(generation, name, "preview", scale)`` —
        distinct per scale and per kind, and invalidated by the same
        generation bump that covers full frames.  A miss on a
        subband-major frame reads only the strict byte prefix of its
        payload (:meth:`ArchiveReader.read_preview`).
        """
        key = (self._generation, name, "preview", int(scale))
        cached = self.cache.get(key, kind="preview")
        if cached is not None:
            entry, frame = cached
            return entry, frame, True

        def work() -> Tuple[FrameInfo, np.ndarray]:
            reader = self._reader
            entry = reader.find(name)
            return entry, reader.read_preview(entry, scale)

        entry, frame = await self._submit(self._route(name), work)
        self.cache.put(key, entry, frame)
        return entry, frame, False

    async def get_roi(self, name: str, y0: int, y1: int) -> Tuple[FrameInfo, np.ndarray]:
        """Decode just the row band ``[y0, y1)`` of one frame (uncached —
        arbitrary bands would pollute the byte budget; the windowed
        synthesis already makes them cheap)."""

        def work() -> Tuple[FrameInfo, np.ndarray]:
            reader = self._reader
            entry = reader.find(name)
            return entry, reader.read_roi(entry, y0, y1)

        return await self._submit(self._route(name), work)

    async def get_frame_slice(
        self, name: str, range_value: str
    ) -> Tuple[FrameInfo, int, bytes]:
        """A ``Range:`` read of one frame's stored payload bytes.

        Returns ``(entry, start, data)``; only the requested window is
        read (zero-copy where the backend allows), which is what makes
        ranged reads cheap — the server's ``bytes_read`` counter advances
        by ``len(data)``, not by the payload size.
        """

        def work() -> Tuple[FrameInfo, int, bytes]:
            reader = self._reader
            entry = reader.find(name)
            start, length = parse_range(range_value, entry.length)
            data = reader.read_payload_slice(entry, start, length)
            return entry, start, bytes(data)

        return await self._submit(self._route(name), work)

    async def get_meta(self, name: str) -> Dict[str, object]:
        """One frame's index entry + stored spec (no payload bytes read)."""

        def work() -> Dict[str, object]:
            entry = self._reader.find(name)
            return self._entry_record(entry)

        return await self._submit(self._route(name), work)

    def _entry_record(self, entry: FrameInfo) -> Dict[str, object]:
        return {
            "name": entry.name,
            "index": entry.index,
            "codec": entry.codec,
            "scales": entry.scales,
            "bit_depth": entry.bit_depth,
            "shape": list(entry.shape),
            "bank": entry.bank_name,
            "use_rle": entry.use_rle,
            "layout": entry.layout,
            "offset": entry.offset,
            "stored_bytes": entry.length,
            "raw_bytes": entry.raw_bytes,
            "crc32": f"{entry.crc32:08x}",
            "spec": frame_spec(entry).to_dict(),
            "shard": self._route(entry.name),
        }

    async def get_manifest(self) -> Dict[str, object]:
        """The whole-set listing behind ``GET /manifest``."""

        def work() -> Dict[str, object]:
            reader = self._reader
            manifest = reader.manifest
            replica_map = manifest.replica_names or ((),) * reader.shard_count
            return {
                "archive": self._reader.describe(),
                "kind": self.kind,
                "generation": self._generation,
                "frames": [self._entry_record(entry) for entry in reader.frames],
                "shards": {
                    "count": reader.shard_count,
                    "router": manifest.router,
                    "boundaries": list(manifest.boundaries),
                    "names": list(manifest.shard_names),
                    "replicas": {
                        primary: list(replica_map[shard])
                        for shard, primary in enumerate(manifest.shard_names)
                    },
                    "placement": dict(manifest.placement),
                    "manifest_version": manifest.version,
                },
                # None only for an empty plain container (no frame to ask).
                "spec": reader.spec.to_dict() if reader.spec is not None else None,
            }

        return await asyncio.to_thread(work)

    # -- ingest -------------------------------------------------------------------------
    async def ingest(self, feed, queue_depth: int = 4) -> IngestReport:
        """Stream a feed of ``(name, frame)`` pairs into the archive.

        One ingest at a time (appends are writer-exclusive); readers keep
        serving the pre-append snapshot throughout, and the new frames
        become visible — with the hot cache invalidated — only when the
        writer has finalised.
        """
        if self.readonly:
            raise HTTPError(403, "archive is served read-only")
        if not self._started:
            await self.start()
        async with self._ingest_lock:
            writer = await asyncio.to_thread(self._open_writer)
            try:
                report = await ingest_async(writer, feed, queue_depth=queue_depth)
            finally:
                await asyncio.to_thread(writer.close)
                await self._reload()
            self._ingests += 1
            self._frames_ingested += report.frames
            return report

    async def _reload(self) -> None:
        """Reopen the reader view and invalidate the cache (post-append).

        The old reader retires to a graveyard instead of closing: shard
        workers may still be serving requests against it, and its
        counters stay part of the service totals either way.
        """
        def _swap() -> None:
            self._graveyard.append(self._reader)
            self._reader = self._open_reader()

        await asyncio.to_thread(_swap)
        self._generation += 1
        self.cache.invalidate()


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------

async def _read_request_head(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, str, Dict[str, str]]]:
    """Parse one request head; ``None`` on a clean EOF before any byte.

    Raises :class:`HTTPError` (400/431/505) on malformed input and
    ``ConnectionResetError`` when the peer vanishes mid-head.
    """
    try:
        line = await reader.readline()
    except ValueError:  # line over the stream limit
        raise HTTPError(431, "request line too long", close=True) from None
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ConnectionResetError("peer closed mid request line")
    try:
        text = line.strip().decode("ascii")
    except UnicodeDecodeError:
        raise HTTPError(400, "request line is not ASCII", close=True) from None
    parts = text.split()
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line {text!r}", close=True)
    method, target, version = parts
    if not version.startswith("HTTP/"):
        raise HTTPError(400, f"malformed HTTP version {version!r}", close=True)
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HTTPError(505, f"unsupported {version}", close=True)
    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise HTTPError(431, "header line too long", close=True) from None
        if not line.endswith(b"\n"):
            raise ConnectionResetError("peer closed mid headers")
        if line in (b"\r\n", b"\n"):
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise HTTPError(431, "too many headers", close=True)
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name.strip():
            raise HTTPError(400, f"malformed header line {line!r}", close=True)
        headers[name.strip().lower()] = value.strip()
    return method, target, version, headers


class ArchiveHTTPServer:
    """The asyncio HTTP/1.1 server over one :class:`ArchiveService`.

    ``port=0`` binds an ephemeral port (``server.address`` has the real
    one) — what the tests and the benchmark use.  The connection handler
    is exception-proof by construction: protocol errors are answered,
    archive errors map to the status taxonomy, anything unexpected gets a
    500 and the connection is closed; nothing propagates to the loop.
    """

    def __init__(
        self,
        service: ArchiveService,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()

    # -- lifecycle ----------------------------------------------------------------------
    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_REQUEST_LINE
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Reap open keep-alive connections; the handlers swallow their own
        # cancellation, so this never surfaces to the loop.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        await self.service.close()

    async def __aenter__(self) -> "ArchiveHTTPServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- responses ----------------------------------------------------------------------
    @staticmethod
    def _render_head(
        status: int,
        headers: Dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> bytes:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        headers: Dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        self.service.note_response(status)
        # Head and body go out as two writes: joining them would copy every
        # frame body once more per response.
        writer.write(self._render_head(status, headers, body, keep_alive))
        writer.write(body)
        await writer.drain()

    async def _send_error(
        self, writer: asyncio.StreamWriter, error: HTTPError, keep_alive: bool
    ) -> None:
        body = json.dumps({"error": error.message, "status": error.status}).encode()
        headers = {"Content-Type": "application/json", **error.headers}
        await self._send(writer, error.status, headers, body, keep_alive)

    # -- the connection loop ------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    head = await _read_request_head(reader)
                except HTTPError as error:
                    await self._send_error(writer, error, keep_alive=False)
                    break
                if head is None:
                    break
                method, target, version, headers = head
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                try:
                    status, extra, body = await self._dispatch(
                        method, target, headers, reader
                    )
                except HTTPError as error:
                    if error.close:
                        keep_alive = False
                    # A request with an unconsumed body poisons the stream.
                    if method == "POST" and error.status != 403:
                        keep_alive = False
                    await self._send_error(writer, error, keep_alive)
                    if not keep_alive:
                        break
                    continue
                except Exception:  # noqa: BLE001 - last-resort guard
                    await self._send_error(
                        writer,
                        HTTPError(500, "internal server error"),
                        keep_alive=False,
                    )
                    break
                await self._send(writer, status, extra, body, keep_alive)
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            BrokenPipeError,
        ):
            pass  # peer went away; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down; end this connection quietly
        except Exception:  # noqa: BLE001 - never let a connection kill the loop
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await asyncio.shield(writer.wait_closed())
            except (Exception, asyncio.CancelledError):  # noqa: BLE001
                pass

    # -- routing ------------------------------------------------------------------------
    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        reader: asyncio.StreamReader,
    ) -> Tuple[int, Dict[str, str], bytes]:
        raw_path, _, query = target.partition("?")
        path = unquote(raw_path)
        params = parse_qs(query, keep_blank_values=True) if query else {}
        try:
            if path == "/stats":
                self._require(method, "GET")
                self.service.note_request("stats")
                return self._json(200, self.service.stats())
            if path == "/manifest":
                self._require(method, "GET")
                self.service.note_request("manifest")
                return self._json(200, await self.service.get_manifest())
            if path == "/ingest":
                self._require(method, "POST")
                self.service.note_request("ingest")
                return await self._handle_ingest(headers, reader)
            if path.startswith("/frames/"):
                remainder = path[len("/frames/"):]
                if remainder.endswith("/preview"):
                    name = remainder[: -len("/preview")]
                    if not name or "/" in name:
                        raise HTTPError(404, f"no such resource {path!r}")
                    self._require(method, "GET")
                    self.service.note_request("preview")
                    return await self._handle_preview(name, params)
                if remainder.endswith("/meta"):
                    name = remainder[: -len("/meta")]
                    if not name or "/" in name:
                        raise HTTPError(404, f"no such resource {path!r}")
                    self._require(method, "GET")
                    self.service.note_request("meta")
                    return self._json(200, await self.service.get_meta(name))
                name = remainder
                if not name or "/" in name:
                    raise HTTPError(404, f"no such resource {path!r}")
                self._require(method, "GET")
                self.service.note_request("frames")
                return await self._handle_frame(name, headers)
            raise HTTPError(404, f"no such resource {path!r}")
        except HTTPError:
            raise
        except KeyError as exc:
            message = str(exc.args[0]) if exc.args else str(exc)
            raise HTTPError(404, message) from exc
        except ValueError as exc:
            raise HTTPError(400, str(exc)) from exc
        except (ArchiveError, OSError) as exc:
            # The readers already ran the retry → failover ladder; damage
            # that still surfaces here is persistent.  503 + Retry-After
            # tells clients to back off while an operator repairs.
            raise HTTPError(
                503,
                f"{type(exc).__name__}: {exc}",
                headers={"Retry-After": f"{self.service.retry_after:g}"},
            ) from exc

    @staticmethod
    def _require(method: str, allowed: str) -> None:
        if method != allowed:
            raise HTTPError(
                405, f"method {method} not allowed", headers={"Allow": allowed}
            )

    @staticmethod
    def _json(status: int, payload: object) -> Tuple[int, Dict[str, str], bytes]:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        return status, {"Content-Type": "application/json"}, body

    async def _handle_frame(
        self, name: str, headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, str], bytes]:
        range_value = headers.get("range")
        if range_value is not None:
            entry, start, data = await self.service.get_frame_slice(name, range_value)
            return (
                206,
                {
                    "Content-Type": "application/octet-stream",
                    "Content-Range": (
                        f"bytes {start}-{start + len(data) - 1}/{entry.length}"
                    ),
                    "X-Frame-Name": entry.name,
                    "X-Frame-Payload-Bytes": str(entry.length),
                },
                data,
            )
        entry, frame, hit = await self.service.get_frame(name)
        dtype, shape, body = frame_to_wire(frame)
        return (
            200,
            {
                "Content-Type": "application/octet-stream",
                "X-Frame-Name": entry.name,
                "X-Frame-Shape": "x".join(str(side) for side in shape),
                "X-Frame-Dtype": dtype,
                "X-Frame-Bit-Depth": str(entry.bit_depth),
                "X-Archive-Cache": "hit" if hit else "miss",
            },
            body,
        )

    async def _handle_preview(
        self, name: str, params: Dict[str, List[str]]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """``GET /frames/<name>/preview?scale=k`` or ``?roi=y0-y1``.

        The body is the raw pixel buffer of exactly what
        ``reader.read_preview`` / ``reader.read_roi`` return (same wire
        shape as a full frame; ``X-Frame-Scale`` / ``X-Frame-Roi`` name
        the request).  ``scale`` defaults to 1.
        """
        scale_values = params.get("scale")
        roi_values = params.get("roi")
        if scale_values and roi_values:
            raise HTTPError(400, "pass either scale= or roi=, not both")
        if roi_values:
            y0_text, dash, y1_text = roi_values[-1].partition("-")
            try:
                if not dash:
                    raise ValueError
                y0, y1 = int(y0_text), int(y1_text)
            except ValueError:
                raise HTTPError(
                    400, f"malformed roi {roi_values[-1]!r} (expected y0-y1)"
                ) from None
            entry, frame = await self.service.get_roi(name, y0, y1)
            dtype, shape, body = frame_to_wire(frame)
            return (
                200,
                {
                    "Content-Type": "application/octet-stream",
                    "X-Frame-Name": entry.name,
                    "X-Frame-Shape": "x".join(str(side) for side in shape),
                    "X-Frame-Dtype": dtype,
                    "X-Frame-Bit-Depth": str(entry.bit_depth),
                    "X-Frame-Roi": f"{y0}-{y1}",
                },
                body,
            )
        try:
            scale = int(scale_values[-1]) if scale_values else 1
        except ValueError:
            raise HTTPError(
                400, f"malformed scale {scale_values[-1]!r} (expected an integer)"
            ) from None
        entry, frame, hit = await self.service.get_preview(name, scale)
        dtype, shape, body = frame_to_wire(frame)
        return (
            200,
            {
                "Content-Type": "application/octet-stream",
                "X-Frame-Name": entry.name,
                "X-Frame-Shape": "x".join(str(side) for side in shape),
                "X-Frame-Dtype": dtype,
                "X-Frame-Bit-Depth": str(entry.bit_depth),
                "X-Frame-Scale": str(scale),
                "X-Frame-Layout": entry.layout,
                "X-Archive-Cache": "hit" if hit else "miss",
            },
            body,
        )

    async def _handle_ingest(
        self, headers: Dict[str, str], reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, str], bytes]:
        if self.service.readonly:
            # Checked before touching the body so the 403 can keep the
            # connection state defined (the body is still unread, but the
            # connection loop closes after any POST error anyway).
            raise HTTPError(403, "archive is served read-only")
        encoding = headers.get("transfer-encoding", "").lower()
        if encoding and encoding != "chunked":
            raise HTTPError(501, f"unsupported transfer encoding {encoding!r}", close=True)
        if encoding == "chunked":
            body: Union[_ChunkedBody, _ContentLengthBody] = _ChunkedBody(reader)
        else:
            length_text = headers.get("content-length")
            if length_text is None:
                raise HTTPError(411, "ingest needs Content-Length or chunked", close=True)
            try:
                length = int(length_text)
            except ValueError:
                raise HTTPError(400, f"malformed Content-Length {length_text!r}", close=True) from None
            if length < 0:
                raise HTTPError(400, f"malformed Content-Length {length_text!r}", close=True)
            body = _ContentLengthBody(reader, length)
        report = await self.service.ingest(_frames_from_body(body))
        return self._json(
            200,
            {
                "frames": report.frames,
                "queue_depth": report.queue_depth,
                "max_in_flight": report.max_in_flight,
                "generation": self.service.generation,
            },
        )


async def serve(
    target: Target,
    host: str = "127.0.0.1",
    port: int = 8765,
    **service_options,
) -> ArchiveHTTPServer:
    """Open ``target`` and start an :class:`ArchiveHTTPServer` on it."""
    server = ArchiveHTTPServer(
        ArchiveService(target, **service_options), host=host, port=port
    )
    await server.start()
    return server

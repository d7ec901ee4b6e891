"""Random-access archive retrieval: the read side of the container.

:class:`ArchiveReader` parses the header and index once on open (two small
reads) and from then on touches only the bytes of the frames asked for:
:meth:`~ArchiveReader.decode` seeks straight to one payload, reads exactly
``length`` bytes, checks its CRC and decodes it — other frames' payloads are
never read, which is what makes retrieval from a large archive cheap.  The
``bytes_read`` counter exposes exactly how many payload bytes were touched,
so tests and the retrieval benchmark can *prove* the access pattern rather
than infer it from timing alone.

Payload reads are **zero-copy** by default: when the backend offers
:meth:`~repro.archive.backend.StorageBackend.read_range` (files are
memory-mapped, memory containers slice their buffer), a frame's payload is
handed to the deserialiser as a memoryview of the backend's storage — no
intermediate ``bytes`` object, no seek/read pair, no copy of the chunk
bytes.  ``bytes_read`` advances identically on both paths (it counts
payload bytes *touched*, not copies made); ``zero_copy_reads`` counts how
many payload reads actually took the view path, so tests can prove which
path served them.  Backends without a zero-copy path — and readers opened
with ``zero_copy=False`` — fall back to the historical seek + read,
byte for byte.

Whole-archive decoding goes back through the batched pipeline:
:meth:`~ArchiveReader.to_batch` reassembles a
:class:`~repro.coding.pipeline.CompressedBatch` from the stored streams and
:meth:`~ArchiveReader.decode_all` feeds it to
:func:`~repro.coding.pipeline.decompress_frames`, so bulk reads get the same
per-stage wall-clock stats as in-memory pipeline runs.
"""

from __future__ import annotations

import struct
import threading
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..coding.executor import make_executor
from ..coding.pipeline import (
    CodecResources,
    CompressedBatch,
    PipelineStats,
    decompress_frames,
)
from ..coding.spec import CodecSpec, resolve_engine
from .backend import FileBackend, RetryPolicy, StorageBackend, resolve_backend
from .format import (
    ArchiveError,
    ArchiveFormatError,
    ArchiveIntegrityError,
    LAYOUT_SUBBAND_MAJOR,
    FrameInfo,
    TruncatedArchiveError,
    crc32,
    read_header,
    read_index,
)
from .placement import count_placement
from .serialize import (
    PAYLOAD_HEAD_SIZE,
    CompressedStream,
    codec_name_for_stream,
    deserialize_stream,
    frame_spec,
    materialize_stream,
    parse_section_table,
    sections_to_stream,
)

__all__ = ["ArchiveReader", "VerifyReport", "verify_containers"]

PathLike = Union[str, Path]
Target = Union[str, Path, StorageBackend]
FrameKey = Union[int, str, FrameInfo]

#: Error names a ``verify_container`` job may report, mapped back to the
#: class the serial path raises.  A closed set: a worker never chooses what
#: this process instantiates (unknown names raise the :class:`ArchiveError`
#: base).
_VERIFY_ERRORS = {
    cls.__name__: cls
    for cls in (
        ArchiveError,
        ArchiveFormatError,
        ArchiveIntegrityError,
        TruncatedArchiveError,
    )
}


class VerifyReport(dict):
    """Summary of a :meth:`ArchiveReader.verify` pass (a plain dict with
    ``frames``, ``payload_bytes`` and ``deep`` keys, printable as is)."""


def raise_verify_failure(result: Dict) -> None:
    """Raise the error a failed ``verify_container`` result records, as the
    class and message the serial path raises."""
    raise _VERIFY_ERRORS.get(result["error"], ArchiveError)(result["message"])


def verify_containers(
    targets: Sequence[Target],
    deep: bool,
    engine: str,
    verify_checksums: bool,
    workers,
    prefer: Optional[Sequence[Optional[str]]] = None,
    frames: Optional[int] = None,
) -> Tuple[List[Dict], Tuple[int, int]]:
    """Verify whole containers as ``verify_container`` jobs on the executor
    ``workers`` names, each split into ``width // len(targets)`` index parts
    when the executor is wider than the container count.  A caller that
    knows the most ``frames`` any container holds passes it, and the parts
    are capped there, so no job opens a container only to verify nothing.
    Paths may leave this process; backends force the inline executor.
    ``prefer`` names a preferred node per container.

    Returns one merged result per container — a damaged one reports its
    lowest failing frame, where the serial path stops — and the run's
    placement ``(hits, fallbacks)``.
    """
    executor = make_executor(workers)  # rejects a width below 1 on every path
    jobs = [str(t) if isinstance(t, (str, Path)) else t for t in targets]
    if any(not isinstance(target, str) for target in jobs):
        executor = make_executor(1)  # backends cannot leave this process
    parts = executor.width() // len(jobs)
    if frames is not None:
        parts = min(parts, frames)
    parts = max(1, parts)
    prefer = [node for node in prefer or [None] * len(jobs) for _ in range(parts)]
    runs = executor.run(
        "verify_container",
        [
            {
                "target": target,
                "part": part,
                "parts": parts,
                "deep": deep,
                "engine": engine,
                "verify_checksums": verify_checksums,
            }
            for target in jobs
            for part in range(parts)
        ],
        prefer,
    )
    merged = []
    for first in range(0, len(runs), parts):
        results = [result for result, _node in runs[first : first + parts]]
        failed = [result for result in results if not result["ok"]]
        if failed:
            merged.append(min(failed, key=lambda result: result["index"]))
        else:
            merged.append(
                {**results[0], "payload_bytes": sum(r["payload_bytes"] for r in results)}
            )
    return merged, count_placement(prefer, runs)


class _ReaderHelpers:
    """The listing and bulk-decode helpers every reader shares, written once
    over ``frames``, ``find``, ``read_stream``, ``spec_for`` and ``engine``
    (:class:`ArchiveReader` and
    :class:`~repro.archive.sharding.ShardedArchiveReader`)."""

    #: The reader-level codec configuration, where there is one (a set's
    #: manifest spec); a lone container has none, its frames may differ.
    spec: Optional[CodecSpec] = None

    def names(self) -> List[str]:
        return [entry.name for entry in self.frames]

    @property
    def compressed_bytes(self) -> int:
        return sum(entry.length for entry in self.frames)

    @property
    def raw_bytes(self) -> int:
        return sum(entry.raw_bytes for entry in self.frames)

    def to_batch(self, keys: Optional[Sequence[FrameKey]] = None) -> CompressedBatch:
        """Reassemble stored streams into a pipeline :class:`CompressedBatch`,
        in listing order (or ``keys`` order).

        The selected frames must share one codec configuration (always true
        for archives written by a single-configuration writer); the result
        feeds straight into :func:`~repro.coding.pipeline.decompress_frames`.
        """
        entries = [self.find(key) for key in keys] if keys is not None else self.frames
        configs = {
            (e.codec, e.bit_depth, e.bank_name, e.use_rle) for e in entries
        }
        if len(configs) > 1:
            raise ValueError(
                "frames use mixed codec configurations; decode them "
                f"individually instead ({sorted(configs)})"
            )
        if entries:
            spec = self.spec_for(entries[0])
        else:
            spec = (self.spec or CodecSpec()).replace(engine=self.engine)
        return CompressedBatch(
            codec=spec.codec,
            engine=spec.engine,
            codec_options=spec.codec_kwargs(),
            streams=[self.read_stream(entry) for entry in entries],
            stats=PipelineStats(),
            spec=spec,
        )

    def decode_all(
        self, keys: Optional[Sequence[FrameKey]] = None, workers: int = 1
    ) -> Tuple[List[np.ndarray], PipelineStats]:
        """Decode every (selected) frame through the batched pipeline.

        ``workers`` > 1 shards the decode across a process pool
        (:class:`~repro.coding.executor.ParallelExecutor`); the streams are
        materialised to bytes first, since zero-copy views cannot cross a
        process boundary.
        """
        batch = self.to_batch(keys)
        if workers != 1:
            for stream in batch.streams:
                materialize_stream(stream)
        return decompress_frames(batch, workers=workers)


class ArchiveReader(_ReaderHelpers):
    """Opens an archive for listing, random access, and verification.

    Parameters
    ----------
    path:
        Archive file to open — a filesystem path or any
        :class:`~repro.archive.backend.StorageBackend`.
    engine:
        Entropy-coding engine for decoding (``"fast"`` or ``"scalar"``),
        resolved — and an unknown name rejected — by
        :func:`~repro.coding.spec.resolve_engine`; ``None`` (the default)
        means the ``REPRO_ENGINE`` environment variable, else ``"fast"``.
    verify_checksums:
        Check each payload's CRC-32 on every read (default).  Disable only
        for benchmarking the raw retrieval path.
    retry:
        A :class:`~repro.archive.backend.RetryPolicy` applied to backend
        reads (open and payload retrieval), absorbing *transient*
        ``OSError`` faults with bounded exponential backoff; absorbed
        faults are counted in ``reader.retries``.  ``None`` (the default)
        disables retrying.  Persistent damage (checksum mismatches) is
        never retried.
    zero_copy:
        Serve payload reads as memoryviews of the backend's storage
        (mmap for files) where the backend supports it (default).  Pass
        ``False`` to force the historical seek + read path — results are
        byte-identical either way.
    """

    def __init__(
        self,
        path: Target,
        engine: Optional[str] = None,
        verify_checksums: bool = True,
        retry: Optional[RetryPolicy] = None,
        on_retry: Optional[Callable[[BaseException], None]] = None,
        zero_copy: bool = True,
    ) -> None:
        #: Storage backend holding the container's bytes (paths resolve to
        #: :class:`~repro.archive.backend.FileBackend`).
        self.backend = resolve_backend(path)
        self.path = Path(self.backend.describe())
        self.engine = resolve_engine(engine)
        self.verify_checksums = verify_checksums
        #: Whether payload reads may take the backend's zero-copy path.
        self.zero_copy = bool(zero_copy)
        #: Retry policy for backend reads (single attempt when ``None``).
        self.retry = retry if retry is not None else RetryPolicy.none()
        #: Total payload bytes read so far (random access reads only the
        #: requested frames' payloads; this counter is the evidence).
        #: Identical whichever path — copying or zero-copy — served them.
        self.bytes_read = 0
        #: Payload reads served zero-copy (a view of the backend's storage
        #: rather than a fresh ``bytes`` object).
        self.zero_copy_reads = 0
        #: Transient read faults absorbed by the retry policy so far.
        self.retries = 0
        # External retry observer (the sharded reader's set-level counter);
        # called even when the open itself ultimately fails, so absorbed
        # faults are never lost with a reader that was never constructed.
        self._retry_listener = on_retry
        # Payload reads are a seek+read pair on one shared handle; the lock
        # makes the pair atomic so concurrent readers never interleave.
        self._io_lock = threading.Lock()
        self._fh, self.header, self.frames = self.retry.run(
            self._open, on_retry=self._note_retry
        )
        self._codecs: Dict[Tuple, object] = {}

    def _open(self):
        """One open attempt: header + index, closing the handle on failure."""
        fh = self.backend.open_read()
        try:
            header = read_header(fh)
            fh.seek(0, 2)
            size = fh.tell()
            frames: List[FrameInfo] = read_index(fh, header, size)
        except Exception:
            fh.close()
            raise
        return fh, header, frames

    def _note_retry(self, exc: BaseException) -> None:
        with self._io_lock:
            self.retries += 1
        if self._retry_listener is not None:
            self._retry_listener(exc)

    # -- listing ------------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[FrameInfo]:
        return iter(self.frames)

    def find(self, key: FrameKey) -> FrameInfo:
        """Resolve a frame by index (negative allowed), name, or identity."""
        if isinstance(key, FrameInfo):
            return key
        if isinstance(key, (int, np.integer)):
            try:
                return self.frames[key]
            except IndexError as exc:
                raise KeyError(
                    f"archive has {len(self.frames)} frames, no index {key}"
                ) from exc
        for entry in self.frames:
            if entry.name == key:
                return entry
        raise KeyError(f"archive has no frame named {key!r}")

    # -- retrieval ----------------------------------------------------------------------
    def read_payload(self, key: FrameKey) -> bytes:
        """Read one frame's payload bytes (and nothing else) off disk."""
        entry = self.find(key)

        def _read() -> bytes:
            with self._io_lock:
                self._fh.seek(entry.offset)
                return self._fh.read(entry.length)

        payload = self.retry.run(_read, on_retry=self._note_retry)
        if len(payload) != entry.length:
            raise TruncatedArchiveError(
                f"frame {entry.name!r}: payload ends after "
                f"{len(payload)} of {entry.length} bytes"
            )
        with self._io_lock:
            self.bytes_read += len(payload)
        if self.verify_checksums and crc32(payload) != entry.crc32:
            raise ArchiveIntegrityError(
                f"frame {entry.name!r}: payload checksum mismatch "
                "(archive is corrupted)"
            )
        return payload

    def read_payload_view(self, key: FrameKey) -> memoryview:
        """One frame's payload as a zero-copy view of the backend's storage.

        Files are served from a lazily-created read-only mmap, memory
        containers from their buffer — no intermediate ``bytes`` object is
        built.  Truncation and CRC checks are the same as
        :meth:`read_payload`'s, and ``bytes_read`` advances identically;
        ``zero_copy_reads`` counts the reads this path actually served.
        When the backend has no zero-copy support (or it degrades, e.g.
        mmap refused), the result is a view over a normal
        :meth:`read_payload` — correct, just not zero-copy.
        """
        entry = self.find(key)
        view: Optional[memoryview] = None
        if self.zero_copy:

            def _read_range() -> Optional[memoryview]:
                with self._io_lock:
                    return self.backend.read_range(entry.offset, entry.length)

            view = self.retry.run(_read_range, on_retry=self._note_retry)
        if view is None:
            return memoryview(self.read_payload(entry))
        if len(view) != entry.length:
            raise TruncatedArchiveError(
                f"frame {entry.name!r}: payload ends after "
                f"{len(view)} of {entry.length} bytes"
            )
        with self._io_lock:
            self.bytes_read += len(view)
            self.zero_copy_reads += 1
        if self.verify_checksums and crc32(view) != entry.crc32:
            raise ArchiveIntegrityError(
                f"frame {entry.name!r}: payload checksum mismatch "
                "(archive is corrupted)"
            )
        return view

    def read_payload_slice(self, key: FrameKey, start: int, length: int) -> memoryview:
        """Read ``length`` bytes at ``start`` *within* one frame's payload.

        This is the byte-range primitive behind HTTP ``Range:`` serving
        (:mod:`repro.archive.server`): only the requested window is read —
        ``bytes_read`` advances by exactly ``length``, not the payload size —
        and the zero-copy path (``zero_copy_reads``) serves the window as a
        view of the backend's storage when available.  A partial window
        cannot be checksummed (the CRC covers the whole payload), so slice
        reads never CRC-check; callers wanting integrity read the full
        payload.  Out-of-payload windows raise ``ValueError``; a payload
        that ends early raises :class:`TruncatedArchiveError`.
        """
        entry = self.find(key)
        if start < 0 or length < 0 or start + length > entry.length:
            raise ValueError(
                f"frame {entry.name!r}: slice [{start}, {start + length}) outside "
                f"its {entry.length}-byte payload"
            )
        view: Optional[memoryview] = None
        if self.zero_copy:

            def _read_range() -> Optional[memoryview]:
                with self._io_lock:
                    return self.backend.read_range(entry.offset + start, length)

            view = self.retry.run(_read_range, on_retry=self._note_retry)
        if view is None:

            def _read() -> bytes:
                with self._io_lock:
                    self._fh.seek(entry.offset + start)
                    return self._fh.read(length)

            data = self.retry.run(_read, on_retry=self._note_retry)
            if len(data) != length:
                raise TruncatedArchiveError(
                    f"frame {entry.name!r}: payload slice ends after "
                    f"{len(data)} of {length} bytes"
                )
            with self._io_lock:
                self.bytes_read += len(data)
            return memoryview(data)
        if len(view) != length:
            raise TruncatedArchiveError(
                f"frame {entry.name!r}: payload slice ends after "
                f"{len(view)} of {length} bytes"
            )
        with self._io_lock:
            self.bytes_read += len(view)
            self.zero_copy_reads += 1
        return view

    def read_stream(self, key: FrameKey) -> CompressedStream:
        """Deserialise one frame's compressed stream without decoding it.

        On the zero-copy path the stream's chunk payloads are views into
        the backend's storage; they stay valid until :meth:`close`.
        """
        entry = self.find(key)
        stream = deserialize_stream(self.read_payload_view(entry))
        if (
            codec_name_for_stream(stream) != entry.codec
            or stream.scales != entry.scales
            or tuple(stream.image_shape) != entry.shape
        ):
            raise ArchiveFormatError(
                f"frame {entry.name!r}: payload metadata disagrees with its "
                "index entry"
            )
        return stream

    def spec_for(self, key: FrameKey) -> CodecSpec:
        """The stored :class:`CodecSpec` of one frame (index metadata only —
        no payload bytes are read)."""
        return frame_spec(self.find(key)).replace(engine=self.engine)

    def _codec_for(self, entry: FrameInfo):
        key = (entry.codec, entry.scales, entry.bit_depth, entry.bank_name, entry.use_rle)
        if key not in self._codecs:
            # Fetched through the process-wide resource LRU, so the codec's
            # word-length planning amortises across readers and CLI calls.
            spec = self.spec_for(entry)
            self._codecs[key] = CodecResources(spec).codec_for(entry.scales)
        return self._codecs[key]

    def decode(self, key: FrameKey) -> np.ndarray:
        """Random-access decode of a single frame, bit for bit."""
        entry = self.find(key)
        return self._codec_for(entry).decode(self.read_stream(entry))

    def read_preview_stream(self, key: FrameKey, at_scale: int) -> CompressedStream:
        """Deserialise just the chunks a scale-``at_scale`` preview needs.

        Subband-major frames are read as a **strict byte prefix**: the
        payload head, the section table, and then only the leading run of
        sections coarser than ``at_scale`` — ``bytes_read`` advances by
        exactly ``prefix_length(at_scale)``, never the full payload.  The
        per-section CRCs checked here (when ``verify_checksums``) are what
        make a partial read safe without the whole-payload checksum.
        Frame-major (v1) frames have no prefix property, so they fall back
        to a full :meth:`read_stream` — the preview then only saves
        synthesis compute, not bytes.
        """
        entry = self.find(key)
        if not 0 <= at_scale <= entry.scales:
            raise ValueError(
                f"at_scale must be within [0, {entry.scales}], got {at_scale}"
            )
        if entry.layout != LAYOUT_SUBBAND_MAJOR:
            return self.read_stream(entry)
        head = bytes(self.read_payload_slice(entry, 0, PAYLOAD_HEAD_SIZE))
        _sentinel, _version, meta_len = struct.unpack("<IBI", head)
        if PAYLOAD_HEAD_SIZE + meta_len + 4 > entry.length:
            raise TruncatedArchiveError(
                f"frame {entry.name!r}: {entry.length}-byte payload cannot hold "
                f"its declared {meta_len}-byte section table"
            )
        meta = bytes(
            self.read_payload_slice(entry, PAYLOAD_HEAD_SIZE, meta_len + 4)
        )
        table = parse_section_table(head + meta)
        needed = table.prefix_length(at_scale) - table.body_offset
        body = self.read_payload_slice(entry, table.body_offset, needed)
        stream = sections_to_stream(
            table, body, at_scale=at_scale, verify=self.verify_checksums
        )
        if (
            codec_name_for_stream(stream) != entry.codec
            or stream.scales != entry.scales
            or tuple(stream.image_shape) != entry.shape
        ):
            raise ArchiveFormatError(
                f"frame {entry.name!r}: payload metadata disagrees with its "
                "index entry"
            )
        return stream

    def read_preview(self, key: FrameKey, at_scale: int) -> np.ndarray:
        """Decode the scale-``at_scale`` preview of one frame.

        ``at_scale=0`` is the full-resolution image, bit for bit; each
        higher scale halves both dimensions.  See
        :meth:`read_preview_stream` for the byte-prefix guarantee.
        """
        entry = self.find(key)
        stream = self.read_preview_stream(entry, at_scale)
        return self._codec_for(entry).decode_preview(stream, at_scale)

    def read_roi(self, key: FrameKey, y0: int, y1: int) -> np.ndarray:
        """Decode just the output row band ``[y0, y1)`` of one frame.

        Bit-exact to ``decode(key)[y0:y1]``.  A row band draws on every
        subband, so the whole payload is still read; the saving is in the
        windowed inverse transform, not bytes.
        """
        entry = self.find(key)
        return self._codec_for(entry).decode_roi(self.read_stream(entry), y0, y1)

    def decode_range(self, start: int, stop: Optional[int] = None) -> List[np.ndarray]:
        """Decode the frames of ``[start, stop)`` without touching the rest."""
        return [self.decode(entry) for entry in self.frames[start:stop]]

    # -- integrity ----------------------------------------------------------------------
    def verify_frame(self, entry: FrameInfo, deep: bool) -> int:
        """Verify one frame (checksum, optionally a full decode); returns
        its payload size in bytes."""
        payload = self.read_payload_view(entry)
        if not self.verify_checksums and crc32(payload) != entry.crc32:
            # read_payload checksums every read unless the reader was
            # opened with verify_checksums=False; only then check here.
            raise ArchiveIntegrityError(
                f"frame {entry.name!r}: payload checksum mismatch"
            )
        if deep:
            image = self._codec_for(entry).decode(deserialize_stream(payload))
            if tuple(image.shape) != entry.shape:
                raise ArchiveFormatError(
                    f"frame {entry.name!r}: decoded shape {tuple(image.shape)} "
                    f"disagrees with the index entry {entry.shape}"
                )
        return len(payload)

    def verify(self, deep: bool = False, workers: int = 1) -> VerifyReport:
        """Check every frame's checksum; with ``deep``, decode each frame too.

        Raises :class:`ArchiveIntegrityError` / :class:`ArchiveFormatError`
        on the first failure; returns a summary when the archive is sound.

        ``workers=1`` verifies through this reader.  Any other ``workers``
        value (a pool width, or socket workers — ``"host:port,host:port"``
        or a :class:`~repro.coding.netexec.WorkerPool`) splits the frames
        into ``verify_container`` jobs on that executor
        (:func:`verify_containers`; file-backed archives only — other
        backends verify here): each job reopens the archive by path (socket
        workers must see its filesystem) and verifies its part, so deep
        verification parallelises the way ``pack --workers`` does.  Damage
        raises the same error, with the same message, as the serial path.
        The payload reads then happen in the jobs, so this reader's
        ``bytes_read`` counter does not advance.
        """
        if workers == 1 or not isinstance(self.backend, FileBackend):
            make_executor(workers)  # rejects a width below 1 on every path
            payload_bytes = sum(self.verify_frame(entry, deep) for entry in self.frames)
        else:
            (result,), _placement = verify_containers(
                [self.backend.path],
                deep,
                self.engine,
                self.verify_checksums,
                workers,
                frames=len(self.frames),
            )
            if not result["ok"]:
                raise_verify_failure(result)
            payload_bytes = result["payload_bytes"]
        return VerifyReport(frames=len(self.frames), payload_bytes=payload_bytes, deep=deep)

    # -- lifecycle ----------------------------------------------------------------------
    def close(self) -> None:
        self._fh.close()
        # Drop the backend's cached mapping; views still referenced keep
        # the underlying storage alive until they are collected.
        self.backend.release()

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


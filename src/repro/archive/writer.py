"""Archive creation and append: the write side of the container.

The writer addresses its container through a storage backend
(:mod:`repro.archive.backend`): every path-based call is resolved to a
:class:`~repro.archive.backend.FileBackend`, so the historical path API is
unchanged and the bytes written are identical, while tests and staging
flows can target a :class:`~repro.archive.backend.MemoryBackend` (or any
future backend) without touching the writer.

:class:`ArchiveWriter` streams frame payloads to disk as they are added and
finalises the container on :meth:`~ArchiveWriter.close` by writing the index
table and patching the header.  Until ``close`` runs a *created* archive's
header keeps a zero index pointer, so a crashed writer leaves a file the
reader rejects with a clean "never finalised" error instead of a silently
short archive.

Appending (:meth:`ArchiveWriter.append`) never rewrites existing payloads
*or* the existing index: new payloads are written after the old index, and
only ``close`` — after the new index is safely on disk — patches the header
in a single small write.  A writer that crashes mid-append therefore leaves
the archive exactly as it was before the append (the old header still
points at the intact old index; the dangling new payload bytes are simply
unreferenced).  The dead old-index bytes this leaves behind cost a few tens
of bytes per frame per append.  The codec configuration of an appending
writer defaults to that of the last stored frame so a series keeps
compressing the way it started.

Every frame this writer adds is stored in the subband-major payload layout
(:func:`~repro.archive.serialize.serialize_stream`); the version-1
frame-major layout is read-only.  The header says version 1 until the
container holds a subband-major frame, so appending to a version-1 archive
turns it into version 2 while its old frames stay readable as they are.

The writer's configuration is one :class:`~repro.coding.spec.CodecSpec`
(``writer.spec``); the legacy ``codec=``/``scales=``/``engine=`` keywords
still work and are folded into a spec by the compatibility shim.
Compression is delegated to the stage pipeline
(:func:`repro.coding.pipeline.compress_frames`):
:meth:`ArchiveWriter.append_batch` (alias :meth:`add_frames`) runs one
pipeline call over the new frames — sharded across a process pool when
``workers`` > 1 — and archives the resulting streams, accumulating the
pipeline's per-stage wall-clock stats in ``writer.stats``.  Pre-compressed
batches (:meth:`ArchiveWriter.add_batch`) and single streams
(:meth:`ArchiveWriter.add_stream`) are archived as is.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..coding.pipeline import CompressedBatch, PipelineStats, compress_frames
from ..coding.spec import CodecSpec, resolve_engine, resolve_spec
from .backend import StorageBackend, resolve_backend
from .format import (
    HEADER_SIZE,
    LAYOUT_SUBBAND_MAJOR,
    VERSION,
    FrameInfo,
    Header,
    crc32,
    pack_header,
    pack_index,
    read_header,
    read_index,
    require_write_layout,
)
from .serialize import (
    CompressedStream,
    frame_spec,
    payload_layout,
    serialize_stream,
    spec_for_stream,
)

__all__ = ["ArchiveWriter"]

PathLike = Union[str, Path]
#: A writer/reader target: a filesystem path or any storage backend.
Target = Union[str, Path, StorageBackend]


class ArchiveWriter:
    """Writes a frame archive; use :meth:`create` or :meth:`append` to open.

    The codec configuration is a :class:`~repro.coding.spec.CodecSpec`
    (``writer.spec``); :meth:`create`/:meth:`append` also accept the legacy
    keyword style (``codec=``, ``scales=``, ``engine=``, plus anything the
    codec constructor takes — ``bank``, ``bit_depth``, ``use_rle``, ...)
    and build the spec through the compatibility shim.  ``workers`` sets
    the default process-pool width for :meth:`append_batch`.
    """

    def __init__(
        self,
        backend: Target,
        fh,
        entries: List[FrameInfo],
        offset: int,
        spec: CodecSpec,
        workers: int = 1,
    ) -> None:
        #: Storage backend holding the container's bytes.
        self.backend = resolve_backend(backend)
        self.path = Path(self.backend.describe())
        #: The writer's full compression configuration.
        self.spec = spec
        #: Default workers for :meth:`append_batch` — a pool width
        #: (1 = serial) or socket worker addresses for distributed
        #: compression (:mod:`repro.coding.netexec`).
        self.workers = workers
        #: Aggregated pipeline stats of every :meth:`append_batch`/:meth:`add_batch`
        #: call on this writer (wall-clock per stage, sizes, ratios).
        self.stats = PipelineStats()
        self._fh = fh
        self._entries = entries
        self._names = {entry.name for entry in entries}
        self._offset = offset
        self._closed = False

    # -- legacy configuration views -----------------------------------------------------
    @property
    def codec(self) -> str:
        return self.spec.codec

    @property
    def scales(self) -> int:
        return self.spec.scales

    @property
    def engine(self) -> str:
        return self.spec.engine

    @property
    def codec_options(self) -> Dict:
        return self.spec.codec_kwargs()

    # -- construction -------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: Target,
        codec: Optional[str] = None,
        scales: Optional[int] = None,
        engine: Optional[str] = None,
        overwrite: bool = False,
        spec: Optional[CodecSpec] = None,
        workers: int = 1,
        layout: str = LAYOUT_SUBBAND_MAJOR,
        **codec_options,
    ) -> "ArchiveWriter":
        """Create a new archive at ``path`` (refuses to clobber unless told to).

        Configuration defaults: s-transform codec, 4 scales, and the
        :func:`~repro.coding.spec.default_engine` entropy tier.
        Passing ``spec`` together with any explicit codec keyword is an
        error, never a silent override.  ``layout`` is kept for call
        compatibility and accepts only ``"subband-major"``.
        """
        require_write_layout(layout)
        spec = resolve_spec(spec, codec, scales, engine, **codec_options)
        backend = resolve_backend(path)
        if backend.exists() and not overwrite:
            raise FileExistsError(
                f"archive {backend.describe()} already exists (pass overwrite=True)"
            )
        fh = backend.create()
        fh.write(
            pack_header(
                Header(
                    version=VERSION,
                    flags=0,
                    frame_count=0,
                    index_offset=0,
                    index_size=0,
                    index_crc=0,
                )
            )
        )
        return cls(backend, fh, [], HEADER_SIZE, spec, workers=workers)

    @classmethod
    def append(
        cls,
        path: Target,
        codec: Optional[str] = None,
        scales: Optional[int] = None,
        engine: Optional[str] = None,
        spec: Optional[CodecSpec] = None,
        workers: int = 1,
        **codec_options,
    ) -> "ArchiveWriter":
        """Open an existing archive to add frames after the ones it holds.

        The codec configuration defaults to the last stored frame's
        (codec, scales, bank, bit depth, RLE choice), so an appended series
        keeps compressing the way it started unless overridden explicitly.
        New frames are subband-major whatever layout the old ones use.
        """
        backend = resolve_backend(path)
        fh = backend.open_modify()
        try:
            header = read_header(fh)
            fh.seek(0, 2)
            entries = read_index(fh, header, fh.tell())
            if spec is None and entries and codec is None:
                # Inherit the stored configuration via the last frame's
                # spec; explicit keywords still override field by field.
                inherited = frame_spec(entries[-1])
                spec = inherited.replace(
                    engine=resolve_engine(engine),
                    scales=scales if scales is not None else inherited.scales,
                ).replace_options(**codec_options)
            else:
                spec = resolve_spec(spec, codec, scales, engine, **codec_options)
            # New payloads go after the old index, which stays valid (and
            # the header keeps pointing at it) until close() — so a crash
            # mid-append leaves the archive exactly as it was.
            fh.seek(0, 2)
            return cls(backend, fh, entries, fh.tell(), spec, workers=workers)
        except BaseException:
            fh.close()
            raise

    # -- adding frames ------------------------------------------------------------------
    @property
    def frame_names(self) -> List[str]:
        """Names of every frame stored so far (existing + added)."""
        return [entry.name for entry in self._entries]

    def _next_name(self) -> str:
        name = f"frame_{len(self._entries):05d}"
        while name in self._names:
            name += "_"
        return name

    def add_stream(self, stream: CompressedStream, name: Optional[str] = None) -> FrameInfo:
        """Archive one already-compressed stream under ``name``."""
        if self._closed:
            raise ValueError("archive writer is closed")
        name = name if name is not None else self._next_name()
        if name in self._names:
            raise ValueError(f"archive already has a frame named {name!r}")
        # Looked up as this module's global at call time, so a wrapper
        # installed on ``repro.archive.writer.serialize_stream`` sees it.
        payload = serialize_stream(stream)
        stream_spec = spec_for_stream(stream)
        entry = FrameInfo(
            index=len(self._entries),
            name=name,
            codec=stream_spec.codec,
            scales=stream_spec.scales,
            bit_depth=stream_spec.bit_depth,
            shape=(int(stream.image_shape[0]), int(stream.image_shape[1])),
            offset=self._offset,
            length=len(payload),
            crc32=crc32(payload),
            raw_bytes=stream.original_bytes,
            bank_name=stream_spec.bank_name,
            use_rle=bool(stream_spec.use_rle),
            layout=payload_layout(payload),
        )
        self._fh.seek(self._offset)
        self._fh.write(payload)
        self._offset += len(payload)
        self._entries.append(entry)
        self._names.add(name)
        return entry

    def add_batch(
        self, batch: CompressedBatch, names: Optional[Sequence[str]] = None
    ) -> List[FrameInfo]:
        """Archive every stream of a :func:`compress_frames` batch."""
        if batch.codec != self.codec:
            raise ValueError(
                f"batch was compressed with codec {batch.codec!r}, "
                f"writer is configured for {self.codec!r}"
            )
        if names is not None and len(names) != len(batch.streams):
            raise ValueError(
                f"{len(names)} names for {len(batch.streams)} streams"
            )
        entries = [
            self.add_stream(stream, None if names is None else names[i])
            for i, stream in enumerate(batch.streams)
        ]
        self.stats.merge(batch.stats)
        return entries

    def append_batch(
        self,
        frames: Sequence[np.ndarray],
        names: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
    ) -> List[FrameInfo]:
        """Compress ``frames`` through the stage pipeline and archive them.

        ``workers`` overrides the writer's default pool width for this call;
        any value > 1 shards the batch across a process pool
        (:class:`~repro.coding.executor.ParallelExecutor`) with streams
        byte-identical to serial compression.
        """
        batch = compress_frames(
            frames,
            spec=self.spec,
            workers=self.workers if workers is None else workers,
        )
        return self.add_batch(batch, names)

    def add_frames(
        self,
        frames: Sequence[np.ndarray],
        names: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
    ) -> List[FrameInfo]:
        """Alias of :meth:`append_batch` (the pre-spec name)."""
        return self.append_batch(frames, names=names, workers=workers)

    # -- finalisation -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        """Write the index table, patch the header, and close the file."""
        if self._closed:
            return
        index = pack_index(self._entries)
        self._fh.seek(self._offset)
        self._fh.write(index)
        self._fh.truncate()
        # The new index must be on disk before the header points at it:
        # until the header patch below, an appended archive still reads as
        # its previous state.
        self._fh.flush()
        # Frame-major-only archives (read-compat files, never written here)
        # stay byte-identical version-1 files; the header only says
        # version 2 when a subband-major payload (a v2 wire feature) is
        # actually present.
        subband_major = any(
            entry.layout == LAYOUT_SUBBAND_MAJOR for entry in self._entries
        )
        header = Header(
            version=VERSION if subband_major else 1,
            flags=0,
            frame_count=len(self._entries),
            index_offset=self._offset,
            index_size=len(index),
            index_crc=crc32(index),
        )
        self._fh.seek(0)
        self._fh.write(pack_header(header))
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Finalise even on error: every frame fully added so far stays
        # retrievable, and a half-written add_stream cannot happen because
        # the entry is only recorded after its payload is on disk.
        self.close()

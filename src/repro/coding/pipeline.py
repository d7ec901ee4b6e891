"""Batched compression pipeline: two timed codec calls per frame.

The paper's motivating workload is an archive compressing *streams* of
medical images, not one frame at a time.  :func:`compress_frames` and
:func:`decompress_frames` run many images through a lossless codec in one
call, handle mixed frame sizes (the decomposition depth is clamped per frame
to what the dyadic geometry supports), and account wall-clock time per
pipeline stage so throughput regressions are attributable to a stage rather
than to "the codec".

Configuration is a :class:`~repro.coding.spec.CodecSpec` — codec family,
entropy engine, depth, bit depth, filter bank.  Each frame makes two codec
calls, timed under the stage names of :data:`ENCODE_STAGES` and
:data:`DECODE_STAGES`:

* encode: ``forward_transform`` (``"transform"``) → ``encode_pyramid``
  (``"entropy_encode"``, map + entropy code);
* decode: ``decode_pyramid`` (``"entropy_decode"``) → ``inverse_transform``
  (``"inverse"``).

Each stage's wall clock is folded into :class:`PipelineStats` under its
name, so the stats model is identical whether a batch ran through the
convenience functions, the streaming ingest fronts, or the multi-core
:class:`~repro.coding.executor.ParallelExecutor` (``workers=N`` on either
convenience function shards the batch across a process pool and merges the
per-stage stats; the streams are byte-identical to serial execution).

The legacy keyword style (``codec=``, ``engine=``, ``**codec_options``)
keeps working: both entry points funnel it through
:meth:`CodecSpec.from_kwargs`.

The pipeline is also the compression engine of the persistent archive
layer (:mod:`repro.archive`): :class:`~repro.archive.writer.ArchiveWriter`
feeds :func:`compress_frames` output to disk as a random-access container,
and :class:`~repro.archive.reader.ArchiveReader` reassembles stored streams
into a :class:`CompressedBatch` for :func:`decompress_frames`, so on-disk
archives and in-memory batches share one codec path and one stats model.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .codec import CompressedImage
from .s_transform import CompressedSImage
from .spec import CodecSpec, codec_names, resolve_spec

__all__ = [
    "PipelineStats",
    "CompressedBatch",
    "CODEC_NAMES",
    "ENCODE_STAGES",
    "DECODE_STAGES",
    "max_dyadic_scales",
    "CodecResources",
    "encode_frame",
    "compress_frames",
    "decompress_frames",
    "resource_cache_info",
    "clear_resource_cache",
]

def __getattr__(name: str):
    # CODEC_NAMES is kept for backward compatibility as a module attribute;
    # resolving it through the registry on access (instead of snapshotting a
    # tuple at import time) keeps it truthful if a codec family is
    # registered after this module was imported.  Note that
    # ``from repro.coding.pipeline import CODEC_NAMES`` still binds the
    # value current at that moment — use :func:`repro.coding.codec_names`
    # for a call-time view.
    if name == "CODEC_NAMES":
        return codec_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Pipeline stage names, in dataflow order.
ENCODE_STAGES = ("transform", "entropy_encode")
DECODE_STAGES = ("entropy_decode", "inverse")


@dataclass
class PipelineStats:
    """Wall-clock accounting of one batched pipeline run.

    ``stage_seconds`` sums each stage's wall clock across frames — and, for
    parallel runs, across worker processes, so it reads as *CPU seconds*
    there while ``wall_seconds`` keeps the batch's elapsed time.
    """

    frames: int = 0
    pixels: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Worker processes that produced these stats (1 = serial).
    workers: int = 1
    #: Elapsed wall clock of the whole batch when it ran in parallel
    #: (0.0 on the serial path, where ``total_seconds`` is the wall clock).
    wall_seconds: float = 0.0

    def add_stage(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def merge(self, other: "PipelineStats") -> None:
        """Fold another run's stats into this one (counts and per-stage time).

        Runs merge sequentially: once either side carries a parallel wall
        clock, the merged ``wall_seconds`` is the *sum of both sides'
        elapsed time* (a serial side contributes its stage-second sum), so
        ``elapsed_seconds`` never drops a serial batch's time.
        """
        if self.wall_seconds > 0.0 or other.wall_seconds > 0.0:
            combined_wall = self.elapsed_seconds + other.elapsed_seconds
        else:
            combined_wall = 0.0  # all-serial: elapsed stays the stage sum
        self.frames += other.frames
        self.pixels += other.pixels
        self.raw_bytes += other.raw_bytes
        self.compressed_bytes += other.compressed_bytes
        for stage, seconds in other.stage_seconds.items():
            self.add_stage(stage, seconds)
        self.workers = max(self.workers, other.workers)
        self.wall_seconds = combined_wall

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def elapsed_seconds(self) -> float:
        """Batch wall clock: ``wall_seconds`` when parallel, stage sum otherwise."""
        return self.wall_seconds if self.wall_seconds > 0.0 else self.total_seconds

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.compressed_bytes

    def throughput_mpixels_per_s(self) -> float:
        seconds = self.elapsed_seconds
        return self.pixels / seconds / 1e6 if seconds > 0 else 0.0

    def render(self) -> str:
        """Human-readable per-stage breakdown."""
        lines = [
            f"{self.frames} frames, {self.pixels / 1e6:.2f} Mpixels, "
            f"{self.raw_bytes / 1024:.1f} kB -> {self.compressed_bytes / 1024:.1f} kB "
            f"(ratio {self.compression_ratio:.2f})"
        ]
        for stage, seconds in self.stage_seconds.items():
            share = 100.0 * seconds / self.total_seconds if self.total_seconds else 0.0
            lines.append(f"  {stage:<15} {1e3 * seconds:8.1f} ms  ({share:5.1f}%)")
        if self.wall_seconds > 0.0:
            # Parallel run: the stage rows above sum worker CPU time, so
            # print that denominator explicitly next to the elapsed total.
            lines.append(
                f"  {'cpu total':<15} {1e3 * self.total_seconds:8.1f} ms  "
                f"(across {self.workers} workers)"
            )
            label = "elapsed"
        else:
            label = "total"
        lines.append(
            f"  {label:<15} {1e3 * self.elapsed_seconds:8.1f} ms  "
            f"({self.throughput_mpixels_per_s():.1f} Mpixel/s)"
        )
        return "\n".join(lines)


@dataclass
class CompressedBatch:
    """Compressed representation of a batch of frames plus encode statistics.

    ``spec`` is the full :class:`CodecSpec` the batch was produced with;
    ``codec``/``engine``/``codec_options`` mirror it for backward
    compatibility with pre-spec call sites.
    """

    codec: str
    engine: str
    codec_options: Dict
    streams: List[Union[CompressedImage, CompressedSImage]]
    stats: PipelineStats
    spec: Optional[CodecSpec] = None

    @classmethod
    def from_spec(
        cls,
        spec: CodecSpec,
        streams: List[Union[CompressedImage, CompressedSImage]],
        stats: Optional[PipelineStats] = None,
    ) -> "CompressedBatch":
        """Build a batch whose legacy mirror fields all derive from ``spec``."""
        return cls(
            codec=spec.codec,
            engine=spec.engine,
            codec_options=spec.codec_kwargs(),
            streams=streams,
            stats=stats if stats is not None else PipelineStats(),
            spec=spec,
        )

    def __len__(self) -> int:
        return len(self.streams)

    def resolved_spec(self) -> CodecSpec:
        """The batch's spec, rebuilt from the legacy fields when unset."""
        if self.spec is not None:
            return self.spec
        return CodecSpec.from_kwargs(
            codec=self.codec, engine=self.engine, **self.codec_options
        )

    @property
    def compressed_bytes(self) -> int:
        return sum(stream.compressed_bytes for stream in self.streams)

    @property
    def original_bytes(self) -> int:
        return sum(stream.original_bytes for stream in self.streams)

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes


def max_dyadic_scales(shape: Tuple[int, int], limit: int = 16) -> int:
    """Deepest decomposition the frame geometry supports (0 if none).

    Every scale halves both dimensions, so scale ``s`` needs both sides
    divisible by ``2**s``.
    """
    scales = 0
    while scales < limit and all(
        int(side) % (1 << (scales + 1)) == 0 and int(side) >> (scales + 1) >= 1
        for side in shape
    ):
        scales += 1
    return scales


def _frame_scales(shape: Tuple[int, int], requested: int) -> int:
    supported = max_dyadic_scales(shape)
    scales = min(requested, supported)
    if scales < 1:
        raise ValueError(
            f"frame of shape {tuple(shape)} does not support a dyadic decomposition"
        )
    return scales


# ---------------------------------------------------------------------------
# Shared resources: process-wide LRU of codec instances
# ---------------------------------------------------------------------------

class _InstanceLRU:
    """Thread-safe LRU of built instances, keyed by hashable tuples.

    The factory runs outside the lock (construction — word-length
    planning — is the expensive part); a build race is resolved by keeping
    the first instance to land.
    """

    def __init__(self, maxsize: int = 64) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._items: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get_or_create(self, key: Tuple, factory: Callable[[], object]):
        with self._lock:
            if key in self._items:
                self._items.move_to_end(key)
                self.hits += 1
                return self._items[key]
        value = factory()
        with self._lock:
            existing = self._items.get(key)
            if existing is not None:
                self.hits += 1
                return existing
            self.misses += 1
            self._items[key] = value
            while len(self._items) > self.maxsize:
                self._items.popitem(last=False)
        return value

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._items),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
            }

    def clear(self) -> None:
        with self._lock:
            self._items.clear()
            self.hits = 0
            self.misses = 0


#: Process-wide instance cache: codec construction amortises the word-length
#: plan across batches, CLI invocations in one process, ingest threads —
#: and, via fork, across the executor's and the sharded writer's worker
#: processes, which inherit the parent's warm cache.  A codec's state is
#: fixed at construction, so one instance can serve concurrent runs.
_RESOURCE_CACHE = _InstanceLRU(maxsize=64)


def resource_cache_info() -> Dict[str, int]:
    """Size/hit statistics of the process-wide codec cache."""
    return _RESOURCE_CACHE.info()


def clear_resource_cache() -> None:
    """Empty the process-wide codec cache (tests, memory)."""
    _RESOURCE_CACHE.clear()


def _shared_cacheable(spec: CodecSpec) -> bool:
    """Whether a spec may key the process-wide cache.

    Specs carrying live objects (a :class:`BiorthogonalBank` instance, a
    word-length ``plan`` extra) compare by name/identity, so two of them
    can collide in a shared cache while meaning different coefficients;
    those stay in the per-:class:`CodecResources` caches instead.
    """
    return not spec.extras and (spec.bank is None or isinstance(spec.bank, str))


class CodecResources:
    """Codec instances for one :class:`CodecSpec`.

    Codecs are fetched from the process-wide LRU keyed by
    ``(spec, scales)`` — the per-frame depth, because the spec's requested
    depth is clamped per frame — so word-length planning amortises across
    every pipeline run, archive call and shard worker in the process.
    Specs that are not safely shareable (see :func:`_shared_cacheable`)
    fall back to a cache local to this object, which is exactly the old
    per-run behaviour.
    """

    def __init__(self, spec: CodecSpec) -> None:
        self.spec = spec
        self._shared = _shared_cacheable(spec)
        self._codecs: Dict[int, object] = {}

    def codec_for(self, scales: int):
        if self._shared:
            return _RESOURCE_CACHE.get_or_create(
                ("codec", self.spec, scales), lambda: self.spec.build_codec(scales)
            )
        if scales not in self._codecs:
            self._codecs[scales] = self.spec.build_codec(scales)
        return self._codecs[scales]


# ---------------------------------------------------------------------------
# Batched entry points
# ---------------------------------------------------------------------------

def _account_frame(
    stats: PipelineStats,
    stages: Tuple[str, str],
    clocks: Tuple[float, float, float],
    pixels: int,
    stream: Union[CompressedImage, CompressedSImage],
) -> None:
    """Fold one frame's two timed codec calls and its counters into ``stats``."""
    stats.add_stage(stages[0], clocks[1] - clocks[0])
    stats.add_stage(stages[1], clocks[2] - clocks[1])
    stats.frames += 1
    stats.pixels += pixels
    stats.raw_bytes += stream.original_bytes
    stats.compressed_bytes += stream.compressed_bytes


def encode_frame(
    frame: np.ndarray,
    spec: CodecSpec,
    resources: CodecResources,
    stats: PipelineStats,
) -> Union[CompressedImage, CompressedSImage]:
    """Compress one frame, folding its stage timings and counters into ``stats``.

    The codec's ``forward_transform`` is timed as the ``"transform"`` stage
    and its ``encode_pyramid`` (map + entropy code) as ``"entropy_encode"``
    (:data:`ENCODE_STAGES`).  This is the single-frame unit
    :func:`compress_frames` loops over; the streaming ingest front end
    (:mod:`repro.archive.ingest`) calls it directly so frames can flow one
    at a time without a materialised batch.
    """
    frame = np.asarray(frame)
    codec = resources.codec_for(_frame_scales(frame.shape, spec.scales))
    began = time.perf_counter()
    pyramid = codec.forward_transform(frame)
    transformed = time.perf_counter()
    stream = codec.encode_pyramid(pyramid, (int(frame.shape[0]), int(frame.shape[1])))
    _account_frame(
        stats, ENCODE_STAGES, (began, transformed, time.perf_counter()), int(frame.size), stream
    )
    return stream


def compress_frames(
    frames: Sequence[np.ndarray],
    codec: Optional[str] = None,
    scales: Optional[int] = None,
    engine: Optional[str] = None,
    spec: Optional[CodecSpec] = None,
    workers: int = 1,
    **codec_options,
) -> CompressedBatch:
    """Losslessly compress a batch of integer frames end to end.

    ``frames`` may mix sizes; each frame is decomposed to
    ``min(scales, deepest depth its geometry supports)``.  Per-stage
    wall-clock totals are accumulated in the returned batch's ``stats``.

    The configuration is either a ready-made ``spec``
    (:class:`~repro.coding.spec.CodecSpec`) or the legacy keywords, which
    are folded into one via :meth:`CodecSpec.from_kwargs` (omitted
    keywords mean s-transform codec, 4 scales and the
    :func:`~repro.coding.spec.default_engine` entropy tier — ``fast``, or
    ``scalar`` when ``REPRO_ENGINE`` forces it).  Passing
    ``spec`` together with any explicit keyword is an error, never a
    silent override.

    ``workers=N`` (N > 1) shards the batch across a process pool
    (:class:`~repro.coding.executor.ParallelExecutor`);
    ``workers="host:port,host:port"`` (or a
    :class:`~repro.coding.netexec.WorkerPool`) shards it across remote
    socket workers instead (:class:`~repro.coding.netexec.SocketPoolExecutor`).
    Either way the streams are byte-identical to the serial run and
    ``stats.wall_seconds`` records the parallel elapsed time.
    """
    spec = resolve_spec(spec, codec, scales, engine, **codec_options)
    if workers != 1:
        from .executor import make_executor

        return make_executor(workers).compress(frames, spec)
    resources = CodecResources(spec)
    stats = PipelineStats()
    streams: List[Union[CompressedImage, CompressedSImage]] = [
        encode_frame(frame, spec, resources, stats) for frame in frames
    ]
    return CompressedBatch.from_spec(spec, streams, stats)


def decompress_frames(
    batch: CompressedBatch,
    engine: Optional[str] = None,
    workers: int = 1,
) -> Tuple[List[np.ndarray], PipelineStats]:
    """Reconstruct every frame of a batch bit for bit.

    Returns ``(frames, stats)``; ``engine`` overrides the batch's entropy
    engine when given (the streams are wire-compatible across engines).
    Each frame's ``decode_pyramid`` is timed as the ``"entropy_decode"``
    stage and its ``inverse_transform`` as ``"inverse"``
    (:data:`DECODE_STAGES`).  ``workers=N`` decodes the batch through the
    process-pool executor.
    """
    spec = batch.resolved_spec().replace(engine=engine or batch.engine)
    if workers != 1:
        from .executor import make_executor

        return make_executor(workers).decompress(batch, spec=spec)
    resources = CodecResources(spec)
    stats = PipelineStats()
    frames: List[np.ndarray] = []
    for stream in batch.streams:
        codec = resources.codec_for(stream.scales)
        began = time.perf_counter()
        pyramid = codec.decode_pyramid(stream)
        decoded = time.perf_counter()
        frame = codec.inverse_transform(pyramid)
        _account_frame(
            stats, DECODE_STAGES, (began, decoded, time.perf_counter()), int(frame.size), stream
        )
        frames.append(frame)
    return frames, stats

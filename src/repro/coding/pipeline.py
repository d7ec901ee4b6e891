"""Batched compression pipeline, built from composable stages.

The paper's motivating workload is an archive compressing *streams* of
medical images, not one frame at a time.  :func:`compress_frames` and
:func:`decompress_frames` run many images through a lossless codec in one
call, handle mixed frame sizes (the decomposition depth is clamped per frame
to what the dyadic geometry supports), and account wall-clock time per
pipeline stage so throughput regressions are attributable to a stage rather
than to "the codec".

Configuration is a :class:`~repro.coding.spec.CodecSpec` — codec family,
entropy engine, transform back end, depth, bit depth, filter bank — and the
pipeline itself is a :class:`StagePipeline` of :class:`Stage` objects:

* encode: :class:`DecorrelateStage` (software or accelerator transform)
  → :class:`EntropyEncodeStage` (map + entropy code);
* decode: :class:`EntropyDecodeStage` → :class:`ReconstructStage`.

Each stage's wall clock is folded into :class:`PipelineStats` under the
stage's name, so the stats model is identical whether a batch ran through
the convenience functions, a custom stage composition, or the multi-core
:class:`~repro.coding.executor.ParallelExecutor` (``workers=N`` on either
convenience function shards the batch across a process pool and merges the
per-stage stats; the streams are byte-identical to serial execution).

The legacy keyword style (``codec=``, ``engine=``, ``transform=``,
``transform_engine=``, ``**codec_options``) keeps working: both entry
points funnel it through :meth:`CodecSpec.from_kwargs`.

``transform="accelerator"`` replaces the software transform with the
cycle-accurate architecture model
(:class:`~repro.arch.accelerator.DwtAccelerator`), giving a single batched
image → accelerator transform → entropy codec → bitstream path whose
per-frame :class:`~repro.arch.accelerator.AcceleratorRunReport`\\ s (cycles,
utilisation, DRAM traffic) are collected next to the per-stage wall-clock
stats.  The accelerator transform is bit-identical to the software
fixed-point transform, so streams are wire-compatible across transforms; it
is only available for the ``"coefficient"`` codec and requires square
frames, as the architecture does.

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

from ..arch.accelerator import AcceleratorRunReport, DwtAccelerator
from ..filters.catalog import get_bank
from .codec import CompressedImage, LosslessWaveletCodec
from .s_transform import CompressedSImage
from .spec import CodecSpec, codec_names, resolve_spec

__all__ = [
    "PipelineStats",
    "CompressedBatch",
    "CODEC_NAMES",
    "TRANSFORMS",
    "ENCODE_STAGES",
    "DECODE_STAGES",
    "max_dyadic_scales",
    "Stage",
    "DecorrelateStage",
    "EntropyEncodeStage",
    "EntropyDecodeStage",
    "ReconstructStage",
    "StagePipeline",
    "CodecResources",
    "FrameJob",
    "encode_pipeline",
    "decode_pipeline",
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

#: Transform-stage back ends of the batched pipeline.
TRANSFORMS = ("software", "accelerator")

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
    #: One run report per frame when the accelerator transform is used
    #: (empty on the software-transform path).
    accelerator_reports: List[AcceleratorRunReport] = field(default_factory=list)
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
        self.accelerator_reports.extend(other.accelerator_reports)
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
    ``codec``/``engine``/``codec_options``/``transform`` mirror it for
    backward compatibility with pre-spec call sites.
    """

    codec: str
    engine: str
    codec_options: Dict
    streams: List[Union[CompressedImage, CompressedSImage]]
    stats: PipelineStats
    transform: str = "software"
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
            transform=spec.transform,
            spec=spec,
        )

    def __len__(self) -> int:
        return len(self.streams)

    def resolved_spec(self) -> CodecSpec:
        """The batch's spec, rebuilt from the legacy fields when unset."""
        if self.spec is not None:
            return self.spec
        return CodecSpec.from_kwargs(
            codec=self.codec,
            engine=self.engine,
            transform=self.transform,
            **self.codec_options,
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
# Shared resources: process-wide LRU of codec and accelerator instances
# ---------------------------------------------------------------------------

class _InstanceLRU:
    """Thread-safe LRU of built instances, keyed by hashable tuples.

    The factory runs outside the lock (construction — word-length planning,
    architecture modelling — is the expensive part); a build race is
    resolved by keeping the first instance to land.
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
#: processes, which inherit the parent's warm cache.  Codecs only: their
#: state is fixed at construction, so one instance can serve concurrent
#: runs.  Accelerators stay per-:class:`CodecResources` — a
#: :class:`DwtAccelerator` run mutates its DRAM model and counters, so a
#: shared instance would corrupt concurrent encodes (and each one pins an
#: image-sized frame buffer, which a process-wide cache would never free).
_RESOURCE_CACHE = _InstanceLRU(maxsize=64)


def resource_cache_info() -> Dict[str, int]:
    """Size/hit statistics of the process-wide codec/accelerator cache."""
    return _RESOURCE_CACHE.info()


def clear_resource_cache() -> None:
    """Empty the process-wide codec/accelerator cache (tests, memory)."""
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
    """Codec and accelerator instances for one :class:`CodecSpec`.

    Codecs are fetched from the process-wide LRU keyed by
    ``(spec, scales)`` — the per-frame depth, because the spec's requested
    depth is clamped per frame — so word-length planning amortises across
    every pipeline run, archive call and shard worker in the process.
    Specs that are not safely shareable (see :func:`_shared_cacheable`)
    fall back to caches local to this object, which is exactly the old
    per-run behaviour.  Accelerator instances are always local to this
    object (keyed by ``(size, scales)``): an accelerator run mutates its
    DRAM model, so sharing one across concurrent runs is unsafe.
    """

    def __init__(self, spec: CodecSpec) -> None:
        self.spec = spec
        self._shared = _shared_cacheable(spec)
        self._codecs: Dict[int, object] = {}
        self._accelerators: Dict[Tuple[int, int], DwtAccelerator] = {}

    def codec_for(self, scales: int):
        if self._shared:
            return _RESOURCE_CACHE.get_or_create(
                ("codec", self.spec, scales), lambda: self.spec.build_codec(scales)
            )
        if scales not in self._codecs:
            self._codecs[scales] = self.spec.build_codec(scales)
        return self._codecs[scales]

    def accelerator_for(
        self, codec: LosslessWaveletCodec, size: int, scales: int
    ) -> DwtAccelerator:
        def build() -> DwtAccelerator:
            # The architecture config looks the bank up by name, so the
            # codec's bank must be the catalog instance of that name — a
            # custom bank object would silently filter with different taps.
            try:
                catalog_bank = get_bank(codec.bank.name)
            except (KeyError, ValueError):
                catalog_bank = None
            if catalog_bank is not codec.bank:
                raise ValueError(
                    "transform='accelerator' requires a Table I catalog filter "
                    f"bank; the codec uses a custom bank {codec.bank.name!r}"
                )
            return DwtAccelerator.from_spec(
                self.spec, image_size=size, scales=scales, plan=codec.plan
            )

        key = (size, scales)
        if key not in self._accelerators:
            self._accelerators[key] = build()
        return self._accelerators[key]


@dataclass
class FrameJob:
    """Everything a stage needs to process one frame."""

    spec: CodecSpec
    resources: CodecResources
    codec: object
    scales: int
    frame_shape: Tuple[int, int]
    stats: PipelineStats


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

class Stage:
    """One step of the pipeline: a named ``value -> value`` transformation.

    Stages are stateless; per-frame state travels in the :class:`FrameJob`.
    :meth:`StagePipeline.run` times each stage and folds the wall clock into
    ``job.stats`` under :attr:`name`.
    """

    name = "stage"

    def process(self, value, job: FrameJob):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


def _accelerator_frame(frame: np.ndarray, codec: LosslessWaveletCodec) -> np.ndarray:
    """Validate a frame for the accelerator path (square + declared bit depth)."""
    if frame.ndim != 2 or frame.shape[0] != frame.shape[1]:
        raise ValueError(
            "transform='accelerator' processes square frames only "
            f"(got shape {tuple(frame.shape)})"
        )
    return codec.validate_image(frame)


class DecorrelateStage(Stage):
    """Frame → subband pyramid (software transform or accelerator model)."""

    name = "transform"

    def process(self, frame: np.ndarray, job: FrameJob):
        if job.spec.transform == "accelerator":
            frame = _accelerator_frame(frame, job.codec)
            accelerator = job.resources.accelerator_for(
                job.codec, frame.shape[0], job.scales
            )
            pyramid, report = accelerator.forward(frame)
            job.stats.accelerator_reports.append(report)
            return pyramid
        return job.codec.forward_transform(frame)


class EntropyEncodeStage(Stage):
    """Subband pyramid → entropy-coded compressed stream."""

    name = "entropy_encode"

    def process(self, pyramid, job: FrameJob):
        return job.codec.encode_pyramid(pyramid, job.frame_shape)


class EntropyDecodeStage(Stage):
    """Compressed stream → subband pyramid."""

    name = "entropy_decode"

    def process(self, stream, job: FrameJob):
        return job.codec.decode_pyramid(stream)


class ReconstructStage(Stage):
    """Subband pyramid → reconstructed frame (bit for bit)."""

    name = "inverse"

    def process(self, pyramid, job: FrameJob):
        if job.spec.transform == "accelerator":
            accelerator = job.resources.accelerator_for(
                job.codec, job.frame_shape[0], job.scales
            )
            frame, report = accelerator.inverse(pyramid)
            job.stats.accelerator_reports.append(report)
            return frame
        return job.codec.inverse_transform(pyramid)


class StagePipeline:
    """An ordered composition of stages with per-stage timing."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        self.stages: Tuple[Stage, ...] = tuple(stages)
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def run(self, value, job: FrameJob):
        """Push one value through every stage, timing each into ``job.stats``."""
        for stage in self.stages:
            began = time.perf_counter()
            value = stage.process(value, job)
            job.stats.add_stage(stage.name, time.perf_counter() - began)
        return value


def encode_pipeline() -> StagePipeline:
    """The standard encode composition: decorrelate → map + entropy code."""
    return StagePipeline([DecorrelateStage(), EntropyEncodeStage()])


def decode_pipeline() -> StagePipeline:
    """The standard decode composition: entropy decode → reconstruct."""
    return StagePipeline([EntropyDecodeStage(), ReconstructStage()])


# ---------------------------------------------------------------------------
# Batched entry points
# ---------------------------------------------------------------------------

def encode_frame(
    frame: np.ndarray,
    spec: CodecSpec,
    resources: CodecResources,
    stats: PipelineStats,
    pipeline: Optional[StagePipeline] = None,
) -> Union[CompressedImage, CompressedSImage]:
    """Compress one frame through the encode pipeline, folding its stage
    timings and counters into ``stats``.

    This is the single-frame unit :func:`compress_frames` loops over; the
    streaming ingest front end (:mod:`repro.archive.ingest`) calls it
    directly so frames can flow one at a time without a materialised batch.
    """
    if pipeline is None:
        pipeline = encode_pipeline()
    frame = np.asarray(frame)
    frame_scales = _frame_scales(frame.shape, spec.scales)
    job = FrameJob(
        spec=spec,
        resources=resources,
        codec=resources.codec_for(frame_scales),
        scales=frame_scales,
        frame_shape=(int(frame.shape[0]), int(frame.shape[1])),
        stats=stats,
    )
    stream = pipeline.run(frame, job)
    stats.frames += 1
    stats.pixels += int(frame.size)
    stats.raw_bytes += stream.original_bytes
    stats.compressed_bytes += stream.compressed_bytes
    return stream


def compress_frames(
    frames: Sequence[np.ndarray],
    codec: Optional[str] = None,
    scales: Optional[int] = None,
    engine: Optional[str] = None,
    transform: Optional[str] = None,
    transform_engine: Optional[str] = None,
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
    keywords mean s-transform codec, 4 scales, software transform and the
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

    ``transform="accelerator"`` replaces the software transform stage with
    the cycle-accurate accelerator model (``"coefficient"`` codec, square
    frames); its per-frame run reports land in ``stats.accelerator_reports``
    and the streams stay bit-identical to the software path.
    """
    spec = resolve_spec(
        spec, codec, scales, engine, transform, transform_engine, **codec_options
    )
    if workers != 1:
        from .executor import make_executor

        return make_executor(workers).compress(frames, spec)
    resources = CodecResources(spec)
    pipeline = encode_pipeline()
    stats = PipelineStats()
    streams: List[Union[CompressedImage, CompressedSImage]] = [
        encode_frame(frame, spec, resources, stats, pipeline) for frame in frames
    ]
    return CompressedBatch.from_spec(spec, streams, stats)


def decompress_frames(
    batch: CompressedBatch,
    engine: Optional[str] = None,
    transform: Optional[str] = None,
    transform_engine: Optional[str] = None,
    workers: int = 1,
) -> Tuple[List[np.ndarray], PipelineStats]:
    """Reconstruct every frame of a batch bit for bit.

    Returns ``(frames, stats)``; ``engine`` overrides the batch's engine,
    ``transform`` its transform back end and ``transform_engine`` its
    accelerator engine — each only when given, so an omitted override
    keeps the batch spec's stored value (the streams are wire-compatible
    across engines *and* transforms, because the accelerator model is
    bit-identical to the software transform).  ``workers=N`` decodes the
    batch through the process-pool executor.
    """
    base = batch.resolved_spec()
    spec = base.replace(
        engine=engine or batch.engine,
        transform=transform or batch.transform,
        transform_engine=(
            transform_engine if transform_engine is not None else base.transform_engine
        ),
    )
    if workers != 1:
        from .executor import make_executor

        return make_executor(workers).decompress(batch, spec=spec)
    resources = CodecResources(spec)
    pipeline = decode_pipeline()
    stats = PipelineStats()
    frames: List[np.ndarray] = []
    for stream in batch.streams:
        job = FrameJob(
            spec=spec,
            resources=resources,
            codec=resources.codec_for(stream.scales),
            scales=stream.scales,
            frame_shape=(int(stream.image_shape[0]), int(stream.image_shape[1])),
            stats=stats,
        )
        frame = pipeline.run(stream, job)
        stats.frames += 1
        stats.pixels += int(frame.size)
        stats.raw_bytes += stream.original_bytes
        stats.compressed_bytes += stream.compressed_bytes
        frames.append(frame)
    return frames, stats

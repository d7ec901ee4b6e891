"""Top-level accelerator model: full FDWT/IDWT runs over the DRAM frame.

:class:`DwtAccelerator` drives the :class:`~repro.arch.datapath.Datapath`
over a whole image exactly as the paper's architecture does: for each scale
the rows of the current average image are filtered first, then the columns
of the two intermediate subimages, the HH result becoming the input of the
next scale; the inverse transform walks the scales in the opposite order.
The image lives in the external DRAM model and every sample is read once and
written once per convolution pass.

Two interchangeable engines drive the datapath (``engine="fast"`` /
``"scalar"``, mirroring the entropy-coding stack's API):

* ``"scalar"`` steps the datapath one macro-cycle at a time — the reference
  model, bit-exact against the software fixed-point transform but O(N²)
  Python iterations per image;
* ``"fast"`` (default) computes each line pass as one whole-array operation
  through :class:`~repro.arch.fast_datapath.FastDatapath`, reproducing the
  scalar engine's outputs *and* statistics exactly (the per-sample counters
  are closed-form functions of the pass geometry), which makes full 512x512
  cycle-accounted runs interactive.

For the paper's 512x512 headline numbers the *analytic* performance model
(:func:`estimate_performance`) remains available: it counts macro-cycles
with the same closed forms the simulator obeys and converts them to
seconds, images/s and utilisation.  The analytic model is validated against
the simulator by the test suite.

Built with a codec's word-length plan
(``DwtAccelerator(config, plan=codec.plan)``), the accelerator's pyramids
are bit-identical to :meth:`repro.coding.codec.LosslessWaveletCodec.forward_transform`,
so its output is what the coefficient codec entropy-codes; the test suite
pins that equality.  The compression pipeline itself runs the software
transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dwt.subbands import ScaleDetails
from ..fixedpoint.wordlength import WordLengthPlan
from ..fxdwt.transform import FixedPointPyramid
from .config import ArchitectureConfig, paper_configuration
from .datapath import Datapath, DatapathStats
from .dram import ExternalDram, FrameBuffer, RefreshTimer
from .fast_datapath import FastDatapath
from .scheduler import UtilisationReport, simulate_utilisation

#: Engines the accelerator can run a transform with: the vectorised
#: whole-pass engine (default) or the per-macro-cycle scalar reference.
ENGINES = ("fast", "scalar")

__all__ = [
    "AcceleratorRunReport",
    "PerformanceEstimate",
    "DwtAccelerator",
    "ENGINES",
    "forward_macrocycles",
    "inverse_macrocycles",
    "estimate_performance",
]


# ---------------------------------------------------------------------------
# Analytic macro-cycle counts
# ---------------------------------------------------------------------------

def forward_macrocycles(image_size: int, scales: int) -> int:
    """Macro-cycles of a full forward transform (one per output sample).

    At scale ``j`` the input is the ``M x M`` average of scale ``j - 1``
    (``M = N / 2^(j-1)``).  The row pass produces ``M`` outputs per row over
    ``M`` rows; the column pass produces ``M`` outputs per column over the
    ``M`` columns of the two intermediate subimages — ``2 M^2`` macro-cycles
    per scale in total.
    """
    if image_size < 2 or scales < 1:
        raise ValueError("image_size must be >= 2 and scales >= 1")
    total = 0
    for scale in range(1, scales + 1):
        m = image_size // (2 ** (scale - 1))
        total += 2 * m * m
    return total


def inverse_macrocycles(image_size: int, scales: int) -> int:
    """Macro-cycles of a full inverse transform (same count as the forward)."""
    return forward_macrocycles(image_size, scales)


@dataclass(frozen=True)
class PerformanceEstimate:
    """Analytic performance of one transform run on the accelerator."""

    image_size: int
    scales: int
    macrocycles: int
    refreshes: int
    total_cycles: int
    utilisation: float
    clock_frequency_mhz: float
    transform_seconds: float
    images_per_second: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.image_size}x{self.image_size}, {self.scales} scales: "
            f"{self.total_cycles} cycles @ {self.clock_frequency_mhz:.1f} MHz = "
            f"{self.transform_seconds * 1e3:.1f} ms "
            f"({self.images_per_second:.2f} images/s, "
            f"utilisation {100 * self.utilisation:.2f}%)"
        )


def estimate_performance(
    config: Optional[ArchitectureConfig] = None, direction: str = "forward"
) -> PerformanceEstimate:
    """Closed-form cycle/throughput estimate for one transform run.

    With the paper's configuration (512x512, 13-tap filters, 6 scales,
    33 MHz, refresh every 48 macro-cycles) this reproduces the headline
    figures: ≈ 3.5 images/s and 99.04 % multiplier utilisation.
    """
    config = config or paper_configuration()
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    macrocycles = forward_macrocycles(config.image_size, config.scales)
    report: UtilisationReport = simulate_utilisation(macrocycles, config)
    seconds = report.total_cycles * config.clock_period_ns * 1e-9
    return PerformanceEstimate(
        image_size=config.image_size,
        scales=config.scales,
        macrocycles=report.macrocycles,
        refreshes=report.refreshes,
        total_cycles=report.total_cycles,
        utilisation=report.utilisation,
        clock_frequency_mhz=config.clock_frequency_mhz,
        transform_seconds=seconds,
        images_per_second=1.0 / seconds if seconds > 0 else float("inf"),
    )


# ---------------------------------------------------------------------------
# Cycle-level simulation
# ---------------------------------------------------------------------------

@dataclass
class AcceleratorRunReport:
    """Everything measured during one simulated accelerator run."""

    direction: str
    image_size: int
    scales: int
    macrocycles: int
    refreshes: int
    busy_cycles: int
    stall_cycles: int
    total_cycles: int
    utilisation: float
    dram_reads: int
    dram_writes: int
    coefficient_reads: int
    multiplies: int
    onchip_memory_words: int
    elapsed_seconds: float
    images_per_second: float

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        return (
            f"{self.direction.upper()} {self.image_size}x{self.image_size} "
            f"({self.scales} scales): {self.macrocycles} macrocycles, "
            f"{self.total_cycles} cycles, utilisation {100 * self.utilisation:.2f}%, "
            f"{self.dram_reads} DRAM reads / {self.dram_writes} writes, "
            f"{self.multiplies} multiplies, {self.onchip_memory_words} on-chip words, "
            f"{self.elapsed_seconds * 1e3:.2f} ms "
            f"({self.images_per_second:.2f} images/s)"
        )


class DwtAccelerator:
    """Behavioural + cycle-counting model of the complete accelerator.

    Parameters
    ----------
    config:
        Architecture configuration; defaults to the paper configuration
        scaled down to the given image when images smaller than 512 are
        transformed.
    plan:
        Optional word-length plan override (forwarded to the datapath).
    rounding / overflow_policy:
        Forwarded to the datapath (ablation hooks).
    engine:
        Default transform engine: ``"fast"`` (vectorised whole-pass, the
        default) or ``"scalar"`` (per-macro-cycle reference).  Both are
        bit-identical in outputs and statistics; ``forward``/``inverse``
        accept a per-call override.
    """

    def __init__(
        self,
        config: Optional[ArchitectureConfig] = None,
        plan: Optional[WordLengthPlan] = None,
        rounding: str = "half_up",
        overflow_policy: str = "raise",
        engine: str = "fast",
    ) -> None:
        self.config = config or paper_configuration()
        self.engine = self._check_engine(engine)
        self.datapath = Datapath(
            self.config, plan=plan, rounding=rounding, overflow_policy=overflow_policy
        )
        self.fast_datapath = FastDatapath(self.datapath)
        self.dram = ExternalDram(self.config.image_size * self.config.image_size)
        self.refresh_timer = RefreshTimer(self.config.dram_refresh_interval_cycles)

    # -- public API -----------------------------------------------------------------
    @property
    def plan(self) -> WordLengthPlan:
        return self.datapath.plan

    @staticmethod
    def _check_engine(engine: str) -> str:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r} (expected one of {ENGINES})")
        return engine

    def _resolve_engine(self, engine: Optional[str]) -> str:
        return self.engine if engine is None else self._check_engine(engine)

    def forward(
        self, image: np.ndarray, engine: Optional[str] = None
    ) -> Tuple[FixedPointPyramid, AcceleratorRunReport]:
        """Run the forward transform; return the pyramid and the run report."""
        engine = self._resolve_engine(engine)
        image = self._validate_image(image)
        self.datapath.reset_counters()
        self.dram.reset_counters()

        frame = FrameBuffer(self.dram, image.shape[0], image.shape[1])
        frame.load_image(image)

        data = image
        details: List[ScaleDetails] = []
        for scale in range(1, self.config.scales + 1):
            if engine == "fast":
                data, entry = self._forward_scale_fast(data, scale)
            else:
                data, entry = self._forward_scale_scalar(data, scale)
            details.append(entry)
        pyramid = FixedPointPyramid(plan=self.plan, approximation=data, details=details)
        # The final contents of the frame buffer are the mosaic of all subbands
        # (what the host reads back over the PCI interface).
        frame.load_image(self._mosaic_stored(pyramid))
        report = self._build_report("forward", image.shape[0])
        return pyramid, report

    def inverse(
        self, pyramid: FixedPointPyramid, engine: Optional[str] = None
    ) -> Tuple[np.ndarray, AcceleratorRunReport]:
        """Run the inverse transform; return the image and the run report."""
        engine = self._resolve_engine(engine)
        if pyramid.scales != self.config.scales:
            raise ValueError(
                f"pyramid has {pyramid.scales} scales, accelerator configured "
                f"for {self.config.scales}"
            )
        approx = np.asarray(pyramid.approximation)
        expected = self.config.image_size >> self.config.scales
        if approx.ndim != 2 or approx.shape != (expected, expected):
            raise ValueError(
                f"pyramid approximation of shape {approx.shape} does not match "
                f"the configured {self.config.image_size}x{self.config.image_size} "
                f"frame at {self.config.scales} scales "
                f"(expected {expected}x{expected}); the accelerator processes "
                "square 2-D images"
            )
        self.datapath.reset_counters()
        self.dram.reset_counters()

        data = np.asarray(pyramid.approximation, dtype=np.int64)
        for scale in range(self.config.scales, 0, -1):
            entry = pyramid.details[scale - 1]
            if engine == "fast":
                data = self._inverse_scale_fast(data, entry, scale)
            else:
                data = self._inverse_scale_scalar(data, entry, scale)
        report = self._build_report("inverse", data.shape[0])
        return data, report

    def roundtrip(
        self, image: np.ndarray, engine: Optional[str] = None
    ) -> Tuple[np.ndarray, FixedPointPyramid, AcceleratorRunReport, AcceleratorRunReport]:
        """Forward + inverse; returns (reconstruction, pyramid, fwd report, inv report)."""
        pyramid, forward_report = self.forward(image, engine=engine)
        reconstructed, inverse_report = self.inverse(pyramid, engine=engine)
        return reconstructed, pyramid, forward_report, inverse_report

    # -- per-scale passes ---------------------------------------------------------------
    def _forward_scale_scalar(
        self, data: np.ndarray, scale: int
    ) -> Tuple[np.ndarray, ScaleDetails]:
        """One forward 2-D stage, one macro-cycle at a time (reference)."""
        size = data.shape[0]
        # Row pass: every row is read once, filtered, written back once.
        row_lo = np.zeros((size, size // 2), dtype=np.int64)
        row_hi = np.zeros((size, size // 2), dtype=np.int64)
        for row in range(size):
            lo, hi = self.datapath.analyze_line(data[row], scale, "rows")
            row_lo[row], row_hi[row] = lo, hi
        # Column pass over the two intermediate subimages.
        half = size // 2
        hh = np.zeros((half, half), dtype=np.int64)
        hg = np.zeros((half, half), dtype=np.int64)
        gh = np.zeros((half, half), dtype=np.int64)
        gg = np.zeros((half, half), dtype=np.int64)
        for col in range(half):
            lo, hi = self.datapath.analyze_line(row_lo[:, col], scale, "columns")
            hh[:, col], hg[:, col] = lo, hi
            lo, hi = self.datapath.analyze_line(row_hi[:, col], scale, "columns")
            gh[:, col], gg[:, col] = lo, hi
        return hh, ScaleDetails(scale=scale, hg=hg, gh=gh, gg=gg)

    def _forward_scale_fast(
        self, data: np.ndarray, scale: int
    ) -> Tuple[np.ndarray, ScaleDetails]:
        """One forward 2-D stage as three whole-pass array calls."""
        fast = self.fast_datapath
        row_lo, row_hi = fast.analyze_lines(data, scale, "rows")
        lo, hi = fast.analyze_lines(row_lo.T, scale, "columns")
        hh, hg = lo.T, hi.T
        lo, hi = fast.analyze_lines(row_hi.T, scale, "columns")
        gh, gg = lo.T, hi.T
        return hh, ScaleDetails(scale=scale, hg=hg, gh=gh, gg=gg)

    def _inverse_scale_scalar(
        self, data: np.ndarray, entry: ScaleDetails, scale: int
    ) -> np.ndarray:
        """One inverse 2-D stage, one macro-cycle at a time (reference)."""
        half = data.shape[0]
        size = 2 * half
        # Undo the column transform (columns were filtered last going forward).
        row_lo = np.zeros((size, half), dtype=np.int64)
        row_hi = np.zeros((size, half), dtype=np.int64)
        for col in range(half):
            row_lo[:, col] = self.datapath.synthesize_line(
                data[:, col], entry.hg[:, col], scale, "columns"
            )
            row_hi[:, col] = self.datapath.synthesize_line(
                entry.gh[:, col], entry.gg[:, col], scale, "columns"
            )
        # Undo the row transform, landing in the coarser format.
        out = np.zeros((size, size), dtype=np.int64)
        for row in range(size):
            out[row] = self.datapath.synthesize_line(
                row_lo[row], row_hi[row], scale, "rows"
            )
        return out

    def _inverse_scale_fast(
        self, data: np.ndarray, entry: ScaleDetails, scale: int
    ) -> np.ndarray:
        """One inverse 2-D stage as three whole-pass array calls."""
        fast = self.fast_datapath
        row_lo = fast.synthesize_lines(data.T, entry.hg.T, scale, "columns").T
        row_hi = fast.synthesize_lines(entry.gh.T, entry.gg.T, scale, "columns").T
        return fast.synthesize_lines(row_lo, row_hi, scale, "rows")

    # -- internals ---------------------------------------------------------------------
    def _validate_image(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image)
        if image.ndim != 2 or image.shape[0] != image.shape[1]:
            raise ValueError("the accelerator processes square 2-D images")
        if image.shape[0] != self.config.image_size:
            raise ValueError(
                f"image of size {image.shape[0]} does not match the configured "
                f"frame of {self.config.image_size}; build the accelerator with "
                "config.with_image_size(...)"
            )
        if image.shape[0] % (1 << self.config.scales):
            raise ValueError(
                f"image size {image.shape[0]} is not divisible by 2^{self.config.scales}"
            )
        # No copy when the caller already holds int64 pixels; the transform
        # never mutates its input in place.
        return np.asarray(image, dtype=np.int64)

    def _mosaic_stored(self, pyramid: FixedPointPyramid) -> np.ndarray:
        """Mosaic of the stored-integer subbands (the frame's final contents)."""
        rows = cols = self.config.image_size
        mosaic = np.zeros((rows, cols), dtype=np.int64)
        r, c = pyramid.approximation.shape
        mosaic[:r, :c] = pyramid.approximation
        for entry in reversed(pyramid.details):
            r, c = entry.shape
            mosaic[:r, c: 2 * c] = entry.hg
            mosaic[r: 2 * r, :c] = entry.gh
            mosaic[r: 2 * r, c: 2 * c] = entry.gg
        return mosaic

    def _build_report(self, direction: str, image_size: int) -> AcceleratorRunReport:
        counter = self.datapath.counter
        seconds = counter.total_cycles * self.config.clock_period_ns * 1e-9
        return AcceleratorRunReport(
            direction=direction,
            image_size=image_size,
            scales=self.config.scales,
            macrocycles=counter.macrocycles,
            refreshes=counter.refreshes,
            busy_cycles=counter.busy_cycles,
            stall_cycles=counter.stall_cycles,
            total_cycles=counter.total_cycles,
            utilisation=counter.utilisation(),
            dram_reads=self.datapath.stats.dram_reads,
            dram_writes=self.datapath.stats.dram_writes,
            coefficient_reads=self.datapath.stats.coefficient_reads,
            multiplies=self.datapath.mac.stats.multiplies,
            onchip_memory_words=self.config.onchip_memory_words,
            elapsed_seconds=seconds,
            images_per_second=1.0 / seconds if seconds > 0 else float("inf"),
        )

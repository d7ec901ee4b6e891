"""Bit-accurate fixed-point 2-D DWT with scale-dependent integer part.

This is the software model of the arithmetic the paper's datapath performs:

* data and coefficients held in 32-bit two's-complement words,
* every convolution output produced by exact integer multiply-accumulate
  (the 32x32 multiplier with 64-bit accumulation),
* the result re-aligned to the format of the destination scale (the
  "Alignment" unit of Fig. 3, shifts stored in the configuration memory) and
  narrowed with the §4.3 round-half-up rule,
* the integer part of the destination format growing with the scale for the
  forward transform and shrinking for the inverse, per Table II.

The cycle-accurate architecture model of :mod:`repro.arch` is validated
against this transform for bit-exact equality, mirroring the paper's own
validation of the VHDL model against a software implementation.

Passes are polyphase and in Mallat layout, as the Fig. 3 datapath streams
them: every sample of a line is read once and feeds both the low-pass and
the high-pass MAC.  A tap at index ``2*m + p`` reads phase ``p`` (the even
or odd samples) shifted by ``m``, so each tap is a contiguous slice of one
circularly extended phase array, and the two filters of a pass share that
one extension.  A row pass writes ``[lo | hi]``; the column pass over it
writes ``[[HH, GH], [HG, GG]]``; synthesis runs the same layout backwards.
Taps sharing a stored coefficient are folded (``c*(a + b)``).  Folding and
reordering are exact: ``int64`` arithmetic is arithmetic modulo ``2**64``,
like the §3 64-bit accumulator, so every output word equals the tap-by-tap
multiply-accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dwt.subbands import ScaleDetails, WaveletPyramid
from ..dwt.transform1d import max_scales_for_length
from ..filters.qmf import BiorthogonalBank, SymmetricFilter
from ..fixedpoint.fxarray import FxArray
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.rounding import round_half_up_shift, truncate_shift
from ..fixedpoint.wordlength import WordLengthPlan, plan_word_lengths

__all__ = [
    "QuantizedFilter",
    "quantize_filter",
    "FixedPointPyramid",
    "FixedPointDWT",
    "reconstruct_preview",
]


@dataclass(frozen=True)
class QuantizedFilter:
    """A filter whose taps have been quantised to stored integers."""

    name: str
    stored_taps: Tuple[int, ...]
    indices: Tuple[int, ...]
    fmt: QFormat

    def __len__(self) -> int:
        return len(self.stored_taps)

    def items(self) -> List[Tuple[int, int]]:
        return list(zip(self.indices, self.stored_taps))

    def to_real(self) -> List[float]:
        return [t / self.fmt.scale for t in self.stored_taps]


def quantize_filter(filt: SymmetricFilter, fmt: QFormat) -> QuantizedFilter:
    """Quantise filter taps to ``fmt`` (round to nearest, ties up)."""
    indices = []
    stored = []
    for n, c in filt.items():
        indices.append(n)
        stored.append(fmt.to_stored(c))
    return QuantizedFilter(
        name=filt.name, stored_taps=tuple(stored), indices=tuple(indices), fmt=fmt
    )


# -- polyphase kernels ---------------------------------------------------------------
#: One MAC term: a stored coefficient and the ``(source, start)`` slices it
#: multiplies (several when taps sharing the coefficient are folded).
_Term = Tuple[int, Tuple[Tuple[int, int], ...]]
_FilterKey = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _filter_key(qfilt: QuantizedFilter) -> _FilterKey:
    # Read per call, not cached on the engine: fault-injection tests
    # rewrite stored taps after construction.
    return qfilt.indices, qfilt.stored_taps


def _fold(taps: Sequence[Tuple[int, int, int]]) -> Tuple[_Term, ...]:
    """Group ``(stored, source, start)`` taps by coefficient."""
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for stored, source, start in taps:
        groups.setdefault(stored, []).append((source, start))
    return tuple((stored, tuple(slices)) for stored, slices in groups.items())


@lru_cache(maxsize=64)
def _analysis_plan(
    filters: Tuple[_FilterKey, ...]
) -> Tuple[int, int, Tuple[Tuple[_Term, ...], ...]]:
    """``(before, after, terms per filter)`` of one analysis pass.

    Output ``i`` of tap ``idx = 2*m + p`` reads phase ``p`` at ``i + m``,
    i.e. slice start ``before + m`` of the phase extended circularly by
    ``before``/``after`` samples.
    """
    ms = [idx // 2 for indices, _ in filters for idx in indices]
    before, after = max(0, -min(ms)), max(0, max(ms))
    terms = tuple(
        _fold([(c, idx % 2, before + idx // 2) for idx, c in zip(indices, stored)])
        for indices, stored in filters
    )
    return before, after, terms


@lru_cache(maxsize=64)
def _synthesis_plan(
    lowpass: _FilterKey, highpass: _FilterKey
) -> Tuple[int, int, Tuple[Tuple[_Term, ...], Tuple[_Term, ...]]]:
    """``(before, after, terms per output phase)`` of one synthesis pass.

    Output phase ``p`` at ``j`` takes tap ``idx = 2*m + p`` of source 0
    (low band) or 1 (high band) at ``j - m``: slice start ``before - m`` of
    the band extended circularly by ``before``/``after`` samples.
    """
    ms = [idx // 2 for indices, _ in (lowpass, highpass) for idx in indices]
    before, after = max(0, max(ms)), max(0, -min(ms))
    terms = tuple(
        _fold(
            [
                (c, source, before - idx // 2)
                for source, (indices, stored) in enumerate((lowpass, highpass))
                for idx, c in zip(indices, stored)
                if idx % 2 == phase
            ]
        )
        for phase in (0, 1)
    )
    return before, after, terms


def _along(
    axis: int, start: Optional[int], stop: Optional[int], step: Optional[int] = None
) -> tuple:
    """Index tuple selecting ``start:stop:step`` along ``axis``."""
    return (slice(None),) * axis + (slice(start, stop, step),)


def _extend(x: np.ndarray, axis: int, before: int, after: int) -> np.ndarray:
    """Circular extension of ``x`` along ``axis`` (a fresh array)."""
    n = x.shape[axis]
    if before <= n and after <= n:
        return np.concatenate(
            (x[_along(axis, n - before, n)], x, x[_along(axis, 0, after)]), axis=axis
        )
    # Pads longer than the signal (long banks at deep scales of small
    # images) wrap more than once.
    return np.take(x, np.arange(-before, n + after) % n, axis=axis)


def _convolve(
    sources: Sequence[np.ndarray], terms: Tuple[_Term, ...], axis: int, length: int
) -> np.ndarray:
    """``sum(c * sum(sources[k][start:start+length]))`` along ``axis``.

    ``axis`` is the first or the last axis of the equally shaped, C-contiguous
    ``sources``, and every multiply-add runs on one contiguous flat slice.
    Along the first axis a shift is a whole number of rows.  Along the last
    axis the rows are walked as one line of pitch ``L`` and the ``L - length``
    outputs at the end of each row, which straddle two rows, are dropped.
    """
    shape = sources[0].shape
    flat = [source.reshape(-1) for source in sources]
    size = flat[0].size
    if axis == 0:
        pitch = size // shape[0]
        span = length * pitch
    else:
        pitch = 1
        span = size - (shape[-1] - length)
    buffer = np.empty(size if axis else span, dtype=np.int64)
    acc = buffer[:span]
    scratch = np.empty_like(acc) if len(terms) > 1 else None
    for n, (stored, slices) in enumerate(terms):
        dst = acc if n == 0 else scratch
        segments = [flat[k][s * pitch : s * pitch + span] for k, s in slices]
        if len(segments) == 1:
            np.multiply(segments[0], np.int64(stored), out=dst)
        else:
            np.add(segments[0], segments[1], out=dst)
            for segment in segments[2:]:
                dst += segment
            dst *= np.int64(stored)
        if n:
            acc += scratch
    if axis == 0:
        return acc.reshape((length,) + shape[1:])
    return buffer.reshape(shape)[..., :length]


@dataclass
class FixedPointPyramid:
    """Output of the fixed-point forward transform.

    Subband arrays hold *stored integers* (``int64``); their real value is
    obtained through the per-scale format of ``plan``.
    """

    plan: WordLengthPlan
    approximation: np.ndarray
    details: List[ScaleDetails] = field(default_factory=list)

    @property
    def scales(self) -> int:
        return len(self.details)

    def format_for_scale(self, scale: int) -> QFormat:
        return self.plan.format_for_scale(scale)

    def approximation_real(self) -> np.ndarray:
        """Approximation subband converted back to real values."""
        fmt = self.format_for_scale(self.scales)
        return self.approximation.astype(float) / fmt.scale

    def detail_real(self, scale: int) -> Dict[str, np.ndarray]:
        """Detail subbands of ``scale`` converted back to real values."""
        fmt = self.format_for_scale(scale)
        entry = self.details[scale - 1]
        return {k: v.astype(float) / fmt.scale for k, v in entry.as_dict().items()}

    def to_float_pyramid(self) -> WaveletPyramid:
        """Convert to a real-valued :class:`WaveletPyramid` (for comparison
        against the floating-point reference transform)."""
        details = []
        for entry in self.details:
            fmt = self.format_for_scale(entry.scale)
            details.append(
                ScaleDetails(
                    scale=entry.scale,
                    hg=entry.hg.astype(float) / fmt.scale,
                    gh=entry.gh.astype(float) / fmt.scale,
                    gg=entry.gg.astype(float) / fmt.scale,
                )
            )
        return WaveletPyramid(
            approximation=self.approximation_real(), details=details
        )

    def max_abs_stored_per_scale(self) -> Dict[int, int]:
        """Largest stored magnitude per scale (overflow diagnostics)."""
        out: Dict[int, int] = {}
        for entry in self.details:
            out[entry.scale] = int(
                max(
                    np.abs(entry.hg).max(),
                    np.abs(entry.gh).max(),
                    np.abs(entry.gg).max(),
                )
            )
        out[self.scales] = max(
            out.get(self.scales, 0), int(np.abs(self.approximation).max())
        )
        return out


class FixedPointDWT:
    """Bit-accurate fixed-point forward/inverse 2-D DWT engine.

    Parameters
    ----------
    bank:
        Biorthogonal filter bank (one of Table I).
    scales:
        Number of decomposition scales ``S``.
    plan:
        Optional pre-built :class:`WordLengthPlan`; by default the paper's
        plan (32-bit words, Table II integer parts, 13-bit input) is derived
        from the bank.
    rounding:
        ``"half_up"`` (the paper's §4.3 rule, default) or ``"truncate"``;
        exposed so the ablation benchmarks can show why the rounding rule
        matters for losslessness.
    overflow_policy:
        Range-check policy applied after every alignment (``"raise"``,
        ``"saturate"`` or ``"wrap"``).  The paper's word-length plan is
        designed so that ``"raise"`` never triggers.
    """

    def __init__(
        self,
        bank: BiorthogonalBank,
        scales: int,
        plan: Optional[WordLengthPlan] = None,
        rounding: str = "half_up",
        overflow_policy: str = "raise",
    ) -> None:
        if scales < 1:
            raise ValueError("scales must be >= 1")
        if rounding not in ("half_up", "truncate"):
            raise ValueError(f"unknown rounding mode {rounding!r}")
        self.bank = bank
        self.scales = scales
        self.plan = plan if plan is not None else plan_word_lengths(bank, scales)
        if self.plan.scales < scales:
            raise ValueError(
                f"word-length plan covers {self.plan.scales} scales, need {scales}"
            )
        self.rounding = rounding
        self.overflow_policy = overflow_policy
        cfmt = self.plan.coefficient_format
        self._qh = quantize_filter(bank.h, cfmt)
        self._qg = quantize_filter(bank.g, cfmt)
        self._qht = quantize_filter(bank.ht, cfmt)
        self._qgt = quantize_filter(bank.gt, cfmt)

    # -- helpers -----------------------------------------------------------------
    def _shift_amount(self, source_frac: int, target_frac: int) -> int:
        shift = source_frac - target_frac
        if shift < 0:
            raise ValueError(
                f"alignment would need a left shift ({source_frac} -> {target_frac} "
                "fractional bits); the plan is inconsistent"
            )
        return shift

    def _narrow(self, acc: np.ndarray, shift: int, target: QFormat) -> np.ndarray:
        """Align the accumulator ``acc`` into ``target`` (Fig. 3 Alignment).

        ``acc`` is rounded in place, so it must be an array the pass
        allocated, never one the caller handed in.
        """
        if self.rounding == "half_up":
            round_half_up_shift(acc, shift, out=acc)
        else:
            truncate_shift(acc, shift, out=acc)
        # "wrap" returns a new array, so take the checked one back.
        return FxArray(acc, target).check_range(self.overflow_policy).stored

    def _analysis_pass(
        self,
        data: np.ndarray,
        filters: Sequence[QuantizedFilter],
        axis: int,
        source_frac: int,
        target: QFormat,
    ) -> np.ndarray:
        """Decimated analysis along ``axis`` through each of ``filters``.

        Both phases of ``data`` are extended once and shared by every
        filter; the outputs lie side by side along ``axis`` (``[lo | hi]``)
        and are narrowed together (the filters share one coefficient
        format, hence one alignment shift).
        """
        n = data.shape[axis]
        if n % 2 != 0:
            raise ValueError(f"signal length {n} must be even")
        half = n // 2
        before, after, terms = _analysis_plan(tuple(_filter_key(q) for q in filters))
        phases = [
            _extend(data[_along(axis, p, None, 2)], axis, before, after) for p in (0, 1)
        ]
        acc = np.concatenate(
            [_convolve(phases, filter_terms, axis, half) for filter_terms in terms],
            axis=axis,
        )
        shift = self._shift_amount(
            source_frac + filters[0].fmt.fractional_bits, target.fractional_bits
        )
        return self._narrow(acc, shift, target)

    def _synthesis_pass(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        axis: int,
        source_frac: int,
        target: QFormat,
    ) -> np.ndarray:
        """One synthesis stage along ``axis``: both phases of the output
        from one circular extension of each band, narrowed together and
        interleaved."""
        half = lo.shape[axis]
        before, after, terms = _synthesis_plan(
            _filter_key(self._qht), _filter_key(self._qgt)
        )
        bands = [_extend(lo, axis, before, after), _extend(hi, axis, before, after)]
        phases = [_convolve(bands, phase_terms, axis, half) for phase_terms in terms]
        acc = np.stack(phases, axis=axis + 1).reshape(
            lo.shape[:axis] + (2 * half,) + lo.shape[axis + 1 :]
        )
        shift = self._shift_amount(
            source_frac + self.plan.coefficient_format.fractional_bits,
            target.fractional_bits,
        )
        return self._narrow(acc, shift, target)

    def _analysis_1d(
        self,
        data: np.ndarray,
        qfilt: QuantizedFilter,
        source_frac: int,
        target: QFormat,
    ) -> np.ndarray:
        """Decimated analysis convolution along the last axis, in integers."""
        data = np.asarray(data, dtype=np.int64)
        return self._analysis_pass(data, (qfilt,), data.ndim - 1, source_frac, target)

    def _synthesis_1d(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        source_frac: int,
        target: QFormat,
    ) -> np.ndarray:
        """One synthesis stage along the last axis, in integers."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        return self._synthesis_pass(lo, hi, lo.ndim - 1, source_frac, target)

    @staticmethod
    def _column_bands(
        data: np.ndarray, entry: ScaleDetails, rows: slice = slice(None)
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Low and high inputs of one scale's column synthesis: the halves
        ``[approx | GH]`` and ``[HG | GG]`` of the Mallat array (detail
        ``rows`` only)."""
        lo = np.concatenate((data, entry.gh[rows]), axis=1, dtype=np.int64)
        hi = np.concatenate((entry.hg[rows], entry.gg[rows]), axis=1, dtype=np.int64)
        return lo, hi

    def _column_synthesis(
        self, data: np.ndarray, entry: ScaleDetails, source: QFormat
    ) -> np.ndarray:
        """Undo one scale's column pass: ``[[approx, GH], [HG, GG]]`` →
        ``[row_lo | row_hi]``, still in the scale's own format."""
        lo, hi = self._column_bands(data, entry)
        return self._synthesis_pass(lo, hi, 0, source.fractional_bits, source)

    def _row_synthesis(
        self, rows: np.ndarray, source: QFormat, target: QFormat
    ) -> np.ndarray:
        """Undo one scale's row pass: ``[row_lo | row_hi]`` → ``target``."""
        half = rows.shape[1] // 2
        return self._synthesis_pass(
            rows[:, :half], rows[:, half:], 1, source.fractional_bits, target
        )

    # -- forward -------------------------------------------------------------------
    def forward(self, image: np.ndarray) -> FixedPointPyramid:
        """Fixed-point forward transform of an integer image.

        ``image`` must contain integers representable in the plan's input
        format (12-bit medical pixels in the paper).  The detail subbands
        are views of each scale's Mallat array.
        """
        image = np.asarray(image)
        if image.ndim != 2:
            raise ValueError("expected a 2-D image")
        for size in image.shape:
            if max_scales_for_length(size) < self.scales:
                raise ValueError(
                    f"image dimension {size} does not support {self.scales} scales"
                )
        if not np.issubdtype(image.dtype, np.integer):
            if not np.all(image == np.round(image)):
                raise ValueError("input image must contain integer pixel values")
        # asarray: no copy when the input is already int64 (the transform
        # never mutates its input in place).
        data = np.asarray(image, dtype=np.int64)
        FxArray(data, self.plan.input_format).check_range("raise")

        details: List[ScaleDetails] = []
        source_frac = self.plan.input_format.fractional_bits
        bank = (self._qh, self._qg)
        for scale in range(1, self.scales + 1):
            target = self.plan.format_for_scale(scale)
            # Rows give [lo | hi]; the columns of that give
            # [[HH, GH], [HG, GG]].
            rows = self._analysis_pass(data, bank, 1, source_frac, target)
            frac = target.fractional_bits
            mallat = self._analysis_pass(rows, bank, 0, frac, target)
            h, w = mallat.shape[0] // 2, mallat.shape[1] // 2
            details.append(
                ScaleDetails(
                    scale=scale, hg=mallat[h:, :w], gh=mallat[:h, w:], gg=mallat[h:, w:]
                )
            )
            data = mallat[:h, :w]
            source_frac = frac
        return FixedPointPyramid(plan=self.plan, approximation=data, details=details)

    # -- inverse -------------------------------------------------------------------
    def inverse(self, pyramid: FixedPointPyramid) -> np.ndarray:
        """Fixed-point inverse transform; returns integer pixels.

        The final synthesis stage aligns directly into the input format
        (integer pixels), which is where the lossless property is judged.
        """
        return self.inverse_preview(pyramid, 0)

    def inverse_preview(self, pyramid: FixedPointPyramid, at_scale: int) -> np.ndarray:
        """Partial inverse: stop the synthesis ladder at ``at_scale``.

        Runs the synthesis ladder for scales ``S .. at_scale+1`` only, so
        it needs only the approximation and the detail subbands *coarser*
        than ``at_scale`` — ``pyramid.details`` entries for finer scales
        may be ``None`` placeholders (the prefix-decode path never
        materialises them).  ``at_scale=0`` is :meth:`inverse`.

        For ``at_scale=k > 0`` the scale-``k`` approximation is narrowed
        from its data format to integer precision with the same §4.3
        rounding the ladder uses everywhere else, giving a
        ``(H/2^k, W/2^k)`` integer preview.  The preview carries the
        analysis filters' DC gain per descent (it *is* the transform's
        scale-``k`` average signal, whose dynamic range the Table II
        integer-bits schedule bounds); viewers normalise for display.
        """
        if pyramid.scales != self.scales:
            raise ValueError(
                f"pyramid has {pyramid.scales} scales, engine configured for {self.scales}"
            )
        if not 0 <= at_scale <= self.scales:
            raise ValueError(
                f"at_scale must be within [0, {self.scales}], got {at_scale}"
            )
        data = np.asarray(pyramid.approximation, dtype=np.int64)
        for scale in range(self.scales, at_scale, -1):
            source = self.plan.format_for_scale(scale)
            # Columns were filtered last in the forward pass, so they are
            # undone first; the rows then land in the coarser format.
            rows = self._column_synthesis(data, pyramid.details[scale - 1], source)
            target = self.plan.format_for_scale(scale - 1)
            data = self._row_synthesis(rows, source, target)
        if at_scale == 0:
            return data
        fmt = self.plan.format_for_scale(at_scale)
        shift = self._shift_amount(
            fmt.fractional_bits, self.plan.input_format.fractional_bits
        )
        # The stored value's magnitude is bounded by the scale's integer
        # part, so the narrowed integers fit b_int(k) bits exactly.
        target = QFormat(word_length=fmt.integer_bits, integer_bits=fmt.integer_bits)
        if at_scale == self.scales:
            # No synthesis ran: ``data`` is the caller's approximation.
            data = data.copy()
        return self._narrow(data, shift, target)

    # -- row-band ROI ----------------------------------------------------------------
    def _roi_windows(
        self, y0: int, y1: int, height: int
    ) -> List[Optional[Tuple[int, int]]]:
        """Per-scale row windows feeding output rows ``[y0, y1)``.

        ``windows[s]`` is the half-open row range needed at scale ``s``
        (``windows[0]`` is the request itself).  The contraction inverts
        the synthesis scatter ``out = 2*in + tap_index``; when a window
        would clamp at an array edge the wraparound (circular-extension)
        contributions come into play, so the window degrades to ``None`` —
        "use every row" — there and at every coarser scale.
        """
        taps = [idx for idx, _ in self._qht.items()] + [
            idx for idx, _ in self._qgt.items()
        ]
        min_idx, max_idx = min(taps), max(taps)
        windows: List[Optional[Tuple[int, int]]] = [(y0, y1)]
        rows = height
        for _ in range(1, self.scales + 1):
            rows //= 2
            previous = windows[-1]
            if previous is None:
                windows.append(None)
                continue
            a, b = previous
            lo = (a - max_idx + 1) // 2  # ceil((a - max_idx) / 2)
            hi = (b - 1 - min_idx) // 2 + 1
            windows.append((lo, hi) if 0 <= lo and hi <= rows else None)
        return windows

    def _synthesis_window(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        source: QFormat,
        in_start: int,
        out_window: Tuple[int, int],
    ) -> np.ndarray:
        """One column synthesis stage producing only output rows
        ``[out_window)`` from input rows whose global start index is
        ``in_start`` (``lo``/``hi`` already sliced to their window).

        Positions are global and unwrapped: the window ladder falls back
        to the full column synthesis whenever a window clamps, and
        wraparound contributions exist *only* in that clamped case, so the
        masked scatter here is exact for every window that reaches it.
        """
        half = lo.shape[0]
        o0, o1 = out_window
        acc = np.zeros((o1 - o0,) + lo.shape[1:], dtype=np.int64)
        positions = 2 * (in_start + np.arange(half))
        for band, qfilt in ((lo, self._qht), (hi, self._qgt)):
            for idx, stored in qfilt.items():
                local = positions + idx - o0
                mask = (local >= 0) & (local < o1 - o0)
                if mask.any():
                    np.add.at(acc, local[mask], np.int64(stored) * band[mask])
        shift = self._shift_amount(
            source.fractional_bits + self.plan.coefficient_format.fractional_bits,
            source.fractional_bits,
        )
        return self._narrow(acc, shift, source)

    def inverse_roi(
        self, pyramid: FixedPointPyramid, y0: int, y1: int
    ) -> np.ndarray:
        """Inverse transform of just the output row band ``[y0, y1)``.

        Synthesises only the rows that contribute to the requested band —
        the vertical (column) synthesis runs windowed per scale, the
        horizontal one only over the surviving rows — and returns a
        ``(y1 - y0, W)`` integer image **bit-exact** to
        ``inverse(pyramid)[y0:y1]``.  Every subband is still needed (a
        row band draws on all scales), so the saving is synthesis compute
        and intermediate memory, not entropy-decode work.
        """
        if pyramid.scales != self.scales:
            raise ValueError(
                f"pyramid has {pyramid.scales} scales, engine configured for {self.scales}"
            )
        height = pyramid.approximation.shape[0] << self.scales
        if not 0 <= y0 < y1 <= height:
            raise ValueError(
                f"row band [{y0}, {y1}) must be non-empty and within [0, {height})"
            )
        windows = self._roi_windows(y0, y1, height)
        top = windows[self.scales]
        data = np.asarray(pyramid.approximation, dtype=np.int64)
        if top is not None:
            data = data[top[0] : top[1]]
        for scale in range(self.scales, 0, -1):
            source = self.plan.format_for_scale(scale)
            entry = pyramid.details[scale - 1]
            in_win, out_win = windows[scale], windows[scale - 1]
            if in_win is None:
                # Clamped somewhere at or above this scale: full vertical
                # synthesis (wraparound comes from the circular extension),
                # then keep only the rows the next stage needs.
                rows = self._column_synthesis(data, entry, source)
                if out_win is not None:
                    rows = rows[out_win[0] : out_win[1]]
            else:
                lo, hi = self._column_bands(data, entry, slice(*in_win))
                rows = self._synthesis_window(lo, hi, source, in_win[0], out_win)
            target = self.plan.format_for_scale(scale - 1)
            data = self._row_synthesis(rows, source, target)
        return data

    # -- convenience -----------------------------------------------------------------
    def roundtrip(self, image: np.ndarray) -> Tuple[np.ndarray, FixedPointPyramid]:
        """Forward + inverse transform; returns ``(reconstructed, pyramid)``."""
        pyramid = self.forward(image)
        return self.inverse(pyramid), pyramid


#: Engine cache for :func:`reconstruct_preview` — quantising the synthesis
#: filters and deriving shift schedules is pure per-(bank, depth) setup, so
#: one engine per configuration is reused across calls (the same plan-reuse
#: the codecs get by holding their own engine).
_PREVIEW_ENGINES: Dict[Tuple[str, int, str], FixedPointDWT] = {}


def reconstruct_preview(
    pyramid: FixedPointPyramid,
    bank: BiorthogonalBank,
    at_scale: int,
    rounding: str = "half_up",
) -> np.ndarray:
    """Early-stopped inverse of a fixed-point pyramid (module-level helper).

    Reconstructs the scale-``at_scale`` approximation from only the
    subbands coarser than ``at_scale`` by stopping the synthesis ladder
    early (:meth:`FixedPointDWT.inverse_preview`), reusing one cached
    engine — quantised synthesis filters, word-length plan, shift
    schedule — per ``(bank, scales, rounding)`` configuration.
    """
    key = (bank.name, pyramid.scales, rounding)
    engine = _PREVIEW_ENGINES.get(key)
    if engine is None:
        engine = FixedPointDWT(
            bank, pyramid.scales, plan=pyramid.plan, rounding=rounding
        )
        _PREVIEW_ENGINES[key] = engine
    return engine.inverse_preview(pyramid, at_scale)

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

Each pass is one multiply-accumulate kernel, as the Fig. 3 datapath
streams it: every sample of a line is read once and feeds both the
low-pass and the high-pass MAC, whose taps come from one coefficient
memory.  The line is extended circularly through one cached wrap index,
cut into stride-2 windows, and multiplied by a small read-only ``(2, W)``
``int64`` matrix holding both filters' stored taps: one ``np.matmul`` per
pass.  A row pass writes ``[lo | hi]``; the column pass over it writes
``[[HH, GH], [HG, GG]]``.  Synthesis runs on the polyphase-interleaved
bands (approximation and details alternating along both axes), and each
window yields both output phases: the column synthesis writes the row
synthesis's interleaved input, and the row synthesis writes the image.
``int64`` matmul is arithmetic modulo ``2**64``, like the §3 64-bit
accumulator, and reordering or zero taps cannot change a sum modulo
``2**64``, so every output word equals the tap-by-tap multiply-accumulate.
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


# -- the pass kernel ----------------------------------------------------------------
_FilterKey = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _filter_key(qfilt: QuantizedFilter) -> _FilterKey:
    # Read per call, not cached on the engine: fault-injection tests
    # rewrite stored taps after construction.
    return qfilt.indices, qfilt.stored_taps


def _read_only(array: np.ndarray) -> np.ndarray:
    # Cached and shared by every engine and thread.
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def _analysis_matrix(filters: Tuple[_FilterKey, ...]) -> Tuple[int, np.ndarray]:
    """``(first, C)`` of one analysis pass, one row of ``C`` per filter.

    Output ``i`` of filter ``f`` is ``sum_w C[f, w] * x[(2*i + first + w) % n]``:
    tap ``idx`` sits in column ``idx - first``, ``first`` being the lowest
    tap index of the pass.
    """
    taps = [idx for indices, _ in filters for idx in indices]
    first = min(taps)
    matrix = np.zeros((len(filters), max(taps) - first + 1), dtype=np.int64)
    for row, (indices, stored) in enumerate(filters):
        matrix[row, np.subtract(indices, first)] = stored
    return first, _read_only(matrix)


@lru_cache(maxsize=64)
def _synthesis_matrix(
    lowpass: _FilterKey, highpass: _FilterKey
) -> Tuple[int, np.ndarray]:
    """``(m_max, D)`` of one synthesis pass over the interleaved bands
    ``z[2*a] = lo[a]``, ``z[2*a + 1] = hi[a]``.

    Output ``2*j + p`` is ``sum_w D[p, w] * z[(2*(j - m_max) + w) % n]``:
    tap ``idx = 2*m + p`` of band ``s`` adds ``band_s[j - m] = z[2*(j - m) + s]``
    to output ``2*j + p``, so it sits in row ``p``, column ``2*(m_max - m) + s``.
    """
    ms = [idx // 2 for indices, _ in (lowpass, highpass) for idx in indices]
    m_max = max(ms)
    matrix = np.zeros((2, 2 * (m_max - min(ms) + 1)), dtype=np.int64)
    for source, (indices, stored) in enumerate((lowpass, highpass)):
        for idx, c in zip(indices, stored):
            matrix[idx % 2, 2 * (m_max - idx // 2) + source] = c
    return m_max, _read_only(matrix)


@lru_cache(maxsize=256)
def _wrap(n: int, start: int, length: int) -> np.ndarray:
    """Circular extension index: element ``k`` reads sample ``(start + k) % n``
    (pads longer than the signal, as for long banks at the deep scales of
    small images, wrap more than once)."""
    return _read_only(np.arange(start, start + length) % n)


def _mac(
    data: np.ndarray,
    axis: int,
    start: int,
    count: int,
    matrix: np.ndarray,
    interleave: bool,
) -> np.ndarray:
    """One pass's multiply-accumulate along ``axis`` (0 or 1) of 2-D ``data``.

    Window ``k < count`` holds samples ``(start + 2*k + w) % n``, ``w < W``,
    of the circular extension, and output ``(k, f)`` is
    ``sum_w matrix[f, w] * window[k, w]``: one ``int64`` matmul against the
    ``(K, W)`` tap matrix.  Along ``axis`` the outputs lie filter-major
    (``[lo | hi]``) or, with ``interleave``, window-major (``lo0, hi0, ...``).
    """
    k, width = matrix.shape
    index = _wrap(data.shape[axis], start, 2 * count - 2 + width)
    ext = np.take(data, index, axis=axis)
    # ``sliding_window_view(ext, width, axis)[::2]``, built straight on the
    # fresh extension's buffer without that function's per-call checks.
    s0, s1 = ext.strides
    if axis == 0:
        cols = ext.shape[1]
        windows = np.ndarray((count, width, cols), ext.dtype, ext, 0, (2 * s0, s0, s1))
        acc = np.empty((k * count, cols), dtype=np.int64)
        if interleave:
            out = acc.reshape(count, k, cols)
        else:
            out = acc.reshape(k, count, cols).transpose(1, 0, 2)
        np.matmul(matrix, windows, out=out)
    else:
        rows = ext.shape[0]
        windows = np.ndarray((rows, count, width), ext.dtype, ext, 0, (s0, 2 * s1, s1))
        acc = np.empty((rows, k * count), dtype=np.int64)
        if interleave:
            out = acc.reshape(rows, count, k)
        else:
            out = acc.reshape(rows, k, count).transpose(0, 2, 1)
        np.matmul(windows, matrix.T, out=out)
    return acc


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
        """Decimated analysis along ``axis`` (0 or 1) through each of ``filters``.

        One circular extension and one tap matrix serve every filter; the
        outputs lie side by side along ``axis`` (``[lo | hi]``) and are
        narrowed together (the filters share one coefficient format, hence
        one alignment shift).
        """
        n = data.shape[axis]
        if n % 2 != 0:
            raise ValueError(f"signal length {n} must be even")
        first, matrix = _analysis_matrix(tuple(_filter_key(q) for q in filters))
        acc = _mac(data, axis, first, n // 2, matrix, interleave=False)
        shift = self._shift_amount(
            source_frac + filters[0].fmt.fractional_bits, target.fractional_bits
        )
        return self._narrow(acc, shift, target)

    def _synthesis_pass(
        self,
        z: np.ndarray,
        axis: int,
        source_frac: int,
        target: QFormat,
        window: Optional[Tuple[int, int, int]] = None,
    ) -> np.ndarray:
        """One synthesis stage along ``axis`` (0 or 1) of the interleaved
        bands ``z`` (``lo0, hi0, lo1, hi1, ...``): both phases of every
        output from one tap matrix, narrowed together.

        ``window = (z_start, o0, o1)`` makes only outputs ``[o0, o1)`` along
        axis 0 from a ``z`` that starts at global sample ``z_start``: either
        all of it (``z_start = 0``), or a slice holding every band sample
        those outputs draw on, so samples the extension wraps in meet only
        zero taps of the outputs kept.
        """
        m_max, matrix = _synthesis_matrix(
            _filter_key(self._qht), _filter_key(self._qgt)
        )
        if window is None:
            acc = _mac(z, axis, -2 * m_max, z.shape[axis] // 2, matrix, interleave=True)
        else:
            z_start, o0, o1 = window
            j0 = o0 // 2
            start = 2 * (j0 - m_max) - z_start
            acc = _mac(z, 0, start, (o1 + 1) // 2 - j0, matrix, interleave=True)
            acc = acc[o0 - 2 * j0 : o1 - 2 * j0]
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
        lines = data.reshape(-1, data.shape[-1])
        out = self._analysis_pass(lines, (qfilt,), 1, source_frac, target)
        return out.reshape(data.shape[:-1] + (-1,))

    def _synthesis_1d(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        source_frac: int,
        target: QFormat,
    ) -> np.ndarray:
        """One synthesis stage along the last axis, in integers."""
        z = np.stack((lo, hi), axis=-1, dtype=np.int64)
        lines = z.reshape(-1, 2 * z.shape[-2])
        out = self._synthesis_pass(lines, 1, source_frac, target)
        return out.reshape(z.shape[:-2] + (-1,))

    @staticmethod
    def _interleave(
        data: np.ndarray, entry: ScaleDetails, rows: slice = slice(None)
    ) -> np.ndarray:
        """The polyphase-interleaved input of one scale's synthesis (detail
        ``rows`` only): ``z[2a, 2b]`` is the approximation, ``z[2a, 2b+1]``
        GH, ``z[2a+1, 2b]`` HG and ``z[2a+1, 2b+1]`` GG."""
        h, w = data.shape
        z = np.empty((h, 2, w, 2), dtype=np.int64)
        z[:, 0, :, 0] = data
        z[:, 0, :, 1] = entry.gh[rows]
        z[:, 1, :, 0] = entry.hg[rows]
        z[:, 1, :, 1] = entry.gg[rows]
        return z.reshape(2 * h, 2 * w)

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
            # undone first, into the rows' interleaved input; the rows then
            # land in the coarser format.
            frac = source.fractional_bits
            z = self._interleave(data, pyramid.details[scale - 1])
            rows = self._synthesis_pass(z, 0, frac, source)
            target = self.plan.format_for_scale(scale - 1)
            data = self._synthesis_pass(rows, 1, frac, target)
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
            frac = source.fractional_bits
            in_win, out_win = windows[scale], windows[scale - 1]
            # A window holds every input row its outputs draw on, unwrapped;
            # clamped (None), all rows go in and the circular extension
            # brings the wraparound.  Only the rows the next stage needs
            # come out.
            if in_win is None:
                first, rows = 0, slice(None)
            else:
                first, rows = in_win[0], slice(*in_win)
            z = self._interleave(data, pyramid.details[scale - 1], rows)
            window = None if out_win is None else (2 * first, *out_win)
            rows = self._synthesis_pass(z, 0, frac, source, window)
            target = self.plan.format_for_scale(scale - 1)
            data = self._synthesis_pass(rows, 1, frac, target)
        return data

    # -- convenience -----------------------------------------------------------------
    def roundtrip(self, image: np.ndarray) -> Tuple[np.ndarray, FixedPointPyramid]:
        """Forward + inverse transform; returns ``(reconstructed, pyramid)``."""
        pyramid = self.forward(image)
        return self.inverse(pyramid), pyramid


#: Engine cache for :func:`reconstruct_preview` — quantising the synthesis
#: filters and deriving shift schedules is pure per-(bank, depth) setup, so
#: one engine per configuration is reused across calls (the same plan-reuse
#: the codecs get by holding their own engine).  An entry holds the bank and
#: plan it last served and is rebuilt for another bank object or plan.
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
    schedule — per ``(bank, scales, rounding)`` configuration, built on
    this bank and the pyramid's own plan.
    """
    key = (bank.name, pyramid.scales, rounding)
    engine = _PREVIEW_ENGINES.get(key)
    if engine is None or engine.bank is not bank or engine.plan != pyramid.plan:
        engine = FixedPointDWT(
            bank, pyramid.scales, plan=pyramid.plan, rounding=rounding
        )
        _PREVIEW_ENGINES[key] = engine
    return engine.inverse_preview(pyramid, at_scale)

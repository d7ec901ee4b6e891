"""Fixed-point arrays: stored-integer arrays tagged with a :class:`QFormat`.

:class:`FxArray` couples a NumPy ``int64`` array of *stored* integers with
the :class:`~repro.fixedpoint.qformat.QFormat` describing where the binary
point sits.  It provides exactly the operations the datapath of the paper
needs:

* quantisation of real images / filter coefficients into a format,
* exact multiply into a wider product format (the 32x32 -> 64-bit multiplier),
* accumulation (modulo 2**64, like a hardware accumulator),
* re-alignment into a different format with the §4.3 rounding rule,
* overflow checking against a format's representable range.

It intentionally supports only the small operation set used by the paper's
architecture rather than being a general fixed-point algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import OverflowPolicyError
from .qformat import QFormat
from .rounding import round_half_up_shift, truncate_shift, wrap_twos_complement

__all__ = ["FxArray", "quantize_real", "product_format", "align_stored"]


def quantize_real(values: np.ndarray, fmt: QFormat, policy: str = "raise") -> "FxArray":
    """Quantise real ``values`` into ``fmt`` (round to nearest, ties up).

    ``policy`` selects the overflow behaviour: ``"raise"`` (default) raises
    :class:`OverflowPolicyError` if any value does not fit, ``"saturate"``
    clips to the representable range, ``"wrap"`` wraps modulo the word
    length (hardware register behaviour).
    """
    values = np.asarray(values, dtype=float)
    stored = np.floor(values * fmt.scale + 0.5).astype(np.int64)
    return FxArray(stored, fmt).check_range(policy)


def product_format(a: QFormat, b: QFormat, word_length: int = 64) -> QFormat:
    """Format of the exact product of values in formats ``a`` and ``b``.

    The product of a ``Qa.i/f`` and ``Qb.i/f`` value has
    ``a.fractional_bits + b.fractional_bits`` fractional bits; the paper's
    accumulator holds it in 64 bits.
    """
    frac = a.fractional_bits + b.fractional_bits
    if frac >= word_length:
        raise ValueError(
            f"product needs {frac} fractional bits, exceeding the {word_length}-bit word"
        )
    return QFormat(word_length, word_length - frac)


def align_stored(stored: Union[int, np.ndarray], source: QFormat, target: QFormat,
                 rounding: str = "half_up") -> Union[int, np.ndarray]:
    """Re-align stored integers from ``source`` format to ``target`` format.

    Only narrowing of the fractional part (the §4.3 alignment direction) is
    supported: ``source.fractional_bits >= target.fractional_bits``.
    ``rounding`` is ``"half_up"`` (the paper's rule) or ``"truncate"``.
    """
    shift = source.fractional_bits - target.fractional_bits
    if shift < 0:
        raise ValueError(
            "alignment only narrows the fraction; "
            f"source has {source.fractional_bits} fractional bits, "
            f"target {target.fractional_bits}"
        )
    if rounding == "half_up":
        return round_half_up_shift(stored, shift)
    if rounding == "truncate":
        return truncate_shift(stored, shift)
    raise ValueError(f"unknown rounding mode {rounding!r}")


@dataclass
class FxArray:
    """A NumPy array of stored integers with an attached :class:`QFormat`."""

    stored: np.ndarray
    fmt: QFormat

    def __post_init__(self) -> None:
        self.stored = np.asarray(self.stored, dtype=np.int64)

    # -- basic protocol ---------------------------------------------------------
    @property
    def shape(self):
        return self.stored.shape

    @property
    def size(self) -> int:
        return int(self.stored.size)

    def __len__(self) -> int:
        return len(self.stored)

    def copy(self) -> "FxArray":
        return FxArray(self.stored.copy(), self.fmt)

    # -- conversions -------------------------------------------------------------
    def to_real(self) -> np.ndarray:
        """The represented real values as ``float64``."""
        return self.stored.astype(float) / float(self.fmt.scale)

    @classmethod
    def from_real(cls, values: np.ndarray, fmt: QFormat, policy: str = "raise") -> "FxArray":
        """Alias of :func:`quantize_real` as a constructor."""
        return quantize_real(values, fmt, policy)

    # -- range handling -----------------------------------------------------------
    def fits(self) -> bool:
        """True if every stored value is inside the format's range."""
        stored = self.stored
        return not stored.size or bool(
            self.fmt.min_int <= stored.min() and stored.max() <= self.fmt.max_int
        )

    def check_range(self, policy: str = "raise") -> "FxArray":
        """Apply an overflow policy; returns ``self`` (possibly modified)."""
        if policy == "raise":
            if not self.fits():
                worst = int(np.abs(self.stored).max())
                raise OverflowPolicyError(
                    f"stored value magnitude {worst} exceeds {self.fmt} range "
                    f"[{self.fmt.min_int}, {self.fmt.max_int}]"
                )
            return self
        if policy == "saturate":
            np.clip(self.stored, self.fmt.min_int, self.fmt.max_int, out=self.stored)
            return self
        if policy == "wrap":
            self.stored = np.asarray(
                wrap_twos_complement(self.stored, self.fmt.word_length), dtype=np.int64
            )
            return self
        raise ValueError(f"unknown overflow policy {policy!r}")

    # -- arithmetic ---------------------------------------------------------------
    def realign(self, target: QFormat, rounding: str = "half_up",
                policy: str = "raise") -> "FxArray":
        """Move this array into ``target`` format (§4.3 alignment + rounding)."""
        stored = align_stored(self.stored, self.fmt, target, rounding)
        return FxArray(np.asarray(stored, dtype=np.int64), target).check_range(policy)

    def quantization_error(self, reference: np.ndarray) -> float:
        """Largest absolute difference between represented and reference values."""
        return float(np.max(np.abs(self.to_real() - np.asarray(reference, dtype=float))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FxArray(shape={self.stored.shape}, fmt={self.fmt})"

"""Rounding and truncation rules of the datapath (§4.3 of the paper).

After the 64-bit accumulation and the scale-dependent alignment, the result
is narrowed back to the 32-bit datapath word.  The paper's rule is:

    "If the MSB of the truncated bits is 0, truncation is performed; if the
    MSB is 1, then round-up by one is performed."

For a two's-complement value this is *round-half-up* (towards +infinity on
ties), applied to the bits that fall off the right of the word.  The
functions here implement that rule for Python integers and NumPy integer
arrays, together with plain truncation (round toward minus infinity, i.e.
an arithmetic shift) for comparison experiments.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = [
    "round_half_up_shift",
    "truncate_shift",
    "round_half_up_to_int",
    "wrap_twos_complement",
]

IntOrArray = Union[int, np.ndarray]

_INT64_MAX = np.iinfo(np.int64).max


def round_half_up_shift(
    value: IntOrArray, shift: int, out: Optional[np.ndarray] = None
) -> IntOrArray:
    """Drop ``shift`` low-order bits with the paper's §4.3 rounding rule.

    Equivalent to ``floor(value / 2**shift + 0.5)`` computed exactly on
    integers: add half of the dropped weight, then arithmetic-shift right.
    Works on Python ints (arbitrary precision) and NumPy integer arrays.
    An array's result is an ``int64`` array, written to ``out`` when given
    (which may be ``value`` itself): ``(v + half) >> shift`` in place when
    no value is within ``half`` of the top of ``int64``, the decomposed
    form with one scratch array for the rounding carry otherwise.
    """
    if shift < 0:
        raise ValueError("shift must be non-negative")
    if not isinstance(value, np.ndarray):
        if shift == 0:
            return value
        return (int(value) + (1 << (shift - 1))) >> shift
    if out is None:
        out = np.empty(value.shape, dtype=np.int64)
    if shift == 0:
        np.copyto(out, value)
        return out
    if shift > 62:
        # Mask arithmetic below needs 2**shift to fit in int64; this
        # range is exact (and rare enough to take the slow path).
        flat = [round_half_up_shift(int(v), shift) for v in value.ravel().tolist()]
        np.copyto(out, np.array(flat, dtype=np.int64).reshape(value.shape))
        return out
    s = np.int64(shift)
    half = np.int64(1) << np.int64(shift - 1)
    if not value.size or value.max() <= _INT64_MAX - half:
        # No value is within ``half`` of the top: v + half cannot wrap.
        np.add(value, half, out=out)
        out >>= s
        return out
    # Decomposed so the addition cannot wrap at the int64 boundary
    # (v + half can; (v mod 2**shift) + half is < 2**shift + 2**(shift-1)):
    # floor((v + h) / 2**s) == (v >> s) + (((v mod 2**s) + h) >> s).
    carry = np.bitwise_and(value, (np.int64(1) << s) - np.int64(1))
    carry += half
    carry >>= s
    np.right_shift(value, s, out=out)
    out += carry
    return out


def truncate_shift(
    value: IntOrArray, shift: int, out: Optional[np.ndarray] = None
) -> IntOrArray:
    """Drop ``shift`` low-order bits by truncation (arithmetic shift right).

    For an array, ``out`` (which may be ``value`` itself) takes the result.
    """
    if shift < 0:
        raise ValueError("shift must be non-negative")
    if shift == 0 and out is None:
        return value
    if isinstance(value, np.ndarray):
        return np.right_shift(value, np.int64(shift), out=out)
    return int(value) >> shift


def round_half_up_to_int(value: Union[float, np.ndarray]) -> IntOrArray:
    """Round a real value to the nearest integer, ties towards +infinity.

    This is the rounding applied to the final reconstructed pixels before
    they are compared with the original image for the lossless check.
    """
    if isinstance(value, np.ndarray):
        return np.floor(value + 0.5).astype(np.int64)
    import math

    return int(math.floor(value + 0.5))


def wrap_twos_complement(value: IntOrArray, word_length: int) -> IntOrArray:
    """Wrap a value into ``word_length``-bit two's-complement range.

    Models the modular behaviour of a hardware register: bits above the word
    length are discarded and the result is re-interpreted as a signed value.
    """
    if word_length < 1:
        raise ValueError("word_length must be at least 1")
    if isinstance(value, np.ndarray):
        if word_length >= 64:
            # int64 storage already is 64-bit two's complement, and any
            # int64 value fits a wider word unchanged.
            return value
        # Bitwise form: the Python-int modulus 2**word_length does not fit
        # int64 at word_length 63, but the mask and half-range do.
        mask = np.int64((1 << word_length) - 1)
        half_np = np.int64(1 << (word_length - 1))
        wrapped = value & mask
        return np.where(wrapped >= half_np, wrapped - half_np - half_np, wrapped)
    modulus = 1 << word_length
    half = 1 << (word_length - 1)
    wrapped = int(value) % modulus
    return wrapped - modulus if wrapped >= half else wrapped

"""Coefficient mapping: signed wavelet coefficients <-> non-negative symbols.

Entropy coders work on non-negative integers; wavelet detail coefficients
are signed and concentrated around zero.  The standard *zig-zag* (folding)
map interleaves positive and negative values

    0, -1, +1, -2, +2, ...  ->  0, 1, 2, 3, 4, ...

preserving the magnitude ordering so that small-magnitude coefficients get
small symbols.  The module also defines the canonical subband scan order
(coarse to fine, as produced by :meth:`WaveletPyramid.iter_subbands`) used by
the codec to serialise a pyramid into a single symbol stream.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from ..dwt.subbands import WaveletPyramid
from ..fxdwt.transform import FixedPointPyramid

__all__ = [
    "zigzag_encode",
    "zigzag_decode",
    "zigzag_decode_inplace",
    "pyramid_scan",
    "flatten_pyramid",
]


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to non-negative integers (0, -1, 1, -2, ... order).

    Branch-free folding: ``(v << 1) ^ (v >> 63)`` — the arithmetic shift
    produces an all-ones mask for negatives, so the xor turns ``2v`` into
    ``-2v - 1`` without a select.
    """
    values = np.asarray(values, dtype=np.int64)
    return (values << 1) ^ (values >> 63)


def zigzag_decode(symbols: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode` (branch-free unfolding)."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size and symbols.min() < 0:
        raise ValueError("zig-zag symbols must be non-negative")
    return (symbols >> 1) ^ -(symbols & 1)


#: Symbols unfolded per step by :func:`zigzag_decode_inplace`: its sign
#: scratch (64 KiB of ``int32``) stays in cache and under the allocator's
#: mmap threshold.
_UNFOLD_CHUNK = 1 << 14


def zigzag_decode_inplace(symbols: np.ndarray) -> np.ndarray:
    """:func:`zigzag_decode` written over ``symbols``, in their own word.

    ``symbols`` must be a C-contiguous signed integer array of
    non-negative symbols (a Rice decoder's output; not checked here).
    ``|value| <= (symbol + 1) / 2``, so the word that holds the symbols
    holds the values.  The sign mask is built one chunk at a time in a
    small scratch buffer, so no temporary the size of the array is made.
    Returns ``symbols``.
    """
    if symbols.dtype.kind != "i" or not symbols.flags.c_contiguous:
        raise ValueError("in-place zig-zag needs a contiguous signed array")
    flat = symbols.reshape(-1)
    sign = np.empty(min(flat.size, _UNFOLD_CHUNK), dtype=flat.dtype)
    for start in range(0, flat.size, _UNFOLD_CHUNK):
        part = flat[start : start + _UNFOLD_CHUNK]
        mask = sign[: part.size]
        np.bitwise_and(part, 1, out=mask)
        np.negative(mask, out=mask)
        part >>= 1
        part ^= mask
    return symbols


def pyramid_scan(pyramid) -> Iterator[Tuple[str, int, np.ndarray]]:
    """Yield ``(kind, scale, 2-D band)`` for each subband, coarse first.

    Accepts either a float :class:`WaveletPyramid` or an integer
    :class:`FixedPointPyramid`; the coefficients are returned exactly as
    stored (the codec operates on stored integers so that the round trip is
    lossless by construction).
    """
    if isinstance(pyramid, FixedPointPyramid):
        yield "HH", pyramid.scales, np.asarray(pyramid.approximation)
        for entry in reversed(pyramid.details):
            for kind, band in entry.as_dict().items():
                yield kind, entry.scale, np.asarray(band)
        return
    if isinstance(pyramid, WaveletPyramid):
        for kind, scale, band in pyramid.iter_subbands():
            yield kind, scale, np.asarray(band)
        return
    raise TypeError(f"unsupported pyramid type {type(pyramid).__name__}")


def flatten_pyramid(pyramid) -> Tuple[List[Tuple[str, int, Tuple[int, int]]], np.ndarray]:
    """Serialise a pyramid into ``(subband descriptors, concatenated samples)``.

    The descriptor list records the kind, scale and shape of every subband in
    scan order, which is all the decoder needs to rebuild the pyramid
    structure from the flat coefficient stream.
    """
    descriptors: List[Tuple[str, int, Tuple[int, int]]] = []
    chunks: List[np.ndarray] = []
    for kind, scale, band in pyramid_scan(pyramid):
        descriptors.append((kind, scale, (int(band.shape[0]), int(band.shape[1]))))
        chunks.append(np.asarray(band, dtype=np.int64).ravel())
    samples = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return descriptors, samples

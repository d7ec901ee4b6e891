"""Vectorised bit-level coding engine.

The scalar :class:`~repro.coding.bitstream.BitWriter` / ``BitReader`` pair
moves one bit per Python call, which makes them the wall-clock floor of the
whole codec.  This module provides array-native replacements that operate on
whole symbol blocks at once and are **wire-compatible** with the scalar pair:
a stream produced here decodes byte-for-byte with :class:`BitReader` and vice
versa.

Representation
--------------
A stream under construction is a ``uint8`` array holding one bit per element
(0 or 1, MSB-first order).  Values are expanded into that array with uint64
shift/or arithmetic (``pack_uint_fields``), and the finished stream is flushed
to bytes in one :func:`numpy.packbits` call — which also zero-pads the final
byte exactly like ``BitWriter.getvalue``.

Sequential decoding without Python loops
----------------------------------------
Legacy interleaved Rice blocks have a sequential dependency: the start of
symbol ``i + 1`` depends on the length of symbol ``i``.  Their decoder breaks
that dependency with :func:`orbit`, which follows a precomputed "successor"
array through pointer doubling — ``O(n log n)`` array gathers instead of
``O(total bits)`` Python iterations.  (Planar Rice blocks, which every codec
writes, keep quotient boundaries in a plane of their own and need no walk.)
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_bits",
    "unpack_bits",
    "ragged_arange",
    "pack_uint_fields",
    "read_uint",
    "read_uints",
    "orbit",
]


def pack_bits(bits: np.ndarray) -> bytes:
    """Flush a 0/1 bit array (MSB-first) to bytes, zero-padding the last byte.

    Identical framing to ``BitWriter.getvalue`` for the same bit sequence.
    """
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(data: bytes) -> np.ndarray:
    """Expand a byte string to a 0/1 ``uint8`` array (MSB-first per byte)."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for every count: [0..c0), [0..c1), ...

    The building block for expanding per-symbol code lengths into per-bit
    positions without a Python loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def pack_uint_fields(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Expand unsigned integers into an MSB-first 0/1 bit array.

    ``values[i]`` is written as a ``widths[i]``-bit big-endian field; fields
    are concatenated in order.  ``widths`` may be a scalar (uniform fields) or
    an array of per-field widths.  The result is a ``uint8`` bit array ready
    for :func:`pack_bits` (or concatenation with other field groups).
    """
    values = np.asarray(values, dtype=np.int64).ravel()
    widths = np.broadcast_to(np.asarray(widths, dtype=np.int64), values.shape)
    if values.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if int(widths.min()) < 0:
        raise ValueError("field widths must be non-negative")
    if int(values.min()) < 0:
        raise ValueError("pack_uint_fields encodes non-negative integers")
    narrow = widths < 63
    if np.any(values[narrow] >= (np.int64(1) << widths[narrow])):
        bad = np.flatnonzero(narrow & (values >= (np.int64(1) << np.minimum(widths, 62))))[0]
        raise ValueError(f"value {values[bad]} does not fit in {widths[bad]} bits")
    field = np.repeat(np.arange(values.size, dtype=np.int64), widths)
    shift = widths[field] - 1 - ragged_arange(widths)
    return (
        (values[field].astype(np.uint64) >> shift.astype(np.uint64)) & np.uint64(1)
    ).astype(np.uint8)


def read_uint(bits: np.ndarray, offset: int, width: int) -> int:
    """Read one ``width``-bit big-endian unsigned integer at bit ``offset``."""
    if width < 0:
        raise ValueError("width must be non-negative")
    if offset + width > bits.size:
        raise EOFError("bitstream exhausted")
    value = 0
    for bit in bits[offset : offset + width]:
        value = (value << 1) | int(bit)
    return value


def read_uints(bits: np.ndarray, offset: int, count: int, width: int) -> np.ndarray:
    """Read ``count`` consecutive ``width``-bit fields starting at ``offset``."""
    if count < 0 or width < 0:
        raise ValueError("count and width must be non-negative")
    if count == 0 or width == 0:
        return np.zeros(count, dtype=np.int64)
    end = offset + count * width
    if end > bits.size:
        raise EOFError("bitstream exhausted")
    block = bits[offset:end].reshape(count, width).astype(np.int64)
    weights = np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64)
    return block @ weights


#: Block size of the :func:`orbit` jump table (must be a power of two).
_ORBIT_BLOCK = 32


def orbit(successor: np.ndarray, start: int, count: int) -> np.ndarray:
    """First ``count`` iterates of ``t[0] = start, t[i+1] = successor[t[i]]``.

    ``successor`` must map ``[0, n)`` into ``[0, n)``.  The sequential chain
    is cut with a blocked jump table: ``successor`` is composed with itself
    ``log2(B)`` times to get the ``B``-fold jump, a short scalar walk places
    one anchor every ``B`` elements, and the gaps between anchors are filled
    with ``B`` vectorised gathers — ``O(n log B + count)`` array work instead
    of ``count`` Python iterations.
    """
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    successor = np.asarray(successor)
    if count <= 4 * _ORBIT_BLOCK:
        out = np.empty(count, dtype=np.int64)
        position = start
        for i in range(count):
            out[i] = position
            position = int(successor[position])
        return out
    # ``take(mode="clip")`` skips numpy's per-element bounds check (and the
    # int32 -> intp index conversion of fancy indexing); the contract above
    # guarantees every index is in range, so "clip" never alters a value.
    block_jump = successor
    for _ in range(_ORBIT_BLOCK.bit_length() - 1):
        block_jump = block_jump.take(block_jump, mode="clip")
    anchor_count = -(-count // _ORBIT_BLOCK)
    anchors = np.empty(anchor_count, dtype=np.int64)
    position = start
    for i in range(anchor_count):
        anchors[i] = position
        position = int(block_jump[position])
    lanes = np.empty((_ORBIT_BLOCK, anchor_count), dtype=np.int64)
    lanes[0] = anchors
    current = anchors.astype(successor.dtype, copy=False)
    for step in range(1, _ORBIT_BLOCK):
        current = successor.take(current, mode="clip")
        lanes[step] = current
    return lanes.T.reshape(-1)[:count]

"""Rice (Golomb power-of-two) coding of non-negative integers.

Rice codes are the standard low-complexity entropy coder for wavelet and
predictive residuals (they are what lossless JPEG-LS and CCSDS use).  A
symbol ``s`` is coded with parameter ``k`` as the unary quotient
``s >> k`` followed by the ``k`` low-order bits.  The optimal ``k`` tracks
the mean of the symbols; :func:`optimal_rice_parameter` picks it exactly
(ties to the smallest ``k``) from three segmented sums, because the block's
coded size is convex in ``k``.  :func:`rice_cost_matrix`, the coded size for
every ``k`` at once, is the oracle it is tested against.

A block is stored in one of two self-describing layouts, told apart by
bit 7 of the first byte:

* **planar** (what every codec writes) —
  ``0x80 | k (8 bits) | count (32 bits) | remainder plane | unary plane``.
  The remainder plane holds the ``count`` ``k``-bit remainders MSB-first,
  zero-padded to a byte; the unary plane holds the ``count`` quotients
  (``q`` ones then a zero), zero-padded to a byte.  Control and data travel
  in separate lanes, so the zeros of the unary plane alone mark symbol
  boundaries and decoding needs no sequential walk: ``flatnonzero`` +
  ``diff`` give the quotients and one fixed-width unpack the remainders.
  Written by :func:`rice_encode_planar_blocks` (vectorised, every block of
  a frame in one batch: one parameter search, one remainder pass per
  distinct ``k``, one unary pass), its flat form
  :func:`rice_encode_planar_flat` (the blocks already laid end to end in
  one buffer, as the s-transform codec zig-zags them), its one-block form
  :func:`rice_encode_planar`, and :func:`rice_encode_planar_scalar`
  (bit-by-bit reference, one block at a time).  The batch encoder keeps
  an unsigned block of up to 32 bits in its own word (the ``uint16`` or
  ``uint32`` symbols of the s-transform's lifting word), with no ``int64``
  copy and no sign check; any other input is read as ``int64``.  Its sums
  accumulate in ``int64`` whatever the symbols' word.  Read back by its
  mirror :func:`rice_decode_planar_blocks` (one unary pass, one ``diff``
  and one remainder pass per distinct ``k`` over a frame's blocks, each
  block confined to its own plane's zeros).
* **interleaved** (read-only legacy) —
  ``k (8 bits) | count (32 bits) | Rice codes | zero padding to a byte``,
  each code's unary quotient directly followed by its remainder.
  :func:`rice_encode_scalar` (bit by bit) still mints it so the pinned
  golden vectors and the read-compat tests can reproduce archives written
  before the planar layout existed.

Every decoder — :func:`rice_decode_planar_blocks` and its one-block calls
:func:`rice_decode_array` / :func:`rice_decode` (vectorised), and
:func:`rice_decode_scalar` (bit-by-bit reference) — accepts both layouts.
They decode into ``int64`` unless the caller passes ``limit``, the
largest symbol it accepts: then any larger symbol raises ``ValueError`` on
every tier, and a limit below ``2**31`` makes the vectorised output
``int32``, written straight from the unary and remainder passes (each
block's largest quotient is checked against ``limit >> k`` before the
shift, so nothing wraps).  The s-transform codec decodes this way; the
coefficient codec keeps the ``int64`` output.
The vectorised interleaved decode resolves the "where does the next code
start" dependency by pointer doubling over the stream's zero positions
(:func:`_orbit`).  The fast and scalar planar encoders produce
**byte-identical** streams, whatever word their input arrives in.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bitstream import BitReader, BitWriter

__all__ = [
    "rice_encode_planar",
    "rice_encode_planar_blocks",
    "rice_encode_planar_flat",
    "rice_encode_planar_scalar",
    "rice_decode",
    "rice_decode_array",
    "rice_decode_planar_blocks",
    "rice_encode_scalar",
    "rice_decode_scalar",
    "is_planar_block",
    "is_rice_zero_block",
    "rice_zero_block",
    "rice_declared_count",
    "rice_code_length",
    "rice_cost_matrix",
    "optimal_rice_parameter",
]

#: Largest Rice parameter considered by the optimiser (32-bit symbols).
MAX_RICE_PARAMETER = 30
#: Bit 7 of a block's first byte: set for the planar layout, whose low
#: seven bits then hold ``k``.  Interleaved blocks store ``k <= 30`` there,
#: so the bit is always clear in them.
PLANAR_FLAG = 0x80
#: Bytes of the ``k | count`` header shared by both layouts.
_HEADER_BYTES = 5
#: The unsigned words the batch encoder codes as they arrive; any other
#: input is read as ``int64``.
_KEPT_WORDS = tuple(np.dtype(word) for word in (np.uint8, np.uint16, np.uint32))
#: Symbols decoded per batch by :func:`rice_decode_planar_blocks`.  A
#: batch's working set (about 40 bytes a symbol) then stays in cache and in
#: memory the allocator reuses: one batch for a whole 512x512 frame
#: (262144 symbols) page-faulted ~1000 times a call and ran slower than a
#: per-block loop, while 128x128 and 256x256 frames fit in one batch.
_BATCH_SYMBOLS = 1 << 16


def _check_parameter(k: int) -> None:
    if not 0 <= k <= MAX_RICE_PARAMETER:
        raise ValueError(f"Rice parameter {k} outside [0, {MAX_RICE_PARAMETER}]")


def _as_symbol_array(symbols) -> np.ndarray:
    """Coerce a symbol block to ``int64`` without per-element Python loops."""
    if isinstance(symbols, np.ndarray):
        return symbols.astype(np.int64, copy=False).ravel()
    if isinstance(symbols, (list, tuple)):
        return np.asarray(symbols, dtype=np.int64)
    return np.asarray(list(symbols), dtype=np.int64)


def _check_non_negative(arr: np.ndarray) -> None:
    if arr.size and int(arr.min()) < 0:
        raise ValueError("Rice codes encode non-negative integers")


def rice_code_length(value: int, k: int) -> int:
    """Length in bits of the Rice code of ``value`` with parameter ``k``."""
    if value < 0:
        raise ValueError("Rice codes encode non-negative integers")
    return (value >> k) + 1 + k


def rice_cost_matrix(symbols, max_k: int = MAX_RICE_PARAMETER) -> np.ndarray:
    """Total code length (bits) of the block for every parameter ``0..max_k``.

    One row of the conceptual ``(blocks x k)`` cost matrix: the exact coded
    size for every candidate parameter at once, with no re-encoding.  The
    quotient sums ``sum(s >> k)`` are produced by successive halving of a
    single working copy, so the whole matrix row costs one pass per populated
    bit plane instead of ``max_k`` full shifts.
    """
    arr = _as_symbol_array(symbols)
    _check_non_negative(arr)
    ks = np.arange(max_k + 1, dtype=np.int64)
    costs = arr.size * (1 + ks)
    work = arr.copy()
    for k in range(max_k + 1):
        total = int(work.sum())
        if total == 0:
            break
        costs[k] += total
        work >>= 1
    return costs


def _block_bounds(counts: Sequence[int]) -> List[Tuple[int, int]]:
    """``(start, stop)`` of every block in the concatenation of ``counts``."""
    return [(stop - n, stop) for stop, n in zip(accumulate(counts), counts)]


def _shifted_blocks(
    flat: np.ndarray, bounds: Sequence[Tuple[int, int]], shifts: Sequence[int]
) -> np.ndarray:
    """``flat >> shifts[b]`` block by block, with scalar shifts.

    The result is in the narrowest type that also holds each value plus
    one (checked against the largest symbol), so the passes that follow
    move less memory.
    """
    top = int(flat.max())
    word = np.uint16 if top < 0xFFFF else np.uint32 if top < 0xFFFFFFFF else np.int64
    out = np.empty(flat.size, dtype=word)
    for (start, stop), shift in zip(bounds, shifts):
        np.right_shift(flat[start:stop], shift, out=out[start:stop], casting="unsafe")
    return out


def _optimal_parameters(
    flat: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    max_k: int = MAX_RICE_PARAMETER,
) -> List[int]:
    """Exact cost-minimising ``k`` of every block ``flat[start:stop]``.

    The cost ``C(k) = n(1 + k) + sum(s >> k)`` is convex in ``k``:
    ``C(k + 1) - C(k) = n - sum(((s >> k) + 1) >> 1)`` never decreases as
    ``k`` grows.  So the argmin (ties to the smallest ``k``) is the smallest
    ``k`` with ``T(k) = sum(((s >> k) + 1) >> 1) <= n``, clamped at
    ``max_k``.  With ``kh`` the smallest ``k`` where ``sum(s) <= n * 2**k``,
    ``T(kh) <= n`` and ``T(kh - 3) > n``, so that ``k`` is one of
    ``kh - 2``, ``kh - 1`` and ``kh``: one segmented sum of the symbols and
    two of ``T`` decide every block at once, where
    :func:`rice_cost_matrix` makes one pass per candidate.  Empty blocks
    get 0.
    """
    ks = [0] * len(bounds)
    nonempty = [b for b, (start, stop) in enumerate(bounds) if stop > start]
    if not nonempty:
        return ks
    bounds = [bounds[b] for b in nonempty]
    starts = [start for start, _ in bounds]
    tops = []
    # The sums accumulate in int64 whatever the symbols' word.
    totals = np.add.reduceat(flat, starts, dtype=np.int64).tolist()
    for total, (start, stop) in zip(totals, bounds):
        n = stop - start
        kh = 0 if total <= n else (-(-total // n) - 1).bit_length()
        tops.append(min(kh, max_k))
    bases = [max(top - 2, 0) for top in tops]
    shifted = _shifted_blocks(flat, bounds, bases)
    half = shifted + 1
    half >>= 1
    at_base = np.add.reduceat(half, starts, dtype=np.int64).tolist()
    shifted >>= 1
    np.add(shifted, 1, out=half)
    half >>= 1
    at_next = np.add.reduceat(half, starts, dtype=np.int64).tolist()
    for b, top, base, t0, t1, (start, stop) in zip(
        nonempty, tops, bases, at_base, at_next, bounds
    ):
        n = stop - start
        k = base if t0 <= n else base + 1 if t1 <= n else top
        ks[b] = min(k, top)
    return ks


def optimal_rice_parameter(symbols, max_k: int = MAX_RICE_PARAMETER) -> int:
    """Parameter ``k`` minimising the total code length of ``symbols``.

    Exact (equal to ``argmin(rice_cost_matrix(symbols, max_k))``, see
    :func:`_optimal_parameters`); ties resolve to the smallest ``k``.  An
    empty block returns 0.
    """
    arr = _as_symbol_array(symbols)
    _check_non_negative(arr)
    return _optimal_parameters(arr, [(0, arr.size)], max_k)[0]


def _prepare_block(symbols, k: Optional[int]) -> Tuple[np.ndarray, int]:
    """Validated ``int64`` symbols and the (optimal, if unset) parameter."""
    arr = _as_symbol_array(symbols)
    _check_non_negative(arr)
    if k is None:
        k = optimal_rice_parameter(arr)
    _check_parameter(k)
    return arr, k


# ---------------------------------------------------------------------------
# Planar block coder (the layout every codec writes)
# ---------------------------------------------------------------------------
#
# Eight k-bit remainders fill exactly k bytes, so remainder j of every such
# group sits at the same bit offset j * k inside its group.  The encoder
# builds each group's 8k bits in whole 64-bit words, one shift and one OR
# per column of the (groups x 8) remainder matrix; the decoder reads column
# j from the byte columns ``plane[first + i :: k]`` with shifts that are
# constants for the column.  Neither needs a per-symbol gather or scatter.


def _remainder_columns(k: int) -> List[Tuple[int, int, int]]:
    """``(first byte, bit offset, bytes spanned)`` of remainder ``j`` of a group."""
    return [
        ((j * k) >> 3, (j * k) & 7, ((j * k & 7) + k + 7) >> 3) for j in range(8)
    ]


def _pack_remainder_groups(fields: np.ndarray, k: int) -> np.ndarray:
    """The remainder plane of a ``(groups x 8)`` matrix of ``k``-bit fields.

    A group's eight fields (each holding ``k`` bits) are ``8k`` bits, MSB
    first, and its ``k`` bytes in the plane are those bits.  Each group is
    built in ``ceil(k / 8)`` whole 64-bit words, one shift and one OR per
    field a word holds (a field that straddles two words is split by the
    shifts), and the plane is the first ``k`` big-endian bytes of each
    group's words.
    """
    groups = fields.shape[0]
    words = np.empty((groups, -(-k // 8)), dtype=">u8")
    for w in range(words.shape[1]):
        word = np.zeros(groups, dtype=np.uint64)
        top = 64 * (w + 1)  # the group bit just past this word
        for column in range(8):
            start, stop = column * k, (column + 1) * k
            if start < top and stop > top - 64:
                # Put the field's last bit at the word's bit top - stop;
                # bits shifted past either end belong to the other word.
                field = fields[:, column]
                if stop <= top:
                    word |= np.left_shift(field, top - stop, dtype=np.uint64)
                else:
                    word |= np.right_shift(field, stop - top, dtype=np.uint64)
        words[:, w] = word
    return words.view(np.uint8)[:, :k].reshape(-1)


def _remainder_word(k: int):
    """The narrowest unsigned word that holds a ``k``-bit field at any bit
    offset (``k + 7`` bits)."""
    return np.uint16 if k <= 9 else np.uint32 if k <= 25 else np.uint64


def _unpack_remainder_groups(plane: np.ndarray, groups: int, k: int) -> np.ndarray:
    """Inverse of :func:`_pack_remainder_groups`, flattened group by group.

    ``plane`` holds ``groups`` whole groups (``k`` bytes each) and then at
    least eight bytes of slack.  A field and its bit offset fit one
    big-endian :func:`_remainder_word` read at the field's first byte, so
    column ``j`` is a single strided read of those words, ``k`` bytes
    apart, and one shift per column then aligns all eight at once.
    """
    word = np.dtype(_remainder_word(k))
    fields = np.empty((groups, 8), dtype=word)
    if not groups:
        return fields.reshape(-1)
    columns = _remainder_columns(k)
    for column, (first, _, _) in enumerate(columns):
        fields[:, column] = np.ndarray(
            (groups,),
            dtype=word.newbyteorder(">"),
            buffer=plane,
            offset=first,
            strides=(k,),
        )
    fields >>= np.array(
        [8 * word.itemsize - k - bit for _, bit, _ in columns], dtype=word
    )
    fields &= (1 << k) - 1
    return fields.reshape(-1)


def _remainder_planes(
    flat: np.ndarray, bounds: List[Tuple[int, int]], ks: List[int]
) -> List[bytes]:
    """Every block's remainder plane, packed in one column pass per ``k``.

    The blocks sharing a ``k`` are laid end to end, each zero-padded to a
    whole group of eight fields, so each block's plane is the prefix of its
    own ``count * k / 8`` bytes of the shared plane.
    """
    planes = [b""] * len(bounds)
    for k in sorted(set(ks) - {0}):
        members = [b for b, kb in enumerate(ks) if kb == k]
        groups = [-(-(bounds[b][1] - bounds[b][0]) // 8) for b in members]
        fields = np.zeros(8 * sum(groups), dtype=_remainder_word(k))
        offset = 0
        for b, group in zip(members, groups):
            start, stop = bounds[b]
            fields[offset : offset + stop - start] = flat[start:stop]
            offset += 8 * group
        fields &= (1 << k) - 1
        plane = _pack_remainder_groups(fields.reshape(-1, 8), k)
        offset = 0
        for b, group in zip(members, groups):
            start, stop = bounds[b]
            planes[b] = plane[offset : offset + -(-(stop - start) * k // 8)].tobytes()
            offset += group * k
    return planes


def _unary_planes(
    flat: np.ndarray, bounds: List[Tuple[int, int]], ks: List[int]
) -> Tuple[np.ndarray, List[int]]:
    """All unary planes, byte-aligned end to end, and their byte offsets.

    One ``cumsum`` of ``q + 1`` gives every quotient's end; shifting each
    block by its own byte-aligned start places the terminating zeros of the
    whole set in one scatter, and one ``packbits`` flushes it.  Plane ``b``
    is ``packed[offsets[b]:offsets[b + 1]]``.  The quotients are shifted
    straight into ``intp``, the scatter's own index word: a narrower one
    costs more in the scatter (NumPy converts the index first) than it
    saves in the ``cumsum``.
    """
    ends = np.empty(flat.size, dtype=np.intp)
    for (start, stop), k in zip(bounds, ks):
        np.right_shift(flat[start:stop], k, out=ends[start:stop])
    ends += 1
    np.cumsum(ends, out=ends)
    offsets = [0]
    plane_ends = []
    bits_before = 0
    for start, stop in bounds:
        bits_after = int(ends[stop - 1]) if stop > start else bits_before
        # Terminator positions of this block, moved to its byte-aligned start.
        ends[start:stop] += 8 * offsets[-1] - bits_before - 1
        plane_ends.append(8 * offsets[-1] + bits_after - bits_before)
        offsets.append(offsets[-1] + (bits_after - bits_before + 7) // 8)
        bits_before = bits_after
    bits = np.ones(8 * offsets[-1], dtype=np.uint8)
    bits[ends] = 0
    # Zero each plane's padding after its last terminator.
    for plane_end, stop in zip(plane_ends, offsets[1:]):
        bits[plane_end : 8 * stop] = 0
    return np.packbits(bits), offsets


def _as_block_word(block) -> np.ndarray:
    """A block as a flat array in its own word when that is one of
    :data:`_KEPT_WORDS`, in ``int64`` otherwise."""
    if isinstance(block, np.ndarray) and block.dtype in _KEPT_WORDS:
        return block.reshape(-1)
    return _as_symbol_array(block)


def rice_encode_planar_blocks(blocks, k: Optional[int] = None) -> List[bytes]:
    """Encode every block of a frame in the planar layout, in one pass.

    Byte-identical to encoding each block on its own: each block gets its
    own cost-minimising parameter (or ``k`` for all of them) and its own
    ``0x80 | k`` / count header, remainder plane and unary plane.  The
    blocks are laid end to end in the widest of their words (an unsigned
    block of up to 32 bits keeps its word, anything else is read as
    ``int64``) and coded by :func:`rice_encode_planar_flat`.
    """
    arrays = [_as_block_word(block) for block in blocks]
    if len(arrays) == 1:
        flat = arrays[0]
    elif arrays:
        flat = np.concatenate(arrays, dtype=np.result_type(*arrays))
    else:
        flat = np.zeros(0, dtype=np.int64)
    return rice_encode_planar_flat(flat, [arr.size for arr in arrays], k)


def rice_encode_planar_flat(
    symbols: np.ndarray, counts: Sequence[int], k: Optional[int] = None
) -> List[bytes]:
    """Encode the blocks laid end to end in ``symbols``, ``counts[b]``
    symbols each, in the planar layout; the batch behind
    :func:`rice_encode_planar_blocks`.

    The symbols stay in their own word: an unsigned word needs no sign
    check and no ``int64`` copy, and sums accumulate in ``int64``.  The
    work is batched across blocks: one exact parameter search
    (:func:`_optimal_parameters`), one remainder column pass per distinct
    ``k`` (:func:`_remainder_planes`) and one unary pass for the whole set
    (:func:`_unary_planes`).
    """
    flat = _as_block_word(symbols)
    if flat.dtype.kind != "u":
        _check_non_negative(flat)
    counts = [int(n) for n in counts]
    if min(counts, default=0) < 0 or sum(counts) != flat.size:
        raise ValueError(f"block counts {counts} do not split {flat.size} symbols")
    bounds = _block_bounds(counts)
    if k is None:
        ks = _optimal_parameters(flat, bounds)
    else:
        _check_parameter(k)
        ks = [k] * len(counts)
    headers = [
        bytes((PLANAR_FLAG | kb,)) + n.to_bytes(4, "big") for kb, n in zip(ks, counts)
    ]
    if flat.size == 0:
        return headers
    remainders = _remainder_planes(flat, bounds, ks)
    unary, offsets = _unary_planes(flat, bounds, ks)
    return [
        header + remainder + unary[offsets[b] : offsets[b + 1]].tobytes()
        for b, (header, remainder) in enumerate(zip(headers, remainders))
    ]


def rice_encode_planar(symbols, k: Optional[int] = None) -> bytes:
    """Encode one block of non-negative symbols in the planar layout.

    ``0x80 | k`` (one byte) and the symbol count (four bytes) head the
    block, followed by the remainder plane and the unary plane, each
    zero-padded to a byte.  The remainder plane's size follows from the
    header, so no length field is stored, and the block is at most one
    byte longer than the interleaved :func:`rice_encode_scalar` of the same
    symbols.  A one-block call of :func:`rice_encode_planar_blocks`.
    """
    return rice_encode_planar_blocks([symbols], k)[0]


def _planar_header(raw: np.ndarray) -> Tuple[int, int, int]:
    """``(k, count, end of the remainder plane)`` of a planar block.

    The declared count is checked against the bytes actually present
    before anything is sized from it: the remainder plane must fit, and
    the unary plane must hold at least one bit per symbol.  A hostile
    count therefore fails in constant time and memory.
    """
    if raw.size < _HEADER_BYTES:
        raise EOFError("bitstream exhausted")
    k = int(raw[0]) & ~PLANAR_FLAG
    _check_parameter(k)
    count = int.from_bytes(raw[1:_HEADER_BYTES].tobytes(), "big")
    remainder_end = _HEADER_BYTES + -(-count * k // 8)
    if remainder_end > raw.size:
        raise EOFError(
            f"planar Rice block declares {count} symbols but its remainder "
            f"plane is truncated ({raw.size - _HEADER_BYTES} of "
            f"{remainder_end - _HEADER_BYTES} bytes)"
        )
    if count > 8 * (raw.size - remainder_end):
        raise EOFError(
            f"planar Rice block declares {count} symbols but its unary plane "
            f"holds only {8 * (raw.size - remainder_end)} bits"
        )
    return k, count, remainder_end


def _unary_terminators(
    planes: List[np.ndarray], counts: List[int]
) -> Tuple[np.ndarray, List[int]]:
    """Every planar block's quotient terminators, block after block.

    One ``unpackbits`` + ``flatnonzero`` finds the zeros of all unary
    ``planes`` laid end to end (each starts on a byte).  Block ``b`` owns
    only the zeros inside its own plane, found by ``searchsorted`` on the
    plane edges, and its ``counts[b]`` symbols end at the first
    ``counts[b]`` of them: a block that declares more symbols than its
    plane holds zeros fails even when the next plane has zeros to spare.
    Returns the terminator bit positions and each plane's first bit.
    """
    edges = [0, *accumulate(8 * plane.size for plane in planes)]
    # The zero bits of the planes are the one bits of their complement,
    # read as booleans (the fast ``nonzero`` path).
    bits = np.concatenate(planes)
    zeros = np.flatnonzero(np.unpackbits(np.invert(bits, out=bits)).view(np.bool_))
    firsts = np.searchsorted(zeros, edges).tolist()
    for count, first, stop in zip(counts, firsts, firsts[1:]):
        if count > stop - first:
            raise EOFError(
                f"planar Rice block declares {count} symbols but its unary "
                f"plane holds only {stop - first} terminators"
            )
    terminators = np.concatenate(
        [zeros[first : first + count] for first, count in zip(firsts, counts)]
    )
    return terminators, edges[:-1]


def _add_remainders(
    out: np.ndarray,
    bounds: List[Tuple[int, int]],
    ks: List[int],
    planes: List[np.ndarray],
) -> None:
    """``out[start:stop] = out[start:stop] << k | remainders`` per block.

    The remainder ``planes`` sharing a ``k`` are laid end to end, each
    zero-padded to whole groups of eight fields, and unpacked in one
    column pass (:func:`_unpack_remainder_groups`), so block ``b``'s
    fields start at ``8 *`` the groups before it.
    """
    for k in sorted(set(ks) - {0}):
        members = [b for b, kb in enumerate(ks) if kb == k]
        groups = [-(-(bounds[b][1] - bounds[b][0]) // 8) for b in members]
        padded = np.zeros(k * sum(groups) + 8, dtype=np.uint8)
        offset = 0
        for b, group in zip(members, groups):
            padded[offset : offset + planes[b].size] = planes[b]
            offset += k * group
        fields = _unpack_remainder_groups(padded, sum(groups), k)
        offset = 0
        for b, group in zip(members, groups):
            start, stop = bounds[b]
            block = out[start:stop]
            block <<= k
            # The fields (< 2**30) are or-ed in the output's own word.
            np.bitwise_or(
                block,
                fields[offset : offset + stop - start],
                out=block,
                dtype=out.dtype,
                casting="unsafe",
            )
            offset += 8 * group


def _symbol_word(limit: Optional[int]) -> type:
    """The word decoded symbols are returned in: ``int32`` under a limit
    below ``2**31``, ``int64`` otherwise."""
    if limit is not None and limit < 0:
        raise ValueError(f"symbol limit {limit} is negative")
    return np.int32 if limit is not None and limit < 1 << 31 else np.int64


def _above_limit(limit: int) -> ValueError:
    return ValueError(f"Rice block holds a symbol above the limit {limit}")


def _decode_planar_batch(
    raws: List[np.ndarray],
    headers: List[Tuple[int, int, int]],
    limit: Optional[int] = None,
) -> List[np.ndarray]:
    """Decode planar blocks whose headers passed :func:`_planar_header`.

    One unary pass over all planes (:func:`_unary_terminators`) and one
    ``diff`` write every quotient straight into one output, whose block
    slices are the results; one column pass per distinct ``k``
    (:func:`_add_remainders`) then adds the remainders.  The output word
    is :func:`_symbol_word` of ``limit``.  Under a limit ``L``, each
    block's largest quotient is checked against ``L >> k`` before the
    shift, so ``q << k | r`` stays below ``2**31`` and cannot wrap; only a
    block whose largest quotient is exactly ``L >> k`` can still exceed
    ``L`` once its remainders are in, and only such a block is checked
    again.  A symbol above ``L`` raises ``ValueError``.
    """
    counts = [count for _, count, _ in headers]
    bounds = _block_bounds(counts)
    word = _symbol_word(limit)
    filled = [b for b, count in enumerate(counts) if count]
    if not filled:
        return [np.empty(0, dtype=word) for _ in bounds]
    raws = [raws[b] for b in filled]
    headers = [headers[b] for b in filled]
    ks = [k for k, _, _ in headers]
    filled_bounds = [bounds[b] for b in filled]
    terminators, plane_starts = _unary_terminators(
        [raw[end:] for raw, (_, _, end) in zip(raws, headers)],
        [counts[b] for b in filled],
    )
    # Quotients are differences of terminator positions: while the last is
    # below 2**31 an int32 difference cannot wrap.  Planes longer than that
    # (over 256 MiB) are diffed in int64 and narrowed once checked.
    wide = word if int(terminators[-1]) < 1 << 31 else np.int64
    out = np.empty(sum(counts), dtype=wide)
    np.subtract(terminators[1:], terminators[:-1], out=out[1:])
    out -= 1
    # Each block's first quotient counts from its own plane's first bit.
    firsts = np.asarray([start for start, _ in filled_bounds])
    out[firsts] = terminators[firsts] - np.asarray(plane_starts)
    at_cap = []
    if limit is not None:
        # The filled blocks tile ``out``, so one reduceat gives each its max.
        tops = np.maximum.reduceat(out, firsts).tolist()
        for block, top, k in zip(filled_bounds, tops, ks):
            if top > limit >> k:
                raise _above_limit(limit)
            if top == limit >> k and k:
                at_cap.append(block)
    _add_remainders(
        out,
        filled_bounds,
        ks,
        [raw[_HEADER_BYTES:end] for raw, (_, _, end) in zip(raws, headers)],
    )
    for start, stop in at_cap:
        if int(out[start:stop].max()) > limit:
            raise _above_limit(limit)
    out = out.astype(word, copy=False)
    return [out[start:stop] for start, stop in bounds]


def _batches(counts: Sequence[int]) -> List[List[int]]:
    """Runs of consecutive block indices holding at most
    :data:`_BATCH_SYMBOLS` symbols each (a larger block makes a run of its
    own)."""
    batches: List[List[int]] = []
    total = 0
    for b, count in enumerate(counts):
        if not batches or total + count > _BATCH_SYMBOLS:
            batches.append([])
            total = 0
        batches[-1].append(b)
        total += count
    return batches


def rice_decode_planar_blocks(
    payloads, limit: Optional[int] = None
) -> List[np.ndarray]:
    """Decode every Rice block of a frame, batching the planar ones.

    The mirror of :func:`rice_encode_planar_blocks`: equal, block by block,
    to decoding each payload on its own, with the fixed costs paid once
    per batch.  Every planar header is checked (:func:`_planar_header`)
    before anything is sized from it.  Consecutive planar blocks are then
    decoded in batches of up to :data:`_BATCH_SYMBOLS` symbols
    (:func:`_decode_planar_batch`).  A legacy interleaved block is decoded
    on its own.

    ``limit`` is the largest symbol the caller accepts: a block holding a
    larger one raises ``ValueError``, and under a limit below ``2**31``
    every block is decoded straight into ``int32`` (each quotient checked
    against ``limit >> k`` before its shift).  Without one the blocks are
    ``int64``.
    """
    payloads = list(payloads)
    raws = [np.frombuffer(payload, dtype=np.uint8) for payload in payloads]
    planar = [b for b, raw in enumerate(raws) if is_planar_block(raw)]
    headers = [_planar_header(raws[b]) for b in planar]
    decoded = {}
    for batch in _batches([count for _, count, _ in headers]):
        blocks = _decode_planar_batch(
            [raws[planar[i]] for i in batch], [headers[i] for i in batch], limit
        )
        decoded.update(zip((planar[i] for i in batch), blocks))
    return [
        decoded[b] if b in decoded else _decode_interleaved(payload, limit)
        for b, payload in enumerate(payloads)
    ]


def rice_declared_count(data) -> Optional[int]:
    """The symbol count a Rice block's header declares, read without
    decoding anything: bytes 1-4, big-endian, in the planar and the
    interleaved layout alike.  ``None`` for a block too short to hold a
    header (decoding it raises ``EOFError``)."""
    if len(data) < _HEADER_BYTES:
        return None
    return int.from_bytes(data[1:_HEADER_BYTES], "big")


def rice_zero_block(count: int) -> bytes:
    """The planar block of ``count`` zero symbols, written from its count.

    Every encoder picks ``k = 0`` for an all-zero block (the smallest of
    the tied parameters), so the block is ``0x80``, the count, an empty
    remainder plane and a unary plane of ``count`` terminating zeros: the
    bytes :func:`rice_encode_planar` writes for ``[0] * count``.
    """
    return bytes((PLANAR_FLAG,)) + count.to_bytes(4, "big") + bytes(-(-count // 8))


def is_rice_zero_block(data, count: int) -> bool:
    """Whether ``data`` is exactly :func:`rice_zero_block` of ``count``.

    The length is compared first, so a declared ``count`` larger than the
    block never sizes an allocation.
    """
    if len(data) != _HEADER_BYTES + -(-count // 8):
        return False
    return data == rice_zero_block(count)


def is_planar_block(data) -> bool:
    """Whether a Rice block uses the planar layout (bit 7 of its first byte)."""
    raw = np.frombuffer(data, dtype=np.uint8)
    return bool(raw.size) and bool(raw[0] & PLANAR_FLAG)


# ---------------------------------------------------------------------------
# Interleaved block coder (read-only legacy layout)
# ---------------------------------------------------------------------------

def _skipped_zero_counts(zero_positions: np.ndarray, k: int) -> np.ndarray:
    """Zeros falling inside the ``k`` remainder bits after each zero.

    At most ``k`` zeros fit in that window, and ``zero_positions`` is
    sorted, so a handful of shifted compares (with an early exit once a
    distance yields no hits) counts them exactly.
    """
    nzeros = zero_positions.size
    padded = np.concatenate(
        [zero_positions, np.full(k, np.iinfo(np.int32).max, dtype=np.int32)]
    )
    skipped = np.zeros(nzeros, dtype=np.int32)
    for distance in range(1, k + 1):
        in_window = (padded[distance : distance + nzeros] - zero_positions) <= k
        if not in_window.any():
            break
        skipped += in_window
    return skipped


#: Block size of the :func:`_orbit` jump table (must be a power of two).
_ORBIT_BLOCK = 32


def _orbit(successor: np.ndarray, start: int, count: int) -> np.ndarray:
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


def _decode_interleaved(data, limit: Optional[int] = None) -> np.ndarray:
    """Vectorised decode of an interleaved block.

    The sequential "where does the next code start" dependency is solved on
    the stream's zero positions: zero ``j`` terminates a quotient, and the
    zero terminating the *next* quotient has index ``j + 1 + (zeros among the
    k remainder bits after j)`` — a successor map that :func:`_orbit` follows
    for all symbols at once.

    Every code ends in exactly one zero, so a ``count`` larger than the
    zeros left after the header is rejected before anything is sized from
    it: a hostile count fails in time and memory bounded by the block.
    ``limit`` is checked and sets the output word as in
    :func:`_decode_planar_batch`.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size < _HEADER_BYTES:
        raise EOFError("bitstream exhausted")
    k = int(raw[0])
    _check_parameter(k)
    count = int.from_bytes(raw[1:_HEADER_BYTES].tobytes(), "big")
    word = _symbol_word(limit)
    if count == 0:
        return np.zeros(0, dtype=word)
    bits = np.unpackbits(raw)
    nbits = bits.size
    start = 40
    if start >= nbits:
        raise EOFError("bitstream exhausted")
    zero_positions = np.flatnonzero(bits == 0).astype(np.int32)
    nzeros = zero_positions.size
    first = int(np.searchsorted(zero_positions, start))
    if count > nzeros - first:
        raise EOFError(
            f"interleaved Rice block declares {count} symbols but holds only "
            f"{nzeros - first} code terminators"
        )
    if k == 0:
        terminator_idx = first + np.arange(count, dtype=np.int64)
    else:
        # successor[j]: index of the zero terminating the next code when zero
        # j terminates the current one — skip the zeros that fall inside the
        # k remainder bits after j.  Index nzeros is an absorbing sink for
        # "no zero left", so a truncated block ends the walk there instead of
        # landing on a zero inside the previous code's remainder bits.
        successor = np.empty(nzeros + 1, dtype=np.int32)
        successor[:nzeros] = np.arange(1, nzeros + 1, dtype=np.int32)
        successor[:nzeros] += _skipped_zero_counts(zero_positions, k)
        successor[nzeros] = nzeros
        terminator_idx = _orbit(successor, first, count)
        if int(terminator_idx[-1]) >= nzeros:
            raise EOFError("bitstream exhausted")
    terminators = zero_positions[terminator_idx].astype(np.int64)
    starts = np.empty(count, dtype=np.int64)
    starts[0] = start
    starts[1:] = terminators[:-1] + 1 + k
    quotients = terminators - starts
    if k and int(terminators[-1]) + k >= nbits:
        raise EOFError("bitstream exhausted")
    if limit is not None and int(quotients.max()) > limit >> k:
        raise _above_limit(limit)
    if k == 0:
        return quotients.astype(word, copy=False)
    remainders = np.zeros(count, dtype=np.int64)
    for plane in range(k):
        remainders = (remainders << 1) | bits[terminators + 1 + plane]
    symbols = (quotients << k) | remainders
    if limit is not None and int(symbols.max()) > limit:
        raise _above_limit(limit)
    return symbols.astype(word, copy=False)


def rice_decode_array(data) -> np.ndarray:
    """Decode a block of either layout to an ``int64`` array.

    The one-block call of :func:`rice_decode_planar_blocks`, which reads
    the flag bit of the first byte to pick the planar or the interleaved
    path.  Accepts ``bytes`` or ``memoryview`` input.
    """
    return rice_decode_planar_blocks([data])[0]


def rice_decode(data) -> List[int]:
    """Decode a block of either layout (list-of-int API)."""
    return rice_decode_array(data).tolist()


# ---------------------------------------------------------------------------
# Scalar reference implementations (bit-by-bit, used for validation)
# ---------------------------------------------------------------------------

def rice_encode_planar_scalar(symbols, k: Optional[int] = None) -> bytes:
    """Bit-by-bit reference encoder; byte-identical to :func:`rice_encode_planar`."""
    arr, k = _prepare_block(symbols, k)
    symbols = arr.tolist()
    planes = BitWriter()
    planes.write_uint(PLANAR_FLAG | k, 8)
    planes.write_uint(len(symbols), 32)
    for symbol in symbols:
        planes.write_uint(symbol & ((1 << k) - 1), k)
    unary = BitWriter()
    for symbol in symbols:
        unary.write_unary(symbol >> k)
    return planes.getvalue() + unary.getvalue()


def rice_encode_scalar(symbols, k: Optional[int] = None) -> bytes:
    """Encode a block in the legacy interleaved layout, bit by bit.

    The parameter (one byte) and the symbol count (four bytes) head the
    block, then each symbol's unary quotient directly followed by its
    ``k`` remainder bits.  Codecs write the planar layout; this encoder
    mints the interleaved blocks that archives written before it hold.
    """
    arr, k = _prepare_block(symbols, k)
    writer = BitWriter()
    writer.write_uint(k, 8)
    writer.write_uint(arr.size, 32)
    for symbol in arr.tolist():
        writer.write_unary(symbol >> k)
        writer.write_uint(symbol & ((1 << k) - 1), k)
    return writer.getvalue()


def rice_decode_scalar(data, limit: Optional[int] = None) -> List[int]:
    """Bit-by-bit reference decoder of either layout; inverse of every encoder.

    A block holding a symbol above ``limit`` raises ``ValueError`` once it
    has been read whole, so a block that is also truncated fails with the
    same ``EOFError`` as on the fast tier.
    """
    if is_planar_block(data):
        raw = np.frombuffer(data, dtype=np.uint8)
        k, count, remainder_end = _planar_header(raw)
        remainders = BitReader(raw[_HEADER_BYTES:remainder_end].tobytes())
        quotients = BitReader(raw[remainder_end:].tobytes())
        symbols = [
            (quotients.read_unary() << k) | remainders.read_uint(k)
            for _ in range(count)
        ]
    else:
        reader = BitReader(data)
        k = reader.read_uint(8)
        count = reader.read_uint(32)
        _check_parameter(k)
        symbols = [
            (reader.read_unary() << k) | reader.read_uint(k) for _ in range(count)
        ]
    if limit is not None and max(symbols, default=0) > limit:
        raise _above_limit(limit)
    return symbols

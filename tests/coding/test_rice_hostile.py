"""Hostile planar Rice headers: typed errors, bounded time and memory.

A planar block's declared symbol count sizes both of its planes, so every
decoder tier checks it against the bytes actually present before sizing
anything from it: the remainder plane must fit, and the unary plane must
hold at least one bit per symbol.  A lying header must fail fast with
``EOFError`` (or ``ValueError`` for a parameter out of range), never by
allocating what it declares.
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.coding.rice import (
    PLANAR_FLAG,
    rice_decode,
    rice_decode_scalar,
    rice_decode_turbo,
    rice_encode_planar,
)

DECODERS = {
    "fast": rice_decode,
    "scalar": rice_decode_scalar,
    "turbo": rice_decode_turbo,
}
MEMORY_CAP = 1 << 20
TIME_CAP_S = 1.0


def _header(k: int, count: int) -> bytes:
    return bytes([PLANAR_FLAG | k]) + count.to_bytes(4, "big")


@pytest.fixture(params=sorted(DECODERS))
def decode(request):
    return DECODERS[request.param]


@pytest.mark.parametrize("k", [0, 5, 30])
def test_huge_declared_count_fails_in_bounded_memory(decode, k):
    block = _header(k, 0xFFFFFFF0) + bytes(range(16))
    assert len(block) == 21
    tracemalloc.start()
    began = time.perf_counter()
    try:
        with pytest.raises(EOFError):
            decode(block)
        elapsed = time.perf_counter() - began
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_CAP
    assert elapsed < TIME_CAP_S


def test_truncated_remainder_plane(decode):
    block = rice_encode_planar(np.arange(100), k=11)
    remainder_bytes = -(-100 * 11 // 8)
    with pytest.raises(EOFError, match="remainder plane"):
        decode(block[: 5 + remainder_bytes - 1])


def test_unary_plane_without_enough_zeros(decode):
    # Ten symbols: the 4-byte remainder plane is whole and the unary plane
    # has 16 bits (enough to pass the header check) but not a single zero.
    block = _header(3, 10) + bytes(4) + b"\xff\xff"
    with pytest.raises(EOFError):
        decode(block)


def test_unary_plane_missing_entirely(decode):
    with pytest.raises(EOFError, match="unary plane"):
        decode(_header(8, 4) + bytes(4))


@pytest.mark.parametrize("k", [31, 64, 127])
def test_flagged_parameter_out_of_range(decode, k):
    with pytest.raises(ValueError, match="Rice parameter"):
        decode(_header(k, 1) + bytes(8))


@pytest.mark.parametrize("length", [0, 1, 4])
def test_short_header(decode, length):
    with pytest.raises(EOFError):
        decode(_header(5, 0)[:length])


def test_every_truncation_agrees_across_tiers():
    """Fast and scalar decoders either both reject a cut block with the same
    error type or both return the same symbols."""
    rng = np.random.default_rng(3)
    block = rice_encode_planar(rng.geometric(0.2, size=40) - 1)
    for cut in range(len(block) + 1):
        outcomes = []
        for decoder in (rice_decode, rice_decode_scalar):
            try:
                outcomes.append(decoder(block[:cut]))
            except (EOFError, ValueError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], cut

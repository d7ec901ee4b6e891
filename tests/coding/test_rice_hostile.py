"""Hostile Rice headers: typed errors, bounded time and memory.

A planar block's declared symbol count sizes both of its planes, so every
decoder tier checks it against the bytes actually present before sizing
anything from it: the remainder plane must fit, and the unary plane must
hold at least one bit per symbol.  A legacy interleaved block's count is
checked against the code terminators (zeros) its bits hold.  A lying
header must fail fast with ``EOFError`` (or ``ValueError`` for a parameter
out of range), never by allocating what it declares.  Interleaved blocks
stay readable for read-compat, so their hostile headers and truncations
are checked here too, against the bit-by-bit reference.  An RLE run
stream's lengths are checked against its band's shape before any band is
sized from them, and every band's declared shape is checked against the
image geometry before any decoder sizes a band from it.
"""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from repro.archive.serialize import (
    _serialize_frame_major,
    deserialize_stream,
    serialize_stream,
)
from repro.coding.codec import LosslessWaveletCodec
from repro.coding.rice import (
    PLANAR_FLAG,
    rice_decode,
    rice_decode_scalar,
    rice_encode,
    rice_encode_planar,
)
from repro.coding.s_transform import STransformCodec

from repro.imaging.phantoms import shepp_logan

DECODERS = {
    "fast": rice_decode,
    "scalar": rice_decode_scalar,
}
MEMORY_CAP = 1 << 20
TIME_CAP_S = 1.0


def _header(k: int, count: int, flag: int = PLANAR_FLAG) -> bytes:
    return bytes([flag | k]) + count.to_bytes(4, "big")


@pytest.fixture(params=sorted(DECODERS))
def decode(request):
    return DECODERS[request.param]


def _assert_bounded_failure(error, call, *args):
    """``call(*args)`` raises ``error`` within the memory and time caps."""
    tracemalloc.start()
    began = time.perf_counter()
    try:
        with pytest.raises(error):
            call(*args)
        elapsed = time.perf_counter() - began
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_CAP
    assert elapsed < TIME_CAP_S


@pytest.mark.parametrize("k", [0, 5, 30])
@pytest.mark.parametrize("flag", [PLANAR_FLAG, 0], ids=["planar", "interleaved"])
def test_huge_declared_count_fails_in_bounded_memory(decode, flag, k):
    block = _header(k, 0xFFFFFFF0, flag) + bytes(range(16))
    assert len(block) == 21
    _assert_bounded_failure(EOFError, decode, block)


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


# -- legacy interleaved blocks ----------------------------------------------------------

INTERLEAVED_PARAMETERS = [0, 1, 3, 8, 16]


def _interleaved_symbols(k: int, size: int, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed + k)
    quotients = rng.geometric(0.3, size=size) - 1
    return (quotients << k) | rng.integers(0, 1 << k, size=size)


def _terminators_after_header(block: bytes) -> int:
    bits = np.unpackbits(np.frombuffer(block, dtype=np.uint8))
    return int(np.count_nonzero(bits[40:] == 0))


def _outcome(decoder, block):
    try:
        return decoder(block)
    except (EOFError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("k", INTERLEAVED_PARAMETERS)
def test_interleaved_count_one_past_the_terminators(decode, k):
    """Every code ends in one zero: a count above the zeros present fails."""
    block = rice_encode(_interleaved_symbols(k, 20), k=k)
    count = _terminators_after_header(block) + 1
    with pytest.raises(EOFError):
        decode(_header(k, count, flag=0) + block[5:])


@pytest.mark.parametrize("k", INTERLEAVED_PARAMETERS)
def test_interleaved_smaller_count_decodes_a_prefix(decode, k):
    symbols = _interleaved_symbols(k, 20)
    block = rice_encode(symbols, k=k)
    assert decode(_header(k, 7, flag=0) + block[5:]) == symbols[:7].tolist()


def test_interleaved_block_without_terminators(decode):
    with pytest.raises(EOFError):
        decode(_header(3, 10, flag=0) + b"\xff" * 8)


@pytest.mark.parametrize("k", [1, 3, 7, 12])
def test_interleaved_code_without_its_terminator(decode, k):
    """Symbol 0 (a zero and k zero remainder bits), then a quotient whose
    terminating zero was cut off.  The zeros of the first remainder must not
    be taken for the missing terminator."""
    bits = "0" * (k + 1)
    bits += "1" * (-len(bits) % 8)
    payload = int(bits, 2).to_bytes(len(bits) // 8, "big") + b"\xff" * 3
    with pytest.raises(EOFError):
        decode(_header(k, 2, flag=0) + payload)


@pytest.mark.parametrize("k", [31, 64, 127])
def test_interleaved_parameter_out_of_range(decode, k):
    with pytest.raises(ValueError, match="Rice parameter"):
        decode(_header(k, 1, flag=0) + bytes(8))


@pytest.mark.parametrize("length", [0, 1, 4])
def test_interleaved_short_header(decode, length):
    with pytest.raises(EOFError):
        decode(_header(5, 3, flag=0)[:length])


@pytest.mark.parametrize(
    "k, size, step",
    [(0, 40, 1), (1, 40, 1), (2, 40, 1), (3, 40, 1), (5, 40, 1), (11, 40, 1),
     (3, 600, 7), (8, 600, 7)],
)
def test_every_interleaved_truncation_agrees_across_tiers(k, size, step):
    """A cut interleaved block is rejected by both tiers or decoded alike —
    the fast tier never walks past the last zero into garbage symbols.
    600 symbols take the blocked (jump-table) walk of ``orbit``."""
    symbols = _interleaved_symbols(k, size)
    block = rice_encode(symbols, k=k)
    assert rice_decode(block) == symbols.tolist()
    for cut in range(0, len(block) + 1, step):
        fast = _outcome(rice_decode, block[:cut])
        assert fast == _outcome(rice_decode_scalar, block[:cut]), cut
        if not isinstance(fast, type):
            assert min(fast, default=0) >= 0, cut


# -- RLE run streams --------------------------------------------------------------------

@pytest.fixture(scope="module")
def coefficient_stream():
    return LosslessWaveletCodec("F2", scales=4, engine="fast").encode(shepp_logan(128))


def _with_run_payload(stream, kind, scale, run_payload):
    chunks = [
        dataclasses.replace(chunk, run_payload=run_payload)
        if (chunk.kind, chunk.scale) == (kind, scale)
        else chunk
        for chunk in stream.chunks
    ]
    return dataclasses.replace(stream, chunks=chunks)


@pytest.mark.parametrize("engine", ["fast", "scalar"])
def test_huge_rle_run_fails_in_bounded_memory(coefficient_stream, engine):
    """One ten-byte run stream declaring 2**27 zeros in a 64x64 band."""
    run_payload = rice_encode_planar([2**27])
    assert len(run_payload) == 10
    stream = _with_run_payload(coefficient_stream, "GG", 1, run_payload)
    codec = LosslessWaveletCodec("F2", scales=4, engine=engine)
    _assert_bounded_failure(ValueError, codec.decode, stream)


@pytest.mark.parametrize("engine", ["fast", "scalar"])
@pytest.mark.parametrize(
    "runs",
    [[4095], [4097], [4095, 0, 0], [0] * 4096, []],
    ids=["one-short", "one-over", "extra-literal-slot", "literal-slots-only", "empty"],
)
def test_rle_streams_must_fill_the_band(coefficient_stream, engine, runs):
    """Runs plus literal slots must fill the band, one slot per literal."""
    stream = _with_run_payload(coefficient_stream, "GG", 1, rice_encode_planar(runs))
    codec = LosslessWaveletCodec("F2", scales=4, engine=engine)
    with pytest.raises(ValueError, match="RLE"):
        codec.decode(stream)


# -- Declared band shapes ---------------------------------------------------------------

#: A 64x64, 3-scale stream whose GG@1 band declares a far larger shape.
#: The RLE trick costs ten bytes (one run filling the declared band), the
#: s-transform one a 1 MiB-symbol block of zeros; decoding either as
#: declared would allocate many times the memory cap.
RLE_SIDE = 4096
PLAIN_SIDE = 1024


def _hostile_band_stream(codec_name):
    image = shepp_logan(64)
    if codec_name == "coefficient":
        stream = LosslessWaveletCodec("F2", scales=3, use_rle=True).encode(image)
        chunks = [
            dataclasses.replace(
                chunk,
                shape=(RLE_SIDE, RLE_SIDE),
                payload=rice_encode_planar([]),
                run_payload=rice_encode_planar([RLE_SIDE * RLE_SIDE]),
            )
            if (chunk.kind, chunk.scale) == ("GG", 1)
            else chunk
            for chunk in stream.chunks
        ]
        return dataclasses.replace(stream, chunks=chunks)
    stream = STransformCodec(scales=3).encode(image)
    stream.chunks[("GG", 1)] = rice_encode_planar(
        np.zeros(PLAIN_SIDE * PLAIN_SIDE, dtype=np.int64), k=0
    )
    stream.shapes[("GG", 1)] = (PLAIN_SIDE, PLAIN_SIDE)
    return stream


@pytest.fixture(scope="module", params=["coefficient", "s-transform"])
def hostile_band_stream(request):
    return request.param, _hostile_band_stream(request.param)


@pytest.mark.parametrize("engine", ["fast", "scalar"])
@pytest.mark.parametrize("layout", ["frame-major", "subband-major"])
def test_declared_band_shape_is_checked_before_decode(hostile_band_stream, layout, engine):
    """Shapes read from a payload must fit the image before they size anything."""
    codec_name, stream = hostile_band_stream
    mint = _serialize_frame_major if layout == "frame-major" else serialize_stream
    stored = deserialize_stream(mint(stream))
    if codec_name == "coefficient":
        codec = LosslessWaveletCodec("F2", scales=3, engine=engine)
    else:
        codec = STransformCodec(scales=3, engine=engine)
    _assert_bounded_failure(ValueError, codec.decode, stored)
    _assert_bounded_failure(ValueError, codec.decode_pyramid, stored)
    for at_scale in (0, 2):
        _assert_bounded_failure(ValueError, codec.decode_preview, stored, at_scale)

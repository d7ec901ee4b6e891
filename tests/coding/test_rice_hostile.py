"""Hostile Rice headers: typed errors, bounded time and memory.

A planar block's declared symbol count sizes both of its planes, so every
decoder tier checks it against the bytes actually present before sizing
anything from it: the remainder plane must fit, and the unary plane must
hold at least one bit per symbol.  A legacy interleaved block's count is
checked against the code terminators (zeros) its bits hold.  A lying
header must fail fast with ``EOFError`` (or ``ValueError`` for a parameter
out of range), never by allocating what it declares.  A decoder given the
largest symbol its caller accepts (the s-transform codec's
``4 * (2**bit_depth - 1)``) rejects any symbol above it with
``ValueError``, checking each quotient before the shift that could wrap
its ``int32`` output.  Interleaved blocks
stay readable for read-compat, so their hostile headers and truncations
are checked here too, against the bit-by-bit reference.  An RLE run
stream's lengths are checked against its band's shape before any band is
sized from them, and every band's declared shape is checked against the
image geometry before any decoder sizes a band from it.  The image
geometry itself is held to the frame ceiling (``MAX_FRAME_PIXELS``) by
the payload parsers, the codecs and the writer alike.
"""

import dataclasses
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.archive import ArchiveReader, ArchiveWriter
from repro.archive.format import ArchiveFormatError
from repro.archive.serialize import (
    PAYLOAD_HEAD_SIZE,
    _serialize_frame_major,
    deserialize_stream,
    is_subband_major,
    parse_section_table,
    payload_spec,
    serialize_stream,
)
from repro.coding.codec import LosslessWaveletCodec
from repro.coding.rice import (
    PLANAR_FLAG,
    _orbit,
    rice_decode,
    rice_decode_planar_blocks,
    rice_decode_scalar,
    rice_encode_planar,
    rice_encode_planar_blocks,
    rice_encode_scalar,
)
from repro.coding.s_transform import STransformCodec, _symbol_limit
from repro.dwt.subbands import check_image_shape
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
    block = rice_encode_scalar(_interleaved_symbols(k, 20), k=k)
    count = _terminators_after_header(block) + 1
    with pytest.raises(EOFError):
        decode(_header(k, count, flag=0) + block[5:])


@pytest.mark.parametrize("k", INTERLEAVED_PARAMETERS)
def test_interleaved_smaller_count_decodes_a_prefix(decode, k):
    symbols = _interleaved_symbols(k, 20)
    block = rice_encode_scalar(symbols, k=k)
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


@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize("k", [31, 64, 127])
def test_interleaved_parameter_out_of_range(decode, k, count):
    """Checked once per block, before any symbol: an empty block too."""
    with pytest.raises(ValueError, match="Rice parameter"):
        decode(_header(k, count, flag=0) + bytes(8))


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
    600 symbols take the blocked (jump-table) walk of ``_orbit``."""
    symbols = _interleaved_symbols(k, size)
    block = rice_encode_scalar(symbols, k=k)
    assert rice_decode(block) == symbols.tolist()
    for cut in range(0, len(block) + 1, step):
        fast = _outcome(rice_decode, block[:cut])
        assert fast == _outcome(rice_decode_scalar, block[:cut]), cut
        if not isinstance(fast, type):
            assert min(fast, default=0) >= 0, cut


def test_orbit_matches_scalar_walk(rng):
    n = 500
    successor = np.minimum(
        np.arange(n) + rng.integers(1, 5, size=n), n - 1
    ).astype(np.int32)
    for count in (0, 1, 7, 64, 129, 400):
        expected = []
        position = 3
        for _ in range(count):
            expected.append(position)
            position = int(successor[position])
        assert _orbit(successor, 3, count).tolist() == expected


def test_orbit_blocked_path():
    n = 10_000
    successor = np.minimum(np.arange(n) + 2, n - 1).astype(np.int32)
    assert _orbit(successor, 0, 4000).tolist() == list(range(0, 8000, 2))


# -- Declared bit depth -----------------------------------------------------------------

#: The s-transform codec's symbol limit at 12 bits: ``4 * (2**12 - 1)``.
LIMIT = _symbol_limit(12)
LIMITED_DECODERS = {
    "fast": lambda block: rice_decode_planar_blocks([block], LIMIT)[0].tolist(),
    "scalar": lambda block: rice_decode_scalar(block, LIMIT),
}
ENCODERS = {"planar": rice_encode_planar, "interleaved": rice_encode_scalar}
#: Parameters around the limit's width (16380 is 14 bits): ``k = 4`` puts
#: ``LIMIT + 1`` on the limit's own quotient with a larger remainder.
LIMIT_PARAMETERS = [0, 1, 4, 13, 14, 20]


@pytest.fixture(params=sorted(LIMITED_DECODERS))
def limited_decode(request):
    return LIMITED_DECODERS[request.param]


def test_the_limit_is_the_zigzag_of_the_extreme_gg():
    assert LIMIT == 16380
    assert [_symbol_limit(depth) for depth in (1, 16)] == [4, 4 * 0xFFFF]


@pytest.mark.parametrize("k", LIMIT_PARAMETERS)
@pytest.mark.parametrize("layout", sorted(ENCODERS))
def test_a_symbol_at_the_limit_decodes(limited_decode, layout, k):
    block = ENCODERS[layout]([0, LIMIT, 7], k=k)
    assert limited_decode(block) == [0, LIMIT, 7]


@pytest.mark.parametrize("k", LIMIT_PARAMETERS)
@pytest.mark.parametrize("layout", sorted(ENCODERS))
def test_one_past_the_limit_fails(limited_decode, layout, k):
    block = ENCODERS[layout]([0, LIMIT + 1, 7], k=k)
    _assert_bounded_failure(ValueError, limited_decode, block)
    # Without a limit the same block decodes in int64, as before.
    assert rice_decode(block) == [0, LIMIT + 1, 7]


@pytest.mark.parametrize("symbol", [1 << 32, (1 << 32) + 5, (1 << 32) + LIMIT])
@pytest.mark.parametrize("layout", sorted(ENCODERS))
def test_a_quotient_that_would_wrap_int32_fails_before_the_shift(
    limited_decode, layout, symbol
):
    """``k = 20`` and a quotient of ``2**12``: shifted in ``int32`` the
    symbol would wrap to a value within the limit."""
    block = ENCODERS[layout]([3, symbol], k=20)
    assert 0 <= np.int64(symbol).astype(np.int32) <= LIMIT
    _assert_bounded_failure(ValueError, limited_decode, block)


def test_the_limited_batch_is_int32_and_equals_the_int64_one():
    rng = np.random.default_rng(17)
    blocks = [rng.integers(0, LIMIT + 1, size=n) for n in (40, 0, 300, 9)]
    blocks.append(np.full(12, LIMIT))
    payloads = rice_encode_planar_blocks(blocks) + [rice_encode_scalar(blocks[0])]
    wide = rice_decode_planar_blocks(payloads)
    narrow = rice_decode_planar_blocks(payloads, LIMIT)
    assert {block.dtype for block in wide} == {np.dtype(np.int64)}
    assert {block.dtype for block in narrow} == {np.dtype(np.int32)}
    for w, n in zip(wide, narrow, strict=True):
        np.testing.assert_array_equal(w, n)


def test_one_block_over_the_limit_fails_its_whole_frame():
    symbols = [np.arange(50), np.array([LIMIT + 1]), np.zeros(20, dtype=np.int64)]
    frame = rice_encode_planar_blocks(symbols)
    _assert_bounded_failure(ValueError, rice_decode_planar_blocks, frame, LIMIT)
    assert [block.tolist() for block in rice_decode_planar_blocks(frame)] == [
        block.tolist() for block in symbols
    ]


def _limit_cases():
    over = [0, LIMIT + 1, 0]
    cases = {}
    for layout, encode in ENCODERS.items():
        for k in (0, 4, 20):
            cases[f"{layout}-k{k}-at"] = encode([0, LIMIT, 0], k=k)
            cases[f"{layout}-k{k}-over"] = encode(over, k=k)
            # Over the limit and cut short: both tiers read the block whole
            # first, so both report the truncation.
            cases[f"{layout}-k{k}-over-cut"] = encode(over, k=k)[:-1]
        cases[f"{layout}-wrap"] = encode([1 << 32], k=20)
    return cases


LIMIT_CASES = _limit_cases()


@pytest.mark.parametrize("case", sorted(LIMIT_CASES))
def test_the_tiers_fail_alike_under_the_limit(case):
    block = LIMIT_CASES[case]
    fast = _outcome(LIMITED_DECODERS["fast"], block)
    assert fast == _outcome(LIMITED_DECODERS["scalar"], block)
    expected = (
        [0, LIMIT, 0] if case.endswith("-at") else
        EOFError if case.endswith("-cut") else ValueError
    )
    assert fast == expected


@pytest.mark.parametrize("engine", ["fast", "scalar"])
@pytest.mark.parametrize("bit_depth", [1, 12, 16])
def test_a_band_over_the_declared_depth_fails_the_codec(engine, bit_depth):
    """One GG@1 symbol past the limit of the codec's bit depth; a symbol at
    the limit decodes."""
    image = np.zeros((64, 64), dtype=np.int64)
    codec = STransformCodec(scales=3, bit_depth=bit_depth, engine=engine)
    stream = codec.encode(image)
    limit = _symbol_limit(bit_depth)
    symbols = np.zeros(32 * 32, dtype=np.int64)
    symbols[5] = limit
    stream.chunks[("GG", 1)] = rice_encode_planar(symbols)
    assert codec.decode(stream).dtype == np.int64
    symbols[5] = limit + 1
    stream.chunks[("GG", 1)] = rice_encode_planar(symbols)
    for call, *args in (
        (codec.decode,),
        (codec.decode_pyramid,),
        (codec.decode_preview, 0),
        (codec.decode_roi, 0, 8),
    ):
        _assert_bounded_failure(ValueError, call, stream, *args)
    # GG@1 is not read for a scale-1 preview.
    assert codec.decode_preview(stream, 1).shape == (32, 32)


@pytest.mark.parametrize("engine", ["fast", "scalar"])
def test_the_limit_follows_the_streams_declared_depth(engine):
    """A 16-bit stream decodes under a codec configured for 12 bits (the
    stream's own depth sets the limit); a stream declaring a depth outside
    [1, 16] fails before anything is decoded."""
    rows, columns = np.indices((64, 64))
    image = np.where((rows + columns) % 2, 0xFFFF, 0).astype(np.int64)
    stream = STransformCodec(scales=3, bit_depth=16).encode(image)
    codec = STransformCodec(scales=3, bit_depth=12, engine=engine)
    np.testing.assert_array_equal(codec.decode(stream), image)
    stream.bit_depth = 12
    _assert_bounded_failure(ValueError, codec.decode, stream)
    for depth in (0, 17, 255):
        stream.bit_depth = depth
        with pytest.raises(ValueError, match="bit depth"):
            codec.decode(stream)


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


# -- Declared image shape ---------------------------------------------------------------

#: A side well past the frame ceiling (32768**2 = 2**30 pixels), in a
#: stream whose every band agrees with it: each coefficient detail band is
#: one run of zeros, and the 6-scale HH band holds its 512**2 zero symbols.
#: Decoding it as declared would size 8 GiB arrays from ~33 KiB of bytes.
HUGE_SIDE = 1 << 15
CEILING_SIDE = 1 << 13  # 8192**2 is MAX_FRAME_PIXELS exactly


def _consistent_stream(codec_name, side, scales=6):
    """A stream whose bands all fit a ``side x side`` image."""
    image = shepp_logan(64)
    if codec_name == "coefficient":
        stream = LosslessWaveletCodec("F2", scales=scales, use_rle=True).encode(image)
        chunks = []
        for chunk in stream.chunks:
            shape = (side >> chunk.scale, side >> chunk.scale)
            pixels = shape[0] * shape[1]
            if chunk.kind == "HH":
                zeros = np.zeros(pixels, dtype=np.uint8)
                chunk = dataclasses.replace(
                    chunk, shape=shape, payload=rice_encode_planar(zeros, k=0)
                )
            else:
                chunk = dataclasses.replace(
                    chunk,
                    shape=shape,
                    payload=rice_encode_planar([]),
                    run_payload=rice_encode_planar([pixels]),
                )
            chunks.append(chunk)
        return dataclasses.replace(stream, chunks=chunks, image_shape=(side, side))
    stream = STransformCodec(scales=scales).encode(image)
    stream.image_shape = (side, side)
    for kind, scale in stream.shapes:
        stream.shapes[(kind, scale)] = (side >> scale, side >> scale)
    return stream


def _codec_for(codec_name, engine, scales=6):
    if codec_name == "coefficient":
        return LosslessWaveletCodec("F2", scales=scales, use_rle=True, engine=engine)
    return STransformCodec(scales=scales, engine=engine)


@pytest.fixture(scope="module", params=["coefficient", "s-transform"])
def huge_stream(request):
    return request.param, _consistent_stream(request.param, HUGE_SIDE)


@pytest.mark.parametrize("engine", ["fast", "scalar"])
def test_image_shape_above_the_ceiling_fails_before_decode(huge_stream, engine):
    codec_name, stream = huge_stream
    codec = _codec_for(codec_name, engine)
    for call, *args in (
        (codec.decode,),
        (codec.decode_pyramid,),
        (codec.decode_preview, 0),
        (codec.decode_preview, 5),
    ):
        with pytest.raises(ValueError, match="frame ceiling"):
            call(stream, *args)
        _assert_bounded_failure(ValueError, call, stream, *args)


def test_the_ceiling_is_the_servers_ingest_cap():
    from repro.archive import server
    from repro.dwt import subbands

    assert server.MAX_FRAME_PIXELS is subbands.MAX_FRAME_PIXELS
    assert CEILING_SIDE * CEILING_SIDE == subbands.MAX_FRAME_PIXELS


@pytest.mark.parametrize(
    "shape",
    [(CEILING_SIDE, CEILING_SIDE), (1, 1 << 26), (1 << 26, 1), (0, 0), (64, 64)],
)
def test_shapes_within_the_ceiling_pass(shape):
    check_image_shape(shape)


@pytest.mark.parametrize(
    "shape",
    [
        (CEILING_SIDE, CEILING_SIDE + 1),
        (CEILING_SIDE + 1, CEILING_SIDE),
        (1 << 26 | 1, 1),
        (0xFFFFFFFF, 0),
        (0xFFFFFFFF, 0xFFFFFFFF),
        (-1, 64),
    ],
)
def test_shapes_above_the_ceiling_fail(shape):
    with pytest.raises(ValueError, match="frame ceiling"):
        check_image_shape(shape)


def _with_geometry(payload, rows, columns):
    """``payload`` with its prologue's rows and columns rewritten (and a
    subband-major table's CRC restamped, so only the geometry is wrong)."""
    data = bytearray(payload)
    if is_subband_major(payload):
        meta_start = PAYLOAD_HEAD_SIZE
        (meta_len,) = struct.unpack_from("<I", data, 5)
    else:
        meta_start = 4
    # The prologue: codec id (u8), scales (u8), rows (u32), columns (u32).
    struct.pack_into(">II", data, meta_start + 2, rows, columns)
    if is_subband_major(payload):
        meta = bytes(data[meta_start : meta_start + meta_len])
        struct.pack_into("<I", data, meta_start + meta_len, zlib.crc32(meta))
    return bytes(data)


@pytest.fixture(scope="module", params=["coefficient", "s-transform"])
def small_stream(request):
    return request.param, _consistent_stream(request.param, 64, scales=3)


MINTS = {"frame-major": _serialize_frame_major, "subband-major": serialize_stream}


@pytest.mark.parametrize("layout", sorted(MINTS))
@pytest.mark.parametrize(
    "shape", [(HUGE_SIDE, HUGE_SIDE), (0xFFFFFFFF, 0xFFFFFFFF), (1, 1 << 26 | 1)]
)
def test_payload_geometry_above_the_ceiling_is_a_format_error(
    small_stream, layout, shape
):
    _, stream = small_stream
    payload = _with_geometry(MINTS[layout](stream), *shape)
    parsers = [deserialize_stream, payload_spec]
    if layout == "subband-major":
        parsers.append(parse_section_table)
    for parse in parsers:
        with pytest.raises(ArchiveFormatError, match="frame ceiling"):
            parse(payload)
        _assert_bounded_failure(ArchiveFormatError, parse, payload)


@pytest.mark.parametrize("layout", sorted(MINTS))
def test_a_table_at_the_ceiling_still_parses(small_stream, layout):
    codec_name, stream = small_stream
    payload = _with_geometry(MINTS[layout](stream), CEILING_SIDE, CEILING_SIDE)
    if layout == "subband-major":
        table = parse_section_table(payload)
        assert table.image_shape == (CEILING_SIDE, CEILING_SIDE)
    assert payload_spec(payload) == payload_spec(MINTS[layout](stream))
    stored = deserialize_stream(payload)
    assert stored.image_shape == (CEILING_SIDE, CEILING_SIDE)
    # Its 64x64 bands do not fit an 8192x8192 image: the band check, not
    # the ceiling, rejects it, before anything is decoded.
    codec = _codec_for(codec_name, "fast", scales=3)
    _assert_bounded_failure(ValueError, codec.decode, stored)


@pytest.mark.parametrize("layout", sorted(MINTS))
def test_the_writer_refuses_a_geometry_no_reader_accepts(
    small_stream, layout, tmp_path
):
    codec_name, stream = small_stream
    at_ceiling = dataclasses.replace(stream, image_shape=(CEILING_SIDE, CEILING_SIDE))
    assert parse_section_table(serialize_stream(at_ceiling)).image_shape == (
        CEILING_SIDE,
        CEILING_SIDE,
    )
    above = dataclasses.replace(stream, image_shape=(CEILING_SIDE + 1, CEILING_SIDE))
    with pytest.raises(ValueError, match="frame ceiling"):
        MINTS[layout](above)
    path = tmp_path / "refused.dwta"
    with ArchiveWriter.create(path, codec=codec_name, scales=3) as writer:
        with pytest.raises(ValueError, match="frame ceiling"):
            writer.add_stream(above, "too-big")
        assert writer.frame_names == []
        writer.add_stream(stream, "fits")
    with ArchiveReader(path) as reader:
        assert [entry.name for entry in reader.frames] == ["fits"]

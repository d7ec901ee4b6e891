"""The canonical zero-run block of a zero-free RLE band.

A detail band with no zero coefficient RLE-codes to its literals and a run
stream of one literal marker (a 0 symbol) per pixel, whose planar Rice
block has fixed bytes: :func:`rice_zero_block`.  The fast tier writes that
block from the band's pixel count instead of coding it, and on decode
takes a run payload equal to it as "the band is its literals" instead of
decoding it.  The bytes must be the coders' own; every other run payload
(a band with a zero, a block one bit off canonical, a legacy interleaved
block) must take the general path; and a literal block of the wrong size
must fail with the same error as the general path's size check.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.coding.codec as codec_module
from repro.coding.codec import LosslessWaveletCodec
from repro.coding.rice import (
    is_rice_zero_block,
    rice_decode_array,
    rice_encode_planar,
    rice_encode_planar_blocks,
    rice_encode_planar_scalar,
    rice_encode_scalar,
    rice_zero_block,
)
from repro.imaging.phantoms import ct_slice_series

COUNTS = list(range(1, 71)) + [4096, 65536]
WORDS = [np.uint8, np.uint16, np.uint32, np.int64]


# -- the block's bytes --------------------------------------------------------------------

@pytest.mark.parametrize("count", COUNTS)
def test_zero_block_is_the_coders_bytes(count):
    zeros = np.zeros(count, dtype=np.int64)
    block = rice_zero_block(count)
    assert block == rice_encode_planar_scalar(zeros)
    neighbours = [np.arange(1, 40, dtype=np.int64), np.full(9, 1000, dtype=np.int64)]
    assert rice_encode_planar_blocks([neighbours[0], zeros, neighbours[1]])[1] == block
    assert is_rice_zero_block(block, count)
    assert is_rice_zero_block(memoryview(block), count)
    assert not is_rice_zero_block(block, count + 1)
    assert rice_decode_array(block).tolist() == [0] * count


@settings(max_examples=60, deadline=None)
@given(count=st.integers(0, 5000), word=st.sampled_from(WORDS))
def test_zero_block_equals_the_batch_coder_in_any_word(count, word):
    zeros = np.zeros(count, dtype=word)
    assert rice_encode_planar_blocks([zeros])[0] == rice_zero_block(count)
    assert rice_encode_planar(zeros) == rice_zero_block(count)


# -- the codec's use of it ----------------------------------------------------------------

SCALES = 3


def _codec(engine):
    return LosslessWaveletCodec("F2", scales=SCALES, engine=engine)


@pytest.fixture(scope="module")
def image():
    return ct_slice_series(count=1, size=64, seed=1)[0]


@pytest.fixture(scope="module")
def stream(image):
    return _codec("fast").encode(image)


def _replace_chunk(stream, kind, scale, **changes):
    chunks = [
        dataclasses.replace(chunk, **changes)
        if (chunk.kind, chunk.scale) == (kind, scale)
        else chunk
        for chunk in stream.chunks
    ]
    return dataclasses.replace(stream, chunks=chunks)


def _outcome(codec, stream):
    """The decoded image's bytes, or the error's type and text."""
    try:
        return codec.decode(stream).tobytes()
    except (EOFError, ValueError) as exc:
        return type(exc), str(exc)


def _general_path_outcome(monkeypatch, stream):
    """The fast tier's outcome with no run payload taken as canonical:
    the path every run payload took before the canonical exit."""
    with monkeypatch.context() as patch:
        patch.setattr(codec_module, "is_rice_zero_block", lambda data, count: False)
        return _outcome(_codec("fast"), stream)


def test_the_test_frame_has_zero_free_bands(stream):
    zero_free = [
        chunk
        for chunk in stream.chunks
        if chunk.use_rle
        and chunk.run_payload == rice_zero_block(chunk.shape[0] * chunk.shape[1])
    ]
    assert len(zero_free) == 3 * SCALES


def test_canonical_run_blocks_are_neither_coded_nor_decoded(monkeypatch, image):
    coded, decoded = [], []
    real_encode = codec_module.rice_encode_planar_flat
    real_decode = codec_module.rice_decode_planar_blocks

    def encode(symbols, counts):
        coded.append(len(counts))
        return real_encode(symbols, counts)

    def decode(payloads):
        payloads = list(payloads)
        decoded.append(len(payloads))
        return real_decode(payloads)

    monkeypatch.setattr(codec_module, "rice_encode_planar_flat", encode)
    monkeypatch.setattr(codec_module, "rice_decode_planar_blocks", decode)
    codec = _codec("fast")
    stream = codec.encode(image)
    assert np.array_equal(codec.decode(stream), image)
    # The approximation and the nine detail bands' literals, no run block.
    assert coded == decoded == [1 + 3 * SCALES]


def test_a_band_with_one_zero_takes_the_general_path(monkeypatch, image):
    pyramid = _codec("fast").forward_transform(image)
    band = pyramid.details[0].gg
    assert band.all()
    band[3, 5] = 0
    calls = []
    real = codec_module.rle_encode_arrays
    monkeypatch.setattr(
        codec_module,
        "rle_encode_arrays",
        lambda values: calls.append(values.size) or real(values),
    )
    fast = _codec("fast").encode_pyramid(pyramid, image.shape)
    assert calls == [band.size]
    scalar = _codec("scalar").encode_pyramid(pyramid, image.shape)
    assert fast.chunks == scalar.chunks
    chunk = fast.chunk("GG", 1)
    assert not is_rice_zero_block(chunk.run_payload, band.size)
    assert np.count_nonzero(rice_decode_array(chunk.run_payload)) == 1
    for engine in ("fast", "scalar"):
        decoded = _codec(engine).decode_pyramid(fast)
        assert np.array_equal(decoded.details[0].gg, band)


@pytest.mark.parametrize("engine", ["fast", "scalar"])
@pytest.mark.parametrize("missing", [1, 17])
def test_canonical_marker_with_too_few_literals_fails_the_size_check(
    stream, engine, missing
):
    chunk = stream.chunk("GG", 1)
    pixels = chunk.shape[0] * chunk.shape[1]
    assert is_rice_zero_block(chunk.run_payload, pixels)
    literals = rice_decode_array(chunk.payload)
    short = _replace_chunk(stream, "GG", 1, payload=rice_encode_planar(literals[missing:]))
    message = (
        f"RLE streams decode to {pixels} values with {pixels} literal slots "
        f"({pixels - missing} literals), expected {pixels} values"
    )
    assert _outcome(_codec(engine), short) == (ValueError, message)


@pytest.mark.parametrize("engine", ["fast", "scalar"])
def test_canonical_marker_with_too_many_literals_fails_the_header_check(stream, engine):
    chunk = stream.chunk("GG", 1)
    literals = rice_decode_array(chunk.payload)
    long = _replace_chunk(
        stream, "GG", 1, payload=rice_encode_planar(np.concatenate([literals, [7]]))
    )
    kind, message = _outcome(_codec(engine), long)
    assert kind is ValueError and "declares" in message


def test_every_one_bit_flip_of_the_marker_fails_or_decodes_as_before(monkeypatch, stream):
    """A block one bit off canonical takes the general path: each flip of
    the 8x8 band's 13-byte marker ends exactly as it did without the
    canonical exit, on the fast tier and on the scalar one."""
    chunk = stream.chunk("GG", SCALES)
    marker = chunk.run_payload
    assert marker == rice_zero_block(64) and len(marker) == 13
    for bit in range(8 * len(marker)):
        flipped = bytearray(marker)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        hostile = _replace_chunk(stream, "GG", SCALES, run_payload=bytes(flipped))
        expected = _general_path_outcome(monkeypatch, hostile)
        assert _outcome(_codec("fast"), hostile) == expected, bit
        scalar = _outcome(_codec("scalar"), hostile)
        assert isinstance(scalar, tuple) == isinstance(expected, tuple), bit
        if not isinstance(expected, tuple):
            assert scalar == expected, bit


@pytest.mark.parametrize("engine", ["fast", "scalar"])
def test_a_legacy_interleaved_zero_run_block_still_decodes(stream, image, engine):
    legacy = stream
    for chunk in stream.chunks:
        pixels = chunk.shape[0] * chunk.shape[1]
        if chunk.use_rle and is_rice_zero_block(chunk.run_payload, pixels):
            block = rice_encode_scalar(np.zeros(pixels, dtype=np.int64))
            legacy = _replace_chunk(legacy, chunk.kind, chunk.scale, run_payload=block)
    assert legacy != stream
    assert np.array_equal(_codec(engine).decode(legacy), image)
    for at_scale in range(SCALES + 1):
        assert np.array_equal(
            _codec(engine).decode_preview(legacy, at_scale),
            _codec("scalar").decode_preview(stream, at_scale),
        )


def test_a_canonical_stream_round_trips_across_engines(stream, image):
    scalar_stream = _codec("scalar").encode(image)
    assert scalar_stream.chunks == stream.chunks
    for engine in ("fast", "scalar"):
        assert np.array_equal(_codec(engine).decode(stream), image)

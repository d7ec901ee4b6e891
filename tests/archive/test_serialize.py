"""Frame-payload serialisation: compressed streams survive the byte trip."""

import numpy as np
import pytest

from repro.archive.format import ArchiveFormatError
from repro.archive.serialize import (
    _serialize_frame_major,
    deserialize_stream,
    serialize_stream,
)
from repro.coding import LosslessWaveletCodec, STransformCodec
from repro.imaging import shepp_logan

pytestmark = pytest.mark.archive


@pytest.fixture(scope="module")
def image():
    return shepp_logan(32)


def _assert_coefficient_equal(a, b):
    assert a.bank_name == b.bank_name
    assert a.scales == b.scales
    assert a.image_shape == b.image_shape
    assert a.bit_depth == b.bit_depth
    assert a.chunks == b.chunks


def test_s_transform_stream_roundtrip(image):
    codec = STransformCodec(scales=3)
    stream = codec.encode(image)
    recovered = deserialize_stream(serialize_stream(stream))
    assert recovered.scales == stream.scales
    assert recovered.image_shape == stream.image_shape
    assert recovered.bit_depth == stream.bit_depth
    assert recovered.chunks == stream.chunks
    assert recovered.shapes == stream.shapes
    assert np.array_equal(codec.decode(recovered), image)


@pytest.mark.parametrize("use_rle", [True, False])
def test_coefficient_stream_roundtrip(image, use_rle):
    codec = LosslessWaveletCodec(bank="F2", scales=2, use_rle=use_rle)
    stream = codec.encode(image)
    recovered = deserialize_stream(serialize_stream(stream))
    _assert_coefficient_equal(recovered, stream)
    assert np.array_equal(codec.decode(recovered), image)


def test_payload_is_deterministic(image):
    stream = STransformCodec(scales=2).encode(image)
    assert serialize_stream(stream) == serialize_stream(stream)


def test_truncated_payload_raises(image):
    payload = _serialize_frame_major(STransformCodec(scales=2).encode(image))
    with pytest.raises(ArchiveFormatError):
        deserialize_stream(payload[: len(payload) // 2])
    with pytest.raises(ArchiveFormatError, match="length prefix"):
        deserialize_stream(payload[:3])


def test_trailing_bytes_raise(image):
    payload = _serialize_frame_major(STransformCodec(scales=2).encode(image))
    with pytest.raises(ArchiveFormatError, match="trailing bytes"):
        deserialize_stream(payload + b"\x00")


def test_unknown_codec_id_raises(image):
    payload = bytearray(_serialize_frame_major(STransformCodec(scales=2).encode(image)))
    payload[4] = 0xEE  # first meta byte is the codec id
    with pytest.raises(ArchiveFormatError, match="unknown codec id"):
        deserialize_stream(bytes(payload))


def test_word_length_metadata_guard(image):
    """A doctored word-length field must be rejected, not silently decoded."""
    payload = bytearray(
        _serialize_frame_major(LosslessWaveletCodec(scales=2).encode(image))
    )
    # meta layout: codec_id, scales, h(4), w(4), bit_depth, bank_len, "F2",
    # then word_length — offset 4 (prefix) + 11 + 1 + 2 = 18.
    offset = 4 + 11 + 1 + 2
    assert payload[offset] == 32
    payload[offset] = 16
    with pytest.raises(ArchiveFormatError, match="word-length plan"):
        deserialize_stream(bytes(payload))

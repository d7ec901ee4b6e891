"""Tests for the two lossless codecs (coefficient-exact and S-transform)."""

import numpy as np
import pytest

from repro.coding.codec import LosslessWaveletCodec
from repro.coding.s_transform import (
    STransformCodec,
    s_transform_forward_1d,
    s_transform_forward_2d,
    s_transform_inverse_1d,
    s_transform_inverse_2d,
)
from repro.imaging.phantoms import checkerboard, gradient_image, random_image, shepp_logan


class TestLosslessWaveletCodec:
    @pytest.fixture(scope="class")
    def codec(self):
        return LosslessWaveletCodec("F2", scales=3)

    def test_round_trip_ct_phantom(self, codec, ct_image_64):
        reconstructed, stream = codec.roundtrip(ct_image_64)
        assert np.array_equal(reconstructed, ct_image_64)
        assert stream.compressed_bytes > 0

    def test_round_trip_random_image(self, codec, random_image_64):
        reconstructed, _ = codec.roundtrip(random_image_64)
        assert np.array_equal(reconstructed, random_image_64)

    def test_round_trip_all_banks(self, random_image_32):
        for bank_name in ("F1", "F4", "F5"):
            codec = LosslessWaveletCodec(bank_name, scales=2)
            reconstructed, _ = codec.roundtrip(random_image_32)
            assert np.array_equal(reconstructed, random_image_32)

    def test_round_trip_without_rle(self, ct_image_64):
        codec = LosslessWaveletCodec("F2", scales=2, use_rle=False)
        reconstructed, stream = codec.roundtrip(ct_image_64)
        assert np.array_equal(reconstructed, ct_image_64)
        assert all(not chunk.use_rle for chunk in stream.chunks)

    def test_stream_accounting(self, codec, ct_image_64):
        stream = codec.encode(ct_image_64)
        assert stream.original_bytes == 64 * 64 * 12 // 8
        assert stream.bits_per_pixel == pytest.approx(
            8 * stream.compressed_bytes / (64 * 64)
        )
        assert set(stream.size_by_scale()) == {1, 2, 3}

    def test_chunk_lookup(self, codec, ct_image_64):
        stream = codec.encode(ct_image_64)
        assert stream.chunk("HH", 3).shape == (8, 8)
        with pytest.raises(KeyError):
            stream.chunk("HH", 1)

    def test_decoder_configuration_mismatch_rejected(self, codec, ct_image_64):
        stream = codec.encode(ct_image_64)
        other = LosslessWaveletCodec("F1", scales=3)
        with pytest.raises(ValueError):
            other.decode(stream)

    def test_rejects_out_of_range_image(self, codec):
        with pytest.raises(ValueError):
            codec.encode(np.full((16, 16), 5000, dtype=np.int64))

    def test_rejects_non_2d(self, codec):
        with pytest.raises(ValueError):
            codec.encode(np.zeros(64, dtype=np.int64))

    def test_invalid_bit_depth_rejected(self):
        with pytest.raises(ValueError):
            LosslessWaveletCodec("F2", scales=2, bit_depth=0)

    @pytest.mark.parametrize(
        "image, message",
        [
            (np.zeros(64, dtype=np.int64), "2-D images"),
            (np.full((16, 16), 5000, dtype=np.int64), "declared 12-bit range"),
        ],
        ids=["non-2d", "out-of-range"],
    )
    def test_forward_transform_validates_input(self, codec, image, message):
        # The pipeline calls forward_transform directly, so the checks live there.
        with pytest.raises(ValueError, match=message):
            codec.forward_transform(image)


class TestSTransform:
    def test_1d_round_trip(self, rng):
        signal = rng.integers(0, 4096, size=64)
        approx, detail = s_transform_forward_1d(signal)
        assert np.array_equal(s_transform_inverse_1d(approx, detail), signal)

    def test_1d_rejects_odd_length(self):
        with pytest.raises(ValueError):
            s_transform_forward_1d(np.arange(7))

    def test_1d_rejects_floats(self):
        with pytest.raises(ValueError):
            s_transform_forward_1d(np.linspace(0, 1, 8))

    def test_2d_round_trip(self, rng):
        image = rng.integers(0, 4096, size=(32, 32))
        pyramid = s_transform_forward_2d(image, 3)
        assert np.array_equal(s_transform_inverse_2d(pyramid), image)

    def test_2d_pyramid_structure(self):
        pyramid = s_transform_forward_2d(shepp_logan(64), 4)
        assert pyramid.scales == 4
        assert pyramid.approximation.shape == (4, 4)
        assert pyramid.details[0]["HG"].shape == (32, 32)

    def test_2d_scale_validation(self):
        with pytest.raises(ValueError):
            s_transform_forward_2d(np.zeros((24, 24), dtype=np.int64), 4)


class TestSTransformCodec:
    @pytest.fixture(scope="class")
    def codec(self):
        return STransformCodec(scales=4)

    @pytest.mark.parametrize(
        "image_factory",
        [shepp_logan, gradient_image, lambda size: checkerboard(size, tile=4),
         lambda size: random_image(size, seed=9)],
        ids=["ct", "gradient", "checkerboard", "random"],
    )
    def test_lossless_on_all_workloads(self, codec, image_factory):
        image = image_factory(64)
        reconstructed, _ = codec.roundtrip(image)
        assert np.array_equal(reconstructed, image)

    def test_compresses_smooth_medical_content(self, codec):
        _, stream = codec.roundtrip(shepp_logan(128))
        assert stream.compression_ratio > 1.0
        assert stream.bits_per_pixel < 12.0

    def test_random_images_do_not_compress(self, codec):
        _, stream = codec.roundtrip(random_image(64, seed=0))
        assert stream.compression_ratio < 1.1

    def test_scale_mismatch_rejected(self, codec):
        stream = codec.encode(shepp_logan(64))
        other = STransformCodec(scales=2)
        with pytest.raises(ValueError):
            other.decode(stream)

    def test_missing_band_rejected(self, codec):
        stream = codec.encode(shepp_logan(64))
        del stream.chunks[("GG", 1)]
        with pytest.raises(KeyError):
            codec.decode(stream)

    def test_range_validation(self, codec):
        with pytest.raises(ValueError):
            codec.encode(np.full((32, 32), 9999, dtype=np.int64))

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            STransformCodec(scales=0)
        with pytest.raises(ValueError):
            STransformCodec(bit_depth=40)

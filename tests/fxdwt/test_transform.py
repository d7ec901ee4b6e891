"""Tests for repro.fxdwt.transform (bit-accurate fixed-point DWT)."""

import numpy as np
import pytest

from repro.dwt.transform2d import fdwt_2d
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.wordlength import plan_word_lengths
from repro.fxdwt.transform import FixedPointDWT, quantize_filter


class TestQuantizeFilter:
    def test_round_trip_error_bounded(self, bank_f2):
        fmt = QFormat(32, 3)
        quantized = quantize_filter(bank_f2.h, fmt)
        real = quantized.to_real()
        original = [bank_f2.h[n] for n, _ in quantized.items()]
        assert np.max(np.abs(np.array(real) - np.array(original))) <= fmt.resolution

    def test_indices_preserved(self, bank_f2):
        fmt = QFormat(32, 3)
        quantized = quantize_filter(bank_f2.g, fmt)
        assert list(quantized.indices) == list(bank_f2.g.indices())
        assert len(quantized) == len(bank_f2.g)


class TestEngineConfiguration:
    def test_invalid_scales_rejected(self, bank_f2):
        with pytest.raises(ValueError):
            FixedPointDWT(bank_f2, 0)

    def test_invalid_rounding_rejected(self, bank_f2):
        with pytest.raises(ValueError):
            FixedPointDWT(bank_f2, 2, rounding="nearest_even")

    def test_plan_with_too_few_scales_rejected(self, bank_f2):
        plan = plan_word_lengths(bank_f2, 2)
        with pytest.raises(ValueError):
            FixedPointDWT(bank_f2, 4, plan=plan)


class TestForward:
    def test_pyramid_shapes(self, bank_f2, ct_image_64):
        engine = FixedPointDWT(bank_f2, 3)
        pyramid = engine.forward(ct_image_64)
        assert pyramid.scales == 3
        assert pyramid.approximation.shape == (8, 8)
        assert pyramid.details[0].hg.shape == (32, 32)

    def test_rejects_non_integer_image(self, bank_f2):
        engine = FixedPointDWT(bank_f2, 2)
        with pytest.raises(ValueError):
            engine.forward(np.random.default_rng(0).uniform(0, 1, (16, 16)))

    def test_rejects_out_of_range_image(self, bank_f2):
        engine = FixedPointDWT(bank_f2, 2)
        image = np.full((16, 16), 5000, dtype=np.int64)  # exceeds 13-bit signed
        with pytest.raises(Exception):
            engine.forward(image)

    def test_rejects_insufficient_scales(self, bank_f2):
        engine = FixedPointDWT(bank_f2, 5)
        with pytest.raises(ValueError):
            engine.forward(np.zeros((24, 24), dtype=np.int64))

    def test_matches_float_transform_closely(self, bank_f2, ct_image_64):
        engine = FixedPointDWT(bank_f2, 3)
        fx_pyramid = engine.forward(ct_image_64).to_float_pyramid()
        float_pyramid = fdwt_2d(ct_image_64.astype(float), bank_f2, 3)
        # The fixed-point result tracks the float transform to within the
        # accumulated quantisation of the 29-fractional-bit coefficients.
        diff = np.abs(fx_pyramid.approximation - float_pyramid.approximation)
        assert diff.max() < 0.1

    def test_max_abs_stored_within_word(self, any_bank, random_image_64):
        engine = FixedPointDWT(any_bank, 4)
        pyramid = engine.forward(random_image_64)
        for scale, magnitude in pyramid.max_abs_stored_per_scale().items():
            fmt = pyramid.format_for_scale(scale)
            assert magnitude <= fmt.max_int


class TestRoundTrip:
    def test_lossless_for_all_banks(self, any_bank, random_image_64):
        engine = FixedPointDWT(any_bank, 4)
        reconstructed, _ = engine.roundtrip(random_image_64)
        assert np.array_equal(reconstructed, random_image_64)

    def test_lossless_six_scales(self, bank_f2, random_image_64):
        engine = FixedPointDWT(bank_f2, 6)
        reconstructed, _ = engine.roundtrip(random_image_64)
        assert np.array_equal(reconstructed, random_image_64)

    def test_truncation_rounding_breaks_losslessness(self, bank_f2, ct_image_64):
        # The section 4.3 round-half-up rule is load-bearing: replacing it with
        # plain truncation biases every narrowing step downward and the round
        # trip is off by one LSB on this workload, while half-up is exact.
        exact = FixedPointDWT(bank_f2, 3, rounding="half_up")
        truncated = FixedPointDWT(bank_f2, 3, rounding="truncate")
        exact_rec, _ = exact.roundtrip(ct_image_64)
        truncated_rec, _ = truncated.roundtrip(ct_image_64)
        assert np.array_equal(exact_rec, ct_image_64)
        assert not np.array_equal(truncated_rec, ct_image_64)
        assert np.abs(truncated_rec - ct_image_64).max() <= 2

    def test_inverse_scale_mismatch_rejected(self, bank_f2, ct_image_64):
        pyramid = FixedPointDWT(bank_f2, 3).forward(ct_image_64)
        other = FixedPointDWT(bank_f2, 4)
        with pytest.raises(ValueError):
            other.inverse(pyramid)

    def test_word_too_short_for_dynamic_range_is_rejected(self, bank_f2):
        # A 20-bit word cannot even hold the 21 integer bits scale 4 requires,
        # which is exactly the failure mode Table II guards against.
        from repro.fixedpoint.errors import DynamicRangeError

        with pytest.raises(DynamicRangeError):
            plan_word_lengths(bank_f2, 4, word_length=20)


class TestPyramidAccessors:
    def test_detail_real_returns_floats(self, bank_f2, ct_image_64):
        pyramid = FixedPointDWT(bank_f2, 2).forward(ct_image_64)
        real = pyramid.detail_real(1)
        assert set(real) == {"HG", "GH", "GG"}
        assert real["HG"].dtype == float

    def test_to_float_pyramid_shapes(self, bank_f2, ct_image_64):
        pyramid = FixedPointDWT(bank_f2, 2).forward(ct_image_64)
        float_pyramid = pyramid.to_float_pyramid()
        assert float_pyramid.image_shape == (64, 64)


class TestReconstructPreview:
    """The module-level preview helper caches one engine per bank name,
    depth and rounding; a pyramid made on another word-length plan, or
    with another bank of the same name, must still be synthesised with
    its own plan and taps."""

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_each_pyramid_previews_with_its_own_plan(self, bank_f2, monkeypatch, order):
        from repro.fxdwt import transform

        monkeypatch.setattr(transform, "_PREVIEW_ENGINES", {})
        image = np.random.default_rng(4).integers(0, 4096, size=(32, 32))
        short = plan_word_lengths(bank_f2, 3, word_length=28)
        engines = [FixedPointDWT(bank_f2, 3), FixedPointDWT(bank_f2, 3, plan=short)]
        pyramids = [engine.forward(image) for engine in engines]
        for at_scale in (1, 2):
            for which in order:
                expected = engines[which].inverse_preview(pyramids[which], at_scale)
                got = transform.reconstruct_preview(pyramids[which], bank_f2, at_scale)
                assert np.array_equal(got, expected), (which, at_scale)

    def test_a_bank_sharing_a_name_gets_its_own_taps(self, bank_f2, monkeypatch):
        import dataclasses

        from repro.filters.catalog import get_bank
        from repro.fxdwt import transform

        monkeypatch.setattr(transform, "_PREVIEW_ENGINES", {})
        impostor = dataclasses.replace(get_bank("F1"), name=bank_f2.name)
        plan = plan_word_lengths(bank_f2, 3)
        image = np.random.default_rng(5).integers(0, 4096, size=(32, 32))
        for bank in (bank_f2, impostor):
            engine = FixedPointDWT(bank, 3, plan=plan)
            pyramid = engine.forward(image)
            got = transform.reconstruct_preview(pyramid, bank, 1)
            assert np.array_equal(got, engine.inverse_preview(pyramid, 1)), bank

"""Tests for the entropy-coding primitives (mapper, RLE, Rice)."""

import numpy as np
import pytest

from repro.coding.mapper import flatten_pyramid, zigzag_decode, zigzag_encode
from repro.coding.rice import (
    optimal_rice_parameter,
    rice_code_length,
    rice_decode,
    rice_encode_planar,
    rice_encode_planar_scalar,
    rice_encode_scalar,
)
from repro.coding.rle import LITERAL, ZERO_RUN, RleEvent, rle_decode, rle_encode, zero_fraction


class TestZigzag:
    def test_known_mapping(self):
        values = np.array([0, -1, 1, -2, 2, -3])
        assert list(zigzag_encode(values)) == [0, 1, 2, 3, 4, 5]

    def test_round_trip(self, rng):
        values = rng.integers(-10000, 10000, size=500)
        assert np.array_equal(zigzag_decode(zigzag_encode(values)), values)

    def test_decode_rejects_negative_symbols(self):
        with pytest.raises(ValueError):
            zigzag_decode(np.array([-1]))

    def test_small_magnitudes_get_small_symbols(self):
        assert zigzag_encode(np.array([100])).item() < zigzag_encode(np.array([-200])).item()


class TestRle:
    def test_runs_and_literals(self):
        events = rle_encode([0, 0, 0, 5, 0, -2, 0, 0])
        assert events == [
            RleEvent(ZERO_RUN, 3),
            RleEvent(LITERAL, 5),
            RleEvent(ZERO_RUN, 1),
            RleEvent(LITERAL, -2),
            RleEvent(ZERO_RUN, 2),
        ]

    def test_round_trip(self, rng):
        values = rng.integers(-3, 4, size=300)
        values[rng.uniform(size=300) < 0.6] = 0
        assert np.array_equal(rle_decode(rle_encode(values)), values)

    def test_max_run_splitting(self):
        events = rle_encode([0] * 10, max_run=4)
        assert [e.value for e in events] == [4, 4, 2]

    def test_all_literals(self):
        events = rle_encode([1, 2, 3])
        assert all(e.kind == LITERAL for e in events)

    def test_zero_fraction(self):
        assert zero_fraction([0, 0, 1, 0]) == pytest.approx(0.75)
        assert zero_fraction([]) == 0.0

    def test_invalid_event_rejected(self):
        with pytest.raises(ValueError):
            RleEvent("literal?", 1)
        with pytest.raises(ValueError):
            RleEvent(ZERO_RUN, 0)


class TestRice:
    def test_code_length_formula(self):
        assert rice_code_length(0, 0) == 1
        assert rice_code_length(5, 2) == (5 >> 2) + 1 + 2

    def test_round_trip_fixed_parameter(self):
        symbols = [0, 1, 2, 3, 17, 255, 1024]
        assert rice_decode(rice_encode_scalar(symbols, k=4)) == symbols

    def test_round_trip_optimal_parameter(self, rng):
        symbols = list(rng.geometric(0.05, size=400) - 1)
        assert rice_decode(rice_encode_scalar(symbols)) == symbols

    def test_optimal_parameter_tracks_magnitude(self):
        small = optimal_rice_parameter([0, 1, 0, 2, 1])
        large = optimal_rice_parameter([1000, 2000, 1500])
        assert large > small

    def test_optimal_parameter_empty_block(self):
        assert optimal_rice_parameter([]) == 0

    def test_negative_symbols_rejected(self):
        with pytest.raises(ValueError):
            rice_encode_scalar([-1])
        with pytest.raises(ValueError):
            optimal_rice_parameter([-1])

    def test_empty_block_round_trip(self):
        assert rice_decode(rice_encode_scalar([])) == []

    @pytest.mark.parametrize("symbols", [[], [3]])
    @pytest.mark.parametrize("k", [-1, 31, 40])
    def test_parameter_out_of_range_rejected(self, symbols, k):
        """No encoder writes a block that every decoder rejects."""
        encoders = (rice_encode_scalar, rice_encode_planar, rice_encode_planar_scalar)
        for encode in encoders:
            with pytest.raises(ValueError, match="Rice parameter"):
                encode(symbols, k=k)


class TestFlattenPyramid:
    def test_descriptor_count_and_sample_total(self, bank_f2, ct_image_64):
        from repro.fxdwt.transform import FixedPointDWT

        pyramid = FixedPointDWT(bank_f2, 3).forward(ct_image_64)
        descriptors, samples = flatten_pyramid(pyramid)
        assert len(descriptors) == 1 + 3 * 3
        assert samples.size == 64 * 64

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            flatten_pyramid(object())

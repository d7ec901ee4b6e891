"""Tests for repro.fixedpoint.rounding (the §4.3 rule and helpers)."""

import numpy as np
import pytest

from repro.fixedpoint.rounding import (
    round_half_up_shift,
    round_half_up_to_int,
    truncate_shift,
    wrap_twos_complement,
)


class TestRoundHalfUpShift:
    def test_no_shift_is_identity(self):
        assert round_half_up_shift(17, 0) == 17

    def test_rounds_down_below_half(self):
        # 17 / 4 = 4.25 -> 4
        assert round_half_up_shift(17, 2) == 4

    def test_rounds_up_at_half(self):
        # 18 / 4 = 4.5 -> 5 (MSB of dropped bits is 1)
        assert round_half_up_shift(18, 2) == 5

    def test_rounds_up_above_half(self):
        assert round_half_up_shift(19, 2) == 5

    def test_negative_values_round_towards_plus_infinity_on_ties(self):
        # -18 / 4 = -4.5 -> -4
        assert round_half_up_shift(-18, 2) == -4
        # -19 / 4 = -4.75 -> -5
        assert round_half_up_shift(-19, 2) == -5

    def test_matches_floor_of_half_added(self):
        for value in range(-64, 65):
            for shift in (1, 2, 3, 5):
                expected = int(np.floor(value / 2 ** shift + 0.5))
                assert round_half_up_shift(value, shift) == expected

    def test_numpy_array_input(self):
        values = np.array([17, 18, -18, -19], dtype=np.int64)
        out = round_half_up_shift(values, 2)
        assert list(out) == [4, 5, -4, -5]

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            round_half_up_shift(1, -1)

    @pytest.mark.parametrize("shift", [1, 4, 32, 50])
    def test_array_matches_python_ints_at_int64_boundary(self, shift):
        # The array path must not wrap when value + half would exceed int64:
        # it has to agree with the exact arbitrary-precision scalar path
        # everywhere, including the extreme representable values.
        edges = np.array(
            [
                2**63 - 1,
                2**63 - 2,
                2**63 - (1 << (shift - 1)),
                -(2**63),
                -(2**63) + 1,
                0,
                -1,
                (1 << shift) - 1,
            ],
            dtype=np.int64,
        )
        expected = [round_half_up_shift(int(v), shift) for v in edges]
        before = edges.tolist()
        assert round_half_up_shift(edges, shift).tolist() == expected
        assert edges.tolist() == before

    @pytest.mark.parametrize("near_top", [True, False], ids=["near-top", "below-top"])
    @pytest.mark.parametrize("shift", [0, 1, 4, 32, 50, 62, 63])
    def test_out_is_exact_in_place_and_apart(self, shift, near_top):
        # The array rounding adds ``half`` in place unless a value
        # lies within ``half`` of the top of int64 (then the decomposed
        # form runs); both must equal the arbitrary-precision scalar path,
        # and the input must survive when ``out`` is another array.
        half = 1 << max(shift - 1, 0)
        values = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**62, (1 << shift) - 1]
        values.append(2**63 - 1 - half if shift < 63 else 0)
        if near_top:
            values += [2**63 - 1, 2**63 - half]
        edges = np.array(values, dtype=np.int64)
        expected = [round_half_up_shift(int(v), shift) for v in edges]
        apart = np.empty_like(edges)
        assert round_half_up_shift(edges, shift, out=apart) is apart
        assert apart.tolist() == expected
        assert edges.tolist() == values
        assert round_half_up_shift(edges, shift, out=edges) is edges
        assert edges.tolist() == expected

    def test_array_large_shift_falls_back_exactly(self):
        edges = np.array([2**63 - 1, -(2**63), 123], dtype=np.int64)
        expected = [round_half_up_shift(int(v), 63) for v in edges]
        assert round_half_up_shift(edges, 63).tolist() == expected


class TestWrapWideWords:
    @pytest.mark.parametrize("bits", [32, 62, 63, 64])
    def test_array_matches_python_ints(self, bits):
        # The array branch must cover the widths whose Python-int modulus
        # exceeds int64 (63: modulus 2**63; 64: identity on int64 storage).
        edges = np.array(
            [2**63 - 1, 2**62, -(2**63), -(2**62) - 1, 0, -1, 1], dtype=np.int64
        )
        expected = [wrap_twos_complement(int(v), bits) for v in edges]
        assert wrap_twos_complement(edges, bits).tolist() == expected


class TestTruncateShift:
    def test_truncate_is_floor_division(self):
        assert truncate_shift(19, 2) == 4
        assert truncate_shift(-19, 2) == -5  # arithmetic shift: floor

    def test_no_shift_is_identity(self):
        assert truncate_shift(-7, 0) == -7

    def test_array_input(self):
        out = truncate_shift(np.array([19, -19], dtype=np.int64), 2)
        assert list(out) == [4, -5]

    @pytest.mark.parametrize("shift", [0, 2, 63])
    def test_out_in_place(self, shift):
        values = np.array([2**63 - 1, -(2**63), 19, -19], dtype=np.int64)
        expected = [int(v) >> shift for v in values]
        assert truncate_shift(values, shift, out=values) is values
        assert values.tolist() == expected

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            truncate_shift(1, -2)

    def test_differs_from_rounding_on_large_remainder(self):
        assert truncate_shift(19, 2) != round_half_up_shift(19, 2)


class TestRoundHalfUpToInt:
    def test_scalar(self):
        assert round_half_up_to_int(2.5) == 3
        assert round_half_up_to_int(-2.5) == -2
        assert round_half_up_to_int(2.49) == 2

    def test_array(self):
        out = round_half_up_to_int(np.array([0.5, 1.4, -0.5]))
        assert list(out) == [1, 1, 0]


class TestWrapTwosComplement:
    def test_in_range_unchanged(self):
        assert wrap_twos_complement(100, 8) == 100
        assert wrap_twos_complement(-100, 8) == -100

    def test_wraps_overflow(self):
        assert wrap_twos_complement(128, 8) == -128
        assert wrap_twos_complement(255, 8) == -1
        assert wrap_twos_complement(256, 8) == 0

    def test_wraps_underflow(self):
        assert wrap_twos_complement(-129, 8) == 127

    def test_array(self):
        out = wrap_twos_complement(np.array([127, 128, -129], dtype=np.int64), 8)
        assert list(out) == [127, -128, 127]

    def test_word_length_must_be_positive(self):
        with pytest.raises(ValueError):
            wrap_twos_complement(1, 0)

    def test_64_bit_wrap_matches_python_ints(self):
        big = (1 << 63) + 5
        assert wrap_twos_complement(big, 64) == big - (1 << 64)

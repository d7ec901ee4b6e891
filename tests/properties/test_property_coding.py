"""Property-based tests (hypothesis) for the entropy coders and codecs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.coding.bitstream import BitReader, BitWriter
from repro.coding.mapper import zigzag_decode, zigzag_encode
from repro.coding.rice import (
    PLANAR_FLAG,
    optimal_rice_parameter,
    rice_cost_matrix,
    rice_decode,
    rice_encode_planar_blocks,
    rice_encode_planar_scalar,
    rice_encode_scalar,
)
from repro.coding.rle import rle_decode, rle_encode
from repro.coding.s_transform import (
    s_transform_forward_1d,
    s_transform_forward_2d,
    s_transform_inverse_1d,
    s_transform_inverse_2d,
)


class TestBitstreamProperties:
    @given(bits=st.lists(st.integers(0, 1), max_size=300))
    def test_bit_round_trip(self, bits):
        writer = BitWriter()
        writer.write_bits(bits)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(len(bits)) == bits

    @given(values=st.lists(st.tuples(st.integers(0, 2 ** 16 - 1), st.integers(1, 16)), max_size=50))
    def test_uint_round_trip(self, values):
        writer = BitWriter()
        for value, width in values:
            writer.write_uint(value & ((1 << width) - 1), width)
        reader = BitReader(writer.getvalue())
        for value, width in values:
            assert reader.read_uint(width) == value & ((1 << width) - 1)


class TestMapperProperties:
    @given(values=hnp.arrays(np.int64, st.integers(0, 200), elements=st.integers(-(2 ** 30), 2 ** 30)))
    def test_zigzag_round_trip(self, values):
        assert np.array_equal(zigzag_decode(zigzag_encode(values)), values)

    @given(values=hnp.arrays(np.int64, st.integers(1, 200), elements=st.integers(-(2 ** 30), 2 ** 30)))
    def test_zigzag_symbols_non_negative(self, values):
        assert zigzag_encode(values).min() >= 0


class TestRleProperties:
    @given(values=st.lists(st.integers(-5, 5), max_size=400))
    def test_rle_round_trip(self, values):
        assert list(rle_decode(rle_encode(values))) == values

    @given(values=st.lists(st.integers(-5, 5), max_size=400), max_run=st.integers(1, 16))
    def test_rle_round_trip_with_run_splitting(self, values, max_run):
        assert list(rle_decode(rle_encode(values, max_run=max_run))) == values


class TestRiceProperties:
    @given(symbols=st.lists(st.integers(0, 2 ** 20), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_rice_round_trip(self, symbols):
        assert rice_decode(rice_encode_scalar(symbols)) == symbols

    @given(symbols=st.lists(st.integers(0, 255), min_size=1, max_size=200), k=st.integers(0, 12))
    @settings(max_examples=50, deadline=None)
    def test_rice_round_trip_any_parameter(self, symbols, k):
        assert rice_decode(rice_encode_scalar(symbols, k=k)) == symbols


#: One Rice block: empty, all zero, single symbols, any count (mostly not a
#: multiple of 8), geometric-like small values, values shifted high, and
#: values up to 2**32 - 1, where the clamp of ``k`` at 30 binds.
RICE_BLOCKS = st.one_of(
    st.lists(st.integers(0, 2**32 - 1), max_size=40),
    st.lists(st.integers(2**31, 2**32 - 1), min_size=1, max_size=20),
    st.lists(st.just(0), max_size=40),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=1),
    st.lists(st.integers(0, 15), max_size=70),
    st.builds(
        lambda shift, values: [value << shift for value in values],
        st.integers(0, 28),
        st.lists(st.integers(0, 7), max_size=40),
    ),
)


class TestPlanarBatchProperties:
    @given(blocks=st.lists(RICE_BLOCKS, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_per_block_scalar(self, blocks):
        batch = rice_encode_planar_blocks(blocks)
        assert batch == [rice_encode_planar_scalar(block) for block in blocks]
        for block, payload in zip(blocks, batch):
            assert payload[0] == PLANAR_FLAG | int(np.argmin(rice_cost_matrix(block)))

    @given(
        blocks=st.lists(st.lists(st.integers(0, 255), max_size=30), max_size=6),
        k=st.integers(0, 12),
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_with_forced_parameter(self, blocks, k):
        assert rice_encode_planar_blocks(blocks, k) == [
            rice_encode_planar_scalar(block, k) for block in blocks
        ]

    @given(
        symbols=st.one_of(
            hnp.arrays(np.int64, st.integers(0, 500), elements=st.integers(0, 2**32 - 1)),
            hnp.arrays(np.int64, st.integers(0, 500), elements=st.integers(0, 300)),
        ),
        max_k=st.integers(0, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_parameter_is_the_cost_matrix_argmin(self, symbols, max_k):
        expected = int(np.argmin(rice_cost_matrix(symbols, max_k)))
        assert optimal_rice_parameter(symbols, max_k) == expected


class TestSTransformProperties:
    @given(
        signal=hnp.arrays(np.int64, st.sampled_from([8, 16, 32]), elements=st.integers(0, 4095))
    )
    def test_1d_round_trip(self, signal):
        approx, detail = s_transform_forward_1d(signal)
        assert np.array_equal(s_transform_inverse_1d(approx, detail), signal)

    @given(
        image=hnp.arrays(np.int64, st.sampled_from([(8, 8), (16, 16)]), elements=st.integers(0, 4095)),
        scales=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_2d_round_trip(self, image, scales):
        pyramid = s_transform_forward_2d(image, scales)
        assert np.array_equal(s_transform_inverse_2d(pyramid), image)

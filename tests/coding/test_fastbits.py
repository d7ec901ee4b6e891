"""Tests for the vectorised bit engine (repro.coding.fastbits)."""

import numpy as np
import pytest

from repro.coding.bitstream import BitReader, BitWriter
from repro.coding.fastbits import (
    orbit,
    pack_bits,
    pack_uint_fields,
    ragged_arange,
    read_uint,
    read_uints,
    unpack_bits,
)


class TestPackUnpack:
    def test_pack_bits_matches_bitwriter(self, rng):
        bits = rng.integers(0, 2, size=77)
        writer = BitWriter()
        writer.write_bits(bits.tolist())
        assert pack_bits(bits) == writer.getvalue()

    def test_unpack_inverts_pack(self, rng):
        bits = rng.integers(0, 2, size=64).astype(np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits)), bits)

    def test_ragged_arange(self):
        assert ragged_arange([3, 0, 2]).tolist() == [0, 1, 2, 0, 1]
        assert ragged_arange([]).size == 0


class TestUintFields:
    def test_matches_bitwriter_fields(self, rng):
        widths = rng.integers(1, 17, size=50)
        values = rng.integers(0, 1 << 16, size=50) & ((1 << widths) - 1)
        writer = BitWriter()
        for value, width in zip(values.tolist(), widths.tolist()):
            writer.write_uint(value, width)
        assert pack_bits(pack_uint_fields(values, widths)) == writer.getvalue()

    def test_scalar_width_broadcast(self):
        bits = pack_uint_fields([1, 2, 3], 4)
        reader = BitReader(pack_bits(bits))
        assert [reader.read_uint(4) for _ in range(3)] == [1, 2, 3]

    def test_value_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_uint_fields([4], [2])
        with pytest.raises(ValueError):
            pack_uint_fields([-1], [4])

    def test_read_uints_roundtrip(self, rng):
        values = rng.integers(0, 32, size=40)
        bits = unpack_bits(pack_bits(pack_uint_fields(values, 5)))
        assert np.array_equal(read_uints(bits, 0, 40, 5), values)

    def test_read_uint_scalar(self):
        bits = unpack_bits(pack_bits(pack_uint_fields([12345], [16])))
        assert read_uint(bits, 0, 16) == 12345

    def test_read_past_end_raises(self):
        bits = unpack_bits(b"\x00")
        with pytest.raises(EOFError):
            read_uint(bits, 0, 16)
        with pytest.raises(EOFError):
            read_uints(bits, 0, 3, 4)


class TestEdgeWidths:
    """Zero-width fields, wide (>= 32-bit) fields, and empty field groups."""

    def test_width_zero_reads(self):
        bits = unpack_bits(b"\xff")
        assert read_uint(bits, 0, 0) == 0
        assert read_uints(bits, 0, 5, 0).tolist() == [0, 0, 0, 0, 0]
        # Zero total bits means no stream access at all — even past the end.
        assert read_uints(bits, 8, 4, 0).tolist() == [0, 0, 0, 0]

    def test_width_zero_pack(self):
        assert pack_uint_fields([0, 0], [0, 0]).size == 0
        # A zero-width field can only hold the value 0.
        with pytest.raises(ValueError):
            pack_uint_fields([1], [0])
        # Mixed widths: the zero-width field vanishes from the stream.
        bits = pack_uint_fields([0, 9], [0, 4])
        assert read_uint(bits, 0, 4) == 9

    @pytest.mark.parametrize("width", [32, 40, 57, 62])
    def test_wide_fields_roundtrip(self, rng, width):
        values = rng.integers(0, np.int64(1) << min(width, 62), size=8)
        bits = pack_uint_fields(values, width)
        assert np.array_equal(read_uints(bits, 0, 8, width), values)
        assert read_uint(bits, 0, width) == int(values[0])

    def test_wide_field_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_uint_fields([1 << 32], [32])

    def test_empty_field_group(self):
        assert pack_uint_fields([], []).size == 0
        assert read_uints(unpack_bits(b""), 0, 0, 7).size == 0
        assert ragged_arange([0, 0, 0]).size == 0


class TestOrbit:
    def test_matches_scalar_walk(self, rng):
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
            assert orbit(successor, 3, count).tolist() == expected

    def test_large_orbit_blocked_path(self):
        n = 10_000
        successor = np.minimum(np.arange(n) + 2, n - 1).astype(np.int32)
        seq = orbit(successor, 0, 4000)
        assert seq.tolist() == list(range(0, 8000, 2))

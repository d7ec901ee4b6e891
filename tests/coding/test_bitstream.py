"""Tests for repro.coding.bitstream."""

import numpy as np
import pytest

from repro.coding.bitstream import BitReader, BitWriter


class TestBitWriter:
    def test_bits_pack_msb_first(self):
        writer = BitWriter()
        writer.write_bits([1, 0, 1, 0, 0, 0, 0, 1])
        assert writer.getvalue() == bytes([0b10100001])

    def test_partial_byte_zero_padded(self):
        writer = BitWriter()
        writer.write_bits([1, 1, 1])
        assert writer.getvalue() == bytes([0b11100000])

    def test_invalid_bit_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bit(2)

    def test_unary_code(self):
        writer = BitWriter()
        writer.write_unary(3)
        assert writer.getvalue() == bytes([0b11100000])

    def test_negative_unary_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_unary(-1)

    def test_uint_width_checked(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_uint(4, 2)
        with pytest.raises(ValueError):
            writer.write_uint(-1, 4)

    def test_len_counts_padded_bytes(self):
        writer = BitWriter()
        writer.write_bits([1] * 9)
        assert len(writer) == 2
        assert writer.bits_written == 9


class TestBitReader:
    def test_round_trip_bits(self):
        writer = BitWriter()
        pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]
        writer.write_bits(pattern)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(len(pattern)) == pattern

    def test_round_trip_uint(self):
        writer = BitWriter()
        writer.write_uint(12345, 16)
        writer.write_uint(7, 3)
        reader = BitReader(writer.getvalue())
        assert reader.read_uint(16) == 12345
        assert reader.read_uint(3) == 7

    def test_round_trip_unary(self):
        writer = BitWriter()
        for value in (0, 1, 5, 13):
            writer.write_unary(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_unary() for _ in range(4)] == [0, 1, 5, 13]

    def test_eof_raises(self):
        reader = BitReader(b"")
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_bits_remaining(self):
        reader = BitReader(bytes(2))
        assert reader.bits_remaining == 16
        reader.read_bits(5)
        assert reader.bits_remaining == 11

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BitReader(bytes(1)).read_bits(-1)

    def test_uint_reads_agree_at_and_off_byte_boundaries(self):
        widths = [8, 32, 3, 16, 5, 8, 0, 24, 7, 1, 40]
        values = [(0x9E3779B97F4A7C15 >> w) & ((1 << w) - 1) for w in widths]
        writer = BitWriter()
        for value, width in zip(values, widths):
            writer.write_uint(value, width)
        reader = BitReader(writer.getvalue())
        assert [reader.read_uint(width) for width in widths] == values
        assert reader.bits_remaining < 8

    def test_aligned_uint_past_the_end_raises(self):
        reader = BitReader(bytes(3))
        assert reader.read_uint(16) == 0
        with pytest.raises(EOFError):
            reader.read_uint(16)


class TestEdgeWidths:
    """Zero-width fields, wide (>= 32-bit) fields and empty streams.

    The bit-by-bit legacy Rice minter and decoder read and write every
    header and remainder field through these two classes.
    """

    def test_width_zero_reads(self):
        reader = BitReader(b"\xff")
        assert reader.read_uint(0) == 0
        assert reader.bits_remaining == 8
        reader.read_bits(3)
        assert reader.read_uint(0) == 0
        reader.read_bits(5)
        # Zero bits means no stream access at all, even at the end.
        assert reader.read_uint(0) == 0
        assert reader.bits_remaining == 0

    def test_width_zero_write(self):
        writer = BitWriter()
        writer.write_uint(0, 0)
        assert writer.bits_written == 0
        # A zero-width field can only hold the value 0.
        with pytest.raises(ValueError):
            writer.write_uint(1, 0)
        # Mixed widths: the zero-width field vanishes from the stream.
        writer.write_uint(9, 4)
        writer.write_uint(0, 0)
        assert writer.getvalue() == bytes([0b10010000])

    @pytest.mark.parametrize("width", [32, 40, 57, 62])
    def test_wide_fields_roundtrip(self, rng, width):
        values = rng.integers(0, 1 << width, size=8, dtype=np.uint64).tolist()
        writer = BitWriter()
        writer.write_bit(1)  # start the fields off a byte boundary
        for value in values:
            writer.write_uint(value, width)
        assert writer.bits_written == 1 + 8 * width
        reader = BitReader(writer.getvalue())
        assert reader.read_bit() == 1
        assert [reader.read_uint(width) for _ in values] == values

    def test_wide_field_overflow_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_uint(1 << 32, 32)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_uint(0, -1)
        with pytest.raises(ValueError):
            BitReader(bytes(1)).read_uint(-1)

    def test_empty_stream(self):
        writer = BitWriter()
        assert writer.getvalue() == b""
        assert len(writer) == 0
        reader = BitReader(b"")
        assert reader.read_bits(0) == []
        assert reader.read_uint(0) == 0
        with pytest.raises(EOFError):
            reader.read_unary()

    def test_unaligned_uint_past_the_end_raises(self):
        reader = BitReader(b"\x00")
        reader.read_bit()
        with pytest.raises(EOFError):
            reader.read_uint(16)


class TestWriteRun:
    @pytest.mark.parametrize("lead", [0, 3])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_run_matches_bitwise_writes(self, bit, lead):
        for count in (0, 1, 5, 8, 13, 21, 64):
            bulk, bitwise = BitWriter(), BitWriter()
            for writer in (bulk, bitwise):
                writer.write_bits([1, 0, 1][:lead])
            bulk.write_run(bit, count)
            bitwise.write_bits([bit] * count)
            assert bulk.getvalue() == bitwise.getvalue()
            assert bulk.bits_written == bitwise.bits_written == lead + count

    def test_invalid_run_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_run(2, 4)
        with pytest.raises(ValueError):
            BitWriter().write_run(1, -1)

"""Tests for repro.coding.bitstream."""

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

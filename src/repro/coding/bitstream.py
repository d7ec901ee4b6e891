"""Bit-level I/O used by the entropy coders.

:class:`BitWriter` packs bits MSB-first into a ``bytes`` object;
:class:`BitReader` reads them back.  Both also provide fixed-width unsigned
integer helpers, which is all the Rice coders need.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = ["BitWriter", "BitReader"]


class BitWriter:
    """Accumulates bits (MSB first within each byte) into a byte string."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._current = 0
        self._filled = 0
        self.bits_written = 0

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        self._current = (self._current << 1) | bit
        self._filled += 1
        self.bits_written += 1
        if self._filled == 8:
            self._bytes.append(self._current)
            self._current = 0
            self._filled = 0

    def write_bits(self, bits: Iterable[int]) -> None:
        """Append several bits."""
        for bit in bits:
            self.write_bit(bit)

    def write_run(self, bit: int, count: int) -> None:
        """Append ``count`` copies of ``bit``, filling whole bytes in bulk."""
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if count < 0:
            raise ValueError("count must be non-negative")
        while self._filled and count:
            self.write_bit(bit)
            count -= 1
        whole_bytes, rest = divmod(count, 8)
        if whole_bytes:
            self._bytes.extend((0xFF if bit else 0x00,) * whole_bytes)
            self.bits_written += 8 * whole_bytes
        for _ in range(rest):
            self.write_bit(bit)

    def write_unary(self, value: int) -> None:
        """Write ``value`` as a unary code: ``value`` ones followed by a zero."""
        if value < 0:
            raise ValueError("unary codes encode non-negative integers")
        if value:
            self.write_run(1, value)
        self.write_bit(0)

    def write_uint(self, value: int, width: int) -> None:
        """Write ``value`` as a ``width``-bit unsigned integer (MSB first)."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def getvalue(self) -> bytes:
        """Finish the stream (zero-padding the last byte) and return it."""
        data = bytearray(self._bytes)
        if self._filled:
            data.append(self._current << (8 - self._filled))
        return bytes(data)

    def __len__(self) -> int:
        """Number of complete bytes the padded stream will occupy."""
        return len(self._bytes) + (1 if self._filled else 0)


class BitReader:
    """Reads bits (MSB first within each byte) from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._position = 0  # bit position

    @property
    def bits_remaining(self) -> int:
        return 8 * len(self._data) - self._position

    def read_bit(self) -> int:
        """Read one bit; raises ``EOFError`` past the end of the stream."""
        if self._position >= 8 * len(self._data):
            raise EOFError("bitstream exhausted")
        byte = self._data[self._position // 8]
        bit = (byte >> (7 - self._position % 8)) & 1
        self._position += 1
        return bit

    def read_bits(self, count: int) -> List[int]:
        """Read ``count`` bits as a list."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.read_bit() for _ in range(count)]

    def read_unary(self) -> int:
        """Read a unary code (count of ones before the terminating zero)."""
        value = 0
        while self.read_bit() == 1:
            value += 1
        return value

    def read_uint(self, width: int) -> int:
        """Read a ``width``-bit unsigned integer (MSB first)."""
        if width < 0:
            raise ValueError("width must be non-negative")
        first, offset = divmod(self._position, 8)
        end = first + width // 8
        if not offset and not width % 8 and end <= len(self._data):
            # Whole bytes at a byte boundary (block headers, byte-wide fields).
            self._position += width
            return int.from_bytes(self._data[first:end], "big")
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

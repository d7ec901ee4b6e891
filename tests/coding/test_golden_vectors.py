"""Wire-format golden vectors: fixed encoded byte strings, pinned forever.

The property tests in ``test_wire_compat.py`` prove the engine tiers agree
with *each other*; these vectors prove they agree with the **past**.  Each
case hardcodes the exact bytes the encoder produced when the vector was
minted, so any change to the stream layout — header fields, unary runs,
zig-zag order — fails loudly here even if every engine drifts in unison.
Both tiers (``fast``, ``scalar``) must decode each golden stream to the
same symbols.
"""

import numpy as np
import pytest

from repro.coding.mapper import zigzag_decode, zigzag_encode
from repro.coding.rice import (
    rice_decode,
    rice_decode_scalar,
    rice_encode_planar,
    rice_encode_planar_scalar,
    rice_encode_scalar,
)
from repro.coding.rle import rle_decode_arrays, rle_encode_arrays

RICE_DECODERS = {
    "fast": rice_decode,
    "scalar": rice_decode_scalar,
}

# Each vector: (symbols, optional explicit k, golden stream hex).
RICE_VECTORS = {
    "fibonacci": (
        [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 0, 7, 512, 3, 1, 0],
        None,
        "0500000012001083148355855f67d0007ffff0030400",
    ),
    "k0-unary": ([0, 1, 2, 0, 0, 3, 1, 0], 0, "000000000858e8"),
    "k11-wide": ([1000, 0, 2047, 13, 700, 700], 11, "0b000000063e80007ff00d2bc2bc"),
    "empty": ([], None, "0000000000"),
}

# Planar layout (what every codec writes): ``0x80 | k``, count, the k-bit
# remainder plane, then the unary plane, each plane zero-padded to a byte.
PLANAR_RICE_VECTORS = {
    "fibonacci": (
        [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 0, 7, 512, 3, 1, 0],
        None,
        "8500000012004432a1b515f3001c03080000ade3fffc00",
    ),
    "k0-unary": ([0, 1, 2, 0, 0, 3, 1, 0], 0, "800000000858e8"),
    "k11-wide": ([1000, 0, 2047, 13, 700, 700], 11, "8b000000067d0003ff80d578af0000"),
    "k30": (
        [0, 1, (1 << 30) - 1, 123456789, (1 << 30) + 5, 987654321, 7, 1 << 29, 42],
        30,
        "9e00000009000000000000001fffffffc75bcd1500000017ade68b10000001e0"
        "000000000000a80800",
    ),
    "empty": ([], None, "8000000000"),
}

# One RLE-coded band exactly as the lossless codec stores it: the run
# symbols and the zig-zagged literals each go through Rice.
RLE_VALUES = [0, 0, 0, 4, 0, 0, -2, 7, 0, 0, 0, 0, 0, 1, 0, 0, 3, 0, 0, 0,
              -5, 0, 0, 0, 0, 0, 0, 0, 2]
RLE_RUNS_GOLDEN = "000000000de63e673f80"
RLE_LITERALS_GOLDEN = "0200000007c3e95660"


class TestRiceGolden:
    @pytest.mark.parametrize("name", sorted(RICE_VECTORS))
    def test_encoders_reproduce_golden_bytes(self, name):
        symbols, k, golden = RICE_VECTORS[name]
        array = np.asarray(symbols, dtype=np.int64)
        assert rice_encode_scalar(array, k=k).hex() == golden

    @pytest.mark.parametrize("engine", sorted(RICE_DECODERS))
    @pytest.mark.parametrize("name", sorted(RICE_VECTORS))
    def test_every_tier_decodes_golden_bytes(self, name, engine):
        symbols, _, golden = RICE_VECTORS[name]
        assert RICE_DECODERS[engine](bytes.fromhex(golden)) == symbols


class TestPlanarRiceGolden:
    @pytest.mark.parametrize("name", sorted(PLANAR_RICE_VECTORS))
    def test_encoders_reproduce_golden_bytes(self, name):
        symbols, k, golden = PLANAR_RICE_VECTORS[name]
        array = np.asarray(symbols, dtype=np.int64)
        assert rice_encode_planar(array, k=k).hex() == golden
        assert rice_encode_planar_scalar(array, k=k).hex() == golden

    @pytest.mark.parametrize("engine", sorted(RICE_DECODERS))
    @pytest.mark.parametrize("name", sorted(PLANAR_RICE_VECTORS))
    def test_every_tier_decodes_golden_bytes(self, name, engine):
        symbols, _, golden = PLANAR_RICE_VECTORS[name]
        assert RICE_DECODERS[engine](bytes.fromhex(golden)) == symbols

    @pytest.mark.parametrize("name", sorted(PLANAR_RICE_VECTORS))
    def test_planar_block_at_most_one_byte_longer(self, name):
        symbols, k, golden = PLANAR_RICE_VECTORS[name]
        interleaved = rice_encode_scalar(np.asarray(symbols, dtype=np.int64), k=k)
        assert len(interleaved) <= len(bytes.fromhex(golden)) <= len(interleaved) + 1


class TestRleGolden:
    def test_encode_reproduces_golden_bytes(self):
        runs, literals = rle_encode_arrays(np.asarray(RLE_VALUES, dtype=np.int64))
        assert rice_encode_scalar(runs).hex() == RLE_RUNS_GOLDEN
        assert rice_encode_scalar(zigzag_encode(literals)).hex() == RLE_LITERALS_GOLDEN

    @pytest.mark.parametrize("engine", sorted(RICE_DECODERS))
    def test_every_tier_decodes_golden_bytes(self, engine):
        decode = RICE_DECODERS[engine]
        runs = np.asarray(decode(bytes.fromhex(RLE_RUNS_GOLDEN)), dtype=np.int64)
        literals = zigzag_decode(
            np.asarray(decode(bytes.fromhex(RLE_LITERALS_GOLDEN)), dtype=np.int64)
        )
        assert rle_decode_arrays(runs, literals).tolist() == RLE_VALUES

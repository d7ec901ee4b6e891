"""The planar Rice batch encoder codes every input word alike.

:func:`rice_encode_planar_blocks` keeps an unsigned block of up to 32 bits
in its own word (the s-transform hands it ``uint16`` or ``uint32``
zig-zag symbols) and reads anything else as ``int64``; its sums
accumulate in ``int64`` and its unary positions in ``intp``, never in the
symbols' word.  The stored bytes must not depend on any of that: a block
gives the same bytes as ``uint16``, ``uint32``, ``int64`` or a list, alone
or mixed with other words in one batch, and the same bytes as the
bit-by-bit reference.  The edge symbols sit on the borders of
the words the encoder picks (``0xFFFF`` needs the next shift word up), and
the large blocks' sums and unary planes outgrow a 16-bit word.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.rice import (
    rice_cost_matrix,
    rice_decode_planar_blocks,
    rice_encode_planar_blocks,
    rice_encode_planar_flat,
    rice_encode_planar_scalar,
)

EDGES = [0, 1, 0xFFFE, 0xFFFF, 0x10000, 0xFFFFFFFE, 0xFFFFFFFF]


def _forms(values):
    """``values`` in every form the encoder takes that can hold them."""
    forms = {"list": list(values), "int64": np.asarray(values, dtype=np.int64)}
    top = max(values, default=0)
    for word in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(word).max:
            forms[np.dtype(word).name] = np.asarray(values, dtype=word)
    return forms


def _assert_word_free(blocks, k=None):
    """Every form of every block codes to the reference bytes, alone and
    in one batch."""
    expected = [rice_encode_planar_scalar(block, k) for block in blocks]
    for name in ("list", "int64", "uint32", "uint16", "uint8"):
        batch = [_forms(block).get(name, block) for block in blocks]
        assert rice_encode_planar_blocks(batch, k) == expected, name
        for block, payload in zip(batch, expected):
            assert rice_encode_planar_blocks([block], k) == [payload], name
    return expected


@pytest.mark.parametrize("edge", EDGES)
def test_word_edge_symbols(edge):
    payloads = _assert_word_free([[edge], [0, edge, 1, edge, 2], [edge] * 9])
    decoded = rice_decode_planar_blocks(payloads)
    assert decoded[1].tolist() == [0, edge, 1, edge, 2]


@pytest.mark.parametrize("k", [0, 1, 7, 16, 30])
def test_forced_parameter(k):
    # Small values keep the k = 0 unary planes short.
    blocks = [[0, 1, 2, 3, 250, 7], list(range(40)), [5] * 17]
    _assert_word_free(blocks, k)


@pytest.mark.parametrize("k", range(31))
def test_every_parameter_packs_its_remainders_like_the_reference(k):
    """Remainder groups are packed in 64-bit words; a field may straddle
    two words at any k above 8.  Quotients stay below 4."""
    rng = np.random.default_rng(k)
    blocks = [rng.integers(0, 1 << (k + 2), size) for size in (1, 8, 37, 64)]
    _assert_word_free([block.tolist() for block in blocks], k)


def test_forced_parameter_on_edge_symbols():
    _assert_word_free([EDGES, EDGES[::-1]], k=24)


def test_empty_and_all_zero_blocks():
    blocks = [[], [0], [], [0] * 33, [1, 0, 0], []]
    payloads = _assert_word_free(blocks)
    assert [p[0] & 0x7F for p in payloads[:2]] == [0, 0]
    assert _assert_word_free([[]]) == [rice_encode_planar_scalar([])]
    assert rice_encode_planar_blocks([]) == []


def test_mixed_words_in_one_batch():
    """Blocks of different words are joined in the widest; each keeps the
    bytes it has on its own."""
    rng = np.random.default_rng(5)
    blocks = [
        rng.integers(0, 300, 64).astype(np.uint16),
        rng.integers(0, 1 << 20, 50).astype(np.uint32),
        rng.integers(0, 1 << 12, 70),
        [3, 1, 4, 1, 5, 9, 2, 6],
        np.arange(24, dtype=np.uint8).reshape(4, 6),
        np.zeros(0, dtype=np.uint16),
    ]
    expected = [rice_encode_planar_scalar(block) for block in blocks]
    assert rice_encode_planar_blocks(blocks) == expected
    for first in range(len(blocks)):
        order = blocks[first:] + blocks[:first]
        assert rice_encode_planar_blocks(order) == expected[first:] + expected[:first]


def test_sums_and_unary_planes_outgrow_the_symbol_word():
    """A uint16 batch whose block sums pass 2**16 (the parameter search),
    whose 70 000-symbol block's halved sums do too, and whose unary planes
    pass 2**16 bits (the positions).  Each block's parameter is the cost
    matrix's argmin, which sums in ``int64`` on its own."""
    rng = np.random.default_rng(11)
    heavy = np.full(4096, 0xFFFE, dtype=np.uint16)
    long_unary = rng.integers(0, 4, 40000).astype(np.uint16)
    many = rng.integers(0, 1000, 70000).astype(np.uint16)
    wide_values = rng.integers(0, 1 << 15, 3000).astype(np.uint16)
    blocks = [heavy, long_unary, wide_values, many]
    wide = [block.astype(np.int64) for block in blocks]
    assert rice_encode_planar_blocks(blocks) == rice_encode_planar_blocks(wide)
    for block, payload in zip(blocks, rice_encode_planar_blocks(blocks)):
        assert payload[0] & 0x7F == int(np.argmin(rice_cost_matrix(block)))
    assert rice_encode_planar_blocks(blocks, k=0)[1] == rice_encode_planar_blocks(
        wide, k=0
    )[1]
    payloads = rice_encode_planar_blocks(blocks)
    assert payloads[0] == rice_encode_planar_scalar(heavy)
    for block, decoded in zip(blocks, rice_decode_planar_blocks(payloads)):
        np.testing.assert_array_equal(decoded, block)


def test_flat_form_checks_its_counts():
    symbols = np.arange(10, dtype=np.uint16)
    assert rice_encode_planar_flat(symbols, [4, 6]) == rice_encode_planar_blocks(
        [symbols[:4], symbols[4:]]
    )
    for counts in ([4, 5], [4, 7], [12, -2]):
        with pytest.raises(ValueError, match="counts"):
            rice_encode_planar_flat(symbols, counts)


def test_signed_input_is_still_checked():
    with pytest.raises(ValueError, match="non-negative"):
        rice_encode_planar_blocks([np.array([1, -1], dtype=np.int16)])
    with pytest.raises(ValueError, match="non-negative"):
        rice_encode_planar_blocks([[0, 1], [-3]])


_SYMBOLS = st.one_of(
    st.integers(0, 0x1FFFF),  # around the 16-bit border
    st.integers(0, 0xFFFFFFFF),
)
_WORDS = ["list", "int64", "uint32", "uint16", "uint8"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(_SYMBOLS, max_size=40), st.sampled_from(_WORDS)),
        max_size=6,
    )
)
def test_any_words_code_to_the_reference_bytes(drawn):
    blocks = [_forms(values).get(word, values) for values, word in drawn]
    expected = [rice_encode_planar_scalar(values) for values, _ in drawn]
    assert rice_encode_planar_blocks(blocks) == expected

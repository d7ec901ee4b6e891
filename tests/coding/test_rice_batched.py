"""Frame-batched planar Rice decode and the zero-free RLE exits.

:func:`rice_decode_planar_blocks` decodes a frame's blocks together: one
unary pass over all unary planes, one ``diff`` into one output and one
remainder pass per distinct ``k``.  It must equal the bit-by-bit
reference block by block, and a lying or truncated block must fail
exactly as the reference fails on it, under the hostile-header caps of
``test_rice_hostile``: in particular a block never takes its neighbour's
zeros as its own terminators.  The RLE array coder's zero-free exits must
equal the event-object reference and keep the run/literal count check.
"""

import dataclasses

import numpy as np
import pytest

from repro.coding.codec import LosslessWaveletCodec
from repro.coding.rice import (
    PLANAR_FLAG,
    rice_decode_array,
    rice_decode_planar_blocks,
    rice_decode_scalar,
    rice_encode_planar,
    rice_encode_planar_blocks,
    rice_encode_scalar,
)
from repro.coding.rle import (
    check_rle_size,
    events_to_arrays,
    rle_decode,
    rle_decode_arrays,
    rle_encode,
    rle_encode_arrays,
)
from repro.coding.s_transform import STransformCodec
from repro.imaging.phantoms import ct_slice_series, shepp_logan
from test_rice_hostile import _assert_bounded_failure


def _header(k: int, count: int) -> bytes:
    return bytes([PLANAR_FLAG | k]) + count.to_bytes(4, "big")


def _decode_scalar(payloads):
    """The reference decode of a frame, one block at a time."""
    return [rice_decode_scalar(payload) for payload in payloads]


def _scalar_outcome(payloads):
    """Every block's reference symbols, or the type of the first error."""
    try:
        return _decode_scalar(payloads)
    except (EOFError, ValueError) as exc:
        return type(exc)


def _assert_matches_scalar(payloads):
    expected = _scalar_outcome(payloads)
    if isinstance(expected, type):
        _assert_bounded_failure(expected, rice_decode_planar_blocks, payloads)
    else:
        decoded = rice_decode_planar_blocks(payloads)
        assert [block.tolist() for block in decoded] == expected
        assert all(block.dtype == np.int64 for block in decoded)


def _frame_symbols():
    """Five small blocks with distinct parameters, one of them empty."""
    rng = np.random.default_rng(11)
    return [
        rng.geometric(0.3, size=37) - 1,
        (rng.geometric(0.5, size=21) - 1 << 7) | rng.integers(0, 1 << 7, size=21),
        np.zeros(0, dtype=np.int64),
        rng.integers(0, 4, size=16),
        (rng.geometric(0.6, size=9) - 1 << 27) | rng.integers(0, 1 << 27, size=9),
    ]


@pytest.fixture(scope="module")
def frame():
    return rice_encode_planar_blocks(_frame_symbols())


# -- a block owns only its own zeros ------------------------------------------------------

@pytest.mark.parametrize("lying_first", [True, False], ids=["before", "after"])
def test_a_block_never_borrows_its_neighbours_zeros(lying_first):
    """Ten symbols, a whole remainder plane and 16 unary bits without a
    single zero, next to a block whose unary plane is all zeros."""
    lying = _header(3, 10) + bytes(4) + b"\xff\xff"
    spare = rice_encode_planar(np.zeros(100, dtype=np.int64), k=0)
    frame = [lying, spare] if lying_first else [spare, lying]
    _assert_bounded_failure(EOFError, rice_decode_planar_blocks, frame)
    _assert_bounded_failure(EOFError, _decode_scalar, frame)


def test_a_count_one_past_its_own_zeros_fails(frame):
    """Every well-formed block, its count raised by one past the zeros its
    own plane holds (padding included), fails even with spare zeros next
    door."""
    for b, payload in enumerate(frame):
        raw = np.frombuffer(payload, dtype=np.uint8)
        k = int(raw[0]) & ~PLANAR_FLAG
        count = int.from_bytes(payload[1:5], "big")
        unary = np.unpackbits(raw[5 + -(-count * k // 8) :])
        zeros = int(np.count_nonzero(unary == 0))
        lying = _header(k, zeros + 1) + payload[5:]
        blocks = list(frame)
        blocks[b] = lying
        assert _scalar_outcome(blocks) is EOFError, b
        _assert_bounded_failure(EOFError, rice_decode_planar_blocks, blocks)


# -- differential against the bit-by-bit reference ---------------------------------------

def test_every_truncation_of_any_one_block_fails_like_the_reference(frame):
    for b, payload in enumerate(frame):
        for cut in range(len(payload) + 1):
            blocks = list(frame)
            blocks[b] = payload[:cut]
            _assert_matches_scalar(blocks)


def test_every_lying_count_of_any_one_block_fails_like_the_reference(frame):
    for b, payload in enumerate(frame):
        count = int.from_bytes(payload[1:5], "big")
        for lie in sorted({*range(0, count + 12), 2 * count + 3, 0xFFFFFFFF}):
            blocks = list(frame)
            blocks[b] = payload[:1] + lie.to_bytes(4, "big") + payload[5:]
            _assert_matches_scalar(blocks)


@pytest.mark.parametrize("k", [0, 3, 31, 127])
def test_a_lying_parameter_fails_like_the_reference(frame, k):
    for b, payload in enumerate(frame):
        blocks = list(frame)
        blocks[b] = bytes([PLANAR_FLAG | k]) + payload[1:]
        _assert_matches_scalar(blocks)


def test_a_mixed_batch_equals_the_reference_block_by_block():
    """k = 0, k >= 26 (64-bit remainder words), empty blocks and one
    legacy interleaved block in one call."""
    rng = np.random.default_rng(5)
    wide = (rng.geometric(0.5, size=19) - 1 << 28) | rng.integers(0, 1 << 28, size=19)
    payloads = [
        rice_encode_planar([]),
        rice_encode_planar(rng.geometric(0.4, size=30) - 1, k=0),
        rice_encode_planar(wide, k=28),
        rice_encode_scalar(rng.geometric(0.3, size=25) - 1, k=2),
        rice_encode_planar(rng.integers(0, 1 << 26, size=13), k=26),
        rice_encode_planar([], k=9),
        rice_encode_planar(rng.integers(0, 1 << 9, size=70), k=9),
        rice_encode_planar(rng.geometric(0.4, size=8) - 1, k=0),
        rice_encode_planar(wide, k=30),
    ]
    decoded = rice_decode_planar_blocks(payloads)
    assert [block.tolist() for block in decoded] == [
        rice_decode_scalar(payload) for payload in payloads
    ]
    assert [block.tolist() for block in decoded] == [
        rice_decode_array(payload).tolist() for payload in payloads
    ]


def test_frames_larger_than_one_batch_decode_block_by_block():
    """A 512x512 s-transform frame spans several decode batches."""
    image = ct_slice_series(count=1, size=512, seed=3)[0]
    stream = STransformCodec(scales=4).encode(image)
    payloads = list(stream.chunks.values())
    decoded = rice_decode_planar_blocks(payloads)
    assert sum(block.size for block in decoded) == image.size
    for block, payload in zip(decoded, payloads):
        assert np.array_equal(block, rice_decode_array(payload))


def test_an_empty_batch_and_memoryview_payloads():
    assert rice_decode_planar_blocks([]) == []
    symbols = np.arange(50)
    (block,) = rice_decode_planar_blocks(iter([memoryview(rice_encode_planar(symbols))]))
    assert block.tolist() == symbols.tolist()


# -- the codecs decode a frame in one batch ------------------------------------------------

CODECS = {
    "coefficient": lambda engine: LosslessWaveletCodec("F2", scales=3, engine=engine),
    "s-transform": lambda engine: STransformCodec(scales=3, engine=engine),
}


@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_codec_decodes_agree_across_engines(codec_name):
    image = shepp_logan(64)
    make = CODECS[codec_name]
    stream = make("fast").encode(image)
    fast, scalar = make("fast"), make("scalar")
    assert np.array_equal(fast.decode(stream), image)
    for at_scale in range(4):
        assert np.array_equal(
            fast.decode_preview(stream, at_scale), scalar.decode_preview(stream, at_scale)
        )


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@pytest.mark.parametrize("engine", ["fast", "scalar"])
def test_a_lying_band_fails_the_codec_on_both_engines(codec_name, engine):
    """A band whose count exceeds its own zeros fails the whole frame."""
    image = shepp_logan(64)
    codec = CODECS[codec_name](engine)
    stream = codec.encode(image)
    lying = _header(3, 10) + bytes(4) + b"\xff\xff"
    if codec_name == "coefficient":
        chunks = [
            dataclasses.replace(chunk, payload=lying)
            if (chunk.kind, chunk.scale) == ("GG", 2)
            else chunk
            for chunk in stream.chunks
        ]
        stream = dataclasses.replace(stream, chunks=chunks)
    else:
        stream.chunks[("GG", 2)] = lying
    _assert_bounded_failure(EOFError, codec.decode, stream)
    _assert_bounded_failure(EOFError, codec.decode_preview, stream, 1)


# -- zero-free RLE exits --------------------------------------------------------------------

RLE_INPUTS = {
    "zero-free": np.array([3, -1, 7, 2, -9, 1], dtype=np.int64),
    "one-value": np.array([-4], dtype=np.int64),
    "empty": np.zeros(0, dtype=np.int64),
    "mixed": np.array([0, 0, 5, 0, -2, 3, 0, 0, 0], dtype=np.int64),
    "zeros-only": np.zeros(7, dtype=np.int64),
    "long-runs": np.concatenate([np.zeros(9, dtype=np.int64), [4], np.zeros(5, dtype=np.int64)]),
}


@pytest.mark.parametrize("name", sorted(RLE_INPUTS))
@pytest.mark.parametrize("max_run", [1, 4, 1 << 16])
def test_rle_arrays_equal_the_event_reference(name, max_run):
    values = RLE_INPUTS[name]
    runs, literals = rle_encode_arrays(values, max_run=max_run)
    events = rle_encode(values, max_run=max_run)
    ref_runs, ref_literals = events_to_arrays(events)
    assert runs.tolist() == ref_runs.tolist()
    assert literals.tolist() == ref_literals.tolist()
    assert runs.dtype == literals.dtype == np.int64
    decoded = rle_decode_arrays(runs, literals)
    assert decoded.tolist() == rle_decode(events).tolist() == values.tolist()
    assert decoded.dtype == np.int64


def test_zero_free_exits_return_fresh_arrays():
    values = RLE_INPUTS["zero-free"].copy()
    runs, literals = rle_encode_arrays(values)
    literals[0] = 99
    assert values[0] == 3
    decoded = rle_decode_arrays(runs, literals)
    decoded[1] = 99
    assert literals[1] == -1


@pytest.mark.parametrize(
    "runs, literals",
    [([0, 0, 0], [1, 2]), ([0, 0], [1, 2, 3]), ([], [5]), ([0, 2, 0], [1])],
    ids=["one-literal-short", "one-literal-over", "no-markers", "general-path"],
)
def test_rle_run_literal_count_mismatch_raises(runs, literals):
    runs = np.asarray(runs, dtype=np.int64)
    literals = np.asarray(literals, dtype=np.int64)
    with pytest.raises(ValueError, match="literals"):
        rle_decode_arrays(runs, literals)
    with pytest.raises(ValueError, match="RLE"):
        check_rle_size(runs, literals.size, literals.size)


@pytest.mark.parametrize("engine", ["fast", "scalar"])
def test_zero_free_band_with_one_marker_short_fails_the_codec(engine):
    """A zero-free band's run stream (markers only) one marker short."""
    codec = LosslessWaveletCodec("F2", scales=3, engine=engine)
    stream = codec.encode(ct_slice_series(count=1, size=64, seed=1)[0])
    chunk = next(
        c for c in stream.chunks if c.use_rle and not rice_decode_array(c.run_payload).any()
    )
    runs = rice_decode_array(chunk.run_payload)
    short = dataclasses.replace(chunk, run_payload=rice_encode_planar(runs[1:]))
    chunks = [short if c is chunk else c for c in stream.chunks]
    stream = dataclasses.replace(stream, chunks=chunks)
    _assert_bounded_failure(ValueError, codec.decode, stream)

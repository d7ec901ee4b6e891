"""No transform or decode call writes into an array its caller handed in.

Every fixed-point pass rounds and range-checks its accumulator in place,
which is only sound on an array the pass allocated itself.  These tests
hash every input array before and after each entry point — forward,
inverse, every preview scale (the deepest one narrows the approximation
the caller passed), the row-band ROI inverse and the coefficient codec's
decodes — under all three overflow policies, on the paper's plan and on
the shrunk plan whose words are too short, so saturate and wrap fire.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.coding.codec import LosslessWaveletCodec
from repro.dwt.subbands import ScaleDetails
from repro.filters.catalog import available_banks, get_bank
from repro.fixedpoint.errors import OverflowPolicyError
from repro.fxdwt.transform import FixedPointDWT, FixedPointPyramid
from repro.imaging.phantoms import ct_slice_series
from test_polyphase_oracle import image_of, shrunk_plan

POLICIES = ["raise", "saturate", "wrap"]
SCALES = 3
SHAPE = (32, 32)
ROI_BANDS = [(0, 3), (10, 14), (SHAPE[0] - 4, SHAPE[0])]


def _digest(arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(str((array.dtype, array.shape)).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _pyramid_arrays(pyramid):
    arrays = [pyramid.approximation]
    for entry in pyramid.details:
        arrays.extend(entry.as_dict().values())
    return arrays


def _own_copy(pyramid):
    """The pyramid with every band in its own contiguous, writeable array
    (``forward`` hands back views of one Mallat array per scale)."""
    return FixedPointPyramid(
        plan=pyramid.plan,
        approximation=pyramid.approximation.copy(),
        details=[
            ScaleDetails(
                scale=entry.scale,
                hg=entry.hg.copy(),
                gh=entry.gh.copy(),
                gg=entry.gg.copy(),
            )
            for entry in pyramid.details
        ],
    )


def _call(call, *args):
    """Run ``call``; under the "raise" policy a too-short word may raise."""
    try:
        call(*args)
    except OverflowPolicyError:
        pass


def _assert_unchanged(arrays, call, *args):
    before = _digest(arrays)
    _call(call, *args)
    assert _digest(arrays) == before, call.__name__


def _engines(bank_name, policy):
    bank = get_bank(bank_name)
    for plan in (None, shrunk_plan(bank, SCALES)):
        yield FixedPointDWT(bank, SCALES, plan=plan, overflow_policy=policy)


def _pyramid_for(engine, image):
    """A pyramid in ``engine``'s plan: its own forward, or a saturating
    engine's when the "raise" policy rejects the shrunk plan."""
    try:
        return engine.forward(image)
    except OverflowPolicyError:
        return FixedPointDWT(
            engine.bank, engine.scales, plan=engine.plan, overflow_policy="saturate"
        ).forward(image)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("bank_name", available_banks())
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_forward_leaves_the_image_unchanged(bank_name, policy, dtype):
    image = image_of(SHAPE, 9).astype(dtype)
    for engine in _engines(bank_name, policy):
        _assert_unchanged([image], engine.forward, image)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("bank_name", available_banks())
@pytest.mark.parametrize("owned", [False, True], ids=["forward-views", "own-arrays"])
def test_inverse_paths_leave_the_pyramid_unchanged(bank_name, policy, owned):
    image = image_of(SHAPE, 9)
    for engine in _engines(bank_name, policy):
        pyramid = _pyramid_for(engine, image)
        if owned:
            pyramid = _own_copy(pyramid)
        arrays = _pyramid_arrays(pyramid)
        _assert_unchanged(arrays, engine.inverse, pyramid)
        for at_scale in range(SCALES + 1):
            _assert_unchanged(arrays, engine.inverse_preview, pyramid, at_scale)
        for y0, y1 in ROI_BANDS:
            _assert_unchanged(arrays, engine.inverse_roi, pyramid, y0, y1)


def test_the_deepest_preview_returns_a_fresh_array():
    """``inverse_preview(p, S)`` narrows the approximation itself, so the
    result must not share memory with it."""
    engine = FixedPointDWT(get_bank("F2"), SCALES)
    pyramid = _own_copy(engine.forward(image_of(SHAPE, 9)))
    preview = engine.inverse_preview(pyramid, SCALES)
    assert not np.shares_memory(preview, pyramid.approximation)


def _writeable_payloads(stream):
    """The stream with every payload a view of a writeable buffer."""
    buffers = []

    def view(data):
        buffers.append(np.frombuffer(bytearray(data), dtype=np.uint8))
        return memoryview(buffers[-1])

    chunks = [
        dataclasses.replace(
            chunk, payload=view(chunk.payload), run_payload=view(chunk.run_payload)
        )
        for chunk in stream.chunks
    ]
    return dataclasses.replace(stream, chunks=chunks), buffers


@pytest.mark.parametrize("engine", ["fast", "scalar"])
def test_codec_decodes_leave_the_stream_unchanged(engine):
    codec = LosslessWaveletCodec("F2", scales=SCALES, engine=engine)
    image = ct_slice_series(count=1, size=64, seed=1)[0]
    stream, buffers = _writeable_payloads(codec.encode(image))
    _assert_unchanged(buffers, codec.decode, stream)
    for at_scale in range(SCALES + 1):
        _assert_unchanged(buffers, codec.decode_preview, stream, at_scale)
    _assert_unchanged(buffers, codec.decode_roi, stream, 5, 21)
    assert np.array_equal(codec.decode(stream), image)

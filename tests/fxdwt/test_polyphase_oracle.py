"""Differential test: the polyphase Mallat passes of ``FixedPointDWT``
against a tap-by-tap gather/scatter reference.

The reference below is the direct reading of the analysis and synthesis
equations: one ``np.mod`` index gather per analysis tap, one
``np.add.at`` scatter per synthesis tap, one filter and one narrowing per
call, rows then columns through transposes.  The engine regroups the same
exact integer sums (phases, shared extensions, folded taps, one narrowing
per pass), which must not change a single stored word under any rounding
mode or overflow policy.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dwt.subbands import ScaleDetails
from repro.filters.catalog import available_banks, get_bank
from repro.fixedpoint.errors import OverflowPolicyError
from repro.fixedpoint.fxarray import FxArray
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.rounding import round_half_up_shift, truncate_shift
from repro.fixedpoint.wordlength import WordLengthPlan, plan_word_lengths
from repro.fxdwt.transform import FixedPointDWT, FixedPointPyramid

BANKS = available_banks()


# -- reference ----------------------------------------------------------------------
def _narrow(engine, acc, shift, target):
    if engine.rounding == "half_up":
        out = round_half_up_shift(acc, shift)
    else:
        out = truncate_shift(acc, shift)
    return FxArray(out, target).check_range(engine.overflow_policy).stored


def _analysis(engine, data, qfilt, source_frac, target):
    n = data.shape[-1]
    base = 2 * np.arange(n // 2)
    acc = np.zeros(data.shape[:-1] + (n // 2,), dtype=np.int64)
    for idx, stored in qfilt.items():
        acc += np.int64(stored) * data[..., np.mod(base + idx, n)]
    shift = source_frac + qfilt.fmt.fractional_bits - target.fractional_bits
    return _narrow(engine, acc, shift, target)


def _synthesis(engine, lo, hi, source_frac, target):
    half = lo.shape[-1]
    acc = np.zeros(lo.shape[:-1] + (2 * half,), dtype=np.int64)
    positions = 2 * np.arange(half)
    for band, qfilt in ((lo, engine._qht), (hi, engine._qgt)):
        for idx, stored in qfilt.items():
            np.add.at(acc, (..., np.mod(positions + idx, 2 * half)), np.int64(stored) * band)
    cfrac = engine.plan.coefficient_format.fractional_bits
    return _narrow(engine, acc, source_frac + cfrac - target.fractional_bits, target)


def reference_forward(engine, image):
    data = np.asarray(image, dtype=np.int64)
    details = []
    source_frac = engine.plan.input_format.fractional_bits
    for scale in range(1, engine.scales + 1):
        target = engine.plan.format_for_scale(scale)
        row_lo = _analysis(engine, data, engine._qh, source_frac, target)
        row_hi = _analysis(engine, data, engine._qg, source_frac, target)
        frac = target.fractional_bits
        hh = _analysis(engine, row_lo.T, engine._qh, frac, target).T
        hg = _analysis(engine, row_lo.T, engine._qg, frac, target).T
        gh = _analysis(engine, row_hi.T, engine._qh, frac, target).T
        gg = _analysis(engine, row_hi.T, engine._qg, frac, target).T
        details.append(ScaleDetails(scale=scale, hg=hg, gh=gh, gg=gg))
        data, source_frac = hh, frac
    return FixedPointPyramid(plan=engine.plan, approximation=data, details=details)


def reference_inverse(engine, pyramid, at_scale=0):
    data = np.asarray(pyramid.approximation, dtype=np.int64)
    for scale in range(engine.scales, at_scale, -1):
        source = engine.plan.format_for_scale(scale)
        target = engine.plan.format_for_scale(scale - 1)
        entry = pyramid.details[scale - 1]
        frac = source.fractional_bits
        row_lo = _synthesis(engine, data.T, entry.hg.T, frac, source).T
        row_hi = _synthesis(engine, entry.gh.T, entry.gg.T, frac, source).T
        data = _synthesis(engine, row_lo, row_hi, frac, target)
    if at_scale == 0:
        return data
    fmt = engine.plan.format_for_scale(at_scale)
    target = QFormat(word_length=fmt.integer_bits, integer_bits=fmt.integer_bits)
    return _narrow(engine, data, fmt.fractional_bits, target)


# -- helpers --------------------------------------------------------------------------
def shrunk_plan(bank, scales, fmt=QFormat(16, 8)):
    """A plan whose data words are far too short, so saturate/wrap fire."""
    plan = plan_word_lengths(bank, scales)
    return WordLengthPlan(
        bank_name=plan.bank_name,
        scales=scales,
        input_format=plan.input_format,
        data_formats={s: fmt for s in range(1, scales + 1)},
        coefficient_format=plan.coefficient_format,
    )


def assert_pyramids_equal(ours, reference):
    assert np.array_equal(ours.approximation, reference.approximation)
    assert ours.approximation.dtype == np.int64
    for got, want in zip(ours.details, reference.details, strict=True):
        for key, band in got.as_dict().items():
            assert band.dtype == np.int64
            assert np.array_equal(band, want.as_dict()[key]), (got.scale, key)


def check_engine(engine, image, roi_bands=()):
    """Forward, inverse, every preview and some row bands vs the reference."""
    expected = reference_forward(engine, image)
    pyramid = engine.forward(image)
    assert_pyramids_equal(pyramid, expected)
    full = reference_inverse(engine, expected)
    assert np.array_equal(engine.inverse(pyramid), full)
    for at_scale in range(1, engine.scales + 1):
        assert np.array_equal(
            engine.inverse_preview(pyramid, at_scale),
            reference_inverse(engine, expected, at_scale),
        ), at_scale
    for y0, y1 in roi_bands:
        assert np.array_equal(engine.inverse_roi(pyramid, y0, y1), full[y0:y1]), (y0, y1)
    return pyramid


def smallest_shapes(scales):
    """Square, 2:1 and 1:2 images at the smallest size ``scales`` allows:
    at the deepest scale the circular pad is longer than a phase."""
    side = 1 << scales
    return [(side, side), (2 * side, side), (side, 2 * side)]


def image_of(shape, seed, bits=12):
    return np.random.default_rng(seed).integers(0, 1 << bits, size=shape)


# -- tests ----------------------------------------------------------------------------
@pytest.mark.parametrize("bank_name", BANKS)
@pytest.mark.parametrize("scales", [1, 2, 3, 4, 5])
def test_smallest_images_match_reference(bank_name, scales):
    engine = FixedPointDWT(get_bank(bank_name), scales)
    for seed, shape in enumerate(smallest_shapes(scales)):
        check_engine(engine, image_of(shape, seed))


@pytest.mark.parametrize("bank_name", BANKS)
@pytest.mark.parametrize("shape", [(32, 32), (64, 32), (32, 64)])
def test_every_scale_depth_matches_reference(bank_name, shape):
    bank = get_bank(bank_name)
    for scales in range(1, min(shape).bit_length()):
        engine = FixedPointDWT(bank, scales)
        check_engine(
            engine,
            image_of(shape, scales),
            roi_bands=[(0, 3), (shape[0] // 2 - 2, shape[0] // 2 + 5), (shape[0] - 4, shape[0])],
        )


@pytest.mark.parametrize("bank_name", BANKS)
def test_truncate_rounding_matches_reference(bank_name):
    engine = FixedPointDWT(get_bank(bank_name), 3, rounding="truncate")
    check_engine(engine, image_of((32, 64), 5), roi_bands=[(8, 20)])


@pytest.mark.parametrize("policy", ["saturate", "wrap"])
@pytest.mark.parametrize("bank_name", BANKS)
def test_shrunk_plan_overflow_policies_match_reference(bank_name, policy):
    bank = get_bank(bank_name)
    for rounding in ("half_up", "truncate"):
        engine = FixedPointDWT(
            bank, 3, plan=shrunk_plan(bank, 3), rounding=rounding, overflow_policy=policy
        )
        pyramid = check_engine(engine, image_of((32, 32), 9), roi_bands=[(10, 14)])
        word = QFormat(16, 8)
        for entry in pyramid.details:
            for band in entry.as_dict().values():
                assert word.min_int <= band.min() and band.max() <= word.max_int


@pytest.mark.parametrize("bank_name", BANKS)
def test_raise_policy_fires_like_reference(bank_name):
    bank = get_bank(bank_name)
    engine = FixedPointDWT(bank, 2, plan=shrunk_plan(bank, 2))
    image = image_of((16, 16), 3)
    with pytest.raises(OverflowPolicyError):
        reference_forward(engine, image)
    with pytest.raises(OverflowPolicyError):
        engine.forward(image)


@settings(max_examples=40, deadline=None)
@given(
    bank_name=st.sampled_from(BANKS),
    scales=st.integers(1, 4),
    aspect=st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (4, 1)]),
    rounding=st.sampled_from(["half_up", "truncate"]),
    seed=st.integers(0, 2**32 - 1),
    bits=st.integers(1, 12),
)
def test_drawn_images_match_reference(bank_name, scales, aspect, rounding, seed, bits):
    side = 1 << scales
    shape = (side * aspect[0], side * aspect[1])
    engine = FixedPointDWT(get_bank(bank_name), scales, rounding=rounding)
    check_engine(engine, image_of(shape, seed, bits), roi_bands=[(0, 1), (shape[0] - 1, shape[0])])


def edge_plan(bank, scales, bits, fmt):
    """A shrunk plan with an input format that admits ``bits``-bit words."""
    return dataclasses.replace(
        shrunk_plan(bank, scales, fmt), input_format=QFormat(bits, bits)
    )


def edge_words(shape, seed, bits):
    """Words at both ends of a ``bits``-bit word, ``±(2**(bits - 1) - 1)``:
    a run of each sign, then random signs (some windows then meet every
    tap with its own sign, the largest accumulator the words allow)."""
    signs = np.random.default_rng(seed).choice((-1, 1), size=shape)
    signs[: shape[0] // 4] = 1
    signs[shape[0] // 4 : shape[0] // 2] = -1
    return signs * np.int64((1 << (bits - 1)) - 1)


def assert_words_equal(got, expected):
    assert np.array_equal(got, expected)


def same_outcome(call, reference, check=assert_words_equal):
    """``call`` raises ``OverflowPolicyError`` exactly when ``reference``
    does, and otherwise passes ``check``; the reference result or None."""
    try:
        expected = reference()
    except OverflowPolicyError:
        with pytest.raises(OverflowPolicyError):
            call()
        return None
    check(call(), expected)
    return expected


@pytest.mark.parametrize("fmt", [QFormat(16, 8), QFormat(32, 2)], ids=["Q8.8", "Q2.30"])
@pytest.mark.parametrize("policy", ["wrap", "saturate", "raise"])
@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("bank_name", BANKS)
def test_edge_words_match_reference(bank_name, bits, policy, fmt):
    """Words at ±(2**31 - 1) keep every product and sum of the 64-bit
    accumulator exact; at ±(2**63 - 1) they wrap it modulo 2**64.  Either
    way the pass kernel must give the reference's words: forward, inverse,
    every preview scale and row bands, on a shrunk plan under each policy.
    The second word keeps 30 fractional bits, so the first forward pass
    narrows without a shift and every low accumulator bit shows."""
    bank, scales, shape = get_bank(bank_name), 3, (32, 32)
    plan = edge_plan(bank, scales, bits, fmt)
    engine = FixedPointDWT(bank, scales, plan=plan, overflow_policy=policy)
    image = edge_words(shape, 7, bits)
    same_outcome(
        lambda: engine.forward(image),
        lambda: reference_forward(engine, image),
        check=assert_pyramids_equal,
    )
    pyramid = FixedPointPyramid(
        plan=engine.plan,
        approximation=edge_words((shape[0] >> scales, shape[1] >> scales), 0, bits),
        details=[
            ScaleDetails(
                scale=s,
                hg=edge_words((shape[0] >> s, shape[1] >> s), 3 * s, bits),
                gh=edge_words((shape[0] >> s, shape[1] >> s), 3 * s + 1, bits),
                gg=edge_words((shape[0] >> s, shape[1] >> s), 3 * s + 2, bits),
            )
            for s in range(1, scales + 1)
        ],
    )
    for at_scale in range(1, scales + 1):
        same_outcome(
            lambda: engine.inverse_preview(pyramid, at_scale),
            lambda: reference_inverse(engine, pyramid, at_scale),
        )
    full = same_outcome(
        lambda: engine.inverse(pyramid), lambda: reference_inverse(engine, pyramid)
    )
    if full is not None:
        for y0, y1 in [(0, 3), (10, 14), (shape[0] - 4, shape[0])]:
            assert np.array_equal(engine.inverse_roi(pyramid, y0, y1), full[y0:y1])


class TestWrapPolicy:
    """``overflow_policy="wrap"`` must wrap the stored words, not just
    check them and hand back the unwrapped accumulator output."""

    def test_wrapped_forward_stays_in_word_range(self):
        bank = get_bank("F2")
        image = image_of((32, 32), 0)
        word = QFormat(16, 8)
        for policy in ("wrap", "saturate"):
            engine = FixedPointDWT(bank, 2, plan=shrunk_plan(bank, 2), overflow_policy=policy)
            pyramid = engine.forward(image)
            assert word.min_int <= pyramid.approximation.min()
            assert pyramid.approximation.max() <= word.max_int

    def test_wrapped_stage_is_congruent_to_wide_stage(self):
        bank = get_bank("F2")
        engine = FixedPointDWT(bank, 2, overflow_policy="wrap")
        line = image_of((4, 64), 1).astype(np.int64)
        narrow, wide = QFormat(16, 8), QFormat(32, 24)  # both 8 fractional bits
        for qfilt in (engine._qh, engine._qg):
            wrapped = engine._analysis_1d(line, qfilt, 0, narrow)
            exact = engine._analysis_1d(line, qfilt, 0, wide)
            assert not np.array_equal(wrapped, exact)  # the narrow word overflowed
            assert narrow.min_int <= wrapped.min() and wrapped.max() <= narrow.max_int
            assert np.array_equal(wrapped % (1 << 16), exact % (1 << 16))

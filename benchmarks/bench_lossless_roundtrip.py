"""Benchmark lossless — §3's bit-exact round trip with the 32-bit datapath."""

import time

import numpy as np
from bench_util import assert_reproduced

from repro.analysis.experiments import lossless
from repro.filters.catalog import get_bank
from repro.fxdwt.transform import FixedPointDWT
from repro.imaging.phantoms import ct_slice_series, random_image, shepp_logan


def test_lossless_roundtrip_ct_phantom(benchmark, save_report):
    """Fixed-point forward + inverse of a 256x256 CT phantom (6 scales, F2)."""
    engine = FixedPointDWT(get_bank("F2"), 6)
    image = shepp_logan(256)

    reconstructed, _ = benchmark(engine.roundtrip, image)
    assert np.array_equal(reconstructed, image)

    result = lossless.run()
    save_report(result)
    assert_reproduced(result)


def test_lossless_roundtrip_random_image(benchmark):
    """The paper's own validation input: a random 12-bit image."""
    engine = FixedPointDWT(get_bank("F2"), 6)
    image = random_image(256, seed=0)

    reconstructed, _ = benchmark(engine.roundtrip, image)
    assert np.array_equal(reconstructed, image)


def test_lossless_roundtrip_all_banks(benchmark):
    """All six Table I banks on one 64x64 phantom (4 scales each)."""
    image = shepp_logan(64)
    engines = [FixedPointDWT(get_bank(name), 4) for name in ("F1", "F2", "F3", "F4", "F5", "F6")]

    def roundtrip_all():
        return [engine.roundtrip(image)[0] for engine in engines]

    reconstructions = benchmark(roundtrip_all)
    assert all(np.array_equal(rec, image) for rec in reconstructions)


def _best_of(fn, *args, repeats=15):
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - began)
    return result, best


def test_fixed_point_passes_128(save_json_record):
    """Forward and inverse of a 128x128 CT slice (F2, 4 scales): the
    frame size the coefficient codec's round trips run at.

    A record only, with no timing gate: the times swing with host load.
    """
    engine = FixedPointDWT(get_bank("F2"), 4)
    image = ct_slice_series(count=1, size=128, seed=1)[0]
    engine.roundtrip(image)
    pyramid, forward_s = _best_of(engine.forward, image)
    reconstructed, inverse_s = _best_of(engine.inverse, pyramid)
    assert np.array_equal(reconstructed, image)
    mpix = image.size / 1e6
    save_json_record(
        "fxdwt_passes_128",
        {
            "bank": "F2",
            "scales": 4,
            "shape": list(image.shape),
            "forward_seconds": forward_s,
            "inverse_seconds": inverse_s,
            "forward_ms_per_mpix": forward_s * 1e3 / mpix,
            "inverse_ms_per_mpix": inverse_s * 1e3 / mpix,
        },
    )

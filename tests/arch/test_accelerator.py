"""Tests for repro.arch.accelerator (full runs + analytic performance model)."""

import numpy as np
import pytest

from repro.arch.accelerator import (
    DwtAccelerator,
    estimate_performance,
    forward_macrocycles,
    inverse_macrocycles,
)
from repro.arch.config import ArchitectureConfig, paper_configuration
from repro.coding.codec import LosslessWaveletCodec
from repro.filters.catalog import get_bank
from repro.fxdwt.transform import FixedPointDWT
from repro.imaging.phantoms import random_image, shepp_logan


class TestMacrocycleCounts:
    def test_single_scale_count(self):
        # One scale of an NxN image: N^2 row outputs + N^2 column outputs.
        assert forward_macrocycles(64, 1) == 2 * 64 * 64

    def test_multi_scale_geometric_sum(self):
        assert forward_macrocycles(64, 2) == 2 * 64 * 64 + 2 * 32 * 32

    def test_inverse_equals_forward(self):
        assert inverse_macrocycles(512, 6) == forward_macrocycles(512, 6)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            forward_macrocycles(1, 1)
        with pytest.raises(ValueError):
            forward_macrocycles(64, 0)


class TestPerformanceEstimate:
    def test_paper_headline_throughput(self):
        estimate = estimate_performance(paper_configuration())
        assert estimate.images_per_second == pytest.approx(3.5, rel=0.05)

    def test_paper_headline_utilisation(self):
        estimate = estimate_performance(paper_configuration())
        assert 100.0 * estimate.utilisation == pytest.approx(99.04, abs=0.02)

    def test_faster_clock_means_more_images(self):
        base = estimate_performance(paper_configuration())
        fast_config = ArchitectureConfig(clock_period_ns=25.0)
        fast = estimate_performance(fast_config)
        assert fast.images_per_second > base.images_per_second

    def test_smaller_image_is_proportionally_faster(self):
        small = estimate_performance(paper_configuration(image_size=256))
        big = estimate_performance(paper_configuration(image_size=512))
        assert small.transform_seconds < big.transform_seconds / 3.5

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            estimate_performance(direction="sideways")


class TestSimulatedRuns:
    @pytest.fixture(scope="class")
    def accelerator(self):
        return DwtAccelerator(ArchitectureConfig(image_size=32, scales=3))

    @pytest.fixture(scope="class")
    def image(self):
        return random_image(32, seed=5)

    @pytest.fixture(scope="class")
    def run(self, accelerator, image):
        pyramid, forward_report = accelerator.forward(image)
        reconstructed, inverse_report = accelerator.inverse(pyramid)
        return pyramid, forward_report, reconstructed, inverse_report

    def test_forward_matches_software_transform(self, run, image):
        pyramid, _, _, _ = run
        software = FixedPointDWT(get_bank("F2"), 3).forward(image)
        assert np.array_equal(pyramid.approximation, software.approximation)
        for ours, reference in zip(pyramid.details, software.details):
            assert np.array_equal(ours.hg, reference.hg)
            assert np.array_equal(ours.gh, reference.gh)
            assert np.array_equal(ours.gg, reference.gg)

    def test_round_trip_is_lossless(self, run, image):
        _, _, reconstructed, _ = run
        assert np.array_equal(reconstructed, image)

    def test_macrocycle_count_matches_closed_form(self, run):
        _, forward_report, _, inverse_report = run
        assert forward_report.macrocycles == forward_macrocycles(32, 3)
        assert inverse_report.macrocycles == inverse_macrocycles(32, 3)

    def test_simulated_utilisation_matches_analytic(self, run):
        _, forward_report, _, _ = run
        estimate = estimate_performance(ArchitectureConfig(image_size=32, scales=3))
        assert forward_report.utilisation == pytest.approx(estimate.utilisation, abs=1e-4)

    def test_dram_traffic_reads_equals_writes(self, run):
        _, forward_report, _, _ = run
        assert forward_report.dram_reads == forward_report.dram_writes

    def test_report_summary_mentions_direction(self, run):
        _, forward_report, _, inverse_report = run
        assert "FORWARD" in forward_report.summary()
        assert "INVERSE" in inverse_report.summary()

    def test_multiplies_equal_mac_workload(self, run):
        _, forward_report, _, _ = run
        # One MAC per tap per output sample: 24 taps per low/high output pair.
        bank = get_bank("F2")
        expected = forward_macrocycles(32, 3) // 2 * bank.mac_per_output_pair
        assert forward_report.multiplies == expected


#: (size, bank, engine): both catalog banks at every size on the fast
#: engine; the per-macro-cycle scalar engine at 32 only.
CODEC_CASES = [
    (size, bank, "fast") for size in (32, 64, 128) for bank in ("F2", "F5")
] + [(32, bank, "scalar") for bank in ("F2", "F5")]


class TestCodecBitIdentity:
    """Built on the coefficient codec's own word-length plan, the
    accelerator computes exactly the pyramid that codec entropy-codes."""

    @pytest.mark.parametrize("size, bank, engine", CODEC_CASES)
    def test_forward_and_streams_equal_codec_transform(self, size, bank, engine):
        scales = 3
        codec = LosslessWaveletCodec(bank, scales)
        accelerator = DwtAccelerator(
            ArchitectureConfig(image_size=size, scales=scales, bank_name=bank),
            plan=codec.plan,
            engine=engine,
        )
        frame = random_image(size, seed=11) if size == 32 else shepp_logan(size)
        pyramid, _ = accelerator.forward(frame)
        software = codec.forward_transform(frame)
        assert np.array_equal(pyramid.approximation, software.approximation)
        for ours, reference in zip(pyramid.details, software.details):
            assert np.array_equal(ours.hg, reference.hg)
            assert np.array_equal(ours.gh, reference.gh)
            assert np.array_equal(ours.gg, reference.gg)
        # So the entropy-coded streams are wire-identical too.
        assert codec.encode_pyramid(pyramid, frame.shape).chunks == codec.encode(frame).chunks
        restored, _ = accelerator.inverse(pyramid)
        assert np.array_equal(restored, frame)


class TestInputValidation:
    def test_wrong_image_size_rejected(self):
        accelerator = DwtAccelerator(ArchitectureConfig(image_size=32, scales=3))
        with pytest.raises(ValueError):
            accelerator.forward(np.zeros((64, 64), dtype=np.int64))

    def test_non_square_rejected(self):
        accelerator = DwtAccelerator(ArchitectureConfig(image_size=32, scales=3))
        with pytest.raises(ValueError):
            accelerator.forward(np.zeros((32, 64), dtype=np.int64))

    def test_inverse_scale_mismatch_rejected(self):
        accelerator = DwtAccelerator(ArchitectureConfig(image_size=32, scales=3))
        pyramid, _ = accelerator.forward(shepp_logan(32))
        other = DwtAccelerator(ArchitectureConfig(image_size=32, scales=2))
        with pytest.raises(ValueError):
            other.inverse(pyramid)

    def test_roundtrip_convenience(self):
        accelerator = DwtAccelerator(ArchitectureConfig(image_size=16, scales=2, bank_name="F5"))
        image = shepp_logan(16)
        reconstructed, pyramid, fwd, inv = accelerator.roundtrip(image)
        assert np.array_equal(reconstructed, image)
        assert pyramid.scales == 2
        assert fwd.macrocycles > 0 and inv.macrocycles > 0

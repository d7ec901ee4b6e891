"""Tests for the batched compression pipeline (repro.coding.pipeline)."""

import numpy as np
import pytest

from repro.coding.pipeline import (
    DECODE_STAGES,
    ENCODE_STAGES,
    CodecResources,
    PipelineStats,
    compress_frames,
    decompress_frames,
    encode_frame,
    max_dyadic_scales,
)
from repro.coding.spec import CodecSpec
from repro.imaging.mr import mr_slice
from repro.imaging.phantoms import (
    checkerboard,
    gradient_image,
    random_image,
    shepp_logan,
)


def mixed_batch():
    """A batch of >= 8 mixed-size, mixed-content frames."""
    return [
        shepp_logan(64),
        shepp_logan(128),
        gradient_image(32),
        checkerboard(64, tile=8),
        random_image(96, seed=3),
        mr_slice(128),
        gradient_image(48),
        random_image(40, seed=7),
        shepp_logan(256),
    ]


class TestMaxDyadicScales:
    def test_power_of_two(self):
        assert max_dyadic_scales((64, 64)) == 6
        assert max_dyadic_scales((256, 256)) == 8

    def test_mixed_dimensions(self):
        assert max_dyadic_scales((64, 32)) == 5
        assert max_dyadic_scales((48, 48)) == 4
        assert max_dyadic_scales((40, 40)) == 3

    def test_odd_unsupported(self):
        assert max_dyadic_scales((63, 63)) == 0


class TestCompressDecompressFrames:
    @pytest.mark.parametrize("codec", ["s-transform", "coefficient"])
    def test_mixed_batch_roundtrip_lossless(self, codec):
        frames = mixed_batch()
        batch = compress_frames(frames, codec=codec, scales=4)
        decoded, stats = decompress_frames(batch)
        assert len(decoded) == len(frames)
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)
        assert stats.frames == len(frames)
        assert stats.pixels == sum(int(f.size) for f in frames)

    def test_byte_identical_to_scalar_codec(self):
        frames = mixed_batch()
        fast = compress_frames(frames, codec="s-transform", scales=4, engine="fast")
        scalar = compress_frames(frames, codec="s-transform", scales=4, engine="scalar")
        for stream_fast, stream_scalar in zip(fast.streams, scalar.streams):
            assert stream_fast.chunks == stream_scalar.chunks

    def test_cross_engine_decode(self):
        frames = mixed_batch()[:4]
        batch = compress_frames(frames, codec="s-transform", scales=4)
        decoded, _ = decompress_frames(batch, engine="scalar")
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)

    def test_scales_clamped_per_frame(self):
        batch = compress_frames([shepp_logan(64), random_image(40, seed=1)], scales=5)
        assert batch.streams[0].scales == 5
        assert batch.streams[1].scales == 3  # 40 = 8 * 5 supports only 3 scales

    def test_stats_accounting(self):
        frames = mixed_batch()
        batch = compress_frames(frames, codec="s-transform", scales=4)
        stats = batch.stats
        assert set(stats.stage_seconds) == {"transform", "entropy_encode"}
        assert stats.total_seconds > 0
        assert stats.compressed_bytes == batch.compressed_bytes
        assert stats.raw_bytes == batch.original_bytes
        assert batch.compression_ratio == pytest.approx(
            stats.raw_bytes / stats.compressed_bytes
        )
        assert "Mpixel/s" in stats.render()

    def test_compresses_smooth_content(self):
        batch = compress_frames([shepp_logan(128)] * 2, codec="s-transform", scales=4)
        assert batch.compression_ratio > 1.2

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            compress_frames([shepp_logan(64)], codec="jpeg2000")

    @pytest.mark.parametrize("transform", ["software", "accelerator", "fpga"])
    def test_transform_keyword_rejected(self, transform):
        # There is one transform path; a stray transform= lands in the codec
        # options and is rejected there, never silently ignored.
        with pytest.raises(ValueError, match="transform"):
            compress_frames([shepp_logan(64)], codec="coefficient", transform=transform)

    def test_undecomposable_frame_rejected(self):
        with pytest.raises(ValueError):
            compress_frames([np.zeros((63, 63), dtype=np.int64)])

    def test_coefficient_codec_options_forwarded(self):
        batch = compress_frames(
            [shepp_logan(32)], codec="coefficient", scales=2, bank="F1", use_rle=False
        )
        assert batch.streams[0].bank_name == "F1"
        decoded, _ = decompress_frames(batch)
        assert np.array_equal(decoded[0], shepp_logan(32))


class TestOneTransformPath:
    """Every frame runs its codec's own forward and inverse transform, each
    direction timed as the two stages of ``ENCODE_STAGES``/``DECODE_STAGES``."""

    @pytest.mark.parametrize("codec", ["s-transform", "coefficient"])
    def test_stage_seconds_keys(self, codec):
        batch = compress_frames(mixed_batch()[:3], codec=codec, scales=3)
        assert set(batch.stats.stage_seconds) == set(ENCODE_STAGES)
        _, stats = decompress_frames(batch)
        assert set(stats.stage_seconds) == set(DECODE_STAGES)

    @pytest.mark.parametrize("codec", ["s-transform", "coefficient"])
    def test_encode_frame_matches_compress_frames(self, codec):
        # The streaming ingest front end calls encode_frame one frame at a
        # time; it must write the batch's bytes and counters.
        frames = mixed_batch()[:3]
        spec = CodecSpec(codec=codec, scales=3)
        batch = compress_frames(frames, spec=spec)
        resources = CodecResources(spec)
        stats = PipelineStats()
        streams = [encode_frame(frame, spec, resources, stats) for frame in frames]
        assert [s.chunks for s in streams] == [s.chunks for s in batch.streams]
        assert stats.frames == len(frames)
        assert stats.pixels == batch.stats.pixels
        assert stats.compressed_bytes == batch.compressed_bytes
        assert set(stats.stage_seconds) == set(ENCODE_STAGES)

    @pytest.mark.parametrize("codec", ["s-transform", "coefficient"])
    def test_non_square_frames_roundtrip(self, codec):
        tall = np.arange(64 * 32, dtype=np.int64).reshape(64, 32) % 4096
        frames = [tall, np.ascontiguousarray(tall.T)]
        batch = compress_frames(frames, codec=codec, scales=3)
        decoded, _ = decompress_frames(batch)
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)

    def test_custom_bank_matches_catalog_bank(self):
        # A bank object with the catalog taps writes the catalog bank's bytes.
        import dataclasses

        from repro.filters.catalog import get_bank

        frames = [shepp_logan(64), random_image(32, seed=11)]
        custom = dataclasses.replace(get_bank("F2"))
        catalog = compress_frames(frames, codec="coefficient", scales=2, bank="F2")
        batch = compress_frames(frames, codec="coefficient", scales=2, bank=custom)
        assert [s.chunks for s in batch.streams] == [s.chunks for s in catalog.streams]
        decoded, _ = decompress_frames(batch)
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)

"""Parallel/serial byte-identity of the multi-core executor.

The contract under test: sharding a batch across a process pool changes
*nothing* about the streams — every codec/engine combination produces
byte-identical output at every worker count, and parallel decode
reconstructs every frame bit for bit.
"""

import numpy as np
import pytest

from repro.coding import compress_frames, decompress_frames
from repro.coding.executor import ParallelExecutor, default_workers
from repro.coding.pipeline import PipelineStats
from repro.coding.spec import CodecSpec
from repro.imaging.mr import mr_slice
from repro.imaging.phantoms import (
    checkerboard,
    gradient_image,
    random_image,
    shepp_logan,
)


def mixed_batch_32():
    """32 mixed-size, mixed-content square frames."""
    makers = [
        lambda i: shepp_logan(32),
        lambda i: random_image(16, seed=i),
        lambda i: gradient_image(64),
        lambda i: checkerboard(48, tile=8),
        lambda i: mr_slice(32),
        lambda i: random_image(64, seed=100 + i),
        lambda i: shepp_logan(48),
        lambda i: random_image(32, seed=200 + i),
    ]
    return [makers[i % len(makers)](i) for i in range(32)]


#: Every codec/engine combination the pipeline supports.
CONFIGS = [
    CodecSpec(codec="s-transform", scales=3, engine="fast"),
    CodecSpec(codec="s-transform", scales=3, engine="scalar"),
    CodecSpec(codec="coefficient", scales=3, engine="fast"),
    CodecSpec(codec="coefficient", scales=3, engine="scalar"),
]


def _chunks(stream):
    # CompressedImage keeps a chunk list, CompressedSImage a chunk dict;
    # both compare by value.
    return stream.chunks


class TestByteIdentity:
    @pytest.mark.parametrize(
        "spec", CONFIGS, ids=lambda s: f"{s.codec}-{s.engine}"
    )
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_equals_serial(self, spec, workers):
        # The scalar entropy engine is the deliberately slow bit-by-bit
        # reference; a smaller batch keeps the matrix fast without losing
        # the mixed-size coverage.
        frames = mixed_batch_32()
        if spec.engine == "scalar":
            frames = frames[:8]
        serial = compress_frames(frames, spec=spec)
        parallel = compress_frames(frames, spec=spec, workers=workers)
        assert len(parallel.streams) == len(frames)
        for a, b in zip(serial.streams, parallel.streams):
            assert _chunks(a) == _chunks(b)
        # Stats survive the merge: same totals, same stage names.
        assert parallel.stats.frames == serial.stats.frames
        assert parallel.stats.pixels == serial.stats.pixels
        assert parallel.stats.compressed_bytes == serial.stats.compressed_bytes
        assert set(parallel.stats.stage_seconds) == set(serial.stats.stage_seconds)
        if workers > 1:
            assert parallel.stats.workers == min(workers, len(frames))
            assert parallel.stats.wall_seconds > 0.0
            # Parallel render shows both denominators: worker CPU time and
            # batch elapsed time.
            rendered = parallel.stats.render()
            assert "cpu total" in rendered and "elapsed" in rendered

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_decode_lossless(self, workers):
        frames = mixed_batch_32()
        batch = compress_frames(frames, codec="s-transform", scales=3)
        decoded, stats = decompress_frames(batch, workers=workers)
        assert len(decoded) == len(frames)
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)
        assert stats.frames == len(frames)
        assert set(stats.stage_seconds) == {"entropy_decode", "inverse"}


class TestExecutorApi:
    def test_workers_one_degenerates_to_serial(self):
        frames = [shepp_logan(32)] * 3
        executor = ParallelExecutor(1)
        batch = executor.compress(frames, CodecSpec(scales=2))
        assert batch.stats.workers == 1
        assert batch.stats.wall_seconds == 0.0  # serial path: no pool ran

    def test_single_frame_skips_the_pool(self):
        batch = ParallelExecutor(4).compress([shepp_logan(32)], CodecSpec(scales=2))
        assert batch.stats.workers == 1

    def test_more_workers_than_frames(self):
        frames = [shepp_logan(32), random_image(32, seed=1)]
        batch = ParallelExecutor(8).compress(frames, CodecSpec(scales=2))
        assert batch.stats.workers == 2  # shards are capped at the frame count

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_compress_kwargs_shim(self):
        batch = ParallelExecutor(2).compress(
            [shepp_logan(32)] * 2, codec="s-transform", scales=2
        )
        assert batch.spec == CodecSpec(scales=2)
        with pytest.raises(ValueError, match="not both"):
            ParallelExecutor(2).compress(
                [shepp_logan(32)], spec=CodecSpec(), codec="s-transform"
            )

    def test_merge_keeps_serial_elapsed_time(self):
        """Merging a serial run into a parallel one must not drop the
        serial run's elapsed time from the wall clock."""
        parallel = PipelineStats(workers=2, wall_seconds=2.0)
        parallel.add_stage("transform", 3.5)
        serial = PipelineStats()
        serial.add_stage("transform", 3.0)
        parallel.merge(serial)
        assert parallel.elapsed_seconds == pytest.approx(5.0)  # 2.0 + 3.0
        # And the symmetric order: serial accumulated first.
        first = PipelineStats()
        first.add_stage("transform", 3.0)
        second = PipelineStats(workers=2, wall_seconds=2.0)
        second.add_stage("transform", 3.5)
        first.merge(second)
        assert first.elapsed_seconds == pytest.approx(5.0)
        # All-serial merges keep the old semantics: elapsed == stage sum.
        a, b = PipelineStats(), PipelineStats()
        a.add_stage("transform", 1.0)
        b.add_stage("transform", 2.0)
        a.merge(b)
        assert a.wall_seconds == 0.0
        assert a.elapsed_seconds == pytest.approx(3.0)

    def test_merge_is_associative_on_counts(self):
        a = PipelineStats(frames=2, pixels=100, raw_bytes=10, compressed_bytes=5)
        a.add_stage("transform", 0.5)
        b = PipelineStats(frames=3, pixels=50, raw_bytes=4, compressed_bytes=2, workers=4)
        b.add_stage("transform", 0.25)
        b.add_stage("entropy_encode", 0.25)
        a.merge(b)
        assert a.frames == 5 and a.pixels == 150
        assert a.stage_seconds == {"transform": 0.75, "entropy_encode": 0.25}
        assert a.workers == 4

    def test_errors_propagate_from_workers(self):
        bad = [np.full((32, 32), 1 << 14, dtype=np.int64)]  # outside 12-bit range
        with pytest.raises(ValueError, match="range"):
            ParallelExecutor(2).compress(bad * 4, CodecSpec(scales=2))

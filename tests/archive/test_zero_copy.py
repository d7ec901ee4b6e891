"""The mmap zero-copy read path: correctness, accounting, and fallbacks.

Zero-copy reads must be invisible except in speed: identical decoded
frames, identical ``bytes_read`` accounting, identical errors on damage.
These tests pin that contract for file and memory backends, prove the
``zero_copy_reads`` counter reports which path served each read, and check
the cross-tier property that an archive packed under any engine tier
decodes identically under every other tier.
"""

import numpy as np
import pytest

from repro.archive.backend import (
    Fault,
    FaultInjectionBackend,
    FileBackend,
    MemoryBackend,
)
from repro.archive.format import ArchiveIntegrityError
from repro.archive.reader import ArchiveReader
from repro.archive.serialize import materialize_stream, serialize_stream
from repro.archive.sharding import ShardedArchiveReader, ShardedArchiveWriter
from repro.archive.writer import ArchiveWriter

ENGINES = ("fast", "scalar")


@pytest.fixture
def frames(rng):
    return [
        rng.integers(0, 4096, size=(32, 32)).astype(np.int64) for _ in range(6)
    ]


@pytest.fixture
def archive_path(tmp_path, frames):
    path = tmp_path / "frames.dwta"
    with ArchiveWriter.create(path, scales=2) as writer:
        writer.append_batch(frames)
    return path


class TestFileBackendReadRange:
    def test_serves_memoryview_of_mapping(self, archive_path):
        backend = FileBackend(archive_path)
        data = archive_path.read_bytes()
        view = backend.read_range(4, 32)
        assert isinstance(view, memoryview)
        assert view.tobytes() == data[4:36]
        backend.release()

    def test_short_at_end_of_file(self, archive_path):
        backend = FileBackend(archive_path)
        size = archive_path.stat().st_size
        view = backend.read_range(size - 10, 64)
        assert view is not None and len(view) == 10
        backend.release()

    def test_remaps_after_growth(self, tmp_path):
        path = tmp_path / "grow.bin"
        path.write_bytes(b"a" * 64)
        backend = FileBackend(path)
        assert backend.read_range(0, 64).tobytes() == b"a" * 64
        with open(path, "ab") as fh:
            fh.write(b"b" * 64)
        assert backend.read_range(64, 64).tobytes() == b"b" * 64
        backend.release()

    def test_release_then_reuse(self, archive_path):
        backend = FileBackend(archive_path)
        first = backend.read_range(0, 4).tobytes()
        backend.release()
        assert backend.read_range(0, 4).tobytes() == first
        backend.release()

    def test_missing_file_returns_none(self, tmp_path):
        assert FileBackend(tmp_path / "nope.bin").read_range(0, 8) is None

    def test_invalid_range_rejected(self, archive_path):
        backend = FileBackend(archive_path)
        with pytest.raises(ValueError):
            backend.read_range(-1, 4)
        with pytest.raises(ValueError):
            backend.read_range(0, -4)


class TestMemoryBackendReadRange:
    def test_serves_buffer_slice(self):
        backend = MemoryBackend(b"0123456789")
        view = backend.read_range(2, 5)
        assert isinstance(view, memoryview)
        assert view.tobytes() == b"23456"

    def test_short_at_end(self):
        assert MemoryBackend(b"abc").read_range(1, 10).tobytes() == b"bc"


class TestReaderZeroCopy:
    def test_decodes_identically_to_copy_path(self, archive_path, frames):
        with ArchiveReader(archive_path) as zc, ArchiveReader(
            archive_path, zero_copy=False
        ) as copy:
            for i, frame in enumerate(frames):
                assert np.array_equal(zc.decode(i), frame)
                assert np.array_equal(copy.decode(i), frame)
            assert zc.bytes_read == copy.bytes_read
            assert zc.zero_copy_reads == len(frames)
            assert copy.zero_copy_reads == 0

    def test_memory_backend_is_zero_copy(self, frames):
        backend = MemoryBackend()
        with ArchiveWriter.create(backend, scales=2) as writer:
            writer.append_batch(frames)
        with ArchiveReader(backend) as reader:
            assert np.array_equal(reader.decode(0), frames[0])
            assert reader.zero_copy_reads == 1

    def test_unsupported_backend_falls_back(self, archive_path):
        # FaultInjectionBackend (fault-free plan) has no read_range: reads
        # must silently take the counted copy path.
        backend = FaultInjectionBackend(FileBackend(archive_path))
        with ArchiveReader(backend) as reader:
            reader.decode(0)
            assert reader.zero_copy_reads == 0
            assert reader.bytes_read > 0
            assert backend.reads > 0

    def test_checksum_still_verified(self, archive_path, frames):
        with ArchiveReader(archive_path) as reader:
            entry = reader.frames[2]
        data = bytearray(archive_path.read_bytes())
        data[entry.offset + 5] ^= 0x10
        archive_path.write_bytes(bytes(data))
        with ArchiveReader(archive_path) as reader:
            with pytest.raises(ArchiveIntegrityError):
                reader.decode(2)
            assert reader.zero_copy_reads == 1  # the read happened, then failed CRC

    def test_parallel_decode_materializes_views(self, archive_path, frames):
        with ArchiveReader(archive_path) as reader:
            images, _ = reader.decode_all(workers=2)
        assert all(np.array_equal(a, b) for a, b in zip(images, frames))

    def test_materialize_stream_copies_views(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            stream = reader.read_stream(0)
            payload_before = serialize_stream(stream)
            materialize_stream(stream)
        # The materialised stream survives the reader (and its mapping).
        assert serialize_stream(stream) == payload_before

    def test_faulted_reads_still_fire_without_zero_copy_path(self, archive_path):
        backend = FaultInjectionBackend(
            FileBackend(archive_path), [Fault(kind="io-error", at_read=0, times=1)]
        )
        with pytest.raises(OSError):
            ArchiveReader(backend)
        assert backend.fired


class TestShardedZeroCopy:
    def test_counters_aggregate_across_shards(self, tmp_path, frames):
        manifest = tmp_path / "set.dwtm"
        with ShardedArchiveWriter.create(manifest, shards=3, scales=2) as writer:
            writer.append_batch(frames, names=[f"f{i}" for i in range(len(frames))])
        with ShardedArchiveReader(manifest) as reader:
            for i in range(len(frames)):
                reader.decode(f"f{i}")
            assert reader.zero_copy_reads == len(frames)
            assert reader.bytes_read > 0
        with ShardedArchiveReader(manifest, zero_copy=False) as reader:
            reader.decode("f0")
            assert reader.zero_copy_reads == 0

    def test_parallel_decode_all(self, tmp_path, frames):
        manifest = tmp_path / "set.dwtm"
        with ShardedArchiveWriter.create(manifest, shards=2, scales=2) as writer:
            writer.append_batch(frames, names=[f"f{i}" for i in range(len(frames))])
        with ShardedArchiveReader(manifest) as reader:
            images, _ = reader.decode_all(workers=2)
        expected = [frame for _, frame in sorted(zip(
            [f"f{i}" for i in range(len(frames))], frames), key=lambda p: p[0])]
        assert all(np.array_equal(a, b) for a, b in zip(images, expected))


class TestCrossTierArchives:
    @pytest.mark.parametrize("pack_engine", ENGINES)
    def test_any_tier_decodes_any_tier_archive(self, tmp_path, frames, pack_engine):
        path = tmp_path / f"{pack_engine}.dwta"
        with ArchiveWriter.create(path, scales=2, engine=pack_engine) as writer:
            writer.append_batch(frames[:3])
        streams = {}
        for decode_engine in ENGINES:
            with ArchiveReader(path, engine=decode_engine) as reader:
                images = [reader.decode(i) for i in range(3)]
                for image, frame in zip(images, frames):
                    assert np.array_equal(image, frame)
            streams[decode_engine] = images

    def test_packed_bytes_identical_across_tiers(self, tmp_path, frames):
        digests = set()
        for engine in ENGINES:
            path = tmp_path / f"bytes-{engine}.dwta"
            with ArchiveWriter.create(path, scales=2, engine=engine) as writer:
                writer.append_batch(frames[:3])
            digests.add(path.read_bytes())
        assert len(digests) == 1

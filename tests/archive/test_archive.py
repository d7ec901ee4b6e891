"""Writer/reader corner cases: the acceptance checklist of the container."""

import numpy as np
import pytest

from repro.archive import ArchiveReader, ArchiveWriter
from repro.coding import compress_frames
from repro.imaging import ct_slice_series, random_image, shepp_logan

pytestmark = pytest.mark.archive


def _mixed_frames(count=32, seed=0):
    """Mixed-size 12-bit frames: 64x64, 32x32 and 48x48 in rotation."""
    sizes = [64, 32, 48]
    return [random_image(sizes[i % len(sizes)], seed=seed + i) for i in range(count)]


@pytest.fixture(scope="module")
def mixed_archive(tmp_path_factory):
    frames = _mixed_frames()
    path = tmp_path_factory.mktemp("archive") / "mixed.dwta"
    with ArchiveWriter.create(path, codec="s-transform", scales=4) as writer:
        writer.add_frames(frames)
    return path, frames


class TestRoundTrip:
    def test_32_frame_mixed_size_roundtrip(self, mixed_archive):
        path, frames = mixed_archive
        with ArchiveReader(path) as reader:
            assert len(reader) == 32
            decoded, stats = reader.decode_all()
            assert stats.frames == 32
            for image, original in zip(decoded, frames):
                assert np.array_equal(image, original)
            # Mixed geometry means per-frame scales were clamped.
            assert {entry.scales for entry in reader} == {4}
            assert {entry.shape for entry in reader} == {(64, 64), (32, 32), (48, 48)}

    def test_random_access_equals_full_decode(self, mixed_archive):
        path, frames = mixed_archive
        with ArchiveReader(path) as reader:
            full, _ = reader.decode_all()
        for index in (0, 7, 17, 31):
            with ArchiveReader(path) as reader:
                single = reader.decode(index)
                assert np.array_equal(single, full[index])
                assert np.array_equal(single, frames[index])
                # Only that frame's payload bytes were read off disk.
                assert reader.bytes_read == reader.frames[index].length
                assert reader.bytes_read < reader.compressed_bytes / 5

    def test_decode_range(self, mixed_archive):
        path, frames = mixed_archive
        with ArchiveReader(path) as reader:
            middle = reader.decode_range(10, 13)
            assert len(middle) == 3
            for image, original in zip(middle, frames[10:13]):
                assert np.array_equal(image, original)
            touched = sum(entry.length for entry in reader.frames[10:13])
            assert reader.bytes_read == touched

    def test_lookup_by_name_and_negative_index(self, mixed_archive):
        path, frames = mixed_archive
        with ArchiveReader(path) as reader:
            assert np.array_equal(reader.decode("frame_00003"), frames[3])
            assert np.array_equal(reader.decode(-1), frames[-1])
            with pytest.raises(KeyError, match="no frame named"):
                reader.find("nope")
            with pytest.raises(KeyError, match="no index"):
                reader.find(99)


class TestCornerCases:
    def test_empty_archive(self, tmp_path):
        path = tmp_path / "empty.dwta"
        with ArchiveWriter.create(path):
            pass
        with ArchiveReader(path) as reader:
            assert len(reader) == 0
            assert reader.names() == []
            decoded, stats = reader.decode_all()
            assert decoded == [] and stats.frames == 0
            assert reader.verify(deep=True)["frames"] == 0

    def test_single_frame(self, tmp_path):
        path = tmp_path / "one.dwta"
        image = shepp_logan(64)
        with ArchiveWriter.create(path) as writer:
            writer.add_frames([image], names=["only"])
        with ArchiveReader(path) as reader:
            assert reader.names() == ["only"]
            assert np.array_equal(reader.decode("only"), image)

    def test_append_then_read(self, tmp_path):
        path = tmp_path / "series.dwta"
        first = ct_slice_series(count=3, size=64, seed=1)
        second = ct_slice_series(count=2, size=64, seed=2)
        with ArchiveWriter.create(path) as writer:
            writer.add_frames(first)
        size_after_create = path.stat().st_size
        with ArchiveWriter.append(path) as writer:
            # Config (codec, scales, bit depth) is inherited from the archive.
            assert writer.codec == "s-transform"
            assert writer.codec_options["bit_depth"] == 12
            writer.add_frames(second, names=["extra_0", "extra_1"])
        assert path.stat().st_size > size_after_create
        with ArchiveReader(path) as reader:
            assert len(reader) == 5
            for index, image in enumerate(list(first) + list(second)):
                assert np.array_equal(reader.decode(index), image)

    def test_append_to_empty_archive(self, tmp_path):
        path = tmp_path / "grow.dwta"
        with ArchiveWriter.create(path):
            pass
        with ArchiveWriter.append(path) as writer:
            writer.add_frames([shepp_logan(32)])
        with ArchiveReader(path) as reader:
            assert len(reader) == 1

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "dup.dwta"
        with ArchiveWriter.create(path) as writer:
            writer.add_frames([shepp_logan(32)], names=["a"])
            with pytest.raises(ValueError, match="already has a frame named"):
                writer.add_frames([shepp_logan(32)], names=["a"])

    def test_create_refuses_to_clobber(self, tmp_path):
        path = tmp_path / "exists.dwta"
        with ArchiveWriter.create(path):
            pass
        with pytest.raises(FileExistsError):
            ArchiveWriter.create(path)
        with ArchiveWriter.create(path, overwrite=True) as writer:
            writer.add_frames([shepp_logan(32)])
        with ArchiveReader(path) as reader:
            assert len(reader) == 1

    def test_coefficient_codec_archive(self, tmp_path):
        path = tmp_path / "coeff.dwta"
        image = shepp_logan(64)
        with ArchiveWriter.create(path, codec="coefficient", bank="F4", scales=3) as writer:
            writer.add_frames([image])
        with ArchiveReader(path) as reader:
            entry = reader.frames[0]
            assert entry.codec == "coefficient"
            assert entry.bank_name == "F4"
            assert entry.use_rle
            assert np.array_equal(reader.decode(0), image)

    def test_add_batch_from_pipeline(self, tmp_path):
        """compress_frames output archives directly, stats carried over."""
        path = tmp_path / "batch.dwta"
        frames = _mixed_frames(count=4)
        batch = compress_frames(frames, codec="s-transform", scales=4)
        with ArchiveWriter.create(path) as writer:
            writer.add_batch(batch, names=["a", "b", "c", "d"])
            assert writer.stats.frames == 4
            assert writer.stats.compressed_bytes == batch.stats.compressed_bytes
        with ArchiveReader(path) as reader:
            for name, original in zip("abcd", frames):
                assert np.array_equal(reader.decode(name), original)

    def test_add_batch_codec_mismatch(self, tmp_path):
        batch = compress_frames([shepp_logan(32)], codec="s-transform", scales=2)
        with ArchiveWriter.create(tmp_path / "x.dwta", codec="coefficient") as writer:
            with pytest.raises(ValueError, match="configured for"):
                writer.add_batch(batch)

    def test_scalar_engine_decodes_fast_stream(self, mixed_archive):
        """Archives are wire-compatible across entropy-coding engines."""
        path, frames = mixed_archive
        with ArchiveReader(path, engine="scalar") as reader:
            assert np.array_equal(reader.decode(5), frames[5])

    def test_engine_resolved_when_opened(self, mixed_archive):
        path, frames = mixed_archive
        # A bad name fails at open, not at the first decode.
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            ArchiveReader(path, engine="bogus")
        # The retired turbo tier is read as fast.
        with ArchiveReader(path, engine="turbo") as reader:
            assert reader.engine == "fast"
            assert np.array_equal(reader.decode(5), frames[5])

    @pytest.mark.parametrize(
        "name, expected",
        [(None, "fast"), ("fast", "fast"), ("scalar", "scalar"), ("turbo", "fast")],
    )
    def test_reader_stores_resolved_engine(self, mixed_archive, monkeypatch, name, expected):
        path, frames = mixed_archive
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with ArchiveReader(path, engine=name) as reader:
            assert reader.engine == expected
            assert np.array_equal(reader.decode(2), frames[2])

    @pytest.mark.parametrize("name", ["", "FAST", "huffman"])
    def test_reader_rejects_unknown_engine_at_open(self, mixed_archive, name):
        path, _ = mixed_archive
        with pytest.raises(ValueError, match="unknown engine"):
            ArchiveReader(path, engine=name)

    def test_writer_rejects_unknown_engine(self, tmp_path):
        path = tmp_path / "bogus.dwta"
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            ArchiveWriter.create(path, engine="bogus")
        assert not path.exists()

    def test_append_resolves_turbo_to_fast(self, tmp_path):
        path = tmp_path / "turbo.dwta"
        frames = [shepp_logan(32), random_image(32, seed=4)]
        with ArchiveWriter.create(path, codec="coefficient", scales=2) as writer:
            writer.add_frames(frames[:1])
        with ArchiveWriter.append(path, engine="turbo") as writer:
            assert writer.engine == "fast"
            writer.add_frames(frames[1:])
        with ArchiveReader(path) as reader:
            for index, original in enumerate(frames):
                assert np.array_equal(reader.decode(index), original)

    def test_verify_reports(self, mixed_archive):
        path, _ = mixed_archive
        with ArchiveReader(path) as reader:
            report = reader.verify()
            assert report["frames"] == 32
            assert report["payload_bytes"] == reader.compressed_bytes
            assert reader.verify(deep=True)["deep"] is True

"""CodecSpec round trips through archive frame headers, and parallel packing."""

import numpy as np
import pytest

from repro.archive import (
    ArchiveReader,
    ArchiveWriter,
    deserialize_stream_with_spec,
    frame_spec,
    serialize_stream,
    spec_for_stream,
)
from repro.archive.format import ArchiveFormatError
from repro.archive.serialize import _serialize_frame_major
from repro.coding import compress_frames
from repro.coding.spec import CodecSpec
from repro.imaging.phantoms import random_image, shepp_logan

pytestmark = pytest.mark.archive


def frames_4():
    return [shepp_logan(32), random_image(32, seed=1), shepp_logan(64), random_image(48, seed=2)]


SPECS = [
    CodecSpec(codec="s-transform", scales=3, bit_depth=12),
    CodecSpec(codec="coefficient", scales=2, bank="F1", use_rle=False, bit_depth=12),
    CodecSpec(codec="coefficient", scales=3, bank="F2", use_rle=True, bit_depth=12),
]


class TestSpecThroughFrameHeaders:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_payload_header_roundtrip(self, spec):
        """serialize -> deserialize recovers the stream AND its spec."""
        batch = compress_frames(frames_4(), spec=spec)
        for stream in batch.streams:
            payload = serialize_stream(stream)
            restored, restored_spec = deserialize_stream_with_spec(payload)
            assert spec_for_stream(restored) == restored_spec
            # The stored spec is the writer's spec at the frame's clamped
            # depth (transform/engine are runtime choices, not wire format).
            assert restored_spec == CodecSpec(
                codec=spec.codec,
                scales=stream.scales,
                bit_depth=spec.bit_depth,
                bank=spec.bank if spec.family.uses_bank else None,
                use_rle=spec.use_rle,
            )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_index_entry_roundtrip(self, spec, tmp_path):
        """frame_spec(entry) rebuilds the spec from the index alone."""
        path = tmp_path / "spec.dwta"
        with ArchiveWriter.create(path, spec=spec) as writer:
            writer.append_batch(frames_4())
        with ArchiveReader(path) as reader:
            for entry, stream in zip(reader.frames, frames_4()):
                stored = frame_spec(entry)
                assert stored.codec == spec.codec
                assert stored.bit_depth == spec.bit_depth
                assert stored.bank_name == spec.bank_name
                assert stored.use_rle == spec.use_rle
                # And the reader's view applies its decode engine on top.
                assert reader.spec_for(entry) == stored.replace(engine=reader.engine)
                # JSON round trip of the stored spec.
                assert CodecSpec.from_json(stored.to_json()) == stored
                # No payload bytes were read to reconstruct any of this.
            assert reader.bytes_read == 0

    def test_spec_survives_writer_append_inheritance(self, tmp_path):
        path = tmp_path / "inherit.dwta"
        spec = CodecSpec(codec="coefficient", scales=2, bank="F1", use_rle=False)
        with ArchiveWriter.create(path, spec=spec) as writer:
            writer.append_batch(frames_4()[:2])
        appender = ArchiveWriter.append(path)
        try:
            assert appender.spec.codec == "coefficient"
            assert appender.spec.bank_name == "F1"
            assert appender.spec.use_rle is False
            assert appender.spec.scales == 2
        finally:
            appender.close()

    def test_unregistered_codec_id_is_a_format_error(self):
        batch = compress_frames(frames_4()[:1], codec="s-transform", scales=2)
        payload = bytearray(_serialize_frame_major(batch.streams[0]))
        payload[4] = 0xEE  # first meta byte is the codec wire id
        with pytest.raises(ArchiveFormatError, match="codec id"):
            deserialize_stream_with_spec(bytes(payload))


class TestParallelPacking:
    def test_parallel_pack_is_byte_identical_on_disk(self, tmp_path):
        """workers=4 writes the exact same archive file as workers=1."""
        frames = [random_image(32, seed=i) for i in range(8)]
        serial_path = tmp_path / "serial.dwta"
        parallel_path = tmp_path / "parallel.dwta"
        with ArchiveWriter.create(serial_path, codec="s-transform", scales=3) as writer:
            writer.append_batch(frames, workers=1)
        with ArchiveWriter.create(parallel_path, codec="s-transform", scales=3) as writer:
            writer.append_batch(frames, workers=4)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_writer_level_workers_default(self, tmp_path):
        frames = [random_image(32, seed=i) for i in range(4)]
        path = tmp_path / "w.dwta"
        with ArchiveWriter.create(path, codec="s-transform", scales=3, workers=2) as writer:
            writer.append_batch(frames)
            assert writer.stats.workers == 2
        with ArchiveReader(path) as reader:
            decoded, _ = reader.decode_all()
            for original, reconstructed in zip(frames, decoded):
                assert np.array_equal(original, reconstructed)

    def test_reader_parallel_decode_all(self, tmp_path):
        frames = [random_image(32, seed=i) for i in range(6)]
        path = tmp_path / "r.dwta"
        with ArchiveWriter.create(path, codec="s-transform", scales=3) as writer:
            writer.append_batch(frames)
        with ArchiveReader(path) as reader:
            decoded, stats = reader.decode_all(workers=2)
            assert stats.workers == 2
            for original, reconstructed in zip(frames, decoded):
                assert np.array_equal(original, reconstructed)

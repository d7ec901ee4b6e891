"""One front reader: a plain container opens as a one-shard set.

``open_archive`` returns :class:`ShardedArchiveReader` for a manifest, a
plain path and a :class:`StorageBackend` alike.  A plain container keeps
what makes it a single container (container listing order, eager open,
its own verify errors) while sharing every set-level code path; the
manifest the sets store is confined to plain file names in its own
directory, and malformed text in an index or manifest is a typed archive
error that the failover ladder and the HTTP 503 mapping handle.
"""

import asyncio
import dataclasses
import json
import struct

import numpy as np
import pytest

from repro.archive import (
    ArchiveFormatError,
    ArchiveIntegrityError,
    ArchiveReader,
    ArchiveWriter,
    MemoryBackend,
    ReplicatedShardSet,
    ShardedArchiveReader,
    ShardedArchiveWriter,
    open_archive,
)
from repro.archive.cli import main
from repro.archive.format import (
    MANIFEST_MAGIC,
    ShardManifest,
    crc32,
    pack_header,
    pack_manifest,
    read_header,
    unpack_manifest,
)
from repro.coding.executor import ParallelExecutor
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series
from repro.imaging.io_pgm import read_pgm
from server_util import http_request, running_server

pytestmark = pytest.mark.archive

FRAMES = ct_slice_series(count=4, size=32, seed=11)


def plain_archive(path, names, frames=FRAMES, **options):
    with ArchiveWriter.create(path, scales=2, **options) as writer:
        writer.append_batch(list(frames[: len(names)]), names=list(names))
    return path


def raw_manifest(shard_names, spec_json, replica_names=None):
    """Version-2 manifest bytes packed by hand, so a test can store what
    :func:`pack_manifest` refuses to write."""

    def text(value):
        data = value if isinstance(value, bytes) else value.encode("utf-8")
        return struct.pack("<H", len(data)) + data

    spec = spec_json if isinstance(spec_json, bytes) else spec_json.encode("utf-8")
    parts = [
        struct.pack("<8sHBBI", MANIFEST_MAGIC, 2, 0, 1, len(shard_names)),
        struct.pack("<I", len(spec)),
        spec,
        *(text(name) for name in shard_names),
        struct.pack("<H", 0),
    ]
    for replicas in replica_names or [()] * len(shard_names):
        parts.append(struct.pack("<H", len(replicas)))
        parts.extend(text(name) for name in replicas)
    body = b"".join(parts)
    return body + struct.pack("<I", crc32(body))


def rewrite_index(path, old, new):
    """Replace bytes inside a container's index and re-authenticate it
    (index CRC in the header, header CRC), so only the text is malformed."""
    data = bytearray(path.read_bytes())
    with open(path, "rb") as fh:
        header = read_header(fh)
    start, end = header.index_offset, header.index_offset + header.index_size
    index = bytes(data[start:end])
    assert index.count(old) == 1 and len(new) == len(old)
    index = index.replace(old, new)
    data[start:end] = index
    header = dataclasses.replace(header, index_crc=crc32(index))
    data[: len(pack_header(header))] = pack_header(header)
    path.write_bytes(bytes(data))


# -- the plain one-shard view -----------------------------------------------------------

class TestPlainOneShardView:
    def test_open_archive_returns_one_class_for_every_target(self, tmp_path):
        plain = plain_archive(tmp_path / "plain.dwta", ["a", "b"])
        manifest = tmp_path / "set.dwts"
        with ShardedArchiveWriter.create(manifest, shards=2, scales=2) as writer:
            writer.append_batch(list(FRAMES[:2]), names=["a", "b"])
        targets = {
            "sharded": manifest,
            "plain": plain,
            "memory": MemoryBackend(plain.read_bytes(), name="mem.dwta"),
        }
        for label, target in targets.items():
            with open_archive(target) as reader:
                assert type(reader) is ShardedArchiveReader, label
                assert reader.kind == ("sharded" if label == "sharded" else "plain")
                assert np.array_equal(reader.decode("b"), FRAMES[1])

    def test_plain_lists_and_indexes_in_container_order(self, tmp_path, capsys):
        path = plain_archive(tmp_path / "order.dwta", ["b", "a"])
        with open_archive(path) as reader:
            assert reader.names() == ["b", "a"]
            assert reader.find(0).name == "b" and reader.find(-1).name == "a"
            assert np.array_equal(reader.decode(0), FRAMES[0])
        assert main(["list", str(path), "--json"]) == 0
        assert [r["name"] for r in json.loads(capsys.readouterr().out)] == ["b", "a"]
        out = tmp_path / "first.pgm"
        assert main(["extract", str(path), "0", "-o", str(out)]) == 0
        assert "extracted b " in capsys.readouterr().out
        assert np.array_equal(read_pgm(out), FRAMES[0])

    def test_a_real_one_shard_set_stays_name_sorted(self, tmp_path):
        path = tmp_path / "one.dwts"
        with ShardedArchiveWriter.create(path, shards=1, scales=2) as writer:
            writer.append_batch(list(FRAMES[:2]), names=["b", "a"])
        with open_archive(path) as reader:
            assert reader.kind == "sharded"
            assert reader.names() == ["a", "b"]
            assert reader.find(0).name == "a"

    def test_open_archive_on_a_memory_backend(self, tmp_path):
        path = plain_archive(tmp_path / "mem.dwta", ["x", "y", "z"])
        backend = MemoryBackend(path.read_bytes(), name="in-memory.dwta")
        with open_archive(backend) as reader:
            assert reader.kind == "plain" and reader.shard_count == 1
            assert reader.describe() == "in-memory.dwta"
            assert reader.names() == ["x", "y", "z"]
            assert reader.summary() == "3 frames, format v2"
            decoded, _ = reader.decode_all()
            for image, original in zip(decoded, FRAMES):
                assert np.array_equal(image, original)
            report = reader.verify(deep=True, workers=2)
            assert report["frames"] == 3 and report["failures"] == {}

    def test_an_empty_plain_container_has_no_spec(self, tmp_path):
        path = tmp_path / "empty.dwta"
        ArchiveWriter.create(path).close()
        with open_archive(path) as reader:
            assert reader.kind == "plain" and len(reader) == 0
            assert reader.spec is None
            assert reader.to_batch().streams == []
            assert reader.verify()["frames"] == 0

    def test_verify_workers_2_on_a_plain_archive_runs_two_jobs(
        self, tmp_path, capsys, monkeypatch
    ):
        path = plain_archive(tmp_path / "par.dwta", ["a", "b", "c"])
        calls = []
        run = ParallelExecutor.run

        def spy(self, kind, payloads, prefer=None):
            calls.append((kind, len(payloads)))
            return run(self, kind, payloads, prefer)

        monkeypatch.setattr(ParallelExecutor, "run", spy)
        assert main(["verify", str(path), "--deep", "--workers", "2"]) == 0
        assert "OK — 3 frames," in capsys.readouterr().out
        assert calls == [("verify_container", 2)]

    @pytest.mark.parametrize("entry_point", ["cli", "reader"])
    def test_verify_workers_2_on_a_one_frame_archive_runs_one_job(
        self, tmp_path, capsys, monkeypatch, entry_point
    ):
        """The parts are capped at the frame count: no job opens the
        container only to verify nothing."""
        path = plain_archive(tmp_path / "one.dwta", ["a"])
        calls = []
        run = ParallelExecutor.run

        def spy(self, kind, payloads, prefer=None):
            calls.append((kind, [(p["part"], p["parts"]) for p in payloads]))
            return run(self, kind, payloads, prefer)

        monkeypatch.setattr(ParallelExecutor, "run", spy)
        if entry_point == "cli":
            assert main(["verify", str(path), "--deep", "--workers", "2"]) == 0
            assert "OK — 1 frames," in capsys.readouterr().out
        else:
            with ArchiveReader(path) as reader:
                assert reader.verify(deep=True, workers=2)["frames"] == 1
        assert calls == [("verify_container", [(0, 1)])]

    def test_verify_workers_2_on_an_empty_archive_runs_one_job(self, tmp_path, monkeypatch):
        path = tmp_path / "empty.dwta"
        ArchiveWriter.create(path).close()
        calls = []
        run = ParallelExecutor.run

        def spy(self, kind, payloads, prefer=None):
            calls.append(len(payloads))
            return run(self, kind, payloads, prefer)

        monkeypatch.setattr(ParallelExecutor, "run", spy)
        with open_archive(path) as reader:
            assert reader.verify(workers=2)["frames"] == 0
        assert calls == [1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_cli_verify_names_a_damaged_plain_archive_plainly(
        self, tmp_path, capsys, workers
    ):
        """A damaged plain container is not reported in set wording."""
        path = plain_archive(tmp_path / "bad.dwta", ["a", "b"])
        with open_archive(path) as reader:
            entry = reader.find("b")
        data = bytearray(path.read_bytes())
        data[entry.offset + entry.length // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert main(["verify", str(path), "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"{path}: DAMAGED (checksums)\n"
        assert captured.err.startswith("error: ArchiveIntegrityError: ")
        assert "frame 'b'" in captured.err
        assert "shard" not in captured.out + captured.err

    def test_plain_strict_verify_raises_the_frame_error(self, tmp_path):
        path = plain_archive(tmp_path / "bad.dwta", ["a", "b"])
        with open_archive(path) as reader:
            entry = reader.find("b")
        data = bytearray(path.read_bytes())
        data[entry.offset + entry.length // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with open_archive(path) as reader:
            with pytest.raises(ArchiveIntegrityError, match="frame 'b'"):
                reader.verify()
            report = reader.verify(strict=False)
        assert report["shard_status"] == {str(path): "damaged"}


# -- manifest names stay inside the manifest's directory --------------------------------

class TestManifestNamesConfined:
    @pytest.mark.parametrize(
        "name", ["", ".", "..", "../outside.dwta", "sub/x.dwta", "sub\\x.dwta", "/abs.dwta"]
    )
    def test_pack_refuses_a_name_that_is_not_one_file_name(self, name):
        spec = CodecSpec().to_json()
        with pytest.raises(ValueError, match="not one file name"):
            pack_manifest(
                ShardManifest(version=2, router="hash", shard_names=(name,), spec_json=spec)
            )
        with pytest.raises(ValueError, match="not one file name"):
            pack_manifest(
                ShardManifest(
                    version=2,
                    router="hash",
                    shard_names=("ok.dwta",),
                    spec_json=spec,
                    replica_names=((name,),),
                )
            )

    @pytest.mark.parametrize("replica", [False, True])
    def test_a_manifest_naming_a_file_outside_is_refused(self, tmp_path, replica):
        outside = plain_archive(tmp_path / "outside.dwta", ["victim"])
        pristine = outside.read_bytes()
        inside = tmp_path / "set"
        inside.mkdir()
        plain_archive(inside / "ok.dwta", [])
        names = [["ok.dwta"], [["../outside.dwta"]]] if replica else [["../outside.dwta"], None]
        manifest = inside / "set.dwts"
        manifest.write_bytes(raw_manifest(names[0], CodecSpec(scales=2).to_json(), names[1]))
        with pytest.raises(ArchiveFormatError, match="not one file name"):
            unpack_manifest(manifest.read_bytes())
        with pytest.raises(ArchiveFormatError, match="not one file name"):
            open_archive(manifest)
        with pytest.raises(ArchiveFormatError, match="not one file name"):
            ShardedArchiveWriter.append(manifest)
        assert outside.read_bytes() == pristine


# -- typed errors for malformed text ----------------------------------------------------

class TestMalformedTextIsTyped:
    def test_a_non_utf8_frame_name_fails_the_open(self, tmp_path):
        path = plain_archive(tmp_path / "name.dwta", ["frame_q"])
        rewrite_index(path, b"frame_q", b"frame\xff\xfe")
        with pytest.raises(ArchiveFormatError, match="not UTF-8"):
            open_archive(path)

    def test_a_non_utf8_bank_name_fails_the_open(self, tmp_path):
        path = plain_archive(
            tmp_path / "bank.dwta", ["frame_q"], codec="coefficient", bank="F2"
        )
        rewrite_index(path, b"\x02F2", b"\x02\xff\xfe")
        with pytest.raises(ArchiveFormatError, match="not UTF-8"):
            open_archive(path)

    @pytest.mark.parametrize(
        "spec_json", ["{not json", '{"codec": "nope"}', "[1, 2]", b"\xff\xfe"]
    )
    def test_a_malformed_manifest_spec_fails_the_open(self, tmp_path, spec_json):
        plain_archive(tmp_path / "s0.dwta", [])
        manifest = tmp_path / "set.dwts"
        manifest.write_bytes(raw_manifest(["s0.dwta"], spec_json))
        with pytest.raises(ArchiveFormatError):
            open_archive(manifest)
        with pytest.raises(ArchiveFormatError):
            ShardedArchiveWriter.append(manifest)

    def test_a_non_utf8_manifest_name_fails_the_open(self, tmp_path):
        manifest = tmp_path / "set.dwts"
        manifest.write_bytes(raw_manifest([b"s\xff.dwta"], CodecSpec().to_json()))
        with pytest.raises(ArchiveFormatError, match="not UTF-8"):
            open_archive(manifest)

    def test_a_replicated_read_fails_over_past_such_a_copy(self, tmp_path):
        path = tmp_path / "rep.dwts"
        with ReplicatedShardSet.create(path, shards=1, replicas=1, scales=2) as writer:
            writer.append_batch(list(FRAMES[:2]), names=["frame_q", "other"])
            primary = path.parent / writer.manifest.shard_names[0]
        rewrite_index(primary, b"frame_q", b"frame\xff\xfe")
        with open_archive(path) as reader:
            assert np.array_equal(reader.decode("frame_q"), FRAMES[0])
            assert reader.failovers == 1

    def test_the_server_answers_503_for_such_a_shard(self, tmp_path):
        path = tmp_path / "one.dwts"
        with ShardedArchiveWriter.create(path, shards=1, scales=2) as writer:
            writer.append_batch(list(FRAMES[:1]), names=["frame_q"])
            shard = path.parent / writer.manifest.shard_names[0]
        rewrite_index(shard, b"frame_q", b"frame\xff\xfe")

        async def scenario():
            async with running_server(path) as server:
                status, headers, body = await http_request(
                    server.address, "GET", "/frames/frame_q"
                )
                assert status == 503, body
                assert "ArchiveFormatError" in json.loads(body)["error"]
                assert "retry-after" in headers

        asyncio.run(scenario())

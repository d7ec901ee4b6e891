"""Sharded archive sets: manifest, routing, invariance, parallel packs."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.archive import (
    ArchiveFormatError,
    ArchiveIntegrityError,
    ArchiveReader,
    ArchiveWriter,
    HashRouter,
    RangeRouter,
    ShardedArchiveReader,
    ShardedArchiveWriter,
    ShardManifest,
    is_sharded,
    make_router,
    open_archive,
)
from repro.archive.format import MANIFEST_VERSION, pack_manifest, unpack_manifest
from repro.archive.replication import repair_set
from repro.coding import compress_frames
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive


def series(count=8, size=32, seed=3):
    return ct_slice_series(count=count, size=size, seed=seed)


def names_for(count):
    return [f"slice_{i:03d}" for i in range(count)]


def make_set(tmp_path, shards, frames, label="set", **kwargs):
    path = tmp_path / f"{label}.dwts"
    with ShardedArchiveWriter.create(path, shards=shards, **kwargs) as writer:
        writer.append_batch(frames, names=names_for(len(frames)))
    return path


# -- manifest ---------------------------------------------------------------------------

class TestManifest:
    def test_roundtrip(self):
        manifest = ShardManifest(
            version=MANIFEST_VERSION,
            router="hash",
            shard_names=("a.shard000.dwta", "a.shard001.dwta"),
            spec_json=CodecSpec().to_json(),
        )
        assert unpack_manifest(pack_manifest(manifest)) == manifest

    def test_range_roundtrip(self):
        manifest = ShardManifest(
            version=MANIFEST_VERSION,
            router="range",
            shard_names=("s0", "s1", "s2"),
            spec_json=CodecSpec().to_json(),
            boundaries=("m", "t"),
        )
        assert unpack_manifest(pack_manifest(manifest)) == manifest

    def test_bad_magic(self):
        with pytest.raises(ArchiveFormatError, match="bad magic"):
            unpack_manifest(b"\x00" * 64)

    def test_corrupted_manifest(self):
        manifest = ShardManifest(
            version=MANIFEST_VERSION,
            router="hash",
            shard_names=("s0",),
            spec_json=CodecSpec().to_json(),
        )
        data = bytearray(pack_manifest(manifest))
        data[20] ^= 0x01
        with pytest.raises(ArchiveIntegrityError, match="checksum"):
            unpack_manifest(bytes(data))

    def test_boundary_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="boundaries"):
            pack_manifest(
                ShardManifest(
                    version=MANIFEST_VERSION,
                    router="range",
                    shard_names=("s0", "s1"),
                    spec_json="{}",
                    boundaries=(),
                )
            )


# -- routers ----------------------------------------------------------------------------

class TestRouters:
    def test_hash_router_deterministic_and_in_range(self):
        router = HashRouter(4)
        for name in names_for(64):
            shard = router.route(name)
            assert 0 <= shard < 4
            assert router.route(name) == shard  # stable

    def test_hash_router_spreads(self):
        router = HashRouter(4)
        used = {router.route(name) for name in names_for(64)}
        assert used == {0, 1, 2, 3}

    def test_range_router(self):
        router = RangeRouter(3, ["b", "d"])
        assert router.route("a") == 0
        assert router.route("b") == 1  # boundary itself goes right
        assert router.route("c") == 1
        assert router.route("zebra") == 2

    def test_range_router_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            RangeRouter(3, ["d", "b"])

    def test_make_router_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("modulo", 2)


# -- resharding invariance (acceptance) -------------------------------------------------

class TestReshardingInvariance:
    def test_payloads_and_pixels_identical_across_shard_counts(self, tmp_path):
        """1 shard vs N shards: same per-frame payload bytes, same pixels."""
        frames = series(count=10)
        single = tmp_path / "plain.dwta"
        with ArchiveWriter.create(single) as writer:
            writer.append_batch(frames, names=names_for(10))
        set1 = make_set(tmp_path, 1, frames, label="one")
        set3 = make_set(tmp_path, 3, frames, label="three")

        with ArchiveReader(single) as plain, ShardedArchiveReader(
            set1
        ) as r1, ShardedArchiveReader(set3) as r3:
            assert r1.names() == r3.names() == sorted(plain.names())
            for name in plain.names():
                payload = plain.read_payload(name)
                assert r1.read_payload(name) == payload
                assert r3.read_payload(name) == payload
            decoded1, _ = r1.decode_all()
            decoded3, _ = r3.decode_all()
            for a, b in zip(decoded1, decoded3):
                assert np.array_equal(a, b)
            # And both match the source pixels (set order is name-sorted,
            # names_for() is already sorted, so positions line up).
            for image, original in zip(decoded3, frames):
                assert np.array_equal(image, original)

    def test_parallel_pack_byte_identical_to_serial(self, tmp_path):
        """One end-to-end worker per shard changes nothing about the bytes."""
        frames = series(count=10)
        serial = make_set(tmp_path, 3, frames, label="serial")
        parallel = make_set(tmp_path, 3, frames, label="parallel", workers=3)
        serial_shards = sorted(tmp_path.glob("serial.shard*.dwta"))
        parallel_shards = sorted(tmp_path.glob("parallel.shard*.dwta"))
        assert len(serial_shards) == len(parallel_shards) == 3
        for a, b in zip(serial_shards, parallel_shards):
            assert a.read_bytes() == b.read_bytes()


# -- routed random access (acceptance) --------------------------------------------------

class TestRoutedAccess:
    def test_decode_by_name_opens_only_target_shard(self, tmp_path):
        frames = series(count=12)
        path = make_set(tmp_path, 4, frames)
        probe = "slice_007"
        with ShardedArchiveReader(tmp_path / "set.dwts") as locator:
            expected_shard = locator.router.route(probe)
            expected_length = locator.find(probe).length

        with ShardedArchiveReader(path) as reader:
            image = reader.decode(probe)
            assert np.array_equal(image, frames[7])
            # The router sent us to exactly one shard, and only that
            # frame's payload bytes were read — the counters are the proof.
            assert reader.opened_shards == [expected_shard]
            assert reader.bytes_read == expected_length

    def test_decode_by_index_uses_set_order(self, tmp_path):
        frames = series(count=6)
        path = make_set(tmp_path, 3, frames)
        with ShardedArchiveReader(path) as reader:
            assert np.array_equal(reader.decode(2), frames[2])
            assert np.array_equal(reader.decode(reader.find("slice_005")), frames[5])

    def test_missing_frame(self, tmp_path):
        path = make_set(tmp_path, 2, series(count=4))
        with ShardedArchiveReader(path) as reader:
            with pytest.raises(KeyError, match="no frame named"):
                reader.decode("nope")


# -- writer behaviour -------------------------------------------------------------------

class TestShardedWriter:
    def test_create_refuses_to_clobber(self, tmp_path):
        make_set(tmp_path, 2, series(count=2))
        with pytest.raises(FileExistsError):
            ShardedArchiveWriter.create(tmp_path / "set.dwts", shards=2)

    def test_append_inherits_manifest_spec(self, tmp_path):
        frames = series(count=4)
        path = tmp_path / "set.dwts"
        spec = CodecSpec(codec="coefficient", scales=2, bank="F2")
        with ShardedArchiveWriter.create(path, shards=2, spec=spec) as writer:
            writer.append_batch(frames, names=names_for(4))
        with ShardedArchiveWriter.append(path) as writer:
            assert writer.spec == spec
            writer.append_batch(series(count=2, seed=9), names=["extra_0", "extra_1"])
        with ShardedArchiveReader(path) as reader:
            assert len(reader) == 6
            assert {entry.codec for entry in reader} == {"coefficient"}
            assert {entry.scales for entry in reader} == {2}

    def test_turbo_manifest_spec_opens_decodes_and_appends(self, tmp_path):
        """A set whose manifest stores the retired ``turbo`` tier (as sets
        written while it was a tier do) stays readable and appendable."""
        frames = series(count=4)
        path = make_set(tmp_path, 2, frames, spec=CodecSpec(codec="coefficient", scales=2))
        manifest = unpack_manifest(path.read_bytes())
        stored = json.loads(manifest.spec_json)
        stored["engine"] = "turbo"
        path.write_bytes(
            pack_manifest(replace(manifest, spec_json=json.dumps(stored, sort_keys=True)))
        )
        with ShardedArchiveReader(path) as reader:
            assert reader.spec == CodecSpec(codec="coefficient", scales=2, engine="fast")
            for name, original in zip(names_for(4), frames):
                assert np.array_equal(reader.decode(name), original)
        extra = series(count=2, seed=9)
        with ShardedArchiveWriter.append(path) as writer:
            writer.append_batch(extra, names=["extra_0", "extra_1"])
        with ShardedArchiveReader(path) as reader:
            assert len(reader) == 6
            for name, original in zip(["extra_0", "extra_1"], extra):
                assert np.array_equal(reader.decode(name), original)

    def test_accelerator_manifest_spec_opens_decodes_and_appends(self, tmp_path):
        """A set whose manifest names the retired accelerator transform (as
        sets packed through it do; its streams were bit-identical to the
        software transform's) stays readable and appendable."""
        frames = series(count=4)
        path = make_set(tmp_path, 2, frames, spec=CodecSpec(codec="coefficient", scales=2))
        manifest = unpack_manifest(path.read_bytes())
        stored = json.loads(manifest.spec_json)
        stored.update(transform="accelerator", transform_engine="scalar")
        path.write_bytes(
            pack_manifest(replace(manifest, spec_json=json.dumps(stored, sort_keys=True)))
        )
        with ShardedArchiveReader(path) as reader:
            assert reader.spec.to_json() == manifest.spec_json
            for name, original in zip(names_for(4), frames):
                assert np.array_equal(reader.decode(name), original)
        extra = series(count=2, seed=9)
        with ShardedArchiveWriter.append(path) as writer:
            writer.append_batch(extra, names=["extra_0", "extra_1"])
        with ShardedArchiveReader(path) as reader:
            assert len(reader) == 6
            for name, original in zip(["extra_0", "extra_1"], extra):
                assert np.array_equal(reader.decode(name), original)

    def test_reader_resolves_engine_when_opened(self, tmp_path):
        path = make_set(tmp_path, 2, series(count=2))
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            ShardedArchiveReader(path, engine="bogus")
        with ShardedArchiveReader(path, engine="turbo") as reader:
            assert reader.engine == "fast"

    @pytest.mark.parametrize(
        "name, expected",
        [(None, "fast"), ("fast", "fast"), ("scalar", "scalar"), ("turbo", "fast")],
    )
    def test_reader_stores_resolved_engine(self, tmp_path, monkeypatch, name, expected):
        frames = series(count=2)
        path = make_set(tmp_path, 2, frames)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with ShardedArchiveReader(path, engine=name) as reader:
            assert reader.engine == expected
            assert np.array_equal(reader.decode(names_for(2)[1]), frames[1])

    @pytest.mark.parametrize("name", ["", "FAST", "huffman"])
    def test_reader_rejects_unknown_engine_at_open(self, tmp_path, name):
        path = make_set(tmp_path, 2, series(count=2))
        with pytest.raises(ValueError, match="unknown engine"):
            ShardedArchiveReader(path, engine=name)

    def test_duplicate_names_rejected(self, tmp_path):
        path = make_set(tmp_path, 2, series(count=3))
        with ShardedArchiveWriter.append(path) as writer:
            with pytest.raises(ValueError, match="already has a frame"):
                writer.append_batch(series(count=1, seed=8), names=["slice_001"])

    def test_auto_names_are_set_unique(self, tmp_path):
        path = tmp_path / "auto.dwts"
        with ShardedArchiveWriter.create(path, shards=2) as writer:
            writer.append_batch(series(count=3))
        with ShardedArchiveWriter.append(path) as writer:
            writer.append_batch(series(count=2, seed=7))
        with ShardedArchiveReader(path) as reader:
            assert len(set(reader.names())) == 5

    def test_empty_shard_is_valid_and_spec_aware(self, tmp_path):
        """A shard that happens to receive no frames is still a clean,
        finalised archive the tools can open."""
        path = tmp_path / "sparse.dwts"
        with ShardedArchiveWriter.create(path, shards=4) as writer:
            writer.append_batch(series(count=1))
        with ShardedArchiveReader(path) as reader:
            report = reader.verify(deep=True)
            assert report["frames"] == 1 and report["shards"] == 4

    def test_range_router_set(self, tmp_path):
        frames = series(count=6)
        path = tmp_path / "ranged.dwts"
        with ShardedArchiveWriter.create(
            path, shards=2, router="range", boundaries=["slice_003"]
        ) as writer:
            writer.append_batch(frames, names=names_for(6))
        with ShardedArchiveReader(path) as reader:
            assert reader.router.route("slice_000") == 0
            assert reader.router.route("slice_004") == 1
            with ArchiveReader(reader.shard_paths[0]) as shard0:
                assert shard0.names() == names_for(3)
            decoded, _ = reader.decode_all()
            for image, original in zip(decoded, frames):
                assert np.array_equal(image, original)


# -- workers validation -----------------------------------------------------------------

class TestWorkersValidation:
    """Every call site resolves ``workers`` through the one executor seam,
    so a width below 1 is rejected everywhere instead of silently running
    serially on some paths."""

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize(
        "call",
        [
            "compress_frames",
            "ArchiveReader.verify",
            "ShardedArchiveReader.verify",
            "repair_set",
            "ShardedArchiveWriter.append_batch",
        ],
    )
    def test_width_below_one_is_rejected(self, tmp_path, call, workers):
        frames = series(count=2)
        sharded = make_set(tmp_path, 2, frames)
        plain = tmp_path / "plain.dwta"
        with ArchiveWriter.create(plain) as writer:
            writer.append_batch(frames)

        def verify_plain():
            with ArchiveReader(plain) as reader:
                reader.verify(workers=workers)

        def verify_set():
            with ShardedArchiveReader(sharded) as reader:
                reader.verify(workers=workers)

        def append():
            with ShardedArchiveWriter.append(sharded) as writer:
                writer.append_batch(series(count=2, seed=5), names=["x0", "x1"], workers=workers)

        calls = {
            "compress_frames": lambda: compress_frames(frames, workers=workers),
            "ArchiveReader.verify": verify_plain,
            "ShardedArchiveReader.verify": verify_set,
            "repair_set": lambda: repair_set(sharded, workers=workers),
            "ShardedArchiveWriter.append_batch": append,
        }
        with pytest.raises(ValueError, match="workers must be >= 1"):
            calls[call]()
        with ShardedArchiveReader(sharded) as reader:
            assert len(reader) == 2  # a rejected append wrote nothing


# -- open_archive dispatch --------------------------------------------------------------

class TestOpenArchive:
    def test_dispatch_by_magic(self, tmp_path):
        frames = series(count=2)
        sharded = make_set(tmp_path, 2, frames)
        plain = tmp_path / "plain.dwta"
        with ArchiveWriter.create(plain) as writer:
            writer.append_batch(frames)
        assert is_sharded(sharded) and not is_sharded(plain)
        with open_archive(sharded) as reader:
            assert isinstance(reader, ShardedArchiveReader)
        with open_archive(plain) as reader:
            assert isinstance(reader, ShardedArchiveReader)
            assert reader.kind == "plain" and reader.shard_count == 1

    def test_missing_manifest(self, tmp_path):
        with pytest.raises((ArchiveFormatError, FileNotFoundError)):
            ShardedArchiveReader(tmp_path / "absent.dwts")

"""Manifest v3 shard placement: format, routing, counters, CLI, server.

The contract under test: a placement table (shard file name → preferred
worker node id) rides the manifest as version 3 — version-2 and version-1
manifests still read, and an *unplaced* set keeps stamping version 2 so
its bytes never change — and distributed appends/verifies route each
shard's work to its placed node (``placement_hits``) with silent
any-worker fallback (``placement_fallbacks``) when a placed node is down.
Placement is advisory: the bytes are identical either way.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.archive import (
    ArchiveReader,
    ReplicatedShardSet,
    ShardedArchiveReader,
    ShardedArchiveWriter,
    ShardManifest,
    assign_round_robin,
    normalize_placement,
    placement_of,
)
from repro.archive.cli import main as cli_main
from repro.archive.format import (
    MANIFEST_VERSION,
    pack_manifest,
    unpack_manifest,
)
from repro.archive.sharding import shard_file_names
from repro.coding.netexec import SocketWorker, WorkerPool
from repro.coding.spec import CodecSpec
from repro.imaging import ct_slice_series, write_pgm

pytestmark = pytest.mark.archive


def series(count=6, size=32, seed=3):
    return ct_slice_series(count=count, size=size, seed=seed)


def names_for(count):
    return [f"slice_{i:03d}" for i in range(count)]


@pytest.fixture(scope="module")
def cluster():
    """Two named in-process socket workers, shared by the module."""
    workers = [SocketWorker(node=f"node{i}") for i in range(2)]
    for worker in workers:
        worker.start()
    yield workers
    for worker in workers:
        worker.close()


@pytest.fixture(scope="module")
def addresses(cluster):
    return [worker.address for worker in cluster]


def shard_frame_counts(path, manifest):
    """Frames stored per shard file (placement-independent ground truth)."""
    counts = []
    for name in manifest.shard_names:
        with ArchiveReader(path.parent / name) as reader:
            counts.append(len(reader))
    return counts


def build_set(tmp_path, label, placement=None, workers=None, shards=2, frames=None):
    frames = series() if frames is None else frames
    path = tmp_path / f"{label}.dwts"
    with ShardedArchiveWriter.create(
        path, shards=shards, scales=2, placement=placement
    ) as writer:
        writer.append_batch(frames, names=names_for(len(frames)), workers=workers)
        hits, fallbacks = writer.placement_hits, writer.placement_fallbacks
    return path, hits, fallbacks


# -- manifest format --------------------------------------------------------------------

class TestManifestV3:
    def base(self, **kwargs):
        return ShardManifest(
            version=kwargs.pop("version", MANIFEST_VERSION),
            router="hash",
            shard_names=("a.shard000.dwta", "a.shard001.dwta"),
            spec_json=CodecSpec().to_json(),
            **kwargs,
        )

    def test_placement_roundtrip(self):
        manifest = self.base(node_ids=("node0", "node1"))
        assert unpack_manifest(pack_manifest(manifest)) == manifest
        assert manifest.placement == {
            "a.shard000.dwta": "node0",
            "a.shard001.dwta": "node1",
        }

    def test_partial_placement_roundtrip(self):
        manifest = self.base(node_ids=("node0", ""))
        decoded = unpack_manifest(pack_manifest(manifest))
        assert decoded.node_ids == ("node0", "")
        assert decoded.placement == {"a.shard000.dwta": "node0"}

    def test_placement_with_replicas_roundtrip(self):
        manifest = self.base(
            node_ids=("n0", "n1"),
            replica_names=(("a.r1",), ("b.r1",)),
        )
        assert unpack_manifest(pack_manifest(manifest)) == manifest

    def test_v2_manifest_reads_with_empty_placement(self):
        manifest = self.base(version=2)
        decoded = unpack_manifest(pack_manifest(manifest))
        assert decoded.version == 2
        assert decoded.node_ids == ()
        assert decoded.placement == {}

    def test_v1_manifest_reads_with_empty_placement(self):
        manifest = self.base(version=1)
        decoded = unpack_manifest(pack_manifest(manifest))
        assert decoded.version == 1
        assert decoded.node_ids == ()
        assert decoded.placement == {}

    def test_unplaced_v3_decodes_to_empty_tuple(self):
        """An all-empty placement table is normalised back to "unplaced"."""
        manifest = self.base()
        decoded = unpack_manifest(pack_manifest(manifest))
        assert decoded.node_ids == ()

    def test_placement_needs_version_3(self):
        with pytest.raises(ValueError, match="version >= 3"):
            pack_manifest(self.base(version=2, node_ids=("n0", "n1")))

    def test_placement_length_must_match_shards(self):
        with pytest.raises(ValueError, match="placement table covers"):
            pack_manifest(self.base(node_ids=("n0",)))


class TestNormalize:
    NAMES = ("s0", "s1", "s2")

    def test_mapping_form(self):
        assert normalize_placement({"s1": "b", "s0": "a"}, self.NAMES) == ("a", "b", "")

    def test_sequence_form(self):
        assert normalize_placement(["a", None, "c"], self.NAMES) == ("a", "", "c")

    def test_empty_inputs(self):
        assert normalize_placement(None, self.NAMES) == ()
        assert normalize_placement({}, self.NAMES) == ()
        assert normalize_placement(["", None, ""], self.NAMES) == ()

    def test_unknown_shard_rejected(self):
        with pytest.raises(ValueError, match="unknown shards"):
            normalize_placement({"nope": "a"}, self.NAMES)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 shards"):
            normalize_placement(["a"], self.NAMES)

    def test_round_robin(self):
        assert assign_round_robin(self.NAMES, ["n0", "n1"]) == {
            "s0": "n0",
            "s1": "n1",
            "s2": "n0",
        }
        with pytest.raises(ValueError, match="no node ids"):
            assign_round_robin(self.NAMES, [])

    def test_placement_of_tolerates_missing_field(self):
        class Old:
            shard_names = ("s0",)

        assert placement_of(Old()) == {}


# -- placed sets over live workers ------------------------------------------------------

class TestPlacedAppend:
    def test_unplaced_set_stays_version_2(self, tmp_path):
        path, _, _ = build_set(tmp_path, "plain")
        with ShardedArchiveReader(path) as reader:
            assert reader.manifest.version == 2
            assert reader.manifest.placement == {}

    def test_placed_set_stamps_version_3(self, tmp_path):
        names = shard_file_names(tmp_path / "placed.dwts", 2)
        placement = assign_round_robin(names, ["node0", "node1"])
        path, _, _ = build_set(tmp_path, "placed", placement=placement)
        with ShardedArchiveReader(path) as reader:
            assert reader.manifest.version == MANIFEST_VERSION
            assert reader.manifest.placement == placement

    def test_placed_distributed_append_is_byte_identical(
        self, tmp_path, cluster, addresses
    ):
        serial_path, _, _ = build_set(tmp_path, "serial")
        names = shard_file_names(tmp_path / "routed.dwts", 2)
        placement = assign_round_robin(names, ["node0", "node1"])
        jobs_before = [worker.jobs_done for worker in cluster]
        placed_path, hits, fallbacks = build_set(
            tmp_path, "routed", placement=placement, workers=",".join(addresses)
        )
        with ShardedArchiveReader(placed_path) as reader:
            manifest = reader.manifest
            filled = sum(1 for n in shard_frame_counts(placed_path, manifest) if n)
            assert reader.verify(deep=True)["deep"]
        # Every non-empty shard routed to its placed node, none fell back …
        assert hits == filled
        assert fallbacks == 0
        assert [w.jobs_done for w in cluster] != jobs_before
        # … and the shard files carry the exact serial bytes regardless.
        with ShardedArchiveReader(serial_path) as reader:
            serial_names = reader.manifest.shard_names
        for serial_name, placed_name in zip(serial_names, manifest.shard_names):
            assert (serial_path.parent / serial_name).read_bytes() == (
                placed_path.parent / placed_name
            ).read_bytes()

    def test_down_placed_node_falls_back(self, tmp_path, addresses):
        """A placement naming no live worker degrades to any-worker
        routing — counted, byte-identical, never an error."""
        serial_path, _, _ = build_set(tmp_path, "ref")
        names = shard_file_names(tmp_path / "ghost.dwts", 2)
        placement = {name: "ghost-node" for name in names}
        ghost_path, hits, fallbacks = build_set(
            tmp_path, "ghost", placement=placement, workers=",".join(addresses)
        )
        with ShardedArchiveReader(ghost_path) as reader:
            manifest = reader.manifest
            filled = sum(1 for n in shard_frame_counts(ghost_path, manifest) if n)
        assert hits == 0
        assert fallbacks == filled
        with ShardedArchiveReader(serial_path) as serial_reader:
            for serial_name, ghost_name in zip(
                serial_reader.manifest.shard_names, manifest.shard_names
            ):
                assert (serial_path.parent / serial_name).read_bytes() == (
                    ghost_path.parent / ghost_name
                ).read_bytes()

    def test_borrowed_pool_appends(self, tmp_path, addresses):
        """A caller-managed WorkerPool routes appends and survives them."""
        with WorkerPool(addresses) as pool:
            path, _, _ = build_set(tmp_path, "pooled", workers=pool)
            assert pool.live_count == 2
        with ShardedArchiveReader(path) as reader:
            assert reader.verify(deep=True)["deep"]


    def test_stats_workers_count_jobs_not_pool_width(self, tmp_path, addresses):
        """Two frames landing in two of four shards are two jobs: every
        transport reports ``stats.workers == 2``, however wide its pool."""
        from repro.archive import HashRouter
        from repro.coding import compress_frames

        router = HashRouter(4)
        first = "slice_000"
        second = next(n for n in names_for(20) if router.route(n) != router.route(first))
        frames = series(count=2)
        with SocketWorker(node="node2") as extra:
            sockets = ",".join([*addresses, extra.address])
            for label, workers in (("socket3", sockets), ("fork3", 3)):
                path = tmp_path / f"{label}.dwts"
                with ShardedArchiveWriter.create(path, shards=4, scales=2) as writer:
                    writer.append_batch(frames, names=[first, second], workers=workers)
                    assert writer.stats.workers == 2, label
            assert compress_frames(frames, scales=2, workers=sockets).stats.workers == 2


class TestPlacedVerify:
    def test_verify_routes_to_placed_workers(self, tmp_path, addresses):
        names = shard_file_names(tmp_path / "v.dwts", 2)
        placement = assign_round_robin(names, ["node0", "node1"])
        path, _, _ = build_set(tmp_path, "v", placement=placement)
        with ShardedArchiveReader(path) as reader:
            report = reader.verify(deep=True, workers=",".join(addresses))
            assert report["frames"] == 6
            assert reader.placement_hits == 2  # one per placed shard copy
            assert reader.placement_fallbacks == 0

    def test_verify_falls_back_when_node_missing(self, tmp_path, addresses):
        names = shard_file_names(tmp_path / "vg.dwts", 2)
        path, _, _ = build_set(
            tmp_path, "vg", placement={name: "gone" for name in names}
        )
        with ShardedArchiveReader(path) as reader:
            assert reader.verify(deep=True, workers=",".join(addresses))["deep"]
            assert reader.placement_hits == 0
            assert reader.placement_fallbacks == 2

    def test_plain_reader_verify_and_decode_over_sockets(self, tmp_path, addresses):
        from repro.archive import ArchiveWriter

        frames = series()
        path = tmp_path / "plain.dwta"
        with ArchiveWriter.create(path, scales=2) as writer:
            writer.append_batch(frames, names=names_for(len(frames)))
        with ArchiveReader(path) as reader:
            report = reader.verify(deep=True, workers=",".join(addresses))
            assert report["deep"] and report["frames"] == len(frames)

    def test_replicated_set_with_placement(self, tmp_path, addresses):
        frames = series()
        path = tmp_path / "rep.dwts"
        names = shard_file_names(path, 2)
        placement = assign_round_robin(names, ["node0", "node1"])
        with ReplicatedShardSet.create(
            path, shards=2, replicas=1, scales=2, placement=placement
        ) as writer:
            writer.append_batch(frames, names=names_for(len(frames)))
        with ShardedArchiveReader(path) as reader:
            assert reader.manifest.version == MANIFEST_VERSION
            assert reader.manifest.placement == placement
            assert reader.manifest.replicas == 1
            assert reader.verify(deep=True, workers=",".join(addresses))["deep"]
            # Every copy of every shard was verified over the pool.
            assert reader.placement_hits + reader.placement_fallbacks == 4


# -- CLI and HTTP surfaces --------------------------------------------------------------

class TestCliPlacement:
    @pytest.fixture()
    def pgm_dir(self, tmp_path):
        directory = tmp_path / "scans"
        directory.mkdir()
        for index, frame in enumerate(series(count=4)):
            write_pgm(directory / f"scan_{index}.pgm", frame, max_value=4095)
        return directory

    def test_pack_place_list_verify(self, tmp_path, pgm_dir, addresses, capsys):
        archive = tmp_path / "cli.dwts"
        inputs = sorted(str(p) for p in pgm_dir.glob("*.pgm"))
        assert (
            cli_main(
                [
                    "pack",
                    str(archive),
                    *inputs,
                    "--shards",
                    "2",
                    "--place",
                    "node0,node1",
                    "--workers",
                    ",".join(addresses),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert cli_main(["list", str(archive)]) == 0
        header = capsys.readouterr().out
        assert "manifest v3" in header
        assert "2 shards placed on 2 nodes" in header
        assert cli_main(["list", str(archive), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert {r["placed_node"] for r in records} <= {"node0", "node1"}
        assert cli_main(
            ["verify", str(archive), "--deep", "--workers", ",".join(addresses)]
        ) == 0
        assert "OK" in capsys.readouterr().out

    def test_place_requires_shards(self, tmp_path, pgm_dir):
        inputs = sorted(str(p) for p in pgm_dir.glob("*.pgm"))
        with pytest.raises(SystemExit, match="--shards"):
            cli_main(
                ["pack", str(tmp_path / "x.dwta"), *inputs, "--place", "node0"]
            )

    def test_workers_flag_still_takes_integers(self, tmp_path, pgm_dir, capsys):
        archive = tmp_path / "int.dwts"
        inputs = sorted(str(p) for p in pgm_dir.glob("*.pgm"))
        assert (
            cli_main(
                ["pack", str(archive), *inputs, "--shards", "2", "--workers", "2"]
            )
            == 0
        )
        assert cli_main(["verify", str(archive), "--workers", "2"]) == 0


class TestServerPlacement:
    def test_manifest_and_stats_expose_placement(self, tmp_path, addresses):
        from server_util import http_request, running_server

        frames = dict(zip(names_for(6), series()))
        path = tmp_path / "srv.dwts"
        names = shard_file_names(path, 2)
        placement = assign_round_robin(names, ["node0", "node1"])
        with ShardedArchiveWriter.create(
            path, shards=2, scales=2, placement=placement
        ) as writer:
            writer.append_batch(list(frames.values()), names=list(frames))

        async def scenario():
            async with running_server(path) as server:
                status, _, body = await http_request(server.address, "GET", "/manifest")
                assert status == 200
                manifest = json.loads(body)
                assert manifest["shards"]["manifest_version"] == MANIFEST_VERSION
                assert manifest["shards"]["placement"] == placement
                status, _, body = await http_request(server.address, "GET", "/stats")
                assert status == 200
                stats = json.loads(body)
                assert stats["placement"] == placement
                assert stats["reader"]["placement_hits"] == 0
                assert stats["reader"]["placement_fallbacks"] == 0

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))

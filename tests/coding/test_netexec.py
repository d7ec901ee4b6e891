"""Distributed socket-pool execution: byte-identity and the executor seam.

The contract under test mirrors ``test_executor.py`` over TCP: sharding a
batch across socket workers changes *nothing* about the streams — both
codecs and both entropy engine tiers (fast/scalar), at 1/2/4 workers — and
the ``workers="host:port"``
seam reaches the socket pool from every existing call site signature.
"""

import json
import os
import socket
import time

import numpy as np
import pytest

from repro.archive import (
    ArchiveError,
    ArchiveIntegrityError,
    ArchiveReader,
    ArchiveWriter,
    ReplicatedShardSet,
    ShardedArchiveReader,
    ShardedArchiveWriter,
)
from repro.archive.cli import main as archive_cli
from repro.archive.sharding import shard_file_names
from repro.coding import compress_frames, decompress_frames
from repro.coding.executor import (
    JOBS,
    ParallelExecutor,
    default_workers,
    is_socket_workers,
    make_executor,
)
from repro.coding.netexec import (
    MSG_HEARTBEAT,
    MSG_HELLO,
    PROTOCOL_VERSION,
    SocketPoolExecutor,
    SocketWorker,
    WorkerClient,
    WorkerPool,
    local_worker_pool,
    main,
    parse_worker_addresses,
    recv_message,
    send_message,
)
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


#: The acceptance matrix: both codecs x {fast, scalar} entropy tiers.
CONFIGS = [
    CodecSpec(codec="s-transform", scales=3, engine="fast"),
    CodecSpec(codec="s-transform", scales=3, engine="scalar"),
    CodecSpec(codec="coefficient", scales=3, engine="fast"),
    CodecSpec(codec="coefficient", scales=3, engine="scalar"),
]


def _chunks(stream):
    return stream.chunks


@pytest.fixture(scope="module")
def cluster():
    """Four named in-process socket workers, shared by the module."""
    workers = [SocketWorker(node=f"node{i}") for i in range(4)]
    for worker in workers:
        worker.start()
    yield workers
    for worker in workers:
        worker.close()


@pytest.fixture(scope="module")
def addresses(cluster):
    return [worker.address for worker in cluster]


class TestByteIdentity:
    @pytest.mark.parametrize(
        "spec",
        CONFIGS,
        ids=lambda s: f"{s.codec}-{s.engine}",
    )
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_socket_pool_equals_serial(self, addresses, spec, workers):
        # The scalar tiers are the deliberately slow bit-by-bit references;
        # a smaller batch keeps the matrix fast without losing coverage.
        frames = mixed_batch_32()
        if spec.engine == "scalar":
            frames = frames[:8]
        pool = ",".join(addresses[:workers])
        serial = compress_frames(frames, spec=spec)
        distributed = compress_frames(frames, spec=spec, workers=pool)
        assert len(distributed.streams) == len(frames)
        for a, b in zip(serial.streams, distributed.streams):
            assert _chunks(a) == _chunks(b)
        assert distributed.stats.frames == serial.stats.frames
        assert distributed.stats.pixels == serial.stats.pixels
        assert distributed.stats.compressed_bytes == serial.stats.compressed_bytes
        assert set(distributed.stats.stage_seconds) == set(serial.stats.stage_seconds)
        assert distributed.stats.workers == min(workers, len(frames))
        assert distributed.stats.wall_seconds > 0.0
        # And the decode direction reconstructs bit for bit through the pool.
        decoded, stats = decompress_frames(distributed, workers=pool)
        for original, reconstructed in zip(frames, decoded):
            assert np.array_equal(original, reconstructed)
        assert stats.frames == len(frames)

    def test_distributed_equals_fork_pool(self, addresses):
        """Transport does not matter: socket shards == fork shards == serial."""
        frames = mixed_batch_32()
        spec = CodecSpec(codec="s-transform", scales=3)
        fork = ParallelExecutor(2).compress(frames, spec)
        sockets = SocketPoolExecutor(",".join(addresses[:2])).compress(frames, spec)
        for a, b in zip(fork.streams, sockets.streams):
            assert _chunks(a) == _chunks(b)


#: The three transports behind ``make_executor``, as ``workers=`` values.
TRANSPORTS = ("inline", "fork-2", "socket-2")


def transport_workers(transport, addresses):
    return {"inline": 1, "fork-2": 2, "socket-2": ",".join(addresses[:2])}[transport]


def flip_payload_byte(path, index):
    """Corrupt one byte in the middle of frame ``index``'s payload."""
    with ArchiveReader(path) as reader:
        entry = reader.frames[index]
    data = bytearray(path.read_bytes())
    data[entry.offset + entry.length // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def placed_on_two_nodes(path, shards):
    names = shard_file_names(path, shards)
    return {name: f"node{i % 2}" for i, name in enumerate(names)}


class TestTransportParity:
    """Every registry kind, and every archive call site built on it, gives
    the same answer inline, on a fork pool and on socket workers; only the
    socket leg moves placement counters (local runs report ``node=None``)."""

    def test_every_registry_kind_matches(self, tmp_path, addresses):
        frames = mixed_batch_32()[:6]
        spec = CodecSpec(codec="s-transform", scales=3)
        streams = compress_frames(frames, spec=spec).streams
        path = tmp_path / "kinds.dwta"
        with ArchiveWriter.create(path, spec=spec) as writer:
            writer.append_batch(frames)
        check = {"deep": True, "engine": "fast", "verify_checksums": True}
        payloads = {
            "compress": [{"spec": spec, "items": frames[:3]}, {"spec": spec, "items": frames[3:]}],
            "decompress": [
                {"spec": spec, "items": streams[:3]},
                {"spec": spec, "items": streams[3:]},
            ],
            "verify_container": [
                {"target": str(path), "part": 0, "parts": 1, **check},
                {"target": str(path), "part": 0, "parts": 2, **check},
                {"target": str(path), "part": 1, "parts": 2, **check},
            ],
            "echo": [{"x": 1}, [2, 3]],
        }
        assert set(payloads) == set(JOBS)

        def canonical(kind, result):
            if kind == "compress":
                return [stream.chunks for stream in result["items"]]
            if kind == "decompress":
                return [frame.tolist() for frame in result["items"]]
            return result

        for kind, jobs in payloads.items():
            seen = {}
            for transport in TRANSPORTS:
                runs = make_executor(transport_workers(transport, addresses)).run(kind, jobs)
                nodes = {node for _, node in runs}
                if transport == "socket-2":
                    assert nodes <= {"node0", "node1"}
                else:
                    assert nodes == {None}
                seen[transport] = [canonical(kind, result) for result, _ in runs]
            assert seen["inline"] == seen["fork-2"] == seen["socket-2"], kind

    @pytest.mark.parametrize("replicas", [0, 1])
    def test_append_batch_writes_identical_files(self, tmp_path, addresses, replicas):
        frames = mixed_batch_32()[:8]
        names = [f"frame_{i:02d}" for i in range(len(frames))]
        files = {}
        for transport in TRANSPORTS:
            path = tmp_path / transport / "set.dwts"
            path.parent.mkdir()
            placement = placed_on_two_nodes(path, 3)
            if replicas:
                writer = ReplicatedShardSet.create(
                    path, shards=3, replicas=replicas, scales=3, placement=placement
                )
            else:
                writer = ShardedArchiveWriter.create(path, shards=3, scales=3, placement=placement)
            with writer:
                writer.append_batch(
                    frames, names=names, workers=transport_workers(transport, addresses)
                )
                filled = len({writer.router.route(name) for name in names})
                counters = (writer.placement_hits, writer.placement_fallbacks)
            assert counters == ((filled, 0) if transport == "socket-2" else (0, 0))
            files[transport] = {p.name: p.read_bytes() for p in path.parent.iterdir()}
        assert len(files["inline"]) == 1 + 3 * (1 + replicas)
        assert files["inline"] == files["fork-2"] == files["socket-2"]

    def test_sharded_verify_reports_match(self, tmp_path, addresses):
        frames = mixed_batch_32()[:8]
        path = tmp_path / "rep.dwts"
        with ReplicatedShardSet.create(
            path, shards=2, replicas=1, scales=3, placement=placed_on_two_nodes(path, 2)
        ) as writer:
            writer.append_batch(frames, names=[f"frame_{i:02d}" for i in range(len(frames))])
            replica = path.parent / writer.manifest.replica_names[0][0]

        def reports():
            out = {}
            for transport in TRANSPORTS:
                with ShardedArchiveReader(path) as reader:
                    workers = transport_workers(transport, addresses)
                    out[transport] = reader.verify(deep=True, workers=workers, strict=False)
                    counters = (reader.placement_hits, reader.placement_fallbacks)
                assert counters == ((4, 0) if transport == "socket-2" else (0, 0))
            assert out["inline"] == out["fork-2"] == out["socket-2"]
            return out["inline"]

        assert reports()["failures"] == {}
        flip_payload_byte(replica, 0)
        damaged = reports()
        assert list(damaged["failures"]) == [replica.name]
        assert "ArchiveIntegrityError" in damaged["failures"][replica.name]

    def test_plain_verify_reports_and_errors_match(self, tmp_path, addresses):
        frames = mixed_batch_32()[:6]
        path = tmp_path / "plain.dwta"
        with ArchiveWriter.create(path, scales=3) as writer:
            writer.append_batch(frames)
        healthy = {}
        for transport in TRANSPORTS:
            with ArchiveReader(path) as reader:
                healthy[transport] = reader.verify(
                    deep=True, workers=transport_workers(transport, addresses)
                )
        assert healthy["inline"] == healthy["fork-2"] == healthy["socket-2"]
        # Frames 3 and 4 sit in different shards of a two-way split; every
        # transport must stop where the serial path does, at frame 3.
        flip_payload_byte(path, 3)
        flip_payload_byte(path, 4)
        errors = {}
        for transport in TRANSPORTS:
            with ArchiveReader(path) as reader:
                with pytest.raises(ArchiveError) as info:
                    reader.verify(deep=True, workers=transport_workers(transport, addresses))
            errors[transport] = (type(info.value), str(info.value))
        assert errors["inline"] == errors["fork-2"] == errors["socket-2"]
        assert errors["inline"][0] is ArchiveIntegrityError
        assert "frame_00003" in errors["inline"][1]

    def test_cli_verify_of_damaged_plain_archive_over_sockets(
        self, tmp_path, addresses, capsys
    ):
        path = tmp_path / "cli.dwta"
        with ArchiveWriter.create(path, scales=3) as writer:
            writer.append_batch(mixed_batch_32()[:4])
        flip_payload_byte(path, 1)
        sockets = ",".join(addresses[:2])
        assert archive_cli(["verify", str(path), "--deep", "--workers", sockets]) == 1
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert archive_cli(["verify", str(path), "--deep"]) == 1
        assert capsys.readouterr().err == err


class TestExecutorSeam:
    def test_is_socket_workers_classification(self):
        assert not is_socket_workers(None)
        assert not is_socket_workers(1)
        assert not is_socket_workers(4)
        assert not is_socket_workers(np.int64(2))
        assert is_socket_workers("127.0.0.1:9999")
        assert is_socket_workers(["127.0.0.1:9999"])

    def test_make_executor_resolves_transport(self, addresses):
        assert isinstance(make_executor(None), ParallelExecutor)
        assert isinstance(make_executor(2), ParallelExecutor)
        executor = make_executor(",".join(addresses[:2]))
        assert isinstance(executor, SocketPoolExecutor)
        assert executor.workers == 2
        # An executor passes through unchanged, a pool is borrowed.
        assert make_executor(executor) is executor
        pool = WorkerPool(addresses[:2])
        assert make_executor(pool).pool is pool

    def test_borrowed_pool_persists_connections(self, addresses):
        frames = [shepp_logan(32), random_image(32, seed=3)]
        with WorkerPool(addresses[:2]) as pool:
            compress_frames(frames, spec=CodecSpec(scales=2), workers=pool)
            assert pool.live_count == 2
            assert all(client.connected for client in pool._clients.values())
            compress_frames(frames, spec=CodecSpec(scales=2), workers=pool)
            assert pool.submits == 4  # two batches x two shards, same pool

    def test_owned_pool_disconnects_after_batch(self, addresses):
        executor = SocketPoolExecutor(",".join(addresses[:2]))
        executor.compress([shepp_logan(32)] * 4, CodecSpec(scales=2))
        assert executor.pool._clients == {}  # no leaked sockets

    def test_empty_batch_degenerates_to_serial(self, addresses):
        batch = SocketPoolExecutor(addresses[0]).compress([], CodecSpec(scales=2))
        assert batch.streams == []

    def test_spec_override_rejection(self, addresses):
        with pytest.raises(ValueError, match="not both"):
            SocketPoolExecutor(addresses[0]).compress(
                [shepp_logan(32)], spec=CodecSpec(), codec="s-transform"
            )

    def test_worker_nodes_registered(self, addresses, cluster):
        with WorkerPool(addresses) as pool:
            pool.ensure_connected()
            nodes = pool.nodes()
        assert sorted(nodes) == ["node0", "node1", "node2", "node3"]
        assert nodes["node2"] == cluster[2].address


class TestWorkerRpc:
    def test_hello_reports_capabilities(self, addresses):
        with WorkerClient(addresses[0]) as client:
            assert client.node == "node0"
            assert client.worker_pid == os.getpid()
            for kind in ("compress", "decompress", "verify_container"):
                assert kind in client.capabilities

    def test_echo_roundtrip(self, addresses):
        payload = {"arr": np.arange(7), "text": "x" * 1000}
        with WorkerClient(addresses[0]) as client:
            result = client.call("echo", payload)
        assert np.array_equal(result["arr"], payload["arr"])
        assert result["text"] == payload["text"]

    def test_heartbeat_counters(self, cluster):
        with SocketWorker(node="beat") as worker:
            with WorkerClient(worker.address) as client:
                before = client.heartbeat()
                client.call("echo", 1)
                client.call("echo", 2)
                after = client.heartbeat()
        assert before["node"] == after["node"] == "beat"
        assert after["jobs_done"] == before["jobs_done"] + 2
        assert after["jobs_by_kind"]["echo"] == 2
        assert after["uptime_s"] >= 0.0

    def test_shutdown_drains_worker(self):
        worker = SocketWorker(node="drain")
        worker.start()
        with WorkerClient(worker.address) as client:
            status = client.shutdown()
        assert status["node"] == "drain"
        worker._closing.wait(timeout=5)
        assert worker._closing.is_set()
        # The listening socket closes in the worker's connection thread just
        # after SHUTDOWN_OK is sent; poll until the port actually refuses.
        deadline = time.monotonic() + 5
        refused = False
        while time.monotonic() < deadline and not refused:
            try:
                probe = socket.create_connection((worker.host, worker.port), timeout=0.5)
                probe.close()
                time.sleep(0.02)
            except OSError:
                refused = True
        assert refused

    def test_framing_roundtrip(self):
        left, right = socket.socketpair()
        try:
            send_message(left, MSG_HEARTBEAT, b"\x00\x01payload")
            assert recv_message(right) == (MSG_HEARTBEAT, b"\x00\x01payload")
            send_message(left, MSG_HELLO, b"")
            assert recv_message(right) == (MSG_HELLO, b"")
            left.close()
            assert recv_message(right) is None  # clean EOF at a boundary
        finally:
            right.close()


class TestAddressParsing:
    def test_forms(self):
        assert parse_worker_addresses("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_worker_addresses(" a:1 , b:2 ") == [("a", 1), ("b", 2)]
        assert parse_worker_addresses(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]
        assert parse_worker_addresses("::1:9000") == [("::1", 9000)]

    @pytest.mark.parametrize("bad", ["", ",", "nohost", ":1", "a:banana"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_worker_addresses(bad)


class TestDefaultWorkersEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_invalid_string(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()

    def test_env_below_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match=">= 1"):
            default_workers()

    def test_env_unset_uses_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1


class TestWorkerProcesses:
    def test_subprocess_workers_end_to_end(self, capsys):
        """Real ``python -m repro.netexec`` workers: byte identity, node
        registration, and the ping CLI against a live process."""
        frames = mixed_batch_32()[:6]
        spec = CodecSpec(codec="s-transform", scales=2)
        serial = compress_frames(frames, spec=spec)
        with local_worker_pool(2, nodes=["proc0", "proc1"]) as addresses:
            pool = WorkerPool(addresses)
            with pool:
                distributed = compress_frames(frames, spec=spec, workers=pool)
                assert sorted(pool.nodes()) == ["proc0", "proc1"]
                pids = {
                    pool._clients[i].worker_pid for i in pool.live_indices()
                }
                assert os.getpid() not in pids  # genuinely out of process
            for a, b in zip(serial.streams, distributed.streams):
                assert _chunks(a) == _chunks(b)
            assert main(["ping", addresses[0]]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["node"] == "proc0"
            assert status["jobs_done"] >= 1

    def test_cli_shutdown(self, capsys):
        worker = SocketWorker(node="clidrain")
        worker.start()
        assert main(["shutdown", worker.address]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["node"] == "clidrain"
        worker._closing.wait(timeout=5)
        assert worker._closing.is_set()

    def test_cli_errors_on_dead_address(self, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["ping", f"127.0.0.1:{port}"]) == 1
        assert "error:" in capsys.readouterr().err

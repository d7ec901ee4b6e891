"""The four workloads: generated inputs, fixtures, one timed round, checks.

Each workload puts most of its work on a different layer (see README.md).
A workload object is built by its set-up (inputs, fixtures, warm-up) and
then measured round by round.  A round returns the latency of every
operation it ran, timed without the correctness check that follows each
operation: the checks run between operations, outside every timed interval.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.archive import ArchiveReader, ArchiveWriter, ingest_frames, open_archive
from repro.archive.replication import ReplicatedShardSet
from repro.coding.pipeline import compress_frames, decompress_frames, resource_cache_info
from repro.coding.s_transform import s_transform_forward_2d
from repro.imaging import ct_slice_series

import plans
from tracing import clock

HERE = Path(__file__).resolve().parent

#: A failed or refused operation counts as having taken this long.
OP_TIMEOUT_S = 30.0
PREVIEW_SCALE = 2
SLICE_BYTES = 8192


@dataclass
class Round:
    """One timed round of operations."""

    latencies: List[float] = field(default_factory=list)
    ok: int = 0
    pixels: int = 0
    #: Wall seconds the operations took (checks excluded).
    seconds: float = 0.0
    #: CPU seconds of the process doing the work over those operations.
    cpu: float = 0.0

    def add(self, seconds: float, cpu: float, ok: bool, pixels: int) -> None:
        self.latencies.append(seconds if ok else OP_TIMEOUT_S)
        self.ok += int(ok)
        self.pixels += pixels if ok else 0
        self.seconds += seconds
        self.cpu += cpu


def ct_frames(size: int, count: int, seed: int) -> List[np.ndarray]:
    """``count`` 12-bit CT-like slices, in seeded series of eight."""
    frames: List[np.ndarray] = []
    for first in range(0, count, 8):
        frames += ct_slice_series(
            count=min(8, count - first), size=size, seed=seed * 1000 + first
        )
    return frames


def preview_reference(frame: np.ndarray) -> np.ndarray:
    return s_transform_forward_2d(frame, PREVIEW_SCALE).approximation


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Workload:
    name = ""
    #: Side of the square frames the workload processes.
    size = 0

    def round(self) -> Round:
        raise NotImplementedError

    def bytes_per_pixel(self) -> float:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def cpu_seconds(self) -> Optional[float]:
        """CPU seconds of an out-of-process worker, or ``None`` when the
        rounds' own ``cpu`` already covers the process doing the work."""
        return None

    def counters(self) -> Dict[str, float]:
        """Layer counters read without tracing (bytes, queue peaks, ...)."""
        return {"coding.resource_cache.misses": resource_cache_info()["misses"]}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# ingest: transform + entropy encode + serialize + container write
# ---------------------------------------------------------------------------

class _StampingWriter:
    """Writer stand-in that stamps the moment each stream is archived."""

    def __init__(self, writer: ArchiveWriter) -> None:
        self.writer = writer
        self.spec = writer.spec
        self.stamps: List[float] = []

    def add_stream(self, stream, name=None):
        entry = self.writer.add_stream(stream, name)
        self.stamps.append(clock())
        return entry


class Ingest(Workload):
    """256² CT slices streamed through ``ingest_frames`` (queue depth 4)
    into a fresh subband-major file archive per round."""

    name = "ingest"
    size = 256

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.workdir = workdir
        frames = ct_frames(self.size, 4 if smoke else 16, seed)
        self.feed = [(f"slice_{i:03d}", frame) for i, frame in enumerate(frames)]
        self.reference: Optional[bytes] = None
        self.payload_bytes = 0
        self.inflight_peak = 0
        self.rounds = 0
        self.round()  # warm-up: codec construction, first file create

    def round(self) -> Round:
        path = self.workdir / f"ingest-{self.rounds}.dwta"
        self.rounds += 1
        cpu0, start = time.process_time(), clock()
        try:
            with ArchiveWriter.create(
                path, codec="s-transform", scales=4, layout="subband-major"
            ) as writer:
                stamping = _StampingWriter(writer)
                report = ingest_frames(stamping, self.feed, queue_depth=4)
            end, cpu1 = clock(), time.process_time()
            self.inflight_peak = max(self.inflight_peak, report.max_in_flight)
            ok = self._check(path)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            print(f"ingest: round failed: {exc!r}", file=sys.stderr)
            end, cpu1, ok = clock(), time.process_time(), False
        path.unlink(missing_ok=True)
        result = Round(seconds=end - start, cpu=cpu1 - cpu0)
        stamps = [start] + stamping.stamps if ok else []
        for i in range(len(self.feed)):
            result.latencies.append(stamps[i + 1] - stamps[i] if ok else OP_TIMEOUT_S)
        result.ok = len(self.feed) if ok else 0
        result.pixels = result.ok * self.size * self.size
        return result

    def _check(self, path: Path) -> bool:
        """Every ingested frame round-trips losslessly: the first archive is
        decoded frame by frame, and each later one must equal it byte for
        byte (same inputs, same order)."""
        data = path.read_bytes()
        if self.reference is not None:
            return data == self.reference
        with ArchiveReader(path) as reader:
            ok = reader.names() == [name for name, _ in self.feed] and all(
                np.array_equal(reader.decode(name), frame) for name, frame in self.feed
            )
            self.payload_bytes = reader.compressed_bytes
        if ok:
            self.reference = data
        return ok

    def bytes_per_pixel(self) -> float:
        return len(self.reference) / (len(self.feed) * self.size * self.size)

    def counters(self) -> Dict[str, float]:
        return {
            **super().counters(),
            "archive.writer.bytes_per_frame": self.payload_bytes / len(self.feed),
            "archive.ingest.inflight_peak": self.inflight_peak,
        }


# ---------------------------------------------------------------------------
# retrieve: random-access full decodes and scale-2 previews
# ---------------------------------------------------------------------------

class Retrieve(Workload):
    """A closed loop of seeded random-access reads on a 512² archive, one
    full ``decode`` to three ``read_preview(at_scale=2)``."""

    name = "retrieve"
    size = 512

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.frames = ct_frames(self.size, 4 if smoke else 12, seed)
        self.previews = [preview_reference(frame) for frame in self.frames]
        self.path = workdir / "retrieve.dwta"
        with ArchiveWriter.create(
            self.path, codec="s-transform", scales=4, layout="subband-major"
        ) as writer:
            writer.append_batch(self.frames)
        self.reader = ArchiveReader(self.path)
        self.plan = plans.retrieve_plan(seed, len(self.frames), blocks=500)
        self.position = 0
        self.decode_bytes = self.decode_ops = 0
        self.preview_bytes = self.preview_payload = 0
        for index in range(2):  # warm-up: codec construction, first mmap
            self.reader.decode(index)
            self.reader.read_preview(index, PREVIEW_SCALE)

    def round(self) -> Round:
        result = Round()
        for _ in range(4):
            kind, index = self.plan[self.position % len(self.plan)]
            self.position += 1
            before = self.reader.bytes_read
            cpu0, start = time.process_time(), clock()
            try:
                if kind == "decode":
                    image = self.reader.decode(index)
                else:
                    image = self.reader.read_preview(index, PREVIEW_SCALE)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                print(f"retrieve: {kind} {index} failed: {exc!r}", file=sys.stderr)
                image = None
            end, cpu1 = clock(), time.process_time()
            read = self.reader.bytes_read - before
            if kind == "decode":
                expected, pixels = self.frames[index], self.size * self.size
                self.decode_bytes += read
                self.decode_ops += 1
            else:
                expected, pixels = self.previews[index], self.previews[index].size
                self.preview_bytes += read
                self.preview_payload += self.reader.find(index).length
            ok = image is not None and np.array_equal(image, expected)
            result.add(end - start, cpu1 - cpu0, ok, pixels)
        return result

    def bytes_per_pixel(self) -> float:
        return self.path.stat().st_size / (len(self.frames) * self.size * self.size)

    def counters(self) -> Dict[str, float]:
        return {
            **super().counters(),
            "archive.reader.bytes_per_decode": self.decode_bytes / max(self.decode_ops, 1),
            "archive.reader.preview_bytes_fraction": (
                self.preview_bytes / max(self.preview_payload, 1)
            ),
        }

    def close(self) -> None:
        self.reader.close()


# ---------------------------------------------------------------------------
# serve: HTTP + service queues + hot-frame cache, decodes on misses
# ---------------------------------------------------------------------------

def _child_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Serve(Workload):
    """A 4-shard replicated set served by the repo's ``serve`` command in a
    child process, driven by one keep-alive connection in a closed loop."""

    name = "serve"
    size = 256

    def __init__(
        self, seed: int, workdir: Path, smoke: bool, trace_out: Optional[Path] = None
    ) -> None:
        self.frames = ct_frames(self.size, 8 if smoke else 32, seed)
        self.previews = [preview_reference(frame) for frame in self.frames]
        self.names = [f"slice_{i:03d}" for i in range(len(self.frames))]
        manifest = workdir / "serve.dwts"
        with ReplicatedShardSet.create(
            manifest, shards=4, replicas=1, layout="subband-major"
        ) as writer:
            writer.append_batch(self.frames, names=self.names)
        self.stored = self._stored_payloads(manifest)
        decoded = sum(f.size * 8 + p.size * 8 for f, p in zip(self.frames, self.previews))
        self.hot = len(self.frames) // 8
        self.plan = plans.serve_plan(seed, len(self.frames), self.hot, blocks=100)
        self.position = 0
        #: (start, end) of every answered request, on the tracer's clock.
        self.requests: List[Tuple[float, float]] = []
        command = [sys.executable, "-u", str(HERE / "serve_child.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += [
            "serve", str(manifest), "--port", "0", "--readonly",
            # The hot-frame cache holds about a quarter of the decoded set.
            "--cache-bytes", str(decoded // 4),
        ]
        self.child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            port = self._await_port()
            self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=OP_TIMEOUT_S)
            for index in range(self.hot):
                self._request("full", index, 0.0)
                self._request("preview", index, 0.0)
            for _ in range(100):  # one plan block settles the LRU state
                self._request(*self._next())
        except BaseException:
            self.close()
            raise
        self.requests.clear()

    def _stored_payloads(self, manifest: Path) -> Dict[int, bytes]:
        """Each frame's stored payload, read straight from its shard file."""
        with open_archive(manifest) as reader:
            shards = [(manifest.parent / name).read_bytes() for name in reader.manifest.shard_names]
            self.stored_bytes = sum(len(data) for data in shards)
            payloads = {}
            for index, name in enumerate(self.names):
                entry = reader.find(name)
                data = shards[reader.router.route(name)]
                payloads[index] = data[entry.offset : entry.offset + entry.length]
        return payloads

    def _await_port(self) -> int:
        ready, _, _ = select.select([self.child.stdout], [], [], 60.0)
        line = self.child.stdout.readline() if ready else ""
        if " on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def _next(self) -> Tuple[str, int, float]:
        request = self.plan[self.position % len(self.plan)]
        self.position += 1
        return request

    def _request(self, kind: str, index: int, u: float) -> Tuple[float, bool, int]:
        """One request: returns (seconds, passed its check, pixels)."""
        name = self.names[index]
        headers = {}
        path = f"/frames/{name}"
        if kind == "preview":
            path += f"/preview?scale={PREVIEW_SCALE}"
        elif kind == "slice":
            length = len(self.stored[index])
            first = int(u * (length - SLICE_BYTES))
            headers["Range"] = f"bytes={first}-{first + SLICE_BYTES - 1}"
        start = clock()
        try:
            self.conn.request("GET", path, headers=headers)
            response = self.conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            print(f"serve: {kind} {name} failed: {exc!r}", file=sys.stderr)
            self.conn.close()
            return clock() - start, False, 0
        end = clock()
        self.requests.append((start, end))
        if kind == "slice":
            expected = self.stored[index][first : first + SLICE_BYTES]
            return end - start, response.status == 206 and body == expected, 0
        reference = self.frames[index] if kind == "full" else self.previews[index]
        ok = response.status == 200
        if ok:
            shape = tuple(int(side) for side in response.getheader("X-Frame-Shape").split("x"))
            image = np.frombuffer(body, dtype=response.getheader("X-Frame-Dtype"))
            ok = image.size == reference.size and np.array_equal(
                image.reshape(shape), reference
            )
        return end - start, ok, reference.size

    def round(self) -> Round:
        result = Round()
        for _ in range(100):
            seconds, ok, pixels = self._request(*self._next())
            result.add(seconds, 0.0, ok, pixels)
        return result

    def stats(self) -> Dict:
        self.conn.request("GET", "/stats")
        return json.loads(self.conn.getresponse().read())

    def cpu_seconds(self) -> float:
        return _child_cpu_seconds(self.child.pid)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(str(self.child.pid))

    def bytes_per_pixel(self) -> float:
        # Primary copies only: each replica repeats its shard byte for byte.
        return self.stored_bytes / (len(self.frames) * self.size * self.size)

    def counters(self) -> Dict[str, float]:
        # The server child's own counters arrive with its trace dump.
        return {}

    def close(self) -> None:
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.child.poll() is None:
            self.child.send_signal(signal.SIGINT)
            try:
                self.child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        self.child.stdout.close()


# ---------------------------------------------------------------------------
# fixedpoint: the paper's fixed-point DWT through the coefficient codec
# ---------------------------------------------------------------------------

class Fixedpoint(Workload):
    """Serial per-frame round trips through ``compress_frames`` /
    ``decompress_frames`` with ``codec="coefficient"`` on 128² slices."""

    name = "fixedpoint"
    size = 128

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.frames = ct_frames(self.size, 4 if smoke else 16, seed)
        self.position = 0
        self.compressed = self.pixels = 0
        self.round()  # warm-up: word-length planning, codec construction
        self.compressed = self.pixels = 0

    def round(self) -> Round:
        result = Round()
        for _ in range(4):
            frame = self.frames[self.position % len(self.frames)]
            self.position += 1
            cpu0, start = time.process_time(), clock()
            batch = compress_frames([frame], codec="coefficient")
            (decoded,), _ = decompress_frames(batch)
            end, cpu1 = clock(), time.process_time()
            self.compressed += batch.stats.compressed_bytes
            self.pixels += frame.size
            result.add(end - start, cpu1 - cpu0, np.array_equal(decoded, frame), frame.size)
        return result

    def bytes_per_pixel(self) -> float:
        return self.compressed / self.pixels


WORKLOADS = {cls.name: cls for cls in (Ingest, Retrieve, Serve, Fixedpoint)}

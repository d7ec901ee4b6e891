"""Sharded-archive pack benchmark: one end-to-end worker per shard.

Not a paper table: this is the perf claim behind
:mod:`repro.archive.sharding` — splitting an archive across N container
files must (a) change nothing about the stored frame bytes (resharding
invariance) and (b) let a pack run one compress job per shard on a
process pool, raising ingest throughput on multi-core hosts.  On a 32-frame 128x128 CT series packed into a 4-shard set the
benchmark measures end-to-end pack time (create + compress + write +
finalise) at 1 and 4 workers, proves per-frame payload identity against a
plain single-file archive, proves shard-file byte identity between serial
and parallel packs, and writes the numbers to
``benchmarks/reports/bench_archive_sharded.json`` so the trajectory is
diffable across PRs, like ``bench_pipeline_parallel``.

As there, the >= 1.5x speedup gate at 4 workers is only enforced when the
host exposes >= 4 usable CPUs; narrower hosts still run the correctness
half and the report records why the throughput gate was waived.
"""

import time

import pytest

from _gates import cpu_throughput_gate
from repro.archive import ArchiveReader, ArchiveWriter, ShardedArchiveReader, ShardedArchiveWriter
from repro.imaging import ct_slice_series

pytestmark = pytest.mark.archive

FRAME_COUNT = 32
FRAME_SIZE = 128
SHARDS = 4
WORKER_COUNTS = (1, 4)
MIN_SPEEDUP_AT_4 = 1.5


def _names(count):
    return [f"slice_{i:03d}" for i in range(count)]


def _pack_set(directory, frames, workers, repeats=3):
    """Best end-to-end pack time over ``repeats`` fresh packs."""
    best = float("inf")
    target = directory / f"set_w{workers}.dwts"
    for _ in range(repeats):
        for stale in directory.glob(f"set_w{workers}.*"):
            stale.unlink()
        began = time.perf_counter()
        with ShardedArchiveWriter.create(target, shards=SHARDS, workers=workers) as writer:
            writer.append_batch(frames, names=_names(len(frames)))
        best = min(best, time.perf_counter() - began)
    return best, target


def test_sharded_pack_scaling(tmp_path, save_json_record):
    frames = ct_slice_series(count=FRAME_COUNT, size=FRAME_SIZE, seed=20260728)
    gate = cpu_throughput_gate(
        "one worker per shard cannot beat serial without CPUs to run on"
    )

    seconds, sets = {}, {}
    for workers in WORKER_COUNTS:
        seconds[workers], sets[workers] = _pack_set(tmp_path, frames, workers)

    # Correctness half (always enforced).
    # 1. Serial and per-shard-parallel packs produce byte-identical shards.
    for a, b in zip(
        sorted(tmp_path.glob("set_w1.shard*.dwta")),
        sorted(tmp_path.glob("set_w4.shard*.dwta")),
    ):
        assert a.read_bytes() == b.read_bytes(), f"workers changed shard bytes ({a.name})"
    # 2. Resharding invariance: every frame's payload bytes in the 4-shard
    # set equal those of a plain single-file archive of the same frames.
    plain = tmp_path / "plain.dwta"
    with ArchiveWriter.create(plain) as writer:
        writer.append_batch(frames, names=_names(FRAME_COUNT))
    with ArchiveReader(plain) as single, ShardedArchiveReader(sets[1]) as sharded:
        for name in single.names():
            assert single.read_payload(name) == sharded.read_payload(name), (
                f"sharding changed frame payload bytes ({name})"
            )

    pixels = FRAME_COUNT * FRAME_SIZE * FRAME_SIZE
    speedup = seconds[1] / seconds[4]
    record = {
        "frame_count": FRAME_COUNT,
        "frame_size": FRAME_SIZE,
        "shards": SHARDS,
        "usable_cpus": gate.usable_cpus,
        "byte_identical": True,
        "reshard_invariant": True,
        "seconds": {str(w): seconds[w] for w in WORKER_COUNTS},
        "mpixels_per_s": {str(w): pixels / seconds[w] / 1e6 for w in WORKER_COUNTS},
        "speedup_at_4_workers": speedup,
        "min_speedup_at_4": MIN_SPEEDUP_AT_4,
        "throughput_gate": gate.record,
    }
    save_json_record("bench_archive_sharded", record)

    if gate.active:
        assert speedup >= MIN_SPEEDUP_AT_4, (
            f"4-worker sharded pack speedup only {speedup:.2f}x "
            f"({seconds[1] * 1e3:.0f} ms serial vs {seconds[4] * 1e3:.0f} ms parallel)"
        )

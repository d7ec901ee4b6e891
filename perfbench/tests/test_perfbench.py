"""Self-tests of the benchmark: seeded plans, metric names, smoke runs.

The smoke runs drive ``run.py`` end to end on every workload with small
inputs and a one-second window, untraced and traced (the traced run also
performs the span-coverage self-check).
"""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import plans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_same_seed_gives_the_same_plans():
    assert plans.retrieve_plan(5, 12, 50) == plans.retrieve_plan(5, 12, 50)
    assert plans.serve_plan(5, 32, 4, 3) == plans.serve_plan(5, 32, 4, 3)


def test_different_seed_gives_a_different_plan():
    assert plans.retrieve_plan(5, 12, 50) != plans.retrieve_plan(6, 12, 50)
    assert plans.serve_plan(5, 32, 4, 3) != plans.serve_plan(6, 32, 4, 3)


def test_plans_hold_the_exact_mix_in_every_block():
    retrieve = plans.retrieve_plan(1, 12, 30)
    for first in range(0, len(retrieve), 4):
        assert Counter(kind for kind, _ in retrieve[first:first + 4]) == {
            "decode": 1, "preview": 3,
        }
    serve = plans.serve_plan(1, 32, 4, 5)
    expected = Counter({(hot, kind): count for hot, kind, count in plans.SERVE_BLOCK})
    for first in range(0, len(serve), 100):
        block = serve[first:first + 100]
        assert Counter((index < 4, kind) for kind, index, _ in block) == expected


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = run_bench(workload, seed=3, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(workload):
    result = run_bench(workload, seed=3, trace=1)
    assert result["correct"], "span coverage self-check failed"
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_same_seed_gives_the_same_bytes_per_pixel():
    first, second = (run_bench("ingest", seed=9, trace=0) for _ in range(2))
    assert first["metrics"]["bytes_per_pixel"] == second["metrics"]["bytes_per_pixel"]

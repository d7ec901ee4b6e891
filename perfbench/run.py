"""Repository benchmark: one workload per run, end-to-end or traced.

Usage::

    python3 perfbench/run.py --workload {ingest,retrieve,serve,fixedpoint}
        --seed N --seconds S --trace {0,1} [--smoke]

``--trace 0`` sets the workload up ``SETUPS`` (3) times in fresh processes
(``setup_s`` is their median), measures the last one for ``--seconds`` and
prints every end-to-end metric.  ``--trace 1`` runs the workload twice for
half the time each, untraced and then traced, and prints every per-layer
metric plus the tracing overhead.  ``--smoke`` shrinks the inputs for a
quick end-to-end check.  Human-readable lines (metrics with units and
sample counts, the host-speed probe) come first; the last stdout line is
the JSON result.  Runs from the root of a checkout and writes only under
``.perfbench_tmp/`` there.
"""

from __future__ import annotations

import argparse
import json
import math
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "retrieve", "serve", "fixedpoint")
SETUPS = 3
#: Wall-clock limit for one worker process, set-up included.
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_share": "ratio",
    "mpix_s": "Mpixel/s",
    "ops_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cpu_ms_per_op": "ms",
    "bytes_per_pixel": "B/px",
}


def host_probe_ms() -> float:
    """A fixed, repository-independent CPU loop; best of three, in ms.

    Recorded before and after every run, next to (not among) the metrics,
    so a failed stability check can be traced to host speed drift.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 1
        for _ in range(300_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def run_worker(
    args: argparse.Namespace, workdir: Path, seconds: float, trace: bool, setup_only: bool
) -> Tuple[float, Optional[Dict]]:
    """Start one worker; returns (set-up seconds, result or None)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--workdir", str(workdir),
    ]
    command += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--smoke"] * args.smoke
    began = time.perf_counter()
    deadline = began + WORKER_TIMEOUT_S
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    setup, result = None, None
    try:
        while True:
            ready, _, _ = select.select([child.stdout], [], [], max(deadline - time.perf_counter(), 0))
            if not ready:
                raise RuntimeError(f"{args.workload} worker timed out")
            line = child.stdout.readline()
            if not line:
                break
            if line.startswith("PERFBENCH-READY"):
                setup = time.perf_counter() - began
            elif line.startswith("PERFBENCH-RESULT "):
                result = json.loads(line[len("PERFBENCH-RESULT "):])
            else:
                sys.stderr.write(line)
        code = child.wait(timeout=max(deadline - time.perf_counter(), 1))
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if code != 0 or setup is None or (result is None and not setup_only):
        raise RuntimeError(f"{args.workload} worker failed (exit code {code})")
    return setup, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, one set-up")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    probe_before = host_probe_ms()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = scratch / f"run-{args.workload}-{time.time_ns()}"
    workdir.mkdir()
    try:
        if args.trace:
            report = traced(args, workdir)
        else:
            report = untraced(args, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it
    probe_after = host_probe_ms()

    metrics, samples, units, result, errors = report
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, value in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:44s} {value:14.6g} {units[name]}{count}")
    print(f"host probe: {probe_before:.3f} ms before, {probe_after:.3f} ms after")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


def untraced(args, workdir):
    setups: List[float] = []
    for _ in range((1 if args.smoke else SETUPS) - 1):
        setups.append(run_worker(args, workdir, args.seconds, False, True)[0])
    setup, result = run_worker(args, workdir, args.seconds, False, False)
    setups.append(setup)
    metrics = {"setup_s": statistics.median(setups), **result["metrics"]}
    beyond_p90 = result["samples"] - math.ceil(0.9 * result["samples"])
    if beyond_p90 < 10 and not args.smoke:
        result["errors"].append(f"only {beyond_p90} samples beyond p90 (need 10)")
    samples = {name: result["samples"] for name in
               ("ok_share", "mpix_s", "ops_s", "op_ms_p50", "op_ms_p90", "cpu_ms_per_op")}
    samples["setup_s"] = len(setups)
    return metrics, samples, END_TO_END_UNITS, result, result["errors"]


def traced(args, workdir):
    from worker import LAYER_UNITS

    _, plain = run_worker(args, workdir, args.seconds / 2, False, False)
    _, result = run_worker(args, workdir, args.seconds / 2, True, False)
    metrics = dict(result["layers"])
    plain_rate, traced_rate = plain["metrics"]["ops_s"], result["metrics"]["ops_s"]
    metrics["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
    units = {**LAYER_UNITS, "trace.overhead_pct": "%"}
    errors = plain["errors"] + result["errors"]
    return metrics, {}, units, result, errors


if __name__ == "__main__":
    sys.exit(main())

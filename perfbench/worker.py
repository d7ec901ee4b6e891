"""One measuring process: set up a workload, time it, check it, report.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
``PERFBENCH-READY`` when set-up is done (the next operation is the first
timed one), then, unless ``--setup-only``, one ``PERFBENCH-RESULT <json>``
line.  With ``--trace`` the layer boundaries are wrapped before set-up and
the result carries the per-layer metrics of the timed window.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from tracing import clock  # noqa: E402

#: Spans that must record calls in a traced timed window, per workload; a
#: refactor that routes around a wrapper then fails loudly instead of
#: reporting a zero.
REQUIRED_SPANS = {
    "ingest": (
        "coding.transform", "coding.entropy_encode", "archive.serialize",
        "archive.writer.add_stream",
    ),
    "retrieve": (
        "archive.reader.decode", "archive.reader.read_preview",
        "archive.reader.read_payload_view", "archive.reader.read_payload_slice",
        "archive.serialize.deserialize", "coding.entropy_decode", "coding.inverse",
        "coding.decode_preview",
    ),
    "serve": (
        "server.get_frame", "server.get_preview", "server.get_frame_slice",
        "sharding.decode", "sharding.read_preview", "sharding.read_payload_slice",
        "coding.entropy_decode", "coding.decode_preview",
    ),
    "fixedpoint": (
        "coding.transform", "fxdwt.forward", "coding.entropy_encode",
        "coding.entropy_decode", "coding.inverse", "fxdwt.inverse",
    ),
}

#: Spans that must record no calls: the layer separation the workload exists for.
FORBIDDEN_SPANS = {"ingest": ("coding.entropy_decode",)}

#: Per-layer metric → the span whose time it divides.  ``ms_per_mpix``
#: divides by the pixels of the frames that passed through the span,
#: ``ms_per_op`` by the operations (distinct parent spans) that called it.
SPAN_METRICS = {
    "coding.transform.ms_per_mpix": "coding.transform",
    "coding.entropy_encode.ms_per_mpix": "coding.entropy_encode",
    "archive.serialize.ms_per_mpix": "archive.serialize",
    "coding.entropy_decode.ms_per_mpix": "coding.entropy_decode",
    "coding.inverse.ms_per_mpix": "coding.inverse",
    "fxdwt.forward.ms_per_mpix": "fxdwt.forward",
    "fxdwt.inverse.ms_per_mpix": "fxdwt.inverse",
    "coding.decode_preview.ms_per_op": "coding.decode_preview",
    "archive.reader.read_payload_view.ms_per_op": "archive.reader.read_payload_view",
    "archive.reader.read_payload_slice.ms_per_op": "archive.reader.read_payload_slice",
    "archive.serialize.deserialize.ms_per_op": "archive.serialize.deserialize",
}

#: Every per-layer metric with its unit.  A layer that does no work on a
#: workload reports 0 there.
LAYER_UNITS = {
    **{name: "ms/Mpixel" if name.endswith("mpix") else "ms" for name in SPAN_METRICS},
    "archive.writer.add_stream.ms_per_frame": "ms",
    "archive.writer.bytes_per_frame": "B",
    "archive.ingest.inflight_peak": "count",
    "archive.reader.bytes_per_decode": "B",
    "archive.reader.preview_bytes_fraction": "ratio",
    "coding.entropy_decode.share_of_decode": "ratio",
    "server.cache.hit_ratio.full": "ratio",
    "server.cache.hit_ratio.preview": "ratio",
    "server.http.overhead_ms_p50": "ms",
    "server.handoff_ms_p50": "ms",
    "server.queue.peak_depth": "count",
    "server.reader.decode.ms_p50": "ms",
    "coding.resource_cache.misses": "count",
}


def percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def end_to_end(workload, rounds, cpu_seconds: float) -> Dict[str, float]:
    latencies = [s for r in rounds for s in r.latencies]
    ops = len(latencies)
    seconds = sum(r.seconds for r in rounds)
    return {
        "ok_share": sum(r.ok for r in rounds) / ops,
        "ops_s": ops / seconds,
        "mpix_s": sum(r.pixels for r in rounds) / seconds / 1e6,
        "op_ms_p50": percentile_ms(latencies, 50),
        "op_ms_p90": percentile_ms(latencies, 90),
        "cpu_ms_per_op": cpu_seconds * 1e3 / ops,
        "peak_rss_mb": workload.peak_rss_mb(),
        "bytes_per_pixel": workload.bytes_per_pixel(),
    }


def layer_metrics(workload, spans, start: float, end: float, extra: Dict) -> Dict[str, float]:
    """Per-layer metrics of the timed window ``[start, end]``."""
    inside = tracing.window(spans, start, end)
    mpix_per_frame = workload.size * workload.size / 1e6
    metrics = {name: 0.0 for name in LAYER_UNITS}
    for metric, span in SPAN_METRICS.items():
        seconds = tracing.durations(spans, inside, span)
        if not seconds:
            continue
        if metric.endswith("mpix"):
            metrics[metric] = 1e3 * sum(seconds) / (len(seconds) * mpix_per_frame)
        else:
            ops = {spans[i][3] if spans[i][3] is not None else i
                   for i in inside if spans[i][0] == span}
            metrics[metric] = 1e3 * sum(seconds) / len(ops)
    adds = [i for i in inside if spans[i][0] == "archive.writer.add_stream"]
    if adds:
        own = tracing.self_time_by_name(spans, adds)
        metrics["archive.writer.add_stream.ms_per_frame"] = (
            1e3 * own["archive.writer.add_stream"] / len(adds)
        )
    decodes = [i for i in inside if spans[i][0] == "archive.reader.decode"]
    if decodes:
        own = tracing.self_time_by_name(spans, decodes)
        metrics["coding.entropy_decode.share_of_decode"] = (
            own.get("coding.entropy_decode", 0.0) / sum(own.values())
        )
    reader_decodes = tracing.durations(spans, inside, "sharding.decode")
    metrics["server.reader.decode.ms_p50"] = percentile_ms(reader_decodes, 50)
    metrics.update(extra)
    return metrics


def coverage_errors(name: str, spans, start: float, end: float) -> List[str]:
    """The traced run's self-check: coverage and layer separation."""
    counts: Dict[str, int] = {}
    for i in tracing.window(spans, start, end):
        counts[spans[i][0]] = counts.get(spans[i][0], 0) + 1
    errors = [f"span {span} recorded no calls" for span in REQUIRED_SPANS[name]
              if not counts.get(span)]
    errors += [f"span {span} recorded {counts[span]} calls, expected none"
               for span in FORBIDDEN_SPANS.get(name, ()) if counts.get(span)]
    if name == "retrieve":
        decodes = [i for i in tracing.window(spans, start, end)
                   if spans[i][0] == "archive.reader.decode"]
        own = tracing.self_time_by_name(spans, decodes)
        if own and max(own, key=own.get) != "coding.entropy_decode":
            errors.append(f"largest self time of full decodes is {max(own, key=own.get)}")
    return errors


def serve_layers(workload, spans, before: Dict, after: Dict) -> Dict[str, float]:
    """Server-side metrics: /stats deltas plus request ↔ span pairing."""
    metrics: Dict[str, float] = {}
    for kind in ("full", "preview"):
        old = before["cache"]["kinds"].get(kind, {"hits": 0, "misses": 0})
        new = after["cache"]["kinds"][kind]
        hits, misses = new["hits"] - old["hits"], new["misses"] - old["misses"]
        metrics[f"server.cache.hit_ratio.{kind}"] = hits / max(hits + misses, 1)
    metrics["server.queue.peak_depth"] = max(after["queues"]["peak_depths"])
    roots = [i for i, span in enumerate(spans)
             if span[0].startswith("server.get_") and span[2] is not None]
    reader_of = {spans[i][4]: i for i, span in enumerate(spans)
                 if span[0].startswith("sharding.") and span[2] is not None}
    overhead, handoff = [], []
    cursor = 0
    for start, end in workload.requests:
        while cursor < len(roots) and spans[roots[cursor]][1] < start:
            cursor += 1
        if cursor == len(roots) or spans[roots[cursor]][2] > end:
            continue
        root = roots[cursor]
        root_seconds = spans[root][2] - spans[root][1]
        overhead.append((end - start) - root_seconds)
        if root in reader_of:
            reader = spans[reader_of[root]]
            handoff.append(root_seconds - (reader[2] - reader[1]))
    metrics["server.http.overhead_ms_p50"] = percentile_ms(overhead, 50)
    metrics["server.handoff_ms_p50"] = percentile_ms(handoff, 50)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    tracer = tracing.Tracer()
    trace_out = workdir / "server-spans.json"
    if args.trace and args.workload != "serve":
        tracer.install()
    cls = workloads.WORKLOADS[args.workload]
    try:
        if args.workload == "serve":
            workload = cls(args.seed, workdir, args.smoke, trace_out if args.trace else None)
        else:
            workload = cls(args.seed, workdir, args.smoke)
        try:
            print("PERFBENCH-READY", flush=True)
            if args.setup_only:
                return 0
            result = measure(workload, args, tracer)
        finally:
            workload.close()
        stats = result.pop("stats", None)
        if stats and args.trace:
            finish_serve_trace(workload, result, trace_out, stats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("PERFBENCH-RESULT " + json.dumps(result), flush=True)
    return 0


def measure(workload, args, tracer) -> Dict:
    serve = args.workload == "serve"
    stats_before = workload.stats() if serve else None
    cpu_before = workload.cpu_seconds()
    rounds = []
    start = clock()
    while not rounds or clock() - start < args.seconds:
        rounds.append(workload.round())
    end = clock()
    cpu_after = workload.cpu_seconds()
    cpu = (cpu_after - cpu_before) if serve else sum(r.cpu for r in rounds)
    ops = sum(len(r.latencies) for r in rounds)
    result = {
        "attempted": ops,
        "failed": ops - sum(r.ok for r in rounds),
        "metrics": end_to_end(workload, rounds, cpu),
        "samples": ops,
        "window": [start, end],
        "errors": [],
    }
    if serve:
        result["stats"] = [stats_before, workload.stats()]
    elif args.trace:
        layers = layer_metrics(workload, tracer.spans, start, end, workload.counters())
        result["layers"] = layers
        result["errors"] += coverage_errors(args.workload, tracer.spans, start, end)
    return result


def finish_serve_trace(workload, result: Dict, trace_out: Path, stats) -> None:
    """After the server child exits: read its spans and counters."""
    with open(trace_out, encoding="utf-8") as fh:
        dump = json.load(fh)
    spans = dump["spans"]
    start, end = result["window"]
    before, after = stats
    extra = serve_layers(workload, spans, before, after)
    extra["coding.resource_cache.misses"] = dump["resource_cache"]["misses"]
    layers = layer_metrics(workload, spans, start, end, extra)
    result["layers"] = layers
    result["errors"] += coverage_errors("serve", spans, start, end)


if __name__ == "__main__":
    sys.exit(main())

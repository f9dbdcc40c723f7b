#!/usr/bin/env python3
"""Run one benchmark measurement and print its result as JSON.

From the repository root::

    python3 perfbench/run.py --workload slide_files --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (tracing off); ``--trace 1``
runs the separate traced replay, writes its span ledger as JSONL under
``.repro-data/perfbench/traces/`` (render it with
``PYTHONPATH=src python -m repro trace show FILE``) and reports the
per-layer metrics.  The metric names and units come from
``BENCHMARK.json``; the last stdout line is the result object.  Without
the program's sources next to it the script exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / ".repro-data" / "perfbench"

#: Child processes timed for ``setup_s`` per run (the median is reported).
SETUP_PROBES = 8
#: Fewest untraced/traced replay pairs per traced run; more run while
#: the run's ``--seconds`` last.
REPLAYS = 3
#: Front-door spans whose self time is ``session.self_s``.
FRONT_DOORS = ("session.compare_files", "session.compare_sets", "service.submit")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(section: str) -> dict[str, str]:
    """``name -> unit`` of one metric list of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in spec()[section]}


def result_object(
    metrics: dict[str, float],
    units: dict[str, str],
    attempted: int,
    failed: int,
    valid: bool = True,
) -> dict:
    """The result line; refuses a metric set that differs from the spec.

    An invalid run (see :func:`perfbench.host.worker_check`) is not
    correct, whatever its answers.
    """
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    return {
        "correct": failed == 0 and valid,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }


def _workload(name: str, seed: int):
    from perfbench.inputs import ensure_slide
    from perfbench.workloads import WORKLOADS

    slide = ensure_slide(DATA, name, seed)
    return WORKLOADS[name](slide, seed), slide


# ----------------------------------------------------------------------
# setup_s: process start to ready, in fresh processes
# ----------------------------------------------------------------------
def probe(name: str, seed: int) -> None:
    """Child side: build and warm the program, announce readiness."""
    workload, _ = _workload(name, seed)
    t0 = time.perf_counter()
    workload.load()
    load_s = time.perf_counter() - t0
    workload.open()
    try:
        workload.warm_up()
        print(json.dumps({"load_s": load_s}), flush=True)
    finally:
        workload.close()


def setup_samples(name: str, seed: int, count: int) -> list[float]:
    """Seconds from spawning a process to its warm-up answer, input
    loading excluded (the child reports how long loading took)."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--role", "probe"]
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        samples.append(ready - start - json.loads(line)["load_s"])
    return samples


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def end_to_end(workload, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics of one timed loop, tracing off (no ``setup_s``)."""
    from perfbench.host import PeakSampler
    from perfbench.stats import median, percentile, reportable_percentile

    with PeakSampler() as rss:
        t = workload.timed(seconds)
    lat = t.latencies
    tail = reportable_percentile(len(lat))
    info = {
        "samples": len(lat),
        "tail": f"p{tail:g}={percentile(lat, tail) * 1e3:.3f}ms" if tail else None,
        "error_ratio": t.failed / t.attempted,
        "rss_windows": len(rss.peaks),
    }
    if t.lateness:
        info["loadgen_late_p99_ms"] = percentile(t.lateness, 99.0) * 1e3
    print(f"perfbench: timed {json.dumps(info)}")
    metrics = {
        "peak_rss_mb": median(rss.peaks),
        "polygons_per_s": t.polygons_per_s,
        "pairs_per_s": t.pairs_per_s,
        "latency_p50_ms": median(lat) * 1e3,
        "requests_per_s": t.requests_per_s,
    }
    return metrics, t.attempted, t.failed


def traced(workload, seconds: float, seed: int) -> tuple[dict, int, int]:
    """Per-layer metrics: medians over replays that fill ``seconds``."""
    from perfbench.ledger import Ledger, NullLedger, write_jsonl
    from perfbench.stats import median

    deadline = time.perf_counter() + seconds
    metrics: dict[str, float] = {}
    attempted = failed = 0
    service: dict[str, float] = {}
    if hasattr(workload, "service_layers"):
        service, attempted, failed = workload.service_layers(seconds)

    # Untraced and traced replays alternate, so both see the same host.
    plain, spanned, per_replay = [], [], []
    while len(spanned) < REPLAYS or time.perf_counter() < deadline:
        for walls, ledger in ((plain, NullLedger()), (spanned, Ledger())):
            t0 = time.perf_counter()
            rep = workload.replay(ledger)
            walls.append(time.perf_counter() - t0)
            attempted += rep.checked
            failed += rep.failed
        per_replay.append(replay_layers(ledger.records(), rep))
    path = write_jsonl(
        ledger.records(), DATA / "traces" / f"{workload.name}-seed{seed}.jsonl"
    )
    print(f"perfbench: span ledger {path.relative_to(ROOT)}, last of "
          f"{len(spanned)} traced replays (render: PYTHONPATH=src python -m "
          f"repro trace show {path.relative_to(ROOT)})")

    for name in per_replay[0]:
        metrics[name] = median([layers[name] for layers in per_replay])
    metrics["trace.overhead_ratio"] = median(spanned) / median(plain) - 1.0
    # The service's launch counters come from its open loop, where the
    # dispatcher coalesces; the replay sends one request at a time.
    metrics.update(service)
    for name in declared("per_layer"):
        metrics.setdefault(name, 0.0)  # a layer this workload never reaches
    return metrics, attempted, failed


def replay_layers(records, rep) -> dict[str, float]:
    """Per-layer figures of one traced replay (its spans and counters)."""
    from perfbench.ledger import coverage, layer_seconds
    from perfbench.stats import ratio

    total = layer_seconds(records)
    own = layer_seconds(records, own=True)
    root = next(r for r in records if r.parent_id is None)
    parse_s = total.get("io.parse", 0.0)
    return {
        "io.parse_s": parse_s,
        "io.parse_mb_per_s": ratio(rep.parse_bytes / 1e6, parse_s),
        "io.polygons": rep.polygons,
        "index.build_s": total.get("index.build", 0.0),
        "index.filter_s": total.get("index.filter", 0.0),
        "index.join_s": total.get("index.join", 0.0),
        "index.candidate_pairs": rep.candidate_pairs,
        "index.useful_ratio": ratio(rep.intersecting_pairs, rep.candidate_pairs),
        **rep.backend.layers(),
        "pixelbox.route_s": total.get("pixelbox.route", 0.0),
        "pixelbox.edge_table_s": total.get("pixelbox.edge_table", 0.0),
        "metrics.jaccard_s": total.get("metrics.jaccard", 0.0),
        "session.self_s": sum(own.get(name, 0.0) for name in FRONT_DOORS),
        "trace.coverage": coverage(records, root),
        **pipeline_layers(rep.outcome),
    }


def pipeline_layers(outcome) -> dict[str, float]:
    """Stage accounting of one ``run_pipelined`` outcome."""
    from perfbench.stats import ratio

    if outcome is None:
        return {}
    busy = {
        stage: getattr(outcome.timers, stage)
        for stage in ("parser", "builder", "filter", "aggregator")
    }
    wall = outcome.wall_seconds
    return {
        "pipeline.wall_s": wall,
        **{f"pipeline.{stage}_busy_s": s for stage, s in busy.items()},
        "pipeline.lock_wait_s": sum(d[2] for d in outcome.device_stats),
        "pipeline.launches": sum(d[3] for d in outcome.device_stats),
        "pipeline.overlap_ratio": ratio(sum(busy.values()), wall),
        "pipeline.bottleneck_share": ratio(max(busy.values()), wall),
    }


def measure(args) -> dict:
    import numpy as np

    from perfbench import host
    from perfbench.stats import median

    workload, slide = _workload(args.workload, args.seed)
    fingerprint = host.fingerprint()
    print(f"perfbench: slide generate_s={slide.generate_s:.3f} cached={slide.cached}")
    # Half the set-up probes run before the timed loop and half after it,
    # so the reported median spans the host's state over the whole run.
    before = SETUP_PROBES // 2
    setup = [] if args.trace else setup_samples(args.workload, args.seed, before)

    workload.load()
    checked, wrong = workload.reference(np.random.default_rng([args.seed, 11]))
    workload.open()
    try:
        workload.warm_up()
        # The program's pool is up now; count it against the cores.
        fingerprint.update(host.worker_check(fingerprint["nproc"]))
        if args.trace:
            metrics, attempted, failed = traced(workload, args.seconds, args.seed)
        else:
            metrics, attempted, failed = end_to_end(workload, args.seconds)
    finally:
        workload.close()
    if not args.trace:
        setup += setup_samples(args.workload, args.seed, SETUP_PROBES - before)
        print(f"perfbench: setup_samples_s {json.dumps(setup)}")
        metrics["setup_s"] = median(setup)
    fingerprint["loadavg_after"] = list(os.getloadavg())
    print(f"perfbench: host {json.dumps(fingerprint)}")
    if not fingerprint["valid"]:
        print("perfbench: INVALID run: program worker processes exceed nproc",
              file=sys.stderr)
    attempted += checked
    failed += wrong
    if args.trace:
        metrics["error_ratio"] = failed / attempted
    units = declared("per_layer" if args.trace else "end_to_end")
    return result_object(metrics, units, attempted, failed, fingerprint["valid"])


def _stop_resource_tracker() -> None:
    """Stop and reap the multiprocessing resource tracker, if started.

    Process pools and shared memory start it as a child process that
    would otherwise outlive this one; the stdlib offers only the private
    ``_stop`` (Python 3.11+) to end and wait for it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if callable(stop):
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = spec()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("measure", "probe"), default="measure",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Replace the script's own directory, so nothing in perfbench/ can
    # shadow a top-level module name.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    try:
        if args.role == "probe":
            probe(args.workload, args.seed)
            return 0
        result = measure(args)
    finally:
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

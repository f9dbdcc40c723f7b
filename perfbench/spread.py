#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload service_open_loop --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
quartile spread ``(Q3 - Q1) / median``, and flags a spread at or above a
third of the metric's bound in BENCHMARK.json (``setup_s`` is exempt
from the spread rule).  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT)]

from perfbench.stats import quartile_spread  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect ({result['failed']} failed)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
        ), flush=True)

    ok = True
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        spread = quartile_spread(vals)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  <-- above bound/3"
            ok = False
        med = statistics.median(vals)
        print(f"{name:28s} median={med:<12.5g} spread={spread:.4f}"
              f"{'' if bound is None else f' bound={bound}'}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

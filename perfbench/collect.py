#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarise how steady they are.

Run from the repository root:

    python3 perfbench/collect.py
    python3 perfbench/collect.py --traced --out perfbench/baseline.json

Each workload of BENCHMARK.json runs once per seed in ``SEEDS``, one
``run.py`` run at a time with the ``run_seconds`` from BENCHMARK.json.  For every end-to-end metric the summary gives the
median of the per-run values and their spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, which is what a metric's ``bound`` is compared against.
The unscaled times from each run's record are summarised beside them.
``--traced`` adds one traced run per workload, at the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one benchmark run and return its record from perfbench/out."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {"end_to_end": {}, "unscaled": {},
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "reference_median_s": statistics.median(r["reference_median_s"] for r in runs)}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name] for r in runs])
            entry["end_to_end"][name] = stats | {"bound": bound}
            print(f"{workload:13s} {name:12s} median {stats['median']:10.4f}  "
                  f"spread {stats['spread']:.3f}  bound {bound}", flush=True)
        for name in ("setup_s", "wall_s"):
            stats = spread([r[f"unscaled_{name}"] for r in runs])
            entry["unscaled"][name] = stats
            print(f"{workload:13s} {name:12s} median {stats['median']:10.4f}  "
                  f"spread {stats['spread']:.3f}  (unscaled)", flush=True)
        if args.traced:
            traced = run_once(workload, SEEDS[0], seconds, 1)
            entry["per_layer_seed"] = SEEDS[0]
            entry["per_layer"] = traced["metrics"]
            entry["trace_times"] = traced["trace_times"]
        summary["workloads"][workload] = entry
    summary["environment"] = runs[0]["environment"]
    summary["notes"] = runs[0]["notes"]

    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the expected outputs that benchmark runs are checked against.

Run from the repository root, at the commit whose outputs are taken as right:

    python3 perfbench/reference.py

For every workload and every seed in ``SEEDS`` it generates the full-size
input, computes each command's result through the library and writes them,
with the input's digest, to ``perfbench/reference.json``.  Runs at other
seeds fall back to recomputing their expected outputs in-process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

SEEDS = range(0, 64)


def commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main() -> int:
    workdir = BENCH / "out" / "reference-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    runs = {}
    try:
        for workload in wl.WORKLOADS.values():
            for seed in SEEDS:
                inputs = wl.write_input(workload, seed, workdir, smoke=False)
                runs[f"{workload.name}/{seed}"] = wl.reference_entry(workload, inputs)
                print(f"{workload.name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"commit": commit(), "runs": runs}
    wl.REFERENCE_FILE.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

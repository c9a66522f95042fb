"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run reports exactly the metrics BENCHMARK.json lists, with
their units, that no output check failed, that the output checks reject a
result off the committed reference, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_without_failures(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1  # fail_ratio 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert "fail_ratio" in proc.stdout


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_covers_every_workload():
    runs = wl.load_reference()
    for name in wl.WORKLOADS:
        assert {f"{name}/{seed}" for seed in range(1, 11)} <= runs.keys()


def test_checks_reject_outputs_off_the_reference(tmp_path):
    fit = wl.WORKLOADS["fit"].commands[0]
    want = wl.load_reference()["fit/1"]["wants"][0]
    rows = [{"team": t, "rating": r} for t, r in want["ratings"].items()]
    payload = {"converged": True, "nll": float(f"{want['nll']:.6g}"), "ratings": rows}
    assert wl.check(fit, payload, want, tmp_path) == []

    off_nll = payload | {"nll": want["nll"] * (1 + 1e-4)}
    assert wl.check(fit, off_nll, want, tmp_path)
    off_rating = payload | {"ratings": [rows[0] | {"rating": rows[0]["rating"] + 0.01}] + rows[1:]}
    assert wl.check(fit, off_rating, want, tmp_path)
    assert wl.check(fit, payload | {"converged": False}, want, tmp_path)

"""The README's examples and the experiment scripts, run as a reader runs them.

Each runs in a fresh interpreter (or shell) in a temporary directory, on
this checkout's sources, with every warning an error.
"""

import re
import subprocess
import sys
from pathlib import Path

from conftest import child_env, invoke, run_cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_blocks_run(tmp_path):
    # the Library example reads season.csv from the working directory
    simulated = invoke(["simulate", "--teams", "20", "--seed", "1",
                        "-o", str(tmp_path / "season.csv")])
    assert simulated.exit_code == 0, simulated.output
    blocks = re.findall(r"^```python\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    result = run_cli([], driver="\n".join(blocks), cwd=tmp_path)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""


def test_readme_quick_tour_runs(tmp_path):
    # the tour's first block, as typed: through a drawelo on PATH, in its own directory
    tour = README.split("\n## Quick tour\n", 1)[1]
    script = re.search(r"^```\n(.*?)^```$", tour, flags=re.MULTILINE | re.DOTALL)[1]
    shim = tmp_path / "bin" / "drawelo"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m drawelo "$@"\n')
    shim.chmod(0o755)
    work = tmp_path / "tour"
    work.mkdir()
    env = child_env()
    env["PATH"] = f"{shim.parent}:{env['PATH']}"
    result = subprocess.run(["bash", "-e", "-c", script], cwd=work, env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert {p.name for p in work.iterdir()} >= {"season.csv", "trajectory.csv"}


def test_synthetic_recovery_runs_without_numpy():
    # the study ranks and sums in plain Python
    script = ROOT / "scripts" / "synthetic_recovery.py"
    result = run_cli(
        ["--seeds", "2"],
        driver=f"import runpy\ntry:\n    runpy.run_path({str(script)!r}, run_name='__main__')\n"
               "finally:\n    print('numpy' in sys.modules, file=sys.stderr)",
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr.decode().splitlines() == ["False"]
    lines = result.stdout.decode().splitlines()
    assert lines[0].split() == ["seed", "rank_corr", "centered_rmse"]
    assert [line.split()[0] for line in lines[1:3]] == ["0", "1"]
    assert lines[3].startswith("mean rank correlation ")
    assert lines[4].startswith("equal-strength noise floor: ")

"""Every command's bytes on one seeded season, pinned.

Each case runs ``drawelo`` in a fresh interpreter, in a temporary directory
that holds only ``golden/season.csv`` (6 teams, 2 rounds, seed 1, with
odds), and passes relative paths.  Its stdout, stderr, exit status and
every file it writes must equal the bytes under ``golden/CASE/``.  After a
deliberate change of output, ``PYTHONPATH=src python tests/test_golden.py
[CASE ...]`` records them again from this checkout's sources.
"""

import shutil
import sys
from pathlib import Path

import pytest

from conftest import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SEASON = GOLDEN / "season.csv"
CASES = {
    "simulate": ["simulate", "--teams", "6", "--rounds", "2", "--seed", "1", "-o", "sim.csv"],
    "stats": ["stats", "season.csv"],
    "evaluate-baseline": ["evaluate", "season.csv", "--baseline"],
    "rate-trajectory": ["rate", "season.csv", "--trajectory", "trajectory.csv"],
    "sweep": ["sweep", "season.csv", "--kappa-grid", "0.4,1", "--eta-grid", "0,0.3",
              "--modes", "elo,elo-check"],
    "fit-davidson": ["fit", "season.csv", "--family", "davidson"],
    "fit-threshold": ["fit", "season.csv", "--family", "threshold", "--v0", "100"],
    "fit-max-iters": ["fit", "season.csv", "--max-iters", "2"],
}


def outputs(case: str, workdir: Path) -> dict[str, bytes]:
    """What ``case`` printed, its exit status and the files it wrote, by name."""
    shutil.copyfile(SEASON, workdir / SEASON.name)
    result = run_cli(CASES[case], cwd=workdir)
    written = {f"files/{p.name}": p.read_bytes()
               for p in sorted(workdir.iterdir()) if p.name != SEASON.name}
    return {"stdout": result.stdout, "stderr": result.stderr,
            "status": f"{result.returncode}\n".encode(), **written}


@pytest.mark.parametrize("case", CASES)
def test_command_bytes_match_the_golden_files(case, tmp_path):
    want = {str(p.relative_to(GOLDEN / case)): p.read_bytes()
            for p in sorted((GOLDEN / case).rglob("*")) if p.is_file()}
    got = outputs(case, tmp_path)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    import tempfile

    for case in (sys.argv[1:] or CASES):
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        with tempfile.TemporaryDirectory() as workdir:
            for name, data in outputs(case, Path(workdir)).items():
                (GOLDEN / case / name).parent.mkdir(parents=True, exist_ok=True)
                (GOLDEN / case / name).write_bytes(data)

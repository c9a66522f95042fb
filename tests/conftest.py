import contextlib
import datetime as dt
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import strategies as st

import oracles
from drawelo.data import GameRecord
from drawelo.engine import EngineConfig, UpdateMode
from drawelo.models import ModelParams
from drawelo.sim import generate_schedule

EPOCH = dt.date(2021, 8, 1)
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(env=None):
    """The environment of a child process: this checkout's sources first on
    PYTHONPATH, and every warning an error, as in the tests themselves."""
    env = {**os.environ, **(env or {}), "PYTHONWARNINGS": "error"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(args, env=None, driver="from drawelo.cli import main; main(sys.argv[1:])", cwd=None):
    """``drawelo`` ARGS in a fresh interpreter on this checkout's sources."""
    return subprocess.run([sys.executable, "-c", f"import sys; {driver}", *args],
                          env=child_env(env), cwd=cwd, capture_output=True, timeout=120)


@dataclass
class Invocation:
    """What one ``main(argv)`` call did: its exit code and what it wrote."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(argv):
    """``drawelo`` ARGV in this process, its output captured."""
    from drawelo.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    return Invocation(code, out.getvalue(), err.getvalue())


def game(home, away, outcome, day=0, odds=None):
    return GameRecord(
        date=EPOCH + dt.timedelta(days=day),
        home_id=home,
        away_id=away,
        outcome=outcome,
        odds=odds,
    )


def random_games(rng, players, n, allow_draws=True):
    """Arbitrary fixtures with uniform-ish outcomes, one per day."""
    outcomes = ("H", "D", "A") if allow_draws else ("H", "A")
    games = []
    for i in range(n):
        home, away = rng.choice(len(players), size=2, replace=False)
        games.append(
            game(players[home], players[away], outcomes[rng.integers(len(outcomes))], day=i)
        )
    return games


def epl_path(season: str) -> Path | None:
    """Locate a user-supplied EPL season file, e.g. '2017-2018'."""
    root = Path(os.environ.get("DRAWELO_EPL_DIR", Path(__file__).parent.parent / "data" / "epl"))
    path = root / f"{season}.csv"
    return path if path.exists() else None


@pytest.fixture
def two_player_record():
    """A beats B twice, B beats A once."""
    return [game("A", "B", "H", 0), game("A", "B", "H", 1), game("B", "A", "H", 2)]


# draw parameters, with the binary (0) and classic-Elo (2) special cases
KAPPAS = st.sampled_from([0.0, 2.0]) | st.floats(0.0, 5.0)


# The online engine's two paths: floats game by game (run_season, or a
# one-cell grid), or one vector step per run of games (run_online, or a
# grid of two or more cells)
BOTH_PATHS = pytest.mark.parametrize("vectorize", [False, True], ids=["floats", "vectors"])


@st.composite
def online_cases(draw, max_teams=8):
    """(EngineConfig, team names, games) for the online engine.

    Schedules are either random fixtures, where a team often plays in
    consecutive games, or a round-robin in circle-method order, whose runs
    of disjoint games are long.  Some teams may never play.
    """
    config = EngineConfig(
        model=ModelParams(
            sigma=draw(st.floats(100.0, 1500.0)),
            kappa=draw(KAPPAS),
            eta=draw(st.sampled_from([0.0]) | st.floats(0.0, 0.6)),
        ),
        k_tilde=draw(st.floats(0.0, 0.5)),
        mode=draw(st.sampled_from(list(UpdateMode))),
        check_kappa=draw(KAPPAS),
    )
    n = draw(st.integers(2, max_teams))
    teams = [f"T{i}" for i in range(n)]
    if draw(st.booleans()):
        pairs = generate_schedule(n)[: draw(st.integers(0, n * (n - 1)))]
    else:
        picks = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        pairs = [(h, (h + d) % n) for h, d in draw(st.lists(picks, max_size=60))]
    outcomes = draw(st.lists(st.sampled_from("HDA"), min_size=len(pairs), max_size=len(pairs)))
    games = [game(teams[h], teams[a], o, day=i) for i, ((h, a), o) in enumerate(zip(pairs, outcomes))]
    return config, teams, games


def check_report(mean_ls, interval_low, interval_high, scores, rtol=1e-12):
    """A second-half report against the oracle's per-game log scores.

    Log scores near 0 carry absolute, not relative, rounding, so errors are
    measured against max(1, |value|).
    """
    window = oracles.second_half(scores)
    expected = sum(window) / len(window)
    assert abs(mean_ls - expected) <= rtol * max(1.0, expected)
    assert any(
        abs(interval_low - low) <= rtol * max(1.0, abs(low))
        and abs(interval_high - high) <= rtol * max(1.0, abs(high))
        for low, high in oracles.near_min_intervals(window, rtol)
    )

import datetime as dt
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import oracles
from drawelo.data import GameRecord
from drawelo.engine import EngineConfig, UpdateMode
from drawelo.models import ModelParams
from drawelo.sim import generate_schedule

EPOCH = dt.date(2021, 8, 1)


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

"""Forecast scoring and empirical draw statistics.

The headline metric is the negative logarithmic score, -ln p(realized
outcome), averaged over the second half of a season so the warm-up phase of
the online algorithms is excluded.  Alongside the mean we report the
minimum-length interval containing at least 95% of the per-game scores.
Many configurations are scored at once on (cells, games) arrays; the
single-season functions are one-row cases of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import GameRecord
from .errors import ZeroProbabilityError
from .models import OutcomeProbs


@dataclass(frozen=True)
class EmpiricalStats:
    """Outcome frequencies of a game list and the draw parameter they imply."""

    p_home_bar: float
    p_away_bar: float
    p_draw_bar: float
    delta_bar: float
    kappa_bar: float
    n_games: int


@dataclass(frozen=True)
class EvalReport:
    """Mean log score over a window plus the 95% minimum-length interval."""

    mean_ls: float
    interval_low: float
    interval_high: float
    per_game_ls: list[float]
    window: tuple[int, int]  # half-open [start, end) into the scored list


# Column of each outcome in a forecast table, the OutcomeProbs field order.
_OUTCOME_COLUMN = {"H": 0, "A": 1, "D": 2}


def _zero_probability_message(outcome: str) -> str:
    return f"prediction assigns probability 0 to realized outcome {outcome!r}"


def log_score(prediction: OutcomeProbs, outcome: str) -> float:
    """-ln of the probability assigned to the realized outcome (lower is better)."""
    p = prediction.prob_of(outcome)
    if p <= 0.0:
        raise ZeroProbabilityError(_zero_probability_message(outcome))
    return -math.log(p)


def cell_log_scores(probs: np.ndarray, games: Sequence[GameRecord]) -> np.ndarray:
    """(cells, games) log scores of a (cells, games, 3) forecast table.

    Columns are (p_home, p_away, p_draw).  A zero probability scores inf;
    ``zero_probability`` names the game.
    """
    column = np.fromiter(
        (_OUTCOME_COLUMN[g.outcome] for g in games), dtype=np.intp, count=len(games)
    )
    realized = np.take_along_axis(probs, column[None, :, None], axis=-1)[..., 0]
    with np.errstate(divide="ignore"):
        return -np.log(realized)


def zero_probability(
    scores: np.ndarray, games: Sequence[GameRecord]
) -> ZeroProbabilityError | None:
    """The error naming the first game a row of log scores gave probability 0."""
    bad = np.flatnonzero(np.isposinf(scores))
    if not bad.size:
        return None
    i = int(bad[0])
    game = games[i]
    return ZeroProbabilityError(
        f"game {i} ({game.home_id} vs {game.away_id}, {game.date}): "
        f"{_zero_probability_message(game.outcome)}"
    )


def score_games(
    predictions: Sequence[OutcomeProbs], games: Sequence[GameRecord]
) -> list[float]:
    """Per-game log scores, with the offending game named on failure."""
    if len(predictions) != len(games):
        raise ValueError(
            f"{len(predictions)} predictions for {len(games)} games"
        )
    probs = np.array([(p.p_home, p.p_away, p.p_draw) for p in predictions], dtype=float)
    scores = cell_log_scores(probs.reshape(1, -1, 3), games)[0]
    error = zero_probability(scores, games)
    if error is not None:
        raise error
    return scores.tolist()


def second_half_window(n_total: int) -> tuple[int, int]:
    """Evaluation window: the last ceil(N/2) games, as [start, end)."""
    if n_total <= 0:
        raise ValueError("empty score list")
    return n_total - (n_total + 1) // 2, n_total


def mean_second_half_ls(per_game_ls: Sequence[float]) -> float:
    """Mean log score over the second half of the list."""
    start, end = second_half_window(len(per_game_ls))
    window = per_game_ls[start:end]
    return sum(window) / len(window)


def min_length_intervals(values: np.ndarray, level: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """``credibility_interval`` of each row of a (rows, n) array, n >= 1."""
    ordered = np.sort(values, axis=-1)
    n = ordered.shape[-1]
    k = math.ceil(level * n)
    widths = ordered[:, k - 1:] - ordered[:, : n - k + 1]
    first = np.argmin(widths, axis=-1)  # the first minimum has the smallest lower bound
    rows = np.arange(len(ordered))
    return ordered[rows, first], ordered[rows, first + k - 1]


def credibility_interval(values: Sequence[float], level: float = 0.95) -> tuple[float, float]:
    """Minimum-length interval covering at least ``level`` of the values.

    Scans windows of k = ceil(level*n) consecutive order statistics; ties in
    length are broken toward the smallest lower bound, so the result is
    deterministic.
    """
    if len(values) == 0:
        raise ValueError("empty value list")
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0, 1], got {level}")
    low, high = min_length_intervals(np.asarray(values, dtype=float).reshape(1, -1), level)
    return float(low[0]), float(high[0])


def _window_bounds(n_total: int, window: str) -> tuple[int, int]:
    if window == "second-half":
        return second_half_window(n_total)
    if window == "full":
        if n_total <= 0:
            raise ValueError("empty score list")
        return 0, n_total
    raise ValueError(f"window must be 'second-half' or 'full', got {window!r}")


def evaluate_cells(per_game_ls: np.ndarray, window: str = "second-half") -> list[EvalReport]:
    """``evaluate_scores`` of each row of a (cells, games) log-score array."""
    start, end = _window_bounds(per_game_ls.shape[-1], window)
    scored = per_game_ls[:, start:end]
    low, high = min_length_intervals(scored)
    return [
        EvalReport(mean_ls=m, interval_low=lo, interval_high=hi, per_game_ls=row,
                   window=(start, end))
        for m, lo, hi, row in zip(
            scored.mean(axis=-1).tolist(), low.tolist(), high.tolist(), scored.tolist()
        )
    ]


def evaluate_scores(per_game_ls: Sequence[float], window: str = "second-half") -> EvalReport:
    """Bundle mean and interval over the chosen window into a report."""
    return evaluate_cells(np.asarray(per_game_ls, dtype=float).reshape(1, -1), window)[0]


def empirical_stats(games: Sequence[GameRecord]) -> EmpiricalStats:
    """Outcome frequencies plus the draw parameter matching the draw rate."""
    if not games:
        raise ValueError("empty game list")
    n = len(games)
    n_home = sum(1 for g in games if g.outcome == "H")
    n_away = sum(1 for g in games if g.outcome == "A")
    n_draw = n - n_home - n_away
    p_home, p_away, p_draw = n_home / n, n_away / n, n_draw / n
    kappa_bar = math.inf if p_draw == 1.0 else 2.0 * p_draw / (1.0 - p_draw)
    return EmpiricalStats(
        p_home_bar=p_home,
        p_away_bar=p_away,
        p_draw_bar=p_draw,
        delta_bar=p_home - p_away,
        kappa_bar=kappa_bar,
        n_games=n,
    )


def implied_draw_freq(kappa: float) -> float:
    """Draw frequency a draw parameter assumes between equal-rated sides: k/(2+k).

    kappa = inf, the ``kappa_bar`` of an all-draw season, gives the limit 1.
    """
    if not kappa >= 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    return 1.0 if math.isinf(kappa) else kappa / (2.0 + kappa)

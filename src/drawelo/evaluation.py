"""Forecast scoring and empirical draw statistics.

The headline metric is the negative logarithmic score, -ln p(realized
outcome), averaged over the second half of a season so the warm-up phase of
the online algorithms is excluded.  Alongside the mean we report the
minimum-length interval containing at least 95% of the per-game scores.
One season's scores are plain Python lists; many configurations are scored
at once on (cells, games) numpy arrays, by the same rules: the interval is
the first shortest window of order statistics, a window whose ends are
equal (inf included) has length 0, and a mean is ``sum(row) / len(row)``.
numpy is imported only by the array functions.  ``evaluate_configs`` scores
the online forecasts of a list of configurations; it is the one place that
picks between the float and the vector online path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .data import GameRecord, odds_to_probs
from .errors import game_label, non_finite_difference, zero_probability
from .models import OUTCOME_COLUMN, OutcomeProbs

if TYPE_CHECKING:
    import numpy as np

    from .engine import EngineConfig


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


def log_score(prediction: OutcomeProbs, outcome: str) -> float:
    """-ln of the probability assigned to the realized outcome (lower is better)."""
    p = prediction.prob_of(outcome)
    if p <= 0.0:
        raise zero_probability(outcome)
    return -math.log(p)


def realized_probs(probs: np.ndarray, games: Sequence[GameRecord]) -> np.ndarray:
    """(cells, games) probability of each realized outcome in a (cells, games, 3) forecast table.

    Columns are (p_home, p_away, p_draw).
    """
    import numpy as np
    column = np.fromiter(
        (OUTCOME_COLUMN[g.outcome] for g in games), dtype=np.intp, count=len(games)
    )
    return np.take_along_axis(probs, column[None, :, None], axis=-1)[..., 0]


def cell_log_scores(realized: np.ndarray) -> np.ndarray:
    """Log scores of a (cells, games) array of realized probabilities; 0 scores inf.

    Positive probabilities go through ``math.log``, as in ``score_games``:
    numpy's vectorised log can differ from it in the last bit.
    """
    import numpy as np
    with np.errstate(divide="ignore"):
        logs = np.log(realized)
    positive = realized > 0.0
    logs[positive] = np.fromiter(map(math.log, realized[positive].tolist()), dtype=float)
    return np.negative(logs, out=logs)


def cell_error(
    diffs: np.ndarray, realized: np.ndarray, games: Sequence[GameRecord]
) -> ValueError | None:
    """A grid cell's error, as ``run_season`` then ``score_games`` raise it for its config alone.

    That is the first non-finite difference, else the first zero probability.
    """
    import numpy as np
    bad = np.flatnonzero(~np.isfinite(diffs))
    if bad.size:
        return non_finite_difference(float(diffs[bad[0]]), games, int(bad[0]))
    bad = np.flatnonzero(realized <= 0.0)
    return zero_probability(games[bad[0]].outcome, games, int(bad[0])) if bad.size else None


def score_games(
    predictions: Sequence[Sequence[float]], games: Sequence[GameRecord]
) -> list[float]:
    """Per-game log scores of (p_home, p_away, p_draw) rows such as ``OutcomeProbs``.

    Scored in plain Python; a zero probability raises, naming the first such game.
    """
    if len(predictions) != len(games):
        raise ValueError(
            f"{len(predictions)} predictions for {len(games)} games"
        )
    realized = [row[OUTCOME_COLUMN[g.outcome]] for row, g in zip(predictions, games)]
    try:
        return [-x for x in map(math.log, realized)]
    except ValueError:  # math.log of a probability <= 0
        first = next(i for i, p in enumerate(realized) if p <= 0.0)
        raise zero_probability(games[first].outcome, games, first) from None


def second_half_window(n_total: int) -> tuple[int, int]:
    """Evaluation window: the last ceil(N/2) games, as [start, end)."""
    if n_total <= 0:
        raise ValueError("empty score list")
    return n_total - (n_total + 1) // 2, n_total


def min_length_intervals(values: np.ndarray, level: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """``credibility_interval`` of each row of a (rows, n) array, n >= 1."""
    import numpy as np
    ordered = np.sort(values, axis=-1)
    n = ordered.shape[-1]
    k = math.ceil(level * n)
    low, high = ordered[:, : n - k + 1], ordered[:, k - 1:]
    with np.errstate(invalid="ignore"):  # inf - inf; such a window has length 0
        widths = np.where(high == low, 0.0, high - low)
    first = np.argmin(widths, axis=-1)  # the first minimum has the smallest lower bound
    rows = np.arange(len(ordered))
    return ordered[rows, first], ordered[rows, first + k - 1]


def credibility_interval(values: Sequence[float], level: float = 0.95) -> tuple[float, float]:
    """Minimum-length interval covering at least ``level`` of the values.

    Scans windows of k = ceil(level*n) consecutive order statistics; a
    window whose ends are equal, inf included, has length 0.  Ties in
    length are broken toward the smallest lower bound, so the result is
    deterministic.
    """
    if len(values) == 0:
        raise ValueError("empty value list")
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0, 1], got {level}")
    ordered = sorted(map(float, values))
    k = math.ceil(level * len(ordered))
    widths = [0.0 if high == low else high - low for low, high in zip(ordered, ordered[k - 1:])]
    first = widths.index(min(widths))  # as in min_length_intervals
    return ordered[first], ordered[first + k - 1]


def _window_bounds(n_total: int, window: str) -> tuple[int, int]:
    if window == "second-half":
        return second_half_window(n_total)
    if window == "full":  # no games raise as they do for the second half
        return 0, second_half_window(n_total)[1]
    raise ValueError(f"window must be 'second-half' or 'full', got {window!r}")


def evaluate_cells(scored: np.ndarray, window: tuple[int, int]) -> list[EvalReport]:
    """``evaluate_scores`` of each row of (cells, games) log scores, given over ``window`` only."""
    low, high = min_length_intervals(scored)
    return [
        EvalReport(mean_ls=sum(row) / len(row), interval_low=lo, interval_high=hi,
                   per_game_ls=row, window=window)
        for lo, hi, row in zip(low.tolist(), high.tolist(), scored.tolist())
    ]


def evaluate_scores(per_game_ls: Sequence[float], window: str = "second-half") -> EvalReport:
    """Bundle mean and interval over the chosen window into a report, in plain Python."""
    start, end = _window_bounds(len(per_game_ls), window)
    scored = list(map(float, per_game_ls[start:end]))
    low, high = credibility_interval(scored)
    return EvalReport(mean_ls=sum(scored) / len(scored), interval_low=low, interval_high=high,
                      per_game_ls=scored, window=(start, end))


def evaluate_configs(
    games: Sequence[GameRecord], configs: Sequence[EngineConfig], window: str = "second-half"
) -> list[EvalReport | ValueError]:
    """Each configuration's report on its online forecasts of ``games``, or its error.

    One configuration steps on plain floats (``run_season``) and is scored
    in plain Python, without numpy; two or more run in one pass of the
    vector kernel (``run_online``) and are scored on arrays.  A cell's error
    is a non-finite rating difference or a zero probability, each naming its
    game (``cell_error``), or no games to score; the other cells are still
    scored.
    """
    from .engine import compile_season, run_online, run_season
    if len(configs) == 1:
        try:
            result = run_season(games, configs[0])
            return [evaluate_scores(score_games(result.predictions, games), window)]
        except ValueError as exc:
            return [exc]
    if not configs:
        return []
    try:
        start, end = _window_bounds(len(games), window)
    except ValueError as exc:  # no games to score
        return [exc] * len(configs)
    run = run_online(compile_season(games), configs)
    # logs only inside the window; a zero probability anywhere is the cell's error
    realized = realized_probs(run.probs, games)
    reports = evaluate_cells(cell_log_scores(realized[:, start:end]), (start, end))
    return [cell_error(run.diffs[c], realized[c], games) or report
            for c, report in enumerate(reports)]


def baseline_report(games: Sequence[GameRecord], window: tuple[int, int]) -> EvalReport:
    """The bookmaker's report over ``window``, from each game's odds."""
    start, end = window
    missing = [i for i in range(start, end) if games[i].odds is None]
    if missing:
        raise ValueError(f"baseline requested but odds are missing on {len(missing)} game(s), "
                         f"first {game_label(games, missing[0])}")
    scores = [log_score(odds_to_probs(*g.odds), g.outcome) for g in games[start:end]]
    return evaluate_scores(scores, window="full")


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

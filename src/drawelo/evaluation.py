"""Forecast scoring and empirical draw statistics.

The headline metric is the negative logarithmic score, -ln p(realized
outcome), averaged over the second half of a season so the warm-up phase of
the online algorithms is excluded.  Alongside the mean we report the
minimum-length interval containing at least 95% of the per-game scores.
``EvalReport.per_game_ls`` holds the window's scores as an ``array("d")``,
8 bytes a game, on both paths; ``list()`` or ``numpy.frombuffer`` converts
it.  A grid cell is scored from its row of rating differences by
``cell_report``: numpy picks each game's realized probability and
subtracts, and the window's logs are ``math.log``'s, as ``score_games``
takes them, in one C-level ``map``.  Both find the interval by one scan:
the first shortest window of order statistics, where a window whose ends
are equal (inf included) has length 0; a grid cell only sorts its scores
with numpy.  numpy is imported only by the grid functions.
``evaluate_configs`` scores the online forecasts of a list of
configurations; it is the one place that picks between the float and the
vector online path, and the vector path runs one kernel row per distinct
update.  Only the float path names a fault; a grid cell at fault runs on it.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, Sequence

from .data import GameRecord, odds_to_probs
from .errors import game_label, zero_probability
from .models import HOME_SCORE, OUTCOME_COLUMN, Davidson, OutcomeProbs, Record

if TYPE_CHECKING:
    import numpy as np

    from .engine import EngineConfig


class EmpiricalStats(Record, frozen=True):
    """Outcome frequencies of a game list and the draw parameter they imply."""

    def __init__(self, p_home_bar: float, p_away_bar: float, p_draw_bar: float,
                 delta_bar: float, kappa_bar: float, n_games: int):
        self._set(p_home_bar, p_away_bar, p_draw_bar, delta_bar, kappa_bar, n_games)


class EvalReport(Record, frozen=True):
    """Mean log score over a window plus the 95% minimum-length interval.

    ``per_game_ls`` is an ``array("d")`` of the window's scores, and
    ``window`` the half-open [start, end) of the window in the scored list.
    """

    def __init__(self, mean_ls: float, interval_low: float, interval_high: float,
                 per_game_ls: array, window: tuple[int, int]):
        self._set(mean_ls, interval_low, interval_high, per_game_ls, window)


def log_score(prediction: OutcomeProbs, outcome: str) -> float:
    """-ln of the probability assigned to the realized outcome (lower is better)."""
    p = prediction.prob_of(outcome)
    if p <= 0.0:
        raise zero_probability(outcome)
    return 0.0 - math.log(p)  # +0.0, not -0.0, at p = 1


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
        return [0.0 - x for x in map(math.log, realized)]
    except ValueError:  # math.log of a probability <= 0
        first = next(i for i, p in enumerate(realized) if p <= 0.0)
        raise zero_probability(games[first].outcome, games, first) from None


def _shortest_window(ordered: Sequence[float]) -> tuple[float, float]:
    """Minimum-length interval covering at least 95% of ascending values, as floats.

    ``ordered`` is a non-empty list, numpy array or memoryview of one.
    Scans windows of k = ceil(0.95*n) consecutive order statistics; a
    window whose ends are equal, inf included, has length 0.  Ties in
    length are broken toward the smallest lower bound, so the result is
    deterministic.
    """
    k = math.ceil(0.95 * len(ordered))
    widths = [0.0 if high == low else high - low for low, high in zip(ordered, ordered[k - 1:])]
    first = widths.index(min(widths))
    return float(ordered[first]), float(ordered[first + k - 1])


def _window_bounds(n_total: int, window: str) -> tuple[int, int]:
    """The games scored, as [start, end): the last ceil(N/2) of N, or all of them."""
    if window not in ("second-half", "full"):
        raise ValueError(f"window must be 'second-half' or 'full', got {window!r}")
    if n_total <= 0:
        raise ValueError("empty score list")
    return (n_total - (n_total + 1) // 2 if window == "second-half" else 0), n_total


def evaluate_scores(per_game_ls: Sequence[float], window: str = "second-half") -> EvalReport:
    """Bundle mean and interval over the chosen window into a report, in plain Python."""
    start, end = _window_bounds(len(per_game_ls), window)
    scored = array("d", map(float, per_game_ls[start:end]))
    return _report(scored, sorted(scored), (start, end))


def _report(scored: array, ordered: Sequence[float], window: tuple[int, int]) -> EvalReport:
    """The report of the scores over ``window``, given them in ascending order too."""
    low, high = _shortest_window(ordered)
    return EvalReport(mean_ls=sum(scored) / len(scored), interval_low=low, interval_high=high,
                      per_game_ls=scored, window=window)


def cell_report(column: np.ndarray, diffs: np.ndarray, forecast: Davidson,
                window: tuple[int, int]) -> EvalReport | None:
    """A grid cell's report over ``window``, a [start, end), from its ``run_online`` differences.

    ``column`` holds each game's ``OUTCOME_COLUMN`` and ``forecast`` the
    cell's ``EngineConfig.forecast``; ``diffs`` may be strided, a column of
    a (games, configs) array.  The window's logs are ``math.log``'s, whose
    bits numpy's own ``log`` does not always give, and each score is the
    exact ``0.0 - log p`` of ``score_games``, so the report is the one
    ``evaluate_scores`` gives on that function's scores.  A cell at fault,
    with a non-finite difference or a realized outcome of probability 0,
    takes no log: None.
    """
    import numpy as np
    if not np.isfinite(diffs).all():
        return None
    with np.errstate(over="ignore"):  # v / sigma may overflow, to the limit floats give
        realized = np.choose(column, forecast.triple(diffs))
    if not (realized > 0.0).all():
        return None
    start, end = window
    # a memoryview hands out floats without a list of them or numpy scalars
    scores = np.fromiter(map(math.log, memoryview(realized[start:end])), float,
                         count=end - start)
    np.subtract(0.0, scores, out=scores)  # 0.0 - log p, as score_games
    return _report(array("d", scores.tobytes()), memoryview(np.sort(scores)), window)


def evaluate_configs(
    games: Sequence[GameRecord], configs: Sequence[EngineConfig], window: str = "second-half"
) -> list[EvalReport | ValueError]:
    """Each configuration's report on its online forecasts of ``games``, or its error.

    One configuration steps on plain floats (``run_season``) and is scored
    in plain Python, without numpy; two or more run in one pass of the
    vector kernel (``run_online``), and each cell is scored from its own
    differences (``cell_report``).  Configurations with the same
    ``update`` step alike, whatever they forecast with, so the kernel runs
    one row for each such group and every cell of the group reads that
    row; the cells' outcome column is read off the compiled season's home
    scores.  A cell at fault, and every cell if the window is bad or empty,
    is run alone on the float path, so its error is the one its
    configuration alone raises; the other cells are still scored.
    """
    from .engine import compile_season, run_online, run_season

    def alone(config: EngineConfig) -> EvalReport | ValueError:
        try:
            result = run_season(games, config)
            return evaluate_scores(score_games(result.predictions, games), window)
        except ValueError as exc:
            return exc

    try:
        bounds = _window_bounds(len(games), window)
    except ValueError:  # each configuration alone raises it, after any fault of its own
        bounds = None
    if bounds is None or len(configs) < 2:
        return [alone(c) for c in configs]
    import numpy as np
    groups = {c.update: c for c in configs}  # any configuration of a group steps as the group
    row = {update: i for i, update in enumerate(groups)}
    season = compile_season(games)
    run = run_online(season, list(groups.values()))
    finite = np.isfinite(run.ratings).all(axis=1)  # else one overflowed on its last game
    score = np.asarray(season.score)
    column = np.empty(len(score), dtype=np.intp)
    for outcome, home_score in HOME_SCORE.items():
        column[score == home_score] = OUTCOME_COLUMN[outcome]
    del season, score  # the cells read only the run and the column, so the rest is freed
    return [(finite[row[c.update]] and cell_report(column, run.diffs[row[c.update]], c.forecast,
                                                   bounds)) or alone(c) for c in configs]


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

"""Rating engines: online stochastic-gradient updates and batch ML fitting.

The online side covers three modes:

* ``elo``        -- classic update K*(s - F(v)) with the logistic expected
                    score; predictions come from the draw model this update
                    implicitly assumes.
* ``kappa-elo``  -- same update shape with the generalized expected score
                    f_kappa, so the draw frequency is adjustable.
* ``elo-check``  -- ratings driven by the classic update, predictions made
                    with a separate draw parameter (deliberate mismatch).

Every mode is one update curve and one forecast curve, ``EngineConfig``'s
``update`` and ``forecast``, each a ``ModelParams.curve``: the classic
update is the binary ``Davidson`` and its implicit draw model the
elo-implicit one.
A season is compiled once into index lists.  Each entry point has one
path: ``run_season``, the rating update, steps one configuration game by
game on floats without numpy; ``run_online`` advances a grid of them on
numpy arrays, one vector step per run of games in which no team appears
twice.  Both paths keep each game's difference, stepped by the update curve's
``Davidson.expected_score``, and a forecast is the forecast curve's
``triple`` of a difference.  Every player starts at rating 0.  ``predict``
forecasts a fixture from a ``RatingState``; ``run_season``'s forecasts are
built when read, and its trajectory is iterated, not indexed.

The batch side minimizes the negative log likelihood of a fixed game list
by damped Newton steps on game arrays, pinning each connected group's
rating sum to zero to remove the origin ambiguity.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import groupby, repeat
from typing import TYPE_CHECKING

from .data import GameRecord
from .errors import ConvergenceError, non_finite_difference, non_finite_rating, zero_probability
from .models import (
    HOME_SCORE,
    Davidson,
    ModelFamily,
    ModelParams,
    OutcomeProbs,
    Record,
    UpdateMode,
    apply_home_advantage,
    enum_field,
)

if TYPE_CHECKING:
    import numpy as np


class RatingState(Record):
    """Rating per player, as ``run_season`` leaves it; ``predict`` rates a missing player 0."""

    def __init__(self, ratings: dict[str, float] | None = None):
        self._set({} if ratings is None else ratings)


class EngineConfig(Record, frozen=True):
    """Online-update configuration.

    The step is specified as k_tilde with K = k_tilde * sigma, which makes
    the produced predictions independent of the scale.  k_tilde = 0 is
    allowed and freezes the ratings (useful as a degenerate baseline).
    ``mode`` may be its string value, and the model's family must be
    davidson.  Each check's message starts with the field's name.
    """

    def __init__(self, model: ModelParams = ModelParams(), k_tilde: float = 0.125,
                 mode: UpdateMode = UpdateMode.KAPPA_ELO, check_kappa: float = 1.0):
        if not (math.isfinite(k_tilde) and k_tilde >= 0):
            raise ValueError(f"k_tilde must be >= 0, got {k_tilde}")
        # the absolute step K; an infinite one gives inf * 0 = nan on a game scored as expected
        if not math.isfinite(k_tilde * model.sigma):
            raise ValueError(f"k_tilde * sigma must be finite, got {k_tilde} * {model.sigma}")
        mode = enum_field(UpdateMode, "mode", mode)
        # every mode steps and forecasts with a davidson curve (update, forecast)
        if model.family is not ModelFamily.DAVIDSON:
            raise ValueError(
                f"family must be davidson in the online engine, got {model.family.value}")
        if not (math.isfinite(check_kappa) and check_kappa >= 0):
            raise ValueError(f"check_kappa must be a finite real >= 0, got {check_kappa}")
        self._set(model, k_tilde, mode, check_kappa)

    @cached_property  # read on every predict call; the instance is frozen
    def update(self) -> tuple[float, float, Davidson]:
        """(shift, step, curve) of the update step * (s - curve.expected_score(v + shift)).

        kappa-elo steps with its model's curve; elo and elo-check with the
        logistic expected score, the model's binary ``Davidson``.
        """
        model = self.model
        shift, step = model.eta * model.sigma, self.k_tilde * model.sigma
        if self.mode is not UpdateMode.KAPPA_ELO:
            model = model.replace(family=ModelFamily.BINARY)
        return shift, step, model.curve

    @cached_property
    def forecast(self) -> Davidson:
        """The curve of every forecast.

        kappa-elo forecasts with its model's curve, elo with the draw model
        its update implies (the model's elo-implicit ``Davidson``), and
        elo-check with the model's curve at ``check_kappa``.
        """
        model = self.model
        if self.mode is UpdateMode.ELO:
            model = model.replace(family=ModelFamily.ELO_IMPLICIT)
        elif self.mode is UpdateMode.ELO_CHECK_KAPPA:
            model = model.replace(kappa=self.check_kappa)
        return model.curve


class Trajectory:
    """Rating snapshots after each game, rebuilt as they are iterated.

    Only the home side's rating change per game is stored (the away side
    moves by its negative), so memory grows with the games, not with games
    times players.  Iterating walks the season from the start and yields,
    after each game, a dict like a copy of ``RatingState.ratings``: the
    players given up front plus every team seen so far.  Snapshots are not
    indexed; ``list(trajectory)`` builds them all.
    """

    def __init__(self, season: CompiledSeason, deltas: list[float]):
        self.players = season.players
        self._season = season
        self._deltas = deltas

    def moves(self) -> Iterator[tuple[int, float, int, float]]:
        """Each game's home index and rating after it, then the away side's.

        Indices are positions in ``players``; every other player keeps the
        rating it had after the previous game.
        """
        ratings = [0.0] * len(self.players)
        season = self._season
        for h, a, d in zip(season.home, season.away, self._deltas):
            ratings[h] += d
            ratings[a] -= d
            yield h, ratings[h], a, ratings[a]

    def __len__(self) -> int:
        return len(self._deltas)

    def __iter__(self) -> Iterator[dict[str, float]]:
        ratings = [0.0] * len(self.players)
        known = self._season.given  # players are indexed by first appearance
        for h, home, a, away in self.moves():
            ratings[h] = home
            ratings[a] = away
            known = max(known, h + 1, a + 1)
            yield dict(zip(self.players[:known], ratings))


class Forecasts(Sequence):
    """Read-only forecasts, each built from its game's difference when read; equal to their list."""

    def __init__(self, diffs: list[float], curve: Davidson):
        self._diffs, self._curve = diffs, curve

    def __len__(self) -> int:
        return len(self._diffs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Forecasts(self._diffs[i], self._curve)
        return OutcomeProbs(*self._curve.triple(self._diffs[i]))

    def __iter__(self) -> Iterator[OutcomeProbs]:
        # OutcomeProbs(*triple) without a Python frame of its own
        return map(tuple.__new__, repeat(OutcomeProbs), map(self._curve.triple, self._diffs))

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, Forecasts) else other)


class SeasonResult(Record):
    """Output of a sequential season run.

    ``predictions[i]`` is the forecast made *before* game i was processed,
    computed when it is read (see ``Forecasts``).  Iterating ``trajectory``
    yields the ratings just after each game in turn, rebuilt lazily from
    one rating change per game (see ``Trajectory``).
    """

    def __init__(self, state: RatingState, predictions: Sequence[OutcomeProbs],
                 trajectory: Trajectory):
        self._set(state, predictions, trajectory)


def predict(state: RatingState, home: str, away: str, config: EngineConfig) -> OutcomeProbs:
    """Outcome probabilities for a fixture under the state's ratings; unseen players rate 0."""
    shift, _, _ = config.update
    ratings = state.ratings
    v = (ratings.get(home, 0.0) - ratings.get(away, 0.0)) + shift
    if not math.isfinite(v):
        raise non_finite_difference(v)
    return OutcomeProbs(*config.forecast.triple(v))


# ---------------------------------------------------------------------------
# Compiled seasons and the online kernel
# ---------------------------------------------------------------------------


class CompiledSeason(Record, frozen=True):
    """A game list as index lists, compiled once for any number of configurations.

    ``players`` is the rating index order: the players given up front, then
    teams by first appearance (home before away).  ``home`` and ``away``
    hold each game's rating indices and ``score`` its home score, in stdlib
    arrays; ``arrays()`` reads them as numpy arrays.  ``runs``, computed on
    first read, holds the first game of each maximal run of consecutive games
    in which no player appears twice, then the game count.  ``given``
    counts the players given up front.
    """

    def __init__(self, players: list[str], home: array, away: array, score: array, given: int):
        self._set(players, home, away, score, given)

    @cached_property
    def runs(self) -> list[int]:
        runs, in_run = [], set()
        for i, (h, a) in enumerate(zip(self.home, self.away)):
            if not runs or h in in_run or a in in_run:
                runs.append(i)
                in_run = set()
            in_run.update((h, a))
        runs.append(len(self.home))
        return runs

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``home``, ``away`` and ``score`` as numpy arrays, for the vector side."""
        import numpy as np
        return (np.asarray(self.home, dtype=np.intp), np.asarray(self.away, dtype=np.intp),
                np.asarray(self.score, dtype=float))


def compile_season(
    games: Sequence[GameRecord], players: Iterable[str] | None = None
) -> CompiledSeason:
    """Rating indices and home scores of a game list."""
    index: dict[str, int] = {}
    for player in players or ():
        index.setdefault(player, len(index))
    given = len(index)
    home, away = array("q"), array("q")
    for g in games:
        home.append(index.setdefault(g.home_id, len(index)))
        away.append(index.setdefault(g.away_id, len(index)))
    score = array("d", [HOME_SCORE[g.outcome] for g in games])
    return CompiledSeason(list(index), home, away, score, given)


class OnlineRun(Record, frozen=True):
    """``run_online`` output for C configurations, G games and T players, as numpy arrays.

    ``diffs`` (C, G) holds the shifted rating difference before each game
    and ``ratings`` (C, T) the final ratings.
    """

    def __init__(self, diffs: np.ndarray, ratings: np.ndarray):
        self._set(diffs, ratings)


def run_online(season: CompiledSeason, configs: Sequence[EngineConfig]) -> OnlineRun:
    """Every configuration's sequential ratings and differences in one pass, on numpy.

    Ratings are held as a (configs, players) array, and each run of
    disjoint games advances in one vector step for every configuration;
    that is exact, because no game of a run reads a rating another game of
    the same run writes.  Consecutive configurations whose update curves
    are one kind step as one table of shifts, steps and curve fields; every
    online mode steps on a ``Davidson``, so a grid is one table.  The
    update is ``run_season``'s, the curve's ``expected_score``, on arrays,
    so each cell's differences match a ``run_season`` of its configuration
    bit for bit, and a forecast is the forecast curve's ``triple`` of a
    difference, as ``Forecasts`` builds it.  A configuration whose ratings
    stop being finite is not raised here: its ``diffs`` row or its final
    ``ratings`` show it, and ``run_season`` of that configuration names the
    fault.
    """
    import numpy as np
    home_index, away_index, score = season.arrays()
    ratings = np.zeros((len(configs), len(season.players)))
    diffs = np.empty((len(configs), len(score)))
    runs, first = season.runs, 0
    for kind, group in groupby((c.update for c in configs), key=lambda update: type(update[2])):
        table = np.array([(shift, step, *curve) for shift, step, curve in group], dtype=float)
        shift, step, *fields = table.T[:, :, None]
        curve, rows = kind(*fields), slice(first, first + len(table))
        first = rows.stop
        with np.errstate(invalid="ignore", over="ignore"):
            for start, end in zip(runs[:-1], runs[1:]):
                home, away = home_index[start:end], away_index[start:end]
                v = (ratings[rows, home] - ratings[rows, away]) + shift
                delta = step * (score[start:end] - curve.expected_score(v))
                ratings[rows, home] += delta
                ratings[rows, away] -= delta
                diffs[rows, start:end] = v
    return OnlineRun(diffs, ratings)


def run_season(
    games: Sequence[GameRecord],
    config: EngineConfig,
    players: Iterable[str] | None = None,
) -> SeasonResult:
    """Process games in order, predicting each one before updating on it.

    One configuration steps game by game on plain floats and keeps each
    game's difference; ``Forecasts`` applies the forecast curve to it when
    read.  numpy is never imported.  The first non-finite difference raises, naming its
    game; so does a rating that no later difference reads, left non-finite by its player's
    last game (the first such game, its home side first).  This is the one code that names
    a configuration's fault, and ``evaluate_configs`` runs a grid cell at fault through it.
    """
    season = compile_season(games, players)
    shift, step, curve = config.update
    expected_score = curve.expected_score
    ratings = [0.0] * len(season.players)
    diffs, deltas = [], []
    for h, a, s in zip(season.home, season.away, season.score):
        v = (ratings[h] - ratings[a]) + shift
        if not math.isfinite(v):
            raise non_finite_difference(v, games, len(diffs))
        delta = step * (s - expected_score(v))
        ratings[h] += delta
        ratings[a] -= delta
        diffs.append(v)
        deltas.append(delta)
    if not all(map(math.isfinite, ratings)):
        last = {}
        for i, (h, a) in enumerate(zip(season.home, season.away)):
            last[h], last[a] = (i, 0), (i, 1)
        (i, _), p = min((last[p], p) for p, r in enumerate(ratings) if not math.isfinite(r))
        raise non_finite_rating(season.players[p], ratings[p], games, i)
    return SeasonResult(
        state=RatingState(ratings=dict(zip(season.players, ratings))),
        predictions=Forecasts(diffs, config.forecast),
        trajectory=Trajectory(season, deltas),
    )


# ---------------------------------------------------------------------------
# Batch maximum likelihood
# ---------------------------------------------------------------------------


def _game_terms(
    x: np.ndarray, home: np.ndarray, away: np.ndarray, score: np.ndarray, model: ModelParams,
    games: Sequence[GameRecord],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-game log P(observed outcome), slope and curvature; a game's fault raises."""
    import numpy as np
    v = apply_home_advantage(x[home] - x[away], model)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise non_finite_difference(float(v[bad[0]]), games, int(bad[0]))
    logp, slope, curvature = model.curve.logp(v, score)
    bad = np.flatnonzero(np.isneginf(logp))
    if bad.size:
        raise zero_probability(games[bad[0]].outcome, games, int(bad[0]))
    return logp, slope, curvature


def _theta_terms(theta: Mapping[str, float], games: Sequence[GameRecord], model: ModelParams):
    """Home and away indices into ``theta`` and the per-game terms at ``theta``."""
    import numpy as np
    season = compile_season(games, theta)
    if len(season.players) > len(theta):
        raise ValueError(f"theta has no rating for player {season.players[len(theta)]!r}")
    home, away, score = season.arrays()
    x = np.fromiter(theta.values(), dtype=float, count=len(theta))
    return home, away, _game_terms(x, home, away, score, model, games)


def nll(theta: Mapping[str, float], games: Sequence[GameRecord], model: ModelParams) -> float:
    """Negative log likelihood (natural log) of the games under ``model``."""
    _, _, (logp, _, _) = _theta_terms(theta, games, model)
    return float(-logp.sum())


def nll_gradient(
    theta: Mapping[str, float], games: Sequence[GameRecord], model: ModelParams
) -> dict[str, float]:
    """Gradient of ``nll``; only a game's two participants get contributions."""
    import numpy as np
    home, away, (_, slope, _) = _theta_terms(theta, games, model)
    n = len(theta)
    grad = np.bincount(away, slope, n) - np.bincount(home, slope, n)
    return dict(zip(theta, grad.tolist()))


class FitResult(Record):
    """``batch_ml_fit``'s ratings, its likelihood term and how its descent stopped.

    ``grad_max_norm`` and ``converged`` describe ``theta``, reached in ``iterations`` steps.
    """

    def __init__(self, theta: dict[str, float], nll: float, grad_max_norm: float,
                 iterations: int, stop_reason: str):
        self._set(theta, nll, grad_max_norm, iterations, stop_reason)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gradient"


def _closure(adjacency: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean adjacency matrix."""
    import numpy as np
    reach = adjacency | np.eye(len(adjacency), dtype=bool)
    while True:
        wider = (reach.astype(float) @ reach) > 0
        if (wider == reach).all():
            return reach
        reach = wider


def _check_separable(players: list[str], beats: np.ndarray, linked: np.ndarray):
    """Raise unless each group's loser-to-winner graph is strongly connected.

    That is exactly when the likelihood has a finite maximizer (Hunter 2004,
    Ann. Statist. 32:384; a draw links its players both ways).  Otherwise
    some player's chains of results stop short of their group, and the
    players those chains reach won every game against the rest of it.
    """
    import numpy as np
    reach = _closure(beats)
    short = np.flatnonzero((reach != linked).any(axis=1))
    if short.size:
        winners = [players[i] for i in np.flatnonzero(reach[short[0]])]
        who = "player" if len(winners) == 1 else "players"
        raise ConvergenceError(
            f"{who} {', '.join(map(repr, winners))} won every game against the rest "
            "of their connected group; the likelihood has no finite maximizer - "
            "enable ridge regularization"
        )


def check_fit_options(model: ModelParams, max_iters: int, tol: float, ridge: float):
    """Raise ValueError, starting with the argument's name, unless ``batch_ml_fit`` takes these."""
    try:
        operator.index(max_iters)
    except TypeError:
        raise ValueError(f"max_iters must be an integer, got {max_iters!r}") from None
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite real, got {tol}")
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be a finite real >= 0, got {ridge}")
    sp = model.sigma_prime  # the fit penalizes theta / sigma' by ridge * sigma'^2
    if ridge and not 0.0 < ridge * sp * sp < math.inf:  # else the ridge is lost or nan
        raise ValueError(f"ridge * sigma'^2 must be positive and finite, got {ridge} * {sp}^2")


def batch_ml_fit(
    games: Sequence[GameRecord],
    model: ModelParams,
    *,
    max_iters: int = 5000,
    tol: float = 1e-6,
    ridge: float = 0.0,
) -> FitResult:
    """Minimize the negative log likelihood (plus ridge * |theta|^2) by Newton's method.

    The games are compiled once into home/away index and score arrays.
    Each iteration builds the Hessian, the schedule Laplacian weighted by
    every game's curvature plus 2 * ridge * I, adds a rank-one term per
    connected group of players that pins the group's rating sum to zero,
    solves for the Newton step and halves it from the full step until the
    Armijo condition holds.  The objective is convex, so from the flat
    start this takes a handful of steps.  An outcome with probability 0 at
    the flat start raises first; then, with ridge = 0, the data are checked
    to have a finite maximizer, and with ridge > 0 the objective is strongly
    convex, so no step can run off to infinity.  On separable data a ridge
    near 0 stops where ``tol`` says, not at the penalized optimum: the
    likelihood's slope falls below tol/sigma' far short of it.

    Convergence means the objective's gradient at the returned ratings,
    projected onto the pinned plane, has max-norm (``grad_max_norm``) below
    tol/sigma'; ``nll`` is the likelihood's term alone.  Steps are taken in
    y = theta / sigma' under the model at unit sigma', so no curvature
    overflows or underflows at any scale.  ``iterations`` counts the steps
    accepted.  The fit stops with ``"max-iters"`` after max_iters of them,
    unless the last one met tol, or with ``"stalled"`` when the step is halved
    until it changes no rating and none was acceptable.  A singular Newton
    system raises ``ConvergenceError``.
    """
    import numpy as np
    check_fit_options(model, max_iters, tol, ridge)
    if not games:
        raise ValueError("cannot fit an empty game list")

    season = compile_season(games)
    players, n = season.players, len(season.players)
    home, away, score = season.arrays()

    # beats[i, j]: i lost to j or drew with j
    beats = np.zeros((n, n), dtype=bool)
    beats[away[score >= 0.5], home[score >= 0.5]] = True
    beats[home[score <= 0.5], away[score <= 0.5]] = True
    linked = _closure(beats | beats.T)  # same connected group of players
    # pin @ v replaces each entry of v by its group's mean
    pin = linked / linked.sum(axis=1, keepdims=True)
    pair_index = home * n + away
    sp = model.sigma_prime
    unit = model.replace(sigma=model.sigma / sp, v0=model.v0 / sp)  # sigma' = 1
    ridge = ridge * sp * sp  # the same penalty on y

    def objective(x: np.ndarray):
        logp, slope, curvature = _game_terms(x, home, away, score, unit, games)
        return float(ridge * (x @ x) - logp.sum()), slope, curvature

    x = np.zeros(n)
    # an outcome the model cannot produce is a fault no ridge mends, so it is named first
    current, slope, curvature = objective(x)
    if ridge == 0.0:
        _check_separable(players, beats, linked)

    for iterations in range(max_iters + 1):  # the steps accepted so far
        grad = np.bincount(away, slope, n) - np.bincount(home, slope, n) + 2.0 * ridge * x
        grad -= pin @ grad
        g_max = float(np.abs(grad).max())
        if g_max < tol or iterations == max_iters:
            break

        pair = np.bincount(pair_index, -curvature, n * n).reshape(n, n)
        pair += pair.T
        hess = np.diag(pair.sum(axis=1) + 2.0 * ridge) - pair
        hess += hess.diagonal().mean() * pin
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "the Newton system became singular - enable ridge regularization") from None
        decrease = 1e-4 * float(grad @ step)  # Armijo fraction of the predicted change
        alpha, trial = 1.0, x + step
        while not (trial == x).all():  # alpha reaches 0 if nothing else stops it
            trial_value, trial_slope, trial_curvature = objective(trial)
            if not math.isfinite(trial_value):
                raise ConvergenceError("objective became non-finite during descent")
            if trial_value <= current + alpha * decrease + 1e-12 * max(1.0, abs(current)):
                break
            alpha *= 0.5
            trial = x + alpha * step
        else:
            break  # stalled: no halving that still moves a rating is acceptable
        x, current, slope, curvature = trial, trial_value, trial_slope, trial_curvature

    return FitResult(
        theta=dict(zip(players, (sp * x).tolist())),
        nll=current - ridge * float(x @ x),
        grad_max_norm=g_max / sp,
        iterations=iterations,
        stop_reason=("gradient" if g_max < tol
                     else "max-iters" if iterations == max_iters else "stalled"),
    )

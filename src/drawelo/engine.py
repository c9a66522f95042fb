"""Rating engines: online stochastic-gradient updates and batch ML fitting.

The online side covers three modes:

* ``elo``        -- classic update K*(s - F(v)) with the logistic expected
                    score; predictions come from the draw model this update
                    implicitly assumes.
* ``kappa-elo``  -- same update shape with the generalized expected score
                    f_kappa, so the draw frequency is adjustable.
* ``elo-check``  -- ratings driven by the classic update, predictions made
                    with a separate draw parameter (deliberate mismatch).

The classic update's logistic expected score is f_kappa at kappa = 0, and
its implicit draw model is davidson at kappa = 2 and half the scale, so
every mode is one update kappa plus one davidson prediction (kappa, sigma);
``mode_parameters`` is the one place that maps a mode to them.
A season is compiled once into index lists.  Each entry point has one
path: ``run_season``, the rating update, steps one configuration game by
game on floats without numpy; ``run_online`` advances a grid of them on
numpy arrays, one vector step per run of games in which no team appears
twice.  Both paths call the one ``expected_score`` and ``davidson_triple``
of ``models``.  Every player starts at rating 0.  ``predict`` forecasts a
fixture from a ``RatingState``; ``run_season``'s trajectory is iterated,
not indexed.

The batch side minimizes the negative log likelihood of a fixed game list
by damped Newton steps on game arrays, pinning each connected group's
rating sum to zero to remove the origin ambiguity.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .data import GameRecord
from .errors import ConvergenceError, ZeroProbabilityError
from .models import (
    ModelFamily,
    ModelParams,
    OutcomeProbs,
    UpdateMode,
    apply_home_advantage,
    davidson_triple,
    enum_field,
    expected_score,
    non_finite_difference,
    outcome_logp,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass
class RatingState:
    """Rating per player, as ``run_season`` leaves it; ``predict`` rates a missing player 0."""

    ratings: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class EngineConfig:
    """Online-update configuration.

    The step is specified as k_tilde with K = k_tilde * sigma, which makes
    the produced predictions independent of the scale.  k_tilde = 0 is
    allowed and freezes the ratings (useful as a degenerate baseline).
    ``mode`` may be its string value, and the model's family must be
    davidson.  Each check's message starts with the field's name.
    """

    model: ModelParams = ModelParams()
    k_tilde: float = 0.125
    mode: UpdateMode = UpdateMode.KAPPA_ELO
    check_kappa: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.k_tilde) and self.k_tilde >= 0):
            raise ValueError(f"k_tilde must be >= 0, got {self.k_tilde}")
        # the absolute step K; an infinite one gives inf * 0 = nan on a game scored as expected
        if not math.isfinite(self.k_tilde * self.model.sigma):
            raise ValueError(
                f"k_tilde * sigma must be finite, got {self.k_tilde} * {self.model.sigma}")
        object.__setattr__(self, "mode", enum_field(UpdateMode, "mode", self.mode))
        # every mode steps and predicts with a davidson curve (mode_parameters)
        if self.model.family is not ModelFamily.DAVIDSON:
            raise ValueError(
                f"family must be davidson in the online engine, got {self.model.family.value}")
        if not (math.isfinite(self.check_kappa) and self.check_kappa >= 0):
            raise ValueError(f"check_kappa must be a finite real >= 0, got {self.check_kappa}")


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
        for (h, home, a, away), known in zip(self.moves(), self._season.known):
            ratings[h] = home
            ratings[a] = away
            yield dict(zip(self.players[:known], ratings))


@dataclass
class SeasonResult:
    """Output of a sequential season run.

    ``predictions[i]`` is the forecast made *before* game i was processed.
    Iterating ``trajectory`` yields the ratings just after each game in
    turn, rebuilt lazily from one rating change per game (see
    ``Trajectory``).
    """

    state: RatingState
    predictions: list[OutcomeProbs]
    trajectory: Trajectory


_HOME_SCORE = {"H": 1.0, "D": 0.5, "A": 0.0}


def score_of(outcome: str) -> float:
    """The home side's score for an outcome code: 'H' 1, 'D' 0.5, 'A' 0."""
    if outcome not in _HOME_SCORE:
        raise ValueError(f"unknown outcome {outcome!r}")
    return _HOME_SCORE[outcome]


def mode_parameters(config: EngineConfig) -> tuple[float, float, float, float, float]:
    """shift, step, update kappa, prediction sigma and prediction kappa of a mode.

    Every mode updates by step * (s - f_kappa(v + shift)) at the update
    kappa and predicts with davidson at the prediction (sigma, kappa).
    kappa-elo uses the model's kappa for both.  elo and elo-check update
    with the logistic expected score, f_0; elo predicts with the draw model
    that update implies, davidson at kappa = 2 and half the scale, and
    elo-check with check_kappa.
    """
    model = config.model
    sigma = model.sigma
    if config.mode is UpdateMode.KAPPA_ELO:
        update_kappa, predict_sigma, predict_kappa = model.kappa, sigma, model.kappa
    elif config.mode is UpdateMode.ELO:
        update_kappa, predict_sigma, predict_kappa = 0.0, 0.5 * sigma, 2.0
    else:
        update_kappa, predict_sigma, predict_kappa = 0.0, sigma, config.check_kappa
    return model.eta * sigma, config.k_tilde * sigma, update_kappa, predict_sigma, predict_kappa


def predict(state: RatingState, home: str, away: str, config: EngineConfig) -> OutcomeProbs:
    """Outcome probabilities for a fixture under the state's ratings; unseen players rate 0."""
    shift, _, _, sigma, kappa = mode_parameters(config)
    ratings = state.ratings
    v = (ratings.get(home, 0.0) - ratings.get(away, 0.0)) + shift
    if not math.isfinite(v):
        raise non_finite_difference(v)
    return OutcomeProbs(*davidson_triple(v, sigma, kappa))


# ---------------------------------------------------------------------------
# Compiled seasons and the online kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledSeason:
    """A game list as index lists, compiled once for any number of configurations.

    ``players`` is the rating index order: the players given up front, then
    teams by first appearance (home before away).  ``home`` and ``away``
    hold each game's rating indices and ``score`` its home score, in stdlib
    arrays; ``arrays()`` reads them as numpy arrays.  ``runs`` holds the first
    game of each maximal run of consecutive games in which no player
    appears twice, then the game count.  ``known[i]`` counts the players
    rated after game i.
    """

    players: list[str]
    home: array
    away: array
    score: array
    runs: list[int]
    known: list[int]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``home``, ``away`` and ``score`` as numpy arrays, for the vector side."""
        import numpy as np
        return (np.asarray(self.home, dtype=np.intp), np.asarray(self.away, dtype=np.intp),
                np.asarray(self.score, dtype=float))


def compile_season(
    games: Sequence[GameRecord], players: Iterable[str] | None = None
) -> CompiledSeason:
    """Rating indices, home scores and disjoint runs of a game list."""
    index: dict[str, int] = {}
    for player in players or ():
        index.setdefault(player, len(index))
    home, away = array("q"), array("q")
    runs: list[int] = []
    known: list[int] = []
    in_run: set[int] = set()
    for i, g in enumerate(games):
        h, a = index.setdefault(g.home_id, len(index)), index.setdefault(g.away_id, len(index))
        if not runs or h in in_run or a in in_run:
            runs.append(i)
            in_run = set()
        in_run.update((h, a))
        home.append(h)
        away.append(a)
        known.append(len(index))
    runs.append(len(games))
    score = array("d", [score_of(g.outcome) for g in games])
    return CompiledSeason(list(index), home, away, score, runs, known)


@dataclass(frozen=True)
class OnlineRun:
    """``run_online`` output for C configurations, G games and T players, as numpy arrays."""

    diffs: np.ndarray    # (C, G) shifted rating difference before each game
    probs: np.ndarray    # (C, G, 3) forecast (p_home, p_away, p_draw) before each game
    ratings: np.ndarray  # (C, T) final ratings

    def error(self, cell: int) -> ValueError | None:
        """The error a cell's first non-finite rating difference raises, if any."""
        import numpy as np
        diffs = self.diffs[cell]
        bad = diffs[~np.isfinite(diffs)]
        return non_finite_difference(float(bad[0])) if bad.size else None


def run_online(season: CompiledSeason, configs: Sequence[EngineConfig]) -> OnlineRun:
    """Every configuration's sequential ratings and forecasts in one pass, on numpy.

    Ratings are held as a (configs, players) array, and each run of
    disjoint games advances in one vector step for every configuration;
    that is exact, because no game of a run reads a rating another game of
    the same run writes.  Forecasts are computed from the differences after
    the pass.  The update and the forecast call ``run_season``'s own
    ``expected_score`` and ``davidson_triple`` on arrays, so each cell
    matches a ``run_season`` of its configuration bit for bit.  A
    configuration whose ratings stop being finite is not raised here:
    ``OnlineRun.error`` reports it.  Configurations with equal parameters
    (elo reads no kappa) are stepped once and share their rows.
    """
    import numpy as np
    # per distinct configuration: the mode's five parameters and the scale
    row_of: dict[tuple, int] = {}
    rows = [row_of.setdefault((*mode_parameters(c), c.model.sigma), len(row_of)) for c in configs]
    table = np.array(list(row_of), dtype=float).reshape(len(row_of), 6)
    shift, step, kappa, predict_sigma, predict_kappa, sigma = table.T[:, :, None]
    home_index, away_index, score = season.arrays()
    ratings = np.zeros((len(row_of), len(season.players)))
    diffs = np.empty((len(row_of), len(score)))
    runs = season.runs
    with np.errstate(invalid="ignore", over="ignore"):
        for start, end in zip(runs[:-1], runs[1:]):
            home, away = home_index[start:end], away_index[start:end]
            v = (ratings[:, home] - ratings[:, away]) + shift
            delta = step * (score[start:end] - expected_score(v, sigma, kappa))
            ratings[:, home] += delta
            ratings[:, away] -= delta
            diffs[:, start:end] = v
        probs = np.stack(davidson_triple(diffs, predict_sigma, predict_kappa), axis=-1)
    if len(row_of) < len(rows):  # one row per configuration again
        diffs, probs, ratings = diffs[rows], probs[rows], ratings[rows]
    return OnlineRun(diffs, probs, ratings)


def run_season(
    games: Sequence[GameRecord],
    config: EngineConfig,
    players: Iterable[str] | None = None,
) -> SeasonResult:
    """Process games in order, predicting each one before updating on it.

    One configuration steps game by game on plain floats and forecasts each
    game with ``davidson_triple`` on floats; numpy is never imported.  The
    first non-finite rating difference raises.
    """
    season = compile_season(games, players)
    shift, step, kappa, predict_sigma, predict_kappa = mode_parameters(config)
    sigma = config.model.sigma
    ratings = [0.0] * len(season.players)
    predictions, deltas = [], []
    for h, a, s in zip(season.home, season.away, season.score):
        v = (ratings[h] - ratings[a]) + shift
        if not math.isfinite(v):
            raise non_finite_difference(v)
        delta = step * (s - expected_score(v, sigma, kappa))
        ratings[h] += delta
        ratings[a] -= delta
        deltas.append(delta)
        predictions.append(OutcomeProbs(*davidson_triple(v, predict_sigma, predict_kappa)))
    return SeasonResult(
        state=RatingState(ratings=dict(zip(season.players, ratings))),
        predictions=predictions,
        trajectory=Trajectory(season, deltas),
    )


# ---------------------------------------------------------------------------
# Batch maximum likelihood
# ---------------------------------------------------------------------------


def _game_terms(
    x: np.ndarray, home: np.ndarray, away: np.ndarray, score: np.ndarray, model: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-game log P(observed outcome), slope and curvature at ratings x."""
    import numpy as np
    v = apply_home_advantage(x[home] - x[away], model)
    finite = np.isfinite(v)
    if not finite.all():
        raise non_finite_difference(v[~finite][0])
    return outcome_logp(v, score, model)


def _zero_probability(games: Sequence[GameRecord], logp: np.ndarray) -> ZeroProbabilityError:
    i = int(logp.argmin())  # the first game whose outcome has log-probability -inf
    g = games[i]
    return ZeroProbabilityError(
        f"game {i} ({g.home_id} vs {g.away_id}): model assigns "
        f"probability 0 to observed outcome {g.outcome!r}"
    )


def _theta_terms(theta: Mapping[str, float], games: Sequence[GameRecord], model: ModelParams):
    """Home and away indices into ``theta`` and the per-game terms at ``theta``."""
    import numpy as np
    season = compile_season(games, theta)
    if len(season.players) > len(theta):
        raise ValueError(f"theta has no rating for player {season.players[len(theta)]!r}")
    home, away, score = season.arrays()
    x = np.fromiter(theta.values(), dtype=float, count=len(theta))
    return home, away, _game_terms(x, home, away, score, model)


def nll(theta: Mapping[str, float], games: Sequence[GameRecord], model: ModelParams) -> float:
    """Negative log likelihood (natural log) of the games under ``model``."""
    _, _, (logp, _, _) = _theta_terms(theta, games, model)
    total = float(-logp.sum())
    if math.isinf(total):
        raise _zero_probability(games, logp)
    return total


def nll_gradient(
    theta: Mapping[str, float], games: Sequence[GameRecord], model: ModelParams
) -> dict[str, float]:
    """Gradient of ``nll``; only a game's two participants get contributions."""
    import numpy as np
    home, away, (logp, slope, _) = _theta_terms(theta, games, model)
    if np.isneginf(logp).any():
        raise _zero_probability(games, logp)
    n = len(theta)
    grad = np.bincount(away, slope, n) - np.bincount(home, slope, n)
    return dict(zip(theta, grad.tolist()))


@dataclass
class FitResult:
    theta: dict[str, float]
    nll: float
    grad_max_norm: float
    iterations: int
    converged: bool
    stop_reason: str


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


def check_fit_options(max_iters: int, tol: float, ridge: float):
    """Raise ValueError, starting with the argument's name, unless ``batch_ml_fit`` takes these."""
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite real, got {tol}")
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be a finite real >= 0, got {ridge}")


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

    Convergence means the gradient, projected onto the pinned plane, has
    max-norm below tol/sigma'.  The steps are taken in y = theta / sigma'
    under the model at unit sigma', so no curvature overflows or underflows
    at any scale.  ``iterations`` counts Newton steps taken.
    The fit stops unconverged with ``"max-iters"`` after max_iters steps,
    or with ``"stalled"`` when 60 halvings find no acceptable step.
    """
    import numpy as np
    check_fit_options(max_iters, tol, ridge)
    if not games:
        raise ValueError("cannot fit an empty game list")
    if model.family is ModelFamily.BINARY and any(g.outcome == "D" for g in games):
        raise ValueError(
            "binary family assigns probability 0 to draws; "
            "fit drawn games with a draw-capable family"
        )

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
    unit = replace(model, sigma=model.sigma / sp, v0=model.v0 / sp)  # sigma' = 1
    if ridge and not 0.0 < ridge * sp * sp < math.inf:  # else the ridge is lost or nan
        raise ValueError(f"ridge * sigma'^2 must be positive and finite, got {ridge} * {sp}^2")
    ridge = ridge * sp * sp  # the same penalty on y

    def objective(x: np.ndarray):
        logp, slope, curvature = _game_terms(x, home, away, score, unit)
        return float(ridge * (x @ x) - logp.sum()), logp, slope, curvature

    x = np.zeros(n)
    current, logp, slope, curvature = objective(x)
    # an outcome the model cannot produce is a fault no ridge mends, so it is named first
    if math.isinf(current):
        raise _zero_probability(games, logp)
    if ridge == 0.0:
        _check_separable(players, beats, linked)
    g_max = math.inf
    converged = False
    stop_reason = "max-iters"
    iterations = 0

    for iterations in range(1, max_iters + 1):
        grad = np.bincount(away, slope, n) - np.bincount(home, slope, n) + 2.0 * ridge * x
        grad -= pin @ grad
        g_max = float(np.abs(grad).max())
        if g_max < tol:
            converged = True
            stop_reason = "gradient"
            iterations -= 1
            break

        pair = np.bincount(pair_index, -curvature, n * n).reshape(n, n)
        pair += pair.T
        hess = np.diag(pair.sum(axis=1) + 2.0 * ridge) - pair
        hess += hess.diagonal().mean() * pin
        step = np.linalg.solve(hess, -grad)
        decrease = 1e-4 * float(grad @ step)  # Armijo fraction of the predicted change
        alpha = 1.0
        for _ in range(60):
            trial = x + alpha * step
            trial_value, logp, trial_slope, trial_curvature = objective(trial)
            if not math.isfinite(trial_value):
                raise ConvergenceError("objective became non-finite during descent")
            if trial_value <= current + alpha * decrease + 1e-12 * max(1.0, abs(current)):
                break
            alpha *= 0.5
        else:
            stop_reason = "stalled"
            break
        x, current, slope, curvature = trial, trial_value, trial_slope, trial_curvature

    return FitResult(
        theta=dict(zip(players, (sp * x).tolist())),
        nll=current,
        grad_max_norm=g_max / sp,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
    )

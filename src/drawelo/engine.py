"""Rating engines: online stochastic-gradient updates and batch ML fitting.

The online side covers three modes:

* ``elo``        -- classic update K*(s - F(v)) with the logistic expected
                    score; predictions come from the draw model this update
                    implicitly assumes.
* ``kappa-elo``  -- same update shape with the generalized expected score
                    f_kappa, so the draw frequency is adjustable.
* ``elo-check``  -- ratings driven by the classic update, predictions made
                    with a separate draw parameter (deliberate mismatch).

The batch side minimizes the negative log likelihood of a fixed game list
by damped Newton steps on game arrays, pinning each connected group's
rating sum to zero to remove the origin ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import GameRecord
from .errors import ConvergenceError, ZeroProbabilityError
from .models import (
    ModelFamily,
    ModelParams,
    OutcomeProbs,
    apply_home_advantage,
    f_kappa,
    logistic_cdf,
    outcome_logp,
    predict_probs,
)


class UpdateMode(str, Enum):
    ELO = "elo"
    KAPPA_ELO = "kappa-elo"
    ELO_CHECK_KAPPA = "elo-check"


@dataclass
class RatingState:
    """Rating level per player plus a processed-game counter."""

    ratings: dict[str, float] = field(default_factory=dict)
    games_processed: int = 0


@dataclass(frozen=True)
class EngineConfig:
    """Online-update configuration.

    The step is specified as k_tilde with K = k_tilde * sigma, which makes
    the produced predictions independent of the scale.  k_tilde = 0 is
    allowed and freezes the ratings (useful as a degenerate baseline).
    """

    model: ModelParams = ModelParams()
    k_tilde: float = 0.125
    mode: UpdateMode = UpdateMode.KAPPA_ELO
    check_kappa: float = 1.0
    initial_rating: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.k_tilde) and self.k_tilde >= 0):
            raise ValueError(f"k_tilde must be >= 0, got {self.k_tilde}")
        if not (math.isfinite(self.check_kappa) and self.check_kappa >= 0):
            raise ValueError(f"check_kappa must be a finite real >= 0, got {self.check_kappa}")


@dataclass
class SeasonResult:
    """Output of a sequential season run.

    ``predictions[i]`` is the forecast made *before* game i was processed;
    ``trajectory[i]`` is a snapshot of all ratings just after it.
    """

    state: RatingState
    predictions: list[OutcomeProbs]
    trajectory: list[dict[str, float]]


def score_of(outcome: str, side: str) -> float:
    """Numeric game score from one side's perspective: win 1, draw 0.5, loss 0."""
    if side not in ("home", "away"):
        raise ValueError(f"side must be 'home' or 'away', got {side!r}")
    if outcome == "D":
        return 0.5
    won = (outcome == "H") == (side == "home")
    return 1.0 if won else 0.0


def rating_difference(
    state: RatingState, home: str, away: str, initial_rating: float = 0.0
) -> float:
    """theta_home - theta_away, before any home-advantage shift."""
    ratings = state.ratings
    return ratings.get(home, initial_rating) - ratings.get(away, initial_rating)


def _expected_score(v: float, config: EngineConfig) -> float:
    if config.mode is UpdateMode.KAPPA_ELO:
        return f_kappa(v, config.model)
    # classic Elo: plain logistic expected score (the factor 2 of the
    # implicit draw model's gradient lives inside K)
    return logistic_cdf(v, config.model.sigma)


def sg_update(state: RatingState, game: GameRecord, config: EngineConfig) -> RatingState:
    """One stochastic-gradient rating update; mutates and returns ``state``.

    Unknown players are initialized on first sight.  The two deltas are the
    same number with opposite signs, so the rating sum is conserved exactly.
    """
    ratings = state.ratings
    for player in (game.home_id, game.away_id):
        ratings.setdefault(player, config.initial_rating)
    v = apply_home_advantage(
        ratings[game.home_id] - ratings[game.away_id], config.model
    )
    k = config.k_tilde * config.model.sigma
    delta = k * (score_of(game.outcome, "home") - _expected_score(v, config))
    ratings[game.home_id] += delta
    ratings[game.away_id] -= delta
    state.games_processed += 1
    return state


def prediction_model(config: EngineConfig) -> ModelParams:
    """The probability model a given mode predicts with."""
    if config.mode is UpdateMode.KAPPA_ELO:
        return replace(config.model, family=ModelFamily.DAVIDSON)
    if config.mode is UpdateMode.ELO:
        return replace(config.model, family=ModelFamily.ELO_IMPLICIT)
    return replace(config.model, family=ModelFamily.DAVIDSON, kappa=config.check_kappa)


def predict(state: RatingState, home: str, away: str, config: EngineConfig) -> OutcomeProbs:
    """Outcome probabilities for a fixture under the current ratings."""
    v = rating_difference(state, home, away, config.initial_rating)
    return predict_probs(v, prediction_model(config))


def run_season(
    games: Sequence[GameRecord],
    config: EngineConfig,
    players: Iterable[str] | None = None,
) -> SeasonResult:
    """Process games in order, predicting each one before updating on it."""
    state = RatingState()
    for player in players or ():
        state.ratings.setdefault(player, config.initial_rating)
    predictions: list[OutcomeProbs] = []
    trajectory: list[dict[str, float]] = []
    for game in games:
        predictions.append(predict(state, game.home_id, game.away_id, config))
        sg_update(state, game, config)
        trajectory.append(dict(state.ratings))
    return SeasonResult(state=state, predictions=predictions, trajectory=trajectory)


# ---------------------------------------------------------------------------
# Batch maximum likelihood
# ---------------------------------------------------------------------------


def _compile_games(
    games: Sequence[GameRecord], index: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Home and away rating indices and the home score of every game."""
    n = len(games)
    home = np.fromiter((index[g.home_id] for g in games), dtype=np.intp, count=n)
    away = np.fromiter((index[g.away_id] for g in games), dtype=np.intp, count=n)
    score = np.fromiter((score_of(g.outcome, "home") for g in games), dtype=float, count=n)
    return home, away, score


def _game_terms(
    x: np.ndarray, home: np.ndarray, away: np.ndarray, score: np.ndarray, model: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-game log P(observed outcome), slope and curvature at ratings x."""
    v = apply_home_advantage(x[home] - x[away], model)
    finite = np.isfinite(v)
    if not finite.all():
        raise ValueError(f"rating difference must be finite, got {v[~finite][0]}")
    return outcome_logp(v, score, model)


def _zero_probability(games: Sequence[GameRecord], logp: np.ndarray) -> ZeroProbabilityError:
    i = int(np.argmin(logp))  # the first game whose outcome has log-probability -inf
    g = games[i]
    return ZeroProbabilityError(
        f"game {i} ({g.home_id} vs {g.away_id}): model assigns "
        f"probability 0 to observed outcome {g.outcome!r}"
    )


def _theta_terms(theta: Mapping[str, float], games: Sequence[GameRecord], model: ModelParams):
    """Home and away indices into ``theta`` and the per-game terms at ``theta``."""
    index = {p: i for i, p in enumerate(theta)}
    home, away, score = _compile_games(games, index)
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
    home, away, (logp, slope, _) = _theta_terms(theta, games, model)
    if np.isneginf(logp).any():
        i = int(np.argmin(logp))
        g = games[i]
        raise ZeroProbabilityError(
            f"game {i} ({g.home_id} vs {g.away_id}): {model.family.value} model "
            "assigns probability 0 to draws"
        )
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
    start this takes a handful of steps.  With ridge = 0 the data are first
    checked to have a finite maximizer.

    Convergence means the gradient, projected onto the pinned plane, has
    max-norm below tol/sigma'.  ``iterations`` counts Newton steps taken.
    The fit stops unconverged with ``"max-iters"`` after max_iters steps,
    or with ``"stalled"`` when 60 halvings find no acceptable step.
    """
    if not games:
        raise ValueError("cannot fit an empty game list")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    if model.family is ModelFamily.BINARY and any(g.outcome == "D" for g in games):
        raise ValueError(
            "binary family assigns probability 0 to draws; "
            "fit drawn games with a draw-capable family"
        )

    index: dict[str, int] = {}
    for g in games:
        for p in (g.home_id, g.away_id):
            index.setdefault(p, len(index))
    players = list(index)
    n = len(players)
    home, away, score = _compile_games(games, index)

    # beats[i, j]: i lost to j or drew with j
    beats = np.zeros((n, n), dtype=bool)
    beats[away[score >= 0.5], home[score >= 0.5]] = True
    beats[home[score <= 0.5], away[score <= 0.5]] = True
    linked = _closure(beats | beats.T)  # same connected group of players
    if ridge == 0.0:
        _check_separable(players, beats, linked)
    # pin @ v replaces each entry of v by its group's mean
    pin = linked / linked.sum(axis=1, keepdims=True)
    pair_index = home * n + away
    sp = model.sigma_prime

    def objective(x: np.ndarray):
        logp, slope, curvature = _game_terms(x, home, away, score, model)
        return float(ridge * (x @ x) - logp.sum()), logp, slope, curvature

    x = np.zeros(n)
    current, logp, slope, curvature = objective(x)
    if math.isinf(current):
        raise _zero_probability(games, logp)
    g_max = math.inf
    converged = False
    stop_reason = "max-iters"
    iterations = 0

    for iterations in range(1, max_iters + 1):
        grad = np.bincount(away, slope, n) - np.bincount(home, slope, n) + 2.0 * ridge * x
        grad -= pin @ grad
        g_max = float(np.abs(grad).max())
        if g_max < tol / sp:
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
        if np.abs(x).max() > 50.0 * model.sigma:
            raise ConvergenceError(
                "ratings diverging beyond 50 sigma; data may be separable - "
                "enable ridge regularization"
            )

    return FitResult(
        theta=dict(zip(players, x.tolist())),
        nll=current,
        grad_max_norm=g_max,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
    )

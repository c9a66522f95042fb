"""Independent reference computations the tests check the package against.

Everything here is deliberately naive (finite differences, exhaustive
scans, raw formula evaluation, per-game loops over the scalar probability
formulas) and shares no code with the implementations it verifies.
"""

import math

from drawelo.errors import ZeroProbabilityError
from drawelo.models import (
    ModelFamily,
    apply_home_advantage,
    f_kappa,
    logistic_cdf,
    predict_probs,
)


def nll(theta, games, model):
    """Negative log likelihood, one scalar probability triple per game."""
    total = 0.0
    for i, game in enumerate(games):
        v = theta[game.home_id] - theta[game.away_id]
        p = predict_probs(v, model).prob_of(game.outcome)
        if p <= 0.0:
            raise ZeroProbabilityError(
                f"game {i} ({game.home_id} vs {game.away_id}): model assigns "
                f"probability 0 to observed outcome {game.outcome!r}"
            )
        total -= math.log(p)
    return total


def dlogp_dv(v, outcome, model):
    """d log P(outcome | v) / dv for the shifted difference v, per family."""
    sp = model.sigma_prime
    s = {"H": 1.0, "D": 0.5, "A": 0.0}[outcome]
    if model.family is ModelFamily.DAVIDSON:
        return (s - f_kappa(v, model)) / sp
    if model.family is ModelFamily.ELO_IMPLICIT:
        return 2.0 * (s - logistic_cdf(v, model.sigma)) / sp
    if model.family is ModelFamily.BINARY:
        if outcome == "D":
            raise ZeroProbabilityError("binary model assigns probability 0 to draws")
        return (s - logistic_cdf(v, model.sigma)) / sp
    lo = logistic_cdf(v - model.v0, model.sigma)
    hi = logistic_cdf(v + model.v0, model.sigma)
    if outcome == "H":
        return (1.0 - lo) / sp
    if outcome == "A":
        return -hi / sp
    p_draw = hi - lo
    if p_draw <= 0.0:
        raise ZeroProbabilityError("threshold model assigns probability 0 to draws")
    return (hi * (1.0 - hi) - lo * (1.0 - lo)) / sp / p_draw


def nll_gradient(theta, games, model):
    """Gradient of ``nll``, accumulated game by game."""
    grad = {player: 0.0 for player in theta}
    for game in games:
        v = apply_home_advantage(theta[game.home_id] - theta[game.away_id], model)
        d = dlogp_dv(v, game.outcome, model)
        grad[game.home_id] -= d
        grad[game.away_id] += d
    return grad


def finite_diff_gradient(theta, games, model, step=None):
    """Central-difference gradient of the negative log likelihood."""
    h = step if step is not None else 1e-4 * model.sigma
    grad = {}
    for player in theta:
        up = dict(theta)
        down = dict(theta)
        up[player] += h
        down[player] -= h
        grad[player] = (nll(up, games, model) - nll(down, games, model)) / (2.0 * h)
    return grad


def brute_min_interval(values, level=0.95):
    """Scan every window of ceil(level*n) order statistics; smallest-low tie break."""
    ordered = sorted(values)
    n = len(ordered)
    k = math.ceil(level * n)
    candidates = [(ordered[i + k - 1] - ordered[i], ordered[i], ordered[i + k - 1])
                  for i in range(n - k + 1)]
    length = min(c[0] for c in candidates)
    for c in candidates:  # first hit has the smallest lower bound
        if c[0] == length:
            return (c[1], c[2])

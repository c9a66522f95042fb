"""Independent reference computations the tests check the package against.

Everything here is deliberately naive (finite differences, exhaustive
scans, raw formula evaluation, per-game loops over the scalar probability
formulas).  The probability formulas are the textbook forms, written out
here and shared with no implementation they verify.  ``nll`` and the
online loop's forecasts read the library's scalar ``predict_probs``, which
the model tests check against these forms, so what they verify is the
array and compiled paths against the scalar one.
"""

import csv
import datetime as dt
import io
import math
import re

import numpy as np

from drawelo.data import Dataset, GameRecord
from drawelo.engine import UpdateMode
from drawelo.errors import RowError, SchemaError, ZeroProbabilityError
from drawelo.models import (
    ModelFamily,
    apply_home_advantage,
    predict_probs,
)
from drawelo.sim import generate_schedule, sample_outcome


# ---------------------------------------------------------------------------
# Textbook probability formulas
# ---------------------------------------------------------------------------


def logistic(v, sigma):
    """The logistic cdf F(v) = 1 / (1 + 10^(-v/sigma))."""
    return 1.0 / (1.0 + 10.0 ** (-v / sigma))


def f_kappa(v, sigma, kappa):
    """Davidson's expected score (10^(v/2s) + k/2) / (10^(v/2s) + 10^(-v/2s) + k)."""
    up, down = 10.0 ** (v / (2.0 * sigma)), 10.0 ** (-v / (2.0 * sigma))
    return (up + kappa / 2.0) / (up + down + kappa)


def elo_implicit(v, sigma):
    """The classic Elo update's draw model (F(v)^2, F(-v)^2, 2 F(v) F(-v))."""
    win, loss = logistic(v, sigma), logistic(-v, sigma)
    return win * win, loss * loss, 2.0 * win * loss


def threshold(v, sigma, v0):
    """The draw-band model (F(v - v0), F(-v - v0), F(v + v0) - F(v - v0))."""
    return (logistic(v - v0, sigma), logistic(-v - v0, sigma),
            logistic(v + v0, sigma) - logistic(v - v0, sigma))


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


def log_logistic(x):
    """log F(x) = -log(1 + e^(-x)) in natural units, through log1p on either side of 0."""
    if x >= 0.0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def log_sum_exp(*xs):
    """log(sum e^x): the largest term plus log1p of the others relative to it."""
    rest = sorted(xs)
    top = rest.pop()
    return top + math.log1p(sum(math.exp(x - top) for x in rest))


def log_prob(v, outcome, model):
    """log P(outcome | v) per family from the textbook forms, in t = v / sigma'.

    Nothing is formed as a probability, so it stays finite far past where
    the probabilities underflow.
    """
    t, family = v / model.sigma_prime, model.family
    if family is ModelFamily.DAVIDSON:
        # e^(t/2), e^(-t/2) and kappa, each over their sum
        log_kappa = math.log(model.kappa) if model.kappa > 0 else -math.inf
        numerators = {"H": 0.5 * t, "A": -0.5 * t, "D": log_kappa}
        own = numerators[outcome]
        if own == -math.inf:
            return own
        # each term relative to the outcome's own, so no large t cancels
        return -log_sum_exp(*(x - own for x in numerators.values()))
    if family is ModelFamily.BINARY:
        return {"H": log_logistic(t), "A": log_logistic(-t), "D": -math.inf}[outcome]
    if family is ModelFamily.ELO_IMPLICIT:
        win, loss = log_logistic(t), log_logistic(-t)
        return {"H": 2.0 * win, "A": 2.0 * loss, "D": math.log(2.0) + win + loss}[outcome]
    w = model.v0 / model.sigma_prime
    if outcome == "H":
        return log_logistic(t - w)
    if outcome == "A":
        return log_logistic(-t - w)
    # F(t + w) - F(t - w) = (1 - e^(-2w)) F(t + w) F(w - t)
    band = -math.expm1(-2.0 * w)
    if band <= 0.0:
        return -math.inf
    return math.log(band) + log_logistic(t + w) + log_logistic(w - t)


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
        return (s - f_kappa(v, model.sigma, model.kappa)) / sp
    if model.family is ModelFamily.ELO_IMPLICIT:
        return 2.0 * (s - logistic(v, model.sigma)) / sp
    if model.family is ModelFamily.BINARY:
        if outcome == "D":
            raise ZeroProbabilityError("binary model assigns probability 0 to draws")
        return (s - logistic(v, model.sigma)) / sp
    lo = logistic(v - model.v0, model.sigma)
    hi = logistic(v + model.v0, model.sigma)
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


def brute_min_interval(values):
    """Scan every window of ceil(0.95*n) order statistics; smallest-low tie break.

    A window whose two ends are equal has length 0, also when both are inf.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = math.ceil(0.95 * n)
    candidates = []
    for i in range(n - k + 1):
        low, high = ordered[i], ordered[i + k - 1]
        candidates.append((0.0 if low == high else high - low, low, high))
    length = min(c[0] for c in candidates)
    for c in candidates:  # first hit has the smallest lower bound
        if c[0] == length:
            return (c[1], c[2])


# ---------------------------------------------------------------------------
# Recovery metrics: Spearman's rho and the centred RMSE from their formulas
# ---------------------------------------------------------------------------


def average_rank(value, values):
    """1 + #smaller + (#equal - 1) / 2: the mean of the ranks a group of ties spans."""
    smaller = sum(1 for x in values if x < value)
    equal = sum(1 for x in values if x == value)
    return 1 + smaller + (equal - 1) / 2


def pearson(a, b):
    """The textbook Pearson correlation of two lists; nan if either is constant."""
    mean_a, mean_b = sum(a) / len(a), sum(b) / len(b)
    da, db = [x - mean_a for x in a], [y - mean_b for y in b]
    saa, sbb = sum(x * x for x in da), sum(y * y for y in db)
    if saa == 0 or sbb == 0:
        return math.nan
    return sum(x * y for x, y in zip(da, db)) / math.sqrt(saa * sbb)


def recovery_metrics(theta_true, theta_est):
    """Spearman's rho of two equal-length lists and the RMSE of their centred difference."""
    n = len(theta_true)
    rho = pearson([average_rank(x, theta_true) for x in theta_true],
                  [average_rank(y, theta_est) for y in theta_est])
    mean_true, mean_est = sum(theta_true) / n, sum(theta_est) / n
    squares = [((y - mean_est) - (x - mean_true)) ** 2 for x, y in zip(theta_true, theta_est)]
    return {"rank_correlation": rho, "centered_rmse": math.sqrt(sum(squares) / n)}


# ---------------------------------------------------------------------------
# Online ratings: the per-game scalar loop the compiled kernel replaced
# ---------------------------------------------------------------------------


def _expected_score(v, config):
    if config.mode is UpdateMode.KAPPA_ELO:
        return f_kappa(v, config.model.sigma, config.model.kappa)
    # classic Elo: plain logistic expected score (the factor 2 of the
    # implicit draw model's gradient lives inside K)
    return logistic(v, config.model.sigma)


def _prediction_model(config):
    if config.mode is UpdateMode.KAPPA_ELO:
        return config.model.replace(family=ModelFamily.DAVIDSON)
    if config.mode is UpdateMode.ELO:
        return config.model.replace(family=ModelFamily.ELO_IMPLICIT)
    return config.model.replace(family=ModelFamily.DAVIDSON, kappa=config.check_kappa)


def run_season(games, config, players=None):
    """(final ratings, predictions, per-game snapshots), one game at a time."""
    ratings = {}
    for player in players or ():
        ratings.setdefault(player, 0.0)
    predictions, trajectory = [], []
    k = config.k_tilde * config.model.sigma
    for game in games:
        for player in (game.home_id, game.away_id):
            ratings.setdefault(player, 0.0)
        v = ratings[game.home_id] - ratings[game.away_id]
        predictions.append(predict_probs(v, _prediction_model(config)))
        s = {"H": 1.0, "D": 0.5, "A": 0.0}[game.outcome]
        delta = k * (s - _expected_score(apply_home_advantage(v, config.model), config))
        ratings[game.home_id] += delta
        ratings[game.away_id] -= delta
        trajectory.append(dict(ratings))
    return ratings, predictions, trajectory


def log_scores(predictions, games):
    """-ln p(realized outcome) per game; None when some game got probability 0."""
    probs = [pred.prob_of(game.outcome) for pred, game in zip(predictions, games)]
    if any(p <= 0.0 for p in probs):
        return None
    return [-math.log(p) for p in probs]


def second_half(values):
    """The last ceil(n/2) values."""
    return values[len(values) // 2:]


def near_min_intervals(values, rtol):
    """Every window of ceil(0.95*n) order statistics within rtol of the shortest.

    Scores computed another way may reorder windows whose lengths differ only
    by rounding, so a computed interval is checked against all of these.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = math.ceil(0.95 * n)
    windows = [(ordered[i], ordered[i + k - 1]) for i in range(n - k + 1)]
    shortest = min(high - low for low, high in windows)
    slack = rtol * max(1.0, max(abs(v) for v in ordered))
    return [(low, high) for low, high in windows if high - low <= shortest + slack]


def parse_date(text):
    """A day-first date by strptime, 4-digit year tried first; None if neither matches.

    Only ASCII text without surrounding spaces is a date: strptime's ``%d``
    would also take a leading space or a non-ASCII digit.
    """
    if not text.isascii() or text != text.strip():
        return None
    for fmt in ("%d/%m/%Y", "%d/%m/%y"):
        try:
            return dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


# float()'s grammar in ASCII, without the "_" that float() also takes between digits
_DECIMAL = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)",
                      re.IGNORECASE | re.ASCII)


def parse_matches(text):
    """A football-data CSV by csv.DictReader, one row at a time: (games, team names).

    Each row's Date, HomeTeam, AwayTeam, FTR and odds cells are stripped; a
    row with the four blank is skipped.  Odds count when all three columns
    exist and none of the row's three odds cells is blank.  A row at fault raises
    RowError naming its line.  Games are stably sorted by date, and teams
    listed by first appearance in that order, home before away.
    """
    reader = csv.DictReader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    if not {"Date", "HomeTeam", "AwayTeam", "FTR"} <= set(reader.fieldnames or ()):
        raise SchemaError("missing required column(s)")
    odds_columns = ["B365H", "B365D", "B365A"]
    if not set(odds_columns) <= set(reader.fieldnames):
        odds_columns = []
    games = []
    for row in reader:
        cell = {name: (value or "").strip() for name, value in row.items() if name is not None}
        date, home, away, outcome = (cell[c] for c in ("Date", "HomeTeam", "AwayTeam", "FTR"))
        if not (date or home or away or outcome):
            continue
        day = parse_date(date)
        texts = [cell[c] for c in odds_columns]
        odds = None
        if texts and all(texts):
            if not all(_DECIMAL.fullmatch(t) for t in texts):
                raise RowError("unparseable odds", reader.line_num)
            odds = tuple(float(t) for t in texts)
        if (outcome not in ("H", "D", "A") or day is None or not home or not away
                or home == away
                or (odds is not None and not all(math.isfinite(o) and o > 1 for o in odds))):
            raise RowError("bad row", reader.line_num)
        games.append(GameRecord(day, home, away, outcome, odds))
    games.sort(key=lambda g: g.date)
    teams = []
    for g in games:
        teams += [name for name in (g.home_id, g.away_id) if name not in teams]
    return games, teams


def trajectory_csv(trajectory):
    """The ``rate --trajectory`` file: csv.writer, one row per team per snapshot."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["game_index", "team", "rating"])
    for idx, snapshot in enumerate(trajectory, start=1):
        for team, rating in snapshot.items():
            writer.writerow([idx, team, f"{rating:.6g}"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Simulation: the season drawn from numpy's own PCG64 generator
# ---------------------------------------------------------------------------


def generate_season(spec):
    """``sim.generate_season`` with uniforms from ``Generator(PCG64(seed))``.

    The schedule and the inverse-cdf draw are the package's own; what this
    checks is the pure-Python stream that replaced numpy's generator.
    """
    names = list(spec.theta_true)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    games = []
    for idx, (hi, ai) in enumerate(generate_schedule(len(names), spec.rounds)):
        home, away = names[hi], names[ai]
        v = spec.theta_true[home] - spec.theta_true[away]
        games.append(
            GameRecord(
                date=dt.date(2000, 1, 1) + dt.timedelta(days=idx),
                home_id=home,
                away_id=away,
                outcome=sample_outcome(v, spec.model, rng),
            )
        )
    return Dataset(games=games, team_index={name: i for i, name in enumerate(names)})

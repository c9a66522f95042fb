"""Synthetic league generation from known ground-truth ratings.

Seasons are double round-robins (every ordered home/away pair once per
round) built with the circle method, with outcomes sampled from any of the
probability families.  Randomness comes from numpy's seeded PCG64 stream,
so a SimSpec pins the generated season byte for byte; numpy is imported
when a season is generated or scored, not with the module.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .data import Dataset, GameRecord
from .models import ModelParams, predict_probs

if TYPE_CHECKING:
    import numpy as np

_EPOCH = dt.date(2000, 1, 1)  # synthetic calendar: one game per day


@dataclass(frozen=True)
class SimSpec:
    """Ground-truth ratings, generating model, season length, RNG seed."""

    theta_true: dict[str, float]
    model: ModelParams = ModelParams()
    rounds: int = 1
    seed: int = 0

    def __post_init__(self):
        if len(self.theta_true) < 2:
            raise ValueError("need at least two teams")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")


def generate_schedule(n_teams: int, rounds: int = 1) -> list[tuple[int, int]]:
    """Double round-robin pairings: every ordered (home, away) pair once per round.

    Circle method: one seat fixed, the rest rotate; the second half-cycle
    replays the first with home and away swapped.  Deterministic.
    """
    if n_teams < 2:
        raise ValueError(f"need at least 2 teams, got {n_teams}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    seats: list[int | None] = list(range(n_teams))
    if n_teams % 2:
        seats.append(None)  # bye seat
    n = len(seats)
    half: list[tuple[int, int]] = []
    for week in range(n - 1):
        for i in range(n // 2):
            a, b = seats[i], seats[n - 1 - i]
            if a is None or b is None:
                continue
            half.append((a, b) if (week + i) % 2 == 0 else (b, a))
        seats = [seats[0]] + [seats[-1]] + seats[1:-1]
    one_round = half + [(away, home) for home, away in half]
    return one_round * rounds


def sample_outcome(v: float, model: ModelParams, rng: np.random.Generator) -> str:
    """Draw H/D/A by inverse cdf over the fixed category order (H, D, A)."""
    probs = predict_probs(v, model)
    u = rng.random()
    if u < probs.p_home:
        return "H"
    if u < probs.p_home + probs.p_draw:
        return "D"
    return "A"


def generate_season(spec: SimSpec) -> Dataset:
    """Sample a full synthetic season; identical specs give identical data."""
    import numpy as np
    names = list(spec.theta_true)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    games = []
    for idx, (hi, ai) in enumerate(generate_schedule(len(names), spec.rounds)):
        home, away = names[hi], names[ai]
        v = spec.theta_true[home] - spec.theta_true[away]
        games.append(
            GameRecord(
                date=_EPOCH + dt.timedelta(days=idx),
                home_id=home,
                away_id=away,
                outcome=sample_outcome(v, spec.model, rng),
            )
        )
    return Dataset(games=games, team_index={name: i for i, name in enumerate(names)})


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    import numpy as np
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    end = np.r_[first[1:], x.size]  # one past each group of ties
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((first + end + 1) / 2.0, end - first)
    return ranks


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation: the Pearson correlation of average-tie ranks."""
    import numpy as np
    ra, rb = _average_ranks(a), _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(np.clip(ra @ rb / math.sqrt((ra @ ra) * (rb @ rb)), -1.0, 1.0))


def recovery_metrics(
    theta_true: Mapping[str, float] | Sequence[float],
    theta_est: Mapping[str, float] | Sequence[float],
) -> dict[str, float]:
    """How well an estimate recovers the truth, ignoring the arbitrary origin.

    Returns Spearman rank correlation and the RMSE after centering both
    vectors (only differences are identifiable).
    """
    import numpy as np
    if isinstance(theta_true, Mapping) != isinstance(theta_est, Mapping):
        raise ValueError("pass two mappings or two sequences, not a mix")
    if isinstance(theta_true, Mapping):
        if set(theta_true) != set(theta_est):
            raise ValueError("mappings must cover the same players")
        keys = list(theta_true)
        true_vec = np.array([theta_true[k] for k in keys])
        est_vec = np.array([theta_est[k] for k in keys])
    else:
        true_vec = np.asarray(theta_true, dtype=float)
        est_vec = np.asarray(theta_est, dtype=float)
    if true_vec.shape != est_vec.shape:
        raise ValueError(
            f"length mismatch: {true_vec.shape[0]} true vs {est_vec.shape[0]} estimated"
        )
    if true_vec.size < 2:
        raise ValueError("need at least two entries")
    if np.ptp(true_vec) == 0.0 or np.ptp(est_vec) == 0.0:
        rank_corr = math.nan  # ranks of a constant vector are undefined
    else:
        rank_corr = _spearman(true_vec, est_vec)
    centered = (est_vec - est_vec.mean()) - (true_vec - true_vec.mean())
    return {
        "rank_correlation": rank_corr,
        "centered_rmse": float(np.sqrt(np.mean(centered**2))),
    }

"""Synthetic league generation from known ground-truth ratings.

Seasons are double round-robins (every ordered home/away pair once per
round) built with the circle method, with outcomes sampled from any of the
probability families.  Randomness is numpy's seeded PCG64 stream, drawn
bit for bit in plain Python (``_PCG64``), so a SimSpec pins the
generated season byte for byte without importing numpy; only
``recovery_metrics`` imports it, on first call.
"""

from __future__ import annotations

import datetime as dt
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

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
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "seed", seed)


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: hash one 32-bit word, then move the constant on."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return result ^ result >> 16


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(8, np.uint32)``."""
    # the seed's little-endian 32-bit words (0 is one word) go into a pool of 4
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(0x8B51F9DD, 0x58F38DED)
    return [output(pool[i % 4]) for i in range(8)]


class _PCG64:
    """numpy's ``Generator(PCG64(seed)).random()`` stream, bit for bit.

    A 128-bit LCG with the XSL-RR output (O'Neill 2014, HMC-CS-2014-0905),
    seeded through numpy's SeedSequence as ``PCG64`` seeds it.
    """

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        w = _seed_words(seed)  # generate_state(4, np.uint64): low word first
        w0, w1, w2, w3 = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))
        self.inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        # srandom: step from 0, add the initial state, step again
        self.state = ((self.inc + (w0 << 64 | w1)) * _PCG_MULT + self.inc) & _M128

    def random(self) -> float:
        """The next double in [0, 1): the top 53 bits of the next output."""
        self.state = state = (self.state * _PCG_MULT + self.inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0**-53


class Uniforms(Protocol):
    """Any source of uniform doubles in [0, 1), numpy's Generator included."""

    def random(self) -> float: ...


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


def sample_outcome(v: float, model: ModelParams, rng: Uniforms) -> str:
    """Draw H/D/A by inverse cdf over the fixed category order (H, D, A).

    ``rng`` is any object whose ``random()`` returns a uniform double in
    [0, 1), such as numpy's ``Generator`` or ``random.Random``.
    """
    probs = predict_probs(v, model)
    u = rng.random()
    if u < probs.p_home:
        return "H"
    if u < probs.p_home + probs.p_draw:
        return "D"
    return "A"


def generate_season(spec: SimSpec) -> Dataset:
    """Sample a full synthetic season; identical specs give identical data."""
    names = list(spec.theta_true)
    rng = _PCG64(spec.seed)
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

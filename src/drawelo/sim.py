"""Synthetic league generation from known ground-truth ratings.

Seasons are double round-robins (every ordered home/away pair once per
round) built with the circle method, with outcomes sampled from any of the
probability families.  Randomness is numpy's seeded PCG64 stream, drawn
bit for bit in plain Python (``_PCG64``), so a SimSpec pins the
generated season byte for byte without importing numpy.  Nothing in
``sim`` imports numpy: ``recovery_metrics`` ranks by a sort and sums with
``math.fsum``.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math
import operator
from typing import Mapping, Protocol, Sequence

from .data import Dataset, GameRecord
from .models import ModelParams, Record, predict_probs

_EPOCH = dt.date(2000, 1, 1)  # synthetic calendar: one game per day


def _count(name: str, value, low: int) -> int:
    """``value`` as an int >= ``low``, else a ValueError that starts with ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


class SimSpec(Record, frozen=True):
    """Ground-truth ratings (copied), generating model, season length, RNG seed."""

    def __init__(self, theta_true: Mapping[str, float], model: ModelParams = ModelParams(),
                 rounds: int = 1, seed: int = 0):
        if len(theta_true) < 2:
            raise ValueError("need at least two teams")
        self._set(dict(theta_true), model, _count("rounds", rounds, 1), _count("seed", seed, 0))


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
    """numpy's ``SeedSequence(seed).generate_state(8, numpy.uint32)``."""
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
        w = _seed_words(seed)  # generate_state(4, numpy.uint64): low word first
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


def true_ratings(teams: int, spacing: float, sigma: float) -> dict[str, float]:
    """Evenly spaced true ratings of teams T1..Tn, zero-padded, strongest first."""
    width = len(str(teams))
    return {
        f"T{i + 1:0{width}d}": ((teams - 1) / 2.0 - i) * spacing * sigma
        for i in range(teams)
    }


def generate_schedule(n_teams: int, rounds: int = 1) -> list[tuple[int, int]]:
    """Double round-robin pairings: every ordered (home, away) pair once per round.

    Circle method: one seat fixed, the rest rotate; the second half-cycle
    replays the first with home and away swapped.  Deterministic.
    """
    n_teams, rounds = _count("n_teams", n_teams, 2), _count("rounds", rounds, 1)
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


def _average_ranks(x: list[float]) -> list[float]:
    """1-based ranks, 1 + #smaller + (#equal - 1) / 2: ties share the mean of their ranks."""
    ordered = sorted(x)
    return [(bisect.bisect_left(ordered, v) + bisect.bisect_right(ordered, v) + 1) / 2.0 for v in x]


def recovery_metrics(
    theta_true: Mapping[str, float] | Sequence[float],
    theta_est: Mapping[str, float] | Sequence[float],
) -> dict[str, float]:
    """How well an estimate recovers the truth, ignoring the arbitrary origin.

    Returns Spearman rank correlation (the Pearson correlation of the
    average-tie ranks) and the RMSE after centering both vectors (only
    differences are identifiable).  Every rating must be finite.
    """
    if isinstance(theta_true, Mapping) != isinstance(theta_est, Mapping):
        raise ValueError("pass two mappings or two sequences, not a mix")
    keys = None
    if isinstance(theta_true, Mapping):
        if set(theta_true) != set(theta_est):
            raise ValueError("mappings must cover the same players")
        keys = list(theta_true)
        theta_true, theta_est = [theta_true[k] for k in keys], [theta_est[k] for k in keys]
    true_vec, est_vec = list(map(float, theta_true)), list(map(float, theta_est))
    n = len(true_vec)
    if n != len(est_vec):
        raise ValueError(f"length mismatch: {n} true vs {len(est_vec)} estimated")
    if n < 2:
        raise ValueError("need at least two entries")
    for side, vec in (("true", true_vec), ("estimated", est_vec)):
        for i, x in enumerate(vec):
            if not math.isfinite(x):
                place = f"player {keys[i]!r}" if keys else f"position {i}"
                raise ValueError(f"{side} rating of {place} is {x}, not finite")
    if min(true_vec) == max(true_vec) or min(est_vec) == max(est_vec):
        rank_corr = math.nan  # ranks of a constant vector are undefined
    else:
        mid = (n + 1) / 2.0  # the mean of any n average ranks
        ra = [r - mid for r in _average_ranks(true_vec)]
        rb = [r - mid for r in _average_ranks(est_vec)]
        scale = math.sqrt(math.fsum(a * a for a in ra) * math.fsum(b * b for b in rb))
        rank_corr = min(max(math.fsum(map(operator.mul, ra, rb)) / scale, -1.0), 1.0)

    # On the ratings scaled exactly by 2**-exp, the largest into [0.5, 1), no sum
    # or square overflows.  fsum, / n, subtraction, squaring and sqrt round
    # correctly, so the scale changes no bit of the RMSE unless a value underflows.
    exp = math.frexp(max(map(abs, true_vec + est_vec)))[1]
    t_vec, e_vec = ([math.ldexp(x, -exp) for x in vec] for vec in (true_vec, est_vec))
    true_mean, est_mean = math.fsum(t_vec) / n, math.fsum(e_vec) / n
    centered = [(e - est_mean) - (t - true_mean) for t, e in zip(t_vec, e_vec)]
    rmse = math.sqrt(math.fsum(c * c for c in centered) / n)
    rmse = rmse * 2.0 ** (exp // 2) * 2.0 ** (exp - exp // 2)  # inf past the float range
    return {"rank_correlation": rank_corr, "centered_rmse": rmse}

"""Closed-form outcome-probability models for win/draw/loss games.

All models map a rating difference v = theta_home - theta_away to a
normalized triple (p_home, p_away, p_draw).  Four families are provided,
three of them points of one davidson kernel:

* ``davidson``     -- draw parameter kappa >= 0
* ``binary``       -- plain logistic win/loss model, p_draw identically 0:
                      davidson at kappa = 0
* ``elo-implicit`` -- the draw model implied by the classic Elo update,
                      (F^2(v), F^2(-v), 2 F(v) F(-v)) with F the logistic
                      cdf: davidson at kappa = 2 and half the scale
* ``threshold``    -- latent-variable model with a draw band of width 2*v0
                      (Rao and Kupper 1967)

Everything here is a pure function of its arguments and safe to call from
any thread.  Each family's curve is written once: ``davidson_triple`` with
its expected score ``expected_score``, and ``threshold_triple``.  They take
a float or a numpy array, so the float and the grid engines call the same
code, and they never import numpy.  ``predict_probs`` is the one
per-family entry point for a single difference.  The log-likelihood
kernels of the batch fit take their slope and curvature from the same
curves; they import numpy on their first call.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

LOG10_E = math.log10(math.e)


class ModelFamily(str, Enum):
    BINARY = "binary"
    ELO_IMPLICIT = "elo-implicit"
    THRESHOLD = "threshold"
    DAVIDSON = "davidson"


class UpdateMode(str, Enum):  # the online modes of engine.EngineConfig
    ELO = "elo"
    KAPPA_ELO = "kappa-elo"
    ELO_CHECK_KAPPA = "elo-check"


def enum_field(enum: type[Enum], name: str, value) -> Enum:
    """``value`` as a member of ``enum``, given as one or by value, else a ValueError."""
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(member.value for member in enum)
        raise ValueError(f"{name} must be one of {choices}, got {value!r}") from None


@dataclass(frozen=True)
class ModelParams:
    """Parameters shared by all model families.

    sigma  -- logistic scale (FIFA uses 600, FIDE 400); base-10 exponent
              throughout, so changing base is just a reparameterization of
              sigma and no base knob is exposed.
    kappa  -- draw parameter of the davidson family.
    eta    -- home advantage; the effective difference is v + eta*sigma,
              which makes eta independent of the scale.
    v0     -- draw-band half width of the threshold family.
    family -- the model family, a ``ModelFamily`` or its string value.
    """

    sigma: float = 600.0
    kappa: float = 0.7
    eta: float = 0.0
    v0: float = 0.0
    family: ModelFamily = ModelFamily.DAVIDSON

    def __post_init__(self):
        # a subnormal sigma can halve to 0 (elo's prediction scale)
        if not (math.isfinite(self.sigma) and self.sigma >= sys.float_info.min):
            raise ValueError(f"sigma must be a finite real >= {sys.float_info.min}, "
                             f"got {self.sigma}")
        # every message starts with the field name; the CLI maps it to the option
        for name in ("kappa", "eta", "v0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite real >= 0, got {value}")
        # the home-advantage shift of every rating difference
        if not math.isfinite(self.eta * self.sigma):
            raise ValueError(f"eta * sigma must be finite, got {self.eta} * {self.sigma}")
        object.__setattr__(self, "family", enum_field(ModelFamily, "family", self.family))

    @property
    def sigma_prime(self) -> float:
        """Natural-log equivalent of the base-10 scale: sigma * log10(e)."""
        return self.sigma * LOG10_E

    @functools.cached_property  # read on every prediction; the instance is frozen
    def davidson_point(self) -> tuple[float, float] | None:
        """The (sigma, kappa) at which the family is the davidson model.

        binary is davidson at kappa = 0, and elo-implicit at kappa = 2 and
        half the scale; threshold is no davidson model and gives None.
        """
        family = self.family
        if family is ModelFamily.DAVIDSON:
            return self.sigma, self.kappa
        if family is ModelFamily.BINARY:
            return self.sigma, 0.0
        if family is ModelFamily.ELO_IMPLICIT:
            return 0.5 * self.sigma, 2.0
        return None


class OutcomeProbs(NamedTuple):
    """Normalized probabilities of home win / away win / draw, in that order."""

    p_home: float
    p_away: float
    p_draw: float

    def prob_of(self, outcome: str) -> float:
        """Probability assigned to an outcome code 'H', 'A' or 'D'."""
        if outcome not in OUTCOME_COLUMN:
            raise ValueError(f"unknown outcome {outcome!r}")
        return self[OUTCOME_COLUMN[outcome]]


# Column of each outcome code in an OutcomeProbs row or a forecast table.
OUTCOME_COLUMN = {"H": 0, "A": 1, "D": 2}


# ---------------------------------------------------------------------------
# The family curves
# ---------------------------------------------------------------------------


def non_finite_difference(v: float) -> ValueError:
    """The error every rating computation raises for a non-finite difference v."""
    return ValueError(f"rating difference must be finite, got {v}")


def exp10(x: float | np.ndarray) -> float | np.ndarray:
    """10^x by the C library's pow, on a float or on each element of an array.

    numpy's ``power`` rounds some powers differently in the last bit, and
    ``float_power`` calls pow itself, so a float and an array give the
    same bits.  An array means numpy is already imported.
    """
    if isinstance(x, float):
        return 10.0 ** x
    return sys.modules["numpy"].float_power(10.0, x)


def davidson_triple(v: float | np.ndarray, sigma, kappa) -> tuple:
    """Davidson (p_home, p_away, p_draw) at difference v, scale sigma, draw parameter kappa.

    p_draw = kappa * sqrt(p_home * p_away).  All three terms are scaled by
    10^(-|v|/2sigma) relative to the textbook form, so nothing overflows and
    the unlikely side keeps its digits far out in the tail.  v is a float
    or a numpy array, and sigma and kappa broadcast against it, so one call
    serves a whole grid of configurations.  v is not checked: a non-finite
    v gives nan or a limit.
    """
    z = 0.5 * v / sigma
    u = exp10(-abs(z))
    uu = u * u
    den = 1.0 + uu + kappa * u
    # the favourite's side, selected by exact arithmetic: 0.0 * uu adds no bit
    home = 1.0 * (z >= 0)
    away = 1.0 - home
    return (home + away * uu) / den, (away + home * uu) / den, (kappa * u) / den


def expected_score(v: float | np.ndarray, sigma, kappa) -> float | np.ndarray:
    """Davidson's expected home score f_kappa = p_home + p_draw / 2 at v.

    f_kappa(v) = (10^(v/2s) + k/2) / (10^(v/2s) + 10^(-v/2s) + k) is
    antisymmetric around one half, and kappa = 0 gives the logistic cdf at
    scale sigma.  sigma and kappa broadcast as in ``davidson_triple``, and a
    non-finite v gives nan or a limit.
    """
    z = 0.5 * v / sigma
    u = exp10(-abs(z))
    uu = u * u
    # each side's numerator directly, as in davidson_triple: the underdog's
    # 1 - fav would cancel and lose up to a digit near v = 0
    home = 1.0 * (z >= 0)
    return (home + (1.0 - home) * uu + 0.5 * kappa * u) / (1.0 + uu + kappa * u)


def threshold_triple(v: float | np.ndarray, sigma: float, v0: float) -> tuple:
    """Threshold (p_home, p_away, p_draw) at difference v, scale sigma, band half width v0.

    A draw is a latent difference landing in [-v0, v0]: with F the logistic
    cdf, davidson's p_home at kappa = 0, p_home = F(v - v0), p_away =
    F(-v - v0) and p_draw = F(v + v0) - F(v - v0).  The draw takes the
    product form (1 - 10^(-2 v0 / sigma)) F(v + v0) F(v0 - v), which keeps
    its digits far from v = 0.  v is a float or a numpy array; sigma and v0
    are floats.  v is not checked, as in ``davidson_triple``.
    """
    home, band_low, _ = davidson_triple(v - v0, sigma, 0.0)
    band_high, away, _ = davidson_triple(v + v0, sigma, 0.0)
    band = -math.expm1(-2.0 * v0 / (sigma * LOG10_E))
    return home, away, band * band_high * band_low


def apply_home_advantage(v: float, params: ModelParams) -> float:
    """Shift the rating difference in favour of the home side: v + eta*sigma."""
    return v + params.eta * params.sigma


def predict_probs(v: float, params: ModelParams) -> OutcomeProbs:
    """Home-advantage shift followed by the configured family's triple."""
    v = apply_home_advantage(v, params)
    if not math.isfinite(v):
        raise non_finite_difference(v)
    point = params.davidson_point
    if point is None:
        return OutcomeProbs(*threshold_triple(v, params.sigma, params.v0))
    return OutcomeProbs(*davidson_triple(v, *point))


# ---------------------------------------------------------------------------
# Log-likelihood kernels on game arrays (batch fitting)
# ---------------------------------------------------------------------------
#
# Each kernel takes the shifted differences v and the observed home scores
# s (1 home win, 0.5 draw, 0 away win) as arrays, with the scale and the
# family's parameter as floats in the triples' units, and returns
# log P(observed outcome) with its first and second derivatives in v.
# log p is written in t = v / sigma' (10^(v/sigma) = e^t) through log1p and
# logaddexp, so it stays finite where the probabilities themselves
# underflow; the derivatives are read off the family's triple.  An outcome
# the model cannot produce gets log-probability -inf.


def davidson_logp(
    v: np.ndarray, s: np.ndarray, sigma: float, kappa: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Davidson log P(outcome | v) and its v-derivatives.

    With D = e^(t/2) + e^(-t/2) + kappa, log p is t/2 - log D for a home
    win, -t/2 - log D for an away win and log kappa - log D for a draw.
    The slope is (s - f_kappa(v)) / sigma', the online update's score.  The
    curvature is minus the score's variance,
    -(p_home p_away + p_draw (p_home + p_away) / 4) / sigma'^2, which is
    never positive: the likelihood is concave in the ratings.
    """
    import numpy as np
    sigma_prime = sigma * LOG10_E
    t = v / sigma_prime
    half = 0.5 * np.abs(t)
    u = np.exp(-half)
    log_kappa = math.log(kappa) if kappa > 0 else -math.inf
    logp = (s - 0.5) * t - half - np.log1p(u * u + kappa * u) + np.where(s == 0.5, log_kappa, 0.0)
    home, away, draw = davidson_triple(v, sigma, kappa)
    slope = (s - expected_score(v, sigma, kappa)) / sigma_prime
    curvature = -(home * away + 0.25 * draw * (home + away)) / sigma_prime**2
    return logp, slope, curvature


def threshold_logp(
    v: np.ndarray, s: np.ndarray, sigma: float, v0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold-model log P(outcome | v) and its v-derivatives.

    With w = v0 / sigma' and F the logistic cdf, log p is log F(t - w) for a
    home win, log F(-t - w) for an away win and
    log(1 - e^(-2w)) + log F(t + w) + log F(w - t) for a draw, the product
    form of ``threshold_triple``.  Each log F(x) term contributes
    F(-x) / sigma' to the slope and -F(x) F(-x) / sigma'^2 to the
    curvature; F(v0 - v) = p_away + p_draw and F(v + v0) = p_home + p_draw
    are sums, so they keep their digits where p_home or p_away is near 1.
    """
    import numpy as np
    sigma_prime = sigma * LOG10_E
    t = v / sigma_prime
    w = v0 / sigma_prime
    lo, hi = t - w, t + w
    is_home, is_away = s == 1.0, s == 0.0
    log_band = math.log(-math.expm1(-2.0 * w)) if w > 0 else -math.inf
    logp = np.where(
        is_home, -np.logaddexp(0.0, -lo),
        np.where(is_away, -np.logaddexp(0.0, hi),
                 log_band - np.logaddexp(0.0, -hi) - np.logaddexp(0.0, lo)),
    )
    home, away, draw = threshold_triple(v, sigma, v0)
    not_home, not_away = away + draw, home + draw
    slope = np.where(is_home, not_home, np.where(is_away, -not_away, away - home)) / sigma_prime
    curvature = -(
        np.where(is_away, 0.0, home * not_home) + np.where(is_home, 0.0, away * not_away)
    ) / sigma_prime**2
    return logp, slope, curvature


def outcome_logp(
    v: np.ndarray, s: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The configured family's kernel at shifted differences v and scores s."""
    point = params.davidson_point
    if point is None:
        return threshold_logp(v, s, params.sigma, params.v0)
    return davidson_logp(v, s, *point)

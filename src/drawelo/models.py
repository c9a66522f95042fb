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

Everything here is a pure function of its arguments and safe to call from
any thread.  The scalar functions run on plain floats; numpy is imported by
the array kernels, on their first call.
"""

from __future__ import annotations

import functools
import math
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
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma}")
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
        if outcome == "H":
            return self.p_home
        if outcome == "A":
            return self.p_away
        if outcome == "D":
            return self.p_draw
        raise ValueError(f"unknown outcome {outcome!r}")


# ---------------------------------------------------------------------------
# The davidson triple and the families it covers
# ---------------------------------------------------------------------------


def non_finite_difference(v: float) -> ValueError:
    """The error every rating computation raises for a non-finite difference v."""
    return ValueError(f"rating difference must be finite, got {v}")


def _check_finite(v: float):
    if not math.isfinite(v):
        raise non_finite_difference(v)


def davidson_triple(v: float, sigma: float, kappa: float) -> tuple[float, float, float]:
    """Davidson (p_home, p_away, p_draw) at difference v, scale sigma, draw parameter kappa.

    p_draw = kappa * sqrt(p_home * p_away).  All three terms are scaled by
    10^(-|v|/2sigma) relative to the textbook form, so nothing overflows and
    the unlikely side keeps its digits far out in the tail.  v is not
    checked: a non-finite v gives nan or a limit, as on arrays.
    """
    z = 0.5 * v / sigma
    u = 10.0 ** (-abs(z))
    den = 1.0 + u * u + kappa * u
    fav, unfav, draw = 1.0 / den, (u * u) / den, (kappa * u) / den
    return (fav, unfav, draw) if z >= 0 else (unfav, fav, draw)


def logistic_cdf(v: float, sigma: float) -> float:
    """Logistic cdf 1 / (1 + 10^(-v/sigma)): davidson's p_home at kappa = 0."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be a positive finite real, got {sigma}")
    _check_finite(v)
    return davidson_triple(v, sigma, 0.0)[0]


def f_kappa(v: float, params: ModelParams) -> float:
    """Generalized expected score (10^(v/2s) + k/2) / (10^(v/2s) + 10^(-v/2s) + k).

    Antisymmetric around one half: f_kappa(v) + f_kappa(-v) = 1.  kappa=0
    collapses to logistic_cdf(v, sigma); kappa=2 equals logistic_cdf at
    doubled scale.
    """
    _check_finite(v)
    return expected_score_of(v, params.sigma, params.kappa)


def expected_score_of(v: float, sigma: float, kappa: float) -> float:
    """f_kappa on plain floats, without the finiteness check.

    The scalar twin of ``expected_score``: the same operations in the same
    order, and a non-finite v gives nan or a limit rather than an error.
    """
    z = 0.5 * v / sigma
    u = 10.0 ** (-abs(z))
    fav = (1.0 + 0.5 * kappa * u) / (1.0 + u * u + kappa * u)
    return fav if z >= 0 else 1.0 - fav


def davidson_probs(v: float, params: ModelParams) -> OutcomeProbs:
    """Draw-parameter model: p_draw = kappa * sqrt(p_home * p_away)."""
    _check_finite(v)
    return OutcomeProbs(*davidson_triple(v, params.sigma, params.kappa))


def binary_probs(v: float, params: ModelParams) -> OutcomeProbs:
    """Win/loss logistic model, davidson at kappa = 0; draws carry probability 0."""
    _check_finite(v)
    return OutcomeProbs(*davidson_triple(v, params.sigma, 0.0))


def elo_implicit_probs(v: float, params: ModelParams) -> OutcomeProbs:
    """The draw model the classic Elo update implements implicitly.

    (F^2(v), F^2(-v), 2 F(v) F(-v)) with F the logistic cdf, which is
    davidson at kappa = 2 and half the scale.
    """
    _check_finite(v)
    return OutcomeProbs(*davidson_triple(v, 0.5 * params.sigma, 2.0))


def threshold_probs(v: float, params: ModelParams) -> OutcomeProbs:
    """Latent-difference model: a draw is a difference landing in [-v0, v0].

    Each cdf F is davidson's p_home at kappa = 0, as in ``logistic_cdf``.
    p_draw = F(v + v0) - F(v - v0) takes ``threshold_logp``'s product form
    (1 - 10^(-2 v0 / sigma)) F(v + v0) F(v0 - v), which keeps its digits.
    """
    _check_finite(v)
    sigma, v0 = params.sigma, params.v0
    home, away, band_high, band_low = (
        davidson_triple(x, sigma, 0.0)[0] for x in (v - v0, -v - v0, v + v0, v0 - v)
    )
    band = -math.expm1(-2.0 * v0 / params.sigma_prime)
    return OutcomeProbs(home, away, band * band_high * band_low)


def apply_home_advantage(v: float, params: ModelParams) -> float:
    """Shift the rating difference in favour of the home side: v + eta*sigma."""
    return v + params.eta * params.sigma


def predict_probs(v: float, params: ModelParams) -> OutcomeProbs:
    """Home-advantage shift followed by the configured family's triple."""
    v = apply_home_advantage(v, params)
    _check_finite(v)
    point = params.davidson_point
    if point is None:
        return threshold_probs(v, params)
    return OutcomeProbs(*davidson_triple(v, *point))


# ---------------------------------------------------------------------------
# Davidson curves on arrays (online ratings)
# ---------------------------------------------------------------------------
#
# f_kappa and davidson_probs evaluated elementwise, with the same operations
# in the same order as the scalar formulas above.  v is the shifted rating
# difference; sigma and kappa broadcast against it, so one call serves a
# whole grid of configurations.


def expected_score(v: np.ndarray, sigma, kappa) -> np.ndarray:
    """f_kappa(v) over arrays; kappa = 0 gives the logistic cdf at scale sigma."""
    import numpy as np
    z = 0.5 * v / sigma
    u = np.power(10.0, -np.abs(z))
    fav = (1.0 + 0.5 * kappa * u) / (1.0 + u * u + kappa * u)
    return np.where(z >= 0, fav, 1.0 - fav)


def davidson_table(v: np.ndarray, sigma, kappa) -> np.ndarray:
    """davidson_probs(v) over arrays, as a trailing axis (p_home, p_away, p_draw)."""
    import numpy as np
    z = 0.5 * v / sigma
    u = np.power(10.0, -np.abs(z))
    den = 1.0 + u * u + kappa * u
    fav, unfav = 1.0 / den, (u * u) / den
    home = z >= 0
    return np.stack(
        [np.where(home, fav, unfav), np.where(home, unfav, fav), (kappa * u) / den], axis=-1
    )


# ---------------------------------------------------------------------------
# Log-likelihood kernels on game arrays (batch fitting)
# ---------------------------------------------------------------------------
#
# Each kernel takes the shifted differences v and the observed home scores
# s (1 home win, 0.5 draw, 0 away win) as arrays and returns log P(observed
# outcome) with its first and second derivatives in v.  Everything is
# written in t = v / sigma' (10^(v/sigma) = e^t) through e^(-|t|/2) or
# e^(-|t|), so no term overflows and log-probabilities stay finite where the
# probabilities themselves would underflow.  An outcome the model cannot
# produce gets log-probability -inf.


def davidson_logp(
    v: np.ndarray, s: np.ndarray, sigma_prime: float, kappa: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Davidson log P(outcome | v) and its v-derivatives.

    With D = e^(t/2) + e^(-t/2) + kappa, log p is t/2 - log D for a home
    win, -t/2 - log D for an away win and log kappa - log D for a draw.
    The slope is (s - f_kappa(v)) / sigma' and the curvature is
    -(4 + kappa (e^(t/2) + e^(-t/2))) / (4 D^2 sigma'^2), which is never
    positive: the likelihood is concave in the ratings.
    """
    import numpy as np
    t = v / sigma_prime
    half = 0.5 * np.abs(t)
    u = np.exp(-half)
    ku = kappa * u
    rest = u * u + ku
    den = 1.0 + rest  # D * e^(-|t|/2), as in davidson_triple
    log_kappa = math.log(kappa) if kappa > 0 else -math.inf
    logp = (s - 0.5) * t - half - np.log1p(rest) + np.where(s == 0.5, log_kappa, 0.0)
    f_fav = (1.0 + 0.5 * ku) / den  # f_kappa(|v|), as in expected_score_of
    f = np.where(t >= 0, f_fav, 1.0 - f_fav)
    slope = (s - f) / sigma_prime
    curvature = -(u * u + 0.25 * ku * (1.0 + u * u)) / (den * sigma_prime) ** 2
    return logp, slope, curvature


def _logistic_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F(x), F(-x)) for the natural-scale logistic F(x) = 1 / (1 + e^-x)."""
    import numpy as np
    e = np.exp(-np.abs(x))
    big, small = 1.0 / (1.0 + e), e / (1.0 + e)
    positive = x >= 0
    return np.where(positive, big, small), np.where(positive, small, big)


def threshold_logp(
    v: np.ndarray, s: np.ndarray, sigma_prime: float, v0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold-model log P(outcome | v) and its v-derivatives.

    With w = v0 / sigma', p_home = F(t - w), p_away = F(-t - w) and
    p_draw = F(t + w) - F(t - w) = (1 - e^(-2w)) F(t + w) F(w - t).  The
    product form has no cancellation, so draws far from v = 0 keep their
    digits.  Each log F term contributes -F(x) F(-x) / sigma'^2 to the
    curvature.
    """
    import numpy as np
    t = v / sigma_prime
    w = v0 / sigma_prime
    lo, hi = t - w, t + w
    f_lo, fc_lo = _logistic_pair(lo)
    f_hi, fc_hi = _logistic_pair(hi)
    home, away = s == 1.0, s == 0.0
    log_band = math.log(-math.expm1(-2.0 * w)) if w > 0 else -math.inf
    logp = np.where(
        home, -np.logaddexp(0.0, -lo),
        np.where(away, -np.logaddexp(0.0, hi),
                 log_band - np.logaddexp(0.0, -hi) - np.logaddexp(0.0, lo)),
    )
    slope = np.where(home, fc_lo, np.where(away, -f_hi, fc_hi - f_lo)) / sigma_prime
    curvature = -(
        np.where(away, 0.0, f_lo * fc_lo) + np.where(home, 0.0, f_hi * fc_hi)
    ) / sigma_prime**2
    return logp, slope, curvature


def outcome_logp(
    v: np.ndarray, s: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The configured family's kernel at shifted differences v and scores s."""
    point = params.davidson_point
    if point is None:
        return threshold_logp(v, s, params.sigma_prime, params.v0)
    sigma, kappa = point
    return davidson_logp(v, s, sigma * LOG10_E, kappa)

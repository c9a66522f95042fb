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
any thread.  A family is one curve, ``ModelParams.curve``: a frozen
``Davidson(sigma, kappa)`` or ``Threshold(sigma, v0)`` tuple with
``triple``, the batch fit's ``logp`` and, for davidson, the online update's
``expected_score``.  They take a float or a numpy array, so the float and
the grid engines call the same code.  ``davidson_triple`` and
``expected_score`` stay module functions for the online loops, which call
them per game; only ``logp`` imports numpy.  ``predict_probs`` is the
entry point for a single difference.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .errors import non_finite_difference

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


class Record:
    """Base of the library's record types, in place of ``@dataclass``.

    A record's fields are its ``__init__``'s parameters, in order; ``__init__``
    checks them and stores them with ``_set``.  Records are equal when their
    types and field values are, print as ``Type(field=value, ...)``, and
    ``replace`` builds a changed copy through ``__init__``, so every check
    runs again.  ``class T(Record, frozen=True)`` refuses assignment and
    hashes by the field values; any other record is unhashable, as an
    unfrozen dataclass is.  Defining a record generates no code at import.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse
            cls.__hash__ = lambda self: hash(self._values())

    def _set(self, *values) -> None:
        vars(self).update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _refuse(self, name: str, *value) -> None:
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    def replace(self, **changes):
        """A copy with ``changes`` made, built and checked by ``__init__`` again."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ModelParams(Record, frozen=True):
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

    def __init__(self, sigma: float = 600.0, kappa: float = 0.7, eta: float = 0.0,
                 v0: float = 0.0, family: ModelFamily = ModelFamily.DAVIDSON):
        # a subnormal sigma can halve to 0 (elo's prediction scale)
        if not (math.isfinite(sigma) and sigma >= sys.float_info.min):
            raise ValueError(f"sigma must be a finite real >= {sys.float_info.min}, got {sigma}")
        # every message starts with the field name; the CLI maps it to the option
        for name, value in (("kappa", kappa), ("eta", eta), ("v0", v0)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite real >= 0, got {value}")
        # the home-advantage shift of every rating difference
        if not math.isfinite(eta * sigma):
            raise ValueError(f"eta * sigma must be finite, got {eta} * {sigma}")
        self._set(sigma, kappa, eta, v0, enum_field(ModelFamily, "family", family))

    @property
    def sigma_prime(self) -> float:
        """Natural-log equivalent of the base-10 scale: sigma * log10(e)."""
        return self.sigma * LOG10_E

    @functools.cached_property  # read on every prediction; the instance is frozen
    def curve(self) -> Davidson | Threshold:
        """The family's curve.

        binary is ``Davidson`` at kappa = 0, and elo-implicit at kappa = 2
        and half the scale; threshold is ``Threshold`` at v0.
        """
        family = self.family
        if family is ModelFamily.THRESHOLD:
            return Threshold(self.sigma, self.v0)
        if family is ModelFamily.BINARY:
            return Davidson(self.sigma, 0.0)
        if family is ModelFamily.ELO_IMPLICIT:
            return Davidson(0.5 * self.sigma, 2.0)
        return Davidson(self.sigma, self.kappa)


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


# Each outcome code's home score, in the order messages list the codes, and
# its column in an OutcomeProbs row or a forecast table.
HOME_SCORE = {"H": 1.0, "D": 0.5, "A": 0.0}
OUTCOME_COLUMN = {"H": 0, "A": 1, "D": 2}


# ---------------------------------------------------------------------------
# The family curves
# ---------------------------------------------------------------------------


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


class Davidson(NamedTuple):
    """The davidson curve; ``triple`` and ``expected_score`` broadcast array fields against v."""

    sigma: float
    kappa: float

    def triple(self, v: float | np.ndarray) -> tuple:
        """``davidson_triple`` at v."""
        return davidson_triple(v, self.sigma, self.kappa)

    def expected_score(self, v: float | np.ndarray) -> float | np.ndarray:
        """``expected_score`` at v, the online update's expected home score."""
        return expected_score(v, self.sigma, self.kappa)

    def logp(self, v: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log P(outcome | v) at shifted differences v and home scores s, and its v-derivatives.

        s is 1 for a home win, 0.5 for a draw and 0 for an away win.  log p
        is written in t = v / sigma' (10^(v/sigma) = e^t) through log1p, so
        it stays finite where the probabilities underflow, and an outcome
        the curve cannot produce gets -inf.  With D = e^(t/2) + e^(-t/2) +
        kappa, log p is t/2 - log D for a home win, -t/2 - log D for an away
        win and log kappa - log D for a draw.  The slope is (s - f_kappa(v))
        / sigma', the online update's score, with f_kappa = p_home + p_draw
        / 2 read off the triple.  The curvature is minus the score's
        variance, -(p_home p_away + p_draw (p_home + p_away) / 4) / sigma'^2,
        which is never positive: the likelihood is concave in the ratings.
        """
        import numpy as np
        sigma, kappa = self
        sigma_prime = sigma * LOG10_E
        t = v / sigma_prime
        half = 0.5 * np.abs(t)
        u = np.exp(-half)
        log_kappa = math.log(kappa) if kappa > 0 else -math.inf
        logp = ((s - 0.5) * t - half - np.log1p(u * u + kappa * u)
                + np.where(s == 0.5, log_kappa, 0.0))
        home, away, draw = davidson_triple(v, sigma, kappa)
        slope = (s - (home + 0.5 * draw)) / sigma_prime
        curvature = -(home * away + 0.25 * draw * (home + away)) / sigma_prime**2
        return logp, slope, curvature


class Threshold(NamedTuple):
    """The threshold curve (Rao and Kupper 1967) at scale sigma and band half width v0.

    A draw is a latent difference landing in [-v0, v0]: with F the logistic
    cdf, davidson's p_home at kappa = 0, p_home = F(v - v0), p_away =
    F(-v - v0) and p_draw = F(v + v0) - F(v - v0).  v is a float or a numpy
    array; sigma and v0 are floats.
    """

    sigma: float
    v0: float

    def triple(self, v: float | np.ndarray) -> tuple:
        """(p_home, p_away, p_draw) at v; v is not checked, as in ``davidson_triple``.

        The draw takes the product form (1 - 10^(-2 v0 / sigma)) F(v + v0)
        F(v0 - v), which keeps its digits far from v = 0.
        """
        sigma, v0 = self
        home, band_low, _ = davidson_triple(v - v0, sigma, 0.0)
        band_high, away, _ = davidson_triple(v + v0, sigma, 0.0)
        band = -math.expm1(-2.0 * v0 / (sigma * LOG10_E))
        return home, away, band * band_high * band_low

    def logp(self, v: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log P(outcome | v) and its v-derivatives, as in ``Davidson.logp``.

        The two cdfs of ``triple`` as binary terms of ``Davidson.logp`` at
        kappa = 0: a home win is the win term at v - v0, an away win the loss
        term at v + v0, and a draw the loss term at v - v0 plus the win term
        at v + v0 plus log(1 - 10^(-2 v0 / sigma)), the product form of the
        draw.  log p, slope and curvature are each the sum of the outcome's
        terms.
        """
        import numpy as np
        sigma, v0 = self
        is_home, is_away = s == 1.0, s == 0.0
        # at v - v0 a home win wins and a draw loses; at v + v0 a draw wins and an away win loses
        below = Davidson(sigma, 0.0).logp(v - v0, 1.0 * is_home)
        above = Davidson(sigma, 0.0).logp(v + v0, 1.0 * ~is_away)
        logp, slope, curvature = (np.where(is_away, 0.0, low) + np.where(is_home, 0.0, high)
                                  for low, high in zip(below, above))
        band = -math.expm1(-2.0 * v0 / (sigma * LOG10_E))
        log_band = math.log(band) if band > 0 else -math.inf
        return logp + np.where(is_home | is_away, 0.0, log_band), slope, curvature


def apply_home_advantage(v: float, params: ModelParams) -> float:
    """Shift the rating difference in favour of the home side: v + eta*sigma."""
    return v + params.eta * params.sigma


def predict_probs(v: float, params: ModelParams) -> OutcomeProbs:
    """Home-advantage shift followed by the family's curve."""
    v = apply_home_advantage(v, params)
    if not math.isfinite(v):
        raise non_finite_difference(v)
    return OutcomeProbs(*params.curve.triple(v))

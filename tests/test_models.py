import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drawelo.data import OUTCOMES
from drawelo.models import (
    HOME_SCORE,
    OUTCOME_COLUMN,
    Davidson,
    ModelFamily,
    ModelParams,
    OutcomeProbs,
    Threshold,
    apply_home_advantage,
    predict_probs,
)
import oracles

SIGMA = 600.0
GRID_V = [i * SIGMA / 10 for i in range(-50, 51)]  # -5 sigma .. 5 sigma
KAPPAS = [0.0, 0.4, 0.7, 1.0, 2.0]


def params(**kw):
    return ModelParams(**{"sigma": SIGMA, "eta": 0.0, **kw})


def triple(p: OutcomeProbs):
    return (p.p_home, p.p_away, p.p_draw)


# each family's triple through the one public entry point, predict_probs
def davidson_probs(v, model):
    return predict_probs(v, model.replace(family=ModelFamily.DAVIDSON))


def binary_probs(v, model):
    return predict_probs(v, model.replace(family=ModelFamily.BINARY))


def elo_implicit_probs(v, model):
    return predict_probs(v, model.replace(family=ModelFamily.ELO_IMPLICIT))


def threshold_probs(v, model):
    return predict_probs(v, model.replace(family=ModelFamily.THRESHOLD))


# ---------------------------------------------------------------------------
# logistic cdf: binary's p_home
# ---------------------------------------------------------------------------


def logistic(v, sigma=SIGMA):
    return binary_probs(v, ModelParams(sigma=sigma)).p_home


def test_logistic_examples():
    assert logistic(0.0) == 0.5
    assert logistic(600.0) == pytest.approx(10 / 11, abs=1e-15)
    assert logistic(-600.0) == pytest.approx(1 / 11, abs=1e-15)


def test_logistic_monotone_and_complement():
    previous = -1.0
    for v in GRID_V:
        p = logistic(v)
        assert p > previous
        assert abs(p + logistic(-v) - 1.0) < 1e-15
        previous = p


def test_logistic_extremes_do_not_overflow():
    assert logistic(1e9) == 1.0
    assert logistic(-1e9) == 0.0


@pytest.mark.parametrize("bad_sigma", [0.0, -1.0, math.nan, math.inf])
def test_logistic_rejects_bad_sigma(bad_sigma):
    with pytest.raises(ValueError):
        logistic(0.0, bad_sigma)


@pytest.mark.parametrize("bad_v", [math.nan, math.inf, -math.inf])
def test_logistic_rejects_non_finite_v(bad_v):
    with pytest.raises(ValueError):
        logistic(bad_v)


@pytest.mark.parametrize("bad_v", [math.nan, math.inf, -math.inf])
def test_public_functions_reject_what_the_kernel_carries(bad_v):
    # Davidson.triple gives on a float what it gives on an array; the entry points raise
    with np.errstate(invalid="ignore"):
        table = [float(p[0]) for p in Davidson(SIGMA, 0.7).triple(np.array([bad_v]))]
    got = Davidson(SIGMA, 0.7).triple(bad_v)
    assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, table))
    message = f"rating difference must be finite, got {bad_v}"
    for family in ModelFamily:
        with pytest.raises(ValueError, match=message):
            predict_probs(bad_v, params(family=family, v0=50.0))


# ---------------------------------------------------------------------------
# generalized expected score
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kappa", KAPPAS)
def test_f_kappa_half_at_zero(kappa):
    assert Davidson(SIGMA, kappa).expected_score(0.0) == 0.5


def test_f_kappa_zero_reduces_to_logistic():
    for v in GRID_V:
        assert Davidson(SIGMA, 0.0).expected_score(v) == pytest.approx(
            oracles.logistic(v, SIGMA), rel=1e-12, abs=1e-15)


def test_f_kappa_two_is_logistic_at_double_scale():
    # F_2(v; s) = logistic(v; 2s); at v = sigma both sides are 1/(1+10^-0.5)
    f_two = Davidson(SIGMA, 2.0).expected_score
    for v in GRID_V:
        assert f_two(v) == pytest.approx(oracles.logistic(v, 2 * SIGMA), abs=1e-15)
    assert f_two(600.0) == pytest.approx(0.7597469266479578, abs=1e-12)


@given(
    v=st.floats(-5000, 5000),
    kappa=st.floats(0, 5),
    sigma=st.floats(1, 2000),
)
def test_f_kappa_antisymmetry(v, kappa, sigma):
    f_kappa = Davidson(sigma, kappa).expected_score
    assert abs(f_kappa(v) + f_kappa(-v) - 1.0) < 1e-15


def test_f_kappa_monotone():
    values = [Davidson(SIGMA, 0.7).expected_score(v) for v in GRID_V]
    assert all(a < b for a, b in zip(values, values[1:]))


# shifted rating differences, with the extremes a diverging grid cell can reach
DIFFS = st.floats(-1e4, 1e4) | st.sampled_from(
    [0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan])


def grid_parameter(values):
    """One value for every cell, or a (3, 1) column of one value per cell."""
    return values | st.lists(values, min_size=3, max_size=3).map(lambda c: np.array(c)[:, None])


def assert_columns_match(got, calls, shape):
    """Each array of ``got`` equals that column of the float calls, bit for bit."""
    for column, array in enumerate(got):
        want = np.array([call[column] for call in calls]).reshape(shape)
        assert array.shape == want.shape
        np.testing.assert_array_equal(array, want, strict=True)


@given(
    v=st.lists(DIFFS, min_size=1, max_size=12),
    sigma=grid_parameter(st.floats(1e-10, 1e4)),
    kappa=grid_parameter(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 5.0)),
    v0=st.floats(0.0, 1e4),
)
def test_kernels_on_arrays_match_float_calls(v, sigma, kappa, v0):
    # one kernel for both engines, and exp10 takes 10^x from the C
    # library's pow on floats and arrays alike; a curve of arrays gives
    # what a curve of floats gives on each cell
    x = np.array(v)
    curve = Davidson(sigma, kappa)
    band = Threshold(float(np.ravel(sigma)[0]), v0)  # a threshold takes a float scale
    with np.errstate(all="ignore"):
        got = (*curve.triple(x), curve.expected_score(x))
        band_got = band.triple(x)
    cells = np.broadcast_arrays(x, sigma, kappa)
    calls = [(*Davidson(s, k).triple(d), Davidson(s, k).expected_score(d))
             for d, s, k in zip(*(a.ravel().tolist() for a in cells))]
    assert_columns_match(got, calls, cells[0].shape)
    assert_columns_match(band_got, [band.triple(d) for d in v], x.shape)


# ---------------------------------------------------------------------------
# probability triples
# ---------------------------------------------------------------------------


def test_davidson_equal_ratings_kappa2_is_quarter_quarter_half():
    assert triple(davidson_probs(0.0, params(kappa=2.0))) == (0.25, 0.25, 0.5)


def test_davidson_kappa0_has_no_draws():
    probs = davidson_probs(0.0, params(kappa=0.0))
    assert triple(probs) == (0.5, 0.5, 0.0)


def test_davidson_closed_form_point():
    # v = sigma, kappa = 1: with x = 10^0.5 the triple is
    # (x, 1/x, 1) / (x + 1/x + 1), evaluated here from scratch
    x = 10.0**0.5
    den = x + 1 / x + 1
    probs = davidson_probs(600.0, params(kappa=1.0))
    assert probs.p_home == pytest.approx(x / den, abs=1e-12)
    assert probs.p_away == pytest.approx(1 / x / den, abs=1e-12)
    assert probs.p_draw == pytest.approx(1 / den, abs=1e-12)
    assert probs.p_home + probs.p_away + probs.p_draw == pytest.approx(1.0, abs=1e-12)


def test_davidson_draw_is_kappa_times_geometric_mean():
    for kappa in (0.4, 1.0, 2.0):
        for v in (-900.0, -60.0, 0.0, 240.0, 1500.0):
            probs = davidson_probs(v, params(kappa=kappa))
            assert probs.p_draw == pytest.approx(
                kappa * math.sqrt(probs.p_home * probs.p_away), rel=1e-12, abs=1e-15
            )


def test_elo_implicit_examples():
    assert triple(elo_implicit_probs(0.0, params())) == (0.25, 0.25, 0.5)
    probs = elo_implicit_probs(600.0, params())
    assert probs.p_home == pytest.approx((10 / 11) ** 2, abs=1e-12)
    assert probs.p_away == pytest.approx((1 / 11) ** 2, abs=1e-12)
    assert probs.p_draw == pytest.approx(20 / 121, abs=1e-12)
    far = elo_implicit_probs(1e8, params())
    assert triple(far) == (1.0, 0.0, 0.0)


def test_threshold_examples():
    assert triple(threshold_probs(0.0, params(v0=0.0))) == (0.5, 0.5, 0.0)
    probs = threshold_probs(0.0, params(v0=600.0))
    assert probs.p_home == pytest.approx(1 / 11, abs=1e-12)
    assert probs.p_away == pytest.approx(1 / 11, abs=1e-12)
    assert probs.p_draw == pytest.approx(9 / 11, abs=1e-12)
    probs = threshold_probs(300.0, params(v0=300.0))
    assert probs.p_home == pytest.approx(0.5, abs=1e-12)
    assert probs.p_away == pytest.approx(1 / 11, abs=1e-12)
    assert probs.p_draw == pytest.approx(1 - 0.5 - 1 / 11, abs=1e-12)


@pytest.mark.parametrize("v0", [0.0, 150.0, 600.0])
def test_threshold_matches_the_textbook_form_on_grid(v0):
    for v in GRID_V:
        assert triple(threshold_probs(v, params(v0=v0))) == pytest.approx(
            oracles.threshold(v, SIGMA, v0), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("v", [3000.0, -3000.0, 6000.0, -6000.0, 12000.0, -12000.0])
def test_threshold_draw_probability_keeps_its_digits_in_the_tails(v):
    model = params(v0=150.0, family=ModelFamily.THRESHOLD)
    logp = model.curve.logp(np.array([v]), np.array([0.5]))[0][0]
    assert predict_probs(v, model).p_draw == pytest.approx(math.exp(logp), rel=1e-12, abs=0)


ALL_FAMILIES = (
    [("davidson", params(kappa=k), davidson_probs) for k in KAPPAS]
    + [("elo-implicit", params(), elo_implicit_probs)]
    + [("threshold", params(v0=v0), threshold_probs) for v0 in (0.0, 300.0, 600.0)]
    + [("binary", params(), binary_probs)]
)


@pytest.mark.parametrize("name,model,func", ALL_FAMILIES)
def test_normalization_on_grid(name, model, func):
    for v in GRID_V:
        probs = func(v, model)
        assert abs(probs.p_home + probs.p_away + probs.p_draw - 1.0) < 1e-12
        assert 0.0 <= probs.p_home <= 1.0
        assert 0.0 <= probs.p_away <= 1.0
        assert 0.0 <= probs.p_draw <= 1.0


@pytest.mark.parametrize("name,model,func", ALL_FAMILIES)
def test_symmetry_on_grid(name, model, func):
    for v in GRID_V:
        here, mirror = func(v, model), func(-v, model)
        assert here.p_home == pytest.approx(mirror.p_away, rel=1e-12, abs=1e-15)
        assert here.p_draw == pytest.approx(mirror.p_draw, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name,model,func", ALL_FAMILIES)
def test_p_home_strictly_increasing(name, model, func):
    values = [func(v, model).p_home for v in GRID_V]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "model,func",
    [(params(kappa=0.7), davidson_probs),
     (params(kappa=2.0), davidson_probs),
     (params(), elo_implicit_probs),
     (params(v0=300.0), threshold_probs)],
)
def test_p_draw_peaks_at_zero_difference(model, func):
    non_negative = [v for v in GRID_V if v >= 0]
    values = [func(v, model).p_draw for v in non_negative]
    assert values[0] == max(func(v, model).p_draw for v in GRID_V)
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_davidson_kappa0_matches_binary_on_grid():
    model = params(kappa=0.0)
    for v in GRID_V:
        assert davidson_probs(v, model).p_home == pytest.approx(
            oracles.logistic(v, SIGMA), rel=1e-12, abs=1e-15
        )


@pytest.mark.parametrize("scale", [300.0, 600.0])
def test_davidson_kappa2_equals_elo_implicit_at_double_scale(scale):
    dav = ModelParams(sigma=scale, kappa=2.0)
    for v in GRID_V:
        a, b = davidson_probs(v, dav), oracles.elo_implicit(v, 2 * scale)
        assert a.p_home == pytest.approx(b[0], rel=1e-12, abs=1e-15)
        assert a.p_away == pytest.approx(b[1], rel=1e-12, abs=1e-15)
        assert a.p_draw == pytest.approx(b[2], rel=1e-12, abs=1e-15)


def test_draw_dominates_at_kappa_one_and_above():
    for kappa in (1.0, 1.3, 2.0, 5.0):
        probs = davidson_probs(0.0, params(kappa=kappa))
        assert probs.p_draw >= probs.p_home
    below = davidson_probs(0.0, params(kappa=0.99))
    assert below.p_draw < below.p_home


@given(
    v=st.floats(-3000, 3000),
    kappa=st.floats(0, 4),
    c=st.floats(0.01, 100),
)
def test_davidson_scale_invariance(v, kappa, c):
    base = davidson_probs(v, ModelParams(sigma=SIGMA, kappa=kappa))
    scaled = davidson_probs(c * v, ModelParams(sigma=c * SIGMA, kappa=kappa))
    assert scaled.p_home == pytest.approx(base.p_home, rel=1e-12, abs=1e-15)
    assert scaled.p_draw == pytest.approx(base.p_draw, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# home advantage and dispatch
# ---------------------------------------------------------------------------


def test_home_advantage_shift():
    assert apply_home_advantage(0.0, params(eta=0.3)) == 180.0
    assert apply_home_advantage(100.0, params(eta=0.0)) == 100.0
    assert apply_home_advantage(-180.0, params(eta=0.3)) == 0.0


def test_predict_probs_dispatch():
    dav = params(kappa=2.0, family=ModelFamily.DAVIDSON)
    assert triple(predict_probs(0.0, dav)) == (0.25, 0.25, 0.5)
    binary = params(family=ModelFamily.BINARY)
    assert triple(predict_probs(0.0, binary)) == (0.5, 0.5, 0.0)


def test_predict_probs_composes_shift_then_family():
    shifted = predict_probs(0.0, params(kappa=1.0, eta=0.3, family=ModelFamily.DAVIDSON))
    direct = davidson_probs(180.0, params(kappa=1.0))
    assert triple(shifted) == triple(direct)


def test_outcome_probs_prob_of():
    probs = OutcomeProbs(p_home=0.5, p_away=0.3, p_draw=0.2)
    assert probs.prob_of("H") == 0.5
    assert probs.prob_of("A") == 0.3
    assert probs.prob_of("D") == 0.2
    assert [probs.prob_of(outcome) for outcome in OUTCOME_COLUMN] == [probs[c] for c in (0, 1, 2)]
    for outcome in ("X", "h", "", "HD", None):
        with pytest.raises(ValueError, match="unknown outcome"):
            probs.prob_of(outcome)


def test_outcome_codes_have_one_home_score_and_one_column():
    # a forecast certain of an outcome expects the home side to score its home score
    assert list(HOME_SCORE) == list(OUTCOMES) == ["H", "D", "A"]
    assert set(OUTCOME_COLUMN) == set(HOME_SCORE)
    for outcome, score in HOME_SCORE.items():
        certain = OutcomeProbs(*(float(c == OUTCOME_COLUMN[outcome]) for c in range(3)))
        assert certain.p_home + 0.5 * certain.p_draw == score


def test_the_smallest_normal_sigma_is_accepted():
    # below it, sigma / 2 and sigma' lose digits and can round to 0
    assert ModelParams(sigma=sys.float_info.min, eta=0.3).sigma_prime > 0


@pytest.mark.parametrize(
    "kw",
    [{"sigma": 0.0}, {"sigma": -5.0}, {"sigma": math.inf},
     {"kappa": -0.1}, {"eta": -0.2}, {"v0": -1.0},
     {"kappa": math.nan}, {"kappa": math.inf}, {"eta": math.nan}, {"eta": math.inf},
     {"v0": math.nan}, {"v0": math.inf},
     {"sigma": 1e300, "eta": 1e10}, {"family": "bogus"},
     {"sigma": 5e-324}, {"sigma": sys.float_info.min / 2}],
)
def test_model_params_validation(kw):
    with pytest.raises(ValueError):
        ModelParams(**kw)


@pytest.mark.parametrize(
    "kw,name",
    [({"sigma": 1e300, "eta": 1e10}, "eta"), ({"sigma": 1e308, "eta": 2.0}, "eta"),
     ({"family": "bogus"}, "family"), ({"family": None}, "family"), ({"sigma": 5e-324}, "sigma")],
)
def test_model_params_messages_start_with_the_field(kw, name):
    # the CLI maps the first word to the option: the home-advantage shift
    # eta * sigma overflowing is --eta's error
    with pytest.raises(ValueError, match=f"^{name} "):
        ModelParams(**kw)


@pytest.mark.parametrize("family", list(ModelFamily))
def test_model_params_take_a_family_by_its_value(family):
    by_value = params(kappa=0.7, v0=100.0, family=family.value)
    assert by_value.family is family
    by_member = params(kappa=0.7, v0=100.0, family=family)
    assert predict_probs(30.0, by_value) == predict_probs(30.0, by_member)
    if family is not ModelFamily.BINARY:
        assert predict_probs(30.0, by_value).p_draw > 0


def test_sigma_prime_is_natural_log_scale():
    assert params().sigma_prime == pytest.approx(600 * math.log10(math.e), rel=1e-15)


LOGP_FAMILIES = [(ModelFamily.DAVIDSON, {"kappa": 0.7}),
                 (ModelFamily.ELO_IMPLICIT, {}),
                 (ModelFamily.BINARY, {}),
                 (ModelFamily.THRESHOLD, {"v0": 150.0})]


@pytest.mark.parametrize("family,kw", LOGP_FAMILIES)
def test_logp_kernel_slope_and_curvature_match_the_scalar_derivative(family, kw):
    p = params(family=family, **kw)
    v = np.array(GRID_V[10:-10])  # -4 sigma .. 4 sigma
    h = 1e-3 * SIGMA
    for outcome, score in (("H", 1.0), ("D", 0.5), ("A", 0.0)):
        if family is ModelFamily.BINARY and outcome == "D":
            continue
        logp, slope, curvature = p.curve.logp(v, np.full(v.shape, score))
        for x, lp, d1, d2 in zip(v, logp, slope, curvature):
            # eta = 0, so v is also the shifted difference the kernel takes
            expected = math.log(predict_probs(x, p).prob_of(outcome))
            assert lp == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert d1 == pytest.approx(oracles.dlogp_dv(x, outcome, p), rel=1e-9, abs=1e-15)
            up, down = oracles.dlogp_dv(x + h, outcome, p), oracles.dlogp_dv(x - h, outcome, p)
            fd = (up - down) / (2 * h)
            assert d2 == pytest.approx(fd, rel=1e-5, abs=1e-12 / SIGMA**2)


TAIL_V = [i * SIGMA for i in range(-400, 401, 5)]  # -400 sigma .. 400 sigma


@pytest.mark.parametrize("family,kw", LOGP_FAMILIES)
def test_logp_kernel_stays_finite_and_exact_where_probabilities_underflow(family, kw):
    p = params(family=family, **kw)
    v = np.array(TAIL_V)
    for outcome, score in (("H", 1.0), ("D", 0.5), ("A", 0.0)):
        if family is ModelFamily.BINARY and outcome == "D":
            continue
        logp, slope, curvature = p.curve.logp(v, np.full(v.shape, score))
        assert np.isfinite(logp).all() and np.isfinite(slope).all()
        assert np.isfinite(curvature).all()
        for x, lp in zip(TAIL_V, logp):
            assert lp == pytest.approx(oracles.log_prob(x, outcome, p), rel=1e-12, abs=0)
    # the far end is beyond the floats: the underdog's probability is 0
    assert predict_probs(TAIL_V[-1], p).p_away == 0.0


# ---------------------------------------------------------------------------
# binary and elo-implicit are points of the davidson kernel, bit for bit
# ---------------------------------------------------------------------------

IDENTITY_GRID_V = [i * 10.0 for i in range(-300, 301)]  # -3000 .. 3000 in steps of 10


@pytest.mark.parametrize("sigma", [400.0, 600.0, 1000.0])
def test_binary_and_elo_implicit_are_exact_davidson_points(sigma):
    model = ModelParams(sigma=sigma)
    at_zero = ModelParams(sigma=sigma, kappa=0.0)
    at_two = ModelParams(sigma=sigma / 2, kappa=2.0)
    for v in IDENTITY_GRID_V:
        assert binary_probs(v, model) == davidson_probs(v, at_zero)
        assert elo_implicit_probs(v, model) == davidson_probs(v, at_two)


@pytest.mark.parametrize(
    "family,kappa,scale",
    [(ModelFamily.BINARY, 0.0, 1.0), (ModelFamily.ELO_IMPLICIT, 2.0, 0.5)],
)
def test_binary_and_elo_implicit_curves_are_davidson_at_their_points(family, kappa, scale):
    v = np.repeat(np.array(IDENTITY_GRID_V), 3)
    s = np.tile([1.0, 0.5, 0.0], len(IDENTITY_GRID_V))
    model = params(family=family, kappa=0.7)
    assert type(model.curve) is Davidson and model.curve == (scale * model.sigma, kappa)
    with np.errstate(divide="ignore"):
        got = model.curve.logp(v, s)
        want = Davidson(scale * model.sigma, kappa).logp(v, s)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import KAPPAS, run_cli
from drawelo.data import serialize_matches
from drawelo.models import ModelFamily, ModelParams, predict_probs
from drawelo.sim import (
    SimSpec,
    _PCG64,
    generate_schedule,
    generate_season,
    recovery_metrics,
    sample_outcome,
)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_covers_every_ordered_pair_once():
    pairs = generate_schedule(20)
    assert len(pairs) == 380
    assert len(set(pairs)) == 380
    assert set(pairs) == {(i, j) for i in range(20) for j in range(20) if i != j}


def test_schedule_two_teams():
    assert generate_schedule(2) == [(0, 1), (1, 0)]


def test_schedule_appearance_counts():
    pairs = generate_schedule(8)
    counts = Counter()
    for home, away in pairs:
        counts[home] += 1
        counts[away] += 1
    assert all(count == 2 * 7 for count in counts.values())


def test_schedule_odd_team_count():
    pairs = generate_schedule(5)
    assert len(pairs) == 20
    assert set(pairs) == {(i, j) for i in range(5) for j in range(5) if i != j}


def test_schedule_multiple_rounds():
    assert len(generate_schedule(6, rounds=3)) == 3 * 30
    assert generate_schedule(6, rounds=2)[:30] == generate_schedule(6)


def test_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_schedule(1)
    with pytest.raises(ValueError):
        generate_schedule(4, rounds=0)


# ---------------------------------------------------------------------------
# outcome sampling
# ---------------------------------------------------------------------------


def test_kappa_zero_never_draws():
    rng = np.random.default_rng(0)
    model = ModelParams(kappa=0.0)
    for v in (-900.0, -60.0, 0.0, 150.0, 1200.0):
        assert all(sample_outcome(v, model, rng) != "D" for _ in range(400))


def test_large_difference_forces_home_win():
    rng = np.random.default_rng(1)
    model = ModelParams(kappa=0.7)
    assert all(sample_outcome(1e7, model, rng) == "H" for _ in range(200))


def test_equal_ratings_kappa2_draw_rate_near_half():
    rng = np.random.default_rng(2)
    model = ModelParams(kappa=2.0)
    n = 100_000
    draws = sum(1 for _ in range(n) if sample_outcome(0.0, model, rng) == "D")
    assert abs(draws / n - 0.5) < 0.01


@pytest.mark.parametrize("kappa", [0.0, 0.7, 2.0])
@pytest.mark.parametrize("v", [-600.0, 0.0, 240.0])
def test_sampled_frequencies_match_the_model(kappa, v):
    # 3-sigma binomial band per component at N=20000, fixed stream
    rng = np.random.default_rng(1234)
    model = ModelParams(kappa=kappa, eta=0.0)
    n = 20_000
    counts = Counter(sample_outcome(v, model, rng) for _ in range(n))
    probs = predict_probs(v, model)
    for outcome in "HDA":
        p = probs.prob_of(outcome)
        band = 3.0 * math.sqrt(p * (1.0 - p) / n)
        assert abs(counts[outcome] / n - p) <= max(band, 1e-12)


# ---------------------------------------------------------------------------
# season generation
# ---------------------------------------------------------------------------


def ladder(n, gap):
    return {f"T{i:02d}": ((n - 1) / 2 - i) * gap for i in range(n)}


def test_generate_season_is_deterministic():
    spec = SimSpec(theta_true=ladder(10, 50.0), model=ModelParams(eta=0.3), seed=42)
    a, b = generate_season(spec), generate_season(spec)
    assert serialize_matches(a) == serialize_matches(b)
    assert a.games == b.games


def test_generate_season_seed_changes_the_outcomes():
    base = SimSpec(theta_true=ladder(10, 50.0), seed=1)
    other = SimSpec(theta_true=ladder(10, 50.0), seed=2)
    assert [g.outcome for g in generate_season(base).games] != [
        g.outcome for g in generate_season(other).games
    ]


def test_generate_season_dimensions():
    season = generate_season(SimSpec(theta_true=ladder(20, 60.0), seed=0))
    assert season.n_games == 380 and season.n_teams == 20
    two = generate_season(SimSpec(theta_true=ladder(6, 60.0), rounds=2, seed=0))
    assert two.n_games == 2 * 30


def test_generate_season_kappa_zero_has_no_draws():
    spec = SimSpec(theta_true=ladder(8, 40.0), model=ModelParams(kappa=0.0), seed=3)
    assert all(g.outcome != "D" for g in generate_season(spec).games)


def test_equal_strength_kappa2_league_draws_about_half():
    spec = SimSpec(
        theta_true={f"T{i:02d}": 0.0 for i in range(20)},
        model=ModelParams(kappa=2.0, eta=0.0),
        seed=5,
    )
    season = generate_season(spec)
    p_draw = sum(1 for g in season.games if g.outcome == "D") / season.n_games
    assert abs(p_draw - 0.5) < 0.05


def test_sim_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(theta_true={"A": 0.0})
    # rounds is an integer >= 1; 1.5 and "2" once passed and failed in generate_season
    for rounds in (0, -1, 1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="^rounds"):
            SimSpec(theta_true=ladder(4, 10.0), rounds=rounds)
    assert SimSpec(theta_true=ladder(4, 10.0), rounds=np.int64(2)).rounds == 2
    for seed in (-1, -(2**64), 1.0, 2.5, "3", None):
        with pytest.raises(ValueError, match="^seed"):
            SimSpec(theta_true=ladder(4, 10.0), seed=seed)
    for seed, expected in ((np.int64(7), 7), (np.uint32(2**32 - 1), 2**32 - 1), (2**130, 2**130)):
        spec = SimSpec(theta_true=ladder(4, 10.0), seed=seed)
        assert spec.seed == expected and type(spec.seed) is int


def test_sim_spec_pins_its_season_when_the_caller_changes_the_ratings():
    theta = ladder(3, 10.0)
    spec = SimSpec(theta_true=theta, seed=1)
    season = generate_season(spec)
    theta["D"] = 20.0
    assert spec.theta_true == ladder(3, 10.0) and spec.theta_true is not theta
    assert generate_season(spec) == season and season.n_games == 6


# ---------------------------------------------------------------------------
# the PCG64 stream against numpy's
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), n=st.integers(1, 300))
@example(seed=0, n=300)
@example(seed=2**32 - 1, n=300)
@example(seed=2**32, n=300)
@example(seed=2**64, n=300)
@example(seed=2**128 + 1, n=300)
def test_stream_matches_numpy_pcg64(seed, n):
    rng, reference = _PCG64(seed), np.random.Generator(np.random.PCG64(seed))
    assert [rng.random() for _ in range(n)] == [reference.random() for _ in range(n)]


@st.composite
def sim_specs(draw):
    n = draw(st.integers(2, 8))
    model = ModelParams(
        sigma=draw(st.floats(100.0, 1500.0)),
        kappa=draw(KAPPAS),
        eta=draw(st.sampled_from([0.0]) | st.floats(0.0, 0.6)),
        v0=draw(st.floats(0.0, 300.0)),
        family=draw(st.sampled_from(list(ModelFamily))),
    )
    theta = draw(st.lists(st.floats(-1000.0, 1000.0), min_size=n, max_size=n))
    return SimSpec(
        theta_true={f"T{i}": value for i, value in enumerate(theta)},
        model=model,
        rounds=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**130)),
    )


@settings(max_examples=100, deadline=None)
@given(spec=sim_specs())
def test_generate_season_matches_the_numpy_oracle(spec):
    expected = serialize_matches(oracles.generate_season(spec))
    assert serialize_matches(generate_season(spec)) == expected


# ---------------------------------------------------------------------------
# recovery metrics
# ---------------------------------------------------------------------------


def test_recovery_shift_is_perfect():
    truth = {"A": 100.0, "B": 0.0, "C": -50.0}
    estimate = {k: v + 777.0 for k, v in truth.items()}
    metrics = recovery_metrics(truth, estimate)
    assert metrics["rank_correlation"] == 1.0
    assert metrics["centered_rmse"] == pytest.approx(0.0, abs=1e-9)


def test_recovery_negation_reverses_ranks():
    truth = [3.0, 1.0, -2.0, 5.0]
    assert recovery_metrics(truth, [-x for x in truth])["rank_correlation"] == -1.0


def test_recovery_positive_scaling_keeps_ranks():
    truth = [3.0, 1.0, -2.0, 5.0]
    metrics = recovery_metrics(truth, [2.5 * x for x in truth])
    assert metrics["rank_correlation"] == 1.0
    assert metrics["centered_rmse"] > 0


def test_recovery_rank_correlation_averages_ties():
    # ranks [1, 2.5, 2.5, 4] and [1, 4, 2.5, 2.5]; centred at 2.5 they are
    # [-1.5, 0, 0, 1.5] and [-1.5, 1.5, 0, 0]: 2.25 / sqrt(4.5 * 4.5) = 0.5
    assert recovery_metrics([1.0, 2.0, 2.0, 3.0], [1.0, 3.0, 2.0, 2.0])["rank_correlation"] == 0.5
    # ranks [1.5, 1.5, 3] and [1, 2, 3]: 1.5 / sqrt(1.5 * 2) = sqrt(3) / 2
    rho = recovery_metrics([1.0, 1.0, 2.0], [10.0, 20.0, 30.0])["rank_correlation"]
    assert rho == pytest.approx(math.sqrt(3) / 2, abs=1e-15)


def test_cli_import_does_not_load_scipy():
    # nor the statistics module and what it imports; recovery_metrics loads no numpy
    result = run_cli([], driver=(
        "import drawelo.cli\n"
        "print(sorted({'scipy', 'statistics', 'fractions', 'decimal'} & set(sys.modules)))\n"
        "from drawelo.sim import recovery_metrics\n"
        "print(recovery_metrics([1.0, 2.0, 2.0], [0.0, 5.0, 3.0]))\n"
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode().splitlines() == [
        "[]",
        "{'rank_correlation': 0.8660254037844387, 'centered_rmse': 1.632993161855452}",
        "[]",
    ]


def test_recovery_constant_vector_has_undefined_ranks():
    metrics = recovery_metrics([0.0, 0.0, 0.0], [1.0, 5.0, -2.0])
    assert math.isnan(metrics["rank_correlation"])
    assert metrics["centered_rmse"] > 0


def test_recovery_metrics_rejects_mismatches():
    with pytest.raises(ValueError):
        recovery_metrics([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        recovery_metrics({"A": 1.0, "B": 2.0}, {"A": 1.0, "C": 2.0})
    with pytest.raises(ValueError):
        recovery_metrics({"A": 1.0, "B": 2.0}, [1.0, 2.0])
    with pytest.raises(ValueError):
        recovery_metrics([1.0], [2.0])
    # a non-finite rating is named before any ranking: by player, or by position
    with pytest.raises(ValueError, match=r"^estimated rating of position 2 is nan, not finite$"):
        recovery_metrics([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, math.nan, 3.0])
    with pytest.raises(ValueError, match=r"^true rating of position 1 is nan, not finite$"):
        recovery_metrics([1.0, math.nan, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=r"^true rating of player 'C' is -inf, not finite$"):
        recovery_metrics({"A": 1.0, "B": 2.0, "C": -math.inf}, {"A": 1.0, "B": 2.0, "C": 3.0})
    with pytest.raises(ValueError, match=r"^estimated rating of player 'B' is inf, not finite$"):
        recovery_metrics({"A": 1.0, "B": 2.0}, {"B": math.inf, "A": 1.0})


@pytest.mark.parametrize("theta_true", [[1e308, 1e308, -1e308], [1e200, 0.0, -1e200]],
                         ids=["sum-overflows", "square-overflows"])
def test_recovery_metrics_of_large_finite_ratings(theta_true):
    # the sum of the ratings, or the squares of their differences, leave the
    # float range; the oracle on the same ratings scaled exactly by 2**-600 does not
    theta_est = [0.0, 1.0, 2.0]
    scaled = oracles.recovery_metrics(*([math.ldexp(x, -600) for x in vec]
                                        for vec in (theta_true, theta_est)))
    got = recovery_metrics(theta_true, theta_est)
    assert got["rank_correlation"] == pytest.approx(scaled["rank_correlation"], rel=1e-12)
    assert got["centered_rmse"] == pytest.approx(math.ldexp(scaled["centered_rmse"], 600),
                                                 rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), j=st.integers(-900, 900))
def test_recovery_metrics_scale_exactly_by_powers_of_two(data, j):
    # the RMSE is computed on the ratings scaled by a power of two, which
    # commutes with every operation in it: scaling the ratings by 2**j scales
    # the RMSE by exactly 2**j and leaves the ranks as they are
    magnitudes = st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
    n = data.draw(st.integers(2, 30))
    pair = [data.draw(st.lists(magnitudes, min_size=n, max_size=n)) for _ in range(2)]
    got = recovery_metrics(*pair)
    scaled = recovery_metrics(*([math.ldexp(x, j) for x in vec] for vec in pair))
    assert scaled["centered_rmse"] == math.ldexp(got["centered_rmse"], j)
    assert scaled["rank_correlation"] == got["rank_correlation"] or (
        math.isnan(scaled["rank_correlation"]) and math.isnan(got["rank_correlation"]))


RATINGS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-1000.0, 1000.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), as_mapping=st.booleans())
def test_recovery_metrics_match_the_textbook_oracle(data, as_mapping):
    # ties (a few repeated values) and constant vectors (nan rank correlation) included
    n = data.draw(st.integers(2, 30))
    pair = [data.draw(st.lists(RATINGS, min_size=n, max_size=n) | RATINGS.map(lambda x: [x] * n))
            for _ in range(2)]
    expected = oracles.recovery_metrics(*pair)
    if as_mapping:  # the estimate's keys in the reverse order
        pair = [{f"P{i}": pair[0][i] for i in range(n)},
                {f"P{i}": pair[1][i] for i in reversed(range(n))}]
    got = recovery_metrics(*pair)
    for key in ("rank_correlation", "centered_rmse"):
        if math.isnan(expected[key]):
            assert math.isnan(got[key])
        else:
            assert got[key] == pytest.approx(expected[key], rel=1e-12, abs=1e-12)

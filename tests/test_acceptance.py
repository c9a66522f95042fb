"""Acceptance suite: one test per release criterion, one printed line each.

Criteria 7 and 8 need the real English Premier League season files from
football-data.co.uk (E0.csv per season, saved as data/epl/<YYYY-YYYY>.csv
or pointed at via DRAWELO_EPL_DIR); they skip when the files are absent.
"""

import math
import time

import numpy as np
import pytest

from conftest import epl_path, game, random_games
from drawelo.data import load_matches, odds_to_probs
from drawelo.engine import (
    EngineConfig,
    RatingState,
    UpdateMode,
    batch_ml_fit,
    nll_gradient,
    predict,
    run_season,
)
from drawelo.evaluation import (
    empirical_stats,
    evaluate_scores,
    implied_draw_freq,
    log_score,
    score_games,
)
from drawelo.models import Davidson, ModelFamily, ModelParams, predict_probs
from drawelo.sim import SimSpec, generate_season, recovery_metrics
from oracles import elo_implicit, finite_diff_gradient, logistic

SIGMA = 600.0
GRID_V = [i * SIGMA / 10 for i in range(-50, 51)]
KAPPAS = [0.0, 0.4, 0.7, 1.0, 2.0]
TOL = 1e-12


def report(criterion, elapsed, detail):
    print(f"ACCEPTANCE {criterion} PASS ({elapsed:.2f}s): {detail}")


def test_acceptance_1_model_identities():
    start = time.perf_counter()
    families = (
        [ModelParams(sigma=SIGMA, kappa=k) for k in KAPPAS]
        + [ModelParams(sigma=SIGMA, family=ModelFamily.ELO_IMPLICIT)]
        + [ModelParams(sigma=SIGMA, v0=w, family=ModelFamily.THRESHOLD)
           for w in (0.0, 300.0, 600.0)]
        + [ModelParams(sigma=SIGMA, family=ModelFamily.BINARY)]
    )
    for model in families:
        for v in GRID_V:
            probs, mirror = predict_probs(v, model), predict_probs(-v, model)
            assert abs(probs.p_home + probs.p_away + probs.p_draw - 1.0) < TOL
            assert abs(probs.p_home - mirror.p_away) < TOL
            assert abs(probs.p_draw - mirror.p_draw) < TOL
    for v in GRID_V:
        none = ModelParams(sigma=SIGMA, kappa=0.0)
        assert abs(predict_probs(v, none).p_home - logistic(v, SIGMA)) < TOL
        dav = predict_probs(v, ModelParams(sigma=SIGMA, kappa=2.0))
        elo_home, elo_away, elo_draw = elo_implicit(v, 2 * SIGMA)
        assert abs(dav.p_home - elo_home) < TOL
        assert abs(dav.p_away - elo_away) < TOL
        assert abs(dav.p_draw - elo_draw) < TOL
        for kappa in KAPPAS:
            f_kappa = Davidson(SIGMA, kappa).expected_score
            assert abs(f_kappa(v) + f_kappa(-v) - 1.0) < TOL
    for kappa in (1.0, 2.0):
        probs = predict_probs(0.0, ModelParams(sigma=SIGMA, kappa=kappa))
        assert probs.p_draw >= probs.p_home
    report(1, time.perf_counter() - start,
           "normalization, symmetry, reductions, antisymmetry, draw dominance at 1e-12")


def test_acceptance_2_equal_rating_elo_prediction_is_exact():
    start = time.perf_counter()
    state = RatingState(ratings={"A": 0.0, "B": 0.0})
    config = EngineConfig(model=ModelParams(sigma=SIGMA, eta=0.0), mode=UpdateMode.ELO)
    probs = predict(state, "A", "B", config)
    assert (probs.p_home, probs.p_away, probs.p_draw) == (0.25, 0.25, 0.5)
    direct = predict_probs(0.0, ModelParams(sigma=SIGMA, family=ModelFamily.ELO_IMPLICIT))
    assert (direct.p_home, direct.p_away, direct.p_draw) == (0.25, 0.25, 0.5)
    report(2, time.perf_counter() - start, "equal-rating Elo prediction is exactly (0.25, 0.25, 0.5)")


def test_acceptance_3_kappa_draw_frequency_round_trip():
    start = time.perf_counter()
    for p_draw in np.linspace(0.0, 0.9, 91):
        kappa = 2 * p_draw / (1 - p_draw)
        assert abs(implied_draw_freq(kappa) - p_draw) < TOL
    for kappa in np.linspace(0.0, 10.0, 101):
        back = implied_draw_freq(kappa)
        assert abs(2 * back / (1 - back) - kappa) < 1e-9 * max(1.0, kappa)
    assert implied_draw_freq(2.0) == 0.5
    quarter = empirical_stats(
        [game("A", "B", "D" if i < 25 else "H", day=i) for i in range(100)]
    )
    assert abs(quarter.kappa_bar - 2 / 3) < TOL
    assert round(quarter.kappa_bar, 1) == 0.7
    report(3, time.perf_counter() - start,
           "implied_draw_freq and kappa_bar invert each other; kappa=2 -> 0.5, p_draw=0.25 -> 2/3")


def test_acceptance_4_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(1009)
    cases = {
        ModelFamily.DAVIDSON: {"kappa": 0.7},
        ModelFamily.ELO_IMPLICIT: {},
        ModelFamily.BINARY: {},
        ModelFamily.THRESHOLD: {"v0": 200.0},
    }
    worst = 0.0
    for family, kw in cases.items():
        for _ in range(20):
            players = [f"P{i}" for i in range(int(rng.integers(3, 7)))]
            model = ModelParams(
                sigma=SIGMA, eta=float(rng.uniform(0, 0.5)), family=family, **kw
            )
            theta = {p: float(rng.normal(scale=400.0)) for p in players}
            games = random_games(
                rng, players, 30, allow_draws=family is not ModelFamily.BINARY
            )
            grad = nll_gradient(theta, games, model)
            oracle = finite_diff_gradient(theta, games, model, step=1e-4 * SIGMA)
            scale = max(max(abs(x) for x in oracle.values()), 1e-12)
            err = max(abs(grad[p] - oracle[p]) for p in players) / scale
            worst = max(worst, err)
            assert err < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, elapsed, f"80 randomized instances, worst relative error {worst:.2e}")


def test_acceptance_5_batch_ml_matches_independent_oracles(two_player_record):
    start = time.perf_counter()
    # (a) two players, 2-1 record: stationarity in closed form
    binary = ModelParams(sigma=SIGMA, eta=0.0, family=ModelFamily.BINARY)
    fit = batch_ml_fit(two_player_record, binary)
    diff = fit.theta["A"] - fit.theta["B"]
    assert abs(diff - SIGMA * math.log10(2)) < SIGMA / 1000

    # (b) three players, two games each: exhaustive zero-sum grid search,
    # scored with an independently coded davidson likelihood
    games = [game("A", "B", "H", 0), game("B", "C", "H", 1), game("C", "A", "D", 2)]
    kappa, eta = 0.7, 0.3
    model = ModelParams(sigma=SIGMA, kappa=kappa, eta=eta)
    fit3 = batch_ml_fit(games, model)
    assert fit3.converged

    axis = np.arange(-2 * SIGMA, 2 * SIGMA + 1e-9, SIGMA / 200)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    shift = eta * SIGMA

    def log_p_home(v):
        z = 0.5 * v / SIGMA
        return z * math.log(10) - np.log(10.0**z + 10.0**-z + kappa)

    def log_p_draw(v):
        z = 0.5 * v / SIGMA
        return math.log(kappa) - np.log(10.0**z + 10.0**-z + kappa)

    total = -(
        log_p_home((a - b) + shift)
        + log_p_home((a + 2 * b) + shift)
        + log_p_draw((-2 * a - b) + shift)
    )
    flat = int(np.argmin(total))
    i, j = np.unravel_index(flat, total.shape)
    assert 0 < i < len(axis) - 1 and 0 < j < len(axis) - 1  # interior optimum
    grid_theta = {"A": axis[i], "B": axis[j], "C": -axis[i] - axis[j]}
    for player in grid_theta:
        assert abs(fit3.theta[player] - grid_theta[player]) < SIGMA / 100
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, elapsed,
           f"2-player diff {diff:.3f} vs {SIGMA * math.log10(2):.3f}; "
           f"3-player fit within sigma/100 of grid argmin")


def test_acceptance_6_synthetic_recovery():
    start = time.perf_counter()
    theta_true = {f"T{i:02d}": (9.5 - i) * 0.1 * SIGMA for i in range(20)}
    model = ModelParams(sigma=SIGMA, kappa=0.7, eta=0.3)
    config = EngineConfig(model=model, k_tilde=0.125, mode=UpdateMode.KAPPA_ELO)
    correlations = []
    for seed in range(20):
        season = generate_season(SimSpec(theta_true=theta_true, model=model, seed=seed))
        result = run_season(season.games, config, players=list(theta_true))
        metrics = recovery_metrics(theta_true, result.state.ratings)
        correlations.append(metrics["rank_correlation"])
    mean_corr = sum(correlations) / len(correlations)
    elapsed = time.perf_counter() - start
    assert mean_corr >= 0.85
    assert elapsed < 60.0
    report(6, elapsed, f"mean rank correlation over 20 seeds: {mean_corr:.3f}")


def _season_mean_ls(dataset, mode, kappa, check_kappa=1.0):
    config = EngineConfig(
        model=ModelParams(sigma=SIGMA, kappa=kappa, eta=0.3),
        k_tilde=0.125,
        mode=mode,
        check_kappa=check_kappa,
    )
    result = run_season(dataset.games, config, players=dataset.team_names)
    scores = score_games(result.predictions, dataset.games)
    return evaluate_scores(scores, window="second-half")


def test_acceptance_7_premier_league_2017_2018_scores():
    path = epl_path("2017-2018")
    if path is None:
        pytest.skip("ACCEPTANCE 7 SKIP: supply data/epl/2017-2018.csv (football-data.co.uk E0)")
    start = time.perf_counter()
    dataset = load_matches(path)
    assert dataset.n_games == 380 and dataset.n_teams == 20

    kappa_07 = _season_mean_ls(dataset, UpdateMode.KAPPA_ELO, 0.7).mean_ls
    kappa_10 = _season_mean_ls(dataset, UpdateMode.KAPPA_ELO, 1.0).mean_ls
    elo_check = _season_mean_ls(dataset, UpdateMode.ELO_CHECK_KAPPA, 0.7, check_kappa=1.0).mean_ls

    bet365_scores = [
        log_score(odds_to_probs(*g.odds), g.outcome) for g in dataset.games[190:]
    ]
    bet365 = sum(bet365_scores) / len(bet365_scores)

    assert abs(kappa_07 - 0.99) <= 0.02
    assert abs(kappa_10 - 0.99) <= 0.02
    assert abs(elo_check - 0.99) <= 0.02
    assert abs(bet365 - 0.97) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(7, elapsed,
           f"kappa=0.7: {kappa_07:.3f}, kappa=1: {kappa_10:.3f}, "
           f"elo-check: {elo_check:.3f}, bookmaker: {bet365:.3f}")


def test_acceptance_8_low_draw_season_prefers_matched_kappa():
    path = epl_path("2013-2014")
    if path is None:
        pytest.skip("ACCEPTANCE 8 SKIP: supply data/epl/2013-2014.csv (football-data.co.uk E0)")
    start = time.perf_counter()
    dataset = load_matches(path)
    low = _season_mean_ls(dataset, UpdateMode.KAPPA_ELO, 0.4).mean_ls
    high = _season_mean_ls(dataset, UpdateMode.KAPPA_ELO, 2.0).mean_ls
    assert low < high
    report(8, time.perf_counter() - start,
           f"kappa=0.4 scores {low:.3f} < kappa=2 scores {high:.3f}")


def test_acceptance_9_true_kappa_beats_kappa_two_by_margin():
    start = time.perf_counter()
    kappa_true = 0.7
    theta = {f"T{i:02d}": (9.5 - i) * 60.0 for i in range(20)}
    spec = SimSpec(
        theta_true=theta,
        model=ModelParams(sigma=SIGMA, kappa=kappa_true, eta=0.0),
        rounds=27,  # 27 * 380 = 10260 games
        seed=2024,
    )
    season = generate_season(spec)
    games = season.games[:10000]

    def mean_ls(kappa):
        model = ModelParams(sigma=SIGMA, kappa=kappa, eta=0.0)
        total = 0.0
        for g in games:
            v = theta[g.home_id] - theta[g.away_id]
            total += log_score(predict_probs(v, model), g.outcome)
        return total / len(games)

    truth, mismatched = mean_ls(kappa_true), mean_ls(2.0)
    margin = mismatched - truth
    assert margin > 0.005
    report(9, time.perf_counter() - start,
           f"true kappa scores {truth:.4f}, kappa=2 scores {mismatched:.4f} (margin {margin:.4f})")

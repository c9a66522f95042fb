import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import BOTH_PATHS, check_report, game, online_cases, random_games, stepping
from drawelo import engine
from drawelo.engine import (
    EngineConfig,
    RatingState,
    UpdateMode,
    batch_ml_fit,
    compile_season,
    nll,
    nll_gradient,
    predict,
    rating_difference,
    run_online,
    run_season,
    score_of,
    sg_update,
)
from drawelo.evaluation import evaluate_scores, score_games
from drawelo.errors import ConvergenceError, ZeroProbabilityError
from drawelo.models import ModelFamily, ModelParams, davidson_probs, logistic_cdf
from drawelo.sim import generate_schedule
from oracles import finite_diff_gradient

SIGMA = 600.0


def config(mode=UpdateMode.KAPPA_ELO, kappa=0.7, eta=0.0, sigma=SIGMA, k_tilde=0.125, **kw):
    return EngineConfig(
        model=ModelParams(sigma=sigma, kappa=kappa, eta=eta),
        k_tilde=k_tilde,
        mode=mode,
        **kw,
    )


def fit_model(family=ModelFamily.DAVIDSON, kappa=0.7, eta=0.0, v0=0.0, sigma=SIGMA):
    return ModelParams(sigma=sigma, kappa=kappa, eta=eta, v0=v0, family=family)


# ---------------------------------------------------------------------------
# scores and differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "outcome,side,expected",
    [("H", "home", 1.0), ("H", "away", 0.0),
     ("A", "home", 0.0), ("A", "away", 1.0),
     ("D", "home", 0.5), ("D", "away", 0.5)],
)
def test_score_of(outcome, side, expected):
    assert score_of(outcome, side) == expected


def test_score_of_sides_sum_to_one():
    for outcome in "HDA":
        assert score_of(outcome, "home") + score_of(outcome, "away") == 1.0


def test_score_of_rejects_bad_side():
    with pytest.raises(ValueError):
        score_of("H", "left")


def test_rating_difference():
    state = RatingState(ratings={"A": 180.0, "B": 60.0})
    assert rating_difference(state, "A", "B") == 120.0
    assert rating_difference(state, "B", "A") == -120.0
    assert rating_difference(state, "X", "Y") == 0.0
    assert rating_difference(state, "X", "Y", initial_rating=25.0) == 0.0


def test_rating_difference_origin_invariance():
    state = RatingState(ratings={"A": 180.0, "B": 60.0})
    shifted = RatingState(ratings={k: v + 1234.5 for k, v in state.ratings.items()})
    assert rating_difference(shifted, "A", "B") == rating_difference(state, "A", "B")


# ---------------------------------------------------------------------------
# online updates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(UpdateMode))
def test_draw_between_equals_is_a_fixed_point(mode):
    state = RatingState(ratings={"A": 0.0, "B": 0.0})
    sg_update(state, game("A", "B", "D"), config(mode=mode))
    assert state.ratings == {"A": 0.0, "B": 0.0}
    assert state.games_processed == 1


@pytest.mark.parametrize("kappa", [0.0, 0.7, 2.0])
def test_home_win_between_equals_moves_half_step(kappa):
    cfg = config(kappa=kappa)
    state = RatingState(ratings={"A": 0.0, "B": 0.0})
    sg_update(state, game("A", "B", "H"), cfg)
    k = cfg.k_tilde * SIGMA
    assert state.ratings["A"] == k / 2
    assert state.ratings["B"] == -k / 2


@pytest.mark.parametrize("mode", list(UpdateMode))
def test_updates_are_exactly_zero_sum(mode):
    rng = np.random.default_rng(7)
    players = [f"P{i}" for i in range(6)]
    state = RatingState()
    cfg = config(mode=mode, eta=0.3, initial_rating=10.0)
    for g in random_games(rng, players, 200):
        sg_update(state, g, cfg)
    assert sum(state.ratings.values()) == pytest.approx(10.0 * len(players), abs=1e-9)


def test_unknown_players_are_initialized():
    state = RatingState()
    sg_update(state, game("A", "B", "H"), config(initial_rating=100.0))
    assert state.ratings["A"] + state.ratings["B"] == pytest.approx(200.0)


def test_home_advantage_applies_inside_the_update():
    # with a shifted difference a draw between equals is no longer neutral
    state = RatingState(ratings={"A": 0.0, "B": 0.0})
    sg_update(state, game("A", "B", "D"), config(eta=0.3))
    assert state.ratings["A"] < 0 < state.ratings["B"]


def test_step_is_scale_normalized():
    small, big = config(sigma=600.0), config(sigma=1200.0)
    s1 = RatingState(ratings={"A": 0.0, "B": 0.0})
    s2 = RatingState(ratings={"A": 0.0, "B": 0.0})
    sg_update(s1, game("A", "B", "H"), small)
    sg_update(s2, game("A", "B", "H"), big)
    assert s2.ratings["A"] == 2 * s1.ratings["A"]


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_predict_classic_elo_between_equals():
    state = RatingState(ratings={"A": 0.0, "B": 0.0})
    probs = predict(state, "A", "B", config(mode=UpdateMode.ELO))
    assert (probs.p_home, probs.p_away, probs.p_draw) == (0.25, 0.25, 0.5)


def test_predict_check_kappa_one_gives_thirds():
    state = RatingState(ratings={"A": 0.0, "B": 0.0})
    probs = predict(state, "A", "B", config(mode=UpdateMode.ELO_CHECK_KAPPA, check_kappa=1.0))
    assert probs.p_home == pytest.approx(1 / 3, abs=1e-15)
    assert probs.p_away == pytest.approx(1 / 3, abs=1e-15)
    assert probs.p_draw == pytest.approx(1 / 3, abs=1e-15)


def test_predict_kappa_zero_never_draws():
    state = RatingState(ratings={"A": 40.0, "B": -25.0})
    assert predict(state, "A", "B", config(kappa=0.0)).p_draw == 0.0


# ---------------------------------------------------------------------------
# season runs
# ---------------------------------------------------------------------------


def test_run_season_predicts_before_updating():
    games = [game("A", "B", "H", 0), game("A", "B", "H", 1)]
    cfg = config()
    result = run_season(games, cfg)
    fresh = RatingState(ratings={"A": 0.0, "B": 0.0})
    assert result.predictions[0] == predict(fresh, "A", "B", cfg)
    sg_update(fresh, games[0], cfg)
    assert result.predictions[1] == predict(fresh, "A", "B", cfg)
    assert result.predictions[1].p_home > result.predictions[0].p_home


def test_run_season_empty():
    result = run_season([], config(), players=["A", "B"])
    assert result.predictions == [] and result.trajectory == []
    assert result.state.ratings == {"A": 0.0, "B": 0.0}


def test_run_season_rating_sum_is_conserved():
    rng = np.random.default_rng(3)
    players = [f"P{i}" for i in range(8)]
    cfg = config(eta=0.3, initial_rating=5.0)
    result = run_season(random_games(rng, players, 150), cfg, players=players)
    assert sum(result.state.ratings.values()) == pytest.approx(5.0 * len(players), abs=1e-9)
    assert result.state.games_processed == 150
    assert len(result.trajectory) == 150


def test_season_scale_invariance():
    rng = np.random.default_rng(11)
    players = [f"P{i}" for i in range(6)]
    games = random_games(rng, players, 80)
    base = run_season(games, config(sigma=600.0, eta=0.3), players=players)
    scaled = run_season(games, config(sigma=1200.0, eta=0.3), players=players)
    for p, q in zip(base.predictions, scaled.predictions):
        assert q.p_home == pytest.approx(p.p_home, abs=1e-9)
        assert q.p_draw == pytest.approx(p.p_draw, abs=1e-9)
    for player in players:
        assert scaled.state.ratings[player] == pytest.approx(
            2 * base.state.ratings[player], rel=1e-9, abs=1e-9
        )


def test_classic_elo_equals_kappa_two_at_double_scale():
    # classic Elo at scale 2s is kappa-Elo with kappa=2 at scale s once the
    # scale-relative knobs are rescaled (step and home shift both carry a
    # factor sigma): the expected scores then coincide pointwise
    rng = np.random.default_rng(13)
    players = [f"P{i}" for i in range(6)]
    games = random_games(rng, players, 50)
    elo = run_season(games, config(mode=UpdateMode.ELO, sigma=1200.0, k_tilde=0.125, eta=0.3),
                     players=players)
    kap = run_season(games, config(kappa=2.0, sigma=600.0, k_tilde=0.25, eta=0.6),
                     players=players)
    for snap_e, snap_k in zip(elo.trajectory, kap.trajectory):
        for player in players:
            assert snap_k[player] == pytest.approx(snap_e[player], abs=1e-9)
    for p, q in zip(elo.predictions, kap.predictions):
        assert q.p_home == pytest.approx(p.p_home, abs=1e-12)
        assert q.p_draw == pytest.approx(p.p_draw, abs=1e-12)


def test_expected_score_identity_for_classic_elo():
    # mean score under the implicit draw model is the plain logistic cdf
    state = RatingState(ratings={"A": 0.0, "B": 0.0})
    cfg = config(mode=UpdateMode.ELO)
    for delta in [i * 60.0 for i in range(-50, 51)]:
        state.ratings["A"] = delta
        probs = predict(state, "A", "B", cfg)
        expected = probs.p_home + 0.5 * probs.p_draw
        assert expected == pytest.approx(logistic_cdf(delta, SIGMA), abs=1e-12)


# ---------------------------------------------------------------------------
# compiled seasons and the online kernel
# ---------------------------------------------------------------------------


def test_compile_season_splits_runs_of_disjoint_games():
    # a run ends when either side has already played in it: game 2 repeats
    # the home team A, game 4 only the away team D
    games = [game("A", "B", "H", 0), game("C", "D", "D", 1), game("A", "C", "A", 2),
             game("B", "D", "H", 3), game("E", "D", "D", 4), game("B", "A", "H", 5)]
    season = compile_season(games, players=["Z", "C"])
    assert season.players == ["Z", "C", "A", "B", "D", "E"]
    assert season.home.tolist() == [2, 1, 2, 3, 5, 3]
    assert season.away.tolist() == [3, 4, 1, 4, 4, 2]
    assert season.score.tolist() == [1.0, 0.5, 0.0, 1.0, 0.5, 1.0]
    assert season.runs == [0, 2, 4, 6]
    assert season.known == [4, 5, 5, 5, 6, 6]
    assert season.mean_run == 2.0


def test_compile_season_empty():
    season = compile_season([], players=["A"])
    assert season.runs == [0] and season.known == [] and season.players == ["A"]
    assert season.mean_run == 0.0


@BOTH_PATHS
@settings(max_examples=200, deadline=None)
@given(case=online_cases(), players_kind=st.sampled_from(["omitted", "all", "subset"]))
def test_run_season_matches_the_scalar_oracle(vectorize, case, players_kind):
    config, teams, games = case
    players = {"omitted": None, "all": teams + ["Idle"], "subset": teams[::-2]}[players_kind]
    ratings, predictions, trajectory = oracles.run_season(games, config, players)
    with stepping(vectorize):
        result = run_season(games, config, players=players)

    scale = max([config.model.sigma] + [abs(r) for r in ratings.values()])
    assert list(result.state.ratings) == list(ratings)
    for player, rating in ratings.items():
        assert abs(result.state.ratings[player] - rating) <= 1e-12 * scale
    assert len(result.trajectory) == len(trajectory)
    for got, want in zip(result.trajectory, trajectory):
        assert list(got) == list(want)
        assert all(abs(got[p] - want[p]) <= 1e-12 * scale for p in want)
    assert len(result.predictions) == len(predictions)
    for got, want in zip(result.predictions, predictions):
        for field in ("p_home", "p_away", "p_draw"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12 * getattr(want, field)

    if not games:
        return
    scores = oracles.log_scores(predictions, games)
    if scores is None:
        with pytest.raises(ZeroProbabilityError, match="probability 0"):
            score_games(result.predictions, games)
        return
    report = evaluate_scores(score_games(result.predictions, games))
    check_report(report.mean_ls, report.interval_low, report.interval_high, scores)


@BOTH_PATHS
@settings(max_examples=50, deadline=None)
@given(cases=st.lists(online_cases(max_teams=6), min_size=2, max_size=4))
def test_run_online_cells_do_not_interact(vectorize, cases):
    # one pass over several configurations gives each exactly what it gets alone
    games = cases[0][2]
    season = compile_season(games)
    configs = [config for config, _, _ in cases]
    with stepping(vectorize):
        together = run_online(season, configs)
        alone = [run_online(season, [config]) for config in configs]
    for c, one in enumerate(alone):
        for field in ("diffs", "deltas", "probs", "ratings"):
            assert np.array_equal(getattr(together, field)[c], getattr(one, field)[0])


@BOTH_PATHS
def test_run_season_non_finite_difference_is_an_error(vectorize):
    with stepping(vectorize), pytest.raises(
        ValueError, match="rating difference must be finite, got nan"
    ):
        run_season([game("A", "B", "H")], config(initial_rating=math.inf))


def test_run_online_vectorizes_once_a_step_covers_enough_float_updates():
    # a circle-method round-robin of 20 teams has runs of 10 games
    games = [game(f"T{h}", f"T{a}", "D", i) for i, (h, a) in enumerate(generate_schedule(20))]
    season = compile_season(games)
    assert season.mean_run == 10.0
    for n_configs in (1, 4, 5, 32):
        with mock.patch.object(engine, "_step_runs", wraps=engine._step_runs) as step_runs:
            run_online(season, [config()] * n_configs)
        assert step_runs.called == (10.0 * n_configs >= engine.MIN_VECTOR_GAMES)


# ---------------------------------------------------------------------------
# lazy trajectory
# ---------------------------------------------------------------------------


def test_trajectory_snapshots_hold_the_players_seen_so_far():
    games = [game("A", "B", "H", 0), game("C", "D", "D", 1), game("A", "C", "A", 2)]
    result = run_season(games, config(eta=0.3))
    traj = result.trajectory
    assert len(traj) == 3
    assert list(traj[0]) == ["A", "B"]
    assert list(traj[1]) == ["A", "B", "C", "D"]
    assert traj[0]["A"] == -traj[0]["B"] > 0
    assert traj[1].get("C") == -traj[1]["D"]
    assert traj[-1] == traj[2] == result.state.ratings
    assert traj[1:] == [traj[1], traj[2]] and traj[::-2] == [traj[2], traj[0]]
    assert list(traj) == [traj[0], traj[1], traj[2]]
    assert traj == list(traj) and traj != list(traj)[:2]
    with pytest.raises(IndexError):
        traj[3]


def test_trajectory_slices_match_the_listed_snapshots():
    rng = np.random.default_rng(29)
    traj = run_season(random_games(rng, ["A", "B", "C", "D"], 25), config()).trajectory
    snapshots = list(traj)
    for part in (slice(None), slice(-1, None), slice(None, None, 7), slice(20, 3, -4),
                 slice(30, 40), slice(5, 5), slice(None, None, -1)):
        assert traj[part] == snapshots[part]
    assert [traj[i] for i in range(len(traj))] == snapshots


def test_trajectory_running_ratings_match_the_snapshots():
    rng = np.random.default_rng(23)
    players = [f"P{i}" for i in range(5)]
    result = run_season(random_games(rng, players, 40), config(eta=0.3), players=players)
    traj = result.trajectory
    assert traj.players == players
    for snapshot, running in zip(traj, traj.running()):
        assert list(snapshot.values()) == running


@pytest.mark.parametrize(
    "kw",
    [{"k_tilde": -0.1}, {"k_tilde": math.nan}, {"check_kappa": -1.0},
     {"check_kappa": math.nan}, {"check_kappa": math.inf}],
)
def test_engine_config_validation(kw):
    with pytest.raises(ValueError):
        EngineConfig(**kw)


# ---------------------------------------------------------------------------
# likelihood and gradient
# ---------------------------------------------------------------------------


def test_nll_single_draw_davidson_kappa2():
    theta = {"A": 0.0, "B": 0.0}
    value = nll(theta, [game("A", "B", "D")], fit_model(kappa=2.0))
    assert value == pytest.approx(math.log(2), abs=1e-12)


def test_nll_single_home_win_binary():
    theta = {"A": 0.0, "B": 0.0}
    value = nll(theta, [game("A", "B", "H")], fit_model(family=ModelFamily.BINARY))
    assert value == pytest.approx(math.log(2), abs=1e-12)


def test_nll_is_additive():
    rng = np.random.default_rng(5)
    players = ["A", "B", "C", "D"]
    theta = {p: rng.normal(scale=200.0) for p in players}
    first, second = random_games(rng, players, 10), random_games(rng, players, 7)
    model = fit_model(eta=0.3)
    assert nll(theta, first + second, model) == pytest.approx(
        nll(theta, first, model) + nll(theta, second, model), rel=1e-12
    )


def test_nll_zero_probability_names_the_game():
    theta = {"A": 0.0, "B": 0.0}
    with pytest.raises(ZeroProbabilityError, match="game 0.*A vs B"):
        nll(theta, [game("A", "B", "D")], fit_model(family=ModelFamily.BINARY))


def test_gradient_zero_at_draw_between_equals():
    theta = {"A": 0.0, "B": 0.0}
    grad = nll_gradient(theta, [game("A", "B", "D")], fit_model(kappa=0.7))
    assert grad == {"A": 0.0, "B": 0.0}


def test_gradient_sums_to_zero():
    rng = np.random.default_rng(17)
    players = ["A", "B", "C", "D", "E"]
    theta = {p: rng.normal(scale=300.0) for p in players}
    games = random_games(rng, players, 40)
    grad = nll_gradient(theta, games, fit_model(eta=0.3, kappa=0.7))
    assert sum(grad.values()) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "family,kw",
    [(ModelFamily.DAVIDSON, {"kappa": 0.7}),
     (ModelFamily.ELO_IMPLICIT, {}),
     (ModelFamily.BINARY, {}),
     (ModelFamily.THRESHOLD, {"v0": 200.0})],
)
def test_gradient_matches_finite_differences(family, kw):
    rng = np.random.default_rng(29)
    players = ["A", "B", "C", "D"]
    model = fit_model(family=family, eta=0.25, **kw)
    for _ in range(3):
        theta = {p: rng.normal(scale=400.0) for p in players}
        games = random_games(rng, players, 25, allow_draws=family is not ModelFamily.BINARY)
        grad = nll_gradient(theta, games, model)
        fd = finite_diff_gradient(theta, games, model)
        scale = max(max(abs(x) for x in fd.values()), 1e-12)
        for p in players:
            assert abs(grad[p] - fd[p]) / scale < 1e-6


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_nll_and_gradient_match_the_scalar_oracle(data):
    family = data.draw(st.sampled_from(list(ModelFamily)))
    sigma = data.draw(st.floats(50.0, 2000.0))
    # the oracle's threshold draw probability is threshold_probs, whose
    # product form keeps its digits in the tails as the kernel's does
    model = ModelParams(
        sigma=sigma,
        kappa=data.draw(st.floats(0.01, 5.0)),
        eta=data.draw(st.floats(0.0, 0.5)),
        v0=data.draw(st.floats(0.05, 1.0)) * sigma,
        family=family,
    )
    players = [f"P{i}" for i in range(data.draw(st.integers(2, 6)))]
    theta = {p: data.draw(st.floats(-1.5, 1.5)) * sigma for p in players}
    fixture = st.tuples(
        st.sampled_from(players),
        st.sampled_from(players),
        st.sampled_from("HA" if family is ModelFamily.BINARY else "HDA"),
    ).filter(lambda f: f[0] != f[1])
    fixtures = data.draw(st.lists(fixture, min_size=1, max_size=30))
    games = [game(h, a, o, day=i) for i, (h, a, o) in enumerate(fixtures)]

    expected = oracles.nll(theta, games, model)
    assert abs(nll(theta, games, model) - expected) <= 1e-12 * expected
    grad = nll_gradient(theta, games, model)
    expected_grad = oracles.nll_gradient(theta, games, model)
    scale = max(max(abs(g) for g in expected_grad.values()), 1.0 / model.sigma_prime)
    for p in players:
        assert abs(grad[p] - expected_grad[p]) <= 1e-12 * scale


@pytest.mark.parametrize(
    "family,kw",
    [(ModelFamily.DAVIDSON, {"kappa": 0.7}),
     (ModelFamily.ELO_IMPLICIT, {}),
     (ModelFamily.BINARY, {}),
     (ModelFamily.THRESHOLD, {"v0": 250.0})],
)
def test_nll_is_convex_along_segments(family, kw):
    rng = np.random.default_rng(41)
    players = ["A", "B", "C", "D", "E"]
    model = fit_model(family=family, eta=0.1, **kw)
    games = random_games(rng, players, 30, allow_draws=family is not ModelFamily.BINARY)
    for _ in range(5):
        a = {p: rng.normal(scale=500.0) for p in players}
        b = {p: rng.normal(scale=500.0) for p in players}
        ts = np.linspace(0.0, 1.0, 21)
        values = [
            nll({p: (1 - t) * a[p] + t * b[p] for p in players}, games, model)
            for t in ts
        ]
        for i in range(1, len(values) - 1):
            assert values[i - 1] - 2 * values[i] + values[i + 1] >= -1e-9


# ---------------------------------------------------------------------------
# batch fitting
# ---------------------------------------------------------------------------


def test_batch_fit_two_player_closed_form(two_player_record):
    # stationarity: the win probability must equal the 2/3 win rate,
    # so theta_A - theta_B = sigma * log10(2)
    result = batch_ml_fit(two_player_record, fit_model(family=ModelFamily.BINARY))
    assert result.converged
    diff = result.theta["A"] - result.theta["B"]
    assert diff == pytest.approx(SIGMA * math.log10(2), abs=SIGMA / 1000)
    assert result.theta["A"] + result.theta["B"] == pytest.approx(0.0, abs=1e-9)
    assert result.grad_max_norm < 1e-6 / fit_model().sigma_prime


def test_batch_fit_all_draws_gives_zero_vector():
    games = [game("A", "B", "D", 0), game("B", "C", "D", 1), game("C", "A", "D", 2)]
    result = batch_ml_fit(games, fit_model(kappa=1.0))
    for value in result.theta.values():
        assert value == pytest.approx(0.0, abs=1e-6)


def test_batch_fit_never_worse_than_flat_start():
    rng = np.random.default_rng(53)
    players = ["A", "B", "C", "D", "E", "F"]
    games = random_games(rng, players, 60)
    model = fit_model(eta=0.3, kappa=0.7)
    result = batch_ml_fit(games, model)
    flat = nll({p: 0.0 for p in players}, games, model)
    assert result.nll <= flat
    assert result.converged
    assert result.grad_max_norm < 1e-6 / model.sigma_prime


def test_batch_fit_separable_data_raises():
    games = [game("A", "B", "H", 0), game("A", "B", "H", 1)]
    with pytest.raises(ConvergenceError, match="won"):
        batch_ml_fit(games, fit_model(family=ModelFamily.BINARY))


def test_batch_fit_separable_groups_raise():
    # A and B each beat C and D, with draws inside each pair: no single
    # player won every game, but {A, B} won every game against {C, D}
    games = [game("A", "C", "H", 0), game("A", "D", "H", 1), game("B", "C", "H", 2),
             game("B", "D", "H", 3), game("A", "B", "D", 4), game("C", "D", "D", 5)]
    with pytest.raises(ConvergenceError, match="'A', 'B' won.*ridge"):
        batch_ml_fit(games, fit_model(kappa=0.7))


def test_batch_fit_pins_each_unconnected_group_to_zero_sum():
    # two groups that never meet; expected ratings from the steepest-descent
    # fit this Newton fit replaced, which kept each group's sum at zero
    games = [game("A", "B", "H", 0), game("B", "C", "H", 1), game("C", "A", "H", 2),
             game("A", "C", "H", 3), game("B", "A", "D", 4),
             game("D", "E", "H", 5), game("E", "D", "D", 6)]
    result = batch_ml_fit(games, fit_model(kappa=0.7))
    assert result.converged
    expected = {"A": 122.3545, "B": 31.464, "C": -153.8186, "D": 195.4394, "E": -195.4394}
    for player, rating in expected.items():
        assert result.theta[player] == pytest.approx(rating, abs=1e-3)
    assert sum(result.theta[p] for p in "ABC") == pytest.approx(0.0, abs=1e-9)
    assert sum(result.theta[p] for p in "DE") == pytest.approx(0.0, abs=1e-9)


def test_batch_fit_ladder_converges_in_few_newton_steps():
    from drawelo.sim import sample_outcome

    rng = np.random.default_rng(3)
    model = fit_model(eta=0.3, kappa=0.7)
    strength = {f"T{i:02d}": (19.5 - i) * 0.02 * SIGMA for i in range(40)}
    names = list(strength)
    pairs = [(home, away) for i, home in enumerate(names) for away in names[i + 1:]]
    games = [game(h, a, sample_outcome(strength[h] - strength[a], model, rng), day=k)
             for k, (h, a) in enumerate(pairs)]
    result = batch_ml_fit(games, model)
    assert result.converged
    assert result.iterations <= 10
    fd = finite_diff_gradient(result.theta, games, model)
    assert max(abs(g) for g in fd.values()) < 1e-6 / model.sigma_prime


def test_batch_fit_ridge_rescues_separable_data():
    games = [game("A", "B", "H", 0), game("A", "B", "H", 1)]
    result = batch_ml_fit(games, fit_model(family=ModelFamily.BINARY), ridge=1e-4)
    assert result.converged
    assert result.theta["A"] > 0 > result.theta["B"]


def test_batch_fit_rejects_draws_under_binary():
    games = [game("A", "B", "D")]
    with pytest.raises(ValueError, match="draw"):
        batch_ml_fit(games, fit_model(family=ModelFamily.BINARY))


def test_batch_fit_rejects_empty_input():
    with pytest.raises(ValueError):
        batch_ml_fit([], fit_model())


def test_batch_fit_recovers_a_simulated_season():
    from drawelo.sim import SimSpec, generate_season, recovery_metrics

    theta_true = {f"T{i:02d}": (9.5 - i) * 60.0 for i in range(20)}
    model = ModelParams(sigma=SIGMA, kappa=0.7, eta=0.3)
    season = generate_season(SimSpec(theta_true=theta_true, model=model, seed=0))
    result = batch_ml_fit(season.games, model)
    assert result.converged
    metrics = recovery_metrics(theta_true, result.theta)
    assert metrics["rank_correlation"] >= 0.9


def test_batch_fit_respects_home_advantage():
    # the same balanced record fits a negative home edge once eta > 0 is
    # part of the model: each side won once at home
    games = [game("A", "B", "H", 0), game("B", "A", "H", 1)]
    plain = batch_ml_fit(games, fit_model(kappa=0.7, eta=0.0))
    shifted = batch_ml_fit(games, fit_model(kappa=0.7, eta=0.3))
    assert plain.theta["A"] == pytest.approx(0.0, abs=1e-6)
    assert shifted.theta["A"] == pytest.approx(0.0, abs=1e-6)
    assert shifted.nll < plain.nll  # eta=0.3 explains two home wins better


@pytest.mark.parametrize("eta", [0.0, 0.3])
def test_predict_classic_elo_is_exactly_davidson_at_half_scale(eta):
    cfg = config(mode=UpdateMode.ELO, eta=eta)
    implicit = ModelParams(sigma=SIGMA / 2, kappa=2.0)
    state = RatingState(ratings={"A": 0.0, "B": 0.0})
    for v in [i * 10.0 for i in range(-300, 301)]:
        state.ratings["A"] = v
        assert predict(state, "A", "B", cfg) == davidson_probs(v + eta * SIGMA, implicit)


def test_nll_gradient_zero_probability_message_is_nll_s():
    theta = {"A": 0.0, "B": 0.0}
    games = [game("A", "B", "H"), game("A", "B", "D")]
    model = fit_model(family=ModelFamily.BINARY)
    with pytest.raises(ZeroProbabilityError) as from_nll:
        nll(theta, games, model)
    with pytest.raises(ZeroProbabilityError) as from_gradient:
        nll_gradient(theta, games, model)
    assert str(from_gradient.value) == str(from_nll.value)
    assert "game 1 (A vs B)" in str(from_gradient.value)


@pytest.mark.parametrize(
    "kw,name",
    [({"ridge": math.nan}, "ridge"), ({"ridge": -1.0}, "ridge"),
     ({"tol": math.nan}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": -1.0}, "tol"),
     ({"max_iters": 0}, "max_iters")],
)
def test_batch_ml_fit_rejects_bad_options_by_name(kw, name):
    games = [game("A", "B", "H"), game("B", "A", "H")]
    with pytest.raises(ValueError, match=f"^{name} "):
        batch_ml_fit(games, fit_model(), **kw)

import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import BOTH_PATHS, KAPPAS, check_report, game, online_cases, random_games
from drawelo import engine
from drawelo.data import load_matches
from drawelo.engine import (
    EngineConfig,
    Forecasts,
    RatingState,
    SeasonResult,
    UpdateMode,
    batch_ml_fit,
    compile_season,
    nll,
    nll_gradient,
    predict,
    run_online,
    run_season,
)
from drawelo.evaluation import evaluate_configs, evaluate_scores, score_games
from drawelo.errors import ConvergenceError, ZeroProbabilityError
from drawelo.models import (Davidson, ModelFamily, ModelParams, OutcomeProbs, Threshold,
                            predict_probs)
from drawelo.sim import SimSpec, generate_season, true_ratings
from oracles import finite_diff_gradient

SIGMA = 600.0
GOLDEN_SEASON = Path(__file__).resolve().parent / "golden" / "season.csv"


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
# update and forecast curves, and differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode,update_kappa,forecast", [
    ("kappa-elo", 0.7, (SIGMA, 0.7)),
    ("elo", 0.0, (0.5 * SIGMA, 2.0)),
    ("elo-check", 0.0, (SIGMA, 1.3)),
])
def test_each_mode_is_an_update_and_a_forecast_curve(mode, update_kappa, forecast):
    # the README's mode table: every mode steps with the model's shift and
    # step on davidson at (sigma, update kappa), and forecasts with davidson
    # at (sigma, kappa)
    cfg = config(mode, kappa=0.7, eta=0.3, k_tilde=0.125, check_kappa=1.3)
    shift, step, curve = cfg.update
    assert (shift, step) == (0.3 * SIGMA, 0.125 * SIGMA)
    assert type(curve) is Davidson and curve == (SIGMA, update_kappa)
    assert type(cfg.forecast) is Davidson and cfg.forecast == forecast


def test_rating_difference():
    # predict forecasts at theta_home - theta_away; an unseen player rates 0
    state = RatingState(ratings={"A": 180.0, "B": 60.0})
    cfg = config()
    assert predict(state, "A", "B", cfg) == predict_probs(120.0, cfg.model)
    assert predict(state, "B", "A", cfg) == predict_probs(-120.0, cfg.model)
    assert predict(state, "X", "Y", cfg) == predict_probs(0.0, cfg.model)
    assert predict(state, "A", "X", cfg) == predict_probs(180.0, cfg.model)


def test_rating_difference_origin_invariance():
    state = RatingState(ratings={"A": 180.0, "B": 60.0})
    shifted = RatingState(ratings={k: v + 1234.5 for k, v in state.ratings.items()})
    assert predict(shifted, "A", "B", config()) == predict(state, "A", "B", config())


# ---------------------------------------------------------------------------
# online updates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", list(UpdateMode))
def test_draw_between_equals_is_a_fixed_point(mode):
    result = run_season([game("A", "B", "D")], config(mode=mode))
    assert result.state.ratings == {"A": 0.0, "B": 0.0}
    assert len(result.trajectory) == 1


@pytest.mark.parametrize("kappa", [0.0, 0.7, 2.0])
def test_home_win_between_equals_moves_half_step(kappa):
    cfg = config(kappa=kappa)
    ratings = run_season([game("A", "B", "H")], cfg).state.ratings
    k = cfg.k_tilde * SIGMA
    assert ratings["A"] == k / 2
    assert ratings["B"] == -k / 2


@pytest.mark.parametrize("mode", list(UpdateMode))
def test_updates_are_exactly_zero_sum(mode):
    rng = np.random.default_rng(7)
    players = [f"P{i}" for i in range(6)]
    result = run_season(random_games(rng, players, 200), config(mode=mode, eta=0.3))
    assert sum(result.state.ratings.values()) == pytest.approx(0.0, abs=1e-9)


def test_unknown_players_are_initialized():
    cfg = config()
    result = run_season([game("A", "B", "H")], cfg)
    # both start at 0, so a home win between them moves each by half a step
    assert result.state.ratings == {"A": cfg.k_tilde * SIGMA / 2, "B": -cfg.k_tilde * SIGMA / 2}


def test_home_advantage_applies_inside_the_update():
    # with a shifted difference a draw between equals is no longer neutral
    ratings = run_season([game("A", "B", "D")], config(eta=0.3)).state.ratings
    assert ratings["A"] < 0 < ratings["B"]


def test_step_is_scale_normalized():
    small = run_season([game("A", "B", "H")], config(sigma=600.0)).state.ratings
    big = run_season([game("A", "B", "H")], config(sigma=1200.0)).state.ratings
    assert big["A"] == 2 * small["A"]


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


@pytest.mark.parametrize("mode", ["kappa-elo", "elo", "elo-check"])
def test_run_season_predicts_before_updating(mode):
    games = [game("A", "B", "H", 0), game("A", "B", "H", 1)]
    cfg = config(mode, check_kappa=1.3)
    result = run_season(games, cfg)
    fresh = RatingState(ratings={"A": 0.0, "B": 0.0})
    assert result.predictions[0] == predict(fresh, "A", "B", cfg)
    after_first = run_season(games[:1], cfg).state
    assert result.predictions[1] == predict(after_first, "A", "B", cfg)
    assert result.predictions[1].p_home > result.predictions[0].p_home


def test_run_season_empty():
    result = run_season([], config(), players=["A", "B"])
    assert result.predictions == [] and list(result.trajectory) == []
    assert result.state.ratings == {"A": 0.0, "B": 0.0}


def test_run_season_rating_sum_is_conserved():
    rng = np.random.default_rng(3)
    players = [f"P{i}" for i in range(8)]
    cfg = config(eta=0.3)
    result = run_season(random_games(rng, players, 150), cfg, players=players)
    assert sum(result.state.ratings.values()) == pytest.approx(0.0, abs=1e-9)
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
        assert expected == pytest.approx(oracles.logistic(delta, SIGMA), abs=1e-12)


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
    # each snapshot holds the players given up front and every team seen so far
    trajectory = run_season(games, EngineConfig(), players=["Z", "C"]).trajectory
    assert [len(s) for s in trajectory] == [4, 5, 5, 5, 6, 6]


def test_compile_season_empty():
    season = compile_season([], players=["A"])
    assert season.runs == [0] and season.players == ["A"]
    assert [len(s) for s in run_season([], EngineConfig(), players=["A"]).trajectory] == []


def vector_forecasts(diffs, config) -> list[OutcomeProbs]:
    """The forecast curve's ``triple`` of a ``run_online`` row of differences, on the array."""
    return [OutcomeProbs(*p) for p in zip(*(
        column.tolist() for column in config.forecast.triple(diffs)))]


def one_cell_run(games, config, players=None) -> SeasonResult:
    """``run_season``'s ratings and forecasts, built from a one-cell ``run_online``.

    ``run_online`` keeps no per-game rating changes, so the trajectory is
    None.  A row with a non-finite difference or final rating is at fault,
    and, as in a grid, ``run_season`` must raise its error.
    """
    season = compile_season(games, players)
    run = run_online(season, [config])
    if not (np.isfinite(run.diffs[0]).all() and np.isfinite(run.ratings[0]).all()):
        run_season(games, config, players)
        raise AssertionError("run_season accepts a run the kernel leaves non-finite")
    return SeasonResult(
        state=RatingState(ratings=dict(zip(season.players, run.ratings[0].tolist()))),
        predictions=vector_forecasts(run.diffs[0], config),
        trajectory=None,
    )


@BOTH_PATHS
@settings(max_examples=200, deadline=None)
@given(case=online_cases(), players_kind=st.sampled_from(["omitted", "all", "subset"]))
def test_run_season_matches_the_scalar_oracle(vectorize, case, players_kind):
    config, teams, games = case
    players = {"omitted": None, "all": teams + ["Idle"], "subset": teams[::-2]}[players_kind]
    ratings, predictions, trajectory = oracles.run_season(games, config, players)
    result = (one_cell_run if vectorize else run_season)(games, config, players)

    scale = max([config.model.sigma] + [abs(r) for r in ratings.values()])
    assert list(result.state.ratings) == list(ratings)
    for player, rating in ratings.items():
        assert abs(result.state.ratings[player] - rating) <= 1e-12 * scale
    if not vectorize:
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


@pytest.mark.parametrize("mode", list(UpdateMode))
@settings(max_examples=100, deadline=None)
@given(case=online_cases())
def test_forecasts_read_like_the_list_they_stand_for(mode, case):
    # the vector kernel's list is the forecasts bit for bit; the scalar
    # oracle, which rounds differently, agrees to 1e-12
    config, _, games = case
    config = config.replace(mode=mode)
    got = run_season(games, config).predictions
    eager = one_cell_run(games, config).predictions
    _, oracle, _ = oracles.run_season(games, config)
    n = len(eager)
    assert len(got) == len(oracle) == n
    assert got == eager and eager == got and not got != eager
    assert list(got) == eager
    assert [got[i] for i in range(-n, n)] == eager + eager
    assert got[1:] == eager[1:] and got[::-2] == eager[::-2]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            got[i]
    for lazy, want in zip(got, oracle):
        assert all(abs(a - b) <= 1e-12 * b for a, b in zip(lazy, want))
    if n:
        assert got != eager[:-1] and got != eager[:-1] + [OutcomeProbs(0.0, 0.0, 1.0)]


def test_forecasts_over_a_threshold_curve_iterate_to_what_they_index():
    # iterating and indexing both apply the curve's own triple, not a
    # davidson triple of its fields
    curve, diffs = Threshold(600.0, 150.0), [0.0, 300.0, -450.0]
    got = Forecasts(diffs, curve)
    want = [OutcomeProbs(*curve.triple(v)) for v in diffs]
    assert list(got) == [got[i] for i in range(len(diffs))] == want
    assert got == want and got == got[:]
    assert want[0].p_draw == pytest.approx(0.2801, abs=1e-4)


def test_rate_builds_no_forecast(tmp_path, monkeypatch):
    from drawelo.cli import RunConfig, run_rate
    from drawelo.data import serialize_matches
    from drawelo.sim import SimSpec, generate_season
    calls, triple = [], Davidson.triple

    def counted(curve, v):
        calls.append(v)
        return triple(curve, v)

    season = generate_season(SimSpec({f"T{i}": 60.0 * i for i in range(6)}, seed=2))
    path = tmp_path / "season.csv"
    path.write_text(serialize_matches(season))
    cfg = RunConfig(command="rate", input_path=str(path))
    monkeypatch.setattr(Davidson, "triple", counted)  # after the simulator's draws
    run_rate(cfg, str(tmp_path / "trajectory.csv"))
    assert calls == []
    # reading the forecasts, as evaluate does, calls it once per game
    assert len(list(run_season(season.games, cfg.engine_config()).predictions)) == 30
    assert len(calls) == 30


@BOTH_PATHS
@settings(max_examples=50, deadline=None)
@given(cases=st.lists(online_cases(max_teams=6), min_size=2, max_size=4))
def test_run_online_cells_do_not_interact(vectorize, cases):
    # one pass over several configurations gives each what it gets alone:
    # exactly what a one-cell pass gives, and run_season's floats to 1e-12
    games = cases[0][2]
    season = compile_season(games)
    configs = [config for config, _, _ in cases]
    together = run_online(season, configs)
    for c, config in enumerate(configs):
        if vectorize:
            one = run_online(season, [config])
            for field in ("diffs", "ratings"):
                assert np.array_equal(getattr(together, field)[c], getattr(one, field)[0])
            continue
        alone = run_season(games, config)
        ratings = together.ratings[c].tolist()
        scale = max([config.model.sigma] + [abs(r) for r in ratings])
        assert list(alone.state.ratings) == season.players
        for got, want in zip(ratings, alone.state.ratings.values()):
            assert abs(got - want) <= 1e-12 * scale
        assert len(alone.predictions) == len(games)
        for got, want in zip(vector_forecasts(together.diffs[c], config), alone.predictions):
            assert all(abs(g - w) <= 1e-12 * w for g, w in zip(got, want))


def test_run_online_equal_configurations_match_alone():
    # elo reads no kappa, so the three elo cells have equal parameters;
    # each comes back bit for bit as it does alone
    games = random_games(np.random.default_rng(3), list("ABCDEF"), 60)
    season = compile_season(games)
    cells = [config(mode=UpdateMode.ELO, kappa=k) for k in (0.4, 1.0, 2.0)] + [config()]
    together = run_online(season, cells)
    for c, cell in enumerate(cells):
        one = run_online(season, [cell])
        for field in ("diffs", "ratings"):
            assert np.array_equal(getattr(together, field)[c], getattr(one, field)[0])


def test_run_online_steps_each_kind_of_update_curve_as_its_own_table():
    # cells whose update curves are of another kind (here a Davidson
    # subclass), between davidson cells, each come back as they do alone
    class Other(Davidson):
        pass

    games = random_games(np.random.default_rng(4), list("ABCDEF"), 60)
    season = compile_season(games)
    cells = [config(kappa=k, eta=0.1 * k) for k in (0.4, 1.0, 2.0, 0.7)]
    cells[1:3] = [SimpleNamespace(update=(*c.update[:2], Other(*c.update[2]))) for c in cells[1:3]]
    together = run_online(season, cells)
    for c, cell in enumerate(cells):
        one = run_online(season, [cell])
        for field in ("diffs", "ratings"):
            assert np.array_equal(getattr(together, field)[c], getattr(one, field)[0])


@BOTH_PATHS
def test_run_season_non_finite_difference_is_an_error(vectorize):
    # step and shift are finite (1e308), but after the away win the ratings
    # are -1e308 and 1e308, so the return game's shifted difference overflows
    games = [game("A", "B", "A", 0), game("B", "A", "H", 1)]
    huge = config(sigma=1e307, eta=10.0, k_tilde=10.0)
    message = "game 1 (B vs A, 2021-08-02): rating difference must be finite, got inf"
    if not vectorize:
        with pytest.raises(ValueError) as raised:
            run_season(games, huge)
        assert str(raised.value) == message
        return
    # on the vector side only the failing cell of a grid reports it, naming the same game
    cells = evaluate_configs(games, [huge, config()], window="full")
    assert str(cells[0]) == message and not isinstance(cells[1], ValueError)
    assert np.isinf(run_online(compile_season(games), [huge]).diffs[0, 1])


def test_predict_rejects_a_non_finite_difference():
    state = RatingState(ratings={"A": math.inf, "B": 0.0})
    with pytest.raises(ValueError, match="rating difference must be finite, got inf"):
        predict(state, "A", "B", config())


# ---------------------------------------------------------------------------
# lazy trajectory
# ---------------------------------------------------------------------------


def check_snapshots(traj, want):
    """Iterating ``traj`` gives the oracle's snapshots ``want``, and ``moves()`` agrees.

    Each game's move gives its two players their ratings in the snapshot
    after it.
    """
    snapshots = list(traj)
    assert len(traj) == len(snapshots) == len(want)
    for got, expected in zip(snapshots, want):
        assert list(got) == list(expected)
        assert all(abs(got[p] - expected[p]) <= 1e-12 * SIGMA for p in expected)
    moves = list(traj.moves())
    assert len(moves) == len(snapshots)
    for (h, home, a, away), after in zip(moves, snapshots):
        assert after[traj.players[h]] == home and after[traj.players[a]] == away
    return snapshots


def test_trajectory_snapshots_hold_the_players_seen_so_far():
    games = [game("A", "B", "H", 0), game("C", "D", "D", 1), game("A", "C", "A", 2)]
    result = run_season(games, config(eta=0.3))
    traj = result.trajectory
    snapshots = check_snapshots(traj, oracles.run_season(games, config(eta=0.3))[2])
    assert len(traj) == 3
    assert list(snapshots[0]) == ["A", "B"]
    assert list(snapshots[1]) == ["A", "B", "C", "D"]
    assert snapshots[0]["A"] == -snapshots[0]["B"] > 0
    assert snapshots[1].get("C") == -snapshots[1]["D"]
    assert snapshots[-1] == result.state.ratings
    assert list(traj) == snapshots  # each iteration rebuilds the same snapshots


def test_trajectory_slices_match_the_listed_snapshots():
    rng = np.random.default_rng(29)
    games = random_games(rng, ["A", "B", "C", "D"], 25)
    traj = run_season(games, config()).trajectory
    check_snapshots(traj, oracles.run_season(games, config())[2])


def test_trajectory_running_ratings_match_the_snapshots():
    rng = np.random.default_rng(23)
    players = [f"P{i}" for i in range(5)]
    games = random_games(rng, players, 40)
    traj = run_season(games, config(eta=0.3), players=players).trajectory
    assert traj.players == players
    snapshots = check_snapshots(traj, oracles.run_season(games, config(eta=0.3), players)[2])
    assert all(list(snapshot) == players for snapshot in snapshots)


@pytest.mark.parametrize(
    "kw",
    [{"k_tilde": -0.1}, {"k_tilde": math.nan}, {"check_kappa": -1.0},
     {"check_kappa": math.nan}, {"check_kappa": math.inf}],
)
def test_engine_config_validation(kw):
    with pytest.raises(ValueError):
        EngineConfig(**kw)


@pytest.mark.parametrize(
    "kw,name",
    [({"k_tilde": 1e300, "model": ModelParams(sigma=1e10)}, "k_tilde"),
     ({"k_tilde": 2.0, "model": ModelParams(sigma=1e308)}, "k_tilde"),
     ({"mode": "nonsense"}, "mode"), ({"mode": None}, "mode")],
)
def test_engine_config_messages_start_with_the_field(kw, name):
    # an infinite absolute step k_tilde * sigma is k_tilde's error (--k-step)
    with pytest.raises(ValueError, match=f"^{name} "):
        EngineConfig(**kw)


@pytest.mark.parametrize("family", [f for f in ModelFamily if f is not ModelFamily.DAVIDSON])
def test_the_online_engine_rejects_a_family_it_would_ignore(family):
    # every mode steps and predicts with a davidson curve, so any other
    # family would be ignored: its forecasts would be davidson's
    model = ModelParams(v0=150.0, family=family)
    games = [game("A", "B", "H", 0), game("B", "A", "D", 1)]
    with pytest.raises(ValueError, match="^family must be davidson"):
        run_season(games, EngineConfig(model=model))
    with pytest.raises(ValueError, match="^family must be davidson"):
        evaluate_configs(games, [EngineConfig(model=model, mode=UpdateMode.ELO)])
    with pytest.raises(ValueError, match="^family must be davidson"):
        predict(RatingState(), "A", "B", EngineConfig(model=model, mode=UpdateMode.ELO_CHECK_KAPPA))


@pytest.mark.parametrize("mode", list(UpdateMode))
def test_engine_config_takes_a_mode_by_its_value(mode):
    by_value = config(mode=mode.value, eta=0.3)
    assert by_value.mode is mode
    games = [game("A", "B", "H", 0), game("B", "A", "D", 1), game("A", "B", "A", 2)]
    got, want = run_season(games, by_value), run_season(games, config(mode=mode, eta=0.3))
    assert got.predictions == want.predictions and got.state == want.state


def test_kappa_elo_by_value_predicts_with_the_model_kappa():
    # davidson at kappa 0.7 between equals: (1, 1, 0.7) / 2.7
    first = run_season([game("A", "B", "H")], EngineConfig(mode="kappa-elo")).predictions[0]
    assert first == pytest.approx((1 / 2.7, 1 / 2.7, 0.7 / 2.7), abs=1e-15)


# sizes near overflow: the product of two of them may or may not be finite
NEAR_OVERFLOW = st.sampled_from([1e10, 1e300, 1e308]) | st.floats(1.0, 1e300)


@BOTH_PATHS
@settings(max_examples=200, deadline=None)
@given(sigma=NEAR_OVERFLOW, k_tilde=st.sampled_from([0.0]) | NEAR_OVERFLOW,
       eta=st.sampled_from([0.0]) | NEAR_OVERFLOW, kappa=KAPPAS,
       mode=st.sampled_from(list(UpdateMode)),
       fixtures=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3), st.sampled_from("HDA")),
                         min_size=1, max_size=6))
# an infinite step times the zero surprise of a draw between equals is nan
@example(sigma=1e10, k_tilde=1e300, eta=0.0, kappa=0.7, mode=UpdateMode.KAPPA_ELO,
         fixtures=[(0, 1, "D")])
# a subnormal sigma halves to 0 in elo's prediction scale; the smallest
# normal sigma is accepted and runs
@example(sigma=5e-324, k_tilde=0.125, eta=0.3, kappa=0.7, mode=UpdateMode.ELO,
         fixtures=[(0, 1, "H"), (1, 2, "D")])
@example(sigma=sys.float_info.min, k_tilde=0.125, eta=0.3, kappa=0.7, mode=UpdateMode.ELO,
         fixtures=[(0, 1, "H"), (1, 2, "D")])
# T0's rating overflows to inf on its last game, game 4, whose difference is finite
@example(sigma=1e308, k_tilde=1.5, eta=0.0, kappa=0.7, mode=UpdateMode.KAPPA_ELO,
         fixtures=[(3, 2, "H"), (2, 1, "H"), (1, 2, "H"), (0, 1, "H"), (2, 2, "A")])
def test_a_valid_config_never_yields_nan(vectorize, sigma, k_tilde, eta, kappa, mode, fixtures):
    # the config rejects an infinite step or shift, the run rejects a
    # non-finite difference or final rating, or every rating is finite
    try:
        cfg = EngineConfig(model=ModelParams(sigma=sigma, kappa=kappa, eta=eta),
                           k_tilde=k_tilde, mode=mode)
    except ValueError:
        return
    games = [game(f"T{h}", f"T{(h + d) % 4}", o, day=i) for i, (h, d, o) in enumerate(fixtures)]
    try:
        result = (one_cell_run if vectorize else run_season)(games, cfg)
    except ValueError as exc:
        assert re.match(r"game \d+ \(T\d vs T\d, [-\d]+\): "
                        r"(rating difference|rating of 'T\d') must be finite", str(exc))
        return
    assert all(map(math.isfinite, result.state.ratings.values()))
    if not vectorize:
        for snapshot in result.trajectory:
            assert not any(math.isnan(r) for r in snapshot.values())


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


def test_nll_non_finite_difference_names_the_game():
    games = [game("A", "B", "H", 0), game("B", "C", "D", 1)]
    message = "game 1 (B vs C, 2021-08-02): rating difference must be finite, got -inf"
    for function in (nll, nll_gradient):
        with pytest.raises(ValueError) as raised:
            function({"A": 0.0, "B": 0.0, "C": math.inf}, games, fit_model())
        assert str(raised.value) == message


def test_nll_zero_probability_names_the_game():
    theta = {"A": 0.0, "B": 0.0}
    with pytest.raises(ZeroProbabilityError, match="game 0.*A vs B"):
        nll(theta, [game("A", "B", "D")], fit_model(family=ModelFamily.BINARY))


@pytest.mark.parametrize("function", [nll, nll_gradient])
def test_nll_names_a_player_missing_from_theta(function):
    games = [game("A", "B", "H", 0), game("C", "A", "D", 1), game("B", "D", "A", 2)]
    with pytest.raises(ValueError, match="theta has no rating for player 'C'"):
        function({"A": 0.0, "B": 0.0}, games, fit_model())


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
    # the oracle's threshold draw probability is predict_probs's, whose
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


@pytest.mark.parametrize("model", [fit_model(), fit_model(family=ModelFamily.THRESHOLD, v0=150.0)],
                         ids=["davidson", "threshold"])
def test_batch_fit_converges_on_a_long_lopsided_ladder(model):
    # each of 40 teams beats the next 99 times in 100: every result chain
    # closes (Hunter's condition), so the maximizer is finite, however far
    # apart the ladder's ends are rated
    names = [f"T{i:02d}" for i in range(40)]
    games = [game(high, low, "H" if k < 99 else "A", day=k)
             for high, low in zip(names, names[1:]) for k in range(100)]
    assert len(games) == 3900
    result = batch_ml_fit(games, model)
    assert result.converged
    assert result.theta["T00"] - result.theta["T39"] > 50 * model.sigma


def test_batch_fit_names_an_impossible_outcome_before_separable_data():
    # A beat B twice (separable) and C drew D, which a zero-width draw band
    # cannot produce; no ridge mends the draw, so it is the error reported
    games = [game("A", "B", "H", 0), game("A", "B", "H", 1), game("C", "D", "D", 2)]
    model = fit_model(family=ModelFamily.THRESHOLD, v0=0.0)
    for ridge in (0.0, 1e-4):
        with pytest.raises(ZeroProbabilityError, match="game 2 \\(C vs D, 2021-08-03\\)"):
            batch_ml_fit(games, model, ridge=ridge)


def test_batch_fit_ridge_rescues_separable_data():
    games = [game("A", "B", "H", 0), game("A", "B", "H", 1)]
    result = batch_ml_fit(games, fit_model(family=ModelFamily.BINARY), ridge=1e-4)
    assert result.converged
    assert result.theta["A"] > 0 > result.theta["B"]


def test_batch_fit_reports_the_likelihood_without_the_ridge():
    # the descent minimizes nll + ridge * |theta|^2, but nll is the likelihood's alone
    spec = SimSpec(theta_true=true_ratings(6, 0.1, SIGMA), model=fit_model(eta=0.3), rounds=2,
                   seed=3)
    games, model = generate_season(spec).games, fit_model(eta=0.3)
    result = batch_ml_fit(games, model, ridge=1e-4)
    assert result.converged
    assert result.nll == pytest.approx(nll(result.theta, games, model), rel=1e-12)
    assert batch_ml_fit(games, model).nll < result.nll  # the unpenalized fit minimizes nll


def test_batch_fit_rejects_draws_under_binary():
    games = [game("A", "B", "D")]
    with pytest.raises(ZeroProbabilityError, match=r"game 0 \(A vs B, 2021-08-01\)"):
        batch_ml_fit(games, fit_model(family=ModelFamily.BINARY))


def test_batch_fit_threshold_at_zero_band_is_binary_bit_for_bit():
    # on decisive games a zero-width draw band leaves the two binary terms
    # of the threshold likelihood, each the binary kernel at v itself
    from drawelo.sim import SimSpec, generate_season

    truth = {f"T{i + 1:02d}": (9.5 - i) * 0.1 * SIGMA for i in range(20)}
    spec = SimSpec(theta_true=truth, model=fit_model(ModelFamily.BINARY, eta=0.3), rounds=2,
                   seed=4)
    games = generate_season(spec).games
    binary = batch_ml_fit(games, fit_model(ModelFamily.BINARY, eta=0.3))
    threshold = batch_ml_fit(games, fit_model(ModelFamily.THRESHOLD, eta=0.3, v0=0.0))
    assert binary.converged
    assert threshold.theta == binary.theta
    assert threshold.nll == binary.nll
    assert threshold.iterations == binary.iterations


def test_batch_fit_halves_a_step_that_overshoots(monkeypatch):
    # A beat B, then A drew B: under a threshold band of v0 = 2 sigma the full
    # Newton step overshoots, so the Armijo test halves it before it is taken
    calls = []
    game_terms = engine._game_terms
    monkeypatch.setattr(engine, "_game_terms",
                        lambda *args: calls.append(1) or game_terms(*args))
    games = [game("A", "B", "H", 0), game("A", "B", "D", 1)]
    result = batch_ml_fit(games, fit_model(family=ModelFamily.THRESHOLD, v0=1200.0))
    assert result.converged and result.stop_reason == "gradient"
    assert len(calls) > result.iterations + 1  # one evaluation per step and the flat start


def test_batch_fit_names_a_singular_newton_system():
    # under a band of v0 = 5000 the curvature vanishes and the Newton solve
    # fails; a ridge keeps the system regular
    results = [("T0", "T2", "A"), ("T0", "T1", "A"), ("T2", "T1", "D"),
               ("T1", "T0", "D"), ("T0", "T1", "A"), ("T1", "T0", "H")]
    games = [game(h, a, o, day) for day, (h, a, o) in enumerate(results)]
    model = fit_model(family=ModelFamily.THRESHOLD, v0=5000.0)
    with pytest.raises(ConvergenceError, match="singular.*ridge"):
        batch_ml_fit(games, model)
    assert batch_ml_fit(games, model, ridge=1e-9).converged


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


@pytest.mark.parametrize("family,v0", [(ModelFamily.DAVIDSON, 0.0), (ModelFamily.THRESHOLD, 0.25)])
@pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1e-6, 1e6, 1e160, 1e300])
def test_batch_fit_is_scale_equivariant(family, v0, sigma):
    # the ratings scale with sigma and the likelihood does not move, even
    # where the curvature's 1/sigma'^2 over- or underflows a float
    from drawelo.sim import SimSpec, generate_season

    truth = {f"T{i:02d}": (5.5 - i) * 0.1 * SIGMA for i in range(12)}
    games = generate_season(SimSpec(theta_true=truth, model=fit_model(eta=0.3), seed=4)).games
    base = batch_ml_fit(games, fit_model(family, eta=0.3, v0=v0 * SIGMA))
    model = fit_model(family, eta=0.3, v0=v0 * sigma, sigma=sigma)
    scaled = batch_ml_fit(games, model)
    assert scaled.converged and scaled.iterations == base.iterations
    assert scaled.grad_max_norm < 1e-6 / model.sigma_prime
    assert scaled.nll == pytest.approx(base.nll, rel=1e-12)
    top = max(map(abs, base.theta.values()))
    for player, rating in base.theta.items():
        assert abs(scaled.theta[player] / sigma - rating / SIGMA) <= 1e-12 * top / SIGMA


@pytest.mark.parametrize("eta", [0.0, 0.3])
def test_predict_classic_elo_is_exactly_davidson_at_half_scale(eta):
    cfg = config(mode=UpdateMode.ELO, eta=eta)
    implicit = ModelParams(sigma=SIGMA / 2, kappa=2.0)
    state = RatingState(ratings={"A": 0.0, "B": 0.0})
    for v in [i * 10.0 for i in range(-300, 301)]:
        state.ratings["A"] = v
        assert predict(state, "A", "B", cfg) == predict_probs(v + eta * SIGMA, implicit)


def test_nll_gradient_zero_probability_message_is_nll_s():
    theta = {"A": 0.0, "B": 0.0}
    games = [game("A", "B", "H"), game("A", "B", "D")]
    model = fit_model(family=ModelFamily.BINARY)
    with pytest.raises(ZeroProbabilityError) as from_nll:
        nll(theta, games, model)
    with pytest.raises(ZeroProbabilityError) as from_gradient:
        nll_gradient(theta, games, model)
    assert str(from_gradient.value) == str(from_nll.value)
    assert str(from_gradient.value) == (
        "game 1 (A vs B, 2021-08-01): model assigns probability 0 to observed outcome 'D'")


@pytest.mark.parametrize("max_iters", [1, 2, 3])
def test_batch_fit_reports_the_gradient_of_the_ratings_it_returns(max_iters):
    # the golden season is one connected group, so the projection removes the mean
    games = load_matches(GOLDEN_SEASON).games
    model = fit_model(eta=0.3)
    result = batch_ml_fit(games, model, max_iters=max_iters)
    assert result.iterations == max_iters
    assert (result.stop_reason, result.converged) == (
        ("gradient", True) if max_iters == 3 else ("max-iters", False))
    grad = list(nll_gradient(result.theta, games, model).values())
    mean = sum(grad) / len(grad)
    assert result.grad_max_norm == pytest.approx(max(abs(g - mean) for g in grad), rel=1e-6)


def test_fit_result_converged_is_read_off_its_stop_reason():
    stalled = engine.FitResult(theta={"A": 0.0}, nll=1.0, grad_max_norm=0.5, iterations=1,
                               stop_reason="stalled")
    assert not stalled.converged and stalled.replace(stop_reason="gradient").converged
    with pytest.raises(AttributeError):
        stalled.converged = True


@pytest.mark.parametrize(
    "kw,name",
    [({"ridge": math.nan}, "ridge"), ({"ridge": -1.0}, "ridge"),
     ({"tol": math.nan}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": -1.0}, "tol"),
     ({"max_iters": 0}, "max_iters"), ({"max_iters": 1.5}, "max_iters"),
     ({"max_iters": math.nan}, "max_iters")],
)
def test_batch_ml_fit_rejects_bad_options_by_name(kw, name):
    games = [game("A", "B", "H"), game("B", "A", "H")]
    with pytest.raises(ValueError, match=f"^{name} "):
        batch_ml_fit(games, fit_model(), **kw)


@pytest.mark.parametrize("sigma", [1e-160, 1e160])
def test_batch_fit_rejects_a_ridge_lost_at_unit_scale(sigma):
    # the fit runs on theta / sigma', where the penalty is ridge * sigma'^2:
    # at 1e-160 it rounds to 0 and would leave separable data unpenalized,
    # at 1e160 it overflows
    games = [game("A", "B", "H", 0), game("A", "B", "H", 1)]
    with pytest.raises(ValueError, match=r"^ridge \* sigma'\^2 must be positive and finite"):
        batch_ml_fit(games, fit_model(family=ModelFamily.BINARY, sigma=sigma), ridge=1e-4)

import gc
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KAPPAS, check_report, game, online_cases
from drawelo.engine import EngineConfig, UpdateMode, run_season
from drawelo.errors import ZeroProbabilityError
from drawelo.evaluation import (
    _shortest_window,
    _window_bounds,
    baseline_report,
    cell_report,
    empirical_stats,
    evaluate_configs,
    evaluate_scores,
    implied_draw_freq,
    log_score,
    score_games,
)
from drawelo.models import OUTCOME_COLUMN, Davidson, ModelParams, OutcomeProbs, predict_probs
from drawelo.sim import SimSpec, generate_season, true_ratings
from oracles import brute_min_interval

UNIFORM = OutcomeProbs(p_home=1 / 3, p_away=1 / 3, p_draw=1 / 3)


# ---------------------------------------------------------------------------
# log score
# ---------------------------------------------------------------------------


def test_log_score_examples():
    quarter_half = OutcomeProbs(p_home=0.25, p_away=0.25, p_draw=0.5)
    assert log_score(quarter_half, "D") == pytest.approx(math.log(2), abs=1e-12)
    for outcome in "HDA":
        assert log_score(UNIFORM, outcome) == pytest.approx(math.log(3), abs=1e-12)


def test_log_score_zero_probability_is_an_error():
    binary = OutcomeProbs(p_home=0.5, p_away=0.5, p_draw=0.0)
    with pytest.raises(ZeroProbabilityError, match="'D'"):
        log_score(binary, "D")


def test_score_games_names_the_offending_game():
    predictions = [UNIFORM, OutcomeProbs(p_home=0.5, p_away=0.5, p_draw=0.0)]
    games = [game("A", "B", "H", 0), game("C", "D", "D", 1)]
    with pytest.raises(ZeroProbabilityError, match="game 1.*C vs D"):
        score_games(predictions, games)
    with pytest.raises(ValueError, match="2 predictions for 1 games"):
        score_games(predictions, games[:1])


def one_cell(games, diffs, config, window="full"):
    """``cell_report`` of one row of differences over the named window, or None at fault."""
    column = np.array([OUTCOME_COLUMN[g.outcome] for g in games], dtype=np.intp)
    return cell_report(column, np.array(diffs, dtype=float), config.forecast,
                       _window_bounds(len(games), window))


def forecasts(diffs, config):
    """The float path's forecasts of a row of differences, as ``Forecasts`` builds them."""
    return [OutcomeProbs(*config.forecast.triple(v)) for v in diffs]


def test_cell_log_scores_pick_the_realized_column():
    # at v = 2 sigma, 10^(v/2sigma) = 10, so each outcome has its own probability
    games = [game("A", "B", "H", 0), game("C", "D", "A", 1), game("A", "B", "D", 2)]
    kappa_one = EngineConfig(ModelParams(sigma=600.0, kappa=1.0))
    p_home, p_away, p_draw = Davidson(600.0, 1.0).triple(1200.0)
    assert (p_home, p_away, p_draw) == pytest.approx((1 / 1.11, 0.01 / 1.11, 0.1 / 1.11), rel=1e-15)
    report = one_cell(games, [1200.0] * 3, kappa_one)
    assert list(report.per_game_ls) == [-math.log(p_home), -math.log(p_away), -math.log(p_draw)]
    assert report.window == (0, 3)
    # elo predicts with davidson at kappa 2 and half the scale: (1/4, 1/4, 1/2) at v = 0
    elo = EngineConfig(ModelParams(sigma=600.0, kappa=1.0), mode=UpdateMode.ELO)
    report = one_cell(games, [0.0] * 3, elo, window="second-half")
    assert list(report.per_game_ls) == [-math.log(0.25), -math.log(0.5)]
    assert report.window == (1, 3)
    assert report.mean_ls == (-math.log(0.25) - math.log(0.5)) / 2


def test_zero_probability_names_the_first_game():
    games = [game("A", "B", "H", 0), game("C", "D", "D", 1), game("A", "B", "D", 2),
             game("C", "D", "H", 3)]
    never_draws = EngineConfig(ModelParams(kappa=0.0))
    # a row at fault gives no report, outside the window too, as score_games
    # raises for the whole season; so does a non-finite difference
    for window in ("full", "second-half"):
        assert one_cell(games, [0.0] * 4, never_draws, window) is None
    assert one_cell(games, [0.0, 0.0, -math.inf, 0.0], EngineConfig()) is None
    # in a grid, the cell is run alone, and its error names the first such game
    for window in ("full", "second-half"):
        cells = evaluate_configs(games, [never_draws, EngineConfig()], window)
        assert isinstance(cells[0], ZeroProbabilityError)
        assert str(cells[0]) == (
            "game 1 (C vs D, 2021-08-02): model assigns probability 0 to observed outcome 'D'"
        )
        assert cells[1] == evaluate_configs(games, [EngineConfig()], window)[0]


def test_a_sure_outcome_scores_positive_zero():
    # -ln 1 is -0.0; every scorer gives +0.0 there, and the same bits elsewhere
    sure = OutcomeProbs(p_home=1.0, p_away=0.0, p_draw=0.0)
    assert math.copysign(1.0, log_score(sure, "H")) == 1.0
    games = [game("A", "B", "H", 0), game("A", "B", "D", 1)]
    config = EngineConfig(ModelParams(sigma=600.0, kappa=0.7))
    diffs = [60000.0, 0.0]  # p_home rounds to 1 at 100 sigma
    assert forecasts(diffs, config)[0].p_home == 1.0
    for scores in (score_games(forecasts(diffs, config), games),
                   list(one_cell(games, diffs, config).per_game_ls)):
        assert [math.copysign(1.0, s) for s in scores] == [1.0, 1.0]
        assert scores[1].hex() == (-math.log(forecasts(diffs, config)[1].p_draw)).hex()


def test_cell_log_scores_use_the_same_log_as_score_games():
    # numpy's vectorised log differs from math.log in the last bit on some
    # CPUs, e.g. -0.0026422158305394673 against -0.0026422158305394678 at
    # 0.9973612717493856; 1,803 probabilities make such a value likely
    diffs = np.linspace(-3000.0, 3000.0, 601).tolist() * 3
    games = [game("A", "B", outcome, i) for i, outcome in enumerate("HAD" * 601)]
    config = EngineConfig(ModelParams(sigma=600.0, kappa=0.7))
    realized = [p.prob_of(g.outcome) for p, g in zip(forecasts(diffs, config), games)]
    report = one_cell(games, diffs, config)
    assert list(report.per_game_ls) == score_games(forecasts(diffs, config), games)
    assert list(report.per_game_ls) == [-math.log(p) for p in realized]


# differences with ties, an outcome underflowing to probability 0, and non-finite values
DIFFS = (st.sampled_from([0.0, 300.0, -300.0, 1e6, -1e6, math.inf, -math.inf, math.nan])
         | st.floats(-5000.0, 5000.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), window=st.sampled_from(["second-half", "full"]))
def test_score_rows_match_cell_log_scores(data, window):
    # the plain-Python scorer of one configuration's forecasts and a grid
    # cell's scorer of its differences: the same report, or None where the
    # former raises
    n = data.draw(st.integers(1, 40))
    diffs = data.draw(st.lists(DIFFS, min_size=n, max_size=n))
    config = EngineConfig(ModelParams(sigma=data.draw(st.floats(100.0, 1500.0)),
                                      kappa=data.draw(KAPPAS)),
                          mode=data.draw(st.sampled_from(list(UpdateMode))),
                          check_kappa=data.draw(KAPPAS))
    games = [game("A", "B", data.draw(st.sampled_from("HDA")), i) for i in range(n)]
    start, end = _window_bounds(n, window)
    report = one_cell(games, diffs, config, window)
    if not all(map(math.isfinite, diffs)):
        assert report is None
        return
    try:
        scores = score_games(forecasts(diffs, config), games)
    except ZeroProbabilityError:
        assert report is None
        return
    assert report == evaluate_scores(scores, window)
    assert report.window == (start, end)
    assert list(report.per_game_ls) == scores[start:end]
    assert (report.interval_low, report.interval_high) == brute_min_interval(scores[start:end])


# ---------------------------------------------------------------------------
# second-half mean
# ---------------------------------------------------------------------------


def test_mean_second_half_examples():
    assert evaluate_scores([9.0, 9.0, 1.0, 3.0]).mean_ls == 2.0
    assert evaluate_scores([4.2] * 10).mean_ls == pytest.approx(4.2)


def test_mean_second_half_odd_length_uses_last_ceil_half():
    assert _window_bounds(5, "second-half") == (2, 5)
    assert evaluate_scores([100.0, 100.0, 1.0, 2.0, 3.0]).mean_ls == 2.0


@pytest.mark.parametrize("n", range(7))
def test_window_bounds_take_the_last_ceil_half_or_all(n):
    # the windows of N = 0..6 games: none of N = 0, else [N - ceil(N/2), N) and [0, N)
    if n == 0:
        for window in ("second-half", "full"):
            with pytest.raises(ValueError, match="^empty score list$"):
                _window_bounds(n, window)
        return
    assert _window_bounds(n, "second-half") == ([0, 0, 1, 1, 2, 2, 3][n], n)
    assert _window_bounds(n, "full") == (0, n)
    scores = [float(i) for i in range(n)]
    assert list(evaluate_scores(scores).per_game_ls) == scores[n // 2:]
    assert list(evaluate_scores(scores, "full").per_game_ls) == scores


@pytest.mark.parametrize("n", [0, 3])
def test_a_bad_window_is_reported_before_an_empty_list(n):
    with pytest.raises(ValueError, match="^window must be 'second-half' or 'full', got 'last'$"):
        _window_bounds(n, "last")
    with pytest.raises(ValueError, match="^window must be 'second-half' or 'full', got 'last'$"):
        evaluate_scores([0.5] * n, "last")


def test_mean_second_half_matches_direct_summation():
    rng = np.random.default_rng(19)
    values = list(rng.exponential(size=380))
    assert evaluate_scores(values).mean_ls == pytest.approx(sum(values[190:]) / 190, rel=1e-12)


def test_mean_second_half_empty_is_an_error():
    with pytest.raises(ValueError):
        evaluate_scores([])


# ---------------------------------------------------------------------------
# 95% interval
# ---------------------------------------------------------------------------


def interval(values):
    """The 95% interval ``evaluate_scores`` reports over all of ``values``."""
    report = evaluate_scores(values, "full")
    return report.interval_low, report.interval_high


def test_interval_examples():
    assert interval(list(range(1, 101))) == (1, 95)
    assert interval([7.5] * 30) == (7.5, 7.5)
    assert interval([0.0] * 99 + [1000.0]) == (0.0, 0.0)
    assert interval([-3.0] * 19 + [math.inf]) == (-3.0, -3.0)
    with pytest.raises(ValueError, match="empty score list"):
        interval([])


@settings(max_examples=200)
@given(st.lists(st.floats(-1e6, 1e6) | st.sampled_from([-math.inf, math.inf]),
                min_size=1, max_size=500))
def test_interval_matches_exhaustive_scan(values):
    low, high = interval(values)
    assert (low, high) == brute_min_interval(values)
    k = math.ceil(0.95 * len(values))
    assert sum(1 for v in values if low <= v <= high) >= k


# log scores with many ties, and inf for a zero probability
TIED_SCORES = st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]) | st.floats(0.0, 10.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(TIED_SCORES, min_size=1, max_size=80))
def test_shortest_window_of_a_numpy_sort_matches_exhaustive_scan(values):
    # ties and infinite ends included, the scan picks one window on a numpy
    # sort, as a grid cell passes it, and on a list, as a season does
    window = _shortest_window(np.sort(values))
    assert window == _shortest_window(sorted(values)) == brute_min_interval(values)
    assert all(type(end) is float for end in window)


def test_evaluate_scores_bundles_window_and_interval():
    values = [9.0, 9.0, 1.0, 3.0]
    report = evaluate_scores(values)
    assert report.mean_ls == 2.0
    assert report.window == (2, 4)
    assert (report.interval_low, report.interval_high) == (1.0, 3.0)
    full = evaluate_scores(values, window="full")
    assert full.mean_ls == 5.5
    assert full.window == (0, 4)
    with pytest.raises(ValueError):
        evaluate_scores(values, window="first-half")


# ---------------------------------------------------------------------------
# a list of configurations: floats for one, the vector kernel for a grid
# ---------------------------------------------------------------------------


def assert_cells_match_each_configuration_alone(games, configs, cells, window="second-half"):
    """Each cell's report is the one-configuration report exactly, or the same error."""
    assert len(cells) == len(configs)
    for config, cell in zip(configs, cells):
        alone, = evaluate_configs(games, [config], window)
        if isinstance(alone, ValueError):
            assert (type(cell), str(cell)) == (type(alone), str(alone))
            continue
        assert cell == alone
        for report in (cell, alone):
            assert type(report.per_game_ls) is array and report.per_game_ls.typecode == "d"
        if window == "second-half":
            scores = score_games(run_season(games, config).predictions, games)
            check_report(alone.mean_ls, alone.interval_low, alone.interval_high, scores)


@st.composite
def update_twins(draw, config):
    """A configuration that updates as ``config`` does but may predict otherwise.

    Another check_kappa, in any mode; or, in elo or elo-check, either of the
    two modes at another model kappa, since both update at kappa 0.
    """
    twin = config.replace(check_kappa=draw(KAPPAS))
    if config.mode is not UpdateMode.KAPPA_ELO and draw(st.booleans()):
        mode = draw(st.sampled_from([UpdateMode.ELO, UpdateMode.ELO_CHECK_KAPPA]))
        twin = twin.replace(mode=mode, model=config.model.replace(kappa=draw(KAPPAS)))
    assert twin.update == config.update
    return twin


@settings(max_examples=50, deadline=None)
@given(cases=st.lists(online_cases(max_teams=6), min_size=2, max_size=4), data=st.data())
def test_evaluate_configs_grid_cells_match_each_configuration_alone(cases, data):
    # twins share their configuration's kernel row, and must still report as
    # their own configuration alone
    games = cases[0][2]
    configs = [config for config, _, _ in cases]
    twins = [data.draw(update_twins(config)) for config in configs[:data.draw(st.integers(1, 4))]]
    configs = data.draw(st.permutations(configs + twins))
    assert_cells_match_each_configuration_alone(games, configs, evaluate_configs(games, configs))


def test_configurations_that_update_alike_share_a_kernel_row(monkeypatch):
    # sweep's 32-cell grid: the 16 elo-check cells step at kappa 0 whatever
    # their kappa, so the kernel runs 16 kappa-elo rows and 4 elo-check rows
    import drawelo.engine
    games = generate_season(SimSpec(theta_true=true_ratings(6, 0.1, 600.0),
                                    model=ModelParams(kappa=0.7, eta=0.3), rounds=2, seed=3)).games
    configs = sweep_grid()
    rows = []
    run_online = drawelo.engine.run_online
    monkeypatch.setattr(drawelo.engine, "run_online",
                        lambda season, cs: rows.append(len(cs)) or run_online(season, cs))
    cells = evaluate_configs(games, configs)
    assert rows == [20]
    assert_cells_match_each_configuration_alone(games, configs, cells)


def sweep_grid():
    """The configurations of ``sweep --kappa-grid 0.4,0.7,1,2 --eta-grid 0,0.15,0.3,0.45
    --modes kappa-elo,elo-check``, in its cell order."""
    return [EngineConfig(ModelParams(sigma=600.0, kappa=kappa, eta=eta), mode=mode,
                         check_kappa=kappa)
            for mode in (UpdateMode.KAPPA_ELO, UpdateMode.ELO_CHECK_KAPPA)
            for kappa in (0.4, 0.7, 1.0, 2.0) for eta in (0.0, 0.15, 0.3, 0.45)]


def test_a_grids_reports_hold_eight_bytes_a_scored_game():
    # 32 cells x 3,800 scored games: 0.93 MiB of array("d"), against 3.8 MiB
    # as lists of float objects
    games = generate_season(SimSpec(theta_true=true_ratings(20, 0.1, 600.0),
                                    model=ModelParams(kappa=0.7, eta=0.3), rounds=20, seed=1)).games
    assert len(games) == 7600
    configs = sweep_grid()
    evaluate_configs(games[:4], configs)  # first-call imports and caches are not the reports'
    gc.collect()
    tracemalloc.start()
    try:
        reports = evaluate_configs(games, configs)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(len(report.per_game_ls) == 3800 for report in reports)
    assert held < 1.5 * 2**20


@pytest.mark.parametrize("n_configs", [1, 3])
def test_evaluate_configs_of_no_games_is_an_error_in_every_cell(n_configs):
    cells = evaluate_configs([], [EngineConfig()] * n_configs)
    assert [str(cell) for cell in cells] == ["empty score list"] * n_configs
    assert all(isinstance(cell, ValueError) for cell in cells)
    assert evaluate_configs([], []) == []


@pytest.mark.filterwarnings("error")
def test_failing_cells_leave_the_rest_of_the_grid_alone():
    games = [game("A", "B", "A", 0), game("B", "A", "H", 1), game("A", "B", "D", 2),
             game("C", "D", "H", 3), game("D", "C", "A", 4), game("C", "A", "D", 5)]
    never_draws = EngineConfig(ModelParams(kappa=0.0))
    # a finite step and shift, but after game 0 the return game's difference is inf
    overflows = EngineConfig(ModelParams(sigma=1e307, eta=10.0), k_tilde=10.0)
    # finite differences, but 0.5 * v / sigma overflows at elo's half scale,
    # to the limit floats reach without a warning
    forecast_overflows = EngineConfig(ModelParams(sigma=0.5, eta=1.79e308), k_tilde=1e306,
                                      mode=UpdateMode.ELO)
    configs = [EngineConfig(ModelParams(eta=0.3)), never_draws, overflows,
               EngineConfig(mode=UpdateMode.ELO), forecast_overflows]
    cells = evaluate_configs(games, configs)
    assert isinstance(cells[1], ZeroProbabilityError)
    assert str(cells[1]).startswith("game 2 (A vs B, ")
    assert str(cells[2]) == "game 1 (B vs A, 2021-08-02): rating difference must be finite, got inf"
    assert str(cells[4]).startswith("game 0 (A vs B, ")
    assert not isinstance(cells[0], ValueError) and not isinstance(cells[3], ValueError)
    assert_cells_match_each_configuration_alone(games, configs, cells)
    # under a bad window every cell runs alone, and reports its own fault first
    cells = evaluate_configs(games, configs, "bogus")
    assert [str(cells[i]) for i in (0, 3)] == [
        "window must be 'second-half' or 'full', got 'bogus'"] * 2
    assert str(cells[2]) == "game 1 (B vs A, 2021-08-02): rating difference must be finite, got inf"
    assert_cells_match_each_configuration_alone(games, configs, cells, "bogus")
    # B's rating overflows to -inf on its last game, whose difference is finite
    games = [game("A", "B", "H", 0), game("C", "D", "H", 0), game("B", "D", "D", 1),
             game("E", "B", "H", 2), game("F", "D", "H", 2), game("B", "D", "A", 3)]
    rating_overflows = EngineConfig(ModelParams(sigma=1e308, eta=0.0), k_tilde=1.5)
    configs = [EngineConfig(), rating_overflows, never_draws]
    for window in ("second-half", "full"):
        cells = evaluate_configs(games, configs, window)
        assert str(cells[1]) == (
            "game 5 (B vs D, 2021-08-04): rating of 'B' must be finite, got -inf")
        assert isinstance(cells[2], ZeroProbabilityError)
        assert not isinstance(cells[0], ValueError)
        assert_cells_match_each_configuration_alone(games, configs, cells, window)


def test_a_healthy_grid_runs_no_cell_alone(monkeypatch):
    # only a cell at fault runs on the float path, so sweep's grid pays for
    # no float run of its own
    import drawelo.engine
    games = generate_season(SimSpec(theta_true=true_ratings(6, 0.1, 600.0),
                                    model=ModelParams(kappa=0.7, eta=0.3), rounds=2, seed=3)).games
    assert any(g.outcome == "D" for g in games)
    alone = []
    run_season = drawelo.engine.run_season
    monkeypatch.setattr(drawelo.engine, "run_season",
                        lambda games, config: alone.append(config) or run_season(games, config))
    configs = sweep_grid()
    assert not any(isinstance(cell, ValueError) for cell in evaluate_configs(games, configs))
    assert alone == []
    never_draws = EngineConfig(ModelParams(sigma=600.0, kappa=0.0))
    cells = evaluate_configs(games, configs + [never_draws])
    assert alone == [never_draws]
    assert isinstance(cells[-1], ZeroProbabilityError)


def test_a_cell_reports_its_own_fault_before_the_window():
    # as run_season raises before evaluate_scores reads the window name
    # simulate --teams 6 --rounds 2 --seed 3
    games = generate_season(SimSpec(theta_true=true_ratings(6, 0.1, 600.0),
                                    model=ModelParams(kappa=0.7, eta=0.3), rounds=2, seed=3)).games
    bad = EngineConfig(model=ModelParams(sigma=1e308, eta=1.7), k_tilde=1.0)
    alone, = evaluate_configs(games, [bad], "bogus")
    cells = evaluate_configs(games, [bad, EngineConfig()], "bogus")
    assert str(alone).startswith("game 8 (") and "must be finite" in str(alone)
    assert [str(cell) for cell in cells] == [
        str(alone), "window must be 'second-half' or 'full', got 'bogus'"]


def test_baseline_report_scores_the_odds_over_the_window():
    odds = (2.0, 4.0, 4.0)  # with no margin: p_home 1/2, p_draw and p_away 1/4
    games = [game("A", "B", "H", 0), game("B", "A", "D", 1, odds), game("A", "B", "A", 2, odds)]
    report = baseline_report(games, (1, 3))
    assert report.window == (0, 2)
    assert report.mean_ls == pytest.approx(math.log(4), rel=1e-15)
    with pytest.raises(ValueError, match=r"missing on 1 game\(s\), first game 0 \(A vs B"):
        baseline_report(games, (0, 3))


# ---------------------------------------------------------------------------
# empirical statistics and draw-frequency conversions
# ---------------------------------------------------------------------------


def _season_with_draw_rate(n_draws, n_total):
    games = []
    for i in range(n_total):
        outcome = "D" if i < n_draws else ("H" if i % 2 == 0 else "A")
        games.append(game("A", "B", outcome, day=i))
    return games


def test_empirical_stats_quarter_draws():
    stats = empirical_stats(_season_with_draw_rate(25, 100))
    assert stats.p_draw_bar == 0.25
    assert stats.kappa_bar == pytest.approx(2 / 3, abs=1e-12)
    assert stats.p_home_bar + stats.p_away_bar + stats.p_draw_bar == pytest.approx(1.0, abs=1e-12)
    assert stats.delta_bar == pytest.approx(stats.p_home_bar - stats.p_away_bar)


def test_empirical_stats_at_26_percent():
    stats = empirical_stats(_season_with_draw_rate(26, 100))
    assert stats.kappa_bar == pytest.approx(0.52 / 0.74, abs=1e-12)
    assert round(stats.kappa_bar, 1) == 0.7


def test_empirical_stats_edge_cases():
    assert empirical_stats(_season_with_draw_rate(0, 10)).kappa_bar == 0.0
    assert empirical_stats(_season_with_draw_rate(10, 10)).kappa_bar == math.inf
    with pytest.raises(ValueError):
        empirical_stats([])


def test_implied_draw_freq_examples():
    assert implied_draw_freq(2.0) == 0.5
    assert implied_draw_freq(0.0) == 0.0
    assert implied_draw_freq(1.0) == pytest.approx(1 / 3, abs=1e-15)
    with pytest.raises(ValueError):
        implied_draw_freq(-0.5)


@given(st.floats(0.0, 0.9))
def test_kappa_and_draw_freq_are_inverses(p_draw):
    kappa = 2 * p_draw / (1 - p_draw)
    assert implied_draw_freq(kappa) == pytest.approx(p_draw, abs=1e-12)


def test_uniform_predictor_scores_ln3_whatever_happens():
    rng = np.random.default_rng(23)
    games = [game("A", "B", "HDA"[rng.integers(3)], day=i) for i in range(100)]
    scores = score_games([UNIFORM] * len(games), games)
    assert evaluate_scores(scores).mean_ls == pytest.approx(math.log(3), abs=1e-12)


def test_true_draw_parameter_beats_mismatched_ones():
    # law of large numbers: generating and scoring with the same kappa must
    # win against scoring with a mismatched one, for fixed true ratings
    kappa_true = 0.7
    theta = {f"T{i:02d}": (9.5 - i) * 60.0 for i in range(20)}
    spec = SimSpec(
        theta_true=theta,
        model=ModelParams(sigma=600.0, kappa=kappa_true, eta=0.0),
        rounds=27,  # 10260 games
        seed=99,
    )
    season = generate_season(spec)

    def mean_ls(kappa):
        model = ModelParams(sigma=600.0, kappa=kappa, eta=0.0)
        total = 0.0
        for g in season.games:
            v = theta[g.home_id] - theta[g.away_id]
            total += log_score(predict_probs(v, model), g.outcome)
        return total / len(season.games)

    truth = mean_ls(kappa_true)
    assert mean_ls(0.2) - truth > 0.0
    assert mean_ls(2 * kappa_true) - truth > 0.0


def test_implied_draw_freq_at_infinity_and_nan():
    assert implied_draw_freq(math.inf) == 1.0
    all_draws = empirical_stats(_season_with_draw_rate(10, 10))
    assert implied_draw_freq(all_draws.kappa_bar) == all_draws.p_draw_bar == 1.0
    with pytest.raises(ValueError, match="kappa"):
        implied_draw_freq(math.nan)

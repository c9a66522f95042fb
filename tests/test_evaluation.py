import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_report, game, online_cases
from drawelo.engine import EngineConfig, UpdateMode, run_season
from drawelo.errors import ZeroProbabilityError
from drawelo.evaluation import (
    baseline_report,
    cell_log_scores,
    credibility_interval,
    empirical_stats,
    evaluate_cells,
    evaluate_configs,
    evaluate_scores,
    implied_draw_freq,
    log_score,
    min_length_intervals,
    score_games,
    second_half_window,
    zero_probability,
)
from drawelo.models import ModelParams, OutcomeProbs, predict_probs
from drawelo.sim import SimSpec, generate_season
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


def test_cell_log_scores_pick_the_realized_column():
    probs = np.array([[[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]],
                      [[0.5, 0.5, 0.0], [0.1, 0.6, 0.3]]])
    games = [game("A", "B", "A", 0), game("C", "D", "D", 1)]
    scores = cell_log_scores(probs, games)
    assert scores.shape == (2, 2)
    assert scores[0].tolist() == [-math.log(0.25), -math.log(0.5)]
    assert scores[1].tolist() == [-math.log(0.5), -math.log(0.3)]
    assert zero_probability(scores[0], games) is None


def test_zero_probability_names_the_first_game():
    probs = np.array([[[1 / 3] * 3, [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]])
    games = [game("A", "B", "H", 0), game("C", "D", "D", 1), game("A", "B", "D", 2)]
    error = zero_probability(cell_log_scores(probs, games)[0], games)
    assert isinstance(error, ZeroProbabilityError)
    assert str(error) == (
        "game 1 (C vs D, 2021-08-02): prediction assigns probability 0 to realized outcome 'D'"
    )


def test_cell_log_scores_use_the_same_log_as_score_games():
    # numpy's vectorised log gives -0.0026422158305394673 here on some CPUs,
    # math.log -0.0026422158305394678
    p = 0.9973612717493856
    rows = [[(0.0, 0.0, p)] * 8 + [(p, 0.0, 0.0)]]
    games = [game("A", "B", "D", i) for i in range(8)] + [game("A", "B", "H", 8)]
    scores = cell_log_scores(np.array(rows), games)
    assert scores[0].tolist() == score_games(rows[0], games) == [-math.log(p)] * 9


@settings(max_examples=100)
@given(st.data())
def test_score_rows_match_cell_log_scores(data):
    # the plain-Python scorer of one row of (p_home, p_away, p_draw) tuples
    # and the array scorer of many
    n = data.draw(st.integers(1, 30))
    rows = data.draw(st.lists(
        st.lists(st.tuples(*[st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0)] * 3),
                 min_size=n, max_size=n),
        min_size=1, max_size=3))
    games = [game("A", "B", data.draw(st.sampled_from("HDA")), i) for i in range(n)]
    table = cell_log_scores(np.array(rows, dtype=float), games)
    for row, scores in zip(rows, table):
        error = zero_probability(scores, games)
        if error is None:
            assert score_games(row, games) == scores.tolist()
        else:
            with pytest.raises(ZeroProbabilityError) as raised:
                score_games(row, games)
            assert str(raised.value) == str(error)


# ---------------------------------------------------------------------------
# second-half mean
# ---------------------------------------------------------------------------


def test_mean_second_half_examples():
    assert evaluate_scores([9.0, 9.0, 1.0, 3.0]).mean_ls == 2.0
    assert evaluate_scores([4.2] * 10).mean_ls == pytest.approx(4.2)


def test_mean_second_half_odd_length_uses_last_ceil_half():
    assert second_half_window(5) == (2, 5)
    assert evaluate_scores([100.0, 100.0, 1.0, 2.0, 3.0]).mean_ls == 2.0


def test_mean_second_half_matches_direct_summation():
    rng = np.random.default_rng(19)
    values = list(rng.exponential(size=380))
    assert evaluate_scores(values).mean_ls == pytest.approx(sum(values[190:]) / 190, rel=1e-12)


def test_mean_second_half_empty_is_an_error():
    with pytest.raises(ValueError):
        evaluate_scores([])


# ---------------------------------------------------------------------------
# credibility interval
# ---------------------------------------------------------------------------


def test_interval_examples():
    assert credibility_interval(list(range(1, 101))) == (1, 95)
    assert credibility_interval([7.5] * 30) == (7.5, 7.5)
    assert credibility_interval([0.0] * 99 + [1000.0]) == (0.0, 0.0)


def test_interval_rejects_empty_and_bad_level():
    with pytest.raises(ValueError):
        credibility_interval([])
    with pytest.raises(ValueError):
        credibility_interval([1.0], level=0.0)


@settings(max_examples=200)
@given(st.lists(st.floats(-1e6, 1e6) | st.sampled_from([-math.inf, math.inf]),
                min_size=1, max_size=500))
def test_interval_matches_exhaustive_scan(values):
    low, high = credibility_interval(values)
    assert (low, high) == brute_min_interval(values)
    k = math.ceil(0.95 * len(values))
    assert sum(1 for v in values if low <= v <= high) >= k


# log scores with many ties, and inf for a zero probability
TIED_SCORES = st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]) | st.floats(0.0, 10.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), window=st.sampled_from(["second-half", "full"]))
def test_evaluate_cells_rows_match_evaluate_scores(data, window):
    # evaluate_scores runs in plain Python, evaluate_cells on arrays: one rule
    n = data.draw(st.integers(1, 80))
    rows = data.draw(st.lists(st.lists(TIED_SCORES, min_size=n, max_size=n),
                              min_size=1, max_size=4))
    for row, report in zip(rows, evaluate_cells(np.array(rows), window)):
        assert report == evaluate_scores(row, window)
        start, end = report.window
        assert report.per_game_ls == row[start:end]
        assert (report.interval_low, report.interval_high) == brute_min_interval(row[start:end])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), level=st.sampled_from([0.5, 0.95, 1.0]) | st.floats(0.01, 1.0))
def test_min_length_intervals_rows_match_credibility_interval(data, level):
    # at any level, ties and infinite ends included, both scans pick one window
    n = data.draw(st.integers(1, 40))
    rows = data.draw(st.lists(st.lists(TIED_SCORES, min_size=n, max_size=n),
                              min_size=1, max_size=4))
    low, high = min_length_intervals(np.array(rows), level)
    for row, interval in zip(rows, zip(low.tolist(), high.tolist())):
        assert interval == credibility_interval(row, level) == brute_min_interval(row, level)


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


def assert_cells_match_each_configuration_alone(games, configs, cells):
    """Each cell's report is the one-configuration report to 1e-12, or the same error."""
    assert len(cells) == len(configs)
    for config, cell in zip(configs, cells):
        alone, = evaluate_configs(games, [config])
        if isinstance(alone, ValueError):
            assert (type(cell), str(cell)) == (type(alone), str(alone))
            continue
        assert cell.window == alone.window
        scores = score_games(run_season(games, config).predictions, games)
        check_report(alone.mean_ls, alone.interval_low, alone.interval_high, scores)
        check_report(cell.mean_ls, cell.interval_low, cell.interval_high, scores)


@settings(max_examples=50, deadline=None)
@given(cases=st.lists(online_cases(max_teams=6), min_size=2, max_size=4))
def test_evaluate_configs_grid_cells_match_each_configuration_alone(cases):
    games = cases[0][2]
    configs = [config for config, _, _ in cases]
    assert_cells_match_each_configuration_alone(games, configs, evaluate_configs(games, configs))


@pytest.mark.parametrize("n_configs", [1, 3])
def test_evaluate_configs_of_no_games_is_an_error_in_every_cell(n_configs):
    cells = evaluate_configs([], [EngineConfig()] * n_configs)
    assert [str(cell) for cell in cells] == ["empty score list"] * n_configs
    assert all(isinstance(cell, ValueError) for cell in cells)
    assert evaluate_configs([], []) == []


def test_failing_cells_leave_the_rest_of_the_grid_alone():
    games = [game("A", "B", "A", 0), game("B", "A", "H", 1), game("A", "B", "D", 2),
             game("C", "D", "H", 3), game("D", "C", "A", 4), game("C", "A", "D", 5)]
    never_draws = EngineConfig(ModelParams(kappa=0.0))
    # a finite step and shift, but after game 0 the return game's difference is inf
    overflows = EngineConfig(ModelParams(sigma=1e307, eta=10.0), k_tilde=10.0)
    configs = [EngineConfig(ModelParams(eta=0.3)), never_draws, overflows,
               EngineConfig(mode=UpdateMode.ELO)]
    cells = evaluate_configs(games, configs)
    assert isinstance(cells[1], ZeroProbabilityError)
    assert str(cells[1]).startswith("game 2 (A vs B, ")
    assert str(cells[2]) == "rating difference must be finite, got inf"
    assert not isinstance(cells[0], ValueError) and not isinstance(cells[3], ValueError)
    assert_cells_match_each_configuration_alone(games, configs, cells)


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

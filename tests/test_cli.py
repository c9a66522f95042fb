import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import BOTH_PATHS, KAPPAS, check_report, online_cases
from drawelo.cli import RunConfig, _csv_cell, _round6, main, run_rate, run_sweep
from drawelo.data import Dataset, load_matches, serialize_matches
from drawelo.engine import UpdateMode, run_season

HEADER = "Date,HomeTeam,AwayTeam,FTR"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, env=None, driver="from drawelo.cli import main; main(sys.argv[1:])"):
    """``drawelo`` ARGS in a fresh interpreter on this checkout's sources."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", f"import sys; {driver}", *args], env=env,
                          capture_output=True, timeout=120)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def season_file(tmp_path, runner):
    """A reproducible synthetic 20-team season in football-data layout."""
    path = tmp_path / "season.csv"
    result = runner.invoke(
        main, ["simulate", "--teams", "20", "--seed", "11", "-o", str(path)]
    )
    assert result.exit_code == 0, result.output
    return path


@pytest.fixture
def toy_file(tmp_path):
    """A beats B twice, B beats A once."""
    path = tmp_path / "toy.csv"
    path.write_text(
        f"{HEADER}\n"
        "01/08/2021,A,B,H\n"
        "02/08/2021,A,B,H\n"
        "03/08/2021,B,A,H\n"
    )
    return path


@pytest.fixture
def draws_file(tmp_path):
    path = tmp_path / "draws.csv"
    path.write_text(
        f"{HEADER}\n"
        "01/08/2021,A,B,D\n"
        "02/08/2021,B,C,D\n"
        "03/08/2021,C,A,D\n"
        "04/08/2021,A,C,D\n"
    )
    return path


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def test_rate_emits_a_full_table_and_trajectory(runner, season_file, tmp_path):
    traj = tmp_path / "trajectory.csv"
    result = runner.invoke(
        main, ["rate", str(season_file), "-f", "csv", "--trajectory", str(traj)]
    )
    assert result.exit_code == 0, result.output
    rows = parse_csv(result.stdout)
    assert len(rows) == 20
    ratings = [float(r["rating"]) for r in rows]
    assert ratings == sorted(ratings, reverse=True)
    traj_rows = parse_csv(traj.read_text())
    assert len(traj_rows) == 380 * 20
    assert traj_rows[0]["game_index"] == "1"
    assert traj_rows[-1]["game_index"] == "380"


def test_rate_trajectory_file_matches_the_snapshots(season_file, tmp_path):
    traj = tmp_path / "trajectory.csv"
    cfg = RunConfig(command="rate", input_path=str(season_file))
    run_rate(cfg, str(traj))
    dataset = load_matches(season_file)
    result = run_season(dataset.games, cfg.engine_config(), players=dataset.team_names)
    expected = ["game_index,team,rating"] + [
        f"{idx},{team},{snapshot[team]:.6g}"
        for idx, snapshot in enumerate(result.trajectory, start=1)
        for team in dataset.team_names
    ]
    assert traj.read_text().splitlines() == expected


def test_rate_trajectory_quotes_names_as_csv_writer_does(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text(
        f"{HEADER}\n"
        '01/08/2021,"Team, United","B ""b""",H\n'
        '02/08/2021,Plain,"Team, United",D\n'
        '03/08/2021,"B ""b""","Line\nBreak",A\n'
        '04/08/2021,Plain,"B ""b""",H\n'
    )
    traj = tmp_path / "trajectory.csv"
    cfg = RunConfig(command="rate", input_path=str(path))
    run_rate(cfg, str(traj))
    dataset = load_matches(path)
    assert dataset.team_names == ["Team, United", 'B "b"', "Plain", "Line\nBreak"]
    result = run_season(dataset.games, cfg.engine_config(), players=dataset.team_names)
    assert traj.read_bytes() == oracles.trajectory_csv(result.trajectory).encode()


def test_rate_writes_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "accents.csv"
    path.write_bytes(f"{HEADER}\n01/08/2021,Café,B,H\n02/08/2021,B,Café,D\n".encode())
    traj = tmp_path / "trajectory.csv"
    result = run_cli(["rate", str(path), "--trajectory", str(traj)],
                     env={"LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
    assert result.returncode == 0, result.stderr
    dataset = load_matches(path)
    run = run_season(dataset.games, RunConfig("rate").engine_config(), dataset.team_names)
    assert traj.read_bytes() == oracles.trajectory_csv(run.trajectory).encode("utf-8")
    assert b"1,Caf\xc3\xa9," in traj.read_bytes()


def test_rate_empty_input_warns_and_succeeds(runner, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    traj = tmp_path / "trajectory.csv"
    result = runner.invoke(main, ["rate", str(empty), "--trajectory", str(traj)])
    assert result.exit_code == 0
    assert "no games" in result.stderr
    assert json.loads(result.stdout)["ratings"] == []
    assert traj.read_bytes() == b"game_index,team,rating\n"


def test_rate_json_and_csv_agree(runner, season_file):
    as_json = runner.invoke(main, ["rate", str(season_file)])
    as_csv = runner.invoke(main, ["rate", str(season_file), "-f", "csv"])
    payload = json.loads(as_json.stdout)
    rows = parse_csv(as_csv.stdout)
    assert [r["team"] for r in rows] == [e["team"] for e in payload["ratings"]]
    for row, entry in zip(rows, payload["ratings"]):
        assert float(row["rating"]) == entry["rating"]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_uniform_degenerate_config_scores_ln3(runner, season_file):
    result = runner.invoke(
        main,
        ["evaluate", str(season_file), "--kappa", "1", "--k-step", "0", "--eta", "0"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["mean_ls"] == pytest.approx(math.log(3), abs=1e-5)
    assert payload["window_start"] == 190 and payload["window_end"] == 380
    assert payload["interval_low"] == payload["interval_high"] == payload["mean_ls"]


def test_evaluate_defaults_are_the_headline_config(runner, season_file):
    result = runner.invoke(main, ["evaluate", str(season_file)])
    payload = json.loads(result.stdout)
    cfg = payload["config"]
    assert cfg["sigma"] == 600.0
    assert cfg["k_tilde"] == 0.125
    assert cfg["eta"] == 0.3
    assert cfg["kappa"] == 0.7
    assert payload["eval_window"] == "second-half"


def test_evaluate_json_csv_parity(runner, season_file):
    as_json = json.loads(runner.invoke(main, ["evaluate", str(season_file)]).stdout)
    row = parse_csv(runner.invoke(main, ["evaluate", str(season_file), "-f", "csv"]).stdout)[0]
    for key in ("mean_ls", "interval_low", "interval_high"):
        assert float(row[key]) == as_json[key]


def test_evaluate_full_window(runner, season_file):
    result = runner.invoke(main, ["evaluate", str(season_file), "--eval-window", "full"])
    payload = json.loads(result.stdout)
    assert payload["window_start"] == 0 and payload["window_end"] == 380


def test_evaluate_zero_probability_is_a_numeric_error(runner, draws_file):
    result = runner.invoke(main, ["evaluate", str(draws_file), "--kappa", "0"])
    assert result.exit_code == 4
    assert "probability 0" in result.stderr


def test_evaluate_baseline_from_odds(runner, tmp_path):
    path = tmp_path / "odds.csv"
    rows = [f"{day:02d}/09/2021,A,B,H,2.0,4.0,4.0" for day in range(1, 5)]
    path.write_text("Date,HomeTeam,AwayTeam,FTR,B365H,B365D,B365A\n" + "\n".join(rows) + "\n")
    result = runner.invoke(main, ["evaluate", str(path), "--baseline"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    # every evaluated game: home win at implied probability one half
    assert payload["baseline"]["mean_ls"] == pytest.approx(math.log(2), abs=1e-5)


def test_evaluate_baseline_missing_odds_is_a_data_error(runner, toy_file, season_file):
    result = runner.invoke(main, ["evaluate", str(toy_file), "--baseline"])
    assert result.exit_code == 3
    assert "odds" in result.stderr
    assert "2 game(s), first game 1 (A vs B, 2021-08-02)" in result.stderr
    # a count and one game, not every index of the window
    result = runner.invoke(main, ["evaluate", str(season_file), "--baseline"])
    assert result.exit_code == 3
    assert "odds are missing on 190 game(s)" in result.stderr
    assert len(result.stderr) < 200


def test_evaluate_baseline_non_finite_odds_name_their_line(runner, tmp_path):
    path = tmp_path / "odds.csv"
    path.write_text("Date,HomeTeam,AwayTeam,FTR,B365H,B365D,B365A\n"
                    "01/09/2021,A,B,H,2.0,4.0,4.0\n02/09/2021,B,A,D,2.0,nan,4.0\n")
    result = runner.invoke(main, ["evaluate", str(path), "--baseline"])
    assert result.exit_code == 3
    assert "line 3" in result.stderr and "odds" in result.stderr


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_single_cell_matches_evaluate(runner, season_file):
    evaluated = json.loads(runner.invoke(main, ["evaluate", str(season_file)]).stdout)
    swept = json.loads(
        runner.invoke(
            main,
            ["sweep", str(season_file), "--eta-grid", "0.3", "--kappa-grid", "0.7"],
        ).stdout
    )
    cell = swept["cells"][0]
    assert cell["mean_ls"] == evaluated["mean_ls"]
    assert cell["interval_low"] == evaluated["interval_low"]
    assert cell["interval_high"] == evaluated["interval_high"]
    assert cell["error"] is None


def test_sweep_cells_match_evaluate(runner, season_file):
    # one pass over the grid prints for each cell what evaluate prints for it
    swept = json.loads(runner.invoke(
        main,
        ["sweep", str(season_file), "--eta-grid", "0,0.3", "--kappa-grid", "0.4,1",
         "--modes", "kappa-elo,elo,elo-check"],
    ).stdout)["cells"]
    assert len(swept) == 12
    for cell in swept:
        kappa_option = "--check-kappa" if cell["mode"] == "elo-check" else "--kappa"
        evaluated = json.loads(runner.invoke(
            main,
            ["evaluate", str(season_file), "--mode", cell["mode"], "--eta", str(cell["eta"]),
             kappa_option, str(cell["kappa"])],
        ).stdout)
        for key in ("mean_ls", "interval_low", "interval_high"):
            assert cell[key] == evaluated[key]


@BOTH_PATHS
@settings(max_examples=60, deadline=None)
@given(
    case=online_cases(),
    kappas=st.lists(KAPPAS, min_size=1, max_size=3),
    etas=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=2),
    modes=st.lists(st.sampled_from(list(UpdateMode)), min_size=1, max_size=3, unique=True),
)
def test_sweep_matches_the_scalar_oracle(vectorize, case, kappas, etas, modes):
    # a one-cell grid runs on floats, a grid of two or more cells on vectors
    if not vectorize:
        kappas, etas, modes = kappas[:1], etas[:1], modes[:1]
    elif len(kappas) * len(etas) * len(modes) == 1:
        etas = etas * 2
    config, _, games = case
    dataset = Dataset(games=games)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "season.csv"
        path.write_text(serialize_matches(dataset), newline="")
        cfg = RunConfig(command="sweep", input_path=str(path), sigma=config.model.sigma,
                        k_tilde=config.k_tilde, kappa=config.model.kappa)
        rows = run_sweep(cfg, etas, kappas, modes, 1)["cells"]
    cells = [(mode, kappa, eta) for mode in modes for kappa in kappas for eta in etas]
    assert len(rows) == len(cells)
    for row, (mode, kappa, eta) in zip(rows, cells):
        cell = replace(cfg, mode=mode, eta=eta, kappa=kappa, check_kappa=kappa).engine_config()
        _, predictions, _ = oracles.run_season(games, cell, dataset.team_names)
        scores = oracles.log_scores(predictions, games) if games else None
        if scores is None:
            assert row["mean_ls"] is None
            assert ("probability 0" if games else "empty score list") in row["error"]
        else:
            assert row["error"] is None
            check_report(row["mean_ls"], row["interval_low"], row["interval_high"], scores)


def test_sweep_grid_shape_and_csv(runner, season_file):
    result = runner.invoke(
        main,
        ["sweep", str(season_file), "-f", "csv",
         "--eta-grid", "0,0.3", "--kappa-grid", "0.4,0.7,1", "--modes", "kappa-elo,elo-check"],
    )
    assert result.exit_code == 0, result.output
    rows = parse_csv(result.stdout)
    assert len(rows) == 2 * 3 * 2
    assert {r["mode"] for r in rows} == {"kappa-elo", "elo-check"}
    assert all(r["error"] == "" for r in rows)


def test_sweep_kappa_grid_drives_check_kappa_for_elo_check(runner, season_file):
    # an elo-check cell predicting with the grid's kappa: kappa-elo and
    # elo-check at kappa=1 should land close but not identical
    result = runner.invoke(
        main,
        ["sweep", str(season_file),
         "--kappa-grid", "1", "--modes", "kappa-elo,elo-check"],
    )
    cells = json.loads(result.stdout)["cells"]
    assert len(cells) == 2
    a, b = (c["mean_ls"] for c in cells)
    assert a != b
    assert abs(a - b) < 0.02


def test_sweep_records_cell_errors_and_continues(runner, draws_file):
    result = runner.invoke(
        main, ["sweep", str(draws_file), "--kappa-grid", "0,1", "--eta-grid", "0"]
    )
    assert result.exit_code == 0, result.output
    cells = json.loads(result.stdout)["cells"]
    assert "probability 0" in cells[0]["error"]
    assert cells[0]["mean_ls"] is None
    assert cells[1]["error"] is None


def test_sweep_invalid_grid_value_is_a_cell_error(runner, season_file):
    result = runner.invoke(main, ["sweep", str(season_file), "--kappa-grid", "-1,0.7"])
    assert result.exit_code == 0, result.output
    bad, good = json.loads(result.stdout)["cells"]
    assert bad["error"].startswith("kappa must be") and bad["mean_ls"] is None
    assert good["error"] is None and good["mean_ls"] > 0


def test_sweep_overflowing_eta_is_a_cell_error(runner, season_file):
    result = runner.invoke(main, ["sweep", str(season_file), "--sigma", "1e300",
                                  "--eta-grid", "1e10,0.3"])
    assert result.exit_code == 0, result.output
    bad, good = json.loads(result.stdout)["cells"]
    assert bad["error"].startswith("eta * sigma must be finite") and bad["mean_ls"] is None
    assert good["error"] is None and good["mean_ls"] > 0


def test_sweep_grid_kappa_is_each_cells_kappa_in_every_mode(runner, season_file):
    # elo ignores the grid kappa and elo-check predicts with it, but in every
    # mode it is the cell's kappa, checked as kappa
    result = runner.invoke(main, ["sweep", str(season_file), "--kappa-grid", "-1,nan",
                                  "--modes", "elo,elo-check"])
    assert result.exit_code == 0, result.output
    cells = json.loads(result.stdout)["cells"]
    assert len(cells) == 4
    assert all(c["error"].startswith("kappa must be") for c in cells)


def test_sweep_empty_season_gives_error_rows(runner, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    result = runner.invoke(main, ["sweep", str(empty), "--kappa-grid", "-1,0.7"])
    assert result.exit_code == 0, result.output
    bad, good = json.loads(result.stdout)["cells"]
    assert bad["error"].startswith("kappa must be")
    assert good["error"] == "empty score list"


def test_sweep_jobs_do_not_change_results(runner, season_file):
    args = ["sweep", str(season_file), "--kappa-grid", "0.4,1", "--eta-grid", "0,0.3"]
    serial = runner.invoke(main, args + ["--jobs", "1"]).stdout
    threaded = runner.invoke(main, args + ["--jobs", "4"]).stdout
    assert serial == threaded


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_two_team_toy_recovers_the_closed_form(runner, toy_file):
    # the closed form assumes no home advantage in the fitted model
    result = runner.invoke(main, ["fit", str(toy_file), "--family", "binary", "--eta", "0"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["converged"] is True
    ratings = {r["team"]: r["rating"] for r in payload["ratings"]}
    assert ratings["A"] - ratings["B"] == pytest.approx(600 * math.log10(2), abs=0.6)


def test_fit_all_draws_is_the_zero_vector(runner, draws_file):
    result = runner.invoke(main, ["fit", str(draws_file), "--kappa", "1", "--eta", "0"])
    payload = json.loads(result.stdout)
    assert all(abs(r["rating"]) < 1e-4 for r in payload["ratings"])


def test_fit_non_convergence_exits_4(runner, season_file):
    result = runner.invoke(main, ["fit", str(season_file), "--max-iters", "1"])
    assert result.exit_code == 4
    assert "did not converge" in result.stderr


def test_fit_has_no_step_option(runner, toy_file):
    result = runner.invoke(main, ["fit", str(toy_file), "--step", "1"])
    assert result.exit_code == 2


def test_fit_separable_data_is_a_numeric_error(runner, tmp_path):
    path = tmp_path / "sep.csv"
    path.write_text(f"{HEADER}\n01/08/2021,A,B,H\n02/08/2021,A,B,H\n")
    result = runner.invoke(main, ["fit", str(path), "--family", "binary"])
    assert result.exit_code == 4
    assert "ridge" in result.stderr


# ---------------------------------------------------------------------------
# simulate / stats
# ---------------------------------------------------------------------------


def test_simulate_is_reproducible(runner, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        result = runner.invoke(
            main, ["simulate", "--teams", "6", "--seed", "3", "-o", str(path)]
        )
        assert result.exit_code == 0, result.output
    assert a.read_text() == b.read_text()
    assert (tmp_path / "a.csv.truth.csv").exists()
    truth_rows = parse_csv((tmp_path / "a.csv.truth.csv").read_text())
    assert len(truth_rows) == 6
    assert sum(float(r["rating"]) for r in truth_rows) == pytest.approx(0.0, abs=1e-9)


def test_simulate_kappa_zero_produces_no_draws(runner, tmp_path):
    path = tmp_path / "nodraw.csv"
    runner.invoke(main, ["simulate", "--teams", "8", "--kappa", "0", "-o", str(path)])
    rows = parse_csv(path.read_text())
    assert len(rows) == 56
    assert all(r["FTR"] != "D" for r in rows)


def test_simulate_equal_ratings_kappa2_draw_rate(runner, tmp_path):
    path = tmp_path / "half.csv"
    runner.invoke(
        main,
        ["simulate", "--teams", "20", "--spacing", "0", "--kappa", "2", "--eta", "0",
         "--seed", "5", "-o", str(path)],
    )
    rows = parse_csv(path.read_text())
    draw_rate = sum(1 for r in rows if r["FTR"] == "D") / len(rows)
    assert abs(draw_rate - 0.5) < 0.05


def test_stats_counts(runner, tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(
        f"{HEADER}\n"
        "01/08/2021,A,B,H\n02/08/2021,B,A,D\n03/08/2021,A,C,A\n04/08/2021,C,B,A\n"
    )
    result = runner.invoke(main, ["stats", str(path)])
    payload = json.loads(result.stdout)
    assert payload["n_games"] == 4
    assert payload["p_home_bar"] == 0.25
    assert payload["p_draw_bar"] == 0.25
    assert payload["p_away_bar"] == 0.5
    assert payload["delta_bar"] == -0.25
    assert payload["kappa_bar"] == pytest.approx(2 / 3, abs=1e-6)


def test_stats_synthetic_kappa_zero_season(runner, tmp_path):
    path = tmp_path / "nodraw.csv"
    runner.invoke(main, ["simulate", "--teams", "6", "--kappa", "0", "-o", str(path)])
    payload = json.loads(runner.invoke(main, ["stats", str(path)]).stdout)
    assert payload["p_draw_bar"] == 0.0
    assert payload["kappa_bar"] == 0.0


def test_stats_all_draws_reports_infinite_kappa(runner, draws_file):
    payload = json.loads(runner.invoke(main, ["stats", str(draws_file)]).stdout)
    assert payload["kappa_bar"] == "inf"


def test_stats_reads_a_file_with_a_byte_order_mark(runner, season_file, tmp_path):
    # as a spreadsheet saves a CSV in UTF-8: the mark would hide the Date column
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + season_file.read_bytes())
    results = [runner.invoke(main, ["stats", str(path)]) for path in (season_file, bom)]
    assert [r.exit_code for r in results] == [0, 0], results[1].output
    plain, marked = (json.loads(r.stdout) for r in results)
    assert marked.pop("input") == str(bom)
    assert plain.pop("input") == str(season_file)
    assert marked == plain


def test_stats_empty_file_is_a_data_error(runner, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    result = runner.invoke(main, ["stats", str(empty)])
    assert result.exit_code == 3


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_file_is_a_data_error(runner):
    result = runner.invoke(main, ["evaluate", "no-such-file.csv"])
    assert result.exit_code == 3


def test_missing_column_is_a_data_error(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("Date,HomeTeam,AwayTeam\n01/08/2021,A,B\n")
    result = runner.invoke(main, ["rate", str(path)])
    assert result.exit_code == 3
    assert "FTR" in result.stderr


def test_unknown_flag_is_a_usage_error(runner, season_file):
    result = runner.invoke(main, ["evaluate", str(season_file), "--nope"])
    assert result.exit_code == 2


def test_bad_grid_is_a_usage_error(runner, season_file):
    result = runner.invoke(main, ["sweep", str(season_file), "--kappa-grid", "a,b"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "option,value",
    [("--kappa", "nan"), ("--kappa", "-1"), ("--eta", "inf"),
     ("--check-kappa", "nan"), ("--k-step", "-1")],
)
def test_invalid_parameter_is_a_usage_error_naming_the_option(runner, season_file, option, value):
    result = runner.invoke(main, ["evaluate", str(season_file), option, value])
    assert result.exit_code == 2
    assert option in result.stderr
    assert "rating difference" not in result.stderr


def test_nan_is_printed_as_null_or_empty():
    assert json.dumps(_round6({"x": math.nan, "y": [math.nan, 1.0]})) == '{"x": null, "y": [null, 1.0]}'
    assert _csv_cell(math.nan) == ""


@pytest.mark.parametrize(
    "args,option",
    [(["fit", "missing.csv", "--ridge", "-1"], "--ridge"),
     (["fit", "missing.csv", "--ridge", "nan"], "--ridge"),
     (["fit", "missing.csv", "--tol", "nan"], "--tol"),
     (["fit", "missing.csv", "--tol", "-1"], "--tol"),
     (["fit", "missing.csv", "--max-iters", "-3"], "--max-iters"),
     (["simulate", "--spacing", "nan", "-o", "out.csv"], "--spacing"),
     (["simulate", "--spacing", "inf", "-o", "out.csv"], "--spacing"),
     (["fit", "missing.csv", "--v0", "nan"], "--v0"),
     (["simulate", "--seed", "-1", "-o", "out.csv"], "--seed"),
     (["simulate", "--teams", "3", "--spacing", "1e308", "-o", "out.csv"], "--spacing"),
     (["fit", "missing.csv", "--sigma", "1e300", "--eta", "1e10"], "--eta")],
)
def test_invalid_fit_or_simulate_option_is_a_usage_error(runner, tmp_path, args, option):
    # the input does not exist: reading it first would be a data error, exit 3
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args)
        assert not Path("out.csv").exists()
    assert result.exit_code == 2, result.output
    assert option in result.stderr


@pytest.mark.parametrize(
    "args,option",
    [(["evaluate", "one.csv", "--sigma", "1e300", "--eta", "1e10"], "--eta"),
     (["rate", "one.csv", "--sigma", "1e10", "--k-step", "1e300", "--eta", "0",
       "--trajectory", "out.csv"], "--k-step"),
     (["sweep", "one.csv", "--sigma", "1e10", "--k-step", "1e300"], "--k-step"),
     (["simulate", "--sigma", "1e300", "--eta", "1e10", "-o", "out.csv"], "--eta")],
)
def test_overflowing_shift_or_step_is_a_usage_error(runner, tmp_path, args, option):
    # an infinite shift eta * sigma, or an infinite step k-step * sigma,
    # whose inf * 0 on a draw between equals would print null ratings
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("one.csv").write_text(f"{HEADER}\n01/08/2021,A,B,D\n")
        result = runner.invoke(main, args)
        assert not Path("out.csv").exists()
    assert result.exit_code == 2, result.output
    assert option in result.stderr and "rating difference" not in result.stderr


# ---------------------------------------------------------------------------
# options: each command takes the RunConfig fields it reads
# ---------------------------------------------------------------------------

RATE_OPTIONS = ["--sigma", "--k-step", "--kappa", "--eta", "--check-kappa", "--mode"]
BATCH_OPTIONS = ["--sigma", "--kappa", "--eta", "--v0", "--family"]
COMMAND_OPTIONS = {
    "rate": RATE_OPTIONS + ["--output-format", "--trajectory"],
    "evaluate": RATE_OPTIONS + ["--eval-window", "--output-format", "--baseline"],
    "sweep": ["--sigma", "--k-step", "--eval-window", "--output-format",
              "--eta-grid", "--kappa-grid", "--modes", "--jobs"],
    "fit": BATCH_OPTIONS + ["--output-format", "--max-iters", "--tol", "--ridge"],
    "simulate": BATCH_OPTIONS + ["--output-format", "--teams", "--spacing", "--rounds",
                                 "--seed", "--output", "--truth"],
    "stats": ["--output-format"],
}
# a valid value for the option of every RunConfig field but output_format
FIELD_VALUES = {"--sigma": "600", "--k-step": "0.1", "--kappa": "1", "--eta": "0.1",
                "--check-kappa": "1", "--v0": "1", "--mode": "elo", "--family": "threshold",
                "--eval-window": "full"}


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_help_lists_exactly_the_options_a_command_reads(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    listed = re.findall(r"^  (?:-\w, )?(--[\w-]+)", result.stdout, flags=re.MULTILINE)
    assert listed == COMMAND_OPTIONS[command] + ["--help"]


@pytest.mark.parametrize("command,option", [
    (command, option) for command, options in COMMAND_OPTIONS.items()
    for option in FIELD_VALUES if option not in options
])
def test_options_a_command_does_not_read_are_usage_errors(runner, tmp_path, command, option):
    args = ["-o", "out.csv"] if command == "simulate" else ["missing.csv"]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, [command, *args, option, FIELD_VALUES[option]])
        assert not Path("out.csv").exists()
    assert result.exit_code == 2, result.output
    assert "No such option" in result.stderr and option in result.stderr


@pytest.mark.parametrize("command,extra,config", [
    ("rate", ["--mode", "elo"],
     {"sigma": 600.0, "k_tilde": 0.125, "kappa": 0.7, "eta": 0.3, "check_kappa": 1.0,
      "mode": "elo"}),
    ("evaluate", ["--check-kappa", "2"],
     {"sigma": 600.0, "k_tilde": 0.125, "kappa": 0.7, "eta": 0.3, "check_kappa": 2.0,
      "mode": "kappa-elo"}),
    ("simulate", ["--family", "threshold", "--v0", "100"],
     {"sigma": 600.0, "kappa": 0.7, "eta": 0.3, "v0": 100.0, "family": "threshold"}),
])
def test_config_echoes_exactly_the_fields_a_command_reads(
    runner, season_file, tmp_path, command, extra, config
):
    args = ["-o", str(tmp_path / "sim.csv")] if command == "simulate" else [str(season_file)]
    result = runner.invoke(main, [command, *args, *extra])
    assert result.exit_code == 0, result.output
    echoed = json.loads(result.stdout)["config"]
    assert list(echoed.items()) == list(config.items())


# ---------------------------------------------------------------------------
# numpy stays unloaded where no command builds an array
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def season_with_odds(tmp_path_factory):
    """``simulate --rounds 1`` of 20 teams (380 games, runs of 10), with odds added."""
    path = tmp_path_factory.mktemp("numpy_free") / "season.csv"
    result = CliRunner().invoke(main, ["simulate", "--rounds", "1", "-o", str(path)])
    assert result.exit_code == 0, result.output
    dataset = load_matches(path)
    dataset.games[:] = [replace(g, odds=(2.5, 3.2, 2.9)) for g in dataset.games]
    path.write_text(serialize_matches(dataset), newline="")
    return path


@pytest.fixture(scope="module")
def league_100(tmp_path_factory):
    """``simulate --teams 100`` (9,900 games, runs of 50)."""
    path = tmp_path_factory.mktemp("numpy_free") / "league.csv"
    result = CliRunner().invoke(main, ["simulate", "--teams", "100", "-o", str(path)])
    assert result.exit_code == 0, result.output
    return path


GRID_32 = ["--kappa-grid", "0.4,0.7,1,2", "--eta-grid", "0,0.15,0.3,0.45",
           "--modes", "kappa-elo,elo-check"]


@pytest.mark.parametrize("season,args,loads_numpy", [
    ("season_with_odds", ["stats"], False),
    ("season_with_odds", ["evaluate", "--baseline"], False),
    ("season_with_odds", ["rate", "--trajectory", "{tmp}/trajectory.csv"], False),
    ("season_with_odds", ["sweep"], False),
    ("season_with_odds", ["sweep", "--modes", "kappa-elo,elo"], True),
    ("season_with_odds", ["sweep", *GRID_32], True),
    ("season_with_odds", ["fit"], True),
    ("league_100", ["evaluate"], False),
    ("league_100", ["rate", "--trajectory", "{tmp}/trajectory.csv"], False),
    (None, ["simulate", "-o", "{tmp}/season.csv"], False),
], ids=["stats", "evaluate", "rate", "sweep-1-cell", "sweep-2-cells", "sweep-32-cells", "fit",
        "evaluate-100-teams", "rate-100-teams", "simulate"])
def test_one_season_commands_run_without_numpy(request, tmp_path, season, args, loads_numpy):
    # one configuration runs on floats whatever the season's length; a grid
    # of two or more cells takes the vector kernel; the simulator draws
    # numpy's PCG64 stream in plain Python
    command, *options = [a.format(tmp=tmp_path) for a in args]
    inputs = [str(request.getfixturevalue(season))] if season else []
    result = run_cli(
        [command, *inputs, *options],
        driver="from drawelo.cli import main\n"
               "try:\n    main(sys.argv[1:])\n"
               "finally:\n    print('numpy' in sys.modules, file=sys.stderr)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.decode().splitlines()[-1] == str(loads_numpy)

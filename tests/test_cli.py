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
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (BOTH_PATHS, KAPPAS, check_report, child_env, invoke, online_cases,
                      run_cli)
from drawelo import cli
from drawelo.cli import RunConfig, _csv_cell, _round6, run_fit, run_rate, run_sweep
from drawelo.data import Dataset, load_matches, serialize_matches
from drawelo.engine import EngineConfig, FitResult, RatingState, UpdateMode, run_season
from drawelo.evaluation import evaluate_configs
from drawelo.models import ModelFamily, ModelParams
from drawelo.sim import SimSpec, generate_season

HEADER = "Date,HomeTeam,AwayTeam,FTR"


@pytest.fixture
def season_file(tmp_path):
    """A reproducible synthetic 20-team season in football-data layout."""
    path = tmp_path / "season.csv"
    result = invoke(["simulate", "--teams", "20", "--seed", "11", "-o", str(path)])
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


def test_rate_emits_a_full_table_and_trajectory(season_file, tmp_path):
    traj = tmp_path / "trajectory.csv"
    result = invoke(["rate", str(season_file), "-f", "csv", "--trajectory", str(traj)])
    assert result.exit_code == 0, result.output
    rows = parse_csv(result.stdout)
    assert len(rows) == 20
    ratings = [float(r["rating"]) for r in rows]
    assert ratings == sorted(ratings, reverse=True)
    traj_rows = parse_csv(traj.read_text())
    assert len(traj_rows) == 380 * 20
    assert traj_rows[0]["game_index"] == "1"
    assert traj_rows[-1]["game_index"] == "380"


def test_rate_trajectory_of_100_teams_has_a_row_per_team_per_game(league_100, tmp_path):
    # 9,900 games: the header, then 100 rows per game
    traj = tmp_path / "trajectory.csv"
    result = invoke(["rate", str(league_100), "--trajectory", str(traj)])
    assert result.exit_code == 0, result.output
    lines = traj.read_bytes().splitlines()
    assert len(lines) == 9900 * 100 + 1
    assert lines[1].startswith(b"1,") and lines[-1].startswith(b"9900,")


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


def test_rate_trajectory_past_the_write_buffer_matches_csv_writer(tmp_path):
    # 50 teams write about 1.7 MB, more than the writer's 1 MiB buffer
    season = generate_season(SimSpec({f"T{i:02d}": 12.0 * i for i in range(50)}, seed=4))
    names = {"T07": 'Club "Q", FC', "T31": "Ferencváros"}
    games = [replace(g, home_id=names.get(g.home_id, g.home_id),
                     away_id=names.get(g.away_id, g.away_id)) for g in season.games]
    path = tmp_path / "season.csv"
    path.write_text(serialize_matches(Dataset(games)), encoding="utf-8")
    traj = tmp_path / "trajectory.csv"
    cfg = RunConfig(command="rate", input_path=str(path))
    run_rate(cfg, str(traj))
    dataset = load_matches(path)
    assert set(names.values()) <= set(dataset.team_names)
    result = run_season(dataset.games, cfg.engine_config(), players=dataset.team_names)
    want = oracles.trajectory_csv(result.trajectory).encode("utf-8")
    assert len(want) > 1 << 20
    assert traj.read_bytes() == want


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


def test_rate_empty_input_warns_and_succeeds(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    traj = tmp_path / "trajectory.csv"
    result = invoke(["rate", str(empty), "--trajectory", str(traj)])
    assert result.exit_code == 0
    assert "no games" in result.stderr
    assert json.loads(result.stdout)["ratings"] == []
    assert traj.read_bytes() == b"game_index,team,rating\n"


def test_rate_json_and_csv_agree(season_file):
    as_json = invoke(["rate", str(season_file)])
    as_csv = invoke(["rate", str(season_file), "-f", "csv"])
    payload = json.loads(as_json.stdout)
    rows = parse_csv(as_csv.stdout)
    assert [r["team"] for r in rows] == [e["team"] for e in payload["ratings"]]
    for row, entry in zip(rows, payload["ratings"]):
        assert float(row["rating"]) == entry["rating"]


def test_ratings_that_print_alike_are_listed_by_team(monkeypatch, toy_file):
    # one bit apart: both print as -430.513, so rounding noise must not order them
    low = -430.5133669052602
    ratings = {"B": math.nextafter(low, 0.0), "A": low, "C": 1.0}
    fitted = FitResult(theta=ratings, nll=0.0, grad_max_norm=0.0, iterations=1,
                       stop_reason="gradient")
    monkeypatch.setattr(cli, "batch_ml_fit", lambda *args, **kwargs: fitted)
    monkeypatch.setattr(cli, "run_season",
                        lambda *args, **kwargs: SimpleNamespace(state=RatingState(ratings)))
    cfg = RunConfig("fit", input_path=str(toy_file))
    fit, rate = run_fit(cfg, None, 5000, 1e-6, 0.0), run_rate(cfg.replace(command="rate"), None)
    for payload in fit, rate:
        assert payload["ratings"] == [{"team": "C", "rating": 1.0}, {"team": "A", "rating": low},
                                      {"team": "B", "rating": math.nextafter(low, 0.0)}]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_uniform_degenerate_config_scores_ln3(season_file):
    result = invoke(
        ["evaluate", str(season_file), "--kappa", "1", "--k-step", "0", "--eta", "0"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["mean_ls"] == pytest.approx(math.log(3), abs=1e-5)
    assert payload["window_start"] == 190 and payload["window_end"] == 380
    assert payload["interval_low"] == payload["interval_high"] == payload["mean_ls"]


def test_evaluate_defaults_are_the_headline_config(season_file):
    result = invoke(["evaluate", str(season_file)])
    payload = json.loads(result.stdout)
    cfg = payload["config"]
    assert cfg["sigma"] == 600.0
    assert cfg["k_tilde"] == 0.125
    assert cfg["eta"] == 0.3
    assert cfg["kappa"] == 0.7
    assert payload["eval_window"] == "second-half"


def test_evaluate_json_csv_parity(season_file):
    as_json = json.loads(invoke(["evaluate", str(season_file)]).stdout)
    row = parse_csv(invoke(["evaluate", str(season_file), "-f", "csv"]).stdout)[0]
    for key in ("mean_ls", "interval_low", "interval_high"):
        assert float(row[key]) == as_json[key]


def test_evaluate_full_window(season_file):
    result = invoke(["evaluate", str(season_file), "--eval-window", "full"])
    payload = json.loads(result.stdout)
    assert payload["window_start"] == 0 and payload["window_end"] == 380


def test_evaluate_zero_probability_is_a_numeric_error(draws_file):
    result = invoke(["evaluate", str(draws_file), "--kappa", "0"])
    assert result.exit_code == 4
    assert "probability 0" in result.stderr


def test_a_sure_outcome_scores_positive_zero_on_both_paths(tmp_path):
    # eta = 1000 at sigma = 0.001 gives each home win probability 1: -ln 1
    # is -0.0, which would print as "-0"
    path = tmp_path / "sure.csv"
    path.write_text(HEADER + "\n" + "".join(f"0{day}/08/2021,A,B,H\n" for day in range(1, 9)))
    args = ["--sigma", "0.001", "-f", "csv"]
    one = invoke(["evaluate", str(path), "--eta", "1000", "--eval-window", "full", *args])
    grid = invoke(["sweep", str(path), "--eta-grid", "1000,0.3", *args])
    assert one.exit_code == grid.exit_code == 0, one.output + grid.output
    assert one.stdout.splitlines()[1].endswith(",kappa-elo,0.7,1000,0,0,0,")
    assert grid.stdout.splitlines()[1].endswith(",kappa-elo,0.7,1000,0,0,0,")
    payload = json.loads(invoke(["evaluate", str(path), "--sigma", "0.001", "--eta", "1000",
                                 "--eval-window", "full"]).stdout)
    scores = (payload["mean_ls"], payload["interval_low"], payload["interval_high"])
    assert [math.copysign(1.0, s) for s in scores] == [1.0, 1.0, 1.0]


def test_evaluate_baseline_from_odds(tmp_path):
    path = tmp_path / "odds.csv"
    rows = [f"{day:02d}/09/2021,A,B,H,2.0,4.0,4.0" for day in range(1, 5)]
    path.write_text("Date,HomeTeam,AwayTeam,FTR,B365H,B365D,B365A\n" + "\n".join(rows) + "\n")
    result = invoke(["evaluate", str(path), "--baseline"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    # every evaluated game: home win at implied probability one half
    assert payload["baseline"]["mean_ls"] == pytest.approx(math.log(2), abs=1e-5)


def test_evaluate_baseline_missing_odds_is_a_data_error(toy_file, season_file):
    result = invoke(["evaluate", str(toy_file), "--baseline"])
    assert result.exit_code == 3
    assert "odds" in result.stderr
    assert "2 game(s), first game 1 (A vs B, 2021-08-02)" in result.stderr
    # a count and one game, not every index of the window
    result = invoke(["evaluate", str(season_file), "--baseline"])
    assert result.exit_code == 3
    assert "odds are missing on 190 game(s)" in result.stderr
    assert len(result.stderr) < 200


def test_evaluate_baseline_non_finite_odds_name_their_line(tmp_path):
    path = tmp_path / "odds.csv"
    path.write_text("Date,HomeTeam,AwayTeam,FTR,B365H,B365D,B365A\n"
                    "01/09/2021,A,B,H,2.0,4.0,4.0\n02/09/2021,B,A,D,2.0,nan,4.0\n")
    result = invoke(["evaluate", str(path), "--baseline"])
    assert result.exit_code == 3
    assert "line 3" in result.stderr and "odds" in result.stderr



@pytest.mark.parametrize("cell", ["", "   "])
def test_rate_empty_team_cell_is_a_data_error(tmp_path, cell):
    path = tmp_path / "blank_team.csv"
    path.write_text(f"{HEADER}\n01/08/2017,A,B,H\n02/08/2017,{cell},B,D\n")
    result = invoke(["rate", str(path)])
    assert result.exit_code == 3
    assert "line 3: home_id" in result.stderr and result.stdout == ""

# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_single_cell_matches_evaluate(season_file):
    evaluated = json.loads(invoke(["evaluate", str(season_file)]).stdout)
    swept = json.loads(
        invoke(["sweep", str(season_file), "--eta-grid", "0.3", "--kappa-grid", "0.7"]).stdout
    )
    cell = swept["cells"][0]
    assert cell["mean_ls"] == evaluated["mean_ls"]
    assert cell["interval_low"] == evaluated["interval_low"]
    assert cell["interval_high"] == evaluated["interval_high"]
    assert cell["error"] is None


def test_sweep_cells_match_evaluate(season_file):
    # one pass over the grid prints for each cell what evaluate prints for it
    swept = json.loads(invoke(
        ["sweep", str(season_file), "--eta-grid", "0,0.3", "--kappa-grid", "0.4,1",
         "--modes", "kappa-elo,elo,elo-check"],
    ).stdout)["cells"]
    assert len(swept) == 12
    for cell in swept:
        evaluated = json.loads(invoke(
            ["evaluate", str(season_file), "--mode", cell["mode"], "--eta", str(cell["eta"]),
             "--kappa", str(cell["kappa"])],
        ).stdout)
        for key in ("mean_ls", "interval_low", "interval_high"):
            assert cell[key] == evaluated[key]


@pytest.mark.parametrize("kappa", [0.4, 1.0])
def test_elo_check_forecasts_with_kappa(season_file, kappa):
    # --kappa is the library's check kappa in elo-check; the update never reads it
    evaluated = json.loads(invoke(
        ["evaluate", str(season_file), "--mode", "elo-check", "--kappa", str(kappa)],
    ).stdout)
    config = EngineConfig(model=ModelParams(sigma=600.0, kappa=0.7, eta=0.3), k_tilde=0.125,
                          mode=UpdateMode.ELO_CHECK_KAPPA, check_kappa=kappa)
    report, = evaluate_configs(load_matches(season_file).games, [config])
    for key in ("mean_ls", "interval_low", "interval_high"):
        assert evaluated[key] == _round6(getattr(report, key))


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
        cell = cfg.replace(mode=mode, eta=eta, kappa=kappa).engine_config()
        _, predictions, _ = oracles.run_season(games, cell, dataset.team_names)
        scores = oracles.log_scores(predictions, games) if games else None
        if scores is None:
            assert row["mean_ls"] is None
            assert ("probability 0" if games else "empty score list") in row["error"]
        else:
            assert row["error"] is None
            check_report(row["mean_ls"], row["interval_low"], row["interval_high"], scores)


def test_sweep_grid_shape_and_csv(season_file):
    result = invoke(
        ["sweep", str(season_file), "-f", "csv",
         "--eta-grid", "0,0.3", "--kappa-grid", "0.4,0.7,1", "--modes", "kappa-elo,elo-check"],
    )
    assert result.exit_code == 0, result.output
    rows = parse_csv(result.stdout)
    assert len(rows) == 2 * 3 * 2
    assert {r["mode"] for r in rows} == {"kappa-elo", "elo-check"}
    assert all(r["error"] == "" for r in rows)


def test_sweep_kappa_grid_drives_check_kappa_for_elo_check(season_file):
    # an elo-check cell predicting with the grid's kappa: kappa-elo and
    # elo-check at kappa=1 should land close but not identical
    result = invoke(
        ["sweep", str(season_file),
         "--kappa-grid", "1", "--modes", "kappa-elo,elo-check"],
    )
    cells = json.loads(result.stdout)["cells"]
    assert len(cells) == 2
    a, b = (c["mean_ls"] for c in cells)
    assert a != b
    assert abs(a - b) < 0.02


def test_sweep_records_cell_errors_and_continues(draws_file):
    result = invoke(["sweep", str(draws_file), "--kappa-grid", "0,1", "--eta-grid", "0"])
    assert result.exit_code == 0, result.output
    cells = json.loads(result.stdout)["cells"]
    assert "probability 0" in cells[0]["error"]
    assert cells[0]["mean_ls"] is None
    assert cells[1]["error"] is None


@pytest.mark.parametrize("grid", [["--kappa-grid", "-1,0.7"], ["--kappa-grid=-1,0.7"]],
                         ids=["separate", "joined"])
def test_sweep_invalid_grid_value_is_a_cell_error(season_file, grid):
    # a value that starts with "-" is read as the option's value, however it is passed
    result = invoke(["sweep", str(season_file), *grid])
    assert result.exit_code == 0, result.output
    bad, good = json.loads(result.stdout)["cells"]
    assert bad["error"].startswith("kappa must be") and bad["mean_ls"] is None
    assert good["error"] is None and good["mean_ls"] > 0


def test_sweep_overflowing_eta_is_a_cell_error(season_file):
    result = invoke(["sweep", str(season_file), "--sigma", "1e300",
                     "--eta-grid", "1e10,0.3"])
    assert result.exit_code == 0, result.output
    bad, good = json.loads(result.stdout)["cells"]
    assert bad["error"].startswith("eta * sigma must be finite") and bad["mean_ls"] is None
    assert good["error"] is None and good["mean_ls"] > 0


def test_sweep_grid_kappa_is_each_cells_kappa_in_every_mode(season_file):
    # elo ignores the grid kappa and elo-check predicts with it, but in every
    # mode it is the cell's kappa, checked as kappa
    result = invoke(["sweep", str(season_file), "--kappa-grid", "-1,nan",
                     "--modes", "elo,elo-check"])
    assert result.exit_code == 0, result.output
    cells = json.loads(result.stdout)["cells"]
    assert len(cells) == 4
    assert all(c["error"].startswith("kappa must be") for c in cells)


def test_sweep_prints_equal_elo_cells_for_each_grid_kappa(season_file):
    # elo reads no kappa: three grid kappas print three identical rows
    result = invoke(["sweep", str(season_file), "--modes", "elo",
                     "--kappa-grid", "0.4,1,2"])
    assert result.exit_code == 0, result.output
    cells = json.loads(result.stdout)["cells"]
    assert [c["kappa"] for c in cells] == [0.4, 1.0, 2.0]
    assert len({json.dumps({**c, "kappa": None}) for c in cells}) == 1
    assert cells[0]["error"] is None


def test_sweep_empty_season_gives_error_rows(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    result = invoke(["sweep", str(empty), "--kappa-grid", "-1,0.7"])
    assert result.exit_code == 0, result.output
    bad, good = json.loads(result.stdout)["cells"]
    assert bad["error"].startswith("kappa must be")
    assert good["error"] == "empty score list"


def test_sweep_jobs_do_not_change_results(season_file):
    args = ["sweep", str(season_file), "--kappa-grid", "0.4,1", "--eta-grid", "0,0.3"]
    serial = invoke(args + ["--jobs", "1"]).stdout
    threaded = invoke(args + ["--jobs", "4"]).stdout
    assert serial == threaded


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_two_team_toy_recovers_the_closed_form(toy_file):
    # the closed form assumes no home advantage in the fitted model
    result = invoke(["fit", str(toy_file), "--family", "binary", "--eta", "0"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["converged"] is True
    ratings = {r["team"]: r["rating"] for r in payload["ratings"]}
    assert ratings["A"] - ratings["B"] == pytest.approx(600 * math.log10(2), abs=0.6)


@pytest.mark.parametrize("family,options", [
    ("davidson", []), ("elo-implicit", []), ("threshold", ["--v0", "150"]), ("binary", []),
], ids=["davidson", "elo-implicit", "threshold", "binary"])
def test_fit_converges_on_a_season_simulated_from_its_family(tmp_path, family, options):
    # a binary season has no draws, so the binary fit takes it
    season = tmp_path / "season.csv"
    simulated = invoke(["simulate", "--family", family, *options, "--seed", "1",
                        "-o", str(season)])
    assert simulated.exit_code == 0, simulated.output
    result = invoke(["fit", str(season), "--family", family, *options])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["converged"] is True and len(payload["ratings"]) == 20


def test_fit_all_draws_is_the_zero_vector(draws_file):
    result = invoke(["fit", str(draws_file), "--kappa", "1", "--eta", "0"])
    payload = json.loads(result.stdout)
    assert all(abs(r["rating"]) < 1e-4 for r in payload["ratings"])


def test_fit_non_convergence_exits_4(season_file):
    result = invoke(["fit", str(season_file), "--max-iters", "1"])
    assert result.exit_code == 4
    assert "did not converge" in result.stderr


def test_fit_that_converges_on_its_last_allowed_step_has_converged():
    # the golden season converges in 3 steps, so a cap of 3 changes no byte
    season = str(Path(__file__).resolve().parent / "golden" / "season.csv")
    capped, free = invoke(["fit", season, "--max-iters", "3"]), invoke(["fit", season])
    assert (capped.exit_code, capped.stdout, capped.stderr) == (0, free.stdout, "")
    assert json.loads(capped.stdout)["iterations"] == 3


def test_fit_has_no_step_option(toy_file):
    result = invoke(["fit", str(toy_file), "--step", "1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [["fit", "--family", "binary"], ["evaluate", "--kappa", "0"],
                                  ["sweep", "--kappa-grid", "0,0.7"]],
                         ids=["fit", "evaluate", "sweep"])
def test_fit_binary_on_draws_is_a_numeric_error_naming_the_game(draws_file, args):
    # one impossible draw is worded alike by the fit, by evaluate and in a sweep's error cell
    message = "game 0 (A vs B, 2021-08-01): model assigns probability 0 to observed outcome 'D'"
    result = invoke([args[0], str(draws_file), *args[1:]])
    if args[0] == "sweep":
        assert result.exit_code == 0, result.output
        assert [c["error"] for c in json.loads(result.stdout)["cells"]] == [message, None]
    else:
        assert result.exit_code == 4 and result.stdout == ""
        assert result.stderr == f"error: {message}\n"


def test_fit_separable_data_is_a_numeric_error(tmp_path):
    path = tmp_path / "sep.csv"
    path.write_text(f"{HEADER}\n01/08/2021,A,B,H\n02/08/2021,A,B,H\n")
    result = invoke(["fit", str(path), "--family", "binary"])
    assert result.exit_code == 4
    assert "ridge" in result.stderr



def test_fit_singular_newton_system_is_a_numeric_error(tmp_path):
    path = tmp_path / "wide.csv"
    results = ["T0,T2,A", "T0,T1,A", "T2,T1,D", "T1,T0,D", "T0,T1,A", "T1,T0,H"]
    path.write_text(HEADER + "\n" + "".join(f"0{day + 1}/08/2021,{r}\n"
                                             for day, r in enumerate(results)))
    args = ["fit", str(path), "--family", "threshold", "--v0", "5000", "--eta", "0"]
    result = invoke(args)
    assert result.exit_code == 4
    assert "singular" in result.stderr and "ridge" in result.stderr
    assert invoke(args + ["--ridge", "1e-9"]).exit_code == 0


def test_fit_converges_under_a_band_far_wider_than_the_scale(tmp_path):
    # under a band of v0 = 5000 the second full Newton step overshoots to
    # ratings near 1e20 sigma', and only its 64th halving is acceptable; the
    # line search halves until one is, and a ridge converges too
    path = tmp_path / "stall.csv"
    results = ["T1,T0,D"] + ["T0,T1,A"] * 4
    path.write_text(HEADER + "\n" + "".join(f"0{day + 1}/08/2021,{r}\n"
                                             for day, r in enumerate(results)))
    args = ["fit", str(path), "--family", "threshold", "--v0", "5000", "--eta", "0"]
    result = invoke(args)
    assert result.exit_code == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["stop_reason"] == "gradient" and payload["converged"] is True
    assert payload["iterations"] == 8
    assert payload["ratings"] == [{"team": "T1", "rating": 2680.62},
                                  {"team": "T0", "rating": -2680.62}]
    ridged = invoke(args + ["--ridge", "1e-9"])
    assert ridged.exit_code == 0
    assert json.loads(ridged.stdout)["converged"] is True

# ---------------------------------------------------------------------------
# simulate / stats
# ---------------------------------------------------------------------------


def test_simulate_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        result = invoke(["simulate", "--teams", "6", "--seed", "3", "-o", str(path)])
        assert result.exit_code == 0, result.output
    assert a.read_text() == b.read_text()
    assert (tmp_path / "a.csv.truth.csv").exists()
    truth_rows = parse_csv((tmp_path / "a.csv.truth.csv").read_text())
    assert len(truth_rows) == 6
    assert sum(float(r["rating"]) for r in truth_rows) == pytest.approx(0.0, abs=1e-9)


def test_simulate_truth_file_bytes(tmp_path):
    # strongest first, six significant digits, the middle team at exactly 0
    result = invoke(["simulate", "--teams", "3", "--spacing", "0.123456789",
                     "-o", str(tmp_path / "a.csv")])
    assert result.exit_code == 0, result.output
    truth = (tmp_path / "a.csv.truth.csv").read_bytes()
    assert truth == b"team,rating\nT1,74.0741\nT2,0\nT3,-74.0741\n"


@pytest.mark.parametrize("bad", ["output", "truth", "truth-of-an-existing-output"])
def test_simulate_that_cannot_open_an_output_leaves_no_file(tmp_path, bad):
    # nor empties one: an --output that exists keeps its bytes
    paths = {"output": tmp_path / "part.csv", "truth": tmp_path / "t.csv"}
    unopenable = bad.split("-")[0]
    paths[unopenable] = tmp_path / "nodir" / paths[unopenable].name
    kept = [paths["output"]] if bad.endswith("existing-output") else []
    for path in kept:
        path.write_text("old season\n")
    result = invoke(["simulate", "--teams", "4", "-o", str(paths["output"]),
                     "--truth", str(paths["truth"])])
    assert result.exit_code == 3 and result.stdout == ""
    assert result.stderr.startswith("error: ") and "nodir" in result.stderr
    assert list(tmp_path.iterdir()) == kept
    assert [path.read_text() for path in kept] == ["old season\n"] * len(kept)


def test_simulate_kappa_zero_produces_no_draws(tmp_path):
    path = tmp_path / "nodraw.csv"
    invoke(["simulate", "--teams", "8", "--kappa", "0", "-o", str(path)])
    rows = parse_csv(path.read_text())
    assert len(rows) == 56
    assert all(r["FTR"] != "D" for r in rows)


def test_simulate_equal_ratings_kappa2_draw_rate(tmp_path):
    path = tmp_path / "half.csv"
    invoke(
        ["simulate", "--teams", "20", "--spacing", "0", "--kappa", "2", "--eta", "0",
         "--seed", "5", "-o", str(path)],
    )
    rows = parse_csv(path.read_text())
    draw_rate = sum(1 for r in rows if r["FTR"] == "D") / len(rows)
    assert abs(draw_rate - 0.5) < 0.05


def test_stats_counts(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(
        f"{HEADER}\n"
        "01/08/2021,A,B,H\n02/08/2021,B,A,D\n03/08/2021,A,C,A\n04/08/2021,C,B,A\n"
    )
    result = invoke(["stats", str(path)])
    payload = json.loads(result.stdout)
    assert payload["n_games"] == 4
    assert payload["p_home_bar"] == 0.25
    assert payload["p_draw_bar"] == 0.25
    assert payload["p_away_bar"] == 0.5
    assert payload["delta_bar"] == -0.25
    assert payload["kappa_bar"] == pytest.approx(2 / 3, abs=1e-6)


def test_stats_synthetic_kappa_zero_season(tmp_path):
    path = tmp_path / "nodraw.csv"
    invoke(["simulate", "--teams", "6", "--kappa", "0", "-o", str(path)])
    payload = json.loads(invoke(["stats", str(path)]).stdout)
    assert payload["p_draw_bar"] == 0.0
    assert payload["kappa_bar"] == 0.0


def test_stats_all_draws_reports_infinite_kappa(draws_file):
    payload = json.loads(invoke(["stats", str(draws_file)]).stdout)
    assert payload["kappa_bar"] == "inf"


def test_stats_reads_a_file_with_a_byte_order_mark(season_file, tmp_path):
    # as a spreadsheet saves a CSV in UTF-8: the mark would hide the Date column
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + season_file.read_bytes())
    results = [invoke(["stats", str(path)]) for path in (season_file, bom)]
    assert [r.exit_code for r in results] == [0, 0], results[1].output
    plain, marked = (json.loads(r.stdout) for r in results)
    assert marked.pop("input") == str(bom)
    assert plain.pop("input") == str(season_file)
    assert marked == plain


def test_stats_empty_file_is_a_data_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    result = invoke(["stats", str(empty)])
    assert result.exit_code == 3


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_file_is_a_data_error():
    result = invoke(["evaluate", "no-such-file.csv"])
    assert result.exit_code == 3


def test_missing_column_is_a_data_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("Date,HomeTeam,AwayTeam\n01/08/2021,A,B\n")
    result = invoke(["rate", str(path)])
    assert result.exit_code == 3
    assert "FTR" in result.stderr


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_closed_stdout_exits_1_quietly(season_file, fmt):
    # as `drawelo rate season.csv | head -c 1` once the reader has gone
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "drawelo", "rate", str(season_file), "-f", fmt],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(), timeout=120)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


def test_double_dash_ends_the_options(toy_file, tmp_path, monkeypatch):
    # a file whose name starts with "-" is read as INPUT_PATH after "--"
    monkeypatch.chdir(tmp_path)
    Path("-toy.csv").write_bytes(toy_file.read_bytes())
    result = invoke(["rate", "-f", "csv", "--", "-toy.csv"])
    assert result.exit_code == 0, result.output
    assert result.stdout == invoke(["rate", str(toy_file), "-f", "csv"]).stdout


def test_a_short_option_reads_a_joined_value(toy_file):
    joined = invoke(["stats", str(toy_file), "-fcsv"])
    assert joined.exit_code == 0, joined.output
    assert joined.stdout.startswith("n_games,")
    assert joined.stdout == invoke(["stats", str(toy_file), "-f", "csv"]).stdout


@pytest.mark.parametrize("args,error", [
    (["rate", "{season}", "--trajectory", "{same}"],
     "argument --trajectory: '{same}' is the input file"),
    (["simulate", "-o", "{season}", "--truth", "{same}"],
     "argument --truth: '{same}' is the --output file"),
], ids=["rate", "simulate"])
def test_an_output_path_naming_another_file_of_the_run_is_a_usage_error(season_file, args, error):
    # the season's path spelt another way; checked before anything is read or written
    files = sorted(season_file.parent.iterdir())
    before = season_file.read_bytes()
    paths = {"season": season_file, "same": f"{season_file.parent}/./{season_file.name}"}
    result = invoke([a.format(**paths) for a in args])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1].endswith(f"error: {error.format(**paths)}")
    assert season_file.read_bytes() == before and sorted(season_file.parent.iterdir()) == files


def test_unknown_flag_is_a_usage_error(season_file):
    result = invoke(["evaluate", str(season_file), "--nope"])
    assert result.exit_code == 2


def test_bad_grid_is_a_usage_error(season_file):
    result = invoke(["sweep", str(season_file), "--kappa-grid", "a,b"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "option,value",
    [("--kappa", "nan"), ("--kappa", "-1"), ("--eta", "inf"), ("--k-step", "-1")],
)
def test_invalid_parameter_is_a_usage_error_naming_the_option(season_file, option, value):
    result = invoke(["evaluate", str(season_file), option, value])
    assert result.exit_code == 2
    assert option in result.stderr
    assert "rating difference" not in result.stderr


def test_nan_is_printed_as_null_or_empty():
    assert json.dumps(_round6({"x": math.nan, "y": [math.nan, 1.0]})) == '{"x": null, "y": [null, 1.0]}'
    assert _csv_cell(math.nan) == ""
    # an infinity keeps its sign
    assert _round6([math.inf, -math.inf]) == ["inf", "-inf"]
    assert [_csv_cell(math.inf), _csv_cell(-math.inf)] == ["inf", "-inf"]


def test_a_rating_run_to_minus_inf_is_a_data_error_naming_its_last_game(tmp_path):
    # at sigma 1e308 B's steps overflow its rating to -inf on its last game,
    # whose difference is finite
    path = tmp_path / "inf.csv"
    path.write_text(f"{HEADER}\n" + "".join(
        f"0{day}/08/2021,{home},{away},{ftr}\n" for day, home, away, ftr in
        [(1, "A", "B", "H"), (1, "C", "D", "H"), (2, "B", "D", "D"), (3, "E", "B", "H"),
         (3, "F", "D", "H"), (4, "B", "D", "A")]))
    message = "game 5 (B vs D, 2021-08-04): rating of 'B' must be finite, got -inf"
    traj = tmp_path / "trajectory.csv"
    options = ["--sigma", "1e308", "--k-step", "1.5"]
    for command in (["rate", str(path), "--trajectory", str(traj)], ["evaluate", str(path)]):
        result = invoke([*command, *options, "--eta", "0"])
        assert (result.exit_code, result.stdout, result.stderr) == (3, "", f"error: {message}\n")
    assert not traj.exists()
    result = invoke(["sweep", str(path), *options, "--kappa-grid", "0.7", "--eta-grid", "0",
                     "--modes", "kappa-elo,elo-check"])
    assert result.exit_code == 0, result.output
    kappa_elo, elo_check = json.loads(result.stdout)["cells"]
    assert kappa_elo["error"] == message and elo_check["error"] is None


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
     (["fit", "missing.csv", "--sigma", "1e300", "--eta", "1e10"], "--eta"),
     (["fit", "missing.csv", "--sigma", "5e-324"], "--sigma"),
     (["simulate", "--teams", "1", "-o", "out.csv"], "--teams"),
     (["simulate", "--rounds", "0", "-o", "out.csv"], "--rounds"),
     (["fit", "missing.csv", "--sigma", "1e160", "--ridge", "1e-4"], "--ridge")],
)
def test_invalid_fit_or_simulate_option_is_a_usage_error(tmp_path, monkeypatch, args, option):
    # the input does not exist: reading it first would be a data error, exit 3
    monkeypatch.chdir(tmp_path)
    result = invoke(args)
    assert not Path("out.csv").exists()
    assert result.exit_code == 2, result.output
    assert option in result.stderr


@pytest.mark.parametrize(
    "args,option",
    [(["evaluate", "one.csv", "--sigma", "1e300", "--eta", "1e10"], "--eta"),
     (["rate", "one.csv", "--sigma", "1e10", "--k-step", "1e300", "--eta", "0",
       "--trajectory", "out.csv"], "--k-step"),
     (["sweep", "one.csv", "--sigma", "1e10", "--k-step", "1e300"], "--k-step"),
     (["simulate", "--sigma", "1e300", "--eta", "1e10", "-o", "out.csv"], "--eta"),
     (["rate", "one.csv", "--mode", "elo", "--sigma", "5e-324"], "--sigma")],
)
def test_overflowing_shift_or_step_is_a_usage_error(tmp_path, monkeypatch, args, option):
    # an infinite shift eta * sigma, or an infinite step k-step * sigma,
    # whose inf * 0 on a draw between equals would print null ratings; or
    # a subnormal sigma, whose half (elo's prediction scale) rounds to 0
    monkeypatch.chdir(tmp_path)
    Path("one.csv").write_text(f"{HEADER}\n01/08/2021,A,B,D\n")
    result = invoke(args)
    assert not Path("out.csv").exists()
    assert result.exit_code == 2, result.output
    assert option in result.stderr and "rating difference" not in result.stderr


# ---------------------------------------------------------------------------
# options: each command takes the RunConfig fields it reads
# ---------------------------------------------------------------------------

RATE_OPTIONS = ["--sigma", "--k-step", "--kappa", "--eta", "--mode"]
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


def test_version_reads_the_package_not_installed_metadata():
    # a source checkout on PYTHONPATH has no installed distribution to read
    result = run_cli(["--version"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode().rstrip().endswith("version 0.1.0")


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_help_lists_exactly_the_options_a_command_reads(command):
    result = invoke([command, "--help"])
    assert result.exit_code == 0, result.output
    listed = re.findall(r"^  (?:-\w, )?(--[\w-]+)", result.stdout, flags=re.MULTILINE)
    assert listed == COMMAND_OPTIONS[command] + ["--help"]


@pytest.mark.parametrize("command,option", [
    (command, option) for command, options in COMMAND_OPTIONS.items()
    for option in FIELD_VALUES if option not in options
])
def test_options_a_command_does_not_read_are_usage_errors(tmp_path, monkeypatch, command, option):
    args = ["-o", "out.csv"] if command == "simulate" else ["missing.csv"]
    monkeypatch.chdir(tmp_path)
    result = invoke([command, *args, option, FIELD_VALUES[option]])
    assert not Path("out.csv").exists()
    assert result.exit_code == 2, result.output
    assert "unrecognized arguments" in result.stderr and option in result.stderr


@pytest.mark.parametrize("command,extra,config", [
    ("rate", ["--mode", "elo"],
     {"sigma": 600.0, "k_tilde": 0.125, "kappa": 0.7, "eta": 0.3, "mode": "elo"}),
    ("evaluate", ["--kappa", "2", "--mode", "elo-check"],
     {"sigma": 600.0, "k_tilde": 0.125, "kappa": 2.0, "eta": 0.3, "mode": "elo-check"}),
    ("simulate", ["--family", "threshold", "--v0", "100"],
     {"sigma": 600.0, "kappa": 0.7, "eta": 0.3, "v0": 100.0, "family": "threshold"}),
])
def test_config_echoes_exactly_the_fields_a_command_reads(
    season_file, tmp_path, command, extra, config
):
    args = ["-o", str(tmp_path / "sim.csv")] if command == "simulate" else [str(season_file)]
    result = invoke([command, *args, *extra])
    assert result.exit_code == 0, result.output
    echoed = json.loads(result.stdout)["config"]
    assert list(echoed.items()) == list(config.items())


def test_enum_fields_are_checked_by_the_types_that_own_them(toy_file):
    # RunConfig keeps mode and family as given; EngineConfig and ModelParams
    # coerce them, and a bad value raises when the command builds its config
    assert RunConfig("rate", mode="elo").engine_config().mode is UpdateMode.ELO
    cfg = RunConfig("fit", input_path=str(toy_file), family="threshold")
    assert cfg.model_params().family is ModelFamily.THRESHOLD
    assert run_fit(cfg, None, 5000, 1e-6, 0.0)["family"] == "threshold"
    with pytest.raises(ValueError, match="^mode must be one of elo, kappa-elo, elo-check, "
                                         "got 'nope'$"):
        RunConfig("rate", mode="nope").engine_config()
    with pytest.raises(ValueError, match="^family must be one of binary, elo-implicit, "
                                         "threshold, davidson, got 'nope'$"):
        RunConfig("fit", family="nope").model_params()


# ---------------------------------------------------------------------------
# numpy stays unloaded where no command builds an array
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def season_with_odds(tmp_path_factory):
    """``simulate --rounds 1`` of 20 teams (380 games, runs of 10), with odds added."""
    path = tmp_path_factory.mktemp("numpy_free") / "season.csv"
    result = invoke(["simulate", "--rounds", "1", "-o", str(path)])
    assert result.exit_code == 0, result.output
    dataset = load_matches(path)
    dataset.games[:] = [replace(g, odds=(2.5, 3.2, 2.9)) for g in dataset.games]
    path.write_text(serialize_matches(dataset), newline="")
    return path


@pytest.fixture(scope="module")
def league_100(tmp_path_factory):
    """``simulate --teams 100`` (9,900 games, runs of 50)."""
    path = tmp_path_factory.mktemp("numpy_free") / "league.csv"
    result = invoke(["simulate", "--teams", "100", "-o", str(path)])
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
    ("league_100", ["sweep", "--modes", "kappa-elo,elo", "-f", "csv"], True),
    (None, ["simulate", "-o", "{tmp}/season.csv"], False),
], ids=["stats", "evaluate", "rate", "sweep-1-cell", "sweep-2-cells", "sweep-32-cells", "fit",
        "evaluate-100-teams", "rate-100-teams", "sweep-2-cells-100-teams", "simulate"])
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


# what every command loads: the CLI, the CSV reader and the simulator
CLI_MODULES = ["drawelo", "drawelo.cli", "drawelo.data", "drawelo.errors", "drawelo.models",
               "drawelo.sim"]


@pytest.mark.parametrize("args,runs", [
    (["--version"], []),
    *[([command, "--help"], []) for command in COMMAND_OPTIONS],
    (["stats", "{season}"], ["evaluation"]),
    (["simulate", "-o", "{tmp}/season.csv"], []),
    (["rate", "{season}", "--trajectory", "{tmp}/trajectory.csv"], ["engine"]),
    (["fit", "{season}"], ["engine"]),
    (["evaluate", "{season}", "--baseline"], ["engine", "evaluation"]),
    (["sweep", "{season}", "--modes", "kappa-elo,elo"], ["engine", "evaluation"]),
], ids=["version", *[f"{command}-help" for command in COMMAND_OPTIONS],
        "stats", "simulate", "rate", "fit", "evaluate", "sweep"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, season_with_odds, args, runs):
    # engine and evaluation load on first use: stats needs no engine, rate
    # and fit no evaluation, simulate, --version and --help neither
    argv = [a.format(season=season_with_odds, tmp=tmp_path) for a in args]
    result = run_cli(
        argv,
        driver="from drawelo.cli import main\n"
               "try:\n    main(sys.argv[1:])\n"
               "finally:\n    print(*sorted(m for m in sys.modules if m.startswith('drawelo')),"
               " file=sys.stderr)",
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stderr.decode().splitlines()[-1].split()
    assert loaded == sorted(CLI_MODULES + [f"drawelo.{m}" for m in runs])


def test_season_report_runs_without_the_cli(season_with_odds):
    # the script scores its configurations through the library alone
    script = Path(__file__).resolve().parent.parent / "scripts" / "season_report.py"
    result = run_cli(
        [str(season_with_odds)],
        driver=f"import runpy\ntry:\n    runpy.run_path({str(script)!r}, run_name='__main__')\n"
               "finally:\n    print('click' in sys.modules, 'drawelo.cli' in sys.modules, "
               "file=sys.stderr)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.decode().splitlines()[-1] == "False False"
    header, rule, row = result.stdout.decode().splitlines()
    assert header.split()[:3] == ["season", "p_draw", "kappa_bar"]
    assert set(rule) == {"-"}
    assert row.split()[0] == "season" and row.count(" in (") == 4


# ---------------------------------------------------------------------------
# the command line in a process of its own
# ---------------------------------------------------------------------------


# (arguments, the message the case first pinned, argparse's error today).  A
# case's id is its first message, so each case keeps its name.
USAGE_ERRORS = [
    (["evaluate", "{season}", "--v0", "1"], "No such option '--v0'.",
     "unrecognized arguments: --v0"),
    (["evaluate", "{season}", "--nope"], "No such option '--nope'. Did you mean '--mode'?",
     "unrecognized arguments: --nope"),
    (["evaluate", "{season}", "--sigma", "-1"], "Invalid value for '--sigma': sigma must be a "
     "finite real >= 2.2250738585072014e-308, got -1.0",
     "argument --sigma: sigma must be a finite real >= 2.2250738585072014e-308, got -1.0"),
    (["evaluate", "{season}", "--sigma", "abc"], "Invalid value for '--sigma': 'abc' is not a "
     "valid float.", "argument --sigma: invalid float value: 'abc'"),
    (["evaluate", "{season}", "--mode", "bad"], "Invalid value for '--mode': 'bad' is not one of "
     "'elo', 'kappa-elo', 'elo-check'.",
     "argument --mode: invalid choice: 'bad' (choose from 'elo', 'kappa-elo', 'elo-check')"),
    (["evaluate", "{season}", "-f", "xml"], "Invalid value for '--output-format' / '-f': 'xml' "
     "is not one of 'json', 'csv'.",
     "argument --output-format/-f: invalid choice: 'xml' (choose from 'json', 'csv')"),
    (["evaluate", "{season}", "extra"], "Got unexpected extra argument (extra)",
     "unrecognized arguments: extra"),
    (["evaluate", "{season}", "--sigma", "abc", "--nope"], "No such option '--nope'. Did you "
     "mean '--mode'?", "unrecognized arguments: --nope"),
    (["evaluate", "{season}", "--baseline=1"], "Option '--baseline' does not take a value.",
     "argument --baseline: ignored explicit argument '1'"),
    (["stats", "{season}", "-f=csv"], "Invalid value for '--output-format' / '-f': '=csv' is "
     "not one of 'json', 'csv'.",
     "argument --output-format/-f: invalid choice: '=csv' (choose from 'json', 'csv')"),
    (["rate", "-1"], "No such option '-1'.", "unrecognized arguments: -1"),
    (["simulate", "--teams", "1", "-o", "{tmp}/out.csv"], "Invalid value for '--teams': 1 is not "
     "in the range x>=2.", "argument --teams: must be at least 2, got 1"),
    (["simulate", "--rounds", "x", "-o", "{tmp}/out.csv"], "Invalid value for '--rounds': 'x' is "
     "not a valid integer range.", "argument --rounds: invalid integer value: 'x'"),
    (["simulate"], "Missing option '--output' / '-o'.",
     "the following arguments are required: --output/-o"),
    (["simulate", "-o"], "Option '-o' requires an argument.",
     "argument --output/-o: expected one argument"),
    (["fit", "{season}", "--max-iters", "1.5"], "Invalid value for '--max-iters': '1.5' is not a "
     "valid integer.", "argument --max-iters: invalid int value: '1.5'"),
    (["fit", "{season}", "--ridge", "-1"], "Invalid value for '--ridge': ridge must be a finite "
     "real >= 0, got -1.0", "argument --ridge: ridge must be a finite real >= 0, got -1.0"),
    (["sweep", "{season}", "--kappa-grid", "a,b"], "bad grid value: could not convert string to "
     "float: 'a'", "argument --kappa-grid: invalid grid value: 'a,b'"),
    (["sweep", "{season}", "--modes", ","], "grids must be non-empty",
     "argument --modes: grids must be non-empty"),
    (["rate"], "Missing argument 'INPUT_PATH'.",
     "the following arguments are required: INPUT_PATH"),
    (["bogus"], "No such command 'bogus'.", "argument COMMAND: invalid choice: 'bogus' (choose "
     "from 'evaluate', 'fit', 'rate', 'simulate', 'stats', 'sweep')"),
    (["--nope"], "No such option '--nope'.", "unrecognized arguments: --nope"),
    (["fit", "{season}", "--sigma", "1e160", "--ridge", "1e-4"],
     "Invalid value for '--ridge': ridge * sigma'^2 must be positive and finite, got 0.0001 * "
     "4.342944819032518e+159^2",
     "argument --ridge: ridge * sigma'^2 must be positive and finite, got 0.0001 * "
     "4.342944819032518e+159^2"),
]


def unquoted_choices(line):
    """``line`` with its argparse choice list unquoted, as newer Pythons print it."""
    return re.sub(r"\(choose from .*\)$", lambda m: m[0].replace("'", ""), line)


@pytest.mark.parametrize("args,error", [(args, error) for args, _, error in USAGE_ERRORS],
                         ids=[f"args{i}-{was}" for i, (_, was, _) in enumerate(USAGE_ERRORS)])
def test_usage_errors_exit_2_with_their_message(tmp_path, season_with_odds, args, error):
    result = run_cli([a.format(season=season_with_odds, tmp=tmp_path) for a in args])
    assert result.returncode == 2
    # run_cli's program name is "-c"; a command's parser adds the command
    prog = f"-c {args[0]}" if args[0] in COMMAND_OPTIONS else "-c"
    last = result.stderr.decode().splitlines()[-1]
    assert unquoted_choices(last) == unquoted_choices(f"{prog}: error: {error}")
    assert result.stdout == b"" and not (tmp_path / "out.csv").exists()


def test_no_command_lists_the_commands_and_exits_2():
    result = run_cli([])
    assert result.returncode == 2 and result.stdout == b""
    commands = result.stderr.decode().split("commands:\n")[1].splitlines()
    assert [line.split()[0] for line in commands] == [
        "evaluate", "fit", "rate", "simulate", "stats", "sweep"]


@pytest.mark.parametrize("args", [
    ["--version"], ["rate", "--help"], ["stats", "{season}"], ["simulate", "-o", "{tmp}/s.csv"],
    ["rate", "{season}"], ["fit", "{season}"], ["evaluate", "{season}"],
    ["sweep", "{season}", "--modes", "kappa-elo,elo"],
], ids=["version", "help", "stats", "simulate", "rate", "fit", "evaluate", "sweep"])
def test_no_command_loads_click(tmp_path, season_with_odds, args):
    result = run_cli(
        [a.format(season=season_with_odds, tmp=tmp_path) for a in args],
        driver="from drawelo.cli import main\n"
               "try:\n    main(sys.argv[1:])\n"
               "finally:\n    print('click' in sys.modules, file=sys.stderr)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.decode().splitlines()[-1] == "False"


def test_csv_output_is_utf8_under_an_ascii_locale(tmp_path):
    # as the stdout stream's ASCII encoding cannot hold the name
    path = tmp_path / "accents.csv"
    path.write_bytes(f"{HEADER}\n01/08/2021,Café,B,H\n02/08/2021,B,Café,D\n".encode())
    result = run_cli(["rate", str(path), "-f", "csv"],
                     env={"LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
    assert result.returncode == 0, result.stderr
    assert result.stdout == invoke(["rate", str(path), "-f", "csv"]).stdout.encode()
    assert result.stdout.startswith(b"team,rating\nCaf\xc3\xa9,")

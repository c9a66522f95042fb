"""Benchmark workloads: seeded inputs, CLI command sequences and output checks.

Every input comes from the package's own simulator, seeded by the
benchmark's ``--seed``.  Teams form a ladder evenly spaced at 0.1 sigma and
outcomes are drawn from the davidson model at kappa = 0.7, eta = 0.3, which
are also the CLI defaults, so ``drawelo simulate`` with the same seed
reproduces the generated schedule and outcomes.

Each command's printed result is compared with its expected output (see
``expected``) within ``REL_TOL``, and ratings within ``RATING_ABS_TOL``
rating points as well.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from drawelo import (
    EngineConfig,
    ModelFamily,
    ModelParams,
    SimSpec,
    UpdateMode,
    batch_ml_fit,
    empirical_stats,
    evaluate_scores,
    generate_season,
    load_matches,
    log_score,
    odds_to_probs,
    predict_probs,
    run_season,
    score_games,
    serialize_matches,
)

SIGMA = 600.0
KAPPA = 0.7
ETA = 0.3
K_TILDE = 0.125
SPACING = 0.1        # sigma units between adjacent teams of the ladder
ODDS_MARGIN = 0.05   # bookmaker overround added to the generating probabilities
THRESHOLD_V0 = 150.0

OUTPUT_FILES = ("simulated.csv", "trajectory.csv")  # written by simulate and rate
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-5          # the CLI prints 6 significant digits
RATING_ABS_TOL = 1e-3   # rating points; fits stop within about 1e-5 of the optimum

ONE_CELL = ((KAPPA,), (ETA,), ("kappa-elo",))
FULL_GRID = ((0.4, 0.7, 1.0, 2.0), (0.0, 0.15, 0.3, 0.45), ("kappa-elo", "elo-check"))


@dataclass(frozen=True)
class Command:
    """One ``drawelo`` sub-command of a workload's sequence."""

    kind: str                      # simulate, stats, evaluate, rate, sweep, fit
    family: str = "davidson"       # fit only
    v0: float = 0.0                # fit only
    grid: tuple = ONE_CELL         # sweep only: (kappas, etas, modes)

    @property
    def label(self) -> str:
        return f"fit-{self.family}" if self.kind == "fit" else self.kind


@dataclass(frozen=True)
class Workload:
    name: str
    teams: int
    rounds: int
    odds: bool
    commands: tuple[Command, ...]
    smoke_teams: int
    smoke_rounds: int


# Why each workload exists (also recorded in BENCHMARK.json):
#   season        everyday analyst session; interpreter start-up dominates,
#                 and it is the only input carrying Bet365 odds columns.
#   sweep         32-cell grid on 7,600 games; online engine and scoring dominate.
#   fit           two batch ML fits on 1,900 games; the descent loop dominates,
#                 and threshold beside davidson guards against one-family speed-ups.
#   large-league  100 teams (9,900 games, 990,000 trajectory rows); the online
#                 layer's per-game snapshots set memory and trajectory writing.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "season", 20, 1, True,
            (Command("simulate"), Command("stats"), Command("evaluate"),
             Command("rate"), Command("sweep")),
            smoke_teams=6, smoke_rounds=1,
        ),
        Workload("sweep", 20, 20, False, (Command("sweep", grid=FULL_GRID),),
                 smoke_teams=6, smoke_rounds=2),
        Workload(
            "fit", 20, 5, False,
            (Command("fit"), Command("fit", family="threshold", v0=THRESHOLD_V0)),
            smoke_teams=6, smoke_rounds=4,
        ),
        Workload("large-league", 100, 1, False, (Command("evaluate"), Command("rate")),
                 smoke_teams=8, smoke_rounds=1),
    )
}


def ladder(teams: int) -> dict[str, float]:
    """True ratings named exactly as ``drawelo simulate`` names them."""
    width = len(str(teams))
    return {
        f"T{i + 1:0{width}d}": ((teams - 1) / 2.0 - i) * SPACING * SIGMA
        for i in range(teams)
    }


def generating_model(family: str = "davidson", v0: float = 0.0) -> ModelParams:
    return ModelParams(sigma=SIGMA, kappa=KAPPA, eta=ETA, v0=v0, family=ModelFamily(family))


def sim_spec(teams: int, rounds: int, seed: int) -> SimSpec:
    return SimSpec(theta_true=ladder(teams), model=generating_model(), rounds=rounds, seed=seed)


def with_odds(dataset):
    """Attach decimal odds: generating probabilities plus a fixed margin, 2 decimals."""
    model = generating_model()
    truth = ladder(dataset.n_teams)
    games = []
    for g in dataset.games:
        p = predict_probs(truth[g.home_id] - truth[g.away_id], model)
        odds = tuple(
            max(1.01, round(1.0 / (q * (1.0 + ODDS_MARGIN)), 2))
            for q in (p.p_home, p.p_draw, p.p_away)
        )
        games.append(dataclasses.replace(g, odds=odds))
    return dataclasses.replace(dataset, games=games)


@dataclass
class Inputs:
    """A workload's generated season file and the sizes recorded for it."""

    path: Path
    teams: int
    rounds: int
    seed: int
    odds: bool
    games: int
    bytes: int
    sha256: str


def write_input(workload: Workload, seed: int, workdir: Path, smoke: bool) -> Inputs:
    teams = workload.smoke_teams if smoke else workload.teams
    rounds = workload.smoke_rounds if smoke else workload.rounds
    dataset = generate_season(sim_spec(teams, rounds, seed))
    if workload.odds:
        dataset = with_odds(dataset)
    path = workdir / f"{workload.name}.csv"
    path.write_text(serialize_matches(dataset), newline="")
    data = path.read_bytes()
    return Inputs(path, teams, rounds, seed, workload.odds, dataset.n_games, len(data),
                  sha256(data))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Command lines
# ---------------------------------------------------------------------------


def _csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def argv(cmd: Command, inputs: Inputs, workdir: Path) -> list[str]:
    """Arguments after ``python -m drawelo``."""
    src = str(inputs.path)
    if cmd.kind == "simulate":
        return ["simulate", "--teams", str(inputs.teams), "--rounds", str(inputs.rounds),
                "--seed", str(inputs.seed), "-o", str(workdir / OUTPUT_FILES[0])]
    if cmd.kind == "stats":
        return ["stats", src]
    if cmd.kind == "evaluate":
        return ["evaluate", src] + (["--baseline"] if inputs.odds else [])
    if cmd.kind == "rate":
        return ["rate", src, "--trajectory", str(workdir / OUTPUT_FILES[1])]
    if cmd.kind == "sweep":
        kappas, etas, modes = cmd.grid
        return ["sweep", src, "--kappa-grid", _csv_list(kappas), "--eta-grid", _csv_list(etas),
                "--modes", _csv_list(modes), "--jobs", "1"]
    if cmd.kind == "fit":
        return ["fit", src, "--family", cmd.family, "--v0", str(cmd.v0)]
    raise ValueError(f"unknown command kind {cmd.kind!r}")




# ---------------------------------------------------------------------------
# Expected results: committed reference outputs, or a recomputation
# ---------------------------------------------------------------------------


def engine_config(mode: str = "kappa-elo", kappa: float = KAPPA, eta: float = ETA) -> EngineConfig:
    update_kappa = kappa if mode == "kappa-elo" else KAPPA
    return EngineConfig(
        model=ModelParams(sigma=SIGMA, kappa=update_kappa, eta=eta),
        k_tilde=K_TILDE,
        mode=UpdateMode(mode),
        check_kappa=kappa,
    )


def _report(report) -> dict:
    return {"mean_ls": report.mean_ls, "interval_low": report.interval_low,
            "interval_high": report.interval_high}


def recompute(cmd: Command, inputs: Inputs) -> dict:
    """What ``cmd`` must print on ``inputs``, computed through the library API."""
    if cmd.kind == "simulate":
        dataset = generate_season(sim_spec(inputs.teams, inputs.rounds, inputs.seed))
        return {"sha256": sha256(serialize_matches(dataset).encode()),
                "n_games": dataset.n_games, "n_teams": dataset.n_teams}
    dataset = load_matches(inputs.path)
    if cmd.kind == "stats":
        s = empirical_stats(dataset.games)
        return {k: getattr(s, k) for k in
                ("n_games", "p_home_bar", "p_away_bar", "p_draw_bar", "delta_bar", "kappa_bar")}
    if cmd.kind == "fit":
        fit = batch_ml_fit(dataset.games, generating_model(cmd.family, cmd.v0))
        return {"nll": fit.nll, "iterations": fit.iterations, "converged": fit.converged,
                "ratings": dict(fit.theta)}
    if cmd.kind == "sweep":
        kappas, etas, modes = cmd.grid
        return {"cells": [
            [mode, kappa, eta, _evaluate(dataset, engine_config(mode, kappa, eta))]
            for mode in modes for kappa in kappas for eta in etas
        ]}
    result = run_season(dataset.games, engine_config(), players=dataset.team_names)
    if cmd.kind == "rate":
        return {"n_games": dataset.n_games, "n_teams": dataset.n_teams,
                "ratings": dict(result.state.ratings)}
    if cmd.kind == "evaluate":
        report = evaluate_scores(score_games(result.predictions, dataset.games))
        out = _report(report)
        out["baseline"] = None
        if dataset.games[0].odds is not None:
            start, end = report.window
            scores = [log_score(odds_to_probs(*g.odds), g.outcome)
                      for g in dataset.games[start:end]]
            out["baseline"] = _report(evaluate_scores(scores, window="full"))
        return out
    raise ValueError(f"unknown command kind {cmd.kind!r}")


def _evaluate(dataset, config) -> dict:
    result = run_season(dataset.games, config, players=dataset.team_names)
    return _report(evaluate_scores(score_games(result.predictions, dataset.games)))


def reference_entry(workload: Workload, inputs: Inputs) -> dict:
    """A run's reference record: the input's digest and each command's output.

    Iteration counts are left out: a faster fit may take other steps to the
    same optimum.
    """
    wants = [recompute(cmd, inputs) for cmd in workload.commands]
    for want in wants:
        want.pop("iterations", None)
    return {"input_sha256": inputs.sha256, "wants": wants}


def expected(workload: Workload, inputs: Inputs, smoke: bool) -> tuple[list[dict], str, list[str]]:
    """Each command's expected output, where it came from, and input failures.

    Full-size runs at a seed in ``reference.json`` compare against outputs
    recorded from an earlier commit, so a library change that alters a
    result is caught; other runs recompute through the library, which
    checks only that the CLI agrees with it.
    """
    entry = None if smoke else load_reference().get(f"{workload.name}/{inputs.seed}")
    if entry is None:
        return [recompute(cmd, inputs) for cmd in workload.commands], "recomputed", []
    errors = []
    if entry["input_sha256"] != inputs.sha256:
        errors.append(f"{workload.name}: generated input differs from the reference input")
    return entry["wants"], "reference", errors


@functools.cache
def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())["runs"]


# ---------------------------------------------------------------------------
# Checks: each returns a list of failure messages, empty when the output is right
# ---------------------------------------------------------------------------


def close(got, want, abs_tol: float = 1e-9) -> bool:
    """``got`` (printed at 6 significant digits) agrees with ``want``."""
    if isinstance(want, bool) or isinstance(want, int) or want is None:
        return got == want
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol))


def check(cmd: Command, payload: dict, want: dict, workdir: Path) -> list[str]:
    errors: list[str] = []

    def same(what, got, exp):
        if not close(got, exp):
            errors.append(f"{cmd.label}: {what} is {got!r}, expected {exp!r}")

    if cmd.kind == "simulate":
        same("n_games", payload.get("n_games"), want["n_games"])
        same("n_teams", payload.get("n_teams"), want["n_teams"])
        written = Path(payload.get("output", workdir / OUTPUT_FILES[0]))
        if not written.is_file() or sha256(written.read_bytes()) != want["sha256"]:
            errors.append(f"{cmd.label}: written season differs from the expected one")
    elif cmd.kind == "stats":
        for key, exp in want.items():
            same(key, payload.get(key), exp)
    elif cmd.kind == "evaluate":
        for key in ("mean_ls", "interval_low", "interval_high"):
            same(key, payload.get(key), want[key])
        got_base = payload.get("baseline")
        if (got_base is None) != (want["baseline"] is None):
            errors.append(f"{cmd.label}: baseline presence differs")
        elif got_base is not None:
            for key, exp in want["baseline"].items():
                same(f"baseline.{key}", got_base.get(key), exp)
    elif cmd.kind == "rate":
        same("n_games", payload.get("n_games"), want["n_games"])
        same("n_teams", payload.get("n_teams"), want["n_teams"])
        errors += _check_ratings(cmd, _table(payload.get("ratings", [])), want["ratings"])
        errors += _check_trajectory(cmd, Path(payload.get("trajectory_file") or ""), want)
    elif cmd.kind == "sweep":
        cells = payload.get("cells", [])
        if len(cells) != len(want["cells"]):
            errors.append(f"{cmd.label}: {len(cells)} cells, expected {len(want['cells'])}")
        for got, (mode, kappa, eta, exp) in zip(cells, want["cells"]):
            where = f"{mode}/{kappa}/{eta}"
            if got.get("error") is not None:
                errors.append(f"{cmd.label}: cell {where} failed: {got['error']}")
            if not (got.get("mode") == mode and close(got.get("kappa"), kappa)
                    and close(got.get("eta"), eta)):
                errors.append(f"{cmd.label}: cell order differs at {where}")
            for key, value in exp.items():
                same(f"{where} {key}", got.get(key), value)
    elif cmd.kind == "fit":
        if payload.get("converged") is not True:
            errors.append(f"{cmd.label}: fit did not converge")
        if "iterations" in want:
            same("iterations", payload.get("iterations"), want["iterations"])
        same("nll", payload.get("nll"), want["nll"])
        errors += _check_ratings(cmd, _table(payload.get("ratings", [])), want["ratings"])
    return errors


def _table(rows: list[dict]) -> dict:
    return {row.get("team"): row.get("rating") for row in rows}


def _check_ratings(cmd: Command, got: dict, want: dict) -> list[str]:
    if got.keys() != want.keys():
        return [f"{cmd.label}: rated teams differ from the expected ones"]
    wrong = [t for t in want if not close(got[t], want[t], RATING_ABS_TOL)]
    if wrong:
        t = wrong[0]
        return [f"{cmd.label}: {len(wrong)} ratings differ, e.g. {t} is {got[t]!r}, "
                f"expected {want[t]!r}"]
    return []


def _check_trajectory(cmd: Command, path: Path, want: dict) -> list[str]:
    """games x teams rows, and the last snapshot equals the final ratings."""
    n_teams = want["n_teams"]
    try:
        with open(path, newline="") as fh:
            header = fh.readline().rstrip("\n")
            rows = 0
            last = collections.deque(maxlen=n_teams)
            for line in fh:
                rows += 1
                last.append(line.rstrip("\n"))
    except OSError as exc:
        return [f"{cmd.label}: trajectory unreadable: {exc}"]
    errors = []
    if header != "game_index,team,rating":
        errors.append(f"{cmd.label}: trajectory header is {header!r}")
    if rows != want["n_games"] * n_teams:
        errors.append(f"{cmd.label}: trajectory has {rows} rows, expected "
                      f"{want['n_games']} x {n_teams}")
    final = {}
    for line in last:
        idx, team, rating = line.split(",")
        if int(idx) == want["n_games"]:
            final[team] = float(rating)
    if _check_ratings(cmd, final, want["ratings"]):
        errors.append(f"{cmd.label}: last trajectory snapshot differs from final ratings")
    return errors

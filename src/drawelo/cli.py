"""Command-line front end: rate, evaluate, sweep, fit, simulate, stats.

All commands read the football-data CSV layout and write machine-readable
JSON (default) or CSV to stdout.  Defaults reproduce the headline
configuration: sigma=600, normalized step 0.125, home advantage 0.3,
draw parameter 0.7, scored over the second half of the season.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric error
(zero-probability outcome or non-convergence).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum

import click

from . import __version__
from .data import load_matches, serialize_matches
from .errors import ConvergenceError, RowError, SchemaError, ZeroProbabilityError
from .models import ModelFamily, ModelParams, UpdateMode, apply_home_advantage, enum_field
from .sim import SimSpec, generate_season

# engine's and evaluation's names load on first use (stats needs no engine,
# simulate neither), and commands call them through this module, _lib, so a
# name set on it replaces them here, as perfbench/layers.py does (LAYER_OF).
_DEFERRED = {"EngineConfig", "batch_ml_fit", "check_fit_options", "run_season", "score_games",
             "baseline_report", "empirical_stats", "evaluate_configs", "evaluate_scores"}
_lib = sys.modules[__name__]


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


@dataclass
class RunConfig:
    """One command invocation's parameters.

    Every field after ``input_path`` is a command-line option of the same
    name on the commands that read it (``_COMMAND_FIELDS``), and its default
    is the option's default.  ``mode`` and ``family`` also accept their enum
    values as strings.
    """

    command: str
    input_path: str | None = None
    sigma: float = 600.0
    k_tilde: float = 0.125
    kappa: float = 0.7
    eta: float = 0.3
    v0: float = 0.0
    mode: UpdateMode = UpdateMode.KAPPA_ELO
    family: ModelFamily = ModelFamily.DAVIDSON
    output_format: str = "json"
    eval_window: str = "second-half"

    def __post_init__(self):
        self.mode = enum_field(UpdateMode, "mode", self.mode)
        self.family = enum_field(ModelFamily, "family", self.family)

    def model_params(self) -> ModelParams:
        return ModelParams(
            sigma=self.sigma, kappa=self.kappa, eta=self.eta, v0=self.v0, family=self.family
        )

    def engine_config(self) -> EngineConfig:
        return _lib.EngineConfig(model=self.model_params(), k_tilde=self.k_tilde,
                                 mode=self.mode, check_kappa=self.kappa)


def _plain(value):
    """An enum member's value; any other value unchanged."""
    return value.value if isinstance(value, Enum) else value


_DEFAULTS = {f.name: _plain(f.default) for f in fields(RunConfig)}
_RATE_FIELDS = ("sigma", "k_tilde", "kappa", "eta", "mode")
_BATCH_FIELDS = ("sigma", "kappa", "eta", "v0", "family")
# The RunConfig fields each command reads, in RunConfig order.  Each is an
# option of the command, and "config" echoes them; evaluate reports
# eval_window beside it.  Every command also takes --output-format.
_COMMAND_FIELDS = {
    "rate": _RATE_FIELDS,
    "evaluate": _RATE_FIELDS + ("eval_window",),
    "sweep": ("sigma", "k_tilde", "eval_window"),
    "fit": _BATCH_FIELDS,
    "simulate": _BATCH_FIELDS,
    "stats": (),
}


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _round6(value):
    """Round floats to 6 significant digits, recursively.

    inf becomes 'inf' and NaN becomes None (JSON null), so the output stays
    valid JSON.
    """
    if isinstance(value, bool) or not isinstance(value, float):
        if isinstance(value, dict):
            return {k: _round6(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [_round6(v) for v in value]
        return value
    if math.isinf(value):
        return "inf"
    if math.isnan(value):
        return None
    return float(f"{value:.6g}")


def _csv_cell(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.6g}"
    return str(value)


def _rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _emit(payload: dict, rows: list[dict], columns: list[str], output_format: str):
    if output_format == "json":
        click.echo(json.dumps(_round6(payload), indent=2))
    else:
        click.echo(_rows_to_csv(rows, columns), nl=False)


def _handle_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (ZeroProbabilityError, ConvergenceError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except (SchemaError, RowError, OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


# ---------------------------------------------------------------------------
# Shared option groups
# ---------------------------------------------------------------------------

def _field_option(name: str, *decls: str, **kw):
    """``name`` and a click option that sets RunConfig's field ``name``, with its default."""
    return name, click.option(*decls, name, default=_DEFAULTS[name], show_default=True, **kw)


_FIELD_OPTIONS = dict([
    _field_option("sigma", "--sigma", type=float, help="Rating scale."),
    _field_option("k_tilde", "--k-step", type=float,
                  help="Normalized update step; the absolute step is k-step * sigma."),
    _field_option("kappa", "--kappa", type=float,
                  help="Draw parameter.  Of the online modes, kappa-elo updates and predicts "
                       "with it, elo-check only predicts with it, and elo does not use it."),
    _field_option("eta", "--eta", type=float,
                  help="Home advantage; the difference is shifted by eta * sigma."),
    _field_option("v0", "--v0", type=float, help="Draw-band half width of the threshold family."),
    _field_option("mode", "--mode", type=click.Choice([m.value for m in UpdateMode]),
                  help="Online update / prediction mode."),
    _field_option("family", "--family", type=click.Choice([f.value for f in ModelFamily]),
                  help="Probability model family."),
    _field_option("output_format", "--output-format", "-f", type=click.Choice(["json", "csv"])),
    _field_option("eval_window", "--eval-window", type=click.Choice(["second-half", "full"])),
])


def _config_options(command: str):
    """Decorate a command with the options of its fields, then --output-format."""
    def decorate(f):
        for name in reversed(_COMMAND_FIELDS[command] + ("output_format",)):
            f = _FIELD_OPTIONS[name](f)
        return f

    return decorate


@contextlib.contextmanager
def _usage_errors():
    """Turn a parameter check's ValueError into a usage error naming its option.

    Each check's message starts with the parameter's name, which is also
    the name of its option.
    """
    try:
        yield
    except ValueError as exc:
        name = str(exc).split(" ", 1)[0]
        options = [p for p in click.get_current_context().command.params if p.name == name]
        raise click.BadParameter(str(exc), param=options[0] if options else None) from None


def _make_config(command: str, input_path: str | None, **options) -> RunConfig:
    """The run's configuration; an invalid parameter is a usage error naming its option."""
    with _usage_errors():
        cfg = RunConfig(command=command, input_path=input_path, **options)
        # building what the command runs checks its parameters; only the online
        # commands, which read k_tilde or mode, need the engine's EngineConfig
        if {"k_tilde", "mode"}.isdisjoint(_COMMAND_FIELDS[command]):
            cfg.model_params()
        else:
            cfg.engine_config()
    return cfg


def _config_payload(cfg: RunConfig) -> dict:
    return {
        name: _plain(getattr(cfg, name))
        for name in _COMMAND_FIELDS[cfg.command] if name != "eval_window"
    }


# ---------------------------------------------------------------------------
# Command implementations (pure, testable)
# ---------------------------------------------------------------------------


def run_rate(cfg: RunConfig, trajectory_path: str | None) -> dict:
    dataset = load_matches(cfg.input_path)
    config = cfg.engine_config()
    result = _lib.run_season(dataset.games, config, players=dataset.team_names)
    ratings = sorted(result.state.ratings.items(), key=lambda kv: (-kv[1], kv[0]))
    if trajectory_path:
        # One cached "team,rating\n" cell per team, the name quoted by
        # csv.writer: a game re-formats only the two cells it moves and
        # writes "idx," before every cell.
        names = [_rows_to_csv([], [team, ""])[:-1] for team in result.trajectory.players]
        cells = [f"{name}0\n" for name in names]  # every team starts at rating 0
        with open(trajectory_path, "w", newline="", encoding="utf-8") as fh:
            fh.write("game_index,team,rating\n")
            for idx, (h, home, a, away) in enumerate(result.trajectory.moves(), start=1):
                cells[h] = f"{names[h]}{home:.6g}\n"
                cells[a] = f"{names[a]}{away:.6g}\n"
                prefix = f"{idx},"
                fh.write(prefix + prefix.join(cells))
    return {
        "command": "rate",
        "input": cfg.input_path,
        "config": _config_payload(cfg),
        "n_games": dataset.n_games,
        "n_teams": dataset.n_teams,
        "ratings": [{"team": t, "rating": r} for t, r in ratings],
        "trajectory_file": trajectory_path,
    }


def run_evaluate(cfg: RunConfig, baseline: bool) -> dict:
    dataset = load_matches(cfg.input_path)
    report, = _lib.evaluate_configs(dataset.games, [cfg.engine_config()], cfg.eval_window)
    if isinstance(report, Exception):
        raise report
    payload = {
        "command": "evaluate",
        "input": cfg.input_path,
        "config": _config_payload(cfg),
        "eval_window": cfg.eval_window,
        "n_games": dataset.n_games,
        "window_start": report.window[0],
        "window_end": report.window[1],
        "mean_ls": report.mean_ls,
        "interval_low": report.interval_low,
        "interval_high": report.interval_high,
        "baseline": None,
    }
    if baseline:
        bk = _lib.baseline_report(dataset.games, report.window)
        payload["baseline"] = {
            "mean_ls": bk.mean_ls,
            "interval_low": bk.interval_low,
            "interval_high": bk.interval_high,
        }
    return payload


def run_sweep(
    cfg: RunConfig, etas: list[float], kappas: list[float], modes: list[UpdateMode], jobs: int
) -> dict:
    """Evaluate every (mode, kappa, eta) cell in one pass over the season.

    A cell whose parameters are invalid, or whose forecasts give an
    observed outcome probability 0, gets an ``error`` row.  ``jobs`` is
    accepted for compatibility and ignored.
    """
    dataset = load_matches(cfg.input_path)
    rows, configs = [], {}
    for mode in modes:
        for kappa in kappas:
            for eta in etas:
                row = {"season": cfg.input_path, "mode": mode.value, "kappa": kappa,
                       "eta": eta, "mean_ls": None, "interval_low": None,
                       "interval_high": None, "error": None}
                try:
                    cell = replace(cfg, mode=mode, eta=eta, kappa=kappa)
                    configs[len(rows)] = cell.engine_config()
                except ValueError as exc:
                    row["error"] = str(exc)
                rows.append(row)
    outcomes = _lib.evaluate_configs(dataset.games, list(configs.values()), cfg.eval_window)
    for i, outcome in zip(configs, outcomes):
        if isinstance(outcome, Exception):
            rows[i]["error"] = str(outcome)
        else:
            rows[i].update(mean_ls=outcome.mean_ls, interval_low=outcome.interval_low,
                           interval_high=outcome.interval_high)
    return {"command": "sweep", "input": cfg.input_path, "cells": rows}


def run_fit(cfg: RunConfig, step: None, max_iters: int, tol: float, ridge: float) -> dict:
    """Batch ML fit of the input's games.

    ``step`` must be None: the Newton fit chooses its own steps, and the
    slot stays only for callers that pass the former step size positionally.
    """
    if step is not None:
        raise TypeError("run_fit takes no step size; pass None")
    dataset = load_matches(cfg.input_path)
    result = _lib.batch_ml_fit(
        dataset.games, cfg.model_params(), max_iters=max_iters, tol=tol, ridge=ridge
    )
    ratings = sorted(result.theta.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "command": "fit",
        "input": cfg.input_path,
        "family": cfg.family.value,
        "n_games": dataset.n_games,
        "nll": result.nll,
        "grad_max_norm": result.grad_max_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "ratings": [{"team": t, "rating": r} for t, r in ratings],
    }


def _true_ratings(teams: int, spacing: float, sigma: float) -> dict[str, float]:
    """Evenly spaced true ratings, strongest first, ``spacing`` sigmas apart."""
    width = len(str(teams))
    return {
        f"T{i + 1:0{width}d}": ((teams - 1) / 2.0 - i) * spacing * sigma
        for i in range(teams)
    }


def run_simulate(
    cfg: RunConfig, teams: int, spacing: float, rounds: int, seed: int,
    output: str, truth: str | None,
) -> dict:
    theta_true = _true_ratings(teams, spacing, cfg.sigma)
    spec = SimSpec(
        theta_true=theta_true, model=cfg.model_params(), rounds=rounds, seed=seed
    )
    dataset = generate_season(spec)
    with open(output, "w", newline="", encoding="utf-8") as fh:
        fh.write(serialize_matches(dataset))
    truth_path = truth or output + ".truth.csv"
    with open(truth_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["team", "rating"])
        for name, value in theta_true.items():
            writer.writerow([name, f"{value:.6g}"])
    return {
        "command": "simulate",
        "output": output,
        "truth_file": truth_path,
        "n_games": dataset.n_games,
        "n_teams": dataset.n_teams,
        "rounds": rounds,
        "seed": seed,
        "config": _config_payload(cfg),
    }


_STATS_COLUMNS = ["n_games", "p_home_bar", "p_away_bar", "p_draw_bar", "delta_bar", "kappa_bar"]


def run_stats(cfg: RunConfig) -> dict:
    stats = _lib.empirical_stats(load_matches(cfg.input_path).games)
    return {"command": "stats", "input": cfg.input_path,
            **{k: getattr(stats, k) for k in _STATS_COLUMNS}}


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(version=__version__)
def main():
    """Rating engine for win/draw/loss competitions."""


@main.command("rate")
@click.argument("input_path", type=click.Path())
@_config_options("rate")
@click.option("--trajectory", "trajectory_path", type=click.Path(), default=None,
              help="Write the per-game rating trajectory CSV here.")
@_handle_errors
def cmd_rate(input_path, trajectory_path, **kw):
    """Run the online ratings over a season and print the final table."""
    cfg = _make_config("rate", input_path, **kw)
    payload = run_rate(cfg, trajectory_path)
    if payload["n_games"] == 0:
        click.echo("warning: no games parsed from input", err=True)
    _emit(payload, payload["ratings"], ["team", "rating"], cfg.output_format)


@main.command("evaluate")
@click.argument("input_path", type=click.Path())
@_config_options("evaluate")
@click.option("--baseline", is_flag=True, default=False,
              help="Also score the bookmaker probabilities over the same window.")
@_handle_errors
def cmd_evaluate(input_path, baseline, **kw):
    """Score a season's sequential predictions by mean logarithmic score."""
    cfg = _make_config("evaluate", input_path, **kw)
    payload = run_evaluate(cfg, baseline)
    row = {
        "season": payload["input"],
        "mode": payload["config"]["mode"],
        "kappa": payload["config"]["kappa"],
        "eta": payload["config"]["eta"],
        "mean_ls": payload["mean_ls"],
        "interval_low": payload["interval_low"],
        "interval_high": payload["interval_high"],
        "baseline_mean_ls": payload["baseline"]["mean_ls"] if payload["baseline"] else None,
    }
    _emit(payload, [row], list(row), cfg.output_format)


@main.command("sweep")
@click.argument("input_path", type=click.Path())
@_config_options("sweep")
@click.option("--eta-grid", default=str(_DEFAULTS["eta"]), show_default=True,
              help="Comma-separated home-advantage values.")
@click.option("--kappa-grid", default=str(_DEFAULTS["kappa"]), show_default=True,
              help="Comma-separated draw-parameter values: each cell's kappa, used to update "
                   "and predict in kappa-elo, to predict in elo-check, and not at all in elo.")
@click.option("--modes", default=_DEFAULTS["mode"], show_default=True,
              help="Comma-separated update modes.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Accepted and ignored: one pass over the season evaluates every cell.")
@_handle_errors
def cmd_sweep(input_path, eta_grid, kappa_grid, modes, jobs, **kw):
    """Evaluate a grid of (mode, kappa, eta) cells over one season."""
    cfg = _make_config("sweep", input_path, **kw)
    try:
        etas = [float(x) for x in eta_grid.split(",") if x.strip() != ""]
        kappas = [float(x) for x in kappa_grid.split(",") if x.strip() != ""]
        mode_list = [UpdateMode(m.strip()) for m in modes.split(",") if m.strip() != ""]
    except ValueError as exc:
        raise click.UsageError(f"bad grid value: {exc}") from None
    if not (etas and kappas and mode_list):
        raise click.UsageError("grids must be non-empty")
    payload = run_sweep(cfg, etas, kappas, mode_list, jobs)
    columns = ["season", "mode", "kappa", "eta", "mean_ls",
               "interval_low", "interval_high", "error"]
    _emit(payload, payload["cells"], columns, cfg.output_format)


@main.command("fit")
@click.argument("input_path", type=click.Path())
@_config_options("fit")
@click.option("--max-iters", type=int, default=5000, show_default=True,
              help="Most Newton steps to take.")
@click.option("--tol", type=float, default=1e-6, show_default=True,
              help="Convergence threshold on gradient max-norm, in units of 1/sigma'.")
@click.option("--ridge", type=float, default=0.0, show_default=True,
              help="Ridge penalty weight (0 disables).  On separable data a ridge near 0 "
                   "stops where --tol says, not at the penalized optimum.")
@_handle_errors
def cmd_fit(input_path, max_iters, tol, ridge, **kw):
    """Batch maximum-likelihood fit of the ratings on a full game list."""
    cfg = _make_config("fit", input_path, **kw)
    with _usage_errors():
        _lib.check_fit_options(max_iters, tol, ridge)
    payload = run_fit(cfg, None, max_iters, tol, ridge)
    _emit(payload, payload["ratings"], ["team", "rating"], cfg.output_format)
    if not payload["converged"]:
        click.echo(
            f"error: fit did not converge ({payload['stop_reason']}; "
            f"gradient max-norm {payload['grad_max_norm']:.3g} "
            f"after {payload['iterations']} iterations)",
            err=True,
        )
        sys.exit(4)


@main.command("simulate")
@_config_options("simulate")
@click.option("--teams", type=click.IntRange(min=2), default=20, show_default=True)
@click.option("--spacing", type=float, default=0.1, show_default=True,
              help="True-rating gap between adjacent teams, in units of sigma.")
@click.option("--rounds", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--output", "-o", type=click.Path(), required=True,
              help="Season CSV destination.")
@click.option("--truth", type=click.Path(), default=None,
              help="Ground-truth ratings CSV (default: OUTPUT.truth.csv).")
@_handle_errors
def cmd_simulate(teams, spacing, rounds, seed, output, truth, **kw):
    """Generate a synthetic season from evenly spaced true ratings."""
    cfg = _make_config("simulate", None, **kw)
    ratings = list(_true_ratings(teams, spacing, cfg.sigma).values())
    # the first and last teams give the widest difference; eta only widens it
    widest = apply_home_advantage(abs(ratings[0] - ratings[-1]), cfg.model_params())
    if not math.isfinite(widest):
        raise click.UsageError(f"--spacing {spacing} at --sigma {cfg.sigma} and --eta {cfg.eta} "
                               "makes a rating difference non-finite")
    payload = run_simulate(cfg, teams, spacing, rounds, seed, output, truth)
    row = {k: payload[k] for k in ("output", "truth_file", "n_games", "n_teams", "seed")}
    _emit(payload, [row], list(row), cfg.output_format)


@main.command("stats")
@click.argument("input_path", type=click.Path())
@_config_options("stats")
@_handle_errors
def cmd_stats(input_path, **kw):
    """Outcome frequencies and the implied draw parameter for a season file."""
    cfg = _make_config("stats", input_path, **kw)
    payload = run_stats(cfg)
    _emit(payload, [{k: payload[k] for k in _STATS_COLUMNS}], _STATS_COLUMNS, cfg.output_format)


if __name__ == "__main__":
    main()

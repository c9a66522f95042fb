"""Command-line front end: rate, evaluate, sweep, fit, simulate, stats.

All commands read the football-data CSV layout and write machine-readable
JSON (default) or CSV to stdout.  Defaults reproduce the headline
configuration: sigma=600, normalized step 0.125, home advantage 0.3,
draw parameter 0.7, scored over the second half of the season.

``main(argv)`` reads the command line with the standard library's
argparse.  A usage error prints the command's usage line and one
``Error:`` line in click's format.  Exit codes: 0 success, 2 usage
error, 3 data error, 4 numeric error (zero-probability outcome or
non-convergence).
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum

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


def _ranked(ratings: dict[str, float]) -> list[dict]:
    """Rating rows, highest first as printed (six digits), equal ones by team."""
    order = sorted(ratings, key=lambda team: (-float(f"{ratings[team]:.6g}"), team))
    return [{"team": team, "rating": ratings[team]} for team in order]


def _emit(payload: dict, rows: list[dict], columns: list[str], output_format: str):
    if output_format == "json":
        print(json.dumps(_round6(payload), indent=2))
    else:
        sys.stdout.write(_rows_to_csv(rows, columns))


@contextlib.contextmanager
def _handle_errors():
    """Exit 4 after a numeric error's message, 3 after a data error's."""
    try:
        yield
    except (ZeroProbabilityError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(4)
    except (SchemaError, RowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


class UsageError(Exception):
    """A command-line mistake: exit 2 after the command's usage line."""


def _kind(name: str, convert=str, low=None, choices=()) -> dict:
    """argparse keywords of a value: ``convert``ed, at least ``low``, one of ``choices``.

    ``name`` names the value in a conversion error and, without choices, in the help.
    """
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid {name}.") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}.")
        if choices and value not in choices:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not one of {', '.join(map(repr, choices))}.")
        return value

    return {"type": parse, "metavar": f"[{'|'.join(choices)}]" if choices else name.upper()}


_FLOAT, _INT = _kind("float", float), _kind("integer", int)
_TEXT, _PATH = {"metavar": "TEXT"}, {"metavar": "PATH"}
# Every option by its dest, a RunConfig field or a command's keyword: its
# flags, argparse keywords and help.  input_path is the INPUT_PATH argument.
_OPTIONS = {
    "input_path": ("", {"nargs": "?"}, argparse.SUPPRESS),
    "sigma": ("--sigma", _FLOAT, "Rating scale."),
    "k_tilde": ("--k-step", _FLOAT, "Normalized update step; the absolute step is k-step * sigma."),
    "kappa": ("--kappa", _FLOAT, "Draw parameter.  Of the online modes, kappa-elo updates and "
              "predicts with it, elo-check only predicts with it, and elo does not use it."),
    "eta": ("--eta", _FLOAT, "Home advantage; the difference is shifted by eta * sigma."),
    "v0": ("--v0", _FLOAT, "Draw-band half width of the threshold family."),
    "mode": ("--mode", _kind("mode", choices=[m.value for m in UpdateMode]),
             "Online update / prediction mode."),
    "family": ("--family", _kind("family", choices=[f.value for f in ModelFamily]),
               "Probability model family."),
    "output_format": ("--output-format -f", _kind("format", choices=("json", "csv")),
                      "Output format."),
    "eval_window": ("--eval-window", _kind("window", choices=("second-half", "full")),
                    "Games scored: the second half of the season, or all of it."),
    "trajectory_path": ("--trajectory", _PATH, "Write the per-game rating trajectory CSV here."),
    "baseline": ("--baseline", {"action": "store_true", "default": False},
                 "Also score the bookmaker probabilities over the same window."),
    "eta_grid": ("--eta-grid", dict(_TEXT, default=str(_DEFAULTS["eta"])),
                 "Comma-separated home-advantage values."),
    "kappa_grid": ("--kappa-grid", dict(_TEXT, default=str(_DEFAULTS["kappa"])),
                   "Comma-separated draw-parameter values: each cell's kappa, used to update "
                   "and predict in kappa-elo, to predict in elo-check, and not at all in elo."),
    "modes": ("--modes", dict(_TEXT, default=_DEFAULTS["mode"]), "Comma-separated update modes."),
    "jobs": ("--jobs", dict(_INT, default=1),
             "Accepted and ignored: one pass over the season evaluates every cell."),
    "max_iters": ("--max-iters", dict(_INT, default=5000), "Most Newton steps to take."),
    "tol": ("--tol", dict(_FLOAT, default=1e-6),
            "Convergence threshold on gradient max-norm, in units of 1/sigma'."),
    "ridge": ("--ridge", dict(_FLOAT, default=0.0), "Ridge penalty weight (0 disables).  On "
              "separable data a ridge near 0 stops where --tol says, not at the penalized "
              "optimum."),
    "teams": ("--teams", dict(_kind("integer range", int, 2), default=20),
              "Number of teams; at least 2."),
    "spacing": ("--spacing", dict(_FLOAT, default=0.1),
                "True-rating gap between adjacent teams, in units of sigma."),
    "rounds": ("--rounds", dict(_kind("integer range", int, 1), default=1),
               "Double round-robins to play; at least 1."),
    "seed": ("--seed", dict(_kind("integer range", int, 0), default=0), "Random seed; at least 0."),
    "output": ("--output -o", _PATH, "Season CSV destination.  [required]"),
    "truth": ("--truth", _PATH, "Ground-truth ratings CSV (default: OUTPUT.truth.csv)."),
}


def _invalid(flags: list[str], message: str) -> UsageError:
    names = " / ".join(map(repr, flags))
    return UsageError(f"Invalid value{' for ' * bool(flags)}{names}: {message}")


@contextlib.contextmanager
def _usage_errors():
    """Turn a parameter check's ValueError into a usage error naming its option.

    Each check's message starts with the parameter's name, which is also
    the dest of its option in ``_OPTIONS``.
    """
    try:
        yield
    except ValueError as exc:
        flags = _OPTIONS.get(str(exc).split(" ", 1)[0], ("",))[0].split()
        raise _invalid(flags, str(exc)) from None


def _make_config(command: str, input_path: str | None = None, **options) -> RunConfig:
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
    if trajectory_path:
        # One cached "team,rating\n" cell per team, the name quoted by
        # csv.writer: a game re-formats only the two cells it moves and
        # writes "idx," before every cell.
        names = [_rows_to_csv([], [team, ""])[:-1] for team in result.trajectory.players]
        cells = [f"{name}0\n" for name in names]  # every team starts at rating 0
        with open(trajectory_path, "w", newline="", encoding="utf-8", buffering=1 << 20) as fh:
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
        "ratings": _ranked(result.state.ratings),
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
        "ratings": _ranked(result.theta),
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
# Command-line front end
# ---------------------------------------------------------------------------


def cmd_rate(cfg: RunConfig, trajectory_path):
    """Run the online ratings over a season and print the final table."""
    payload = run_rate(cfg, trajectory_path)
    if payload["n_games"] == 0:
        print("warning: no games parsed from input", file=sys.stderr)
    _emit(payload, payload["ratings"], ["team", "rating"], cfg.output_format)


def cmd_evaluate(cfg: RunConfig, baseline):
    """Score a season's sequential predictions by mean logarithmic score."""
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


def cmd_sweep(cfg: RunConfig, eta_grid, kappa_grid, modes, jobs):
    """Evaluate a grid of (mode, kappa, eta) cells over one season."""
    try:
        etas = [float(x) for x in eta_grid.split(",") if x.strip() != ""]
        kappas = [float(x) for x in kappa_grid.split(",") if x.strip() != ""]
        mode_list = [UpdateMode(m.strip()) for m in modes.split(",") if m.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad grid value: {exc}") from None
    if not (etas and kappas and mode_list):
        raise UsageError("grids must be non-empty")
    payload = run_sweep(cfg, etas, kappas, mode_list, jobs)
    columns = ["season", "mode", "kappa", "eta", "mean_ls",
               "interval_low", "interval_high", "error"]
    _emit(payload, payload["cells"], columns, cfg.output_format)


def cmd_fit(cfg: RunConfig, max_iters, tol, ridge):
    """Batch maximum-likelihood fit of the ratings on a full game list."""
    with _usage_errors():
        _lib.check_fit_options(cfg.model_params(), max_iters, tol, ridge)
    payload = run_fit(cfg, None, max_iters, tol, ridge)
    _emit(payload, payload["ratings"], ["team", "rating"], cfg.output_format)
    if not payload["converged"]:
        print(
            f"error: fit did not converge ({payload['stop_reason']}; "
            f"gradient max-norm {payload['grad_max_norm']:.3g} "
            f"after {payload['iterations']} iterations)",
            file=sys.stderr,
        )
        sys.exit(4)


def cmd_simulate(cfg: RunConfig, teams, spacing, rounds, seed, output, truth):
    """Generate a synthetic season from evenly spaced true ratings."""
    ratings = list(_true_ratings(teams, spacing, cfg.sigma).values())
    # the first and last teams give the widest difference; eta only widens it
    widest = apply_home_advantage(abs(ratings[0] - ratings[-1]), cfg.model_params())
    if not math.isfinite(widest):
        raise UsageError(f"--spacing {spacing} at --sigma {cfg.sigma} and --eta {cfg.eta} "
                         "makes a rating difference non-finite")
    payload = run_simulate(cfg, teams, spacing, rounds, seed, output, truth)
    row = {k: payload[k] for k in ("output", "truth_file", "n_games", "n_teams", "seed")}
    _emit(payload, [row], list(row), cfg.output_format)


def cmd_stats(cfg: RunConfig):
    """Outcome frequencies and the implied draw parameter for a season file."""
    payload = run_stats(cfg)
    _emit(payload, [{k: payload[k] for k in _STATS_COLUMNS}], _STATS_COLUMNS, cfg.output_format)


# Each command's function and the dests of its own options, which follow
# its fields' (_COMMAND_FIELDS) and --output-format in its help.
_COMMANDS = {
    "evaluate": (cmd_evaluate, ("input_path", "baseline")),
    "fit": (cmd_fit, ("input_path", "max_iters", "tol", "ridge")),
    "rate": (cmd_rate, ("input_path", "trajectory_path")),
    "simulate": (cmd_simulate, ("teams", "spacing", "rounds", "seed", "output", "truth")),
    "stats": (cmd_stats, ("input_path",)),
    "sweep": (cmd_sweep, ("input_path", "eta_grid", "kappa_grid", "modes", "jobs")),
}


class _HelpFormatter(argparse.HelpFormatter):
    def _get_help_string(self, action):  # each option's help ends in its default
        shown = action.nargs != 0 and action.default is not None
        return action.help + "  [default: %(default)s]" * shown


def _flag(arg: str) -> str:
    """The option an argument names: --eta of --eta=0.3, -f of -fcsv."""
    return arg.split("=", 1)[0] if arg.startswith("--") else arg[:2]


def _no_such_option(flag: str, known: list[str]) -> str:
    """An unknown option's message; a long one suggests its close matches in ``known``."""
    import difflib
    close = sorted(difflib.get_close_matches(flag, [k for k in known if k[1] == "-"])
                   if flag.startswith("--") else [])
    names = ", ".join(map(repr, close))
    hint = f" Did you mean {names}?" if len(close) == 1 else f" (Did you mean one of: {names}?)"
    return f"No such option {flag!r}." + hint * bool(close)


def _parse(name: str, usage: str, args: list[str]) -> tuple[RunConfig, dict]:
    """Command ``name``'s configuration and its own options, from the arguments after it."""
    parser = argparse.ArgumentParser(
        usage=usage, description=_COMMANDS[name][0].__doc__, formatter_class=_HelpFormatter,
        add_help=False, allow_abbrev=False, exit_on_error=False)
    known, takes_value = ["--help"], set()
    for dest in _COMMAND_FIELDS[name] + ("output_format",) + _COMMANDS[name][1]:
        flags, kind, text = _OPTIONS[dest]
        parser.add_argument(*flags.split(), dest=dest, help=text,
                            **{"default": _DEFAULTS.get(dest), **kind})
        known += flags.split()
        takes_value.update(() if "action" in kind else flags.split())
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    # Options are read left to right before any value is checked.  An
    # option's value is the next argument, even one that starts with "-"
    # (--kappa-grid -1,0.7), which argparse would take for an option, and
    # any other argument that starts with "-" (-1 too) is an option.
    joined, rest = [], iter(args)
    for arg in rest:
        flag = _flag(arg)
        if arg == "--":  # the rest are arguments
            joined += [arg, *rest]
        elif arg in takes_value:
            value = next(rest, None)
            if value is None:
                raise UsageError(f"Option {arg!r} requires an argument.")
            joined.append(f"{arg}={value}")
        elif flag in takes_value and arg[1] != "-":  # -fcsv: the rest is the value
            joined.append(f"{flag}={arg[2:]}")
        elif arg.startswith("-") and arg != "-" and flag not in known:
            raise UsageError(_no_such_option(flag, known))
        elif flag in known and flag not in takes_value and "=" in arg:
            raise UsageError(f"Option {flag!r} does not take a value.")
        else:
            joined.append(arg)
    try:
        namespace, extra = parser.parse_known_args(joined)
    except argparse.ArgumentError as exc:  # a value of the wrong type
        raise _invalid(exc.argument_name.split("/"), exc.message) from None
    if extra:
        s = "s" * (len(extra) > 1)
        raise UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})")
    values = vars(namespace)
    if values.get("input_path", "") is None:
        raise UsageError("Missing argument 'INPUT_PATH'.")
    if values.get("output", "") is None:
        raise UsageError("Missing option '--output' / '-o'.")
    own = {dest: values.pop(dest) for dest in _COMMANDS[name][1] if dest != "input_path"}
    return _make_config(name, **values), own


def main(argv: list[str] | None = None) -> None:
    """Run the command line ``argv`` (default: ``sys.argv[1:]``).

    Exits 2 on a usage error, 3 on a data error and 4 on a numeric one.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    prog = os.path.basename(sys.argv[0]).replace("__main__.py", "python -m drawelo")
    for stream in (sys.stdout, sys.stderr):  # team names may not be ASCII, whatever the locale
        if codecs.lookup(getattr(stream, "encoding", None) or "utf-8").name == "ascii":
            stream.reconfigure(encoding="utf-8")
    name = args[0] if args else ""
    command, own = _COMMANDS.get(name, (None, ()))
    path = f"{prog} {name}" if command else prog
    usage = path + (" [OPTIONS]" + " INPUT_PATH" * ("input_path" in own) if command
                    else " [OPTIONS] COMMAND [ARGS]...")
    try:
        if command:
            cfg, options = _parse(name, usage, args[1:])
            with _handle_errors():
                command(cfg, **options)
        elif name in ("", "--help"):
            commands = "".join(f"\n  {c:<8}  {f.__doc__.splitlines()[0]}"
                               for c, (f, _) in _COMMANDS.items())
            print(f"Usage: {usage}\n\n  Rating engine for win/draw/loss competitions.\n\n"
                  "Options:\n  --version  Show the version and exit.\n"
                  f"  --help     Show this message and exit.\n\nCommands:{commands}",
                  file=sys.stdout if name else sys.stderr)
            sys.exit(0 if name else 2)
        elif name == "--version":
            print(f"{prog}, version {__version__}")
        elif name.startswith("-"):
            raise UsageError(_no_such_option(_flag(name), ["--version", "--help"]))
        else:
            raise UsageError(f"No such command {name!r}.")
    except UsageError as exc:
        print(f"Usage: {usage}\nTry '{path} --help' for help.\n\nError: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()

"""Command-line front end: rate, evaluate, sweep, fit, simulate, stats.

All commands read the football-data CSV layout and write machine-readable
JSON (default) or CSV to stdout.  Defaults reproduce the headline
configuration: sigma=600, normalized step 0.125, home advantage 0.3,
draw parameter 0.7, scored over the second half of the season.

``main(argv)`` reads the command line with the standard library's
argparse, and usage errors are argparse's: the command's usage, then one
``PROG COMMAND: error:`` line naming the option or argument, exit 2.
Other exit codes: 0 success, 1 when stdout's reader has closed it (``| head``),
3 data error (a rating or rating difference that overflows included), 4
numeric error (zero-probability outcome or non-convergence); ``main`` alone
maps a fault to its code.
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
from enum import Enum

from . import __version__
from .data import load_matches, serialize_matches
from .errors import ConvergenceError, ZeroProbabilityError
from .models import ModelFamily, ModelParams, Record, UpdateMode, apply_home_advantage
from .sim import SimSpec, generate_season, true_ratings

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


class RunConfig(Record):
    """One command invocation's parameters.

    Every field after ``input_path`` is a command-line option of the same
    name on the commands that read it (``_COMMANDS``), and its default
    is the option's default.  ``mode`` and ``family`` also accept their enum
    values as strings; ``EngineConfig`` and ``ModelParams`` coerce and check them.
    """

    def __init__(self, command: str, input_path: str | None = None, sigma: float = 600.0,
                 k_tilde: float = 0.125, kappa: float = 0.7, eta: float = 0.3, v0: float = 0.0,
                 mode: UpdateMode = UpdateMode.KAPPA_ELO,
                 family: ModelFamily = ModelFamily.DAVIDSON, output_format: str = "json",
                 eval_window: str = "second-half"):
        self._set(command, input_path, sigma, k_tilde, kappa, eta, v0, mode, family,
                  output_format, eval_window)

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


# every field's default; command, the first field, has none
_DEFAULTS = dict(zip(RunConfig._fields[1:], map(_plain, RunConfig.__init__.__defaults__)))
_RATE_FIELDS = ("sigma", "k_tilde", "kappa", "eta", "mode")
_BATCH_FIELDS = ("sigma", "kappa", "eta", "v0", "family")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _round6(value):
    """Round floats to 6 significant digits, recursively.

    inf and -inf become 'inf' and '-inf', and NaN becomes None (JSON null),
    so the output stays valid JSON.
    """
    if isinstance(value, bool) or not isinstance(value, float):
        if isinstance(value, dict):
            return {k: _round6(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [_round6(v) for v in value]
        return value
    if math.isinf(value):
        return str(value)
    if math.isnan(value):
        return None
    return float(f"{value:.6g}")


def _csv_cell(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"  # inf and -inf as 'inf' and '-inf'
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
        text = json.dumps(_round6(payload), indent=2) + "\n"
    else:
        text = _rows_to_csv(rows, columns)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone (| head): exit 1 quietly, as Python's docs do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


class UsageError(Exception):
    """A command-line mistake: exit 2 after the command's usage line."""


def _at_least(low: int):
    """An argparse type: an integer of at least ``low``."""
    def integer(text: str) -> int:  # argparse reports its ValueError as an invalid integer
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _grid(convert):
    """An argparse type: one or more comma-separated values, each ``convert``ed."""
    def grid(text: str) -> list:  # argparse reports convert's ValueError as an invalid grid
        values = [convert(x.strip()) for x in text.split(",") if x.strip()]
        if not values:
            raise argparse.ArgumentTypeError("grids must be non-empty")
        return values
    return grid


_FLOAT, _INT, _PATH = {"type": float}, {"type": int}, {"metavar": "PATH"}
# Every option by its dest, a RunConfig field or a command's keyword: its
# flags, argparse keywords and help.  input_path is the INPUT_PATH argument.
_OPTIONS = {
    "input_path": ("", {"metavar": "INPUT_PATH"}, "Season CSV in the football-data layout."),
    "sigma": ("--sigma", _FLOAT, "Rating scale."),
    "k_tilde": ("--k-step", _FLOAT, "Normalized update step; the absolute step is k-step * sigma."),
    "kappa": ("--kappa", _FLOAT, "Draw parameter.  Of the online modes, kappa-elo updates and "
              "predicts with it, elo-check only predicts with it, and elo does not use it."),
    "eta": ("--eta", _FLOAT, "Home advantage; the difference is shifted by eta * sigma."),
    "v0": ("--v0", _FLOAT, "Draw-band half width of the threshold family."),
    "mode": ("--mode", {"choices": [m.value for m in UpdateMode]},
             "Online update / prediction mode."),
    "family": ("--family", {"choices": [f.value for f in ModelFamily]},
               "Probability model family."),
    "output_format": ("--output-format -f", {"choices": ("json", "csv")}, "Output format."),
    "eval_window": ("--eval-window", {"choices": ("second-half", "full")},
                    "Games scored: the second half of the season, or all of it."),
    "trajectory_path": ("--trajectory", _PATH, "Write the per-game rating trajectory CSV here."),
    "baseline": ("--baseline", {"action": "store_true", "default": False},
                 "Also score the bookmaker probabilities over the same window."),
    "eta_grid": ("--eta-grid", {"type": _grid(float), "default": str(_DEFAULTS["eta"])},
                 "Comma-separated home-advantage values."),
    "kappa_grid": ("--kappa-grid", {"type": _grid(float), "default": str(_DEFAULTS["kappa"])},
                   "Comma-separated draw-parameter values: each cell's kappa, used to update "
                   "and predict in kappa-elo, to predict in elo-check, and not at all in elo."),
    "modes": ("--modes", {"type": _grid(UpdateMode), "default": _DEFAULTS["mode"]},
              "Comma-separated update modes."),
    "jobs": ("--jobs", dict(_INT, default=1),
             "Accepted and ignored: one pass over the season evaluates every cell."),
    "max_iters": ("--max-iters", dict(_INT, default=5000), "Most Newton steps to take."),
    "tol": ("--tol", dict(_FLOAT, default=1e-6),
            "Convergence threshold on gradient max-norm, in units of 1/sigma'."),
    "ridge": ("--ridge", dict(_FLOAT, default=0.0), "Ridge penalty weight (0 disables).  On "
              "separable data a ridge near 0 stops where --tol says, not at the penalized "
              "optimum."),
    "teams": ("--teams", {"type": _at_least(2), "default": 20},
              "Number of teams; at least 2."),
    "spacing": ("--spacing", dict(_FLOAT, default=0.1),
                "True-rating gap between adjacent teams, in units of sigma."),
    "rounds": ("--rounds", {"type": _at_least(1), "default": 1},
               "Double round-robins to play; at least 1."),
    "seed": ("--seed", {"type": _at_least(0), "default": 0}, "Random seed; at least 0."),
    "output": ("--output -o", dict(_PATH, required=True), "Season CSV destination.  [required]"),
    "truth": ("--truth", _PATH, "Ground-truth ratings CSV (default: OUTPUT.truth.csv)."),
}


@contextlib.contextmanager
def _usage_errors():
    """Turn a parameter check's ValueError into a usage error naming its option.

    Each check's message starts with the parameter's name, which is also
    the dest of its option in ``_OPTIONS``; the error reads as argparse's do.
    """
    try:
        yield
    except ValueError as exc:
        flags = _OPTIONS.get(str(exc).split(" ", 1)[0], ("",))[0].split()
        raise UsageError(f"argument {'/'.join(flags)}: {exc}" if flags else str(exc)) from None


def _config_payload(cfg: RunConfig) -> dict:
    return {
        name: _plain(getattr(cfg, name))
        for name in _COMMANDS[cfg.command][1] if name != "eval_window"
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


_SCORES = ("mean_ls", "interval_low", "interval_high")  # an EvalReport's printed fields


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
        **{k: getattr(report, k) for k in _SCORES},
        "baseline": None,
    }
    if baseline:
        bk = _lib.baseline_report(dataset.games, report.window)
        payload["baseline"] = {k: getattr(bk, k) for k in _SCORES}
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
                       "eta": eta, **dict.fromkeys(_SCORES), "error": None}
                try:
                    cell = cfg.replace(mode=mode, eta=eta, kappa=kappa)
                    configs[len(rows)] = cell.engine_config()
                except ValueError as exc:
                    row["error"] = str(exc)
                rows.append(row)
    outcomes = _lib.evaluate_configs(dataset.games, list(configs.values()), cfg.eval_window)
    for i, outcome in zip(configs, outcomes):
        if isinstance(outcome, Exception):
            rows[i]["error"] = str(outcome)
        else:
            rows[i].update((k, getattr(outcome, k)) for k in _SCORES)
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
        "family": _plain(cfg.family),
        "n_games": dataset.n_games,
        "nll": result.nll,
        "grad_max_norm": result.grad_max_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "ratings": _ranked(result.theta),
    }


def run_simulate(
    cfg: RunConfig, teams: int, spacing: float, rounds: int, seed: int,
    output: str, truth: str | None,
) -> dict:
    """Write a season and its true ratings.

    Neither file is emptied before both open; if either cannot be opened,
    what this made is removed.
    """
    theta_true = true_ratings(teams, spacing, cfg.sigma)
    spec = SimSpec(
        theta_true=theta_true, model=cfg.model_params(), rounds=rounds, seed=seed
    )
    dataset = generate_season(spec)
    truth_path = truth or output + ".truth.csv"
    created = not os.path.exists(output)
    open(output, "a", encoding="utf-8").close()  # opens it, emptying nothing yet
    try:
        truth_fh = open(truth_path, "w", newline="", encoding="utf-8")
    except OSError:
        if created:
            os.remove(output)
        raise
    with truth_fh, open(output, "w", newline="", encoding="utf-8") as fh:
        fh.write(serialize_matches(dataset))
        rows = [{"team": name, "rating": value} for name, value in theta_true.items()]
        truth_fh.write(_rows_to_csv(rows, ["team", "rating"]))
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


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file, written yet or not."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return os.path.realpath(a) == os.path.realpath(b)


def cmd_rate(cfg: RunConfig, trajectory_path):
    """Run the online ratings over a season and print the final table."""
    if trajectory_path and _same_file(trajectory_path, cfg.input_path):
        raise UsageError(f"argument --trajectory: {trajectory_path!r} is the input file")
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
        **{k: payload[k] for k in _SCORES},
        "baseline_mean_ls": payload["baseline"]["mean_ls"] if payload["baseline"] else None,
    }
    _emit(payload, [row], list(row), cfg.output_format)


def cmd_sweep(cfg: RunConfig, eta_grid, kappa_grid, modes, jobs):
    """Evaluate a grid of (mode, kappa, eta) cells over one season."""
    payload = run_sweep(cfg, eta_grid, kappa_grid, modes, jobs)
    columns = ["season", "mode", "kappa", "eta", *_SCORES, "error"]
    _emit(payload, payload["cells"], columns, cfg.output_format)


def cmd_fit(cfg: RunConfig, max_iters, tol, ridge):
    """Batch maximum-likelihood fit of the ratings on a full game list."""
    with _usage_errors():
        _lib.check_fit_options(cfg.model_params(), max_iters, tol, ridge)
    payload = run_fit(cfg, None, max_iters, tol, ridge)
    _emit(payload, payload["ratings"], ["team", "rating"], cfg.output_format)
    if not payload["converged"]:
        raise ConvergenceError(
            f"fit did not converge ({payload['stop_reason']}; "
            f"gradient max-norm {payload['grad_max_norm']:.3g} "
            f"after {payload['iterations']} iteration{'s' * (payload['iterations'] != 1)})"
        )


def cmd_simulate(cfg: RunConfig, teams, spacing, rounds, seed, output, truth):
    """Generate a synthetic season from evenly spaced true ratings."""
    if truth and _same_file(truth, output):
        raise UsageError(f"argument --truth: {truth!r} is the --output file")
    ratings = list(true_ratings(teams, spacing, cfg.sigma).values())
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


# Each command's function, the RunConfig fields it reads (in RunConfig order)
# and the dests of its own options.  Its help lists the fields, which "config"
# echoes (evaluate reports eval_window beside it), then --output-format, which
# every command takes, then its own options.
_COMMANDS = {
    "evaluate": (cmd_evaluate, _RATE_FIELDS + ("eval_window",), ("input_path", "baseline")),
    "fit": (cmd_fit, _BATCH_FIELDS, ("input_path", "max_iters", "tol", "ridge")),
    "rate": (cmd_rate, _RATE_FIELDS, ("input_path", "trajectory_path")),
    "simulate": (cmd_simulate, _BATCH_FIELDS,
                 ("teams", "spacing", "rounds", "seed", "output", "truth")),
    "stats": (cmd_stats, (), ("input_path",)),
    "sweep": (cmd_sweep, ("sigma", "k_tilde", "eval_window"),
              ("input_path", "eta_grid", "kappa_grid", "modes", "jobs")),
}


def _parser(name: str, prog: str) -> tuple[argparse.ArgumentParser, dict[str, bool]]:
    """Command ``name``'s parser, and whether each of its flags takes a value.

    An option without a default is left out of the parsed values when not given.
    """
    parser = argparse.ArgumentParser(
        prog=f"{prog} {name}", description=_COMMANDS[name][0].__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter, add_help=False)
    takes_value = {"--help": False}
    for dest in _COMMANDS[name][1] + ("output_format",) + _COMMANDS[name][2]:
        flags, kind, text = _OPTIONS[dest]
        parser.add_argument(*flags.split(), dest=dest, help=text,
                            **{"default": _DEFAULTS.get(dest, argparse.SUPPRESS), **kind})
        takes_value.update(dict.fromkeys(flags.split(), "action" not in kind))
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser, takes_value


def _parse(name: str, parser: argparse.ArgumentParser, takes_value: dict[str, bool],
           args: list[str]) -> tuple[RunConfig, dict]:
    """Command ``name``'s configuration and its own options, from the arguments after it."""
    # Options are read left to right before any value is checked, alike on
    # every Python version.  An option's value is the next argument, even one
    # that starts with "-" (--kappa-grid -1,0.7), which argparse would take
    # for an option; -fVALUE reads VALUE as written; any other argument that
    # starts with "-" (-1 too) is an option; and "--" ends the options.
    joined, rest = [], iter(args)
    for arg in rest:
        flag = arg.split("=", 1)[0] if arg.startswith("--") else arg[:2]
        if arg == "--":  # the rest are arguments
            joined += [arg, *rest]
        elif takes_value.get(arg):
            value = next(rest, None)
            joined.append(arg if value is None else f"{arg}={value}")
        elif takes_value.get(flag) and arg[1] != "-":  # -fcsv: the rest is the value
            joined.append(f"{flag}={arg[2:]}")
        elif arg.startswith("-") and arg != "-" and flag not in takes_value:
            raise UsageError(f"unrecognized arguments: {arg}")
        else:
            joined.append(arg)
    values = vars(parser.parse_args(joined))
    own = {dest: values.pop(dest, None) for dest in _COMMANDS[name][2] if dest != "input_path"}
    with _usage_errors():
        cfg = RunConfig(command=name, **values)
        # building what the command runs checks its parameters; only the online
        # commands, which read k_tilde or mode, need the engine's EngineConfig
        if {"k_tilde", "mode"}.isdisjoint(_COMMANDS[name][1]):
            cfg.model_params()
        else:
            cfg.engine_config()
    return cfg, own


def main(argv: list[str] | None = None) -> None:
    """Run the command line ``argv`` (default: ``sys.argv[1:]``).

    Exits 2 on a usage error, 3 on a data error and 4 on a numeric one; 1 on a closed stdout.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    prog = os.path.basename(sys.argv[0]).replace("__main__.py", "python -m drawelo")
    for stream in (sys.stdout, sys.stderr):  # team names may not be ASCII, whatever the locale
        if codecs.lookup(getattr(stream, "encoding", None) or "utf-8").name == "ascii":
            stream.reconfigure(encoding="utf-8")
    name = args[0] if args else None
    if name not in _COMMANDS:
        commands = "".join(f"\n  {c:<8}  {f.__doc__}" for c, (f, *_) in _COMMANDS.items())
        top = argparse.ArgumentParser(
            prog=prog, description="Rating engine for win/draw/loss competitions.",
            epilog=f"commands:{commands}", formatter_class=argparse.RawDescriptionHelpFormatter,
            add_help=False, allow_abbrev=False)
        top.add_argument("command", nargs="?", choices=_COMMANDS, metavar="COMMAND",
                         help="The command to run; COMMAND --help lists its options.")
        top.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}",
                         help="Show the version and exit.")
        top.add_argument("--help", action="help", help="Show this message and exit.")
        top.parse_args(args)  # --version, --help and a usage error exit here
        top.print_help(sys.stderr)  # no command
        sys.exit(2)
    parser, takes_value = _parser(name, prog)
    try:
        cfg, options = _parse(name, parser, takes_value, args[1:])
        _COMMANDS[name][0](cfg, **options)
    except UsageError as exc:
        parser.error(str(exc))
    except (ConvergenceError, OSError, ValueError) as exc:
        # numeric faults exit 4, the rest (data faults, an overflowing rating or difference) 3
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(4 if isinstance(exc, (ZeroProbabilityError, ConvergenceError)) else 3)


if __name__ == "__main__":
    main()

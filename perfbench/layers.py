"""Traced run: per-layer timings and counts on a workload's own inputs.

Spans are recorded by the benchmark, not by the package.  For a traced
pass the tracer swaps span-recording wrappers for the library functions that
``drawelo.cli`` calls into that module's namespace, runs the workload's
commands in-process, and restores the originals afterwards.  ``src/`` is
never modified.  Each layer's self time is its spans' durations minus the
part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from drawelo import (
    ModelFamily,
    UpdateMode,
    batch_ml_fit,
    evaluate_scores,
    generate_season,
    load_matches,
    nll,
    nll_gradient,
    predict_probs,
    run_season,
    score_games,
    serialize_matches,
)
from drawelo import cli

import workloads as wl

# Library functions drawelo.cli calls, and the layer (module) each belongs to.
LAYER_OF = {
    "load_matches": "data",
    "serialize_matches": "data",
    "generate_season": "sim",
    "run_season": "engine",
    "batch_ml_fit": "engine",
    "score_games": "evaluation",
    "evaluate_scores": "evaluation",
    "empirical_stats": "evaluation",
}
LAYERS = ("cli", "data", "sim", "engine", "evaluation")
MODES = ("kappa-elo", "elo", "elo-check")
FAMILIES = {"davidson": 0.0, "elo-implicit": 0.0, "threshold": wl.THRESHOLD_V0, "binary": 0.0}
FIT_FAMILIES = ("davidson", "threshold")
# -X importtime nests the package's own import under drawelo.cli's line, so
# that line's cumulative time is everything ``import drawelo.cli`` loads.
IMPORT_MODULES = {"cli.import_s": "drawelo.cli", "sim.import_s": "drawelo.sim",
                  "data.import_s": "drawelo.data"}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: int


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, layer, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(fn.__name__, layer):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched_cli(self):
        """Trace drawelo.cli's calls into the library for the duration."""
        originals = {name: getattr(cli, name) for name in LAYER_OF}
        try:
            for name, layer in LAYER_OF.items():
                setattr(cli, name, self.wrap(originals[name], layer))
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    def self_times(self, run_id: int) -> dict[str, float]:
        """Seconds of self time per layer over one run's spans."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            if s.run_id == run_id:
                duration = s.end - s.start
                totals[s.layer] += duration
                if s.parent is not None:
                    totals[self.spans[s.parent].layer] -= duration
        return totals

    def write(self, path: Path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s.__dict__}) + "\n")


# ---------------------------------------------------------------------------
# In-process command calls (the same defaults the CLI uses)
# ---------------------------------------------------------------------------


def call(cmd: wl.Command, inputs: wl.Inputs, workdir: Path) -> dict:
    cfg = cli.RunConfig(command=cmd.kind, input_path=str(inputs.path))
    if cmd.kind == "simulate":
        return cli.run_simulate(cfg, inputs.teams, wl.SPACING, inputs.rounds, inputs.seed,
                                str(workdir / wl.OUTPUT_FILES[0]), None)
    if cmd.kind == "stats":
        return cli.run_stats(cfg)
    if cmd.kind == "evaluate":
        return cli.run_evaluate(cfg, inputs.odds)
    if cmd.kind == "rate":
        return cli.run_rate(cfg, str(workdir / wl.OUTPUT_FILES[1]))
    if cmd.kind == "sweep":
        kappas, etas, modes = cmd.grid
        return cli.run_sweep(cfg, list(etas), list(kappas), [UpdateMode(m) for m in modes], 1)
    if cmd.kind == "fit":
        cfg.family, cfg.v0 = ModelFamily(cmd.family), cmd.v0
        return cli.run_fit(cfg, None, 5000, 1e-6, 0.0)
    raise ValueError(f"unknown command kind {cmd.kind!r}")


def run_pipeline(commands, inputs, workdir, wants, tracer: Tracer | None):
    """The workload's command sequence in-process; returns (seconds, failures)."""
    failures = []
    start = time.perf_counter()
    for cmd, want in zip(commands, wants):
        if tracer is None:
            payload = call(cmd, inputs, workdir)
        else:
            with tracer.span(f"run_{cmd.kind}", "cli"):
                payload = call(cmd, inputs, workdir)
        failures.append(wl.check(cmd, payload, want, workdir))
    return time.perf_counter() - start, failures


# ---------------------------------------------------------------------------
# Layer timings
# ---------------------------------------------------------------------------


def median_time(fn, budget: float = 0.3, max_reps: int = 7) -> float:
    """Median wall seconds of fn(), repeated until ``budget`` seconds or max_reps."""
    times: list[float] = []
    while not times or (sum(times) < budget and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_times(env: dict, reps: int) -> dict[str, float]:
    """Cumulative import seconds of drawelo modules, from ``-X importtime``."""
    samples: dict[str, list[float]] = {k: [] for k in IMPORT_MODULES}
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import drawelo.cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        for metric, module in IMPORT_MODULES.items():
            samples[metric].append(cumulative[module])
    return {k: statistics.median(v) for k, v in samples.items()}


def rating_gaps(games, trajectory) -> list[float]:
    """theta_home - theta_away before each game, from a run's snapshots."""
    gaps = []
    before: dict[str, float] = {}
    for game, after in zip(games, trajectory):
        gaps.append(before.get(game.home_id, 0.0) - before.get(game.away_id, 0.0))
        before = after
    return gaps


def online_metrics(inputs: wl.Inputs) -> dict[str, float]:
    dataset = load_matches(inputs.path)
    games, names, n = dataset.games, dataset.team_names, dataset.n_games
    spec = wl.sim_spec(inputs.teams, inputs.rounds, inputs.seed)
    m = {
        "data.load_matches_us_per_row": median_time(lambda: load_matches(inputs.path)) / n * 1e6,
        "data.serialize_matches_s": median_time(lambda: serialize_matches(dataset)),
        "sim.generate_season_us_per_game": median_time(lambda: generate_season(spec)) / n * 1e6,
    }
    for mode in MODES:
        config = wl.engine_config(mode)
        m[f"engine.run_season_us_per_game.{mode}"] = (
            median_time(lambda: run_season(games, config, players=names)) / n * 1e6)
    config = wl.engine_config()
    tracemalloc.start()
    result = run_season(games, config, players=names)
    m["engine.run_season_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    gaps = rating_gaps(games, result.trajectory)
    for family, v0 in FAMILIES.items():
        params = wl.generating_model(family, v0)
        m[f"models.predict_probs_ns_per_call.{family}"] = (
            median_time(lambda: [predict_probs(v, params) for v in gaps]) / len(gaps) * 1e9)
    m["evaluation.score_games_us_per_game"] = (
        median_time(lambda: score_games(result.predictions, games)) / n * 1e6)
    scores = score_games(result.predictions, games)
    m["evaluation.evaluate_scores_ms"] = median_time(lambda: evaluate_scores(scores)) * 1e3
    return m


def cli_metrics(workload: wl.Workload, inputs: wl.Inputs, workdir: Path) -> dict[str, float]:
    sweep = next((c for c in workload.commands if c.kind == "sweep"), wl.Command("sweep"))
    kappas, etas, modes = sweep.grid
    cells = len(kappas) * len(etas) * len(modes)
    m = {"cli.sweep_ms_per_cell":
         median_time(lambda: call(sweep, inputs, workdir)) / cells * 1e3}

    tracer = Tracer()
    selfs = []
    with tracer.patched_cli():
        for run_id in range(3):
            tracer.run_id = run_id
            with tracer.span("run_rate", "cli"):
                call(wl.Command("rate"), inputs, workdir)
            selfs.append(tracer.self_times(run_id)["cli"])
    m["cli.run_rate_self_s"] = statistics.median(selfs)
    return m


def fit_metrics(fit_path: Path) -> dict[str, float]:
    """Batch-fit layer on the fit workload's input (see run.py for why)."""
    games = load_matches(fit_path).games
    m = {}
    for family in FIT_FAMILIES:
        model = wl.generating_model(family, FAMILIES[family])
        t0 = time.perf_counter()
        fit = batch_ml_fit(games, model)
        elapsed = time.perf_counter() - t0
        m[f"engine.batch_ml_fit_s.{family}"] = elapsed
        m[f"engine.fit_iterations.{family}"] = fit.iterations
        m[f"engine.fit_ms_per_iter.{family}"] = elapsed / max(1, fit.iterations) * 1e3
        m[f"engine.nll_us_per_game.{family}"] = (
            median_time(lambda: nll(fit.theta, games, model)) / len(games) * 1e6)
        m[f"engine.nll_gradient_us_per_game.{family}"] = (
            median_time(lambda: nll_gradient(fit.theta, games, model)) / len(games) * 1e6)
    return m

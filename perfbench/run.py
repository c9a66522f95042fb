#!/usr/bin/env python3
"""Seeded benchmark of the drawelo CLI: end-to-end and per-layer metrics.

Run from the repository root; nothing needs installing, the package is
imported from ``src/``:

    python3 perfbench/run.py --workload season --seed 1 --seconds 25 --trace 0

``--trace 0`` generates the workload's input from the seed (untimed), then
runs its ``python -m drawelo`` command sequence as subprocesses, one at a
time (a closed loop with one client) and all on one CPU, pass after pass
for ``--seconds``, each pass preceded by a fixed reference program and a
fresh ``import drawelo.cli``.  Every command's output is checked against the
committed reference outputs (``reference.json``) or, for seeds it does not
hold, an in-process recomputation.  It reports ``setup_s`` (median import),
``wall_s`` (sum of the commands' medians) and ``peak_rss_mb`` (largest
command median of the peak RSS).  Both times are scaled to the host speed
at which the reference program takes ``REFERENCE_S``, its median on the
host the baseline was measured on; the unscaled medians are kept in the run
record.

``--trace 1`` runs the same commands in-process with spans and times each
module's public functions on the same input, reporting the per-layer
metrics.  Each layer's self time from the spans and ``trace.overhead_s``
(traced minus untraced pipeline) go to the run record and the printed
lines, not to the result.  End-to-end numbers come only from untraced runs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, whose names and units are those
BENCHMARK.json lists; the lines before it repeat the metrics for people.  A
full record (environment, input sizes, every sample, spans) is written to
``perfbench/out/``.  The exit code is 0 when
every output check passed, 1 when one failed, 2 when the package sources
are missing.  ``--smoke`` runs the same code on tiny inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

IMPORTTIME_REPS = 3  # -X importtime runs per traced run
COMMAND_TIMEOUT = 150.0

# A fixed program that never imports drawelo: interpreter start, numpy and
# click imports and a floating-point loop, the same mix of work as a CLI
# command.
REFERENCE_PROGRAM = (
    "import math, numpy, click, csv, json\n"
    "x = 0.0\n"
    "for i in range(600_000):\n"
    "    x += math.exp(-(i % 100) * 0.01) / (1.0 + i % 7)\n"
)
# The reference program's median time over a first set of ten-seed runs of
# every workload on the 2-vCPU host that baseline.json was measured on, so
# scaled times read as seconds on that host.
REFERENCE_S = 0.47

NOTES = (
    "The baseline table under ROADMAP open item 1 was measured on Python 3.10 "
    "and does not match the 2-vCPU, Python 3.11 host that baseline.json was "
    "measured on: for example the 1,900-game davidson fit took 5.4 s there and "
    "1.2-2.7 s in-process on that host, depending on its load (traced runs record "
    "it as engine.batch_ml_fit_s.davidson). Quote before/after numbers only from "
    "this benchmark on one host."
)


@dataclass
class Sample:
    label: str
    wall_s: float
    exit_code: int
    maxrss_kb: int
    scaled_s: float = 0.0  # wall_s at the host speed where the reference takes REFERENCE_S


def spawn(label: str, args: list[str], env: dict, workdir: Path) -> tuple[Sample, str, str]:
    """Run ``python <args>`` to completion; wall time and peak RSS from wait4."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=workdir)
        timer = threading.Timer(COMMAND_TIMEOUT, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(label, wall, proc.returncode, usage.ru_maxrss)
    return sample, out_path.read_text(), err_path.read_text()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def commit_hash() -> str | None:
    """The checked-out commit; None outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            **versions, "commit": commit_hash()}


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def run_end_to_end(workload, inputs, wants, workdir, seconds, record):
    import workloads as wl

    env = child_env()
    reference = ("reference", ["-c", REFERENCE_PROGRAM], None, None)
    steps = [("setup", ["-c", "import drawelo.cli"], None, None)] + [
        (cmd.label, ["-m", "drawelo", *wl.argv(cmd, inputs, workdir)], cmd, want)
        for cmd, want in zip(workload.commands, wants)
    ]
    samples: list[Sample] = []
    failures: list[str] = []
    last_wall: dict[str, float] = {}

    def run(label, args, cmd, want):
        for name in wl.OUTPUT_FILES:  # a command that writes nothing must not pass on old files
            (workdir / name).unlink(missing_ok=True)
        sample, stdout, stderr = spawn(label, args, env, workdir)
        samples.append(sample)
        last_wall[label] = sample.wall_s
        if sample.exit_code != 0:
            failures.append(f"{label}: exit {sample.exit_code}: {stderr.strip()[-300:]}")
            return
        if cmd is None:
            return
        try:
            errors = wl.check(cmd, json.loads(stdout), want, workdir)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            errors = [f"{label}: unreadable output: {exc!r}"]
        if errors:
            failures.append("; ".join(errors))

    # Each cycle is one fresh ``import drawelo.cli`` (setup_s) and the
    # workload's commands in order, with the reference program before and
    # after every one of them.  After the first cycle a step starts only if
    # it and the reference after it, at their previous durations, still fit
    # before the deadline.
    deadline = time.perf_counter() + seconds
    run(*reference)
    for i in itertools.count():
        step = steps[i % len(steps)]
        if i >= len(steps) and (time.perf_counter() + last_wall[step[0]]
                                + last_wall["reference"] > deadline):
            break
        run(*step)
        run(*reference)

    # On the shared 2-vCPU host the baseline was measured on, everything runs
    # up to twice as slowly for tens of seconds at a time.  Scaling each sample
    # by the mean of the reference runs just before and after it cancels
    # those phases; the reference does not use the package, so no change to
    # it moves the scale.  Samples alternate: reference, step, reference, ...
    for before, sample, after in zip(samples[::2], samples[1::2], samples[2::2]):
        sample.scaled_s = sample.wall_s * REFERENCE_S * 2 / (before.wall_s + after.wall_s)

    def median_of(label, field="scaled_s"):
        return statistics.median(getattr(s, field) for s in samples if s.label == label)

    labels = [c.label for c in workload.commands]
    metrics = {
        "setup_s": median_of("setup"),
        # one pass = the sum of each command's median over the run
        "wall_s": sum(median_of(label) for label in labels),
        "peak_rss_mb": max(median_of(label, "maxrss_kb") for label in labels) / 1024,
    }
    record.update(
        unscaled_setup_s=median_of("setup", "wall_s"),
        unscaled_wall_s=sum(median_of(label, "wall_s") for label in labels),
        reference_median_s=median_of("reference", "wall_s"),
        command_samples=[asdict(s) for s in samples],
    )
    return metrics, len(samples), failures


def run_traced(workload, inputs, wants, workdir, seconds, record):
    import layers
    import workloads as wl

    start = time.perf_counter()
    fit_inputs = (inputs if workload.name == "fit"
                  else wl.write_input(wl.WORKLOADS["fit"], inputs.seed, workdir, record["smoke"]))
    metrics = layers.import_times(child_env(), 1 if record["smoke"] else IMPORTTIME_REPS)
    metrics.update(layers.online_metrics(inputs))
    metrics.update(layers.cli_metrics(workload, inputs, workdir))
    # Only the fit workload's commands fit; the others' inputs would take far
    # longer (sweep) or never converge (the 100-team ladder), so the fit layer
    # is always timed on the fit workload's input from the same seed.
    metrics.update(layers.fit_metrics(fit_inputs.path))

    tracer = layers.Tracer()
    overheads, self_times, failures = [], [], []
    attempted = 0
    deadline = start + seconds
    while tracer.run_id == 0 or time.perf_counter() < deadline:
        timed = {}
        for traced in ((False, True) if tracer.run_id % 2 == 0 else (True, False)):
            with tracer.patched_cli() if traced else contextlib.nullcontext():
                timed[traced], errors = layers.run_pipeline(
                    workload.commands, inputs, workdir, wants, tracer if traced else None)
            attempted += len(errors)
            failures += ["; ".join(e) for e in errors if e]
        overheads.append(timed[True] - timed[False])
        self_times.append(tracer.self_times(tracer.run_id))
        tracer.run_id += 1

    # Span self times and the tracing overhead are recorded, not reported as
    # metrics: a layer a workload never calls reads 0, and the overhead is
    # the difference of two noisy times.
    spans_path = OUT / f"{record['tag']}.spans.jsonl"
    tracer.write(spans_path)
    record.update(
        trace_times={"overhead_s": statistics.median(overheads),
               **{f"self_s.{layer}": statistics.median(t[layer] for t in self_times)
                  for layer in layers.LAYERS}},
        pipeline_rounds=tracer.run_id, overhead_samples_s=overheads,
        fit_input=asdict(fit_inputs) | {"path": fit_inputs.path.name},
        spans_file=spans_path.name)
    return metrics, attempted, failures


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "drawelo" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    # Every run stays on one CPU, and so does every command it starts.  On
    # the 2-vCPU baseline host a short process left free to move between
    # CPUs took about 35% longer, and varied more, than one kept on either.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    record = {"tag": tag, "workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "environment": environment() | {"pinned_cpu": cpu}, "notes": NOTES}
    try:
        t0 = time.perf_counter()
        inputs = wl.write_input(workload, args.seed, workdir, args.smoke)
        wants, source, input_failures = wl.expected(workload, inputs, args.smoke)
        record["prepare_s"] = time.perf_counter() - t0
        record["input"] = asdict(inputs) | {"path": inputs.path.name}
        record["expected_from"] = source
        run = run_traced if args.trace else run_end_to_end
        metrics, attempted, failures = run(
            workload, inputs, wants, workdir, args.seconds, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = input_failures + failures
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    fail_ratio = len(failures) / attempted
    record.update(metrics=metrics, units=units, attempted=attempted, failed=len(failures),
                  fail_ratio=fail_ratio, failures=failures[:20])
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"{workload.name} seed {args.seed}: {inputs.games} games, {inputs.teams} teams, "
          f"{inputs.bytes} bytes of input")
    for failure in failures[:5]:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6f} {units[name]}")
    for name, value in record.get("trace_times", {}).items():
        print(f"{'trace.' + name:48s} {value:14.6f} s (recorded only)")
    print(f"{'fail_ratio':48s} {fail_ratio:14.6f} ({len(failures)}/{attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Per-season comparison table: draw stats plus mean log scores.

For each season file (football-data layout) this prints the empirical draw
frequency, the draw parameter it implies, and the second-half mean log
score with its 95% minimum-length interval for:

  * the bookmaker probabilities (when odds columns are present),
  * kappa-Elo with kappa = 0.7,
  * kappa-Elo with kappa = 1,
  * classic Elo predicting with check-kappa = 1.

Usage:
    python scripts/season_report.py data/epl/2017-2018.csv [more.csv ...]
"""

import argparse
from pathlib import Path

from drawelo.cli import _baseline_report, _evaluate_cells
from drawelo.data import load_matches
from drawelo.engine import EngineConfig, UpdateMode
from drawelo.evaluation import empirical_stats
from drawelo.models import ModelParams

# (mode, kappa, check_kappa) of the three rating columns
CELLS = ((UpdateMode.KAPPA_ELO, 0.7, 1.0), (UpdateMode.KAPPA_ELO, 1.0, 1.0),
         (UpdateMode.ELO_CHECK_KAPPA, 0.7, 1.0))


def season_cells(dataset, *, sigma, k_tilde, eta):
    """The bookmaker's report (None without odds), then one per rating column."""
    configs = [
        EngineConfig(model=ModelParams(sigma=sigma, kappa=kappa, eta=eta), k_tilde=k_tilde,
                     mode=mode, check_kappa=check_kappa)
        for mode, kappa, check_kappa in CELLS
    ]
    reports = _evaluate_cells(dataset, configs, "second-half")
    for report in reports:
        if isinstance(report, Exception):
            raise report
    try:
        bookmaker = _baseline_report(dataset, reports[0].window)
    except ValueError:  # odds missing on a game of the window
        bookmaker = None
    return [bookmaker, *reports]


def fmt(report):
    if report is None:
        return "      (no odds)      "
    return f"{report.mean_ls:.2f} in ({report.interval_low:.2f},{report.interval_high:.2f})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seasons", nargs="+", help="season CSV files")
    parser.add_argument("--sigma", type=float, default=600.0)
    parser.add_argument("--k-step", type=float, default=0.125, dest="k_tilde")
    parser.add_argument("--eta", type=float, default=0.3)
    args = parser.parse_args()

    knobs = dict(sigma=args.sigma, k_tilde=args.k_tilde, eta=args.eta)
    header = (
        f"{'season':<16} {'p_draw':>6} {'kappa_bar':>9} | "
        f"{'bookmaker':^21} | {'kappa=0.7':^21} | {'kappa=1':^21} | {'elo+check':^21}"
    )
    print(header)
    print("-" * len(header))
    for path in args.seasons:
        dataset = load_matches(path)
        stats = empirical_stats(dataset.games)
        cells = season_cells(dataset, **knobs)
        print(
            f"{Path(path).stem:<16} {stats.p_draw_bar:>6.2f} {stats.kappa_bar:>9.2f} | "
            + " | ".join(fmt(c) for c in cells)
        )


if __name__ == "__main__":
    main()

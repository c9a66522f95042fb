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

from drawelo.data import load_matches, odds_to_probs
from drawelo.engine import EngineConfig, UpdateMode, run_season
from drawelo.evaluation import (
    empirical_stats,
    evaluate_scores,
    log_score,
    score_games,
    second_half_window,
)
from drawelo.models import ModelParams


def season_cell(dataset, mode, kappa, *, sigma, k_tilde, eta, check_kappa=1.0):
    config = EngineConfig(
        model=ModelParams(sigma=sigma, kappa=kappa, eta=eta),
        k_tilde=k_tilde,
        mode=mode,
        check_kappa=check_kappa,
    )
    result = run_season(dataset.games, config, players=dataset.team_names)
    report = evaluate_scores(score_games(result.predictions, dataset.games))
    return report


def bookmaker_cell(dataset):
    start, end = second_half_window(dataset.n_games)
    window = dataset.games[start:end]
    if any(g.odds is None for g in window):
        return None
    scores = [log_score(odds_to_probs(*g.odds), g.outcome) for g in window]
    return evaluate_scores(scores, window="full")


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
        cells = [
            bookmaker_cell(dataset),
            season_cell(dataset, UpdateMode.KAPPA_ELO, 0.7, **knobs),
            season_cell(dataset, UpdateMode.KAPPA_ELO, 1.0, **knobs),
            season_cell(dataset, UpdateMode.ELO_CHECK_KAPPA, 0.7, check_kappa=1.0, **knobs),
        ]
        print(
            f"{Path(path).stem:<16} {stats.p_draw_bar:>6.2f} {stats.kappa_bar:>9.2f} | "
            + " | ".join(fmt(c) for c in cells)
        )


if __name__ == "__main__":
    main()

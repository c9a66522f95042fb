#!/usr/bin/env python3
"""Recovery study on synthetic leagues with known true ratings.

Generates seasons from an evenly spaced ground-truth ladder, runs the
online kappa-Elo ratings over each, and reports how well the final ratings
recover the truth (Spearman rank correlation, centered RMSE).  Also runs an
equal-strength league to show the pure noise floor of the online update:
with no signal, the centered RMSE is set by the step size K alone.

Usage:
    python scripts/synthetic_recovery.py --seeds 20
"""

import argparse

from drawelo.engine import EngineConfig, UpdateMode, run_season
from drawelo.models import ModelParams
from drawelo.sim import SimSpec, generate_season, recovery_metrics, true_ratings


def run_once(theta_true, model, config, seed):
    season = generate_season(SimSpec(theta_true=theta_true, model=model, seed=seed))
    result = run_season(season.games, config, players=list(theta_true))
    return recovery_metrics(theta_true, result.state.ratings)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--teams", type=int, default=20)
    parser.add_argument("--spacing", type=float, default=0.1,
                        help="true-rating gap between neighbours, in sigma units")
    parser.add_argument("--sigma", type=float, default=600.0)
    parser.add_argument("--kappa", type=float, default=0.7)
    parser.add_argument("--eta", type=float, default=0.3)
    parser.add_argument("--k-step", type=float, default=0.125, dest="k_tilde")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()

    model = ModelParams(sigma=args.sigma, kappa=args.kappa, eta=args.eta)
    config = EngineConfig(model=model, k_tilde=args.k_tilde, mode=UpdateMode.KAPPA_ELO)
    ladder = true_ratings(args.teams, args.spacing, args.sigma)  # named as simulate names them

    print(f"{'seed':>4} {'rank_corr':>9} {'centered_rmse':>13}")
    correlations, rmses = [], []
    for seed in range(args.seeds):
        metrics = run_once(ladder, model, config, seed)
        correlations.append(metrics["rank_correlation"])
        rmses.append(metrics["centered_rmse"])
        print(f"{seed:>4} {metrics['rank_correlation']:>9.3f} {metrics['centered_rmse']:>13.1f}")
    print(
        f"mean rank correlation {sum(correlations) / len(correlations):.3f}, "
        f"mean centered RMSE {sum(rmses) / len(rmses):.1f}"
    )

    # noise floor: equal-strength league, same step
    flat = {name: 0.0 for name in ladder}
    noise = [run_once(flat, model, config, seed)["centered_rmse"] for seed in range(args.seeds)]
    k_abs = args.k_tilde * args.sigma
    print(
        f"equal-strength noise floor: centered RMSE {sum(noise) / len(noise):.1f} "
        f"(step K = {k_abs:.1f})"
    )


if __name__ == "__main__":
    main()

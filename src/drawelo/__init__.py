"""Rating engine for win/draw/loss competitions.

Probability models with explicit draw handling, online Elo-style updates
with an adjustable draw parameter, batch maximum-likelihood fitting,
logarithmic-score evaluation, football-data CSV ingestion, and a synthetic
league simulator.

Each export loads its module on first use (PEP 562), so ``import
drawelo.data`` loads neither the engine, the evaluation nor the simulator.
"""

import importlib

__version__ = "0.1.0"

# each module and the names it exports
_EXPORTS = {
    "data": "Dataset GameRecord load_matches odds_to_probs parse_matches serialize_matches",
    "engine": "EngineConfig FitResult RatingState SeasonResult batch_ml_fit check_fit_options "
              "nll nll_gradient predict run_season score_of",
    "errors": "ConvergenceError RowError SchemaError ZeroProbabilityError",
    "evaluation": "EmpiricalStats EvalReport baseline_report credibility_interval empirical_stats "
                  "evaluate_configs evaluate_scores implied_draw_freq log_score score_games",
    "models": "ModelFamily ModelParams OutcomeProbs UpdateMode apply_home_advantage predict_probs",
    "sim": "SimSpec generate_schedule generate_season recovery_metrics sample_outcome",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Rating engine for win/draw/loss competitions.

Probability models with explicit draw handling, online Elo-style updates
with an adjustable draw parameter, batch maximum-likelihood fitting,
logarithmic-score evaluation, football-data CSV ingestion, and a synthetic
league simulator.
"""

from .data import Dataset, GameRecord, load_matches, odds_to_probs, parse_matches, serialize_matches
from .engine import (
    EngineConfig,
    FitResult,
    RatingState,
    SeasonResult,
    UpdateMode,
    batch_ml_fit,
    nll,
    nll_gradient,
    predict,
    run_season,
    score_of,
)
from .errors import ConvergenceError, RowError, SchemaError, ZeroProbabilityError
from .evaluation import (
    EmpiricalStats,
    EvalReport,
    baseline_report,
    credibility_interval,
    empirical_stats,
    evaluate_configs,
    evaluate_scores,
    implied_draw_freq,
    log_score,
    score_games,
)
from .models import (
    ModelFamily,
    ModelParams,
    OutcomeProbs,
    apply_home_advantage,
    binary_probs,
    davidson_probs,
    elo_implicit_probs,
    f_kappa,
    logistic_cdf,
    predict_probs,
    threshold_probs,
)
from .sim import SimSpec, generate_schedule, generate_season, recovery_metrics, sample_outcome

__version__ = "0.1.0"

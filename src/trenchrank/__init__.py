"""Pass-rush interaction ratings: regularized Bradley-Terry models for
rusher wins and pressure severity, with smoothed-rate baselines, holdout
validation, game bootstrap uncertainty, and rank-based external checks.
"""

from .baselines import (
    Baseline,
    fit_severity_baseline,
    fit_win_baseline,
    predict_severity_matchups,
    predict_win_matchups,
)
from .bootstrap import (
    BootstrapConfig,
    BootstrapSummary,
    end_to_end_bootstrap,
    weekly_path_bootstrap,
)
from .errors import DataError, FitError, TrenchRankError
from .evaluate import (
    ValidationReport,
    binary_log_loss,
    multiclass_log_loss,
    ordered_split,
    prior_sensitivity,
    run_validation,
)
from .external import enrichment_at_k, rank_auc, run_external_eval
from .fit import (
    CvResult,
    Fit,
    cv_select_lambda,
    fit_severity_model,
    fit_win_model,
)
from .interactions import (
    CLASSES,
    InteractionTable,
    OutcomeClass,
    SeverityWeights,
    default_severity_weights,
    derive_weight_from_epa,
    label_outcome,
    read_interactions_csv,
    write_interactions_csv,
)
from .synth import GroundTruth, SynthConfig, synth_generate
from .tracking import build_interactions

__version__ = "0.1.0"

__all__ = [
    "Baseline",
    "BootstrapConfig",
    "BootstrapSummary",
    "CLASSES",
    "CvResult",
    "DataError",
    "Fit",
    "FitError",
    "GroundTruth",
    "InteractionTable",
    "OutcomeClass",
    "SeverityWeights",
    "SynthConfig",
    "TrenchRankError",
    "ValidationReport",
    "binary_log_loss",
    "build_interactions",
    "cv_select_lambda",
    "default_severity_weights",
    "derive_weight_from_epa",
    "end_to_end_bootstrap",
    "enrichment_at_k",
    "fit_severity_baseline",
    "fit_severity_model",
    "fit_win_baseline",
    "fit_win_model",
    "label_outcome",
    "multiclass_log_loss",
    "ordered_split",
    "predict_severity_matchups",
    "predict_win_matchups",
    "prior_sensitivity",
    "rank_auc",
    "read_interactions_csv",
    "run_external_eval",
    "run_validation",
    "synth_generate",
    "weekly_path_bootstrap",
    "write_interactions_csv",
]

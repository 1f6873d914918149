"""Pass-rush interaction ratings: regularized Bradley-Terry models for
rusher wins and pressure severity, with smoothed-rate baselines, holdout
validation, game bootstrap uncertainty, and rank-based external checks.
"""

from .baselines import (
    SeverityBaseline,
    WinBaseline,
    fit_severity_baseline,
    fit_win_baseline,
    predict_severity_global,
    predict_severity_matchup,
    predict_win_global,
    predict_win_matchup,
)
from .bootstrap import (
    BootstrapConfig,
    BootstrapSummary,
    end_to_end_bootstrap,
    weekly_path_bootstrap,
)
from .design import PlayerIndex, build_index, build_matrix, penalty_mask
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
    BinaryFit,
    CvResult,
    MultinomialFit,
    cv_select_lambda,
    expected_severity,
    fit_binary_ridge,
    fit_multinomial_ridge,
    fit_severity_model,
    fit_win_model,
    predict_class_probs,
    predict_win_prob,
)
from .interactions import (
    CLASSES,
    Interaction,
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
from .tracking import build_interactions, detect_double_team

__version__ = "0.1.0"

__all__ = [
    "BinaryFit",
    "BootstrapConfig",
    "BootstrapSummary",
    "CLASSES",
    "CvResult",
    "DataError",
    "FitError",
    "GroundTruth",
    "Interaction",
    "InteractionTable",
    "MultinomialFit",
    "OutcomeClass",
    "PlayerIndex",
    "SeverityBaseline",
    "SeverityWeights",
    "SynthConfig",
    "TrenchRankError",
    "ValidationReport",
    "WinBaseline",
    "binary_log_loss",
    "build_index",
    "build_interactions",
    "build_matrix",
    "cv_select_lambda",
    "default_severity_weights",
    "derive_weight_from_epa",
    "detect_double_team",
    "end_to_end_bootstrap",
    "enrichment_at_k",
    "expected_severity",
    "fit_binary_ridge",
    "fit_multinomial_ridge",
    "fit_severity_baseline",
    "fit_severity_model",
    "fit_win_baseline",
    "fit_win_model",
    "label_outcome",
    "multiclass_log_loss",
    "ordered_split",
    "penalty_mask",
    "predict_class_probs",
    "predict_severity_global",
    "predict_severity_matchup",
    "predict_win_global",
    "predict_win_matchup",
    "predict_win_prob",
    "prior_sensitivity",
    "rank_auc",
    "read_interactions_csv",
    "run_external_eval",
    "run_validation",
    "synth_generate",
    "weekly_path_bootstrap",
    "write_interactions_csv",
]

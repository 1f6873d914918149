"""Ordered holdout validation: split, log losses, and baseline comparisons.

The holdout is an ordered 80/20 split of the canonically sorted table
(train = floor(0.8 n)).  Both ridge models are fit on the train portion
with penalty weights selected by grouped cross-validation on the train
portion only; the four baselines are fit on the same train portion, and
everything is scored by log loss (nats) on the held-out rows.

``validate_weighted`` is the one implementation: it takes a coded table
and per-row train and test weights.  ``run_validation`` calls it with the
ordered split's 0/1 weights; the bootstrap calls it with the weights a
resample of games puts on each row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .baselines import (
    DEFAULT_SEVERITY_PRIOR,
    DEFAULT_WIN_PRIOR,
    SeverityBaseline,
    WinBaseline,
    fit_severity_baseline,
    fit_severity_baseline_coded,
    fit_win_baseline,
    fit_win_baseline_coded,
    predict_severity_matchups,
    predict_win_matchups,
)
from .errors import DataError
from .fit import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BinaryFit,
    MultinomialFit,
    cv_select_lambda,
    fit_coded,
    fit_severity_model,
    fit_win_model,
    predict_class_prob_matrix,
    predict_win_probs,
)
from .interactions import CLASSES, CodedTable, InteractionTable, OutcomeClass

PROB_CLIP = 1e-15
DEFAULT_SPLIT_RATIO = 0.8
SENSITIVITY_PRIOR_GRID = (10.0, 25.0, 50.0, 100.0)

TASKS = ("win", "severity")
BASELINE_KINDS = ("global", "matchup")


@dataclass(frozen=True)
class SplitResult:
    """Ordered train/test partition of an interaction table."""

    train: InteractionTable
    test: InteractionTable
    ratio: float


@dataclass(frozen=True)
class ValidationRow:
    """One model-vs-baseline holdout comparison (losses in nats)."""

    task: str
    baseline: str
    model_logloss: float
    baseline_logloss: float
    improvement: float


@dataclass(frozen=True)
class SensitivityRow:
    """One matchup-baseline comparison at a specific prior strength."""

    task: str
    m: float
    model_logloss: float
    baseline_logloss: float
    improvement: float


@dataclass(frozen=True)
class ValidationReport:
    """The four validation rows plus the fitted objects behind them."""

    rows: tuple[ValidationRow, ...]
    lambda_win: float
    lambda_sev: float
    n_train: int
    n_test: int
    win_fit: BinaryFit
    severity_fit: MultinomialFit
    win_baseline: WinBaseline
    severity_baseline: SeverityBaseline


def split_point(n: int, ratio: float = DEFAULT_SPLIT_RATIO) -> int:
    """Train size floor(ratio*n) of an ordered split of n rows.

    Warns when the split leaves either side empty.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    n_train = math.floor(ratio * n)
    if n_train == 0 or n_train == n:
        warnings.warn(
            f"degenerate split: {n_train} train / {n - n_train} test rows",
            RuntimeWarning,
            stacklevel=3,
        )
    return n_train


def ordered_split(table: InteractionTable, ratio: float = DEFAULT_SPLIT_RATIO) -> SplitResult:
    """First floor(ratio*n) rows to train, the rest to test, order kept."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    if not table.is_canonically_sorted():
        raise DataError("ordered_split requires a canonically sorted table")
    n_train = split_point(len(table), ratio)
    rows = list(table)
    return SplitResult(
        train=InteractionTable(rows[:n_train]),
        test=InteractionTable(rows[n_train:]),
        ratio=ratio,
    )


def _mean(values: np.ndarray, weights: np.ndarray | None) -> float:
    if weights is None:
        return float(np.mean(values))
    w = np.asarray(weights, dtype=float)
    if w.shape != values.shape:
        raise DataError(f"length mismatch: {values.shape} rows vs {w.shape} weights")
    return float(np.sum(w * values) / np.sum(w))


def binary_log_loss(
    probs: Sequence[float], outcomes: Sequence[bool], weights: Sequence[float] | None = None
) -> float:
    """Mean Bernoulli cross-entropy in nats, probabilities clipped.

    With ``weights`` the mean is weighted: row i counts weights[i] times.
    """
    p = np.asarray(probs, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    if p.shape != y.shape:
        raise DataError(f"length mismatch: {p.shape} probs vs {y.shape} outcomes")
    if p.size == 0:
        raise DataError("binary_log_loss requires at least one row")
    p = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    return -_mean(y * np.log(p) + (1.0 - y) * np.log1p(-p), weights)


def multiclass_log_loss(
    prob_matrix: np.ndarray,
    classes: Sequence[OutcomeClass],
    weights: Sequence[float] | None = None,
) -> float:
    """Mean multiclass cross-entropy in nats over the four outcome classes.

    With ``weights`` the mean is weighted: row i counts weights[i] times.
    """
    P = np.asarray(prob_matrix, dtype=float)
    if P.ndim != 2 or P.shape[1] != len(CLASSES):
        raise DataError(f"expected an (n, {len(CLASSES)}) probability matrix, got {P.shape}")
    if P.shape[0] != len(classes):
        raise DataError(f"length mismatch: {P.shape[0]} rows vs {len(classes)} classes")
    if P.shape[0] == 0:
        raise DataError("multiclass_log_loss requires at least one row")
    sums = P.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-9
    if bad.any():
        raise DataError(
            f"{int(bad.sum())} probability vectors do not sum to 1 "
            f"(max deviation {np.abs(sums - 1.0).max():.2e})"
        )
    idx = np.asarray(classes, dtype=np.intp)
    p_obs = np.clip(P[np.arange(P.shape[0]), idx], PROB_CLIP, 1.0 - PROB_CLIP)
    return -_mean(np.log(p_obs), weights)


def validate_weighted(
    coded: CodedTable,
    train_weights: np.ndarray,
    test_weights: np.ndarray,
    *,
    lambda_win: float,
    lambda_sev: float,
    m_win: float = DEFAULT_WIN_PRIOR,
    m_sev: float = DEFAULT_SEVERITY_PRIOR,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ValidationReport:
    """Fit models and baselines on train weights, score on test weights.

    Row i counts ``train_weights[i]`` times in every fit and
    ``test_weights[i]`` times in every holdout log loss.  Players without
    train weight are left out of the fits: their model effects are zero
    and their baseline rates the global ones.
    """
    train_weights = np.asarray(train_weights, dtype=float)
    test_weights = np.asarray(test_weights, dtype=float)
    if not (train_weights.sum() > 0 and test_weights.sum() > 0):
        raise DataError("validation needs nonempty train and test portions")

    win_fit = fit_coded(coded, train_weights, "win", lambda_win, tol=tol, max_iter=max_iter)
    sev_fit = fit_coded(coded, train_weights, "severity", lambda_sev, tol=tol, max_iter=max_iter)
    win_bl = fit_win_baseline_coded(coded, train_weights, m_win)
    sev_bl = fit_severity_baseline_coded(coded, train_weights, m_sev)

    held = np.flatnonzero(test_weights > 0)
    test, w = coded.take(held), test_weights[held]

    model_win = binary_log_loss(predict_win_probs(win_fit, test), test.win, w)
    model_sev = multiclass_log_loss(predict_class_prob_matrix(sev_fit, test), test.severity, w)
    global_win = binary_log_loss(np.full(len(test), win_bl.p_global), test.win, w)
    matchup_win = binary_log_loss(predict_win_matchups(win_bl, test), test.win, w)
    global_sev = multiclass_log_loss(
        np.tile(np.asarray(sev_bl.pi_global, dtype=float), (len(test), 1)), test.severity, w
    )
    matchup_sev = multiclass_log_loss(predict_severity_matchups(sev_bl, test), test.severity, w)

    rows = (
        ValidationRow("win", "global", model_win, global_win, global_win - model_win),
        ValidationRow("win", "matchup", model_win, matchup_win, matchup_win - model_win),
        ValidationRow("severity", "global", model_sev, global_sev, global_sev - model_sev),
        ValidationRow("severity", "matchup", model_sev, matchup_sev, matchup_sev - model_sev),
    )
    return ValidationReport(
        rows=rows,
        lambda_win=float(lambda_win),
        lambda_sev=float(lambda_sev),
        n_train=int(train_weights.sum()),
        n_test=int(test_weights.sum()),
        win_fit=win_fit,
        severity_fit=sev_fit,
        win_baseline=win_bl,
        severity_baseline=sev_bl,
    )


def run_validation(
    table: InteractionTable,
    *,
    lambda_win: float | None = None,
    lambda_sev: float | None = None,
    m_win: float = DEFAULT_WIN_PRIOR,
    m_sev: float = DEFAULT_SEVERITY_PRIOR,
    ratio: float = DEFAULT_SPLIT_RATIO,
    grid: Sequence[float] | None = None,
    n_folds: int = 5,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ValidationReport:
    """Fit models and baselines on train, score everything on test.

    Pass ``lambda_win`` / ``lambda_sev`` to pin the penalties (as the
    bootstrap does); leave them None to select each by cross-validation
    on the train portion.  Test rows never touch selection or fitting.
    """
    split = ordered_split(table, ratio)
    train, test = split.train, split.test
    if len(train) == 0 or len(test) == 0:
        raise DataError("validation needs nonempty train and test portions")

    if lambda_win is None:
        lambda_win = cv_select_lambda(
            train, "win", grid, n_folds, tol=tol, max_iter=max_iter
        ).lambda_min
    if lambda_sev is None:
        lambda_sev = cv_select_lambda(
            train, "severity", grid, n_folds, tol=tol, max_iter=max_iter
        ).lambda_min

    train_weights = (np.arange(len(table)) < len(train)).astype(float)
    return validate_weighted(
        table.coded,
        train_weights,
        1.0 - train_weights,
        lambda_win=lambda_win,
        lambda_sev=lambda_sev,
        m_win=m_win,
        m_sev=m_sev,
        tol=tol,
        max_iter=max_iter,
    )


def prior_sensitivity(
    table: InteractionTable,
    m_grid: Sequence[float] = SENSITIVITY_PRIOR_GRID,
    *,
    lambda_win: float | None = None,
    lambda_sev: float | None = None,
    ratio: float = DEFAULT_SPLIT_RATIO,
    grid: Sequence[float] | None = None,
    n_folds: int = 5,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SensitivityRow]:
    """Matchup-baseline improvements across a prior-strength grid.

    The models do not depend on m, so each task's model loss is fitted
    once and repeated across the grid.
    """
    if len(m_grid) == 0:
        raise ValueError("prior-strength grid must be nonempty")
    split = ordered_split(table, ratio)
    train, test = split.train, split.test
    if len(train) == 0 or len(test) == 0:
        raise DataError("sensitivity sweep needs nonempty train and test portions")

    if lambda_win is None:
        lambda_win = cv_select_lambda(
            train, "win", grid, n_folds, tol=tol, max_iter=max_iter
        ).lambda_min
    if lambda_sev is None:
        lambda_sev = cv_select_lambda(
            train, "severity", grid, n_folds, tol=tol, max_iter=max_iter
        ).lambda_min

    win_fit = fit_win_model(train, lambda_win, tol=tol, max_iter=max_iter)
    sev_fit = fit_severity_model(train, lambda_sev, tol=tol, max_iter=max_iter)
    held = test.coded
    model_win = binary_log_loss(predict_win_probs(win_fit, held), held.win)
    model_sev = multiclass_log_loss(predict_class_prob_matrix(sev_fit, held), held.severity)

    out: list[SensitivityRow] = []
    for m in m_grid:
        bl = fit_win_baseline(train, m)
        loss = binary_log_loss(predict_win_matchups(bl, held), held.win)
        out.append(SensitivityRow("win", float(m), model_win, loss, loss - model_win))
    for m in m_grid:
        bl = fit_severity_baseline(train, m)
        loss = multiclass_log_loss(predict_severity_matchups(bl, held), held.severity)
        out.append(SensitivityRow("severity", float(m), model_sev, loss, loss - model_sev))
    return out

"""Ordered holdout validation: split, log losses, and baseline comparisons.

The holdout is an ordered 80/20 split of the canonically sorted table
(train = floor(0.8 n)).  Both ridge models are fit on the train portion
with penalty weights selected by grouped cross-validation on the train
portion only; the four baselines are fit on the same train portion, and
everything is scored by log loss (nats) on the held-out rows.

``validate_weighted`` is the one implementation: it takes a table and
per-row train and test weights.  ``run_validation`` calls it with the
ordered split's 0/1 weights; the bootstrap calls it with the weights a
resample of games puts on each row.  The prior-strength sweep is built on
it too: ``prior_sensitivity`` keeps ``run_validation``'s model losses and
refits the matchup baselines over an m grid on the same 0/1 weights.
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
    Baseline,
    check_prior_strength,
    fit_severity_baseline,
    fit_win_baseline,
    predict_severity_matchups,
    predict_win_matchups,
)
from .errors import DataError
from .fit import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Fit,
    check_penalty,
    check_solver_options,
    cv_select_lambda,
    fit_coded,
    predict_class_prob_matrix,
    predict_win_probs,
)
from .interactions import CLASSES, InteractionTable, OutcomeClass

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
    win_fit: Fit
    severity_fit: Fit
    win_baseline: Baseline
    severity_baseline: Baseline


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
    if not table.is_canonically_sorted():
        raise DataError("ordered_split requires a canonically sorted table")
    n_train = split_point(len(table), ratio)
    return SplitResult(
        train=table.take(slice(None, n_train)),
        test=table.take(slice(n_train, None)),
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


def _ordered_weights(n_rows: int, n_train: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 train and test weights of an ordered split: the first n_train rows train."""
    train_weights = (np.arange(n_rows) < n_train).astype(float)
    return train_weights, 1.0 - train_weights


def _matchup_baseline(task, table, train_weights, test, w, m):
    """The task's matchup baseline on train weights and its loss on ``test`` weighted by ``w``."""
    if task == "win":
        bl = fit_win_baseline(table, m, train_weights)
        return bl, binary_log_loss(predict_win_matchups(bl, test), test.win, w)
    bl = fit_severity_baseline(table, m, train_weights)
    return bl, multiclass_log_loss(predict_severity_matchups(bl, test), test.severity, w)


def validate_weighted(
    table: InteractionTable,
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

    win_fit = fit_coded(table, train_weights, "win", lambda_win, tol=tol, max_iter=max_iter)
    sev_fit = fit_coded(table, train_weights, "severity", lambda_sev, tol=tol, max_iter=max_iter)
    held = np.flatnonzero(test_weights > 0)
    test, w = table.take(held), test_weights[held]
    win_bl, matchup_win = _matchup_baseline("win", table, train_weights, test, w, m_win)
    sev_bl, matchup_sev = _matchup_baseline("severity", table, train_weights, test, w, m_sev)

    model_win = binary_log_loss(predict_win_probs(win_fit, test), test.win, w)
    model_sev = multiclass_log_loss(predict_class_prob_matrix(sev_fit, test), test.severity, w)
    global_win = binary_log_loss(np.full(len(test), win_bl.global_value[0]), test.win, w)
    global_sev = multiclass_log_loss(
        np.tile(sev_bl.global_value, (len(test), 1)), test.severity, w
    )

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
    Pinned penalties and the solver options are checked before any CV.
    """
    for m in (m_win, m_sev):
        check_prior_strength(m)
    for lam in (lambda_win, lambda_sev):
        if lam is not None:
            check_penalty(lam)
    check_solver_options(tol, max_iter)
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

    return validate_weighted(
        table,
        *_ordered_weights(len(table), len(train)),
        lambda_win=lambda_win,
        lambda_sev=lambda_sev,
        m_win=m_win,
        m_sev=m_sev,
        tol=tol,
        max_iter=max_iter,
    )


def prior_grid(m_grid: Sequence[float]) -> list[float]:
    """A sweep's prior strengths as floats: nonempty, each finite and >= 0."""
    grid = [float(m) for m in m_grid]
    if not grid:
        raise ValueError("prior-strength grid must be nonempty")
    for m in grid:
        check_prior_strength(m)
    return grid


def prior_sweep(table: InteractionTable, report: ValidationReport,
                m_grid: Sequence[float]) -> list[SensitivityRow]:
    """``run_validation``'s ``report`` on ``table`` with its matchup baselines
    refit at each m of a checked ``prior_grid``, on the same ordered split."""
    train_weights, test_weights = _ordered_weights(len(table), report.n_train)
    test = table.take(test_weights > 0)
    model = {row.task: row.model_logloss for row in report.rows}
    out: list[SensitivityRow] = []
    for task in TASKS:
        for m in m_grid:
            _, loss = _matchup_baseline(task, table, train_weights, test, None, m)
            out.append(SensitivityRow(task, m, model[task], loss, loss - model[task]))
    return out


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

    Built on ``validate_weighted``: the models do not depend on m, so this
    is ``run_validation``'s holdout (its split, CV and two fits) swept by
    ``prior_sweep``.  The whole grid is checked before any CV or fit.
    """
    m_grid = prior_grid(m_grid)
    report = run_validation(
        table, lambda_win=lambda_win, lambda_sev=lambda_sev, ratio=ratio,
        grid=grid, n_folds=n_folds, tol=tol, max_iter=max_iter,
    )
    return prior_sweep(table, report, m_grid)

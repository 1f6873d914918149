"""Ridge-penalized Bradley-Terry fitting.

Two models over the same design rows: a binary win/loss logistic model
and a multinomial outcome-severity model with ``loss`` as the reference
class.  Both minimize

    sum-scale negative log-likelihood  +  lam * ||theta_penalized||^2

where player effects and the double-team coefficient are penalized and
intercepts are not.  The penalty uses the raw sum-of-squares (no 1/2
factor) and the likelihood is the sum over rows, so ``lam`` is
interpreted in those units.

Every objective, solver and fit takes optional row ``weights``
(nonnegative, default all ones): row i then contributes ``weights[i]``
times its log-likelihood term.  An integer weight k fits exactly like k
copies of the row and a zero weight like its removal, which is how the
bootstrap refits a resample of games without building it
(``fit_coded``).

Both models are solved by the same deterministic damped Newton
iteration (dense Cholesky of the penalized Hessian, Armijo
backtracking).  Convergence means gradient sup-norm <= ``tol`` (default
1e-8).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.special import expit

from .design import (
    PlayerIndex,
    SparseRow,
    aggregate_cells,
    build_index,
    build_matrix,
    csr_from_codes,
    index_from_ids,
    penalty_mask,
    rows_to_csr,
)
from .errors import DataError, FitError
from .interactions import (
    CLASSES,
    CodedTable,
    Interaction,
    InteractionTable,
    OutcomeClass,
    SeverityWeights,
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-6.0, 2.0, 25))

_ARMIJO_C = 1e-4


@dataclass(frozen=True)
class BinaryFit:
    """Fitted binary win/loss model with effects keyed by player id."""

    alpha: float
    delta: float
    rusher_effects: dict[str, float]
    blocker_effects: dict[str, float]
    lam: float
    neg_loglik: float
    grad_norm: float
    iterations: int


@dataclass(frozen=True)
class MultinomialFit:
    """Fitted severity model, parameterized relative to the loss class.

    ``classes`` are the modeled non-reference classes in severity order;
    reference-class parameters are identically zero and not stored.
    ``dropped`` lists classes never observed in training, which are
    excluded from the softmax entirely.
    """

    classes: tuple[OutcomeClass, ...]
    dropped: tuple[OutcomeClass, ...]
    alpha: dict[OutcomeClass, float]
    delta: dict[OutcomeClass, float]
    rusher_effects: dict[OutcomeClass, dict[str, float]]
    blocker_effects: dict[OutcomeClass, dict[str, float]]
    lam: float
    neg_loglik: float
    grad_norm: float
    iterations: int


@dataclass(frozen=True)
class CvResult:
    """Cross-validation trace: lambda grid, mean held-fold losses, argmin."""

    lambdas: tuple[float, ...]
    mean_losses: tuple[float, ...]
    lambda_min: float


# ---------------------------------------------------------------------------
# Objectives


def binary_objective_grad(
    theta: np.ndarray,
    X: sp.csr_matrix,
    y: np.ndarray,
    lam: float,
    pen_mask: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Penalized binary negative log-likelihood and its gradient."""
    w = np.ones(X.shape[0]) if weights is None else weights
    eta = X @ theta
    nll = float(np.sum(w * np.logaddexp(0.0, eta)) - (w * y) @ eta)
    p = expit(eta)
    grad = X.T @ (w * (p - y)) + 2.0 * lam * (pen_mask * theta)
    obj = nll + lam * float(pen_mask @ (theta * theta))
    return obj, grad


def multinomial_objective_grad(
    theta_flat: np.ndarray,
    X: sp.csr_matrix,
    class_idx: np.ndarray,
    n_model_classes: int,
    lam: float,
    pen_mask: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Penalized multinomial negative log-likelihood and gradient.

    ``class_idx`` holds 0 for the reference class and 1..K for the
    modeled classes; parameters are the K rows of ``theta`` (flattened).
    """
    n, d = X.shape
    w = np.ones(n) if weights is None else weights
    k = n_model_classes - 1
    theta = theta_flat.reshape(k, d)
    eta = np.empty((n, n_model_classes))
    eta[:, 0] = 0.0
    eta[:, 1:] = X @ theta.T
    shift = eta.max(axis=1)
    exp_eta = np.exp(eta - shift[:, None])
    denom = exp_eta.sum(axis=1)
    logp_obs = eta[np.arange(n), class_idx] - shift - np.log(denom)
    nll = -float((w * logp_obs).sum())
    probs = exp_eta / denom[:, None]
    resid = probs[:, 1:] - np.equal.outer(class_idx, np.arange(1, n_model_classes))
    resid *= w[:, None]
    grad = np.asarray((X.T @ resid).T) + 2.0 * lam * (pen_mask[None, :] * theta)
    obj = nll + lam * float(np.sum(pen_mask[None, :] * theta * theta))
    return obj, grad.ravel()


# ---------------------------------------------------------------------------
# Solvers


def _take_step(value_grad_fn, theta, obj, grad, direction):
    """Armijo backtracking step with a gradient-norm endgame rule.

    Near the optimum the per-step objective decrease falls below the
    floating-point resolution of the objective, so the Armijo test
    cannot certify the (correct) full Newton step and backtracking
    would destroy quadratic convergence.  When the full step changes
    the objective by no more than numerical noise but shrinks the
    gradient sup-norm, it is accepted outright.
    """
    slope = float(grad @ direction)
    if slope >= 0.0:
        direction = -grad
        slope = float(grad @ direction)
        if slope >= 0.0:
            return theta, obj, grad, False
    grad_sup = float(np.abs(grad).max())
    noise = 1e-8 * max(1.0, abs(obj))
    t = 1.0
    for _ in range(60):
        cand = theta + t * direction
        cand_obj, cand_grad = value_grad_fn(cand)
        if cand_obj <= obj + _ARMIJO_C * t * slope:
            return cand, cand_obj, cand_grad, True
        if t == 1.0 and cand_obj <= obj + noise and np.abs(cand_grad).max() < grad_sup:
            return cand, cand_obj, cand_grad, True
        t *= 0.5
    return theta, obj, grad, False


def _solve_binary(X, y, lam, pen_mask, theta0, tol, max_iter, weights=None):
    theta = np.zeros(X.shape[1]) if theta0 is None else np.asarray(theta0, float).copy()
    row_w = np.ones(X.shape[0]) if weights is None else weights

    def value_grad(th):
        return binary_objective_grad(th, X, y, lam, pen_mask, row_w)

    obj, grad = value_grad(theta)
    iterations = 0
    while np.abs(grad).max() > tol and iterations < max_iter:
        iterations += 1
        p = expit(X @ theta)
        w = p * (1.0 - p) * row_w
        H = (X.multiply(w[:, None]).T @ X).toarray()
        H[np.diag_indices_from(H)] += 2.0 * lam * pen_mask
        try:
            factor = scipy.linalg.cho_factor(H, check_finite=False)
            direction = scipy.linalg.cho_solve(factor, -grad, check_finite=False)
        except scipy.linalg.LinAlgError:
            direction = np.linalg.lstsq(H, -grad, rcond=None)[0]
        theta, obj, grad, moved = _take_step(value_grad, theta, obj, grad, direction)
        if not moved:
            break
    grad_sup = float(np.abs(grad).max())
    return theta, grad_sup, iterations


def _multinomial_hessian(X, theta, n_model_classes, lam, pen_mask, weights):
    n, d = X.shape
    k = n_model_classes - 1
    eta = np.empty((n, n_model_classes))
    eta[:, 0] = 0.0
    eta[:, 1:] = X @ theta.T
    shift = eta.max(axis=1)
    exp_eta = np.exp(eta - shift[:, None])
    probs = exp_eta / exp_eta.sum(axis=1)[:, None]
    H = np.empty((k * d, k * d))
    for a in range(k):
        pa = probs[:, a + 1]
        for b in range(a, k):
            w = pa * ((1.0 if a == b else 0.0) - probs[:, b + 1]) * weights
            block = (X.multiply(w[:, None]).T @ X).toarray()
            H[a * d : (a + 1) * d, b * d : (b + 1) * d] = block
            if b != a:
                H[b * d : (b + 1) * d, a * d : (a + 1) * d] = block.T
    diag = np.tile(2.0 * lam * pen_mask, k)
    H[np.diag_indices_from(H)] += diag
    return H


def _solve_multinomial(
    X, class_idx, n_model_classes, lam, pen_mask, theta0, tol, max_iter, weights=None
):
    n, d = X.shape
    k = n_model_classes - 1
    theta_flat = np.zeros(k * d) if theta0 is None else np.asarray(theta0, float).ravel().copy()
    row_w = np.ones(n) if weights is None else weights

    def value_grad(th):
        return multinomial_objective_grad(
            th, X, class_idx, n_model_classes, lam, pen_mask, row_w
        )

    obj, grad = value_grad(theta_flat)
    iterations = 0
    while np.abs(grad).max() > tol and iterations < max_iter:
        iterations += 1
        H = _multinomial_hessian(
            X, theta_flat.reshape(k, d), n_model_classes, lam, pen_mask, row_w
        )
        try:
            factor = scipy.linalg.cho_factor(H, check_finite=False)
            direction = scipy.linalg.cho_solve(factor, -grad, check_finite=False)
        except scipy.linalg.LinAlgError:
            direction = np.linalg.lstsq(H, -grad, rcond=None)[0]
        theta_flat, obj, grad, moved = _take_step(value_grad, theta_flat, obj, grad, direction)
        if not moved:
            break

    grad_sup = float(np.abs(grad).max())
    return theta_flat.reshape(k, d), grad_sup, iterations


def _as_matrix(rows, n_columns) -> sp.csr_matrix:
    if sp.issparse(rows):
        return rows.tocsr()
    return rows_to_csr(rows, n_columns)


def _row_weights(weights, n_rows: int) -> np.ndarray:
    if weights is None:
        return np.ones(n_rows)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_rows,):
        raise DataError(f"row/weight length mismatch: {n_rows} vs {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DataError("row weights must be finite and nonnegative")
    if not w.sum() > 0:
        raise DataError("row weights must not all be zero")
    return w


def _effect_dicts(theta: np.ndarray, idx: PlayerIndex) -> tuple[dict[str, float], dict[str, float]]:
    rushers = {pid: float(theta[col]) for pid, col in idx.rusher_cols.items()}
    blockers = {pid: float(theta[col]) for pid, col in idx.blocker_cols.items()}
    return rushers, blockers


def fit_binary_ridge(
    rows: Sequence[SparseRow] | sp.spmatrix,
    y: Sequence[bool],
    lam: float,
    index: PlayerIndex,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    theta0: np.ndarray | None = None,
    weights: Sequence[float] | np.ndarray | None = None,
) -> BinaryFit:
    """Fit the binary win/loss model at a fixed penalty weight.

    ``weights`` multiplies each row's likelihood term (default 1).
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    X = _as_matrix(rows, index.n_columns)
    if X.shape[0] == 0:
        raise DataError("fit_binary_ridge requires at least one row")
    yv = np.asarray(y, dtype=float)
    if yv.shape[0] != X.shape[0]:
        raise DataError(f"row/target length mismatch: {X.shape[0]} vs {yv.shape[0]}")
    w = _row_weights(weights, X.shape[0])
    mask = penalty_mask(index)

    theta, grad_sup, iterations = _solve_binary(X, yv, lam, mask, theta0, tol, max_iter, w)
    converged = grad_sup <= tol
    eta = X @ theta
    # a separated cell only reaches the gradient tolerance once its linear
    # predictor is around ln(n / tol), far beyond any finite-MLE value
    if lam == 0 and (not converged or np.abs(eta).max() > 15.0):
        warnings.warn(
            "possible separation: unpenalized fit produced extreme linear predictors",
            RuntimeWarning,
            stacklevel=2,
        )
    if not converged:
        raise FitError(
            f"binary fit did not converge: gradient sup-norm {grad_sup:.3e} "
            f"after {iterations} iterations (tol {tol:.1e})"
        )
    nll = float(np.sum(w * np.logaddexp(0.0, eta)) - (w * yv) @ eta)
    rushers, blockers = _effect_dicts(theta, index)
    return BinaryFit(
        alpha=float(theta[0]),
        delta=float(theta[1]),
        rusher_effects=rushers,
        blocker_effects=blockers,
        lam=lam,
        neg_loglik=nll,
        grad_norm=grad_sup,
        iterations=iterations,
    )


def _modeled_classes(observed: Iterable[OutcomeClass]) -> tuple[list[OutcomeClass], list[OutcomeClass]]:
    present = set(observed)
    modeled = [c for c in CLASSES if c is not OutcomeClass.LOSS and c in present]
    dropped = [c for c in CLASSES if c is not OutcomeClass.LOSS and c not in present]
    return modeled, dropped


def _class_positions(modeled: Sequence[OutcomeClass]) -> np.ndarray:
    """Lookup from outcome class to softmax position (0 = loss or dropped)."""
    position = np.zeros(len(CLASSES), dtype=np.intp)
    for i, c in enumerate(modeled):
        position[int(c)] = i + 1
    return position


def fit_multinomial_ridge(
    rows: Sequence[SparseRow] | sp.spmatrix,
    classes: Sequence[OutcomeClass],
    lam: float,
    index: PlayerIndex,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    theta0: np.ndarray | None = None,
    weights: Sequence[float] | np.ndarray | None = None,
) -> MultinomialFit:
    """Fit the severity model with loss as the reference class.

    Classes never observed in training (no row of positive weight) are
    dropped from the softmax and reported on the result rather than
    being given fabricated parameters; the loss reference is always
    retained.  ``weights`` multiplies each row's likelihood term
    (default 1).
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    X = _as_matrix(rows, index.n_columns)
    if X.shape[0] == 0:
        raise DataError("fit_multinomial_ridge requires at least one row")
    if len(classes) != X.shape[0]:
        raise DataError(f"row/target length mismatch: {X.shape[0]} vs {len(classes)}")
    w = _row_weights(weights, X.shape[0])
    cls = np.asarray(classes, dtype=np.intp)

    modeled, dropped = _modeled_classes(OutcomeClass(c) for c in np.unique(cls[w > 0]))
    if dropped:
        warnings.warn(
            "classes never observed in training were dropped from the softmax: "
            + ", ".join(c.label for c in dropped),
            RuntimeWarning,
            stacklevel=2,
        )
    if not modeled:
        raise DataError("severity fit needs at least one non-loss class in training")

    class_idx = _class_positions(modeled)[cls]
    n_model = len(modeled) + 1
    mask = penalty_mask(index)

    theta, grad_sup, iterations = _solve_multinomial(
        X, class_idx, n_model, lam, mask, theta0, tol, max_iter, w
    )
    if grad_sup > tol:
        raise FitError(
            f"multinomial fit did not converge: gradient sup-norm {grad_sup:.3e} "
            f"after {iterations} iterations (tol {tol:.1e})"
        )
    obj, _ = multinomial_objective_grad(theta.ravel(), X, class_idx, n_model, lam, mask, w)
    nll = obj - lam * float(np.sum(mask[None, :] * theta * theta))

    alpha: dict[OutcomeClass, float] = {}
    delta: dict[OutcomeClass, float] = {}
    rusher_effects: dict[OutcomeClass, dict[str, float]] = {}
    blocker_effects: dict[OutcomeClass, dict[str, float]] = {}
    for i, c in enumerate(modeled):
        alpha[c] = float(theta[i, 0])
        delta[c] = float(theta[i, 1])
        rushers, blockers = _effect_dicts(theta[i], index)
        rusher_effects[c] = rushers
        blocker_effects[c] = blockers
    return MultinomialFit(
        classes=tuple(modeled),
        dropped=tuple(dropped),
        alpha=alpha,
        delta=delta,
        rusher_effects=rusher_effects,
        blocker_effects=blocker_effects,
        lam=lam,
        neg_loglik=float(nll),
        grad_norm=grad_sup,
        iterations=iterations,
    )


def fit_win_model(
    table: InteractionTable, lam: float, **kwargs
) -> BinaryFit:
    """Convenience wrapper: index + design + binary fit from a table."""
    idx = build_index(table)
    X = build_matrix(table, idx)
    y = [r.win_target for r in table]
    return fit_binary_ridge(X, y, lam, idx, **kwargs)


def fit_severity_model(
    table: InteractionTable, lam: float, **kwargs
) -> MultinomialFit:
    """Convenience wrapper: index + design + multinomial fit from a table."""
    idx = build_index(table)
    X = build_matrix(table, idx)
    classes = [r.severity for r in table]
    return fit_multinomial_ridge(X, classes, lam, idx, **kwargs)


def fit_coded(
    coded: CodedTable, weights: np.ndarray, model: str, lam: float, **kwargs
) -> BinaryFit | MultinomialFit:
    """Fit ``model`` ("win" or "severity") with row i counted weights[i] times.

    Rows are first merged into (rusher, blocker, double_team, outcome)
    cells, so the solver sees one design row per distinct cell.  Players
    whose rows all have zero weight are left out of the index, so they
    get no effect (rather than the prior mean) in the result.
    """
    if model not in ("win", "severity"):
        raise ValueError(f"model must be 'win' or 'severity', got {model!r}")
    outcome = coded.win.astype(np.intp) if model == "win" else coded.severity
    rows, cell_w = aggregate_cells(
        np.asarray(weights, dtype=float), coded.rusher, coded.blocker,
        coded.double_team.astype(np.intp), outcome,
    )
    if rows.size == 0:
        raise DataError(f"{model} fit requires at least one row of positive weight")
    rushers, rusher_col = np.unique(coded.rusher[rows], return_inverse=True)
    blockers, blocker_col = np.unique(coded.blocker[rows], return_inverse=True)
    idx = index_from_ids(
        [coded.rushers[i] for i in rushers], [coded.blockers[i] for i in blockers]
    )
    X = csr_from_codes(
        2 + rusher_col, 2 + rushers.size + blocker_col, coded.double_team[rows], idx.n_columns
    )
    if model == "win":
        return fit_binary_ridge(X, coded.win[rows], lam, idx, weights=cell_w, **kwargs)
    return fit_multinomial_ridge(X, coded.severity[rows], lam, idx, weights=cell_w, **kwargs)


# ---------------------------------------------------------------------------
# Prediction


def predict_win_prob(fit: BinaryFit, x: Interaction) -> float:
    """Win probability for one interaction; unseen players get effect 0."""
    eta = (
        fit.alpha
        + fit.rusher_effects.get(x.rusher_id, 0.0)
        - fit.blocker_effects.get(x.blocker_id, 0.0)
        + fit.delta * float(x.double_team)
    )
    return float(expit(eta))


def _coded(table: InteractionTable | CodedTable) -> CodedTable:
    return table.coded if isinstance(table, InteractionTable) else table


def _effects_by_code(effects: Mapping[str, float], vocab: Sequence[str]) -> np.ndarray:
    return np.array([effects.get(pid, 0.0) for pid in vocab])


def predict_win_probs(fit: BinaryFit, table: InteractionTable | CodedTable) -> np.ndarray:
    """``predict_win_prob`` for every row of a table or coded table."""
    c = _coded(table)
    eta = (
        fit.alpha
        + _effects_by_code(fit.rusher_effects, c.rushers)[c.rusher]
        - _effects_by_code(fit.blocker_effects, c.blockers)[c.blocker]
        + fit.delta * c.double_team.astype(float)
    )
    return expit(eta)


def predict_class_probs(fit: MultinomialFit, x: Interaction) -> dict[OutcomeClass, float]:
    """Class probabilities for one interaction (dropped classes get 0)."""
    etas = [0.0]
    for c in fit.classes:
        etas.append(
            fit.alpha[c]
            + fit.rusher_effects[c].get(x.rusher_id, 0.0)
            - fit.blocker_effects[c].get(x.blocker_id, 0.0)
            + fit.delta[c] * float(x.double_team)
        )
    arr = np.asarray(etas)
    arr -= arr.max()
    weights = np.exp(arr)
    probs = weights / weights.sum()
    out = {c: 0.0 for c in CLASSES}
    out[OutcomeClass.LOSS] = float(probs[0])
    for i, c in enumerate(fit.classes):
        out[c] = float(probs[i + 1])
    return out


def predict_class_prob_matrix(
    fit: MultinomialFit, table: InteractionTable | CodedTable
) -> np.ndarray:
    """(n, 4) probability matrix with columns in severity order.

    Row i equals ``predict_class_probs`` for row i of the table.
    """
    c = _coded(table)
    dt = c.double_team.astype(float)
    eta = np.zeros((len(c), len(fit.classes) + 1))
    for k, cls in enumerate(fit.classes, start=1):
        eta[:, k] = (
            fit.alpha[cls]
            + _effects_by_code(fit.rusher_effects[cls], c.rushers)[c.rusher]
            - _effects_by_code(fit.blocker_effects[cls], c.blockers)[c.blocker]
            + fit.delta[cls] * dt
        )
    eta -= eta.max(axis=1, keepdims=True)
    weights = np.exp(eta)
    probs = weights / weights.sum(axis=1, keepdims=True)
    out = np.zeros((len(c), len(CLASSES)))
    out[:, int(OutcomeClass.LOSS)] = probs[:, 0]
    for k, cls in enumerate(fit.classes, start=1):
        out[:, int(cls)] = probs[:, k]
    return out


def expected_severity(
    probs: Mapping[OutcomeClass, float] | Sequence[float],
    weights: SeverityWeights,
) -> float:
    """Probability-weighted severity score on [0, 1]."""
    if isinstance(probs, Mapping):
        return float(sum(p * weights.weight(c) for c, p in probs.items()))
    w = weights.as_tuple()
    return float(sum(p * w[i] for i, p in enumerate(probs)))


# ---------------------------------------------------------------------------
# Cross-validation


def select_lambda_min(lambdas: Sequence[float], mean_losses: Sequence[float]) -> float:
    """Argmin over the grid with ties broken toward the larger lambda."""
    order = sorted(range(len(lambdas)), key=lambda i: -lambdas[i])
    best = order[0]
    for i in order[1:]:
        if mean_losses[i] < mean_losses[best]:
            best = i
    return float(lambdas[best])


def cv_fold_labels(table: InteractionTable, n_folds: int) -> np.ndarray:
    """Fold label per row: games in canonical order, contiguous blocks.

    Grouping by game keeps plays from one game inside a single fold.
    """
    games = table.games
    if len(games) < n_folds:
        raise DataError(f"need at least {n_folds} games for {n_folds} folds, have {len(games)}")
    game_fold: dict[str, int] = {}
    splits = np.array_split(np.arange(len(games)), n_folds)
    for fold, block in enumerate(splits):
        for gi in block:
            game_fold[games[gi]] = fold
    return np.array([game_fold[r.game_id] for r in table], dtype=np.intp)


def cv_select_lambda(
    table: InteractionTable,
    target: str,
    grid: Sequence[float] | None = None,
    n_folds: int = 5,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CvResult:
    """Grouped cross-validation over a lambda grid.

    Fits on each fold's complement (warm-started from large to small
    lambda) and scores held-fold log loss; returns the argmin with ties
    broken toward stronger shrinkage.
    """
    from .evaluate import binary_log_loss, multiclass_log_loss

    if target not in ("win", "severity"):
        raise ValueError(f"target must be 'win' or 'severity', got {target!r}")
    lambdas = np.asarray(DEFAULT_LAMBDA_GRID if grid is None else list(grid), dtype=float)
    if lambdas.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")

    labels = cv_fold_labels(table, n_folds)
    desc = np.sort(lambdas)[::-1]
    fold_losses = np.zeros((n_folds, desc.size))

    for fold in range(n_folds):
        train_rows = [r for r, f in zip(table, labels) if f != fold]
        held_rows = [r for r, f in zip(table, labels) if f == fold]
        if not train_rows or not held_rows:
            raise DataError(f"fold {fold} is empty")
        train_tbl = InteractionTable(train_rows)
        held_tbl = InteractionTable(held_rows)
        idx = build_index(train_tbl)
        X = build_matrix(train_tbl, idx)
        Xh = build_matrix(held_tbl, idx)
        mask = penalty_mask(idx)

        if target == "win":
            y = np.array([r.win_target for r in train_rows], dtype=float)
            yh = np.array([r.win_target for r in held_rows], dtype=float)
            theta = None
            for j, lam in enumerate(desc):
                theta, grad_sup, _ = _solve_binary(X, y, lam, mask, theta, tol, max_iter)
                if grad_sup > tol:
                    raise FitError(f"cv fold {fold} failed to converge at lam={lam:g}")
                fold_losses[fold, j] = binary_log_loss(expit(Xh @ theta), yh)
        else:
            classes = [r.severity for r in train_rows]
            modeled, _ = _modeled_classes(classes)
            if not modeled:
                raise DataError(f"fold {fold}: training split has no non-loss class")
            position = {c: i + 1 for i, c in enumerate(modeled)}
            class_idx = np.array([position.get(c, 0) for c in classes], dtype=np.intp)
            n_model = len(modeled) + 1
            held_classes = [r.severity for r in held_rows]
            theta = None
            for j, lam in enumerate(desc):
                theta, grad_sup, _ = _solve_multinomial(
                    X, class_idx, n_model, lam, mask, theta, tol, max_iter
                )
                if grad_sup > tol:
                    raise FitError(f"cv fold {fold} failed to converge at lam={lam:g}")
                eta = np.empty((len(held_rows), n_model))
                eta[:, 0] = 0.0
                eta[:, 1:] = Xh @ theta.T
                shift = eta.max(axis=1)
                exp_eta = np.exp(eta - shift[:, None])
                probs_model = exp_eta / exp_eta.sum(axis=1)[:, None]
                probs = np.zeros((len(held_rows), len(CLASSES)))
                probs[:, int(OutcomeClass.LOSS)] = probs_model[:, 0]
                for i, c in enumerate(modeled):
                    probs[:, int(c)] = probs_model[:, i + 1]
                fold_losses[fold, j] = multiclass_log_loss(probs, held_classes)

    mean_desc = fold_losses.mean(axis=0)
    lambda_min = select_lambda_min(desc, mean_desc)
    asc = np.argsort(desc)
    return CvResult(
        lambdas=tuple(float(v) for v in desc[asc]),
        mean_losses=tuple(float(v) for v in mean_desc[asc]),
        lambda_min=lambda_min,
    )


# ---------------------------------------------------------------------------
# JSON export


def fit_to_json_dict(fit: BinaryFit | MultinomialFit) -> dict:
    """Serializable form of a fit, keyed by player id and class label."""
    if isinstance(fit, BinaryFit):
        return {
            "model": "win",
            "lambda": fit.lam,
            "alpha": fit.alpha,
            "delta": fit.delta,
            "rusher_effects": fit.rusher_effects,
            "blocker_effects": fit.blocker_effects,
            "neg_loglik": fit.neg_loglik,
            "grad_norm": fit.grad_norm,
            "iterations": fit.iterations,
        }
    return {
        "model": "severity",
        "lambda": fit.lam,
        "classes": [c.label for c in fit.classes],
        "dropped": [c.label for c in fit.dropped],
        "alpha": {c.label: v for c, v in fit.alpha.items()},
        "delta": {c.label: v for c, v in fit.delta.items()},
        "rusher_effects": {c.label: d for c, d in fit.rusher_effects.items()},
        "blocker_effects": {c.label: d for c, d in fit.blocker_effects.items()},
        "neg_loglik": fit.neg_loglik,
        "grad_norm": fit.grad_norm,
        "iterations": fit.iterations,
    }


def fit_from_json_dict(raw: dict) -> BinaryFit | MultinomialFit:
    if raw["model"] == "win":
        return BinaryFit(
            alpha=raw["alpha"],
            delta=raw["delta"],
            rusher_effects=dict(raw["rusher_effects"]),
            blocker_effects=dict(raw["blocker_effects"]),
            lam=raw["lambda"],
            neg_loglik=raw["neg_loglik"],
            grad_norm=raw["grad_norm"],
            iterations=raw["iterations"],
        )
    if raw["model"] == "severity":
        classes = tuple(OutcomeClass.from_label(s) for s in raw["classes"])
        return MultinomialFit(
            classes=classes,
            dropped=tuple(OutcomeClass.from_label(s) for s in raw["dropped"]),
            alpha={OutcomeClass.from_label(s): v for s, v in raw["alpha"].items()},
            delta={OutcomeClass.from_label(s): v for s, v in raw["delta"].items()},
            rusher_effects={
                OutcomeClass.from_label(s): dict(d) for s, d in raw["rusher_effects"].items()
            },
            blocker_effects={
                OutcomeClass.from_label(s): dict(d) for s, d in raw["blocker_effects"].items()
            },
            lam=raw["lambda"],
            neg_loglik=raw["neg_loglik"],
            grad_norm=raw["grad_norm"],
            iterations=raw["iterations"],
        )
    raise DataError(f"unknown model type in fit JSON: {raw.get('model')!r}")

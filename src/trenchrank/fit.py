"""Ridge-penalized Bradley-Terry fitting.

Two models over the same design: a binary win/loss model and a severity
model over the four outcome classes with ``loss`` as the reference.
Both are one multinomial logit over K non-reference classes.  The
severity model has one class for each non-loss class seen in training;
the binary model is the K = 1 case, with the win target as the class
index.  So one objective, one Hessian and one damped Newton loop serve
both.  Each minimizes

    sum-scale negative log-likelihood  +  lam * ||theta_penalized||^2

where player effects and the double-team coefficient are penalized and
intercepts are not.  The penalty uses the raw sum-of-squares (no 1/2
factor) and the likelihood is the sum over rows, so ``lam`` is
interpreted in those units.

Every objective and fit takes optional row ``weights`` (nonnegative,
default all ones): row i then contributes ``weights[i]`` times its
log-likelihood term.  An integer weight k fits exactly like k copies of
the row and a zero weight like its removal.

Fits of a table run on weighted cells: rows with equal (rusher,
blocker, double_team, outcome) are merged into one design row carrying
their summed weight (``fit_coded``; ``fit_win_model`` and
``fit_severity_model`` are its all-ones case).  Cross-validation uses
the same cells: a fold is a 0/1 row-weight vector over the table's one
coded view, fitted along the lambda path with warm starts, and its
held-out rows are scored by the same vectorized predictor as
``predict_win_probs`` and ``predict_class_prob_matrix``.

The Newton step solves the penalized Hessian by dense Cholesky (least
squares if that fails) and backtracks to the Armijo condition; the
Hessian reuses the class probabilities computed for the accepted step.
Convergence means gradient sup-norm <= ``tol`` (default 1e-8).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.special import expit

from .design import (
    PlayerIndex,
    aggregate_cells,
    csr_from_codes,
    index_from_ids,
    penalty_mask,
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
_MODELS = ("win", "severity")


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
# Objective


def _objective(theta_flat, X, class_idx, n_classes, lam, pen_mask, weights):
    """Penalized objective, its gradient and the (n, n_classes) class probabilities."""
    n, d = X.shape
    theta = theta_flat.reshape(n_classes - 1, d)
    eta = np.empty((n, n_classes))
    eta[:, 0] = 0.0
    eta[:, 1:] = X @ theta.T
    shift = eta.max(axis=1)
    exp_eta = np.exp(eta - shift[:, None])
    denom = exp_eta.sum(axis=1)
    logp_obs = eta[np.arange(n), class_idx] - shift - np.log(denom)
    nll = -float((weights * logp_obs).sum())
    probs = exp_eta / denom[:, None]
    resid = probs[:, 1:] - np.equal.outer(class_idx, np.arange(1, n_classes))
    resid *= weights[:, None]
    grad = np.asarray((X.T @ resid).T) + 2.0 * lam * (pen_mask[None, :] * theta)
    obj = nll + lam * float(np.sum(pen_mask[None, :] * theta * theta))
    return obj, grad.ravel(), probs


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
    w = np.ones(X.shape[0]) if weights is None else weights
    obj, grad, _ = _objective(theta_flat, X, class_idx, n_model_classes, lam, pen_mask, w)
    return obj, grad


def binary_objective_grad(
    theta: np.ndarray,
    X: sp.csr_matrix,
    y: np.ndarray,
    lam: float,
    pen_mask: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Penalized binary negative log-likelihood and its gradient.

    The K = 1 case of ``multinomial_objective_grad``: class 1 is a win.
    """
    y_idx = np.asarray(y, dtype=np.intp)
    return multinomial_objective_grad(theta, X, y_idx, 2, lam, pen_mask, weights)


# ---------------------------------------------------------------------------
# Solver


def _hessian(X, probs, lam, pen_mask, weights):
    """Penalized Hessian at the point whose class probabilities are ``probs``."""
    d = X.shape[1]
    k = probs.shape[1] - 1
    H = np.empty((k * d, k * d))
    for a in range(k):
        pa = probs[:, a + 1]
        for b in range(a, k):
            w = pa * ((1.0 if a == b else 0.0) - probs[:, b + 1]) * weights
            block = (X.multiply(w[:, None]).T @ X).toarray()
            H[a * d : (a + 1) * d, b * d : (b + 1) * d] = block
            if b != a:
                H[b * d : (b + 1) * d, a * d : (a + 1) * d] = block.T
    H[np.diag_indices_from(H)] += np.tile(2.0 * lam * pen_mask, k)
    return H


def _take_step(value_grad_fn, theta, state, direction):
    """Armijo backtracking step with a gradient-norm endgame rule.

    ``state`` is ``value_grad_fn(theta)``: (objective, gradient, class
    probabilities).  Returns the new point, its state and whether it
    moved.

    Near the optimum the per-step objective decrease falls below the
    floating-point resolution of the objective, so the Armijo test
    cannot certify the (correct) full Newton step and backtracking
    would destroy quadratic convergence.  When the full step changes
    the objective by no more than numerical noise but shrinks the
    gradient sup-norm, it is accepted outright.
    """
    obj, grad, _ = state
    slope = float(grad @ direction)
    if slope >= 0.0:
        direction = -grad
        slope = float(grad @ direction)
        if slope >= 0.0:
            return theta, state, False
    grad_sup = float(np.abs(grad).max())
    noise = 1e-8 * max(1.0, abs(obj))
    t = 1.0
    for _ in range(60):
        cand = theta + t * direction
        cand_state = value_grad_fn(cand)
        cand_obj, cand_grad, _ = cand_state
        if cand_obj <= obj + _ARMIJO_C * t * slope:
            return cand, cand_state, True
        if t == 1.0 and cand_obj <= obj + noise and np.abs(cand_grad).max() < grad_sup:
            return cand, cand_state, True
        t *= 0.5
    return theta, state, False


def _solve(X, class_idx, n_classes, lam, pen_mask, theta0, tol, max_iter, weights):
    """Damped Newton over the K = n_classes - 1 non-reference classes.

    Returns theta as a (K, d) array, the unpenalized negative
    log-likelihood there, the gradient sup-norm and the iteration count.
    """
    k, d = n_classes - 1, X.shape[1]
    theta = np.zeros(k * d) if theta0 is None else np.array(theta0, dtype=float).ravel()

    def value_grad(th):
        return _objective(th, X, class_idx, n_classes, lam, pen_mask, weights)

    state = value_grad(theta)
    iterations = 0
    while np.abs(state[1]).max() > tol and iterations < max_iter:
        iterations += 1
        H = _hessian(X, state[2], lam, pen_mask, weights)
        try:
            factor = scipy.linalg.cho_factor(H, check_finite=False)
            direction = scipy.linalg.cho_solve(factor, -state[1], check_finite=False)
        except scipy.linalg.LinAlgError:
            direction = np.linalg.lstsq(H, -state[1], rcond=None)[0]
        theta, state, moved = _take_step(value_grad, theta, state, direction)
        if not moved:
            break
    theta = theta.reshape(k, d)
    nll = state[0] - lam * float(np.sum(pen_mask[None, :] * theta * theta))
    return theta, nll, float(np.abs(state[1]).max()), iterations


# ---------------------------------------------------------------------------
# Fits


def _row_weights(weights, n_rows: int) -> np.ndarray:
    if weights is None:
        return np.ones(n_rows)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_rows,):
        raise DataError(f"row/weight length mismatch: {n_rows} vs {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DataError("row weights must be finite and nonnegative")
    if not w.sum() > 0:
        raise DataError("a fit needs at least one row of positive weight")
    return w


def _class_coding(model: str, outcome: np.ndarray, weights: np.ndarray):
    """Modeled and dropped classes, and each row's softmax position.

    The binary model always has the single class ``win`` (position 1 is
    a win).  The severity model keeps the non-loss classes seen in a
    row of positive weight; rows of a dropped class sit at position 0
    with the loss reference, where their weight is zero.
    """
    if model == "win":
        return (OutcomeClass.WIN,), (), outcome
    present = set(np.unique(outcome[weights > 0]).tolist())
    modeled = tuple(c for c in CLASSES[1:] if c in present)
    dropped = tuple(c for c in CLASSES[1:] if c not in present)
    position = np.zeros(len(CLASSES), dtype=np.intp)
    position[list(modeled)] = np.arange(1, len(modeled) + 1)
    return modeled, dropped, position[outcome]


def _effect_dicts(theta: np.ndarray, idx: PlayerIndex) -> tuple[dict[str, float], dict[str, float]]:
    rushers = {pid: float(theta[col]) for pid, col in idx.rusher_cols.items()}
    blockers = {pid: float(theta[col]) for pid, col in idx.blocker_cols.items()}
    return rushers, blockers


def _as_fit(model, theta, index, modeled, dropped, **stats) -> BinaryFit | MultinomialFit:
    """Package a (K, d) solution; ``stats`` are the remaining fit fields."""
    effects = [_effect_dicts(row, index) for row in theta]
    if model == "win":
        return BinaryFit(
            alpha=float(theta[0, 0]),
            delta=float(theta[0, 1]),
            rusher_effects=effects[0][0],
            blocker_effects=effects[0][1],
            **stats,
        )
    return MultinomialFit(
        classes=modeled,
        dropped=dropped,
        alpha={c: float(theta[i, 0]) for i, c in enumerate(modeled)},
        delta={c: float(theta[i, 1]) for i, c in enumerate(modeled)},
        rusher_effects={c: effects[i][0] for i, c in enumerate(modeled)},
        blocker_effects={c: effects[i][1] for i, c in enumerate(modeled)},
        **stats,
    )


def _fit_ridge(
    X, outcome, lam, index, model, *, weights=None, tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER, theta0=None, stacklevel,
) -> BinaryFit | MultinomialFit:
    """The one fit behind every public fit function.

    ``outcome`` is the win target (``model == "win"``) or the outcome
    class of each design row.  Warnings are reported ``stacklevel``
    frames up, at the caller of the public function.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if not sp.issparse(X):
        raise TypeError(f"the design must be a scipy sparse matrix, got {type(X).__name__}")
    X = X.tocsr()
    n = X.shape[0]
    if n == 0:
        raise DataError(f"{model} fit requires at least one row")
    values = np.asarray(outcome)
    if values.shape != (n,):
        raise DataError(f"row/target length mismatch: {n} vs {values.shape[0]}")
    if model == "win" and not np.all((values == 0) | (values == 1)):
        raise DataError("win targets must be 0 or 1")
    w = _row_weights(weights, n)

    modeled, dropped, class_idx = _class_coding(model, values.astype(np.intp), w)
    if dropped:
        warnings.warn(
            "classes never observed in training were dropped from the softmax: "
            + ", ".join(c.label for c in dropped),
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    if not modeled:
        raise DataError("severity fit needs at least one non-loss class in training")

    theta, nll, grad_sup, iterations = _solve(
        X, class_idx, len(modeled) + 1, lam, penalty_mask(index), theta0, tol, max_iter, w
    )
    converged = grad_sup <= tol
    # a separated cell only reaches the gradient tolerance once its linear
    # predictor is around ln(n / tol), far beyond any finite-MLE value
    if model == "win" and lam == 0 and (not converged or np.abs(X @ theta[0]).max() > 15.0):
        warnings.warn(
            "possible separation: unpenalized fit produced extreme linear predictors",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    if not converged:
        raise FitError(
            f"{'binary' if model == 'win' else 'multinomial'} fit did not converge: "
            f"gradient sup-norm {grad_sup:.3e} after {iterations} iterations (tol {tol:.1e})"
        )
    return _as_fit(
        model, theta, index, modeled, dropped,
        lam=lam, neg_loglik=nll, grad_norm=grad_sup, iterations=iterations,
    )


def fit_binary_ridge(
    X: sp.spmatrix,
    y: Sequence[bool] | np.ndarray,
    lam: float,
    index: PlayerIndex,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    theta0: np.ndarray | None = None,
    weights: Sequence[float] | np.ndarray | None = None,
) -> BinaryFit:
    """Fit the binary win/loss model at a fixed penalty weight.

    ``X`` is a sparse design over ``index`` (``build_matrix``) and ``y``
    the 0/1 win targets.  ``weights`` multiplies each row's likelihood
    term (default 1).  An unpenalized fit whose linear predictors run
    off warns of possible separation.
    """
    return _fit_ridge(
        X, y, lam, index, "win",
        weights=weights, tol=tol, max_iter=max_iter, theta0=theta0, stacklevel=3,
    )


def fit_multinomial_ridge(
    X: sp.spmatrix,
    classes: Sequence[OutcomeClass] | np.ndarray,
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
    return _fit_ridge(
        X, classes, lam, index, "severity",
        weights=weights, tol=tol, max_iter=max_iter, theta0=theta0, stacklevel=3,
    )


def _cells(coded: CodedTable, weights: np.ndarray, model: str):
    """Merge rows into (rusher, blocker, double_team, outcome) cells.

    Returns the cells' design, outcomes, summed weights and index; only
    players with a row of positive weight enter the index.
    """
    outcome = coded.win.astype(np.intp) if model == "win" else coded.severity
    rows, cell_w = aggregate_cells(
        weights, coded.rusher, coded.blocker, coded.double_team.astype(np.intp), outcome
    )
    rushers, rusher_col = np.unique(coded.rusher[rows], return_inverse=True)
    blockers, blocker_col = np.unique(coded.blocker[rows], return_inverse=True)
    idx = index_from_ids(
        [coded.rushers[i] for i in rushers], [coded.blockers[i] for i in blockers]
    )
    X = csr_from_codes(
        2 + rusher_col, 2 + rushers.size + blocker_col, coded.double_team[rows], idx.n_columns
    )
    return X, outcome[rows], cell_w, idx


def _fit_cells(coded, weights, model, lam, *, stacklevel, **kwargs):
    if model not in _MODELS:
        raise ValueError(f"model must be 'win' or 'severity', got {model!r}")
    X, outcome, cell_w, idx = _cells(coded, _row_weights(weights, len(coded)), model)
    return _fit_ridge(
        X, outcome, lam, idx, model, weights=cell_w, stacklevel=stacklevel + 1, **kwargs
    )


def fit_coded(
    coded: CodedTable, weights: np.ndarray, model: str, lam: float, **kwargs
) -> BinaryFit | MultinomialFit:
    """Fit ``model`` ("win" or "severity") with row i counted weights[i] times.

    Rows are first merged into (rusher, blocker, double_team, outcome)
    cells, so the solver sees one design row per distinct cell.  Players
    whose rows all have zero weight are left out of the index, so they
    get no effect (rather than the prior mean) in the result.
    """
    return _fit_cells(coded, weights, model, lam, stacklevel=3, **kwargs)


def fit_win_model(table: InteractionTable, lam: float, **kwargs) -> BinaryFit:
    """Binary fit of every row of a table: ``fit_coded`` with unit weights."""
    return _fit_cells(table.coded, np.ones(len(table)), "win", lam, stacklevel=3, **kwargs)


def fit_severity_model(table: InteractionTable, lam: float, **kwargs) -> MultinomialFit:
    """Severity fit of every row of a table: ``fit_coded`` with unit weights."""
    return _fit_cells(
        table.coded, np.ones(len(table)), "severity", lam, stacklevel=3, **kwargs
    )


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
    n_games = len(table.games)
    if n_games < n_folds:
        raise DataError(f"need at least {n_folds} games for {n_folds} folds, have {n_games}")
    game_fold = np.empty(n_games, dtype=np.intp)
    for fold, block in enumerate(np.array_split(np.arange(n_games), n_folds)):
        game_fold[block] = fold
    return game_fold[table.coded.game]


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
    broken toward stronger shrinkage.  A fold's training part is the
    table's weighted cells with weight 0 on the held-out games, so
    classes it never sees are dropped without a warning.
    """
    from .evaluate import binary_log_loss, multiclass_log_loss

    if target not in _MODELS:
        raise ValueError(f"target must be 'win' or 'severity', got {target!r}")
    lambdas = np.asarray(DEFAULT_LAMBDA_GRID if grid is None else list(grid), dtype=float)
    if lambdas.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")

    coded = table.coded
    labels = cv_fold_labels(table, n_folds)
    desc = np.sort(lambdas)[::-1]
    fold_losses = np.zeros((n_folds, desc.size))

    for fold in range(n_folds):
        in_fold = labels == fold
        if in_fold.all() or not in_fold.any():
            raise DataError(f"fold {fold} is empty")
        X, outcome, cell_w, idx = _cells(coded, (~in_fold).astype(float), target)
        held = coded.take(in_fold)
        modeled, dropped, class_idx = _class_coding(target, outcome, cell_w)
        if not modeled:
            raise DataError(f"fold {fold}: training split has no non-loss class")
        mask = penalty_mask(idx)
        theta = None
        for j, lam in enumerate(desc):
            theta, nll, grad_sup, iterations = _solve(
                X, class_idx, len(modeled) + 1, lam, mask, theta, tol, max_iter, cell_w
            )
            if grad_sup > tol:
                raise FitError(f"cv fold {fold} failed to converge at lam={lam:g}")
            fit = _as_fit(
                target, theta, idx, modeled, dropped,
                lam=lam, neg_loglik=nll, grad_norm=grad_sup, iterations=iterations,
            )
            if target == "win":
                fold_losses[fold, j] = binary_log_loss(predict_win_probs(fit, held), held.win)
            else:
                fold_losses[fold, j] = multiclass_log_loss(
                    predict_class_prob_matrix(fit, held), held.severity
                )

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

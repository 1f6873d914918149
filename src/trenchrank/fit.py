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
the same cells: a fold is a 0/1 row-weight vector over the table's
columns, fitted along the lambda path with warm starts, and its
held-out rows are scored by the same vectorized predictor as
``predict_win_probs`` and ``predict_class_prob_matrix``.

The solver never forms a design matrix.  Every design row is an
intercept, a double-team flag, +1 on one rusher and -1 on one blocker,
so it works on those codes (``_Design``): the linear predictors are a
gather, X^T r and each K x K class block of the Hessian X^T W X are
``np.bincount``s per rusher, per blocker and per (rusher, blocker)
pair.  Rusher effects do not interact with each other, so the Hessian
is one K x K block per rusher plus their coupling to the K (2 + B)
intercept, double-team and blocker parameters.  The Newton step
eliminates the rusher blocks with a batched Cholesky and factors only
the K (2 + B) Schur complement, then back-substitutes; rushers are the
larger role in the paper's data (620 against 348 blockers).  A step
whose factor is not positive definite (e.g. lam = 0 with a player of
zero weight) is solved by least squares on the dense Hessian instead,
and a fit that does not converge says how many steps did so and which
factor failed.  The step backtracks to the Armijo condition, and the
Hessian reuses the class probabilities computed for the accepted step.
Convergence means gradient sup-norm <= ``tol`` (default 1e-8).  The
public ``fit_*_ridge`` and ``*_objective_grad`` decode their CSR design
once (``codes_from_csr``), so a row of any other form is a
``DataError``.

Start points only change how many Newton steps a fit takes; the optimum
is the same to within ``tol``.  A fit without ``theta0`` starts at the
intercept-only optimum, log(w_a / w_0) for the weighted class totals
w_c with every other parameter 0, when ``lam > 0``, and at zero when
``lam == 0``: without a penalty the optimum need not be unique, so the
start must not move the point the least-squares steps return.
Cross-validation warm-starts each fold's lambda path from large to
small, and starts a fold's largest lambda from the previous fold's
solution there, mapped onto the fold's players by id (a player the
previous fold did not see starts at 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.special import expit

from .design import (
    PlayerIndex,
    aggregate_cells,
    codes_from_csr,
    index_from_ids,
    penalty_mask,
)
from .errors import DataError, FitError
from .interactions import (
    CLASSES,
    Interaction,
    InteractionTable,
    OutcomeClass,
    SeverityWeights,
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-6.0, 2.0, 25))
#: Start of the RuntimeWarning a fit issues when it drops classes.
DROPPED_CLASSES_WARNING = "classes never observed in training were dropped from the softmax"

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
# Design codes


@dataclass(frozen=True)
class _Design:
    """Design rows held as codes instead of a sparse matrix.

    Row i is ``[1, double_team[i], +1 on rusher[i], -1 on blocker[i]]``
    over the columns ``[intercept | double_team | rushers | blockers]``.
    A row without a rusher (blocker) entry holds ``n_rushers``
    (``n_blockers``), one past the last position, so that per-player sums
    are ``np.bincount``s whose last bin is dropped.
    """

    rusher: np.ndarray
    blocker: np.ndarray
    double_team: np.ndarray
    n_rushers: int
    n_blockers: int

    @property
    def n_columns(self) -> int:
        return 2 + self.n_rushers + self.n_blockers

    @property
    def rusher_columns(self) -> slice:
        return slice(2, 2 + self.n_rushers)

    @cached_property
    def rest_columns(self) -> np.ndarray:
        """Intercept, double team and blocker columns."""
        return np.r_[0, 1, 2 + self.n_rushers : self.n_columns]

    def per_rusher(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.rusher, weights=values, minlength=self.n_rushers + 1)[:-1]

    def per_blocker(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.blocker, weights=values, minlength=self.n_blockers + 1)[:-1]


def _design_from_csr(X, index: PlayerIndex | None = None) -> _Design:
    """Decode a ``build_matrix`` design over ``index``.

    Without an index (the objective functions), the rusher columns are
    found as ``codes_from_csr`` finds them.
    """
    if not sp.issparse(X):
        raise TypeError(f"the design must be a scipy sparse matrix, got {type(X).__name__}")
    d = X.shape[1]
    if index is not None and d != index.n_columns:
        raise DataError(f"design has {d} columns, the index {index.n_columns}")
    r = None if index is None else index.n_rushers
    rusher_cols, blocker_cols, double_team = codes_from_csr(X, r)
    if r is None:
        r = int(blocker_cols[blocker_cols >= 0].min(initial=d)) - 2
    b = d - 2 - r
    return _Design(
        rusher=np.where(rusher_cols >= 0, rusher_cols - 2, r),
        blocker=np.where(blocker_cols >= 0, blocker_cols - 2 - r, b),
        double_team=double_team.astype(float),
        n_rushers=r,
        n_blockers=b,
    )


# ---------------------------------------------------------------------------
# Objective


def _linear_predictors(theta: np.ndarray, design: _Design) -> np.ndarray:
    """(K, n) linear predictors of the (K, d) parameters ``theta``."""
    k = theta.shape[0]
    rusher = np.hstack([theta[:, design.rusher_columns], np.zeros((k, 1))])
    blocker = np.hstack([theta[:, 2 + design.n_rushers :], np.zeros((k, 1))])
    eta = np.take(rusher, design.rusher, axis=1) - np.take(blocker, design.blocker, axis=1)
    eta += theta[:, :1]
    eta += theta[:, 1:2] * design.double_team
    return eta


def _transpose_product(design: _Design, resid: np.ndarray) -> np.ndarray:
    """X^T resid^T for (K, n) ``resid``, as a (K, d) array."""
    out = np.empty((resid.shape[0], design.n_columns))
    out[:, 0] = resid.sum(axis=1)
    out[:, 1] = resid @ design.double_team
    for a, row in enumerate(resid):
        out[a, design.rusher_columns] = design.per_rusher(row)
        out[a, 2 + design.n_rushers :] = -design.per_blocker(row)
    return out


def _objective(theta_flat, design, class_idx, n_classes, lam, pen_mask, weights):
    """Penalized objective, its gradient and the (n_classes, n) class probabilities."""
    n, d = design.rusher.shape[0], design.n_columns
    theta = theta_flat.reshape(n_classes - 1, d)
    eta = np.empty((n_classes, n))
    eta[0] = 0.0
    eta[1:] = _linear_predictors(theta, design)
    shift = eta.max(axis=0)
    exp_eta = np.exp(eta - shift)
    denom = exp_eta.sum(axis=0)
    logp_obs = eta[class_idx, np.arange(n)] - shift - np.log(denom)
    nll = -float(weights @ logp_obs)
    probs = exp_eta / denom
    resid = probs[1:] - np.equal.outer(np.arange(1, n_classes), class_idx)
    resid *= weights
    grad = _transpose_product(design, resid) + 2.0 * lam * (pen_mask[None, :] * theta)
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
    ``X`` must have the paired-comparison form of ``build_matrix``
    (``DataError`` names the first row that does not).
    """
    design = _design_from_csr(X)
    w = np.ones(X.shape[0]) if weights is None else weights
    obj, grad, _ = _objective(theta_flat, design, class_idx, n_model_classes, lam, pen_mask, w)
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


class _HessianParts(NamedTuple):
    """The penalized Hessian with rusher parameters ordered first.

    ``rusher`` holds one K x K block per rusher (rusher effects are
    uncoupled across rushers); ``coupling`` (R, K, M) couples them to the
    M = K * (2 + B) other parameters, ordered by class, then intercept,
    double team, blockers; ``rest`` is the M x M block of those.
    """

    rusher: np.ndarray
    coupling: np.ndarray
    rest: np.ndarray


def _hessian_parts(design: _Design, probs, lam, pen_mask, weights) -> _HessianParts:
    """Penalized Hessian at the point whose (n_classes, n) class
    probabilities are ``probs``.

    Each (a, b) class block of X^T W X is a handful of per-player sums of
    the cell weights ``W = w p_a (1[a = b] - p_b)``.
    """
    r, nb = design.n_rushers, design.n_blockers
    k = probs.shape[0] - 1
    m = 2 + nb
    dt = design.double_team
    pair = design.rusher * (nb + 1) + design.blocker
    rusher = np.empty((r, k, k))
    coupling = np.empty((r, k, k, m))
    rest = np.zeros((k, m, k, m))
    diag = np.arange(2, m)
    for a in range(k):
        for b in range(a, k):
            w = weights * probs[a + 1] * ((1.0 if a == b else 0.0) - probs[b + 1])
            wd = w * dt
            per_rusher = design.per_rusher(w)
            per_blocker = design.per_blocker(w)
            met = np.bincount(pair, weights=w, minlength=(r + 1) * (nb + 1))
            block = rest[a, :, b, :]
            block[0, 0] = w.sum()
            block[0, 1] = block[1, 0] = block[1, 1] = wd.sum()
            block[0, 2:] = block[2:, 0] = -per_blocker
            block[1, 2:] = block[2:, 1] = -design.per_blocker(wd)
            block[diag, diag] = per_blocker
            rest[b, :, a, :] = block
            rusher[:, a, b] = rusher[:, b, a] = per_rusher
            coupling[:, a, b, 0] = per_rusher
            coupling[:, a, b, 1] = design.per_rusher(wd)
            coupling[:, a, b, 2:] = -met.reshape(r + 1, nb + 1)[:r, :nb]
            coupling[:, b, a] = coupling[:, a, b]
    ridge = 2.0 * lam * pen_mask
    rusher[:, np.arange(k), np.arange(k)] += ridge[design.rusher_columns, None]
    rest = rest.reshape(k * m, k * m)
    rest[np.diag_indices_from(rest)] += np.tile(ridge[design.rest_columns], k)
    return _HessianParts(rusher, coupling.reshape(r, k, k * m), rest)


def _dense_hessian(parts: _HessianParts, design: _Design) -> np.ndarray:
    """The full (K d) x (K d) Hessian in class-major order."""
    r, k, m = parts.coupling.shape
    n = r * k + m
    H = np.zeros((n, n))
    block = np.arange(r * k).reshape(r, k)
    H[block[:, :, None], block[:, None, :]] = parts.rusher
    H[: r * k, r * k :] = parts.coupling.reshape(r * k, m)
    H[r * k :, : r * k] = H[: r * k, r * k :].T
    H[r * k :, r * k :] = parts.rest
    # class-major position of each rusher-first parameter
    position = np.arange(k * design.n_columns).reshape(k, -1)
    order = np.concatenate([
        position[:, design.rusher_columns].T.ravel(), position[:, design.rest_columns].ravel()
    ])
    out = np.empty_like(H)
    out[np.ix_(order, order)] = H
    return out


def _forward(L: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solve ``L[j] X[j] = Y[j]`` for lower-triangular K x K blocks ``L[j]``."""
    X = np.empty_like(Y)
    for a in range(L.shape[1]):
        acc = Y[:, a].copy()
        for c in range(a):
            acc -= L[:, a, c, None] * X[:, c]
        X[:, a] = acc / L[:, a, a, None]
    return X


def _backward(L: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solve ``L[j]^T X[j] = Y[j]`` for lower-triangular K x K blocks ``L[j]``."""
    X = np.empty_like(Y)
    for a in reversed(range(L.shape[1])):
        acc = Y[:, a].copy()
        for c in range(a + 1, L.shape[1]):
            acc -= L[:, c, a, None] * X[:, c]
        X[:, a] = acc / L[:, a, a, None]
    return X


def _newton_direction(parts: _HessianParts, grad: np.ndarray, design: _Design):
    """Solve ``H x = -grad`` by a Schur complement over the rusher blocks.

    With ``H = [[A, C], [C^T, D]]``, ``A = L L^T`` block by block and
    ``G = L^-1 C``, only ``S = D - G^T G`` (M x M) is factored densely.
    Returns the class-major direction and None, or None and the factor
    that is not positive definite: ``("rusher", position)`` or
    ``("schur", None)``.
    """
    r, k, m = parts.coupling.shape
    try:
        L = np.linalg.cholesky(parts.rusher)
    except np.linalg.LinAlgError:
        for j, block in enumerate(parts.rusher):
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                return None, ("rusher", j)
        raise
    g = grad.reshape(k, design.n_columns)
    rushers, rest = design.rusher_columns, design.rest_columns
    G = _forward(L, parts.coupling).reshape(r * k, m)
    u = _forward(L, -g[:, rushers].T[:, :, None]).ravel()
    try:
        # np.dot computes G^T G as a symmetric rank-k update
        schur = parts.rest - np.dot(G.T, G)
        factor = scipy.linalg.cho_factor(schur, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None, ("schur", None)
    x_rest = scipy.linalg.cho_solve(factor, -g[:, rest].ravel() - G.T @ u, check_finite=False)
    x_rusher = _backward(L, (u - G @ x_rest).reshape(r, k, 1))
    direction = np.empty_like(g)
    direction[:, rushers] = x_rusher[:, :, 0].T
    direction[:, rest] = x_rest.reshape(k, -1)
    return direction.ravel(), None


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


class _Solution(NamedTuple):
    theta: np.ndarray  # (K, d)
    nll: float  # unpenalized
    grad_sup: float
    iterations: int
    fallbacks: list  # the failed factor of each least-squares step


def _intercept_start(class_idx, n_classes, weights, d) -> np.ndarray:
    """The (K, d) intercept-only optimum: intercept a is log(w_a / w_0)
    for the weighted class totals w_c, every other parameter 0.

    It is zero when a class has no weight, since no finite intercept then
    fits the class frequencies.
    """
    theta = np.zeros((n_classes - 1, d))
    totals = np.bincount(class_idx, weights=weights, minlength=n_classes)
    if np.all(totals > 0):
        theta[:, 0] = np.log(totals[1:] / totals[0])
    return theta


def _solve(design, class_idx, n_classes, lam, pen_mask, theta0, tol, max_iter, weights):
    """Damped Newton over the K = n_classes - 1 non-reference classes.

    Without ``theta0`` a penalized fit starts at the intercept-only
    optimum and an unpenalized one at zero: at lam = 0 the optimum need
    not be unique, and the least-squares steps then return a point that
    depends on the start.  A step whose Schur factorization fails (a
    factor that is not positive definite, e.g. at lam = 0) is solved by
    least squares on the dense Hessian instead, and the failed factor is
    recorded.
    """
    k, d = n_classes - 1, design.n_columns
    if theta0 is not None:
        theta = np.array(theta0, dtype=float).ravel()
    elif lam > 0:
        theta = _intercept_start(class_idx, n_classes, weights, d).ravel()
    else:
        theta = np.zeros(k * d)

    def value_grad(th):
        return _objective(th, design, class_idx, n_classes, lam, pen_mask, weights)

    state = value_grad(theta)
    iterations = 0
    fallbacks = []
    while np.abs(state[1]).max() > tol and iterations < max_iter:
        iterations += 1
        parts = _hessian_parts(design, state[2], lam, pen_mask, weights)
        direction, failed = _newton_direction(parts, state[1], design)
        if failed is not None:
            fallbacks.append(failed)
            H = _dense_hessian(parts, design)
            direction = np.linalg.lstsq(H, -state[1], rcond=None)[0]
        theta, state, moved = _take_step(value_grad, theta, state, direction)
        if not moved:
            break
    theta = theta.reshape(k, d)
    nll = state[0] - lam * float(np.sum(pen_mask[None, :] * theta * theta))
    return _Solution(theta, nll, float(np.abs(state[1]).max()), iterations, fallbacks)


def _fallback_note(solution: _Solution, index: PlayerIndex) -> str:
    """How many Newton steps fell back to least squares, and the last failed factor."""
    note = (
        f"{len(solution.fallbacks)} of {solution.iterations} Newton steps"
        " fell back to least squares"
    )
    if not solution.fallbacks:
        return note
    kind, position = solution.fallbacks[-1]
    if kind == "schur":
        return note + " (last failure: the Schur complement factor)"
    player = next(p for p, c in index.rusher_cols.items() if c == 2 + position)
    return note + f" (last failure: the block of rusher {player!r})"


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


def _theta_on_index(fit: BinaryFit | MultinomialFit, index: PlayerIndex) -> np.ndarray:
    """The (K, d) parameters of ``fit`` over ``index``'s columns; a player
    the fit has no effect for gets 0."""
    if isinstance(fit, BinaryFit):
        rows = [(fit.alpha, fit.delta, fit.rusher_effects, fit.blocker_effects)]
    else:
        rows = [
            (fit.alpha[c], fit.delta[c], fit.rusher_effects[c], fit.blocker_effects[c])
            for c in fit.classes
        ]
    theta = np.zeros((len(rows), index.n_columns))
    for a, (alpha, delta, rushers, blockers) in enumerate(rows):
        theta[a, :2] = alpha, delta
        for cols, effects in ((index.rusher_cols, rushers), (index.blocker_cols, blockers)):
            for pid, col in cols.items():
                theta[a, col] = effects.get(pid, 0.0)
    return theta


def _fit_ridge(
    design, outcome, lam, index, model, *, weights=None, tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER, theta0=None, stacklevel,
) -> BinaryFit | MultinomialFit:
    """The one fit behind every public fit function.

    ``design`` holds the rows' codes over ``index``'s columns and
    ``outcome`` the win target (``model == "win"``) or the outcome class
    of each row.  Warnings are reported ``stacklevel`` frames up, at the
    caller of the public function.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    n = design.rusher.shape[0]
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
            f"{DROPPED_CLASSES_WARNING}: " + ", ".join(c.label for c in dropped),
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    if not modeled:
        raise DataError("severity fit needs at least one non-loss class in training")

    solution = _solve(
        design, class_idx, len(modeled) + 1, lam, penalty_mask(index), theta0, tol, max_iter, w
    )
    theta, grad_sup, iterations = solution.theta, solution.grad_sup, solution.iterations
    converged = grad_sup <= tol
    # a separated cell only reaches the gradient tolerance once its linear
    # predictor is around ln(n / tol), far beyond any finite-MLE value
    if model == "win" and lam == 0 and (
        not converged or np.abs(_linear_predictors(theta, design)).max() > 15.0
    ):
        warnings.warn(
            "possible separation: unpenalized fit produced extreme linear predictors",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    if not converged:
        raise FitError(
            f"{'binary' if model == 'win' else 'multinomial'} fit did not converge: "
            f"gradient sup-norm {grad_sup:.3e} after {iterations} iterations (tol {tol:.1e}); "
            + _fallback_note(solution, index)
        )
    return _as_fit(
        model, theta, index, modeled, dropped,
        lam=lam, neg_loglik=solution.nll, grad_norm=grad_sup, iterations=iterations,
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
    off warns of possible separation.  A design row that is not a paired
    comparison (``codes_from_csr``) is a ``DataError``.
    """
    return _fit_ridge(
        _design_from_csr(X, index), y, lam, index, "win",
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
    (default 1).  A design row that is not a paired comparison
    (``codes_from_csr``) is a ``DataError``.
    """
    return _fit_ridge(
        _design_from_csr(X, index), classes, lam, index, "severity",
        weights=weights, tol=tol, max_iter=max_iter, theta0=theta0, stacklevel=3,
    )


def _cells(table: InteractionTable, weights: np.ndarray, model: str):
    """Merge rows into (rusher, blocker, double_team, outcome) cells.

    Returns the cells' design codes, outcomes, summed weights and index;
    only players with a row of positive weight enter the index.
    """
    outcome = table.win.astype(np.intp) if model == "win" else table.severity
    rows, cell_w = aggregate_cells(
        weights, table.rusher, table.blocker, table.double_team.astype(np.intp), outcome
    )
    rushers, rusher_pos = np.unique(table.rusher[rows], return_inverse=True)
    blockers, blocker_pos = np.unique(table.blocker[rows], return_inverse=True)
    idx = index_from_ids(
        [table.rushers[i] for i in rushers], [table.blockers[i] for i in blockers]
    )
    design = _Design(
        rusher=rusher_pos,
        blocker=blocker_pos,
        double_team=table.double_team[rows].astype(float),
        n_rushers=rushers.size,
        n_blockers=blockers.size,
    )
    return design, outcome[rows], cell_w, idx


def _fit_cells(table, weights, model, lam, *, stacklevel, **kwargs):
    if model not in _MODELS:
        raise ValueError(f"model must be 'win' or 'severity', got {model!r}")
    design, outcome, cell_w, idx = _cells(table, _row_weights(weights, len(table)), model)
    return _fit_ridge(
        design, outcome, lam, idx, model, weights=cell_w, stacklevel=stacklevel + 1, **kwargs
    )


def fit_coded(
    table: InteractionTable, weights: np.ndarray, model: str, lam: float, **kwargs
) -> BinaryFit | MultinomialFit:
    """Fit ``model`` ("win" or "severity") with row i counted weights[i] times.

    Rows are first merged into (rusher, blocker, double_team, outcome)
    cells, so the solver sees one design row per distinct cell.  Players
    whose rows all have zero weight are left out of the index, so they
    get no effect (rather than the prior mean) in the result.
    """
    return _fit_cells(table, weights, model, lam, stacklevel=3, **kwargs)


def fit_win_model(table: InteractionTable, lam: float, **kwargs) -> BinaryFit:
    """Binary fit of every row of a table: ``fit_coded`` with unit weights."""
    return _fit_cells(table, np.ones(len(table)), "win", lam, stacklevel=3, **kwargs)


def fit_severity_model(table: InteractionTable, lam: float, **kwargs) -> MultinomialFit:
    """Severity fit of every row of a table: ``fit_coded`` with unit weights."""
    return _fit_cells(table, np.ones(len(table)), "severity", lam, stacklevel=3, **kwargs)


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


def _effects_by_code(effects: Mapping[str, float], vocab: Sequence[str]) -> np.ndarray:
    return np.array([effects.get(pid, 0.0) for pid in vocab])


def predict_win_probs(fit: BinaryFit, table: InteractionTable) -> np.ndarray:
    """``predict_win_prob`` for every row of a table."""
    eta = (
        fit.alpha
        + _effects_by_code(fit.rusher_effects, table.rushers)[table.rusher]
        - _effects_by_code(fit.blocker_effects, table.blockers)[table.blocker]
        + fit.delta * table.double_team.astype(float)
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


def predict_class_prob_matrix(fit: MultinomialFit, table: InteractionTable) -> np.ndarray:
    """(n, 4) probability matrix with columns in severity order.

    Row i equals ``predict_class_probs`` for row i of the table.
    """
    dt = table.double_team.astype(float)
    eta = np.zeros((len(table), len(fit.classes) + 1))
    for k, cls in enumerate(fit.classes, start=1):
        eta[:, k] = (
            fit.alpha[cls]
            + _effects_by_code(fit.rusher_effects[cls], table.rushers)[table.rusher]
            - _effects_by_code(fit.blocker_effects[cls], table.blockers)[table.blocker]
            + fit.delta[cls] * dt
        )
    eta -= eta.max(axis=1, keepdims=True)
    weights = np.exp(eta)
    probs = weights / weights.sum(axis=1, keepdims=True)
    out = np.zeros((len(table), len(CLASSES)))
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
    return game_fold[table.game]


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

    Fits on each fold's complement and scores held-fold log loss;
    returns the argmin with ties broken toward stronger shrinkage.  A
    fold's training part is the table's weighted cells with weight 0 on
    the held-out games, so classes it never sees are dropped without a
    warning.

    Each fold walks the grid from large to small lambda, every fit
    warm-started from the one before.  The first fit of fold f > 0
    starts from fold f - 1's solution at the same (largest) lambda,
    mapped onto fold f's players by id, players new to fold f at 0.  It
    starts cold, as fold 0 does, when the two folds model different
    classes or when that lambda is 0: from the intercept-only optimum
    at lambda > 0 and from zero at lambda = 0.  The starts change
    iteration counts, not the optimum beyond ``tol``.
    """
    from .evaluate import binary_log_loss, multiclass_log_loss

    if target not in _MODELS:
        raise ValueError(f"target must be 'win' or 'severity', got {target!r}")
    lambdas = np.asarray(DEFAULT_LAMBDA_GRID if grid is None else list(grid), dtype=float)
    if lambdas.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")

    labels = cv_fold_labels(table, n_folds)
    desc = np.sort(lambdas)[::-1]
    fold_losses = np.zeros((n_folds, desc.size))
    chained = None  # the previous fold's classes and its fit at the largest lambda

    for fold in range(n_folds):
        in_fold = labels == fold
        if in_fold.all() or not in_fold.any():
            raise DataError(f"fold {fold} is empty")
        design, outcome, cell_w, idx = _cells(table, (~in_fold).astype(float), target)
        held = table.take(in_fold)
        modeled, dropped, class_idx = _class_coding(target, outcome, cell_w)
        if not modeled:
            raise DataError(f"fold {fold}: training split has no non-loss class")
        mask = penalty_mask(idx)
        theta = None
        if desc[0] > 0 and chained is not None and chained[0] == modeled:
            theta = _theta_on_index(chained[1], idx)
        for j, lam in enumerate(desc):
            solution = _solve(
                design, class_idx, len(modeled) + 1, lam, mask, theta, tol, max_iter, cell_w
            )
            if solution.grad_sup > tol:
                raise FitError(
                    f"cv fold {fold} failed to converge at lam={lam:g}; "
                    + _fallback_note(solution, idx)
                )
            theta = solution.theta
            fit = _as_fit(
                target, theta, idx, modeled, dropped, lam=lam, neg_loglik=solution.nll,
                grad_norm=solution.grad_sup, iterations=solution.iterations,
            )
            if j == 0:
                chained = modeled, fit
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

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
intercepts are not (``_Design.penalty``), which keeps the shrinkage
limit calibrated to the training base rate.  The penalty uses the raw
sum-of-squares (no 1/2 factor) and the likelihood is the sum over rows,
so ``lam`` is interpreted in those units.

Every fit takes a table and row ``weights`` (nonnegative; all ones
for ``fit_win_model`` and ``fit_severity_model``): row i then
contributes ``weights[i]`` times its log-likelihood term.  An integer
weight k fits exactly like k copies of the row and a zero weight like
its removal.

Fits run on weighted cells (``_cells``): rows with equal (rusher,
blocker, double_team, outcome) are merged into one design row carrying
their summed weight, so each design row has exactly one rusher and one
blocker (``fit_coded``; ``fit_win_model`` and ``fit_severity_model``
are its all-ones case).  Cross-validation uses the same cells: a fold
is a 0/1 row-weight vector over the table's columns, fitted along the
lambda path with warm starts, and its held-out rows are scored by the
same vectorized predictor as ``predict_win_probs`` and
``predict_class_prob_matrix``.

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
larger role in the paper's data (620 against 348 blockers).  Its dense
products and factorizations all run in numpy's BLAS and LAPACK: scipy
links a second OpenBLAS, and alternating work between the two
libraries' thread pools cost more than the arithmetic.  The step keeps
few dense buffers: the coupling block is overwritten by its triangular
solve G, the Schur complement is formed in the buffer of G^T G, and the
back-substitution recomputes its coupling product from the cells, so G
is released before the Schur complement is factored.  The step
backtracks to the Armijo condition, and the Hessian reuses the class
probabilities computed for the accepted step; a step that cannot
descend ends the loop, and the fit then reports that it did not
converge.  Convergence means gradient sup-norm <= ``tol`` (default 1e-8).

Every fit and CV grid point needs ``lam`` finite and > 0
(``check_penalty``), as in the paper's model, and ``tol`` finite and
> 0 and ``max_iter`` an integer >= 1 (``check_solver_options``), all
checked before any solve.  At lam = 0 shifting every rusher and blocker
effect of a class alike leaves the likelihood unchanged, so the optimum
is not unique.  With lam > 0 the Hessian is positive definite, so a
factor that is not (the Schur complement, or one rusher's block) is a
numerical fault: the fit raises a ``FitError`` naming it.

Start points only change how many Newton steps a fit takes; the optimum
is the same to within ``tol``.  A fit without ``theta0`` starts at the
intercept-only optimum, log(w_a / w_0) for the weighted class totals
w_c with every other parameter 0.  Cross-validation warm-starts each
fold's lambda path from large to small, and starts a fold's largest
lambda from the previous fold's solution there, remapped onto the
fold's players through their codes into the table's vocabularies (a
player the previous fold did not see starts at 0).

A fit is one ``Fit`` for both models: its parameters theta, one row per
modeled class, over the columns ``[intercept | double team | rushers |
blockers]``, with the sorted ids of its rushers and blockers.  Rusher
and blocker columns are separate blocks even for a player seen in both
roles.  Prediction gathers theta onto a table's vocabularies by id,
with 0 for a player the fit lacks; only the JSON form
(``fit_to_json_dict``) keys effects by player id.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg.lapack
from scipy.special import expit

from .errors import DataError, FitError
from .interactions import (
    CLASSES,
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


@dataclass(frozen=True, eq=False)
class Fit:
    """A fitted win or severity model.

    ``classes`` are the modeled non-reference classes in severity order,
    ``(WIN,)`` for the win model; reference-class parameters are
    identically zero and not stored.  ``dropped`` lists classes never
    observed in training, which are excluded from the softmax entirely.
    ``theta`` (read-only, one row per class) holds each class's
    parameters over the columns ``[intercept | double team | rushers |
    blockers]``, the player columns in the order of the sorted ids
    ``rushers`` and ``blockers``.  ``==`` compares every field, theta
    exactly.
    """

    model: str
    classes: tuple[OutcomeClass, ...]
    dropped: tuple[OutcomeClass, ...]
    theta: np.ndarray
    rushers: tuple[str, ...]
    blockers: tuple[str, ...]
    lam: float
    neg_loglik: float
    grad_norm: float
    iterations: int

    def __post_init__(self) -> None:
        theta = np.array(self.theta, dtype=float)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    def __eq__(self, other) -> bool:
        if type(other) is not Fit:
            return NotImplemented
        mine, theirs = dict(vars(self)), dict(vars(other))
        return np.array_equal(mine.pop("theta"), theirs.pop("theta")) and mine == theirs

    def effects(self, role: str) -> tuple[tuple[str, ...], np.ndarray]:
        """The ids of ``role``'s players ("rusher" or "blocker") and their
        (K, n) effects."""
        split = 2 + len(self.rushers)
        if role == "rusher":
            return self.rushers, self.theta[:, 2:split]
        return self.blockers, self.theta[:, split:]


@dataclass(frozen=True)
class CvResult:
    """Cross-validation trace: lambda grid, mean held-fold losses, argmin."""

    lambdas: tuple[float, ...]
    mean_losses: tuple[float, ...]
    lambda_min: float


def gather(keys: np.ndarray, values: np.ndarray, wanted: np.ndarray, fill) -> np.ndarray:
    """The columns of ``values`` (..., len(keys)) for the ``wanted`` keys,
    where column j belongs to ``keys[j]`` and ``keys`` is sorted; ``fill``
    (a number, or an array that broadcasts against the output) for a
    wanted key that ``keys`` lacks.

    Keys are player codes, or player ids as object arrays, which compare
    as the strings they are (a fixed-width string array drops trailing
    NULs).
    """
    out = np.full((*values.shape[:-1], len(wanted)), fill)
    pos = np.searchsorted(keys, wanted)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == wanted[found]
    out[..., found] = values[..., pos[found]]
    return out


# ---------------------------------------------------------------------------
# Design codes


@dataclass(frozen=True)
class _Design:
    """Design rows held as codes instead of a matrix.

    Row i is ``[1, double_team[i], +1 on rusher[i], -1 on blocker[i]]``
    over the columns ``[intercept | double_team | rushers | blockers]``,
    so per-player sums are ``np.bincount``s over the positions.
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

    @cached_property
    def penalty(self) -> np.ndarray:
        """1.0 on the ridge-penalized columns, every one but the intercept."""
        mask = np.ones(self.n_columns)
        mask[0] = 0.0
        return mask

    def per_rusher(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.rusher, weights=values, minlength=self.n_rushers)

    def per_blocker(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.blocker, weights=values, minlength=self.n_blockers)


def aggregate_cells(weights: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge rows with equal key tuples; drop cells of zero total weight.

    ``keys`` are nonnegative integer columns.  Returns one representative
    row per cell and the cell's summed weight, cells in key order.
    """
    combined = np.zeros(weights.shape[0], dtype=np.int64)
    for key in keys:
        combined = combined * (int(key.max(initial=0)) + 1) + key
    _, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    totals = np.bincount(inverse, weights=weights, minlength=first.shape[0])
    keep = totals > 0
    return first[keep], totals[keep]


def _cells(table: InteractionTable, weights: np.ndarray, model: str):
    """Merge rows into (rusher, blocker, double_team, outcome) cells.

    Returns the cells' design codes, outcomes and summed weights, and the
    sorted codes into the table's vocabularies of the rushers and the
    blockers the design numbers 0, 1, ...: only players with a row of
    positive weight enter the design.
    """
    outcome = table.win.astype(np.intp) if model == "win" else table.severity
    rows, cell_w = aggregate_cells(
        weights, table.rusher, table.blocker, table.double_team.astype(np.intp), outcome
    )
    rushers, rusher_pos = np.unique(table.rusher[rows], return_inverse=True)
    blockers, blocker_pos = np.unique(table.blocker[rows], return_inverse=True)
    design = _Design(
        rusher=rusher_pos,
        blocker=blocker_pos,
        double_team=table.double_team[rows].astype(float),
        n_rushers=rushers.size,
        n_blockers=blockers.size,
    )
    return design, outcome[rows], cell_w, rushers, blockers


# ---------------------------------------------------------------------------
# Objective


def _linear_predictors(theta: np.ndarray, design: _Design) -> np.ndarray:
    """(K, n) linear predictors of the (K, d) parameters ``theta``."""
    eta = np.take(theta[:, design.rusher_columns], design.rusher, axis=1)
    eta -= np.take(theta[:, 2 + design.n_rushers :], design.blocker, axis=1)
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


def _objective(theta_flat, design, class_idx, n_classes, lam, weights):
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
    pen = design.penalty[None, :]
    grad = _transpose_product(design, resid) + 2.0 * lam * (pen * theta)
    obj = nll + lam * float(np.sum(pen * theta * theta))
    return obj, grad.ravel(), probs


# ---------------------------------------------------------------------------
# Solver


class _HessianParts(NamedTuple):
    """The penalized Hessian with rusher parameters ordered first.

    ``rusher`` holds one K x K block per rusher (rusher effects are
    uncoupled across rushers); ``coupling`` (R, K, M) couples them to the
    M = K * (2 + B) other parameters, ordered by class, then intercept,
    double team, blockers.  The M x M block of those is sparse: a blocker
    row touches only the intercept, the double team and that blocker, so
    each (a, b) class block is fixed by ``rest_sums[a, b]`` (2, B), the
    weight ``W_ab`` (row 0) and ``W_ab * double_team`` (row 1) summed per
    blocker.  ``rest_ridge`` is its diagonal penalty.  ``_add_rest``
    writes it out.
    """

    rusher: np.ndarray
    coupling: np.ndarray
    rest_sums: np.ndarray
    rest_ridge: np.ndarray


def _hessian_parts(design: _Design, probs, lam, weights) -> _HessianParts:
    """Penalized Hessian at the point whose (n_classes, n) class
    probabilities are ``probs``.

    Each (a, b) class block of X^T W X is a handful of per-player sums of
    the cell weights ``W = w p_a (1[a = b] - p_b)``.
    """
    r, nb = design.n_rushers, design.n_blockers
    k = probs.shape[0] - 1
    m = 2 + nb
    dt = design.double_team
    pair = design.rusher * nb + design.blocker
    rusher = np.empty((r, k, k))
    coupling = np.empty((r, k, k, m))
    sums = np.empty((k, k, 2, nb))
    for a in range(k):
        for b in range(a, k):
            w = weights * probs[a + 1] * ((1.0 if a == b else 0.0) - probs[b + 1])
            wd = w * dt
            per_rusher = design.per_rusher(w)
            met = np.bincount(pair, weights=w, minlength=r * nb)
            sums[a, b, 0] = design.per_blocker(w)
            sums[a, b, 1] = design.per_blocker(wd)
            sums[b, a] = sums[a, b]
            rusher[:, a, b] = rusher[:, b, a] = per_rusher
            coupling[:, a, b, 0] = per_rusher
            coupling[:, a, b, 1] = design.per_rusher(wd)
            np.negative(met.reshape(r, nb), out=coupling[:, a, b, 2:])
            coupling[:, b, a] = coupling[:, a, b]
    ridge = 2.0 * lam * design.penalty
    np.einsum("jaa->ja", rusher)[...] += ridge[design.rusher_columns, None]
    return _HessianParts(
        rusher, coupling.reshape(r, k, k * m), sums, np.tile(ridge[design.rest_columns], k)
    )


def _add_rest(out: np.ndarray, sums: np.ndarray, ridge: np.ndarray) -> None:
    """Add the M x M block of the non-rusher parameters (``_HessianParts``)
    to ``out``."""
    k, nb = sums.shape[0], sums.shape[-1]
    total = sums.sum(axis=-1)
    block = out.reshape(k, 2 + nb, k, 2 + nb)  # [class a, row, class b, column]
    # the intercept / double-team head: [[sum W, sum W dt], [sum W dt, sum W dt]]
    block[:, :2, :, :2] += total[..., [[0, 1], [1, 1]]].transpose(0, 2, 1, 3)
    block[:, :2, :, 2:] -= sums.transpose(0, 2, 1, 3)
    block[:, 2:, :, :2] -= sums.transpose(0, 3, 1, 2)
    # einsum views of the diagonals: each blocker's own entry, then all of them
    np.einsum("aibi->abi", block[:, 2:, :, 2:])[...] += sums[:, :, 0]
    np.einsum("ii->i", out)[...] += ridge


def _forward(L: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solve ``L[j] X[j] = Y[j]`` for lower-triangular K x K blocks ``L[j]``,
    overwriting ``Y`` with ``X``."""
    for a in range(L.shape[1]):
        for c in range(a):
            Y[:, a] -= L[:, a, c, None] * Y[:, c]
        Y[:, a] /= L[:, a, a, None]
    return Y


def _coupling_product(design: _Design, probs, weights, x_rest: np.ndarray) -> np.ndarray:
    """The (R, K) rusher rows ``C x`` of the Hessian-vector product for a
    vector ``x`` that is zero on the rusher columns.

    ``x_rest`` (K, 2 + B) holds x's intercept, double-team and blocker
    entries.  Row i's class-a term of ``X^T W X x`` is
    ``w p_a (eta_a - sum_b p_b eta_b)`` for the linear predictors eta of
    x, summed per rusher; the ridge adds nothing off the rusher columns.
    """
    k = x_rest.shape[0]
    eta = x_rest[:, 1:2] * design.double_team
    eta += x_rest[:, :1]
    eta -= np.take(x_rest[:, 2:], design.blocker, axis=1)
    p = probs[1:]
    eta *= p
    eta -= p * eta.sum(axis=0)
    eta *= weights
    out = np.empty((design.n_rushers, k))
    for a, row in enumerate(eta):
        out[:, a] = design.per_rusher(row)
    return out


def _newton_direction(design: _Design, probs, lam, weights, grad: np.ndarray):
    """Solve ``H x = -grad`` by a Schur complement over the rusher blocks,
    for the penalized Hessian H at the class probabilities ``probs``.

    With ``H = [[A, C], [C^T, D]]``, ``A = L L^T`` block by block and
    ``G = L^-1 C``, only ``S = D - G^T G`` (M x M) is factored densely.
    G^T G and the factor of S come from numpy's BLAS and LAPACK, and the
    one solve with that factor (LAPACK ``dpotrs``, a single right-hand
    side) reads it in place: scipy links its own OpenBLAS, and a step
    that alternates the two libraries' thread pools spends more time
    waiting on them than computing.  G overwrites C, S overwrites the
    buffer of G^T G (D is added from its sparse sums), and G is released
    before S is factored.  The rusher rows then solve
    ``A x_rusher = -grad_rusher - C x_rest`` block by block, with
    ``C x_rest`` a Hessian-vector product over the cells
    (``_coupling_product``) rather than a product with G.

    Returns the class-major direction.  A factor that is not positive
    definite raises ``_FactorError``.
    """
    rusher, coupling, rest_sums, rest_ridge = _hessian_parts(design, probs, lam, weights)
    r, k, m = coupling.shape
    try:
        L = np.linalg.cholesky(rusher)
    except np.linalg.LinAlgError:
        for j, block in enumerate(rusher):
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                raise _FactorError(j) from None
        raise
    g = grad.reshape(k, design.n_columns)
    rushers, rest_columns = design.rusher_columns, design.rest_columns
    G = _forward(L, coupling).reshape(r * k, m)
    u = _forward(L, -g[:, rushers].T[:, :, None]).ravel()
    rhs = -g[:, rest_columns].ravel() - G.T @ u
    # np.dot computes G^T G as a symmetric rank-k update
    schur = np.dot(G.T, G)
    del G, coupling
    np.negative(schur, out=schur)
    _add_rest(schur, rest_sums, rest_ridge)
    try:
        factor = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        raise _FactorError(None) from None
    del schur
    # factor.T is the upper factor U = L^T in column-major order, so LAPACK reads it in place
    x_rest = scipy.linalg.lapack.dpotrs(factor.T, rhs, lower=0)[0].reshape(k, -1)
    # the rusher rows of H x = -grad: A x_rusher = -grad_rusher - C x_rest
    b = -g[:, rushers].T - _coupling_product(design, probs, weights, x_rest)
    x_rusher = np.linalg.solve(rusher, b[:, :, None])
    direction = np.empty_like(g)
    direction[:, rushers] = x_rusher[:, :, 0].T
    direction[:, rest_columns] = x_rest
    return direction.ravel()


def _take_step(value_grad_fn, theta, state, direction):
    """Armijo backtracking step with a gradient-norm endgame rule.

    ``state`` is ``value_grad_fn(theta)``: (objective, gradient, class
    probabilities).  Returns the new point, its state and whether it
    moved; it does not move along a direction whose slope is not
    negative.

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


def _solve(design, class_idx, n_classes, lam, theta0, tol, max_iter, weights):
    """Damped Newton over the K = n_classes - 1 non-reference classes,
    from ``theta0`` or else the intercept-only optimum.

    ``lam`` > 0 makes the Hessian positive definite; a factor that is not
    raises ``_FactorError``.
    """
    k, d = n_classes - 1, design.n_columns
    if theta0 is not None:
        theta = np.array(theta0, dtype=float).ravel()
        if theta.size != k * d:
            raise ValueError(
                f"theta0 has {theta.size} entries, not {k} x {d} for the index's columns"
            )
    else:
        theta = _intercept_start(class_idx, n_classes, weights, d).ravel()

    def value_grad(th):
        return _objective(th, design, class_idx, n_classes, lam, weights)

    state = value_grad(theta)
    iterations = 0
    while np.abs(state[1]).max() > tol and iterations < max_iter:
        iterations += 1
        direction = _newton_direction(design, state[2], lam, weights, state[1])
        theta, state, moved = _take_step(value_grad, theta, state, direction)
        if not moved:
            break
    theta = theta.reshape(k, d)
    nll = state[0] - lam * float(np.sum(design.penalty[None, :] * theta * theta))
    return _Solution(theta, nll, float(np.abs(state[1]).max()), iterations)


class _FactorError(FitError):
    """A Newton step's factor is not positive definite: ``args[0]`` is the
    design position of the rusher whose block failed, None for the Schur
    complement."""


def _converged(what: str, rushers: Sequence[str], design, class_idx, n_classes, lam, theta0,
               tol, max_iter, weights) -> _Solution:
    """``_solve``'s solution; a factor that is not positive definite or a
    fit that does not converge is a FitError naming ``what`` failed, and
    a rusher by its id in ``rushers``."""
    try:
        solution = _solve(design, class_idx, n_classes, lam, theta0, tol, max_iter, weights)
    except _FactorError as exc:
        (position,) = exc.args
        factor = ("the Schur complement" if position is None
                  else f"the block of rusher {rushers[position]!r}")
        raise FitError(f"{what} at lam={lam:g}: {factor} is not positive definite") from None
    if not solution.grad_sup <= tol:
        raise FitError(
            f"{what} did not converge at lam={lam:g}: gradient sup-norm "
            f"{solution.grad_sup:.3e} after {solution.iterations} iterations (tol {tol:.1e})"
        )
    return solution


# ---------------------------------------------------------------------------
# Fits


def check_penalty(lam: float) -> None:
    """A ridge penalty must be finite and > 0 (NaN is neither)."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and > 0, got {lam}")


def check_solver_options(tol: float, max_iter: int) -> None:
    """The gradient tolerance must be finite and > 0 and the iteration cap
    an integer >= 1."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def _row_weights(weights, n_rows: int, *, fit: bool = True) -> np.ndarray:
    """One float weight per row, finite and nonnegative, and for a ``fit``
    at least one positive."""
    if weights is None:
        return np.ones(n_rows)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_rows,):
        raise DataError(f"row/weight length mismatch: {n_rows} vs {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DataError("row weights must be finite and nonnegative")
    if fit and not w.sum() > 0:
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


def _ids(vocab: Sequence[str], codes: np.ndarray) -> tuple[str, ...]:
    return tuple(map(vocab.__getitem__, codes.tolist()))


def _fit_cells(
    table, weights, model, lam, *, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, theta0=None
) -> Fit:
    """The one fit behind ``fit_coded``, ``fit_win_model`` and
    ``fit_severity_model``; its warnings point at their caller."""
    if model not in _MODELS:
        raise ValueError(f"model must be 'win' or 'severity', got {model!r}")
    check_penalty(lam)
    check_solver_options(tol, max_iter)
    design, outcome, cell_w, rushers, blockers = _cells(
        table, _row_weights(weights, len(table)), model
    )
    modeled, dropped, class_idx = _class_coding(model, outcome, cell_w)
    if dropped:
        warnings.warn(
            f"{DROPPED_CLASSES_WARNING}: " + ", ".join(c.label for c in dropped),
            RuntimeWarning,
            stacklevel=3,
        )
    if not modeled:
        raise DataError("severity fit needs at least one non-loss class in training")

    rusher_ids = _ids(table.rushers, rushers)
    solution = _converged(f"{model} fit", rusher_ids, design, class_idx,
                          len(modeled) + 1, lam, theta0, tol, max_iter, cell_w)
    return Fit(
        model=model, classes=modeled, dropped=dropped, theta=solution.theta, rushers=rusher_ids,
        blockers=_ids(table.blockers, blockers), lam=lam, neg_loglik=solution.nll,
        grad_norm=solution.grad_sup, iterations=solution.iterations,
    )


def fit_coded(
    table: InteractionTable, weights: np.ndarray, model: str, lam: float, **kwargs
) -> Fit:
    """Fit ``model`` ("win" or "severity") with row i counted weights[i] times.

    Rows are first merged into (rusher, blocker, double_team, outcome)
    cells, so the solver sees one design row per distinct cell.  Players
    whose rows all have zero weight are left out of the fit, so they
    get no effect (rather than the prior mean) in the result.  Classes
    without a row of positive weight are dropped from the softmax with a
    warning.  ``lam`` must be finite and > 0 (``check_penalty``); a
    separated table then still has a finite optimum.
    """
    return _fit_cells(table, weights, model, lam, **kwargs)


def fit_win_model(table: InteractionTable, lam: float, **kwargs) -> Fit:
    """Binary fit of every row of a table: ``fit_coded`` with unit weights."""
    return _fit_cells(table, np.ones(len(table)), "win", lam, **kwargs)


def fit_severity_model(table: InteractionTable, lam: float, **kwargs) -> Fit:
    """Severity fit of every row of a table: ``fit_coded`` with unit weights."""
    return _fit_cells(table, np.ones(len(table)), "severity", lam, **kwargs)


# ---------------------------------------------------------------------------
# Prediction


def _effects_on(theta: np.ndarray, keys, wanted) -> tuple[np.ndarray, np.ndarray]:
    """The (K, n) rusher and blocker effects of ``theta``, whose player
    columns belong to the sorted rusher and blocker ``keys``, for the
    ``wanted`` rusher and blocker keys; 0 for a player ``keys`` lacks."""
    split = 2 + len(keys[0])
    return (gather(keys[0], theta[:, 2:split], wanted[0], 0.0),
            gather(keys[1], theta[:, split:], wanted[1], 0.0))


def _row_etas(theta, rusher_rows, blocker_rows, double_team) -> np.ndarray:
    """(K, n) linear predictors of rows whose rusher and blocker effects
    are ``rusher_rows`` and ``blocker_rows`` (K, n)."""
    return theta[:, :1] + rusher_rows - blocker_rows + theta[:, 1:2] * double_team


def _class_prob_matrix(eta: np.ndarray, classes: Sequence[OutcomeClass]) -> np.ndarray:
    """(n, 4) class probabilities of (K, n) linear predictors, columns in
    severity order, dropped classes at 0."""
    full = np.zeros((eta.shape[1], len(classes) + 1))
    full[:, 1:] = eta.T
    full -= full.max(axis=1, keepdims=True)
    weights = np.exp(full)
    probs = weights / weights.sum(axis=1, keepdims=True)
    out = np.zeros((eta.shape[1], len(CLASSES)))
    out[:, int(OutcomeClass.LOSS)] = probs[:, 0]
    out[:, list(classes)] = probs[:, 1:]
    return out


def _table_etas(fit: Fit, table: InteractionTable, model: str) -> np.ndarray:
    """(K, n) linear predictors of a table's rows by a ``model`` fit;
    unseen players get effect 0."""
    if fit.model != model:
        raise ValueError(f"expected a {model!r} fit, got a {fit.model!r} fit")
    ids = [np.array(v, dtype=object)
           for v in (fit.rushers, fit.blockers, table.rushers, table.blockers)]
    rusher, blocker = _effects_on(fit.theta, ids[:2], ids[2:])
    return _row_etas(fit.theta, rusher[:, table.rusher], blocker[:, table.blocker],
                     table.double_team.astype(float))


def predict_win_probs(fit: Fit, table: InteractionTable) -> np.ndarray:
    """Win probability of every row of a table; unseen players get effect 0."""
    return expit(_table_etas(fit, table, "win")[0])


def predict_class_prob_matrix(fit: Fit, table: InteractionTable) -> np.ndarray:
    """(n, 4) class probabilities of a table's rows, columns in severity
    order; unseen players get effect 0 and dropped classes probability 0."""
    return _class_prob_matrix(_table_etas(fit, table, "severity"), fit.classes)


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
    remapped onto fold f's players by their codes, players new to fold f
    at 0.  It starts cold, as fold 0 does, when the two folds model
    different classes: from the intercept-only optimum.  The starts
    change iteration counts, not the optimum beyond ``tol``.

    Every grid value must be finite and > 0 (``check_penalty``), and the
    whole grid and the solver options are checked before the first fold.
    """
    from .evaluate import binary_log_loss, multiclass_log_loss

    if target not in _MODELS:
        raise ValueError(f"target must be 'win' or 'severity', got {target!r}")
    lambdas = np.asarray(DEFAULT_LAMBDA_GRID if grid is None else list(grid), dtype=float)
    if lambdas.size == 0:
        raise ValueError("lambda grid must be nonempty")
    for lam in lambdas:
        check_penalty(lam)
    check_solver_options(tol, max_iter)
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")

    labels = cv_fold_labels(table, n_folds)
    desc = np.sort(lambdas)[::-1]
    fold_losses = np.zeros((n_folds, desc.size))
    chained = None  # the previous fold's classes, its solution at the largest lambda and codes

    for fold in range(n_folds):
        in_fold = labels == fold
        if in_fold.all() or not in_fold.any():
            raise DataError(f"fold {fold} is empty")
        design, outcome, cell_w, *codes = _cells(table, (~in_fold).astype(float), target)
        modeled, _, class_idx = _class_coding(target, outcome, cell_w)
        if not modeled:
            raise DataError(f"fold {fold}: training split has no non-loss class")
        held = table.rusher[in_fold], table.blocker[in_fold]
        held_dt = table.double_team[in_fold].astype(float)
        theta = None
        if chained is not None and chained[0] == modeled:
            prev = chained[1]
            theta = np.hstack([prev[:, :2], *_effects_on(prev, chained[2], codes)])
        rushers = _ids(table.rushers, codes[0])
        for j, lam in enumerate(desc):
            theta = _converged(f"cv fold {fold} {target} fit", rushers, design,
                               class_idx, len(modeled) + 1, lam, theta, tol, max_iter,
                               cell_w).theta
            if j == 0:
                chained = modeled, theta, codes
            eta = _row_etas(theta, *_effects_on(theta, codes, held), held_dt)
            if target == "win":
                fold_losses[fold, j] = binary_log_loss(expit(eta[0]), table.win[in_fold])
            else:
                fold_losses[fold, j] = multiclass_log_loss(
                    _class_prob_matrix(eta, modeled), table.severity[in_fold]
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

_PARAMETERS = ("alpha", "delta", "rusher_effects", "blocker_effects")


def fit_to_json_dict(fit: Fit) -> dict:
    """Serializable form of a fit, keyed by player id and class label."""
    # each parameter's values, one per class
    by_class = [fit.theta[:, 0].tolist(), fit.theta[:, 1].tolist()] + [
        [dict(zip(ids, row)) for row in effects.tolist()]
        for ids, effects in map(fit.effects, ("rusher", "blocker"))
    ]
    if fit.model == "win":
        params = {key: values[0] for key, values in zip(_PARAMETERS, by_class)}
    else:
        labels = [c.label for c in fit.classes]
        params = {"classes": labels, "dropped": [c.label for c in fit.dropped]}
        for key, values in zip(_PARAMETERS, by_class):
            params[key] = dict(zip(labels, values))
    return {
        "model": fit.model,
        "lambda": fit.lam,
        **params,
        "neg_loglik": fit.neg_loglik,
        "grad_norm": fit.grad_norm,
        "iterations": fit.iterations,
    }


def fit_from_json_dict(raw: dict) -> Fit:
    """The fit ``fit_to_json_dict`` wrote.

    Its theta runs over the sorted union of the player ids the effects
    name, so a player missing from one severity class's effects reads as
    0 in that class: the effect prediction and ``model_scores`` give any
    player a fit lacks.  A missing key or a parameter that is not a
    number is a DataError naming it.
    """
    try:
        return _fit_from_json(raw)
    except KeyError as exc:
        raise DataError(f"fit JSON has no key {exc.args[0]!r}") from None


def _number(value, key: str, player: str | None = None) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    where = f"fit JSON {key!r}" + ("" if player is None else f" of player {player!r}")
    raise DataError(f"{where} is not a number: {value!r}")


def _mapping(value, key: str) -> dict:
    if isinstance(value, dict):
        return value
    raise DataError(f"fit JSON {key!r} is not an object: {value!r}")


def _fit_from_json(raw: dict) -> Fit:
    model = raw["model"]
    if model == "win":
        classes, dropped = (OutcomeClass.WIN,), ()
        per_class = {key: {OutcomeClass.WIN: raw[key]} for key in _PARAMETERS}
    elif model == "severity":
        classes = tuple(OutcomeClass.from_label(s) for s in raw["classes"])
        dropped = tuple(OutcomeClass.from_label(s) for s in raw["dropped"])
        per_class = {}
        for key in _PARAMETERS:
            per_class[key] = {
                OutcomeClass.from_label(s): v for s, v in _mapping(raw[key], key).items()
            }
            missing = [c.label for c in classes if c not in per_class[key]]
            if missing:
                raise DataError(f"fit JSON {key!r} has no key {missing[0]!r}")
    else:
        raise DataError(f"unknown model type in fit JSON: {raw.get('model')!r}")
    ids = {}
    for key in ("rusher_effects", "blocker_effects"):
        effects = per_class[key] = {c: _mapping(per_class[key][c], key) for c in classes}
        ids[key] = sorted(set().union(*effects.values()))
    column = {
        key: {pid: offset + j for j, pid in enumerate(ids[key])}
        for key, offset in (("rusher_effects", 2),
                            ("blocker_effects", 2 + len(ids["rusher_effects"])))
    }
    theta = np.zeros((len(classes), 2 + sum(map(len, ids.values()))))
    for row, cls in zip(theta, classes):
        row[0] = _number(per_class["alpha"][cls], "alpha")
        row[1] = _number(per_class["delta"][cls], "delta")
        for key, columns in column.items():
            for pid, value in per_class[key][cls].items():
                row[columns[pid]] = _number(value, key, pid)
    return Fit(
        model=model,
        classes=classes,
        dropped=dropped,
        theta=theta,
        rushers=tuple(ids["rusher_effects"]),
        blockers=tuple(ids["blocker_effects"]),
        lam=raw["lambda"],
        neg_loglik=raw["neg_loglik"],
        grad_norm=raw["grad_norm"],
        iterations=raw["iterations"],
    )

import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import expit

from trenchrank import fit as fit_module
from trenchrank.errors import DataError, FitError
from trenchrank.evaluate import binary_log_loss, multiclass_log_loss
from trenchrank.fit import (
    DEFAULT_LAMBDA_GRID,
    Fit,
    cv_fold_labels,
    fit_coded,
    cv_select_lambda,
    fit_from_json_dict,
    fit_severity_model,
    fit_to_json_dict,
    fit_win_model,
    predict_class_prob_matrix,
    predict_win_probs,
    select_lambda_min,
)
from trenchrank.interactions import CLASSES, OutcomeClass
from trenchrank.synth import SynthConfig, synth_generate

from conftest import (
    BAD_PENALTIES,
    BAD_SOLVER_OPTIONS,
    dense_hessian,
    design_matrix,
    dict_fit,
    fit_cells,
    fit_index,
    make_row,
    penalty_mask,
    random_table,
    rows_of,
    table_index,
    table_of,
    theta_on_index,
    win_effects,
)

# ---------------------------------------------------------------------------
# Independent oracles: dense objective formulas recoded from the math and a
# deliberately naive descent loop. These share no code with the solvers.


def dense_binary_obj(theta, Xd, y, lam, pen):
    eta = Xd @ theta
    nll = np.sum(np.logaddexp(0.0, eta)) - y @ eta
    return nll + lam * np.sum(pen * theta**2)


def dense_binary_grad(theta, Xd, y, lam, pen):
    p = 1.0 / (1.0 + np.exp(-(Xd @ theta)))
    return Xd.T @ (p - y) + 2.0 * lam * pen * theta


def dense_multinomial_obj(Theta, Xd, cls, lam, pen):
    """Theta has one column per non-reference class; class 0 is pinned."""
    eta = np.hstack([np.zeros((Xd.shape[0], 1)), Xd @ Theta])
    lse = np.log(np.exp(eta - eta.max(axis=1, keepdims=True)).sum(axis=1))
    lse += eta.max(axis=1)
    nll = np.sum(lse - eta[np.arange(len(cls)), cls])
    return nll + lam * np.sum(pen[:, None] * Theta**2)


def dense_multinomial_grad(Theta, Xd, cls, lam, pen):
    eta = np.hstack([np.zeros((Xd.shape[0], 1)), Xd @ Theta])
    p = np.exp(eta - eta.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    onehot = np.equal.outer(cls, np.arange(eta.shape[1])).astype(float)
    return Xd.T @ (p - onehot)[:, 1:] + 2.0 * lam * pen[:, None] * Theta


def slow_descent(obj, grad, x0, max_iter=200_000, gtol=1e-6):
    """Backtracking steepest descent; slow but hard to get wrong.

    gtol=1e-6 leaves an objective suboptimality around ||g||^2 / (2 mu),
    far below the 1e-6 relative comparisons made against it.
    """
    x = np.asarray(x0, dtype=float)
    f = obj(x)
    for _ in range(max_iter):
        g = grad(x)
        if np.abs(g).max() <= gtol:
            break
        t = 1.0
        while t > 1e-18:
            cand = x - t * g
            fc = obj(cand)
            if fc <= f - 1e-4 * t * (g @ g):
                x, f = cand, fc
                break
            t *= 0.5
        else:
            break  # rounding noise: no step improves f any further
    return x, f


def binary_problem(rng, n_rows=None):
    n_rows = n_rows or int(rng.integers(20, 51))
    t = random_table(
        rng,
        n_rows=n_rows,
        n_rushers=int(rng.integers(2, 6)),
        n_blockers=int(rng.integers(2, 6)),
        n_games=2,
    )
    idx = table_index(t)
    X = design_matrix(t, idx)
    y = np.array([float(r.win_target) for r in rows_of(t)])
    return t, idx, X, y


def cell_objective(table, model, weights=None):
    """The objective a table fit minimizes, over its cells (``fit._cells``):
    a function of the flat parameters and lam that returns the objective
    and its gradient; with the cells' index and the number of classes,
    the reference class included."""
    w = np.ones(len(table)) if weights is None else weights
    design, outcome, cell_w, idx = fit_cells(table, w, model)
    modeled, _, class_idx = fit_module._class_coding(model, outcome, cell_w)
    n_classes = len(modeled) + 1

    def value_grad(theta, lam):
        obj, grad, _ = fit_module._objective(theta, design, class_idx, n_classes, lam, cell_w)
        return obj, grad

    return value_grad, idx, n_classes


def row_design(table):
    """Solver codes with one design row per table row (no cells), over
    ``table_index(table)``; rows line up with ``design_matrix``'s."""
    return fit_module._Design(
        rusher=table.rusher,
        blocker=table.blocker,
        double_team=table.double_team.astype(float),
        n_rushers=len(table.rushers),
        n_blockers=len(table.blockers),
    )


def separated_table(model):
    """A table whose unpenalized ``model`` fit has no finite optimum."""
    if model == "win":
        # R1 beats B1 in every row: the MLE pushes effects to infinity
        rows = [
            make_row(idx=i, rusher="R1", blocker="B1", win=True) for i in range(10)
        ] + [make_row(idx=10 + i, rusher="R2", blocker="B1", win=False) for i in range(10)]
        return table_of(rows)
    # every row of R1 is a sack: the MLE pushes its sack effect to infinity
    rows = [
        make_row(idx=i, rusher="R1", blocker="B1", win=True, severity=OutcomeClass.SACK)
        for i in range(10)
    ] + [
        make_row(idx=10 + i, rusher="R2", blocker="B1", win=i % 4 > 0,
                 severity=OutcomeClass(i % 4))
        for i in range(12)
    ]
    return table_of(rows)


class TestSeparationWarning:
    @pytest.mark.parametrize("model", ["win", "severity"])
    def test_penalized_fit_does_not_warn(self, model):
        # the ridge gives a separated table a finite optimum, so no fit warns
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            t = separated_table(model)
            fit = fit_coded(t, np.ones(len(t)), model, 0.1)
        assert fit.grad_norm <= fit_module.DEFAULT_TOL


class TestBinaryGradient:
    def test_matches_central_differences(self, rng):
        for _ in range(5):
            t = binary_problem(rng)[0]
            lam = float(rng.uniform(0.01, 1.0))
            for w in (None, rng.uniform(0.0, 3.0, size=len(t))):
                value_grad, idx, _ = cell_objective(t, "win", w)
                theta = rng.normal(scale=0.4, size=idx.n_columns)
                _, g = value_grad(theta, lam)
                h = 1e-6
                for j in range(idx.n_columns):
                    e = np.zeros_like(theta)
                    e[j] = h
                    fp, _ = value_grad(theta + e, lam)
                    fm, _ = value_grad(theta - e, lam)
                    fd = (fp - fm) / (2 * h)
                    assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_objective_equals_dense_formula(self, rng):
        t, idx, X, y = binary_problem(rng)
        value_grad, cell_idx, _ = cell_objective(t, "win")
        assert cell_idx == idx
        pen = penalty_mask(idx)
        theta = rng.normal(scale=0.5, size=idx.n_columns)
        f, _ = value_grad(theta, 0.3)
        assert f == pytest.approx(dense_binary_obj(theta, X.toarray(), y, 0.3, pen), rel=1e-12)


class TestMultinomialGradient:
    def test_matches_central_differences(self, rng):
        for _ in range(3):
            t = random_table(rng, n_rows=int(rng.integers(20, 41)))
            lam = float(rng.uniform(0.01, 1.0))
            for w in (None, rng.uniform(0.0, 3.0, size=len(t))):
                value_grad, idx, n_classes = cell_objective(t, "severity", w)
                theta = rng.normal(scale=0.4, size=(n_classes - 1) * idx.n_columns)
                _, g = value_grad(theta, lam)
                h = 1e-6
                for j in range(theta.size):
                    e = np.zeros_like(theta)
                    e[j] = h
                    fp, _ = value_grad(theta + e, lam)
                    fm, _ = value_grad(theta - e, lam)
                    fd = (fp - fm) / (2 * h)
                    assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestBinarySolver:
    def test_matches_slow_descent_oracle(self, rng):
        for _ in range(6):
            t, idx, X, y = binary_problem(rng)
            pen = penalty_mask(idx)
            lam = float(rng.uniform(0.05, 0.5))
            fit = fit_win_model(t, lam)
            Xd = X.toarray()
            _, f_oracle = slow_descent(
                lambda v: dense_binary_obj(v, Xd, y, lam, pen),
                lambda v: dense_binary_grad(v, Xd, y, lam, pen),
                np.zeros(idx.n_columns),
            )
            assert fit_index(fit) == idx
            theta = theta_on_index(fit, idx)[0]
            f_fit = dense_binary_obj(theta, Xd, y, lam, pen)
            assert f_fit == pytest.approx(f_oracle, rel=1e-6, abs=1e-9)
            # the solver should never be worse than the oracle's optimum
            assert f_fit <= f_oracle + 1e-7 * max(1.0, abs(f_oracle))

    def test_gradient_norm_meets_tolerance(self, rng):
        t, idx, X, y = binary_problem(rng)
        fit = fit_win_model(t, 0.2, tol=1e-10)
        assert fit.grad_norm <= 1e-10
        assert fit.iterations >= 1

    def test_reported_nll_is_unpenalized(self, rng):
        t, idx, X, y = binary_problem(rng)
        fit = fit_win_model(t, 0.7)
        theta = theta_on_index(fit, idx)[0]
        assert fit.neg_loglik == pytest.approx(
            dense_binary_obj(theta, X.toarray(), y, 0.0, penalty_mask(idx)), rel=1e-10
        )

    def test_deterministic(self, rng):
        t, idx, X, y = binary_problem(rng)
        a = fit_win_model(t, 0.1)
        b = fit_win_model(t, 0.1)
        assert a == b

    def test_warm_start_reaches_same_optimum(self, rng):
        t, idx, X, y = binary_problem(rng)
        cold = fit_win_model(t, 0.2)
        theta0 = rng.normal(scale=0.3, size=idx.n_columns)
        warm = fit_win_model(t, 0.2, theta0=theta0)
        assert warm.rushers == cold.rushers
        np.testing.assert_allclose(warm.theta, cold.theta, rtol=0, atol=1e-6)

    def test_negative_lambda_rejected(self, rng):
        t, idx, X, y = binary_problem(rng)
        with pytest.raises(ValueError):
            fit_win_model(t, -1.0)

    def test_length_mismatch_rejected(self, rng):
        t, idx, X, y = binary_problem(rng)
        with pytest.raises(DataError, match="length mismatch"):
            fit_coded(t, np.ones(len(t) - 1), "win", 0.1)

    def test_shrinkage_limit_recovers_base_rate(self, rng):
        t, idx, X, y = binary_problem(rng, n_rows=50)
        fit = fit_win_model(t, 1e6)
        probs = predict_win_probs(fit, t)
        assert np.allclose(probs, y.mean(), atol=1e-3)


class TestMultinomialSolver:
    def test_matches_slow_descent_oracle(self, rng):
        for _ in range(4):
            t = random_table(rng, n_rows=int(rng.integers(30, 51)))
            idx = table_index(t)
            classes = [r.severity for r in rows_of(t)]
            lam = float(rng.uniform(0.05, 0.5))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fit = fit_severity_model(t, lam)
            pen = penalty_mask(idx)
            Xd = design_matrix(t, idx).toarray()
            model_classes = (OutcomeClass.LOSS,) + fit.classes
            order = {c: k for k, c in enumerate(model_classes)}
            cls = np.array([order[c] for c in classes])
            k = len(fit.classes)
            flat0 = np.zeros(idx.n_columns * k)

            def obj(v):
                return dense_multinomial_obj(
                    v.reshape(k, -1).T, Xd, cls, lam, pen
                )

            def grad(v):
                return dense_multinomial_grad(
                    v.reshape(k, -1).T, Xd, cls, lam, pen
                ).T.ravel()

            _, f_oracle = slow_descent(obj, grad, flat0)
            assert fit_index(fit) == idx
            Theta = theta_on_index(fit, idx).T
            f_fit = dense_multinomial_obj(Theta, Xd, cls, lam, pen)
            assert f_fit == pytest.approx(f_oracle, rel=1e-6, abs=1e-9)

    def test_two_classes_match_binary_fit(self, rng):
        for _ in range(4):
            rows = []
            base = random_table(rng, n_rows=int(rng.integers(25, 45)))
            for r in rows_of(base):
                sev = OutcomeClass.WIN if r.severity >= OutcomeClass.WIN else OutcomeClass.LOSS
                rows.append(
                    make_row(
                        game=r.game_id,
                        play=r.play_id,
                        idx=r.event_game_index,
                        week=r.week,
                        rusher=r.rusher_id,
                        blocker=r.blocker_id,
                        double=r.double_team,
                        win=sev is OutcomeClass.WIN,
                        severity=sev,
                    )
                )
            t = table_of(rows)
            lam = float(rng.uniform(0.05, 0.4))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sev_fit = fit_severity_model(t, lam)
            win_fit = fit_win_model(t, lam)
            p_bin = predict_win_probs(win_fit, t)
            p_mult = predict_class_prob_matrix(sev_fit, t)[:, OutcomeClass.WIN]
            assert p_mult == pytest.approx(p_bin, abs=1e-6)

    def test_unobserved_classes_dropped_with_warning(self, rng):
        rows = [
            make_row(idx=i, rusher=f"R{i % 3}", severity=OutcomeClass.WIN if i % 2 else OutcomeClass.LOSS)
            for i in range(20)
        ]
        t = table_of(rows)
        with pytest.warns(RuntimeWarning, match="dropped"):
            fit = fit_severity_model(t, 0.1)
        assert fit.dropped == (OutcomeClass.HIT, OutcomeClass.SACK)
        assert fit.classes == (OutcomeClass.WIN,)
        probs = predict_class_prob_matrix(fit, t)[0]
        assert probs[OutcomeClass.HIT] == 0.0
        assert probs[OutcomeClass.SACK] == 0.0

    @pytest.mark.parametrize("entry", ["fit_severity_model", "fit_coded"])
    def test_dropped_class_warning_points_at_caller(self, entry):
        rows = [
            make_row(idx=i, rusher=f"R{i % 3}", severity=OutcomeClass(i % 2)) for i in range(20)
        ]
        t = table_of(rows)
        fits = {
            "fit_severity_model": lambda: fit_severity_model(t, 0.1),
            "fit_coded": lambda: fit_coded(t, np.ones(len(t)), "severity", 0.1),
        }
        with pytest.warns(RuntimeWarning, match="dropped") as record:
            fits[entry]()
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_all_loss_table_rejected(self):
        rows = [make_row(idx=i, severity=OutcomeClass.LOSS) for i in range(8)]
        with pytest.raises(DataError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fit_severity_model(table_of(rows), 0.1)

    def test_probabilities_sum_to_one(self, rng, small_table):
        fit = fit_severity_model(small_table, 0.3)
        M = predict_class_prob_matrix(fit, small_table)
        assert M.shape == (len(small_table), 4)
        assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(M >= 0)

    def test_shrinkage_limit_recovers_class_frequencies(self, rng, small_table):
        fit = fit_severity_model(small_table, 1e6)
        M = predict_class_prob_matrix(fit, small_table)
        counts = np.bincount([int(r.severity) for r in rows_of(small_table)], minlength=4)
        freqs = counts / len(small_table)
        assert np.allclose(M, freqs[None, :], atol=1e-3)

    def test_loss_reference_never_dropped(self, rng):
        # no LOSS rows at all: reference class must survive with zero
        # training mass rather than being dropped
        rows = [
            make_row(idx=i, severity=OutcomeClass.WIN if i % 2 else OutcomeClass.SACK, win=bool(i % 2))
            for i in range(16)
        ]
        with pytest.warns(RuntimeWarning, match="dropped"):
            fit = fit_severity_model(table_of(rows), 0.2)
        assert fit.dropped == (OutcomeClass.HIT,)
        assert OutcomeClass.LOSS not in fit.dropped
        probs = predict_class_prob_matrix(fit, table_of(rows))[0]
        assert probs[OutcomeClass.HIT] == 0.0
        assert probs[OutcomeClass.LOSS] >= 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def _assert_fits_close(a, b, tol):
    assert (a.model, a.classes, a.dropped) == (b.model, b.classes, b.dropped)
    assert (a.rushers, a.blockers) == (b.rushers, b.blockers)
    np.testing.assert_allclose(a.theta, b.theta, rtol=0, atol=tol)


def fit_rows(model, table, lam):
    """Reference fit of every row of a table with one solver design row per
    table row (``row_design``), where a table fit merges rows into cells."""
    outcome = table.win.astype(np.intp) if model == "win" else table.severity
    w = np.ones(len(table))
    modeled, dropped, class_idx = fit_module._class_coding(model, outcome, w)
    solution = fit_module._solve(
        row_design(table), class_idx, len(modeled) + 1, lam, None,
        fit_module.DEFAULT_TOL, fit_module.DEFAULT_MAX_ITER, w,
    )
    assert solution.grad_sup <= fit_module.DEFAULT_TOL
    return Fit(
        model=model, classes=modeled, dropped=dropped, theta=solution.theta,
        rushers=table.rushers, blockers=table.blockers, lam=lam, neg_loglik=solution.nll,
        grad_norm=solution.grad_sup, iterations=solution.iterations,
    )


class TestWeightedFits:
    @pytest.mark.parametrize("model", ["win", "severity"])
    def test_integer_weights_equal_repeated_rows(self, rng, model):
        for _ in range(3):
            t = random_table(rng, n_rows=40)
            w = rng.integers(1, 4, size=len(t))
            repeated = table_of([r for r, k in zip(rows_of(t), w) for _ in range(k)])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                weighted = fit_coded(t, w, model, 0.3)
                copies = fit_rows(model, repeated, 0.3)
            _assert_fits_close(weighted, copies, 1e-10)
            assert weighted.neg_loglik == pytest.approx(copies.neg_loglik, rel=1e-10)

    @pytest.mark.parametrize("model", ["win", "severity"])
    def test_zero_weight_equals_removed_row(self, rng, model):
        t = random_table(rng, n_rows=40)
        w = np.ones(len(t))
        w[[3, 17]] = 0.0
        kept = table_of([r for r, k in zip(rows_of(t), w) if k])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            weighted = fit_coded(t, w, model, 0.3)
            removed = fit_rows(model, kept, 0.3)
        _assert_fits_close(weighted, removed, 1e-10)

    def test_bad_weights_rejected(self, rng):
        t, idx, X, y = binary_problem(rng)
        for bad in (np.ones(len(y) - 1), -np.ones(len(y)), np.zeros(len(y))):
            with pytest.raises(DataError):
                fit_coded(t, bad, "win", 0.1)

    def test_zero_weight_class_is_dropped(self):
        rows = [
            make_row(idx=i, rusher=f"R{i % 3}", severity=OutcomeClass(i % 3)) for i in range(21)
        ]
        t = table_of(rows)
        w = np.array([0.0 if r.severity is OutcomeClass.HIT else 1.0 for r in rows_of(t)])
        with pytest.warns(RuntimeWarning, match="dropped"):
            fit = fit_coded(t, w, "severity", 0.1)
        assert fit.dropped == (OutcomeClass.HIT, OutcomeClass.SACK)

    @pytest.mark.parametrize("model", ["win", "severity"])
    def test_fit_coded_matches_table_fit(self, rng, model):
        t = random_table(rng, n_rows=120)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cells = fit_coded(t, np.ones(len(t)), model, 0.4)
            rows = (fit_win_model if model == "win" else fit_severity_model)(t, 0.4)
        _assert_fits_close(cells, rows, 1e-12)

    @pytest.mark.parametrize("model", ["win", "severity"])
    def test_table_fit_matches_row_design(self, rng, model):
        # fit_*_model runs on weighted cells; the reference fits one
        # design row per table row
        for _ in range(3):
            t = random_table(rng, n_rows=120, n_rushers=6, n_blockers=5)
            lam = float(rng.uniform(0.05, 0.5))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cells = (fit_win_model if model == "win" else fit_severity_model)(t, lam)
                rows = fit_rows(model, t, lam)
            _assert_fits_close(cells, rows, 1e-10)
            assert cells.neg_loglik == pytest.approx(rows.neg_loglik, rel=1e-10)

    def test_fit_coded_leaves_zero_weight_players_out(self, rng):
        t = random_table(rng, n_rows=120)
        absent = t.rushers[0]
        w = np.array([0.0 if r.rusher_id == absent else 2.0 for r in rows_of(t)])
        fit = fit_coded(t, w, "win", 0.4)
        assert absent not in fit.rushers
        assert set(fit.rushers) == set(t.rushers) - {absent}


def reference_hessian(X, probs, lam, pen_mask, weights):
    """The penalized Hessian as the general sparse products X^T W_ab X."""
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


def reference_probs(X, theta):
    """(n, K + 1) softmax probabilities with the reference class first."""
    eta = np.hstack([np.zeros((X.shape[0], 1)), X @ theta.reshape(-1, X.shape[1]).T])
    p = np.exp(eta - eta.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def _reference_forward(L, Y):
    """Solve ``L[j] X[j] = Y[j]`` for lower-triangular K x K blocks ``L[j]``."""
    X = np.empty_like(Y)
    for a in range(L.shape[1]):
        acc = Y[:, a].copy()
        for c in range(a):
            acc -= L[:, a, c, None] * X[:, c]
        X[:, a] = acc / L[:, a, a, None]
    return X


def _reference_backward(L, Y):
    """Solve ``L[j]^T X[j] = Y[j]`` for lower-triangular K x K blocks ``L[j]``."""
    X = np.empty_like(Y)
    for a in reversed(range(L.shape[1])):
        acc = Y[:, a].copy()
        for c in range(a + 1, L.shape[1]):
            acc -= L[:, c, a, None] * X[:, c]
        X[:, a] = acc / L[:, a, a, None]
    return X


class ReferenceFactorError(Exception):
    """The factor ``reference_newton_direction`` found not positive
    definite: ``("rusher", position)`` or ``("schur", None)``."""


def reference_newton_direction(parts, grad, design):
    """The Schur-complement step as ``fit._newton_direction`` took it
    before the step moved to numpy's LAPACK: scipy's Cholesky of a dense
    ``D - G^T G``, and ``G = L^-1 C`` kept for the back-substitution.
    ``parts`` (``fit._hessian_parts``) is left unchanged.

    Returns the class-major direction; a factor that is not positive
    definite raises ``ReferenceFactorError`` with its tag.
    """
    r, k, m = parts.coupling.shape
    rest = np.zeros((m, m))
    fit_module._add_rest(rest, parts.rest_sums, parts.rest_ridge)
    try:
        L = np.linalg.cholesky(parts.rusher)
    except np.linalg.LinAlgError:
        for j, block in enumerate(parts.rusher):
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                raise ReferenceFactorError("rusher", j) from None
        raise
    g = grad.reshape(k, design.n_columns)
    rushers, rest_columns = design.rusher_columns, design.rest_columns
    G = _reference_forward(L, parts.coupling).reshape(r * k, m)
    u = _reference_forward(L, -g[:, rushers].T[:, :, None]).ravel()
    try:
        factor = scipy.linalg.cho_factor(rest - G.T @ G, lower=True)
    except scipy.linalg.LinAlgError:
        raise ReferenceFactorError("schur", None) from None
    x_rest = scipy.linalg.cho_solve(factor, -g[:, rest_columns].ravel() - G.T @ u)
    x_rusher = _reference_backward(L, (u - G @ x_rest).reshape(r, k, 1))
    direction = np.empty_like(g)
    direction[:, rushers] = x_rusher[:, :, 0].T
    direction[:, rest_columns] = x_rest.reshape(k, -1)
    return direction.ravel()


def hessian_cases(rng):
    """(name, X, design, index, class_idx, n_classes, weights) for the
    structured-Hessian oracles: ``X`` is a table's reference design and
    ``design`` its solver codes, one row per table row."""
    t = random_table(rng, n_rows=120, n_rushers=7, n_blockers=5)
    idx = table_index(t)
    X, design = design_matrix(t, idx), row_design(t)
    sev = t.severity
    ones = np.ones(len(t))
    # every hit row has zero weight, so hit is dropped and K = 2
    no_hit = np.where(sev == int(OutcomeClass.HIT), 0.0, rng.uniform(0.5, 2.0, len(t)))
    _, _, dropped_idx = fit_module._class_coding("severity", sev, no_hit)
    zero_cells = np.where(rng.random(len(t)) < 0.3, 0.0, rng.integers(1, 4, len(t)))
    yield "K=1", X, design, idx, t.win.astype(np.intp), 2, ones
    yield "K=3", X, design, idx, sev, 4, ones
    yield "dropped class", X, design, idx, dropped_idx, 3, no_hit
    yield "zero-weight cells", X, design, idx, sev, 4, zero_cells


class TestStructuredNewtonStep:
    def test_hessian_equals_sparse_products(self, rng):
        for name, X, design, idx, class_idx, n_classes, w in hessian_cases(rng):
            pen = penalty_mask(idx)
            theta = rng.normal(scale=0.5, size=(n_classes - 1) * idx.n_columns)
            probs = reference_probs(X, theta)
            want = reference_hessian(X, probs, 0.3, pen, w)
            parts = fit_module._hessian_parts(design, probs.T, 0.3, w)
            got = dense_hessian(parts, design)
            # the terms of one entry share a sign, so each entry agrees to 1e-12 relative
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)

    def test_schur_direction_equals_dense_cholesky(self, rng):
        for name, X, design, idx, class_idx, n_classes, w in hessian_cases(rng):
            pen = penalty_mask(idx)
            theta = rng.normal(scale=0.5, size=(n_classes - 1) * idx.n_columns)
            _, grad, _ = fit_module._objective(theta, design, class_idx, n_classes, 0.3, w)
            probs = reference_probs(X, theta)
            H = reference_hessian(X, probs, 0.3, pen, w)
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), -grad)
            got = fit_module._newton_direction(design, probs.T, 0.3, w, grad)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name

    def test_direction_equals_reference_step(self, rng):
        for name, X, design, idx, class_idx, n_classes, w in hessian_cases(rng):
            theta = rng.normal(scale=0.5, size=(n_classes - 1) * idx.n_columns)
            _, grad, probs = fit_module._objective(theta, design, class_idx, n_classes, 0.3, w)
            parts = fit_module._hessian_parts(design, probs, 0.3, w)
            want = reference_newton_direction(parts, grad, design)
            got = fit_module._newton_direction(design, probs, 0.3, w, grad)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.mark.parametrize("role, tag", [("rusher", ("rusher", 0)), ("blocker", ("schur", None))])
    def test_failed_factor_equals_reference_step(self, rng, role, tag):
        t, idx, X, design, y, w = self._negative_weight_problem(rng, role)
        theta = rng.normal(scale=0.5, size=idx.n_columns)
        _, grad, probs = fit_module._objective(theta, design, y, 2, 0.3, w)
        parts = fit_module._hessian_parts(design, probs, 0.3, w)
        with pytest.raises(ReferenceFactorError) as want:
            reference_newton_direction(parts, grad, design)
        assert want.value.args == tag
        with pytest.raises(FitError) as got:
            fit_module._newton_direction(design, probs, 0.3, w, grad)
        assert got.value.args == (tag[1],)

    def test_coupling_product_equals_hessian_rows(self, rng):
        for name, X, design, idx, class_idx, n_classes, w in hessian_cases(rng):
            pen = penalty_mask(idx)
            k = n_classes - 1
            probs = reference_probs(X, rng.normal(scale=0.5, size=k * idx.n_columns))
            v = rng.normal(size=(k, idx.n_columns))
            v[:, design.rusher_columns] = 0.0
            Hv = (reference_hessian(X, probs, 0.3, pen, w) @ v.ravel()).reshape(k, -1)
            want = Hv[:, design.rusher_columns].T
            got = fit_module._coupling_product(design, probs.T, w, v[:, design.rest_columns])
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 350, 1050])
    def test_cho_solve_equals_scipy(self, rng, n):
        # block edges fall inside, on and just past the first block, and
        # the two largest sizes are the full-scale win and severity steps
        A = rng.normal(size=(n, n))
        L = np.linalg.cholesky(A @ A.T + n * np.eye(n))
        b = rng.normal(size=n)
        want = scipy.linalg.cho_solve((L, True), b)
        got = fit_module._cho_solve(L, b)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_objective_equals_sparse_design(self, rng):
        for name, X, design, idx, class_idx, n_classes, w in hessian_cases(rng):
            pen = penalty_mask(idx)
            theta = rng.normal(scale=0.5, size=(n_classes - 1) * idx.n_columns)
            _, grad, probs = fit_module._objective(theta, design, class_idx, n_classes, 0.3, w)
            want_probs = reference_probs(X, theta)
            np.testing.assert_allclose(probs.T, want_probs, rtol=1e-13, atol=1e-15, err_msg=name)
            resid = want_probs[:, 1:] - np.equal.outer(class_idx, np.arange(1, n_classes))
            want_grad = (X.T @ (resid * w[:, None])).T + 0.6 * pen * theta.reshape(-1, X.shape[1])
            np.testing.assert_allclose(
                grad, want_grad.ravel(), rtol=1e-10, atol=1e-12, err_msg=name
            )

    def _negative_weight_problem(self, rng, role):
        """A binary problem over one design row per table row, where the
        rows of one player of ``role`` weigh -1: that rusher's block, or
        with a blocker the Schur complement, is not positive definite at
        lam = 0.3."""
        t = random_table(rng, n_rows=240, n_rushers=4, n_blockers=3)
        idx = table_index(t)
        codes = t.rusher if role == "rusher" else t.blocker
        w = np.where(codes == 0, -1.0, 1.0)
        return t, idx, design_matrix(t, idx), row_design(t), t.win.astype(np.intp), w

    @pytest.mark.parametrize("role", ["rusher", "blocker"])
    def test_fit_error_names_failed_factor(self, rng, role, monkeypatch):
        # the cells of one player weigh minus their rows, as no table fit allows
        real = fit_module._cells

        def negated(table, weights, model):
            design, outcome, cell_w, *codes = real(table, weights, model)
            player = design.rusher if role == "rusher" else design.blocker
            return design, outcome, np.where(player == 0, -cell_w, cell_w), *codes

        monkeypatch.setattr(fit_module, "_cells", negated)
        t = random_table(rng, n_rows=240, n_rushers=4, n_blockers=3)
        factor = (f"the block of rusher {t.rushers[0]!r}" if role == "rusher"
                  else "the Schur complement")
        with pytest.raises(FitError) as got:
            fit_coded(t, np.ones(len(t)), "win", 0.3)
        assert str(got.value) == f"win fit at lam=0.3: {factor} is not positive definite"
        with pytest.raises(FitError) as got:
            cv_select_lambda(t, "win", [0.3], 2)
        assert str(got.value) == (
            f"cv fold 0 win fit at lam=0.3: {factor} is not positive definite"
        )

    def test_nonconvergence_is_a_fit_error(self, rng):
        t, idx, X, y = binary_problem(rng)
        with pytest.raises(FitError, match="win fit did not converge at lam=0.1: .* after 1 "):
            fit_win_model(t, 0.1, max_iter=1, tol=1e-300)


def assert_same_cells(a, b):
    """Two ``fit._cells`` results hold the same cells, index and weights."""
    (da, ya, wa, ia), (db, yb, wb, ib) = a, b
    assert ia == ib
    assert (da.n_rushers, da.n_blockers) == (db.n_rushers, db.n_blockers)
    for x, y in ((da.rusher, db.rusher), (da.blocker, db.blocker),
                 (da.double_team, db.double_team), (ya, yb), (wa, wb)):
        assert np.array_equal(x, y)


class TestMalformedDesignRows:
    """A table encodes each row as one rusher code, one blocker code and a
    boolean double team, so no design row can take a malformed form; what
    the fits still check is input from outside the table."""

    def test_well_formed_rows_pass(self, rng):
        # zero weights, unsorted rows and vocabularies cut by ``take`` give
        # the same cells as the rows of positive weight, in order
        big = random_table(rng, n_rows=60, n_rushers=4, n_blockers=4)
        t = big.take(np.arange(40))
        w = rng.integers(0, 3, len(t)).astype(float)
        kept = table_of([r for r, k in zip(rows_of(t), w) if k])
        want = fit_cells(kept, w[w > 0], "severity")
        order = rng.permutation(len(t))
        for table, weights in ((t, w), (t.take(order), w[order])):
            assert_same_cells(fit_cells(table, weights, "severity"), want)

    def test_column_count_must_match_index(self, rng):
        t, idx, X, y = binary_problem(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for fit in (fit_win_model, fit_severity_model):
                with pytest.raises(ValueError, match="index's columns"):
                    fit(t, 0.1, theta0=np.zeros(idx.n_columns - 1))


def reference_win_prob(fit, x):
    """Win probability of one ``Interaction``; unseen players get effect 0."""
    e = win_effects(fit)
    eta = (
        e.alpha
        + e.rusher_effects.get(x.rusher_id, 0.0)
        - e.blocker_effects.get(x.blocker_id, 0.0)
        + e.delta * float(x.double_team)
    )
    return float(fit_module._inv_logit(eta))


def reference_class_probs(fit, x):
    """Class probabilities of one ``Interaction`` (dropped classes get 0)."""
    etas = [0.0]
    for e in dict_fit(fit).values():
        etas.append(
            e.alpha
            + e.rusher_effects.get(x.rusher_id, 0.0)
            - e.blocker_effects.get(x.blocker_id, 0.0)
            + e.delta * float(x.double_team)
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


def dict_gather_win_probs(fit, table):
    """``predict_win_probs`` as it gathered from effects keyed by player id."""
    e = win_effects(fit)
    eta = (
        e.alpha
        + np.array([e.rusher_effects.get(p, 0.0) for p in table.rushers])[table.rusher]
        - np.array([e.blocker_effects.get(p, 0.0) for p in table.blockers])[table.blocker]
        + e.delta * table.double_team.astype(float)
    )
    return fit_module._inv_logit(eta)


def dict_gather_class_probs(fit, table):
    """``predict_class_prob_matrix`` as it gathered from effects keyed by
    player id, one class at a time."""
    dt = table.double_team.astype(float)
    eta = np.zeros((len(table), len(fit.classes) + 1))
    for k, e in enumerate(dict_fit(fit).values(), start=1):
        eta[:, k] = (
            e.alpha
            + np.array([e.rusher_effects.get(p, 0.0) for p in table.rushers])[table.rusher]
            - np.array([e.blocker_effects.get(p, 0.0) for p in table.blockers])[table.blocker]
            + e.delta * dt
        )
    eta -= eta.max(axis=1, keepdims=True)
    weights = np.exp(eta)
    probs = weights / weights.sum(axis=1, keepdims=True)
    out = np.zeros((len(table), len(CLASSES)))
    out[:, int(OutcomeClass.LOSS)] = probs[:, 0]
    for k, cls in enumerate(fit.classes, start=1):
        out[:, int(cls)] = probs[:, k]
    return out


class TestVectorizedPrediction:
    def test_equals_dict_gather(self, rng):
        # the gather of theta onto a table's vocabularies gives the bits of
        # the gather from effects keyed by player id
        t = random_table(rng, n_rows=200, n_rushers=9, n_blockers=7)
        for part in (t.take(slice(70)), t.take(slice(120, None)), t):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                win = fit_win_model(part, 0.3)
                sev = fit_severity_model(part, 0.3)
            for table in (t, part, t.take(np.array([5, 150, 1]))):
                assert np.array_equal(predict_win_probs(win, table),
                                      dict_gather_win_probs(win, table))
                assert np.array_equal(predict_class_prob_matrix(sev, table),
                                      dict_gather_class_probs(sev, table))

    def test_wrong_model_rejected(self, small_table):
        # one fit type serves both models, so each predictor checks which it has
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sev = fit_severity_model(small_table, 0.3)
        with pytest.raises(ValueError, match="expected a 'win' fit, got a 'severity' fit"):
            predict_win_probs(sev, small_table)
        with pytest.raises(ValueError, match="expected a 'severity' fit, got a 'win' fit"):
            predict_class_prob_matrix(fit_win_model(small_table, 0.3), small_table)

    def test_equals_per_row_predictors(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=7, n_blockers=6)
        # fits on part of the table leave some players unseen
        part = t.take(slice(30))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            win = fit_win_model(part, 0.3)
            sev = fit_severity_model(part, 0.3)
        rows = rows_of(t)
        assert predict_win_probs(win, t).tolist() == [reference_win_prob(win, x) for x in rows]
        want = np.array([[reference_class_probs(sev, x)[c] for c in CLASSES] for x in rows])
        assert np.array_equal(predict_class_prob_matrix(sev, t), want)
        sub = np.array([5, 1, 40])
        assert np.array_equal(predict_class_prob_matrix(sev, t.take(sub)), want[sub])


class TestLogistic:
    def test_within_4_ulps_of_scipy(self):
        x = np.concatenate([np.linspace(-700.0, 700.0, 1_400_001),
                            np.random.default_rng(0).normal(scale=10.0, size=100_000)])
        got, want = fit_module._inv_logit(x), expit(x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    def test_saturates_without_warning(self):
        x = np.array([-np.inf, -800.0, 800.0, np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_module._inv_logit(x)
        assert got[:4].tolist() == [0.0, 0.0, 1.0, 1.0]
        assert np.isnan(got[4])


ENTRIES = {
    "fit_coded": lambda t, lam, **kw: fit_coded(t, np.ones(len(t)), "win", lam, **kw),
    "fit_win_model": fit_win_model,
    "fit_severity_model": fit_severity_model,
    # a bad value after a good one: the whole grid is checked before any fold
    "cv_select_lambda": lambda t, lam, **kw: cv_select_lambda(t, "win", [1.0, lam], 3, **kw),
}


class TestSolverArguments:
    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the arguments were checked")

        monkeypatch.setattr(fit_module, "_cells", forbidden)
        monkeypatch.setattr(fit_module, "_solve", forbidden)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("lam", BAD_PENALTIES, ids=str)
    def test_penalty_must_be_finite_and_positive(self, small_table, entry, lam):
        with pytest.raises(ValueError, match=f"^lam must be finite and > 0, got {lam}$"):
            ENTRIES[entry](small_table, lam)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("bad", BAD_SOLVER_OPTIONS)
    def test_solver_options_checked(self, small_table, entry, bad):
        options, message = BAD_SOLVER_OPTIONS[bad]
        with pytest.raises(ValueError, match=message):
            ENTRIES[entry](small_table, 0.5, **options)


class TestLambdaSelection:
    def test_minimum_is_selected(self):
        lambdas = [0.01, 0.1, 1.0]
        assert select_lambda_min(lambdas, [0.5, 0.4, 0.6]) == 0.1

    def test_ties_break_toward_heavier_penalty(self):
        assert select_lambda_min([0.01, 0.1, 1.0], [0.4, 0.4, 0.4]) == 1.0
        assert select_lambda_min([0.01, 0.1, 1.0], [0.4, 0.5, 0.4]) == 1.0

    def test_default_grid_shape(self):
        assert len(DEFAULT_LAMBDA_GRID) == 25
        assert DEFAULT_LAMBDA_GRID[0] == pytest.approx(1e-6)
        assert DEFAULT_LAMBDA_GRID[-1] == pytest.approx(1e2)

    def test_fold_labels_group_games(self, rng):
        t = random_table(rng, n_games=6)
        labels = cv_fold_labels(t, 3)
        assert len(labels) == len(t)
        by_game = {}
        for row, lab in zip(rows_of(t), labels):
            by_game.setdefault(row.game_id, set()).add(lab)
        assert all(len(s) == 1 for s in by_game.values())
        assert set().union(*by_game.values()) == {0, 1, 2}

    def test_more_folds_than_games_rejected(self, rng):
        t = random_table(rng, n_games=3)
        with pytest.raises(DataError):
            cv_fold_labels(t, 4)

    def test_cv_selects_from_grid_and_is_deterministic(self, rng):
        t = random_table(rng, n_rows=120, n_games=6)
        grid = [0.01, 0.1, 1.0]
        a = cv_select_lambda(t, "win", grid, 3)
        b = cv_select_lambda(t, "win", grid, 3)
        assert a == b
        assert a.lambda_min in grid
        assert list(a.lambdas) == grid
        assert all(np.isfinite(a.mean_losses))
        assert a.lambda_min == select_lambda_min(a.lambdas, a.mean_losses)

    def test_cv_severity_task(self, rng):
        t = random_table(rng, n_rows=120, n_games=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = cv_select_lambda(t, "severity", [0.05, 0.5], 3)
        assert res.lambda_min in (0.05, 0.5)

    def test_unknown_task_rejected(self, rng):
        t = random_table(rng)
        with pytest.raises(ValueError):
            cv_select_lambda(t, "margin", [0.1], 2)


def reference_cv(table, target, grid, n_folds):
    """Grouped CV with one InteractionTable and table fit per fold, held-out
    rows scored through the reference design."""
    games = table.games
    fold_of = {}
    for fold, block in enumerate(np.array_split(np.arange(len(games)), n_folds)):
        for gi in block:
            fold_of[games[gi]] = fold
    desc = sorted(grid, reverse=True)
    losses = np.zeros((n_folds, len(desc)))
    for fold in range(n_folds):
        train = table_of([r for r in rows_of(table) if fold_of[r.game_id] != fold])
        held = table_of([r for r in rows_of(table) if fold_of[r.game_id] == fold])
        idx = table_index(train)
        Xh = design_matrix(held, idx)
        theta = None
        for j, lam in enumerate(desc):
            if target == "win":
                fit = fit_win_model(train, lam, theta0=theta)
                theta = theta_on_index(fit, idx)[0]
                probs = 1.0 / (1.0 + np.exp(-(Xh @ theta)))
                losses[fold, j] = binary_log_loss(probs, [r.win_target for r in rows_of(held)])
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fit = fit_severity_model(train, lam, theta0=theta)
            Theta = theta_on_index(fit, idx).T
            theta = Theta.T
            eta = np.hstack([np.zeros((len(held), 1)), Xh @ Theta])
            p = np.exp(eta - eta.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            probs = np.zeros((len(held), len(CLASSES)))
            probs[:, 0] = p[:, 0]
            for k, c in enumerate(fit.classes, start=1):
                probs[:, int(c)] = p[:, k]
            losses[fold, j] = multiclass_log_loss(probs, [r.severity for r in rows_of(held)])
    mean = losses.mean(axis=0)
    return desc[::-1], list(mean[::-1]), select_lambda_min(desc, mean)


def cv_fixture(rng):
    """Six games in three folds.  Fold 0 holds every ``hit`` row, so its
    training part misses that class; fold 2 holds a rusher and a blocker
    that appear nowhere else."""
    rows = []
    for r in rows_of(random_table(rng, n_rows=150, n_rushers=6, n_blockers=5, n_games=6)):
        severity = r.severity
        if severity is OutcomeClass.HIT and r.game_id not in ("g0", "g1"):
            severity = OutcomeClass.SACK
        lone = r.game_id == "g5" and r.event_game_index % 4 == 0
        rows.append(
            make_row(
                game=r.game_id, play=r.play_id, idx=r.event_game_index, week=r.week,
                rusher="RZ" if lone else r.rusher_id, blocker="BZ" if lone else r.blocker_id,
                double=r.double_team, win=r.win_target, severity=severity,
            )
        )
    return table_of(rows)


class TestCvMatchesPerFoldTables:
    @pytest.mark.parametrize("target", ["win", "severity"])
    def test_equals_reference(self, rng, target):
        grid = [0.01, 0.1, 1.0, 5.0]
        for _ in range(3):
            t = cv_fixture(rng)
            labels = cv_fold_labels(t, 3)
            held_hit = [r.severity is OutcomeClass.HIT for r, f in zip(rows_of(t), labels) if f == 0]
            assert any(held_hit)
            assert not any(r.severity is OutcomeClass.HIT for r, f in zip(rows_of(t), labels) if f != 0)
            assert {r.rusher_id for r, f in zip(rows_of(t), labels) if f == 2} - {
                r.rusher_id for r, f in zip(rows_of(t), labels) if f != 2
            } == {"RZ"}
            want_lambdas, want_losses, want_min = reference_cv(t, target, grid, 3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # cv drops classes silently
                got = cv_select_lambda(t, target, grid, 3)
            assert list(got.lambdas) == want_lambdas
            assert got.mean_losses == pytest.approx(want_losses, rel=0, abs=1e-9)
            assert got.lambda_min == want_min


def reference_cv_select_lambda(table, target, grid, n_folds, tol=1e-8, max_iter=500):
    """Grouped CV with every fold's lambda path started at theta = 0."""
    labels = cv_fold_labels(table, n_folds)
    desc = np.sort(np.asarray(grid, dtype=float))[::-1]
    losses = np.zeros((n_folds, desc.size))
    for fold in range(n_folds):
        in_fold = labels == fold
        design, outcome, cell_w, idx = fit_cells(table, (~in_fold).astype(float), target)
        held = table.take(in_fold)
        modeled, dropped, class_idx = fit_module._class_coding(target, outcome, cell_w)
        theta = np.zeros((len(modeled), idx.n_columns))
        for j, lam in enumerate(desc):
            solution = fit_module._solve(
                design, class_idx, len(modeled) + 1, lam, theta, tol, max_iter, cell_w
            )
            assert solution.grad_sup <= tol
            theta = solution.theta
            fit = Fit(
                model=target, classes=modeled, dropped=dropped, theta=theta,
                rushers=tuple(idx.rusher_cols), blockers=tuple(idx.blocker_cols), lam=lam,
                neg_loglik=solution.nll, grad_norm=solution.grad_sup,
                iterations=solution.iterations,
            )
            if target == "win":
                losses[fold, j] = binary_log_loss(predict_win_probs(fit, held), held.win)
            else:
                losses[fold, j] = multiclass_log_loss(
                    predict_class_prob_matrix(fit, held), held.severity
                )
    mean = losses.mean(axis=0)
    return list(desc[::-1]), list(mean[::-1]), select_lambda_min(desc, mean)


@pytest.fixture
def solves(monkeypatch):
    """(theta0, iterations) of every ``_solve`` call."""
    calls = []
    real = fit_module._solve

    def spy(design, class_idx, n_classes, lam, theta0, *rest):
        solution = real(design, class_idx, n_classes, lam, theta0, *rest)
        calls.append((theta0, solution.iterations))
        return solution

    monkeypatch.setattr(fit_module, "_solve", spy)
    return calls


def synth_world(seed):
    """A small synthetic season: loss is the common class, as in the paper's data."""
    table, _ = synth_generate(SynthConfig(
        n_rushers=12, n_blockers=9, n_games=6, plays_per_game=20, interactions_per_play=4,
        n_weeks=6, seed=seed,
    ))
    return table


def cv_worlds(rng):
    """``cv_fixture`` tables, whose fold 0 does not model ``hit`` and fold 1
    does, and synthetic seasons; each in three folds."""
    for seed in range(2):
        yield cv_fixture(rng)
        yield synth_world(seed)


class TestStartPoints:
    def test_intercept_start_is_the_intercept_only_optimum(self, rng):
        for name, X, design, idx, class_idx, n_classes, w in hessian_cases(rng):
            d = idx.n_columns
            theta = fit_module._intercept_start(class_idx, n_classes, w, d)
            assert not theta[:, 1:].any(), name
            _, grad, _ = fit_module._objective(theta.ravel(), design, class_idx, n_classes, 0.3, w)
            assert np.abs(grad.reshape(-1, d)[:, 0]).max() <= 1e-9 * w.sum(), name

    def test_class_without_weight_starts_at_zero(self):
        class_idx = np.array([0, 0, 2, 2])
        theta = fit_module._intercept_start(class_idx, 4, np.ones(4), 5)
        assert np.array_equal(theta, np.zeros((3, 5)))

    @pytest.mark.parametrize("lam", [0.01, 0.3, 1.0])
    def test_intercept_start_reaches_the_zero_start_optimum(self, lam):
        # at a gradient tolerance of 1e-10 the two optima agree to 1e-8
        tol = 1e-10
        cold = warm = 0
        for seed in range(4):
            t = synth_world(seed)
            zero_cells = np.random.default_rng(seed).integers(0, 4, len(t)).astype(float)
            for w, model in itertools.product((np.ones(len(t)), zero_cells), ("win", "severity")):
                design, outcome, cell_w, idx = fit_cells(t, w, model)
                modeled, _, class_idx = fit_module._class_coding(model, outcome, cell_w)
                args = design, class_idx, len(modeled) + 1, lam
                zero = np.zeros(len(modeled) * idx.n_columns)
                want = fit_module._solve(*args, zero, tol, 500, cell_w)
                got = fit_module._solve(*args, None, tol, 500, cell_w)
                assert got.grad_sup <= tol
                np.testing.assert_allclose(got.theta, want.theta, rtol=0, atol=1e-8)
                cold += want.iterations
                warm += got.iterations
        assert warm < cold

    def test_theta_on_index_maps_by_player_id(self, rng):
        # the CV warm start's remap by codes equals the reference remap by id
        t = random_table(rng, n_rows=80, n_rushers=7, n_blockers=6)
        w = np.array([0.0 if "0" in r.rusher_id + r.blocker_id else 1.0 for r in rows_of(t)])
        idx = table_index(t)
        every = np.arange(len(t.rushers)), np.arange(len(t.blockers))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fits = [fit_coded(t, w, "win", 0.3), fit_coded(t, w, "severity", 0.3)]
        for fit in fits:
            codes = fit_module._cells(t, w, fit.model)[3:]
            got = np.hstack([fit.theta[:, :2], *fit_module._effects_on(fit.theta, codes, every)])
            assert np.array_equal(got, theta_on_index(fit, idx))
            kept = [0, 1] + [idx.rusher_cols[p] for p in fit.rushers] + [
                idx.blocker_cols[p] for p in fit.blockers
            ]
            assert np.array_equal(got[:, kept], fit.theta)
            assert not got[:, [idx.rusher_cols["R0"], idx.blocker_cols["B0"]]].any()


class TestChainedCv:
    @pytest.mark.parametrize("target", ["win", "severity"])
    @pytest.mark.parametrize("grid", [[0.01, 0.1, 1.0, 5.0], [1.0]], ids=str)
    def test_equals_cold_folds(self, rng, solves, target, grid):
        cold = chained = 0
        for t in cv_worlds(rng):
            want_lambdas, want_losses, want_min = reference_cv_select_lambda(t, target, grid, 3)
            cold += sum(n for _, n in solves)
            solves.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # cv drops classes silently
                got = cv_select_lambda(t, target, grid, 3)
            chained += sum(n for _, n in solves)
            solves.clear()
            assert list(got.lambdas) == want_lambdas
            assert got.mean_losses == pytest.approx(want_losses, rel=0, abs=1e-9)
            assert got.lambda_min == want_min
        assert chained < cold

    @pytest.mark.parametrize("target", ["win", "severity"])
    def test_warm_start_equals_id_remap(self, rng, monkeypatch, target):
        # each chained fold starts from the previous fold's solution at the
        # largest lambda, mapped by player id as the reference remap does
        calls = []
        real = fit_module._solve

        def spy(design, class_idx, n_classes, lam, theta0, *rest):
            solution = real(design, class_idx, n_classes, lam, theta0, *rest)
            calls.append((theta0, solution.theta))
            return solution

        monkeypatch.setattr(fit_module, "_solve", spy)
        grid = [0.1, 1.0]
        compared = 0
        for t in cv_worlds(rng):
            labels = cv_fold_labels(t, 3)
            cv_select_lambda(t, target, grid, 3)
            firsts = calls[:: len(grid)]
            assert len(firsts) == 3
            for fold in (1, 2):
                theta0 = firsts[fold][0]
                if theta0 is None:
                    continue  # the two folds model different classes
                idx = [fit_cells(t, (labels != f).astype(float), target)[3]
                       for f in (fold - 1, fold)]
                prev = firsts[fold - 1][1]
                fit = Fit(model=target, classes=CLASSES[1 : 1 + len(prev)], dropped=(),
                          theta=prev, rushers=tuple(idx[0].rusher_cols),
                          blockers=tuple(idx[0].blocker_cols), lam=1.0, neg_loglik=0.0,
                          grad_norm=0.0, iterations=0)
                assert np.array_equal(theta0, theta_on_index(fit, idx[1]))
                compared += 1
            calls.clear()
        assert compared >= 4

    def test_fold_start_points(self, rng, solves):
        t = cv_fixture(rng)
        grid = [0.1, 1.0]
        for target, chained_folds in (("win", [1, 2]), ("severity", [2])):
            cv_select_lambda(t, target, grid, 3)
            firsts = [theta0 for theta0, _ in solves[:: len(grid)]]
            # fold 1 models hit and fold 0 does not, so fold 1 starts cold
            assert [f for f, theta0 in enumerate(firsts) if theta0 is not None] == chained_folds
            solves.clear()


def dict_built_json(fit):
    """``fit_to_json_dict`` as it was built from effects keyed by player id."""
    per_class = dict_fit(fit)
    stats = {"neg_loglik": fit.neg_loglik, "grad_norm": fit.grad_norm,
             "iterations": fit.iterations}
    if fit.model == "win":
        e = per_class[OutcomeClass.WIN]
        return {"model": "win", "lambda": fit.lam, "alpha": e.alpha, "delta": e.delta,
                "rusher_effects": e.rusher_effects, "blocker_effects": e.blocker_effects,
                **stats}
    return {
        "model": "severity",
        "lambda": fit.lam,
        "classes": [c.label for c in fit.classes],
        "dropped": [c.label for c in fit.dropped],
        **{key: {c.label: getattr(e, key) for c, e in per_class.items()}
           for key in ("alpha", "delta", "rusher_effects", "blocker_effects")},
        **stats,
    }


class TestSerialization:
    def test_equals_dict_built_json(self, rng):
        # same keys in the same order and the same floats, so the written
        # JSON is byte-identical
        t = random_table(rng, n_rows=120, n_rushers=7, n_blockers=6)
        w = np.where(t.severity == int(OutcomeClass.HIT), 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fits = [fit_win_model(t, 0.25), fit_severity_model(t, 0.25),
                    fit_coded(t, w, "severity", 0.25)]
        assert fits[-1].dropped == (OutcomeClass.HIT,)
        for fit in fits:
            got, want = fit_to_json_dict(fit), dict_built_json(fit)
            assert json.dumps(got) == json.dumps(want)
            assert json.dumps(got, indent=2, sort_keys=True) == json.dumps(
                want, indent=2, sort_keys=True
            )

    def test_player_missing_from_a_class_reads_zero(self, rng, small_table):
        fit = fit_severity_model(small_table, 0.25)
        raw = fit_to_json_dict(fit)
        label = fit.classes[1].label
        gone = fit.rushers[0]
        del raw["rusher_effects"][label][gone]
        back = fit_from_json_dict(json.loads(json.dumps(raw)))
        theta = np.array(fit.theta)
        theta[1, 2] = 0.0  # the first rusher's effect in the second class
        assert back == dataclasses.replace(fit, theta=theta)

    @pytest.mark.parametrize("model", ["win", "severity"])
    @pytest.mark.parametrize("key", ["alpha", "rusher_effects", "blocker_effects"])
    def test_non_numeric_parameter_is_a_data_error(self, small_table, model, key):
        fit = (fit_win_model if model == "win" else fit_severity_model)(small_table, 0.25)
        raw = fit_to_json_dict(fit)
        # the win fit's parameter, or the severity fit's for its last class
        holder, name = (raw, key) if model == "win" else (raw[key], fit.classes[-1].label)
        if key == "alpha":
            holder[name] = "abc"
            want = "fit JSON 'alpha' is not a number: 'abc'"
        else:
            player = max(holder[name])
            holder[name][player] = "abc"
            want = f"fit JSON {key!r} of player {player!r} is not a number: 'abc'"
        with pytest.raises(DataError) as got:
            fit_from_json_dict(raw)
        assert str(got.value) == want

    def test_non_object_effects_are_a_data_error(self, small_table):
        raw = fit_to_json_dict(fit_win_model(small_table, 0.25))
        raw["blocker_effects"] = [1.0, 2.0]
        with pytest.raises(DataError, match="'blocker_effects' is not an object"):
            fit_from_json_dict(raw)

    def test_binary_round_trip(self, rng, small_table):
        fit = fit_win_model(small_table, 0.25)
        back = fit_from_json_dict(json.loads(json.dumps(fit_to_json_dict(fit))))
        assert back == fit

    def test_multinomial_round_trip(self, rng, small_table):
        fit = fit_severity_model(small_table, 0.25)
        back = fit_from_json_dict(json.loads(json.dumps(fit_to_json_dict(fit))))
        assert back == fit

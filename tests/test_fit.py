import itertools
import json
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from trenchrank import fit as fit_module
from trenchrank.design import build_index, build_matrix, penalty_mask
from trenchrank.errors import DataError, FitError
from trenchrank.evaluate import binary_log_loss, multiclass_log_loss
from trenchrank.fit import (
    BinaryFit,
    DEFAULT_LAMBDA_GRID,
    MultinomialFit,
    binary_objective_grad,
    cv_fold_labels,
    fit_coded,
    multinomial_objective_grad,
    cv_select_lambda,
    expected_severity,
    fit_binary_ridge,
    fit_from_json_dict,
    fit_multinomial_ridge,
    fit_severity_model,
    fit_to_json_dict,
    fit_win_model,
    predict_class_probs,
    predict_class_prob_matrix,
    predict_win_prob,
    predict_win_probs,
    select_lambda_min,
)
from trenchrank.interactions import (
    CLASSES,
    InteractionTable,
    OutcomeClass,
    SeverityWeights,
)
from trenchrank.synth import SynthConfig, synth_generate

from conftest import make_row, random_table

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
    idx = build_index(t)
    X = build_matrix(t, idx)
    y = np.array([float(r.win_target) for r in t])
    return t, idx, X, y


class TestBinaryGradient:
    def test_matches_central_differences(self, rng):
        for _ in range(5):
            t, idx, X, y = binary_problem(rng)
            pen = penalty_mask(idx)
            theta = rng.normal(scale=0.4, size=idx.n_columns)
            lam = float(rng.uniform(0.01, 1.0))
            for w in (None, rng.uniform(0.0, 3.0, size=len(y))):
                _, g = binary_objective_grad(theta, X, y, lam, pen, w)
                h = 1e-6
                for j in range(idx.n_columns):
                    e = np.zeros_like(theta)
                    e[j] = h
                    fp, _ = binary_objective_grad(theta + e, X, y, lam, pen, w)
                    fm, _ = binary_objective_grad(theta - e, X, y, lam, pen, w)
                    fd = (fp - fm) / (2 * h)
                    assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_objective_equals_dense_formula(self, rng):
        t, idx, X, y = binary_problem(rng)
        pen = penalty_mask(idx)
        theta = rng.normal(scale=0.5, size=idx.n_columns)
        f, _ = binary_objective_grad(theta, X, y, 0.3, pen)
        assert f == pytest.approx(dense_binary_obj(theta, X.toarray(), y, 0.3, pen), rel=1e-12)


class TestMultinomialGradient:
    def test_matches_central_differences(self, rng):
        for _ in range(3):
            t = random_table(rng, n_rows=int(rng.integers(20, 41)))
            idx = build_index(t)
            X = build_matrix(t, idx)
            pen = penalty_mask(idx)
            cls = np.array([int(r.severity) for r in t])
            theta = rng.normal(scale=0.4, size=3 * idx.n_columns)
            lam = float(rng.uniform(0.01, 1.0))
            for w in (None, rng.uniform(0.0, 3.0, size=len(t))):
                _, g = multinomial_objective_grad(theta, X, cls, 4, lam, pen, w)
                h = 1e-6
                for j in range(theta.size):
                    e = np.zeros_like(theta)
                    e[j] = h
                    fp, _ = multinomial_objective_grad(theta + e, X, cls, 4, lam, pen, w)
                    fm, _ = multinomial_objective_grad(theta - e, X, cls, 4, lam, pen, w)
                    fd = (fp - fm) / (2 * h)
                    assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestBinarySolver:
    def test_matches_slow_descent_oracle(self, rng):
        for _ in range(6):
            t, idx, X, y = binary_problem(rng)
            pen = penalty_mask(idx)
            lam = float(rng.uniform(0.05, 0.5))
            fit = fit_binary_ridge(X, y, lam, idx)
            Xd = X.toarray()
            _, f_oracle = slow_descent(
                lambda v: dense_binary_obj(v, Xd, y, lam, pen),
                lambda v: dense_binary_grad(v, Xd, y, lam, pen),
                np.zeros(idx.n_columns),
            )
            theta = _theta_from_binary(fit, idx)
            f_fit = dense_binary_obj(theta, Xd, y, lam, pen)
            assert f_fit == pytest.approx(f_oracle, rel=1e-6, abs=1e-9)
            # the solver should never be worse than the oracle's optimum
            assert f_fit <= f_oracle + 1e-7 * max(1.0, abs(f_oracle))

    def test_gradient_norm_meets_tolerance(self, rng):
        t, idx, X, y = binary_problem(rng)
        fit = fit_binary_ridge(X, y, 0.2, idx, tol=1e-10)
        assert fit.grad_norm <= 1e-10
        assert fit.iterations >= 1

    def test_reported_nll_is_unpenalized(self, rng):
        t, idx, X, y = binary_problem(rng)
        fit = fit_binary_ridge(X, y, 0.7, idx)
        theta = _theta_from_binary(fit, idx)
        assert fit.neg_loglik == pytest.approx(
            dense_binary_obj(theta, X.toarray(), y, 0.0, penalty_mask(idx)), rel=1e-10
        )

    def test_deterministic(self, rng):
        t, idx, X, y = binary_problem(rng)
        a = fit_binary_ridge(X, y, 0.1, idx)
        b = fit_binary_ridge(X, y, 0.1, idx)
        assert a == b

    def test_warm_start_reaches_same_optimum(self, rng):
        t, idx, X, y = binary_problem(rng)
        cold = fit_binary_ridge(X, y, 0.2, idx)
        theta0 = rng.normal(scale=0.3, size=idx.n_columns)
        warm = fit_binary_ridge(X, y, 0.2, idx, theta0=theta0)
        assert warm.alpha == pytest.approx(cold.alpha, abs=1e-6)
        for pid, v in cold.rusher_effects.items():
            assert warm.rusher_effects[pid] == pytest.approx(v, abs=1e-6)

    def test_negative_lambda_rejected(self, rng):
        t, idx, X, y = binary_problem(rng)
        with pytest.raises(ValueError):
            fit_binary_ridge(X, y, -1.0, idx)

    def test_length_mismatch_rejected(self, rng):
        t, idx, X, y = binary_problem(rng)
        with pytest.raises(DataError):
            fit_binary_ridge(X, y[:-1], 0.1, idx)

    def test_separation_warns_when_unpenalized(self):
        # R1 beats B1 in every row: the MLE pushes effects to infinity
        rows = [
            make_row(idx=i, rusher="R1", blocker="B1", win=True) for i in range(10)
        ] + [make_row(idx=10 + i, rusher="R2", blocker="B1", win=False) for i in range(10)]
        t = InteractionTable(rows)
        idx = build_index(t)
        X = build_matrix(t, idx)
        y = np.array([float(r.win_target) for r in t])
        with pytest.warns(RuntimeWarning, match="separation"):
            try:
                fit_binary_ridge(X, y, 0.0, idx)
            except FitError:
                pass  # a diverging unpenalized fit may also fail to converge

    def test_shrinkage_limit_recovers_base_rate(self, rng):
        t, idx, X, y = binary_problem(rng, n_rows=50)
        fit = fit_binary_ridge(X, y, 1e6, idx)
        probs = predict_win_probs(fit, t)
        assert np.allclose(probs, y.mean(), atol=1e-3)


def _theta_from_binary(fit: BinaryFit, idx) -> np.ndarray:
    theta = np.zeros(idx.n_columns)
    theta[0] = fit.alpha
    theta[1] = fit.delta
    for pid, c in idx.rusher_cols.items():
        theta[c] = fit.rusher_effects[pid]
    for pid, c in idx.blocker_cols.items():
        theta[c] = fit.blocker_effects[pid]
    return theta


def _theta_from_multinomial(fit: MultinomialFit, idx) -> np.ndarray:
    cols = []
    for c in fit.classes:
        theta = np.zeros(idx.n_columns)
        theta[0] = fit.alpha[c]
        theta[1] = fit.delta[c]
        for pid, col in idx.rusher_cols.items():
            theta[col] = fit.rusher_effects[c][pid]
        for pid, col in idx.blocker_cols.items():
            theta[col] = fit.blocker_effects[c][pid]
        cols.append(theta)
    return np.column_stack(cols)


class TestMultinomialSolver:
    def test_matches_slow_descent_oracle(self, rng):
        for _ in range(4):
            t = random_table(rng, n_rows=int(rng.integers(30, 51)))
            idx = build_index(t)
            X = build_matrix(t, idx)
            classes = [r.severity for r in t]
            lam = float(rng.uniform(0.05, 0.5))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fit = fit_multinomial_ridge(X, classes, lam, idx)
            pen = penalty_mask(idx)
            Xd = X.toarray()
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
            Theta = _theta_from_multinomial(fit, idx)
            f_fit = dense_multinomial_obj(Theta, Xd, cls, lam, pen)
            assert f_fit == pytest.approx(f_oracle, rel=1e-6, abs=1e-9)

    def test_two_classes_match_binary_fit(self, rng):
        for _ in range(4):
            rows = []
            base = random_table(rng, n_rows=int(rng.integers(25, 45)))
            for r in base:
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
            t = InteractionTable(rows)
            lam = float(rng.uniform(0.05, 0.4))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sev_fit = fit_severity_model(t, lam)
            win_fit = fit_win_model(t, lam)
            for r in t:
                p_bin = predict_win_prob(win_fit, r)
                p_mult = predict_class_probs(sev_fit, r)[OutcomeClass.WIN]
                assert p_mult == pytest.approx(p_bin, abs=1e-6)

    def test_unobserved_classes_dropped_with_warning(self, rng):
        rows = [
            make_row(idx=i, rusher=f"R{i % 3}", severity=OutcomeClass.WIN if i % 2 else OutcomeClass.LOSS)
            for i in range(20)
        ]
        t = InteractionTable(rows)
        with pytest.warns(RuntimeWarning, match="dropped"):
            fit = fit_severity_model(t, 0.1)
        assert fit.dropped == (OutcomeClass.HIT, OutcomeClass.SACK)
        assert fit.classes == (OutcomeClass.WIN,)
        probs = predict_class_probs(fit, t[0])
        assert probs[OutcomeClass.HIT] == 0.0
        assert probs[OutcomeClass.SACK] == 0.0

    @pytest.mark.parametrize("entry", ["fit_severity_model", "fit_multinomial_ridge", "fit_coded"])
    def test_dropped_class_warning_points_at_caller(self, entry):
        rows = [
            make_row(idx=i, rusher=f"R{i % 3}", severity=OutcomeClass(i % 2)) for i in range(20)
        ]
        t = InteractionTable(rows)
        idx = build_index(t)
        fits = {
            "fit_severity_model": lambda: fit_severity_model(t, 0.1),
            "fit_multinomial_ridge": lambda: fit_multinomial_ridge(
                build_matrix(t, idx), [r.severity for r in t], 0.1, idx
            ),
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
                fit_severity_model(InteractionTable(rows), 0.1)

    def test_probabilities_sum_to_one(self, rng, small_table):
        fit = fit_severity_model(small_table, 0.3)
        M = predict_class_prob_matrix(fit, small_table)
        assert M.shape == (len(small_table), 4)
        assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(M >= 0)

    def test_shrinkage_limit_recovers_class_frequencies(self, rng, small_table):
        fit = fit_severity_model(small_table, 1e6)
        M = predict_class_prob_matrix(fit, small_table)
        counts = np.bincount([int(r.severity) for r in small_table], minlength=4)
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
            fit = fit_severity_model(InteractionTable(rows), 0.2)
        assert fit.dropped == (OutcomeClass.HIT,)
        assert OutcomeClass.LOSS not in fit.dropped
        probs = predict_class_probs(fit, rows[0])
        assert probs[OutcomeClass.HIT] == 0.0
        assert probs[OutcomeClass.LOSS] >= 0.0
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def _assert_fits_close(a, b, tol):
    if isinstance(a, BinaryFit):
        pairs = [(a.alpha, b.alpha), (a.delta, b.delta)]
        effects = [(a.rusher_effects, b.rusher_effects), (a.blocker_effects, b.blocker_effects)]
    else:
        assert (a.classes, a.dropped) == (b.classes, b.dropped)
        pairs = [(a.alpha[c], b.alpha[c]) for c in a.classes]
        pairs += [(a.delta[c], b.delta[c]) for c in a.classes]
        effects = [(a.rusher_effects[c], b.rusher_effects[c]) for c in a.classes]
        effects += [(a.blocker_effects[c], b.blocker_effects[c]) for c in a.classes]
    for x, y in pairs:
        assert x == pytest.approx(y, abs=tol)
    for x, y in effects:
        assert x.keys() == y.keys()
        for pid in x:
            assert x[pid] == pytest.approx(y[pid], abs=tol)


def _fit_rows(model, X, rows, lam, idx, weights=None):
    if model == "win":
        return fit_binary_ridge(X, [r.win_target for r in rows], lam, idx, weights=weights)
    return fit_multinomial_ridge(X, [r.severity for r in rows], lam, idx, weights=weights)


class TestWeightedFits:
    @pytest.mark.parametrize("model", ["win", "severity"])
    def test_integer_weights_equal_repeated_rows(self, rng, model):
        for _ in range(3):
            t = random_table(rng, n_rows=40)
            idx = build_index(t)
            w = rng.integers(1, 4, size=len(t))
            repeated = InteractionTable([r for r, k in zip(t, w) for _ in range(k)])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                weighted = _fit_rows(model, build_matrix(t, idx), t, 0.3, idx, w)
                copies = _fit_rows(model, build_matrix(repeated, idx), repeated, 0.3, idx)
            _assert_fits_close(weighted, copies, 1e-10)
            assert weighted.neg_loglik == pytest.approx(copies.neg_loglik, rel=1e-10)

    @pytest.mark.parametrize("model", ["win", "severity"])
    def test_zero_weight_equals_removed_row(self, rng, model):
        t = random_table(rng, n_rows=40)
        idx = build_index(t)
        w = np.ones(len(t))
        w[[3, 17]] = 0.0
        kept = InteractionTable([r for r, k in zip(t, w) if k])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            weighted = _fit_rows(model, build_matrix(t, idx), t, 0.3, idx, w)
            removed = _fit_rows(model, build_matrix(kept, idx), kept, 0.3, idx)
        _assert_fits_close(weighted, removed, 1e-10)

    def test_bad_weights_rejected(self, rng):
        t, idx, X, y = binary_problem(rng)
        for bad in (np.ones(len(y) - 1), -np.ones(len(y)), np.zeros(len(y))):
            with pytest.raises(DataError):
                fit_binary_ridge(X, y, 0.1, idx, weights=bad)

    def test_zero_weight_class_is_dropped(self):
        rows = [
            make_row(idx=i, rusher=f"R{i % 3}", severity=OutcomeClass(i % 3)) for i in range(21)
        ]
        t = InteractionTable(rows)
        w = np.array([0.0 if r.severity is OutcomeClass.HIT else 1.0 for r in t])
        with pytest.warns(RuntimeWarning, match="dropped"):
            fit = fit_multinomial_ridge(
                build_matrix(t, build_index(t)), [r.severity for r in t], 0.1,
                build_index(t), weights=w,
            )
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
            idx = build_index(t)
            lam = float(rng.uniform(0.05, 0.5))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cells = (fit_win_model if model == "win" else fit_severity_model)(t, lam)
                rows = _fit_rows(model, build_matrix(t, idx), t, lam, idx)
            _assert_fits_close(cells, rows, 1e-10)
            assert cells.neg_loglik == pytest.approx(rows.neg_loglik, rel=1e-10)

    def test_fit_coded_leaves_zero_weight_players_out(self, rng):
        t = random_table(rng, n_rows=120)
        absent = t.rushers[0]
        w = np.array([0.0 if r.rusher_id == absent else 2.0 for r in t])
        fit = fit_coded(t, w, "win", 0.4)
        assert absent not in fit.rusher_effects
        assert set(fit.rusher_effects) == set(t.rushers) - {absent}


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


def reference_solve(X, class_idx, n_classes, lam, pen, weights, tol=1e-8, max_iter=500):
    """Damped Newton on the reference Hessian: dense Cholesky, least squares if it fails."""

    def value_grad(th):
        obj, grad = multinomial_objective_grad(th, X, class_idx, n_classes, lam, pen, weights)
        return obj, grad, reference_probs(X, th)

    theta = np.zeros((n_classes - 1) * X.shape[1])
    state = value_grad(theta)
    iterations = fallbacks = 0
    while np.abs(state[1]).max() > tol and iterations < max_iter:
        iterations += 1
        H = reference_hessian(X, state[2], lam, pen, weights)
        try:
            direction = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), -state[1])
        except scipy.linalg.LinAlgError:
            fallbacks += 1
            direction = np.linalg.lstsq(H, -state[1], rcond=None)[0]
        theta, state, moved = fit_module._take_step(value_grad, theta, state, direction)
        if not moved:
            break
    return theta, iterations, fallbacks


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


def reference_newton_direction(parts, grad, design):
    """The Schur-complement step as ``fit._newton_direction`` took it
    before the step moved to numpy's LAPACK: scipy's Cholesky of a dense
    ``D - G^T G``, and ``G = L^-1 C`` kept for the back-substitution.
    ``parts`` (``fit._hessian_parts``) is left unchanged.

    Returns the class-major direction and None, or None and the factor
    that is not positive definite.
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
                return None, ("rusher", j)
        raise
    g = grad.reshape(k, design.n_columns)
    rushers, rest_columns = design.rusher_columns, design.rest_columns
    G = _reference_forward(L, parts.coupling).reshape(r * k, m)
    u = _reference_forward(L, -g[:, rushers].T[:, :, None]).ravel()
    try:
        factor = scipy.linalg.cho_factor(rest - G.T @ G, lower=True)
    except scipy.linalg.LinAlgError:
        return None, ("schur", None)
    x_rest = scipy.linalg.cho_solve(factor, -g[:, rest_columns].ravel() - G.T @ u)
    x_rusher = _reference_backward(L, (u - G @ x_rest).reshape(r, k, 1))
    direction = np.empty_like(g)
    direction[:, rushers] = x_rusher[:, :, 0].T
    direction[:, rest_columns] = x_rest.reshape(k, -1)
    return direction.ravel(), None


def hessian_cases(rng):
    """(name, X, index, class_idx, n_classes, weights) for the structured-Hessian oracles."""
    t = random_table(rng, n_rows=120, n_rushers=7, n_blockers=5)
    idx = build_index(t)
    X = build_matrix(t, idx)
    sev = t.severity
    ones = np.ones(len(t))
    # every hit row has zero weight, so hit is dropped and K = 2
    no_hit = np.where(sev == int(OutcomeClass.HIT), 0.0, rng.uniform(0.5, 2.0, len(t)))
    _, _, dropped_idx = fit_module._class_coding("severity", sev, no_hit)
    zero_cells = np.where(rng.random(len(t)) < 0.3, 0.0, rng.integers(1, 4, len(t)))
    part = build_index(InteractionTable(t.rows[:25]))
    # a fifth of the rows lose their blocker entry and another fifth their rusher entry
    coo = X.tocoo()
    drop = rng.integers(0, 5, len(t))[coo.row]
    keep = ~((drop == 0) & (coo.data == -1.0)) & ~((drop == 1) & (coo.data == 1.0) & (coo.col >= 2))
    no_player = sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=X.shape)
    yield "K=1", X, idx, t.win.astype(np.intp), 2, ones
    yield "K=3", X, idx, sev, 4, ones
    yield "dropped class", X, idx, dropped_idx, 3, no_hit
    yield "zero-weight cells", X, idx, sev, 4, zero_cells
    yield "partial index", build_matrix(t, part), part, sev, 4, ones
    yield "rows without a player", no_player, idx, sev, 4, ones


class TestStructuredNewtonStep:
    def test_hessian_equals_sparse_products(self, rng):
        for name, X, idx, class_idx, n_classes, w in hessian_cases(rng):
            design = fit_module._design_from_csr(X, idx)
            pen = penalty_mask(idx)
            theta = rng.normal(scale=0.5, size=(n_classes - 1) * idx.n_columns)
            probs = reference_probs(X, theta)
            want = reference_hessian(X, probs, 0.3, pen, w)
            parts = fit_module._hessian_parts(design, probs.T, 0.3, pen, w)
            got = fit_module._dense_hessian(parts, design)
            # the terms of one entry share a sign, so each entry agrees to 1e-12 relative
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)

    def test_schur_direction_equals_dense_cholesky(self, rng):
        for name, X, idx, class_idx, n_classes, w in hessian_cases(rng):
            design = fit_module._design_from_csr(X, idx)
            pen = penalty_mask(idx)
            theta = rng.normal(scale=0.5, size=(n_classes - 1) * idx.n_columns)
            _, grad = multinomial_objective_grad(theta, X, class_idx, n_classes, 0.3, pen, w)
            probs = reference_probs(X, theta)
            H = reference_hessian(X, probs, 0.3, pen, w)
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), -grad)
            got, failed = fit_module._newton_direction(design, probs.T, 0.3, pen, w, grad)
            assert failed is None, name
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name

    def test_direction_equals_reference_step(self, rng):
        for name, X, idx, class_idx, n_classes, w in hessian_cases(rng):
            design = fit_module._design_from_csr(X, idx)
            pen = penalty_mask(idx)
            theta = rng.normal(scale=0.5, size=(n_classes - 1) * idx.n_columns)
            _, grad, probs = fit_module._objective(theta, design, class_idx, n_classes, 0.3, pen, w)
            parts = fit_module._hessian_parts(design, probs, 0.3, pen, w)
            want, want_failed = reference_newton_direction(parts, grad, design)
            got, failed = fit_module._newton_direction(design, probs, 0.3, pen, w, grad)
            assert failed is want_failed is None, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.mark.parametrize("role, tag", [("rusher", ("rusher", 0)), ("blocker", ("schur", None))])
    def test_failed_factor_equals_reference_step(self, rng, role, tag):
        t, idx, X, y, w = self._zero_exposure_problem(rng, role)
        design = fit_module._design_from_csr(X, idx)
        pen = penalty_mask(idx)
        theta = rng.normal(scale=0.5, size=idx.n_columns)
        _, grad, probs = fit_module._objective(theta, design, y, 2, 0.0, pen, w)
        parts = fit_module._hessian_parts(design, probs, 0.0, pen, w)
        assert reference_newton_direction(parts, grad, design) == (None, tag)
        assert fit_module._newton_direction(design, probs, 0.0, pen, w, grad) == (None, tag)

    def test_coupling_product_equals_hessian_rows(self, rng):
        for name, X, idx, class_idx, n_classes, w in hessian_cases(rng):
            design = fit_module._design_from_csr(X, idx)
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

    def test_schur_failure_falls_back_on_rebuilt_hessian(self, rng):
        t, idx, X, y, w = self._zero_exposure_problem(rng, "blocker")
        pen = penalty_mask(idx)
        design = fit_module._design_from_csr(X, idx)
        solution = fit_module._solve(design, y, 2, 0.0, pen, None, 1e-8, 500, w)
        assert solution.grad_sup <= 1e-8
        assert solution.iterations > 0
        assert solution.fallbacks == [("schur", None)] * solution.iterations
        want, iterations, fallbacks = reference_solve(X, y, 2, 0.0, pen, w)
        assert fallbacks == iterations == solution.iterations
        np.testing.assert_allclose(solution.theta.ravel(), want, rtol=0, atol=1e-8)

    def test_fits_make_no_scipy_factorization(self, rng, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("the Newton step called scipy's BLAS or LAPACK")

        for name in ("cho_factor", "cho_solve", "cholesky", "solve_triangular"):
            monkeypatch.setattr(scipy.linalg, name, banned)
        monkeypatch.setattr(scipy.linalg.blas, "dsyrk", banned)
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", banned)
        t = random_table(rng, n_rows=200, n_rushers=8, n_blockers=6)
        win = fit_win_model(t, 0.2)
        severity = fit_severity_model(t, 0.2)
        assert win.iterations > 0 and len(severity.classes) == 3 and severity.iterations > 0

    def test_objective_equals_sparse_design(self, rng):
        for name, X, idx, class_idx, n_classes, w in hessian_cases(rng):
            design = fit_module._design_from_csr(X, idx)
            pen = penalty_mask(idx)
            theta = rng.normal(scale=0.5, size=(n_classes - 1) * idx.n_columns)
            _, grad, probs = fit_module._objective(
                theta, design, class_idx, n_classes, 0.3, pen, w
            )
            want_probs = reference_probs(X, theta)
            np.testing.assert_allclose(probs.T, want_probs, rtol=1e-13, atol=1e-15, err_msg=name)
            resid = want_probs[:, 1:] - np.equal.outer(class_idx, np.arange(1, n_classes))
            want_grad = (X.T @ (resid * w[:, None])).T + 0.6 * pen * theta.reshape(-1, X.shape[1])
            np.testing.assert_allclose(
                grad, want_grad.ravel(), rtol=1e-10, atol=1e-12, err_msg=name
            )

    def _zero_exposure_problem(self, rng, role):
        """A binary problem where one player of ``role`` has only zero-weight rows."""
        t = random_table(rng, n_rows=240, n_rushers=4, n_blockers=3)
        idx = build_index(t)
        codes = t.rusher if role == "rusher" else t.blocker
        w = np.where(codes == 0, 0.0, 1.0)
        return t, idx, build_matrix(t, idx), t.win.astype(np.intp), w

    def test_unpenalized_fit_falls_back_to_least_squares(self, rng):
        t, idx, X, y, w = self._zero_exposure_problem(rng, "rusher")
        pen = penalty_mask(idx)
        design = fit_module._design_from_csr(X, idx)
        solution = fit_module._solve(design, y, 2, 0.0, pen, None, 1e-8, 500, w)
        assert solution.grad_sup <= 1e-8
        assert solution.fallbacks == [("rusher", 0)] * solution.iterations
        want, iterations, fallbacks = reference_solve(X, y, 2, 0.0, pen, w)
        assert fallbacks == iterations == solution.iterations
        np.testing.assert_allclose(solution.theta.ravel(), want, rtol=0, atol=1e-8)
        fit = fit_binary_ridge(X, y, 0.0, idx, weights=w)
        assert fit.alpha == pytest.approx(want[0], abs=1e-8)
        for pid, col in idx.rusher_cols.items():
            assert fit.rusher_effects[pid] == pytest.approx(want[col], abs=1e-8)

    @pytest.mark.parametrize("role", ["rusher", "blocker"])
    def test_fit_error_names_failed_factor(self, rng, role):
        t, idx, X, y, w = self._zero_exposure_problem(rng, role)
        with pytest.raises(FitError) as info, pytest.warns(RuntimeWarning, match="separation"):
            fit_binary_ridge(X, y, 0.0, idx, weights=w, max_iter=1)
        message = str(info.value)
        assert "1 of 1 Newton steps fell back to least squares" in message
        if role == "rusher":
            assert f"the block of rusher {t.rushers[0]!r}" in message
        else:
            assert "the Schur complement factor" in message

    def test_fit_error_without_fallback_says_so(self, rng):
        t, idx, X, y = binary_problem(rng)
        with pytest.raises(FitError, match="0 of 1 Newton steps fell back"):
            fit_binary_ridge(X, y, 0.1, idx, max_iter=1, tol=1e-300)


def malformed_designs(rng):
    """(shape, row, design) with one row that is not a paired comparison."""
    t = random_table(rng, n_rows=40, n_rushers=3, n_blockers=3)
    idx = build_index(t)
    base = build_matrix(t, idx).toarray()
    r0, b0 = idx.rusher_cols[t.rushers[0]], idx.blocker_cols[t.blockers[0]]
    row = 7
    cases = {}
    X = base.copy()
    X[row, 0] = 2.0
    cases["intercept not 1"] = X
    X = base.copy()
    X[row, 2 : 2 + idx.n_rushers] = 0.0
    X[row, [r0, r0 + 1]] = 1.0
    cases["two rusher entries"] = X
    X = base.copy()
    X[row, 2 : 2 + idx.n_rushers] = 0.0
    X[row, 2 + idx.n_rushers :] = 0.0
    X[row, b0 + 1] = 1.0
    cases["+1 in a blocker column"] = X
    X = base.copy()
    X[row, 1] = 0.5
    cases["double team not 0/1"] = X
    for shape, dense in cases.items():
        yield shape, row, t, idx, sp.csr_matrix(dense)


class TestMalformedDesignRows:
    def test_fits_name_the_row(self, rng):
        for shape, row, t, idx, X in malformed_designs(rng):
            y = t.win.astype(float)
            with pytest.raises(DataError, match=f"design row {row} "):
                fit_binary_ridge(X, y, 0.1, idx)
            with pytest.raises(DataError, match=f"design row {row} "):
                fit_multinomial_ridge(X, [r.severity for r in t], 0.1, idx)

    def test_objectives_name_the_row(self, rng):
        for shape, row, t, idx, X in malformed_designs(rng):
            pen = penalty_mask(idx)
            with pytest.raises(DataError, match=f"design row {row} "):
                binary_objective_grad(np.zeros(idx.n_columns), X, t.win, 0.1, pen)
            with pytest.raises(DataError, match=f"design row {row} "):
                multinomial_objective_grad(
                    np.zeros(3 * idx.n_columns), X, t.severity, 4, 0.1, pen
                )

    def test_well_formed_rows_pass(self, rng):
        # stored zeros, a partial index and unsorted entries are all well formed
        t = random_table(rng, n_rows=40, n_rushers=3, n_blockers=3)
        idx = build_index(InteractionTable(t.rows[:10]))
        X = build_matrix(t, idx)
        coo = X.tocoo()
        order = rng.permutation(coo.nnz)
        shuffled = sp.coo_matrix(
            (np.append(coo.data[order], 0.0),
             (np.append(coo.row[order], 3), np.append(coo.col[order], 1))),
            shape=X.shape,
        )
        pen = penalty_mask(idx)
        theta = rng.normal(size=idx.n_columns)
        want = binary_objective_grad(theta, X, t.win, 0.1, pen)
        got = binary_objective_grad(theta, shuffled, t.win, 0.1, pen)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

    def test_column_count_must_match_index(self, rng):
        t, idx, X, y = binary_problem(rng)
        with pytest.raises(DataError, match="columns"):
            fit_binary_ridge(X[:, :-1], y, 0.1, idx)


class TestVectorizedPrediction:
    def test_equals_per_row_predictors(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=7, n_blockers=6)
        # fits on part of the table leave some players unseen
        part = InteractionTable(t.rows[:30])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            win = fit_win_model(part, 0.3)
            sev = fit_severity_model(part, 0.3)
        assert predict_win_probs(win, t).tolist() == [predict_win_prob(win, x) for x in t]
        want = np.array([[predict_class_probs(sev, x)[c] for c in CLASSES] for x in t])
        assert np.array_equal(predict_class_prob_matrix(sev, t), want)
        sub = np.array([5, 1, 40])
        assert np.array_equal(predict_class_prob_matrix(sev, t.take(sub)), want[sub])


class TestExpectedSeverity:
    def test_weighted_sum(self):
        probs = {
            OutcomeClass.LOSS: 0.4,
            OutcomeClass.WIN: 0.3,
            OutcomeClass.HIT: 0.2,
            OutcomeClass.SACK: 0.1,
        }
        weights = SeverityWeights(0.0, 0.1, 0.2, 1.0)
        assert expected_severity(probs, weights) == pytest.approx(
            0.3 * 0.1 + 0.2 * 0.2 + 0.1 * 1.0
        )
        vec = [probs[c] for c in CLASSES]
        assert expected_severity(vec, weights) == expected_severity(probs, weights)


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
        for row, lab in zip(t, labels):
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
    """Grouped CV with one InteractionTable, index and row design per fold."""
    games = table.games
    fold_of = {}
    for fold, block in enumerate(np.array_split(np.arange(len(games)), n_folds)):
        for gi in block:
            fold_of[games[gi]] = fold
    desc = sorted(grid, reverse=True)
    losses = np.zeros((n_folds, len(desc)))
    for fold in range(n_folds):
        train = InteractionTable([r for r in table if fold_of[r.game_id] != fold])
        held = InteractionTable([r for r in table if fold_of[r.game_id] == fold])
        idx = build_index(train)
        X, Xh = build_matrix(train, idx), build_matrix(held, idx)
        theta = None
        for j, lam in enumerate(desc):
            if target == "win":
                fit = fit_binary_ridge(X, [r.win_target for r in train], lam, idx, theta0=theta)
                theta = _theta_from_binary(fit, idx)
                probs = 1.0 / (1.0 + np.exp(-(Xh @ theta)))
                losses[fold, j] = binary_log_loss(probs, [r.win_target for r in held])
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fit = fit_multinomial_ridge(
                    X, [r.severity for r in train], lam, idx, theta0=theta
                )
            Theta = _theta_from_multinomial(fit, idx)
            theta = Theta.T
            eta = np.hstack([np.zeros((len(held), 1)), Xh @ Theta])
            p = np.exp(eta - eta.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            probs = np.zeros((len(held), len(CLASSES)))
            probs[:, 0] = p[:, 0]
            for k, c in enumerate(fit.classes, start=1):
                probs[:, int(c)] = p[:, k]
            losses[fold, j] = multiclass_log_loss(probs, [r.severity for r in held])
    mean = losses.mean(axis=0)
    return desc[::-1], list(mean[::-1]), select_lambda_min(desc, mean)


def cv_fixture(rng):
    """Six games in three folds.  Fold 0 holds every ``hit`` row, so its
    training part misses that class; fold 2 holds a rusher and a blocker
    that appear nowhere else."""
    rows = []
    for r in random_table(rng, n_rows=150, n_rushers=6, n_blockers=5, n_games=6):
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
    return InteractionTable(rows)


class TestCvMatchesPerFoldTables:
    @pytest.mark.parametrize("target", ["win", "severity"])
    def test_equals_reference(self, rng, target):
        grid = [0.01, 0.1, 1.0, 5.0]
        for _ in range(3):
            t = cv_fixture(rng)
            labels = cv_fold_labels(t, 3)
            held_hit = [r.severity is OutcomeClass.HIT for r, f in zip(t, labels) if f == 0]
            assert any(held_hit)
            assert not any(r.severity is OutcomeClass.HIT for r, f in zip(t, labels) if f != 0)
            assert {r.rusher_id for r, f in zip(t, labels) if f == 2} - {
                r.rusher_id for r, f in zip(t, labels) if f != 2
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
        design, outcome, cell_w, idx = fit_module._cells(table, (~in_fold).astype(float), target)
        held = table.take(in_fold)
        modeled, dropped, class_idx = fit_module._class_coding(target, outcome, cell_w)
        theta = np.zeros((len(modeled), idx.n_columns))
        for j, lam in enumerate(desc):
            solution = fit_module._solve(
                design, class_idx, len(modeled) + 1, lam, penalty_mask(idx), theta, tol,
                max_iter, cell_w,
            )
            assert solution.grad_sup <= tol
            theta = solution.theta
            fit = fit_module._as_fit(
                target, theta, idx, modeled, dropped, lam=lam, neg_loglik=solution.nll,
                grad_norm=solution.grad_sup, iterations=solution.iterations,
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

    def spy(design, class_idx, n_classes, lam, pen_mask, theta0, *rest):
        solution = real(design, class_idx, n_classes, lam, pen_mask, theta0, *rest)
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
        for name, X, idx, class_idx, n_classes, w in hessian_cases(rng):
            d = idx.n_columns
            theta = fit_module._intercept_start(class_idx, n_classes, w, d)
            assert not theta[:, 1:].any(), name
            _, grad = multinomial_objective_grad(
                theta.ravel(), X, class_idx, n_classes, 0.3, penalty_mask(idx), w
            )
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
                design, outcome, cell_w, idx = fit_module._cells(t, w, model)
                modeled, _, class_idx = fit_module._class_coding(model, outcome, cell_w)
                args = design, class_idx, len(modeled) + 1, lam, penalty_mask(idx)
                zero = np.zeros(len(modeled) * idx.n_columns)
                want = fit_module._solve(*args, zero, tol, 500, cell_w)
                got = fit_module._solve(*args, None, tol, 500, cell_w)
                assert got.grad_sup <= tol
                np.testing.assert_allclose(got.theta, want.theta, rtol=0, atol=1e-8)
                cold += want.iterations
                warm += got.iterations
        assert warm < cold

    def test_theta_on_index_maps_by_player_id(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=7, n_blockers=6)
        part = InteractionTable([r for r in t if "0" not in r.rusher_id + r.blocker_id])
        idx = build_index(t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fits = [fit_win_model(part, 0.3), fit_severity_model(part, 0.3)]
        for fit in fits:
            if isinstance(fit, BinaryFit):
                want = _theta_from_binary(fit, build_index(part))[None, :]
            else:
                want = _theta_from_multinomial(fit, build_index(part)).T
            got = fit_module._theta_on_index(fit, idx)
            kept = [0, 1] + [idx.rusher_cols[p] for p in part.rushers] + [
                idx.blocker_cols[p] for p in part.blockers
            ]
            assert np.array_equal(got[:, kept], want)
            assert not got[:, [idx.rusher_cols["R0"], idx.blocker_cols["B0"]]].any()


class TestChainedCv:
    @pytest.mark.parametrize("target", ["win", "severity"])
    @pytest.mark.parametrize("grid", [[0.01, 0.1, 1.0, 5.0], [1.0], [0.0]], ids=str)
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
        if grid == [0.0]:
            assert chained == cold  # both start every fold at zero
        else:
            assert chained < cold

    def test_fold_start_points(self, rng, solves):
        t = cv_fixture(rng)
        grid = [0.1, 1.0]
        for target, chained_folds in (("win", [1, 2]), ("severity", [2])):
            cv_select_lambda(t, target, grid, 3)
            firsts = [theta0 for theta0, _ in solves[:: len(grid)]]
            # fold 1 models hit and fold 0 does not, so fold 1 starts cold
            assert [f for f, theta0 in enumerate(firsts) if theta0 is not None] == chained_folds
            solves.clear()
        cv_select_lambda(t, "win", [0.0, 0.0], 3)
        assert [theta0 is None for theta0, _ in solves] == [True, False] * 3


class TestSerialization:
    def test_binary_round_trip(self, rng, small_table):
        fit = fit_win_model(small_table, 0.25)
        back = fit_from_json_dict(json.loads(json.dumps(fit_to_json_dict(fit))))
        assert back == fit

    def test_multinomial_round_trip(self, rng, small_table):
        fit = fit_severity_model(small_table, 0.25)
        back = fit_from_json_dict(json.loads(json.dumps(fit_to_json_dict(fit))))
        assert back == fit

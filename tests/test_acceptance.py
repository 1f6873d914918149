"""Acceptance suite: ten numbered end-to-end checks for the package.

Each test wraps its assertions in ``criterion(...)``, which records a
one-line PASS/FAIL verdict; the conftest terminal-summary hook prints
the collected lines at the end of the run so every invocation finishes
with a visible scorecard.

Criteria 7 and 8 dominate the runtime: the full-scale recovery run and
the 100-trial coverage study together take roughly fifteen minutes on
one core.  Everything else finishes in seconds.
"""

import contextlib
import json
import math
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import spearmanr

from trenchrank.baselines import (
    Baseline,
    fit_severity_baseline,
    fit_win_baseline,
    predict_severity_matchups,
    predict_win_matchups,
)
from trenchrank.bootstrap import (
    BootstrapConfig,
    end_to_end_bootstrap,
    percentile_interval,
    weekly_path_bootstrap,
)
from trenchrank.evaluate import (
    binary_log_loss,
    multiclass_log_loss,
    ordered_split,
    prior_sensitivity,
    run_validation,
)
from trenchrank.external import enrichment_at_k, model_scores, rank_auc
from trenchrank.fit import (
    fit_severity_model,
    fit_win_model,
    predict_class_prob_matrix,
    predict_win_probs,
)
from trenchrank.interactions import (
    OutcomeClass,
    default_severity_weights,
    derive_weight_from_epa,
)
from trenchrank.report import summary_to_json_dict
from trenchrank.synth import SynthConfig, synth_generate

from conftest import (
    design_matrix,
    make_row,
    penalty_mask,
    random_table,
    rows_of,
    table_index,
    table_of,
    theta_on_index,
    win_effects,
)
from test_fit import (
    cell_objective,
    dense_binary_grad,
    dense_binary_obj,
    dense_multinomial_grad,
    dense_multinomial_obj,
    slow_descent,
)

# League-average EPA benchmarks for the pressure outcomes, used to
# calibrate the severity weights: no pressure, hurry only, hit only,
# and sack.
EPA_NO_PRESSURE = 0.233
EPA_HURRY = 0.019
EPA_HIT = -0.161
EPA_SACK = -1.856

CRITERION_RESULTS: list[str] = []


@contextlib.contextmanager
def criterion(num: int, name: str):
    """Record and print one PASS/FAIL line for an acceptance criterion."""
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        line = f"criterion {num:2d} ({name}): {status}  [{time.perf_counter() - t0:.1f}s]"
        CRITERION_RESULTS.append(line)
        print(line)


def test_criterion_01_epa_weights():
    with criterion(1, "EPA weight derivation"):
        w_win = derive_weight_from_epa(EPA_NO_PRESSURE, EPA_HURRY, EPA_SACK)
        w_hit = derive_weight_from_epa(EPA_NO_PRESSURE, EPA_HIT, EPA_SACK)
        assert w_win == pytest.approx(0.1024, abs=1e-3)
        assert w_hit == pytest.approx(0.1886, abs=1e-3)
        w = default_severity_weights()
        assert (w.loss, w.win, w.hit, w.sack) == (0.0, 0.10, 0.20, 1.00)


def test_criterion_02_ordered_split_counts():
    with criterion(2, "ordered split arithmetic"):
        n = 153_138
        table = table_of(
            make_row(game="g0", play=f"p{e:06d}", idx=e) for e in range(n)
        )
        t0 = time.perf_counter()
        split = ordered_split(table)
        elapsed = time.perf_counter() - t0
        assert len(split.train) == 122_510
        assert len(split.test) == 30_628
        assert elapsed < 1.0


def test_criterion_03_solver_oracles():
    with criterion(3, "solvers match slow-descent and difference oracles"):
        rng = np.random.default_rng(20_311)
        t0 = time.perf_counter()
        for _ in range(20):
            t = random_table(
                rng,
                n_rows=int(rng.integers(20, 51)),
                n_rushers=int(rng.integers(2, 6)),
                n_blockers=int(rng.integers(2, 6)),
                n_games=2,
            )
            idx = table_index(t)
            Xd = design_matrix(t, idx).toarray()
            pen = penalty_mask(idx)
            y = np.array([float(r.win_target) for r in rows_of(t)])
            lam = float(rng.uniform(0.05, 0.5))

            fit = fit_win_model(t, lam)
            _, f_oracle = slow_descent(
                lambda v: dense_binary_obj(v, Xd, y, lam, pen),
                lambda v: dense_binary_grad(v, Xd, y, lam, pen),
                np.zeros(idx.n_columns),
            )
            f_fit = dense_binary_obj(theta_on_index(fit, idx)[0], Xd, y, lam, pen)
            assert f_fit == pytest.approx(f_oracle, rel=1e-6, abs=1e-9)

            # the analytic gradients of the objectives the table fits minimize
            win_grad, win_idx, _ = cell_objective(t, "win")
            sev_grad, sev_idx, n_sev = cell_objective(t, "severity")
            assert win_idx == sev_idx == idx
            theta = rng.normal(scale=0.4, size=idx.n_columns)
            _, g = win_grad(theta, lam)
            h = 1e-6
            for j in range(idx.n_columns):
                e = np.zeros_like(theta)
                e[j] = h
                fp, _ = win_grad(theta + e, lam)
                fm, _ = win_grad(theta - e, lam)
                assert g[j] == pytest.approx((fp - fm) / (2 * h), rel=1e-6, abs=1e-6)

            classes = [r.severity for r in rows_of(t)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                mfit = fit_severity_model(t, lam)
            order = {c: i for i, c in enumerate((OutcomeClass.LOSS,) + mfit.classes)}
            cls = np.array([order[c] for c in classes])
            km = len(mfit.classes)
            assert n_sev == km + 1
            _, f_oracle_m = slow_descent(
                lambda v: dense_multinomial_obj(v.reshape(km, -1).T, Xd, cls, lam, pen),
                lambda v: dense_multinomial_grad(
                    v.reshape(km, -1).T, Xd, cls, lam, pen
                ).T.ravel(),
                np.zeros(idx.n_columns * km),
            )
            Theta = theta_on_index(mfit, idx).T
            f_fit_m = dense_multinomial_obj(Theta, Xd, cls, lam, pen)
            assert f_fit_m == pytest.approx(f_oracle_m, rel=1e-6, abs=1e-9)

            theta_flat = rng.normal(scale=0.3, size=idx.n_columns * km)
            _, gm = sev_grad(theta_flat, lam)
            for j in range(theta_flat.size):
                e = np.zeros_like(theta_flat)
                e[j] = h
                fp, _ = sev_grad(theta_flat + e, lam)
                fm, _ = sev_grad(theta_flat - e, lam)
                assert gm[j] == pytest.approx((fp - fm) / (2 * h), rel=1e-6, abs=1e-6)

            # a two-class severity problem is the win problem in disguise
            rows = [
                make_row(
                    game=r.game_id,
                    play=r.play_id,
                    idx=r.event_game_index,
                    week=r.week,
                    rusher=r.rusher_id,
                    blocker=r.blocker_id,
                    double=r.double_team,
                    win=r.severity >= OutcomeClass.WIN,
                    severity=OutcomeClass.WIN
                    if r.severity >= OutcomeClass.WIN
                    else OutcomeClass.LOSS,
                )
                for r in rows_of(t)
            ]
            two = table_of(rows)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sev_fit = fit_severity_model(two, lam)
            win_fit = fit_win_model(two, lam)
            p_bin = predict_win_probs(win_fit, two)
            p_mult = predict_class_prob_matrix(sev_fit, two)[:, OutcomeClass.WIN]
            assert p_mult == pytest.approx(p_bin, abs=1e-6)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_04_shrinkage_limits():
    with criterion(4, "heavy shrinkage recovers base rates"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        for n_rows, n_games in ((80, 2), (300, 5)):
            t = random_table(rng, n_rows=n_rows, n_rushers=6, n_blockers=5, n_games=n_games)
            y = np.array([float(r.win_target) for r in rows_of(t)])
            fit = fit_win_model(t, 1e6)
            assert np.allclose(predict_win_probs(fit, t), y.mean(), atol=1e-3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sev = fit_severity_model(t, 1e6)
            M = predict_class_prob_matrix(sev, t)
            freqs = np.bincount([int(r.severity) for r in rows_of(t)], minlength=4) / len(t)
            assert np.allclose(M, freqs[None, :], atol=1e-3)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_05_baseline_oracles():
    with criterion(5, "baseline smoothing and matchup identities"):
        # n=25 at rate 0.5 blended with m=25 toward global 0.25
        worked = table_of([
            make_row(idx=0, rusher="R1", win=True, severity=OutcomeClass.WIN),
            make_row(idx=1, rusher="R1"),
            make_row(idx=2, rusher="R2"),
        ])
        bl = fit_win_baseline(worked, 25.0, [12.5, 12.5, 25.0])
        assert bl.global_value.tolist() == [0.25]
        ids, counts, values = bl.side("rusher")
        assert (ids[0], counts[0], values[0, 0]) == ("R1", 25.0, 0.375)

        one_pair = table_of([make_row(rusher="R", blocker="B")])
        bl = Baseline("win", 25.0, [0.5], ("R",), ("B",), [10, 10], [[0.8, 0.2]])
        assert predict_win_matchups(bl, one_pair)[0] == pytest.approx(0.5, abs=1e-12)

        pi = np.array([0.4, 0.3, 0.2, 0.1])
        sbl = Baseline("severity", 5.0, pi, ("R",), ("B",), [8, 8], np.c_[pi, pi])
        got = predict_severity_matchups(sbl, one_pair)[0]
        assert np.allclose(got, sbl.global_value, atol=1e-12)

        # with only loss/win observed, the severity matchup collapses to
        # the win matchup built from the same counts
        rng = np.random.default_rng(5)
        base = random_table(rng, n_rows=80, n_rushers=4, n_blockers=3)
        rows = [
            make_row(
                game=r.game_id,
                play=r.play_id,
                idx=r.event_game_index,
                week=r.week,
                rusher=r.rusher_id,
                blocker=r.blocker_id,
                double=r.double_team,
                win=r.severity >= OutcomeClass.WIN,
                severity=OutcomeClass.WIN
                if r.severity >= OutcomeClass.WIN
                else OutcomeClass.LOSS,
            )
            for r in rows_of(base)
        ]
        two = table_of(rows)
        wbl = fit_win_baseline(two, 25.0)
        sbl2 = fit_severity_baseline(two, 25.0)
        pw = predict_win_matchups(wbl, two)
        ps = predict_severity_matchups(sbl2, two)
        assert np.allclose(ps[:, int(OutcomeClass.WIN)], pw, rtol=0.0, atol=1e-12)
        assert np.all(ps[:, int(OutcomeClass.HIT)] == 0.0)
        assert np.all(ps[:, int(OutcomeClass.SACK)] == 0.0)


def test_criterion_06_metric_oracles():
    with criterion(6, "ranking and loss metrics match brute force"):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            if rng.random() < 0.5:
                scores = rng.integers(0, 5, size=n).astype(float)
            else:
                scores = rng.normal(size=n)
            auc = rank_auc(scores, labels)
            pos = [float(v) for v in scores[labels]]
            neg = [float(v) for v in scores[~labels]]
            wins = ties = 0
            for a in pos:
                for b in neg:
                    if a > b:
                        wins += 1
                    elif a == b:
                        ties += 1
            assert auc == (wins + 0.5 * ties) / (len(pos) * len(neg))

        for _ in range(300):
            n = int(rng.integers(2, 201))
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n + 1))] = True
            rng.shuffle(labels)
            scores = rng.integers(0, 6, size=n).astype(float)
            n_pos = int(labels.sum())
            k = n_pos if rng.random() < 0.5 else int(rng.integers(1, n + 1))
            e = enrichment_at_k(scores, labels, k)
            order = sorted(range(n), key=lambda i: (-scores[i], i))
            hits = sum(bool(labels[i]) for i in order[:k])
            assert e == (hits * n) / (k * n_pos)
            # the identity enrichment * base rate * k == hits, checked in
            # exact rational arithmetic (denominators stay below 40,001)
            frac = Fraction(e).limit_denominator(40_000)
            assert frac * Fraction(n_pos, n) * k == hits

        for _ in range(50):
            n = int(rng.integers(1, 400))
            p = rng.uniform(0.01, 0.99, size=n)
            yb = rng.random(n) < 0.5
            direct = -sum(
                math.log(pi) if yi else math.log(1.0 - pi) for pi, yi in zip(p, yb)
            ) / n
            assert binary_log_loss(p, yb) == pytest.approx(direct, rel=1e-12, abs=1e-12)
            P = rng.uniform(0.05, 1.0, size=(n, 4))
            P /= P.sum(axis=1, keepdims=True)
            cls = [OutcomeClass(int(c)) for c in rng.integers(0, 4, size=n)]
            direct_m = -sum(math.log(P[i, int(c)]) for i, c in enumerate(cls)) / n
            assert multiclass_log_loss(P, cls) == pytest.approx(
                direct_m, rel=1e-12, abs=1e-12
            )


FULL_SCALE = SynthConfig(
    n_rushers=620,
    n_blockers=348,
    n_games=266,
    plays_per_game=115,
    interactions_per_play=5,
    n_weeks=18,
    seed=0,
)


@pytest.mark.slow
def test_criterion_07_synthetic_recovery():
    with criterion(7, "full-scale synthetic recovery"):
        table, truth = synth_generate(FULL_SCALE)
        assert len(table) == 152_950
        double_rate = np.mean([r.double_team for r in rows_of(table)])
        assert 0.40 <= double_rate <= 0.46

        t0 = time.perf_counter()
        report = run_validation(table)  # CV picks both penalties on train
        fit = fit_win_model(table, report.lambda_win)
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0

        assert all(row.improvement > 0 for row in report.rows)
        effects = win_effects(fit).rusher_effects
        players = sorted(effects)
        fitted = [effects[p] for p in players]
        true = [truth.rusher_win_effects[p] for p in players]
        assert spearmanr(fitted, true).statistic >= 0.9

        # the improvements stay positive when the data are redrawn and
        # revalidated at the penalties selected above
        for seed in (1, 2, 3, 4):
            tbl, _ = synth_generate(replace(FULL_SCALE, seed=seed))
            rep = run_validation(
                tbl, lambda_win=report.lambda_win, lambda_sev=report.lambda_sev
            )
            assert all(row.improvement > 0 for row in rep.rows)


@pytest.mark.slow
def test_criterion_08_bootstrap_determinism_and_coverage():
    with criterion(8, "bootstrap determinism and interval coverage"):
        cfg = SynthConfig(
            n_rushers=8,
            n_blockers=6,
            n_games=10,
            plays_per_game=10,
            interactions_per_play=4,
            n_weeks=5,
            seed=42,
        )
        table, _ = synth_generate(cfg)
        bcfg = BootstrapConfig(b=16, seed=7, lambda_win=0.5, lambda_sev=0.5)
        blob_a = json.dumps(
            summary_to_json_dict(end_to_end_bootstrap(table, bcfg)), sort_keys=True
        ).encode()
        blob_b = json.dumps(
            summary_to_json_dict(end_to_end_bootstrap(table, bcfg)), sort_keys=True
        ).encode()
        assert blob_a == blob_b

        # Desk-scale coverage study: 100 independent worlds, B=200 each
        # (B=1000 is the long-running mode described in the README).  The
        # penalized fit centers each role's effects at zero, so the
        # interval is compared against the generator effect centered the
        # same way; the raw effects carry an arbitrary common shift the
        # model cannot see.
        covered = 0
        n_trials = 100
        for trial in range(n_trials):
            gen = SynthConfig(
                n_rushers=10,
                n_blockers=8,
                n_games=20,
                plays_per_game=40,
                interactions_per_play=4,
                n_weeks=10,
                seed=1000 + trial,
            )
            tbl, truth = synth_generate(gen)
            pid = sorted(truth.rusher_win_effects)[0]
            boot = BootstrapConfig(
                b=200,
                seed=trial,
                lambda_win=0.2,
                lambda_sev=0.2,
                models=("win",),
                track_improvements=False,
                track_players=(pid,),
            )
            summary = end_to_end_bootstrap(tbl, boot)
            lo, hi = percentile_interval(
                summary.ratings[("win", "rusher", pid)].values, 2.5, 97.5
            )
            target = truth.rusher_win_effects[pid] - np.mean(
                list(truth.rusher_win_effects.values())
            )
            covered += lo <= target <= hi
        assert 88 <= covered <= 99


def test_criterion_09_sensitivity_sweep_shape():
    with criterion(9, "prior-sensitivity sweep shape"):
        rng = np.random.default_rng(99)
        t = random_table(rng, n_rows=400, n_rushers=8, n_blockers=6, n_games=8, n_weeks=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = prior_sensitivity(t, lambda_win=0.5, lambda_sev=0.5)
        assert len(rows) == 8
        assert [r.task for r in rows] == ["win"] * 4 + ["severity"] * 4
        assert [r.m for r in rows[:4]] == [10.0, 25.0, 50.0, 100.0]
        assert [r.m for r in rows[4:]] == [10.0, 25.0, 50.0, 100.0]
        for task_rows in (rows[:4], rows[4:]):
            assert len({r.model_logloss for r in task_rows}) == 1


def test_criterion_10_weekly_path_checkpoints():
    with criterion(10, "weekly path checkpoints and identity resample"):
        cfg = SynthConfig(
            n_rushers=8,
            n_blockers=6,
            n_games=36,
            plays_per_game=12,
            interactions_per_play=3,
            n_weeks=18,
            seed=10,
        )
        table, _ = synth_generate(cfg)
        assert sorted({r.week for r in rows_of(table)}) == list(range(1, 19))
        pid = sorted(table.rushers)[0]
        bcfg = BootstrapConfig(
            b=1,
            seed=0,
            lambda_win=0.4,
            lambda_sev=0.4,
            identity_resample=True,
            track_players=(pid,),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = weekly_path_bootstrap(table, bcfg)
        assert summary.checkpoints == tuple(range(1, 19))
        win_weeks = sorted(
            w
            for (m, role, p, w) in summary.weekly
            if m == "win" and role == "rusher" and p == pid
        )
        assert win_weeks == list(range(1, 19))

        final = summary.weekly[("win", "rusher", pid, 18)].values[0]
        full = fit_win_model(table, 0.4, tol=bcfg.tol, max_iter=bcfg.max_iter)
        assert final == pytest.approx(win_effects(full).rusher_effects[pid], abs=1e-10)

        sev_final = summary.weekly[("severity", "rusher", pid, 18)].values[0]
        sev_full = model_scores(
            fit_severity_model(table, 0.4, tol=bcfg.tol, max_iter=bcfg.max_iter), "rusher"
        )
        assert sev_final == pytest.approx(sev_full[pid], abs=1e-10)

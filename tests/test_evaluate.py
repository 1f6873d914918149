import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trenchrank.evaluate as ev
import trenchrank.fit as fit_module
from trenchrank.baselines import (
    fit_severity_baseline,
    fit_win_baseline,
    predict_severity_matchups,
    predict_win_matchups,
)
from trenchrank.errors import DataError
from trenchrank.evaluate import (
    PROB_CLIP,
    SENSITIVITY_PRIOR_GRID,
    SensitivityRow,
    binary_log_loss,
    multiclass_log_loss,
    ordered_split,
    prior_sensitivity,
    run_validation,
)
from trenchrank.fit import (
    DROPPED_CLASSES_WARNING,
    cv_select_lambda,
    fit_severity_model,
    fit_win_model,
    predict_class_prob_matrix,
    predict_win_probs,
)
from trenchrank.interactions import CLASSES, OutcomeClass, canonical_sort
from trenchrank.synth import SynthConfig, synth_generate

from conftest import (
    BAD_PENALTIES,
    BAD_SOLVER_OPTIONS,
    make_row,
    random_table,
    rows_of,
    table_of,
)


class TestOrderedSplit:
    def test_ten_rows_make_eight_two(self, rng):
        t = random_table(rng, n_rows=10, n_games=2)
        res = ordered_split(t, 0.8)
        assert (len(res.train), len(res.test)) == (8, 2)
        assert res.ratio == 0.8

    def test_order_and_partition_preserved(self, rng):
        t = random_table(rng, n_rows=40)
        res = ordered_split(t, 0.8)
        assert rows_of(res.train) + rows_of(res.test) == rows_of(t)

    def test_train_size_is_floor(self, rng):
        t = random_table(rng, n_rows=39, n_games=3)
        res = ordered_split(t, 0.8)
        assert len(res.train) == math.floor(0.8 * 39) == 31

    def test_unsorted_input_rejected(self):
        t = table_of([make_row(game="g2"), make_row(game="g1")])
        with pytest.raises(DataError):
            ordered_split(t, 0.8)

    def test_degenerate_split_warns(self):
        t = table_of([make_row()])
        with pytest.warns(RuntimeWarning):
            res = ordered_split(t, 0.8)
        assert (len(res.train), len(res.test)) == (0, 1)

    def test_bad_ratio_rejected(self, small_table):
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ordered_split(small_table, ratio)

    def test_deterministic(self, rng):
        t = random_table(rng)
        a = ordered_split(t, 0.8)
        b = ordered_split(t, 0.8)
        assert a.train == b.train and a.test == b.test


class TestBinaryLogLoss:
    def test_coin_flip_is_ln_two(self):
        assert binary_log_loss([0.5, 0.5], [True, False]) == pytest.approx(math.log(2))

    def test_worked_example(self):
        # -(ln 0.9 + ln 0.8)/2
        loss = binary_log_loss([0.9, 0.2], [True, False])
        assert loss == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2, abs=1e-12)
        assert loss == pytest.approx(0.1643, abs=1e-4)
        # weighted: the first row counts three times, as if repeated
        weighted = binary_log_loss([0.9, 0.2], [True, False], [3.0, 1.0])
        assert weighted == pytest.approx(-(3 * math.log(0.9) + math.log(0.8)) / 4, abs=1e-12)

    def test_perfect_predictions_hit_clip_floor(self):
        loss = binary_log_loss([1.0, 0.0], [True, False])
        assert loss == pytest.approx(-math.log(1 - PROB_CLIP), abs=1e-18)
        assert loss < 1e-14

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            binary_log_loss([0.5], [True, False])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            binary_log_loss([], [])

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.floats(0, 1), st.booleans()), min_size=1, max_size=1000))
    def test_matches_direct_summation(self, pairs):
        probs = [p for p, _ in pairs]
        ys = [y for _, y in pairs]
        total = 0.0
        for p, y in pairs:
            p = min(max(p, PROB_CLIP), 1 - PROB_CLIP)
            total += -(math.log(p) if y else math.log(1 - p))
        assert binary_log_loss(probs, ys) == pytest.approx(total / len(pairs), rel=1e-12)


class TestMulticlassLogLoss:
    def test_uniform_is_ln_four(self):
        M = np.full((3, 4), 0.25)
        cls = [OutcomeClass.LOSS, OutcomeClass.HIT, OutcomeClass.SACK]
        assert multiclass_log_loss(M, cls) == pytest.approx(math.log(4))

    def test_certain_truth_is_zero(self):
        M = np.array([[0.0, 1.0, 0.0, 0.0]])
        assert multiclass_log_loss(M, [OutcomeClass.WIN]) == pytest.approx(0.0, abs=1e-14)

    def test_worked_example(self):
        M = np.array([[0.7, 0.1, 0.1, 0.1], [0.3, 0.1, 0.5, 0.1]])
        cls = [OutcomeClass.LOSS, OutcomeClass.WIN]
        expected = -(math.log(0.7) + math.log(0.1)) / 2
        assert multiclass_log_loss(M, cls) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.3297, abs=1e-4)
        weighted = multiclass_log_loss(M, cls, [3.0, 1.0])
        assert weighted == pytest.approx(-(3 * math.log(0.7) + math.log(0.1)) / 4, abs=1e-12)

    def test_unnormalized_vector_rejected(self):
        M = np.array([[0.5, 0.5, 0.1, 0.0]])
        with pytest.raises(DataError):
            multiclass_log_loss(M, [OutcomeClass.LOSS])

    def test_normalization_tolerance_is_tight(self):
        M = np.array([[0.25, 0.25, 0.25, 0.25 + 5e-10]])
        multiclass_log_loss(M, [OutcomeClass.LOSS])  # within 1e-9: accepted
        with pytest.raises(DataError):
            multiclass_log_loss(np.array([[0.25, 0.25, 0.25, 0.25 + 5e-9]]), [OutcomeClass.LOSS])

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=200), st.randoms())
    def test_matches_direct_summation(self, labels, pyrandom):
        n = len(labels)
        raw = np.array([[pyrandom.random() + 1e-6 for _ in range(4)] for _ in range(n)])
        M = raw / raw.sum(axis=1, keepdims=True)
        cls = [OutcomeClass(v) for v in labels]
        total = sum(-math.log(min(max(M[i, int(c)], PROB_CLIP), 1 - PROB_CLIP)) for i, c in enumerate(cls))
        assert multiclass_log_loss(M, cls) == pytest.approx(total / n, rel=1e-12)


class TestRunValidation:
    def test_four_rows_in_table_layout(self, rng):
        t = random_table(rng, n_rows=200, n_games=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = run_validation(t, lambda_win=0.5, lambda_sev=0.5)
        assert [(r.task, r.baseline) for r in rep.rows] == [
            ("win", "global"),
            ("win", "matchup"),
            ("severity", "global"),
            ("severity", "matchup"),
        ]
        for r in rep.rows:
            assert r.improvement == r.baseline_logloss - r.model_logloss
        assert rep.n_train == 160 and rep.n_test == 40
        assert rep.lambda_win == 0.5 and rep.lambda_sev == 0.5

    def test_global_baseline_on_train_equals_bernoulli_entropy(self, rng):
        t = random_table(rng, n_rows=100, n_games=4)
        from trenchrank.baselines import fit_win_baseline

        p = float(fit_win_baseline(t, 25.0).global_value[0])
        loss = binary_log_loss([p] * len(t), [r.win_target for r in rows_of(t)])
        entropy = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert loss == pytest.approx(entropy, abs=1e-12)

    def test_test_rows_cannot_influence_training(self, rng):
        t = random_table(rng, n_rows=150, n_games=6)
        n_train = math.floor(0.8 * len(t))
        mutated_rows = list(rows_of(t))
        for i in range(n_train, len(t)):
            r = mutated_rows[i]
            mutated_rows[i] = make_row(
                game=r.game_id,
                play=r.play_id,
                idx=r.event_game_index,
                week=r.week,
                rusher=r.rusher_id,
                blocker=r.blocker_id,
                double=r.double_team,
                win=not r.win_target,
                severity=OutcomeClass.LOSS if r.severity else OutcomeClass.SACK,
            )
        mutated = table_of(mutated_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            a = run_validation(t, lambda_win=0.3, lambda_sev=0.3)
            b = run_validation(mutated, lambda_win=0.3, lambda_sev=0.3)
        assert a.win_fit == b.win_fit
        assert a.severity_fit == b.severity_fit
        assert a.win_baseline == b.win_baseline
        assert a.severity_baseline == b.severity_baseline
        # the metrics themselves must differ: the mutation hit the test set
        assert a.rows[0].model_logloss != b.rows[0].model_logloss

    def test_cv_is_confined_to_train(self, rng, monkeypatch):
        t = random_table(rng, n_rows=120, n_games=6)
        seen_sizes = []
        import trenchrank.evaluate as ev

        real = ev.cv_select_lambda

        def spy(table, task, grid, n_folds, **kw):
            seen_sizes.append(len(table))
            return real(table, task, grid, n_folds, **kw)

        monkeypatch.setattr(ev, "cv_select_lambda", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_validation(t, grid=[0.1, 1.0], n_folds=2)
        assert seen_sizes == [96, 96]

class TestPriorSensitivity:
    def test_eight_rows_with_constant_model_columns(self, rng):
        t = random_table(rng, n_rows=200, n_games=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = prior_sensitivity(t, lambda_win=0.5, lambda_sev=0.5)
        assert len(rows) == 8
        assert [r.m for r in rows] == [10.0, 25.0, 50.0, 100.0] * 2
        assert [r.task for r in rows] == ["win"] * 4 + ["severity"] * 4
        for task in ("win", "severity"):
            models = {r.model_logloss for r in rows if r.task == task}
            assert len(models) == 1
        for r in rows:
            assert r.improvement == pytest.approx(r.baseline_logloss - r.model_logloss, abs=1e-15)

    def test_default_grid(self):
        assert SENSITIVITY_PRIOR_GRID == (10.0, 25.0, 50.0, 100.0)

    def test_custom_grid_order_is_respected(self, rng):
        t = random_table(rng, n_rows=120, n_games=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = prior_sensitivity(t, [100.0, 10.0], lambda_win=0.5, lambda_sev=0.5)
        assert [r.m for r in rows] == [100.0, 10.0, 100.0, 10.0]


def reference_prior_sensitivity(
    table, m_grid=SENSITIVITY_PRIOR_GRID, *, lambda_win=None, lambda_sev=None,
    ratio=0.8, grid=None, n_folds=5,
):
    """The sweep as written before it was built on ``run_validation``: its
    own split, train-split CV and fits on a row table of the train split."""
    if len(m_grid) == 0:
        raise ValueError("prior-strength grid must be nonempty")
    split = ordered_split(table, ratio)
    train, test = split.train, split.test
    if len(train) == 0 or len(test) == 0:
        raise DataError("sensitivity sweep needs nonempty train and test portions")

    if lambda_win is None:
        lambda_win = cv_select_lambda(train, "win", grid, n_folds).lambda_min
    if lambda_sev is None:
        lambda_sev = cv_select_lambda(train, "severity", grid, n_folds).lambda_min

    win_fit = fit_win_model(train, lambda_win)
    sev_fit = fit_severity_model(train, lambda_sev)
    model_win = binary_log_loss(predict_win_probs(win_fit, test), test.win)
    model_sev = multiclass_log_loss(predict_class_prob_matrix(sev_fit, test), test.severity)

    out = []
    for m in m_grid:
        bl = fit_win_baseline(train, m)
        loss = binary_log_loss(predict_win_matchups(bl, test), test.win)
        out.append(SensitivityRow("win", float(m), model_win, loss, loss - model_win))
    for m in m_grid:
        bl = fit_severity_baseline(train, m)
        loss = multiclass_log_loss(predict_severity_matchups(bl, test), test.severity)
        out.append(SensitivityRow("severity", float(m), model_sev, loss, loss - model_sev))
    return out


def oracle_world(seed):
    table, _ = synth_generate(SynthConfig(
        n_rushers=40, n_blockers=30, n_games=30, plays_per_game=10, seed=seed,
    ))
    return table


CV_OPTIONS = {"grid": [0.1, 1.0, 10.0], "n_folds": 3}


class TestPriorSensitivityOracle:
    """``prior_sensitivity`` on ``run_validation`` equals the sweep it replaced."""

    @pytest.mark.parametrize(
        "options",
        [
            {"lambda_win": 0.5, "lambda_sev": 0.5},
            CV_OPTIONS,
            {"lambda_win": 0.5, "lambda_sev": 0.5, "ratio": 0.7},
            {**CV_OPTIONS, "ratio": 0.7, "m_grid": [100.0, 3.0, 37.5, 10.0]},
        ],
        ids=["pinned", "cv", "pinned-ratio", "cv-ratio-grid"],
    )
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_rows_equal_reference(self, seed, options):
        table = oracle_world(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = reference_prior_sensitivity(table, **options)
            got = prior_sensitivity(table, **options)
        assert got == want

    def test_train_split_without_a_class(self):
        table = oracle_world(21)
        n_train = math.floor(0.8 * len(table))
        rows = [
            dataclasses.replace(r, severity=OutcomeClass.HIT)
            if i < n_train and r.severity is OutcomeClass.SACK else r
            for i, r in enumerate(rows_of(table))
        ]
        rows[-1] = dataclasses.replace(rows[-1], severity=OutcomeClass.SACK)
        table = table_of(rows)
        for options in ({"lambda_win": 0.5, "lambda_sev": 0.5}, CV_OPTIONS):
            with pytest.warns(RuntimeWarning, match=DROPPED_CLASSES_WARNING):
                got = prior_sensitivity(table, **options)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = reference_prior_sensitivity(table, **options)
            assert got == want


class TestPriorStrengthChecks:
    @pytest.mark.parametrize(
        "m_grid", [[math.nan], [math.inf], [10.0, math.nan], [25.0, -1.0], []],
        ids=["nan", "inf", "nan-later", "negative", "empty"],
    )
    def test_bad_grid_fails_before_any_cv_or_fit(self, rng, monkeypatch, m_grid):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the grid was checked")

        monkeypatch.setattr(ev, "cv_select_lambda", forbidden)
        monkeypatch.setattr(fit_module, "_fit_cells", forbidden)
        t = random_table(rng, n_rows=120, n_games=6)
        with pytest.raises(ValueError, match="prior-strength grid|prior strength"):
            prior_sensitivity(t, m_grid)

    @pytest.mark.parametrize("key", ["m_win", "m_sev"])
    @pytest.mark.parametrize("m", [math.nan, math.inf, -1.0])
    def test_bad_validation_prior_fails_before_any_cv_or_fit(self, rng, monkeypatch, key, m):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the prior strength was checked")

        monkeypatch.setattr(ev, "cv_select_lambda", forbidden)
        monkeypatch.setattr(fit_module, "_fit_cells", forbidden)
        t = random_table(rng, n_rows=120, n_games=6)
        with pytest.raises(ValueError, match="prior strength must be finite and >= 0"):
            run_validation(t, **{key: m})

    @pytest.mark.parametrize("entry", [run_validation, prior_sensitivity],
                             ids=["run_validation", "prior_sensitivity"])
    @pytest.mark.parametrize("key", ["lambda_win", "lambda_sev"])
    @pytest.mark.parametrize("lam", BAD_PENALTIES, ids=str)
    def test_bad_pinned_penalty_fails_before_any_cv_or_fit(self, rng, monkeypatch, entry, key,
                                                          lam):
        # the other penalty is left to CV, which must not run first
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the penalty was checked")

        monkeypatch.setattr(ev, "cv_select_lambda", forbidden)
        monkeypatch.setattr(fit_module, "_fit_cells", forbidden)
        t = random_table(rng, n_rows=120, n_games=6)
        with pytest.raises(ValueError, match="lam must be finite and > 0"):
            entry(t, **{key: lam})

    @pytest.mark.parametrize("entry", [run_validation, prior_sensitivity],
                             ids=["run_validation", "prior_sensitivity"])
    @pytest.mark.parametrize("bad", BAD_SOLVER_OPTIONS)
    def test_bad_solver_options_fail_before_any_cv_or_fit(self, rng, monkeypatch, entry, bad):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the solver options were checked")

        monkeypatch.setattr(ev, "cv_select_lambda", forbidden)
        monkeypatch.setattr(fit_module, "_fit_cells", forbidden)
        options, message = BAD_SOLVER_OPTIONS[bad]
        t = random_table(rng, n_rows=120, n_games=6)
        with pytest.raises(ValueError, match=message):
            entry(t, **options)

    def test_empty_side_error_comes_from_run_validation(self):
        t = table_of([make_row()])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DataError, match="validation needs nonempty train and test"):
                prior_sensitivity(t, lambda_win=0.5, lambda_sev=0.5)

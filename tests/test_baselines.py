import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trenchrank.baselines import (
    DEFAULT_SEVERITY_PRIOR,
    DEFAULT_WIN_PRIOR,
    Baseline,
    fit_severity_baseline,
    fit_win_baseline,
    predict_severity_matchups,
    predict_win_matchups,
    severity_baseline_to_json_dict,
    win_baseline_to_json_dict,
)
from trenchrank.errors import DataError
from trenchrank.interactions import CLASSES, OutcomeClass

from conftest import (
    make_row,
    random_table,
    reference_baseline_json,
    reference_severity_baseline,
    reference_severity_matchup,
    reference_win_baseline,
    reference_win_matchup,
    rows_of,
    table_of,
)


def spec_table(*spec):
    """spec items: (rusher, blocker, win, severity) tuples."""
    rows = [
        make_row(idx=i, rusher=r, blocker=b, win=w, severity=s)
        for i, (r, b, w, s) in enumerate(spec)
    ]
    return table_of(rows)


def pairs_table(rushers, blockers):
    """One row for every (rusher, blocker) pair."""
    return spec_table(*((r, b, False, OutcomeClass.LOSS) for r in rushers for b in blockers))


def entry(bl, role, pid):
    """A player's count and smoothed value (a rate or a profile)."""
    ids, counts, values = bl.side(role)
    i = ids.index(pid)
    return counts[i], values[:, i]


# R1 and R2 each win once and lose once; weights put n = a + b rows on R1
# at rate a / (a + b) and c + d rows on R2
FOUR_ROWS = spec_table(
    ("R1", "B1", True, OutcomeClass.WIN),
    ("R1", "B2", False, OutcomeClass.LOSS),
    ("R2", "B1", True, OutcomeClass.WIN),
    ("R2", "B2", False, OutcomeClass.LOSS),
)


def r1_rate(a, b, c, d, m):
    """R1's smoothed win rate, its raw rate and the global rate."""
    bl = fit_win_baseline(FOUR_ROWS, m, [a, b, c, d])
    return float(entry(bl, "rusher", "R1")[1][0]), a / (a + b), float(bl.global_value[0])


weight = st.floats(0, 1000)
positive = st.floats(1e-3, 1000)


class TestSmoothing:
    def test_worked_example(self):
        # n=25 at rate 0.5 blended with m=25 toward global 0.25
        t = spec_table(
            ("R1", "B1", True, OutcomeClass.WIN),
            ("R1", "B1", False, OutcomeClass.LOSS),
            ("R2", "B1", False, OutcomeClass.LOSS),
        )
        bl = fit_win_baseline(t, 25.0, [12.5, 12.5, 25.0])
        assert bl.global_value.tolist() == [0.25]
        assert entry(bl, "rusher", "R1") == (25.0, [0.375])

    def test_zero_prior_returns_raw_rate(self):
        assert r1_rate(3.0, 1.0, 2.0, 5.0, 0.0)[0] == 0.75

    def test_absent_player_gets_global(self):
        # R2's rows have zero weight: R2 gets no entry, so it predicts
        # with the global rate, even at m=0 where n=0 is undefined
        for m in (25.0, 0.0):
            bl = fit_win_baseline(FOUR_ROWS, m, [1.0, 3.0, 0.0, 0.0])
            assert bl.rushers == ("R1",)
            got = predict_win_matchups(bl, pairs_table(["R2"], ["nobody"]))
            assert got[0] == pytest.approx(0.25, abs=1e-15)

    @given(positive, weight, weight, positive, st.floats(0, 1000))
    @example(1.0, 0.0, 0.0, 3.0, 0.1)
    def test_interpolates_between_rate_and_global(self, a, b, c, d, m):
        s, rate, g = r1_rate(a, b, c, d, m)
        assert min(rate, g) - 1e-12 <= s <= max(rate, g) + 1e-12

    @given(positive, weight, weight, positive)
    def test_monotone_in_prior_strength(self, a, b, c, d):
        values = [r1_rate(a, b, c, d, m) for m in (0.0, 1.0, 10.0, 1e4)]
        gaps = [abs(s - g) for s, _, g in values]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(gaps, gaps[1:]))


def win_on(p_r, p_b):
    """The matchup prediction of a rusher at rate p_r against a blocker at p_b."""
    bl = Baseline("win", 0.0, [0.3], ("R1",), ("B1",), [5, 5], [[p_r, p_b]])
    return float(predict_win_matchups(bl, pairs_table(["R1"], ["B1"]))[0])


class TestLogitHelpers:
    @given(st.floats(1e-9, 1 - 1e-9))
    def test_round_trip(self, p):
        # the mean of two equal logits is the logit itself
        assert win_on(p, p) == pytest.approx(p, rel=1e-9)

    def test_endpoints(self):
        assert win_on(0.0, 0.0) == 0.0
        assert win_on(1.0, 1.0) == 1.0
        assert win_on(0.0, 0.5) == 0.0
        assert win_on(1.0, 0.5) == 1.0


def weighted_and_repeated(rng):
    """A table, integer row weights (some zero) and the rows repeated that often."""
    t = random_table(rng, n_rows=80)
    w = rng.integers(0, 4, size=len(t))
    return t, w, table_of([r for r, k in zip(rows_of(t), w) for _ in range(k)])


def weight_cases(rng, t):
    """0/1 weights of an ordered split, integer game multiplicities,
    fractional weights, and unit weights with the rows of one rusher and
    one blocker zeroed (the last case)."""
    split = (np.arange(len(t)) < len(t) // 2).astype(float)
    games = rng.integers(0, 4, size=len(t.games))[t.game].astype(float)
    games[0] = max(games[0], 1.0)
    fractional = rng.random(len(t)) * 3.0
    zeroed = np.where((t.rusher == 0) | (t.blocker == 0), 0.0, 1.0)
    return {"split": split, "games": games, "fractional": fractional, "zeroed": zeroed}


def assert_equals_reference(bl, stores):
    """Ids, counts and smoothed values equal the reference dicts exactly."""
    for role, store in zip(("rusher", "blocker"), stores):
        ids, counts, values = bl.side(role)
        assert ids == tuple(sorted(store))
        assert counts.tolist() == [store[p][0] for p in ids]
        assert values.T.tolist() == [np.atleast_1d(store[p][1]).tolist() for p in ids]


WEIGHT_ERRORS = [
    ("negative", lambda n: np.r_[-5.0, np.ones(n - 1)], "finite and nonnegative"),
    ("nan", lambda n: np.r_[np.nan, np.ones(n - 1)], "finite and nonnegative"),
    ("short", lambda n: np.ones(1), "row/weight length mismatch"),
    ("long", lambda n: np.ones(n + 3), "row/weight length mismatch"),
    ("zero", lambda n: np.zeros(n), "at least one row of positive weight"),
]


class TestWeights:
    @pytest.mark.parametrize("case, make, message", WEIGHT_ERRORS, ids=[c[0] for c in WEIGHT_ERRORS])
    @pytest.mark.parametrize("fit", [fit_win_baseline, fit_severity_baseline])
    def test_bad_weights_rejected(self, small_table, fit, case, make, message):
        with pytest.raises(DataError, match=message):
            fit(small_table, 25.0, make(len(small_table)))

    @pytest.mark.parametrize("task", ["win", "severity"])
    def test_json_writes_fractional_counts(self, task):
        # an integral count is written as an integer, any other as its float
        t = spec_table(
            ("R1", "B1", True, OutcomeClass.WIN), ("R1", "B1", False, OutcomeClass.LOSS),
            ("R1", "B2", True, OutcomeClass.SACK), ("R2", "B2", False, OutcomeClass.LOSS),
            ("R2", "B2", True, OutcomeClass.HIT),
        )
        weights = [0.5, 1.0, 0.25, 1.0, 1.0]
        if task == "win":
            out = win_baseline_to_json_dict(fit_win_baseline(t, 25.0, weights))
            keys = ("rusher_rates", "blocker_rates")
        else:
            out = severity_baseline_to_json_dict(fit_severity_baseline(t, 50.0, weights))
            keys = ("rusher_profiles", "blocker_profiles")
        counts = [json.dumps({pid: n for pid, (n, _) in out[key].items()}) for key in keys]
        assert counts == ['{"R1": 1.75, "R2": 2}', '{"B1": 1.5, "B2": 2.25}']


class TestWinBaseline:
    def test_integer_weights_equal_repeated_rows(self, rng):
        t, w, repeated = weighted_and_repeated(rng)
        assert fit_win_baseline(t, 25.0, w) == fit_win_baseline(repeated, 25.0)

    def test_fit_equals_reference(self, rng):
        t = random_table(rng, n_rows=120, n_rushers=7, n_blockers=6, n_games=6)
        for w in weight_cases(rng, t).values():
            for m in (0.0, 25.0):
                ref = reference_win_baseline(t, m, w)
                bl = fit_win_baseline(t, m, w)
                assert bl.global_value.tolist() == [ref.p_global]
                assert_equals_reference(bl, (ref.rusher_rates, ref.blocker_rates))

    def test_vectorized_matchups_equal_scalar(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=7, n_blockers=6)
        for w in weight_cases(rng, t).values():
            bl = fit_win_baseline(t, 25.0, w)
            ref = reference_win_baseline(t, 25.0, w)
            got = predict_win_matchups(bl, t)
            want = [reference_win_matchup(ref, r.rusher_id, r.blocker_id) for r in rows_of(t)]
            assert got.tolist() == want
        # the zeroed case leaves a rusher and a blocker to the global rate
        assert t.rushers[0] not in bl.rushers and t.blockers[0] not in bl.blockers

    def test_json_equals_dict_built_json(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=7, n_blockers=6)
        for w in weight_cases(rng, t).values():
            got = win_baseline_to_json_dict(fit_win_baseline(t, 25.0, w))
            want = reference_baseline_json(reference_win_baseline(t, 25.0, w))
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_other_task_rejected(self, small_table):
        bl = fit_severity_baseline(small_table, 50.0)
        with pytest.raises(ValueError, match="expected a 'win' baseline"):
            predict_win_matchups(bl, small_table)
        with pytest.raises(ValueError, match="expected a 'win' baseline"):
            win_baseline_to_json_dict(bl)

    def test_global_rate(self):
        t = spec_table(
            ("R1", "B1", True, OutcomeClass.WIN),
            ("R1", "B1", True, OutcomeClass.WIN),
            ("R2", "B1", True, OutcomeClass.WIN),
            ("R2", "B2", False, OutcomeClass.LOSS),
        )
        bl = fit_win_baseline(t, 25.0)
        assert bl.global_value.tolist() == [0.75]

    def test_default_prior_strength(self):
        assert DEFAULT_WIN_PRIOR == 25.0
        assert DEFAULT_SEVERITY_PRIOR == 50.0

    def test_empty_train_rejected(self):
        with pytest.raises(DataError, match="cannot fit a win baseline on an empty table"):
            fit_win_baseline(table_of([]), 25.0)

    def test_negative_prior_rejected(self, small_table):
        with pytest.raises(ValueError):
            fit_win_baseline(small_table, -1.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    @pytest.mark.parametrize("fit", [fit_win_baseline, fit_severity_baseline])
    def test_nonfinite_prior_rejected(self, small_table, fit, m):
        with pytest.raises(ValueError, match="prior strength must be finite and >= 0"):
            fit(small_table, m)

    def test_rates_store_counts_and_smoothed_values(self):
        t = spec_table(
            ("R1", "B1", True, OutcomeClass.WIN),
            ("R1", "B2", False, OutcomeClass.LOSS),
            ("R2", "B1", False, OutcomeClass.LOSS),
        )
        bl = fit_win_baseline(t, 0.0)
        assert bl.rushers == ("R1", "R2") and bl.blockers == ("B1", "B2")
        assert entry(bl, "rusher", "R1") == (2.0, [0.5])
        assert bl.counts.tolist() == [2.0, 1.0, 2.0, 1.0]

    def test_matchup_antisymmetric_components_give_half(self):
        # smoothed components 0.8 and 0.2: the logits cancel exactly
        assert win_on(0.8, 0.2) == pytest.approx(0.5, abs=1e-12)

    def test_matchup_formula_matches_direct_arithmetic(self, small_table):
        bl = fit_win_baseline(small_table, 25.0)
        got = predict_win_matchups(bl, small_table)

        def logit(p):
            return math.log(p / (1.0 - p))

        for i, r in enumerate(rows_of(small_table)):
            x = 0.5 * (logit(entry(bl, "rusher", r.rusher_id)[1][0])
                       + logit(entry(bl, "blocker", r.blocker_id)[1][0]))
            assert got[i] == pytest.approx(1.0 / (1.0 + math.exp(-x)), abs=1e-15)

    def test_unseen_players_fall_back_to_global(self, small_table):
        bl = fit_win_baseline(small_table, 25.0)
        got = predict_win_matchups(bl, pairs_table(["nobody"], ["nobody-else"]))
        assert got[0] == pytest.approx(bl.global_value[0], abs=1e-12)

    def test_matchup_converges_to_global_as_m_grows(self, small_table):
        g = fit_win_baseline(small_table, 0.0).global_value[0]
        bl = fit_win_baseline(small_table, 1e9)
        got = predict_win_matchups(bl, pairs_table(small_table.rushers, small_table.blockers))
        assert np.allclose(got, g, rtol=0.0, atol=1e-6)

    def test_double_team_flag_is_ignored(self, rng):
        t = random_table(rng)
        flipped = table_of(
            [
                make_row(
                    game=r.game_id,
                    play=r.play_id,
                    idx=r.event_game_index,
                    week=r.week,
                    rusher=r.rusher_id,
                    blocker=r.blocker_id,
                    double=not r.double_team,
                    win=r.win_target,
                    severity=r.severity,
                )
                for r in rows_of(t)
            ]
        )
        a = fit_win_baseline(t, 25.0)
        b = fit_win_baseline(flipped, 25.0)
        assert a == b


class TestSeverityBaseline:
    def test_integer_weights_equal_repeated_rows(self, rng):
        t, w, repeated = weighted_and_repeated(rng)
        got = fit_severity_baseline(t, 50.0, w)
        assert got == fit_severity_baseline(repeated, 50.0)

    def test_fit_equals_reference(self, rng):
        t = random_table(rng, n_rows=120, n_rushers=7, n_blockers=6, n_games=6)
        for w in weight_cases(rng, t).values():
            for m in (0.0, 50.0):
                ref = reference_severity_baseline(t, m, w)
                bl = fit_severity_baseline(t, m, w)
                assert bl.global_value.tolist() == list(ref.pi_global)
                assert_equals_reference(bl, (ref.rusher_profiles, ref.blocker_profiles))

    def test_vectorized_matchups_equal_scalar(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=7, n_blockers=6)
        for w in weight_cases(rng, t).values():
            bl = fit_severity_baseline(t, 50.0, w)
            ref = reference_severity_baseline(t, 50.0, w)
            got = predict_severity_matchups(bl, t)
            want = np.vstack(
                [reference_severity_matchup(ref, r.rusher_id, r.blocker_id) for r in rows_of(t)]
            )
            assert np.array_equal(got, want)
        assert t.rushers[0] not in bl.rushers and t.blockers[0] not in bl.blockers

    def test_json_equals_dict_built_json(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=7, n_blockers=6)
        for w in weight_cases(rng, t).values():
            got = severity_baseline_to_json_dict(fit_severity_baseline(t, 50.0, w))
            want = reference_baseline_json(reference_severity_baseline(t, 50.0, w))
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_other_task_rejected(self, small_table):
        bl = fit_win_baseline(small_table, 25.0)
        with pytest.raises(ValueError, match="expected a 'severity' baseline"):
            predict_severity_matchups(bl, small_table)
        with pytest.raises(ValueError, match="expected a 'severity' baseline"):
            severity_baseline_to_json_dict(bl)

    def test_global_profile_is_class_frequencies(self, small_table):
        probs = fit_severity_baseline(small_table, 50.0).global_value
        counts = np.bincount([int(r.severity) for r in rows_of(small_table)], minlength=4)
        for c in CLASSES:
            assert probs[c] == pytest.approx(counts[int(c)] / len(small_table))

    def test_equal_weight_blend_at_n_equals_m(self):
        rows = [
            ("R1", "B1", True, OutcomeClass.WIN) if i % 2 else ("R1", "B1", False, OutcomeClass.LOSS)
            for i in range(50)
        ] + [("R2", "B2", False, OutcomeClass.LOSS) for _ in range(50)]
        t = spec_table(*rows)
        bl = fit_severity_baseline(t, 50.0)
        n, profile = entry(bl, "rusher", "R1")
        assert n == 50
        player = np.array([0.5, 0.5, 0.0, 0.0])
        assert np.allclose(profile, 0.5 * player + 0.5 * bl.global_value, atol=1e-12)

    def test_profiles_are_probability_vectors(self, small_table):
        bl = fit_severity_baseline(small_table, 50.0)
        assert bl.values.shape == (4, len(bl.rushers) + len(bl.blockers))
        assert np.all(bl.values >= 0)
        assert np.allclose(bl.values.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)

    def test_pure_sack_player_at_zero_prior(self):
        t = spec_table(
            ("R1", "B1", False, OutcomeClass.SACK),
            ("R1", "B2", False, OutcomeClass.SACK),
            ("R2", "B1", False, OutcomeClass.LOSS),
        )
        bl = fit_severity_baseline(t, 0.0)
        assert entry(bl, "rusher", "R1")[1].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_matchup_with_global_profiles_returns_global(self, small_table):
        bl = fit_severity_baseline(small_table, 50.0)
        probs = predict_severity_matchups(bl, pairs_table(["unseen-r"], ["unseen-b"]))[0]
        assert np.allclose(probs, bl.global_value, rtol=0.0, atol=1e-12)

    def test_matchup_sums_to_one(self, small_table):
        bl = fit_severity_baseline(small_table, 50.0)
        probs = predict_severity_matchups(
            bl, pairs_table(small_table.rushers, small_table.blockers)
        )
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(probs[:, OutcomeClass.LOSS] > 0)

    def test_zero_loss_component_is_an_error(self):
        t = spec_table(
            ("R1", "B1", True, OutcomeClass.SACK),
            ("R2", "B1", False, OutcomeClass.LOSS),
        )
        bl = fit_severity_baseline(t, 0.0)
        with pytest.raises(DataError, match="zero loss component"):
            predict_severity_matchups(bl, pairs_table(["R1"], ["B1"]))
        with pytest.raises(DataError, match="zero loss component"):
            predict_severity_matchups(bl, t)

    def test_matchup_converges_to_global_as_m_grows(self, small_table):
        bl = fit_severity_baseline(small_table, 1e9)
        probs = predict_severity_matchups(
            bl, pairs_table(small_table.rushers[:2], small_table.blockers[:2])
        )
        assert np.allclose(probs, bl.global_value, rtol=0.0, atol=1e-6)

    def test_two_class_matchup_matches_win_matchup(self, rng):
        # a table whose severity is purely loss/win with win_target equal
        # to the class: the two baselines share their sufficient counts
        rows = []
        for i in range(80):
            win = bool(rng.random() < 0.4)
            rows.append(
                make_row(
                    idx=i,
                    rusher=f"R{rng.integers(0, 4)}",
                    blocker=f"B{rng.integers(0, 3)}",
                    win=win,
                    severity=OutcomeClass.WIN if win else OutcomeClass.LOSS,
                )
            )
        t = table_of(rows)
        pairs = pairs_table(t.rushers, t.blockers)
        for m in (0.0, 10.0, 50.0):
            p_win = predict_win_matchups(fit_win_baseline(t, m), pairs)
            p_sev = predict_severity_matchups(fit_severity_baseline(t, m), pairs)
            assert np.allclose(p_sev[:, OutcomeClass.WIN], p_win, rtol=0.0, atol=1e-12)

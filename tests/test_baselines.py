import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trenchrank.baselines import (
    DEFAULT_SEVERITY_PRIOR,
    DEFAULT_WIN_PRIOR,
    fit_severity_baseline,
    fit_severity_baseline_coded,
    fit_win_baseline,
    fit_win_baseline_coded,
    inv_logit,
    logit,
    predict_severity_global,
    predict_severity_matchup,
    predict_severity_matchups,
    predict_win_global,
    predict_win_matchup,
    predict_win_matchups,
    severity_baseline_from_json_dict,
    severity_baseline_to_json_dict,
    smooth_rate,
    win_baseline_from_json_dict,
    win_baseline_to_json_dict,
)
from trenchrank.errors import DataError
from trenchrank.interactions import CLASSES, InteractionTable, OutcomeClass

from conftest import make_row, random_table


def table_of(*spec):
    """spec items: (rusher, blocker, win, severity) tuples."""
    rows = [
        make_row(idx=i, rusher=r, blocker=b, win=w, severity=s)
        for i, (r, b, w, s) in enumerate(spec)
    ]
    return InteractionTable(rows)


class TestSmoothing:
    def test_worked_example(self):
        # n=25 at rate 0.5 blended with m=25 toward global 0.25
        assert smooth_rate(25, 0.5, 25.0, 0.25) == 0.375

    def test_zero_prior_returns_raw_rate(self):
        assert smooth_rate(10, 0.7, 0.0, 0.2) == 0.7

    def test_absent_player_gets_global(self):
        assert smooth_rate(0, 0.0, 25.0, 0.31) == 0.31
        # n=0 with m=0 is the one undefined corner; global is the limit
        assert smooth_rate(0, 0.0, 0.0, 0.31) == 0.31

    @given(
        st.integers(0, 500),
        st.floats(0, 1),
        st.floats(0, 1000),
        st.floats(0, 1),
    )
    @example(0, 0.0, 3.0, 0.1)
    @example(0, 0.0, 2e-237, 2e-237)
    def test_interpolates_between_rate_and_global(self, n, rate, m, g):
        s = smooth_rate(n, rate, m, g)
        lo, hi = min(rate, g), max(rate, g)
        if n == 0:
            assert s == g
        else:
            assert lo - 1e-12 <= s <= hi + 1e-12

    @given(st.integers(1, 100), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_prior_strength(self, n, rate, g):
        values = [smooth_rate(n, rate, m, g) for m in (0.0, 1.0, 10.0, 1e4)]
        gaps = [abs(v - g) for v in values]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestLogitHelpers:
    @given(st.floats(1e-9, 1 - 1e-9))
    def test_round_trip(self, p):
        assert inv_logit(logit(p)) == pytest.approx(p, rel=1e-9)

    def test_endpoints(self):
        assert logit(0.0) == -math.inf
        assert logit(1.0) == math.inf
        assert inv_logit(-math.inf) == 0.0
        assert inv_logit(math.inf) == 1.0


def weighted_and_repeated(rng):
    """A table, integer row weights (some zero) and the rows repeated that often."""
    t = random_table(rng, n_rows=80)
    w = rng.integers(0, 4, size=len(t))
    return t, w, InteractionTable([r for r, k in zip(t, w) for _ in range(k)])


class TestWinBaseline:
    def test_integer_weights_equal_repeated_rows(self, rng):
        t, w, repeated = weighted_and_repeated(rng)
        assert fit_win_baseline_coded(t.coded, w, 25.0) == fit_win_baseline(repeated, 25.0)

    def test_vectorized_matchups_equal_scalar(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=7, n_blockers=6)
        # fit on the first half so some players fall back to the global rate
        bl = fit_win_baseline(InteractionTable(t.rows[:40]), 25.0)
        got = predict_win_matchups(bl, t.coded)
        want = [predict_win_matchup(bl, r.rusher_id, r.blocker_id) for r in t]
        assert got.tolist() == want

    def test_global_rate(self):
        t = table_of(
            ("R1", "B1", True, OutcomeClass.WIN),
            ("R1", "B1", True, OutcomeClass.WIN),
            ("R2", "B1", True, OutcomeClass.WIN),
            ("R2", "B2", False, OutcomeClass.LOSS),
        )
        bl = fit_win_baseline(t, 25.0)
        assert predict_win_global(bl) == 0.75

    def test_default_prior_strength(self):
        assert DEFAULT_WIN_PRIOR == 25.0
        assert DEFAULT_SEVERITY_PRIOR == 50.0

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            fit_win_baseline(InteractionTable([]), 25.0)

    def test_negative_prior_rejected(self, small_table):
        with pytest.raises(ValueError):
            fit_win_baseline(small_table, -1.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    @pytest.mark.parametrize("fit", [fit_win_baseline, fit_severity_baseline])
    def test_nonfinite_prior_rejected(self, small_table, fit, m):
        with pytest.raises(ValueError, match="prior strength must be finite and >= 0"):
            fit(small_table, m)

    def test_rates_store_counts_and_smoothed_values(self):
        t = table_of(
            ("R1", "B1", True, OutcomeClass.WIN),
            ("R1", "B2", False, OutcomeClass.LOSS),
            ("R2", "B1", False, OutcomeClass.LOSS),
        )
        bl = fit_win_baseline(t, 0.0)
        n, rate = bl.rusher_rates["R1"]
        assert (n, rate) == (2, 0.5)

    def test_matchup_antisymmetric_components_give_half(self):
        # smoothed components 0.8 and 0.2: the logits cancel exactly
        from trenchrank.baselines import WinBaseline

        bl = WinBaseline(
            p_global=0.3,
            m=0.0,
            rusher_rates={"R1": (5, 0.8)},
            blocker_rates={"B1": (5, 0.2)},
        )
        assert predict_win_matchup(bl, "R1", "B1") == pytest.approx(0.5, abs=1e-12)

    def test_matchup_formula_matches_direct_arithmetic(self, small_table):
        bl = fit_win_baseline(small_table, 25.0)
        r = small_table.rushers[0]
        b = small_table.blockers[0]
        expected = inv_logit(
            0.5 * (logit(bl.rusher_rates[r][1]) + logit(bl.blocker_rates[b][1]))
        )
        assert predict_win_matchup(bl, r, b) == pytest.approx(expected, abs=1e-15)

    def test_unseen_players_fall_back_to_global(self, small_table):
        bl = fit_win_baseline(small_table, 25.0)
        g = predict_win_global(bl)
        assert predict_win_matchup(bl, "nobody", "nobody-else") == pytest.approx(g, abs=1e-12)

    def test_matchup_converges_to_global_as_m_grows(self, small_table):
        g = predict_win_global(fit_win_baseline(small_table, 0.0))
        bl = fit_win_baseline(small_table, 1e9)
        for r in small_table.rushers:
            for b in small_table.blockers:
                assert predict_win_matchup(bl, r, b) == pytest.approx(g, abs=1e-6)

    def test_double_team_flag_is_ignored(self, rng):
        t = random_table(rng)
        flipped = InteractionTable(
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
                for r in t
            ]
        )
        a = fit_win_baseline(t, 25.0)
        b = fit_win_baseline(flipped, 25.0)
        assert a == b

    def test_json_round_trip(self, small_table):
        bl = fit_win_baseline(small_table, 25.0)
        back = win_baseline_from_json_dict(
            json.loads(json.dumps(win_baseline_to_json_dict(bl)))
        )
        assert back == bl


class TestSeverityBaseline:
    def test_integer_weights_equal_repeated_rows(self, rng):
        t, w, repeated = weighted_and_repeated(rng)
        got = fit_severity_baseline_coded(t.coded, w, 50.0)
        assert got == fit_severity_baseline(repeated, 50.0)

    def test_vectorized_matchups_equal_scalar(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=7, n_blockers=6)
        bl = fit_severity_baseline(InteractionTable(t.rows[:40]), 50.0)
        got = predict_severity_matchups(bl, t.coded)
        want = np.vstack([predict_severity_matchup(bl, r.rusher_id, r.blocker_id) for r in t])
        assert np.array_equal(got, want)

    def test_global_profile_is_class_frequencies(self, small_table):
        bl = fit_severity_baseline(small_table, 50.0)
        probs = predict_severity_global(bl)
        counts = np.bincount([int(r.severity) for r in small_table], minlength=4)
        for c in CLASSES:
            assert probs[c] == pytest.approx(counts[int(c)] / len(small_table))

    def test_equal_weight_blend_at_n_equals_m(self):
        rows = [
            ("R1", "B1", True, OutcomeClass.WIN) if i % 2 else ("R1", "B1", False, OutcomeClass.LOSS)
            for i in range(50)
        ] + [("R2", "B2", False, OutcomeClass.LOSS) for _ in range(50)]
        t = table_of(*rows)
        bl = fit_severity_baseline(t, 50.0)
        n, profile = bl.rusher_profiles["R1"]
        assert n == 50
        player = np.array([0.5, 0.5, 0.0, 0.0])
        glob = predict_severity_global(bl)
        assert np.allclose(profile, 0.5 * player + 0.5 * glob, atol=1e-12)

    def test_profiles_are_probability_vectors(self, small_table):
        bl = fit_severity_baseline(small_table, 50.0)
        for store in (bl.rusher_profiles, bl.blocker_profiles):
            for _, profile in store.values():
                vals = np.asarray(profile, dtype=float)
                assert np.all(vals >= 0)
                assert vals.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pure_sack_player_at_zero_prior(self):
        t = table_of(
            ("R1", "B1", False, OutcomeClass.SACK),
            ("R1", "B2", False, OutcomeClass.SACK),
            ("R2", "B1", False, OutcomeClass.LOSS),
        )
        bl = fit_severity_baseline(t, 0.0)
        _, profile = bl.rusher_profiles["R1"]
        assert tuple(profile) == (0.0, 0.0, 0.0, 1.0)

    def test_matchup_with_global_profiles_returns_global(self, small_table):
        bl = fit_severity_baseline(small_table, 50.0)
        glob = predict_severity_global(bl)
        probs = predict_severity_matchup(bl, "unseen-r", "unseen-b")
        for c in CLASSES:
            assert probs[c] == pytest.approx(glob[c], abs=1e-12)

    def test_matchup_sums_to_one(self, small_table):
        bl = fit_severity_baseline(small_table, 50.0)
        for r in small_table.rushers:
            for b in small_table.blockers:
                probs = predict_severity_matchup(bl, r, b)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
                assert probs[OutcomeClass.LOSS] > 0

    def test_zero_loss_component_is_an_error(self):
        t = table_of(
            ("R1", "B1", True, OutcomeClass.SACK),
            ("R2", "B1", False, OutcomeClass.LOSS),
        )
        bl = fit_severity_baseline(t, 0.0)
        with pytest.raises(DataError):
            predict_severity_matchup(bl, "R1", "B1")
        with pytest.raises(DataError):
            predict_severity_matchups(bl, t.coded)

    def test_matchup_converges_to_global_as_m_grows(self, small_table):
        bl = fit_severity_baseline(small_table, 1e9)
        glob = predict_severity_global(bl)
        for r in small_table.rushers[:2]:
            for b in small_table.blockers[:2]:
                probs = predict_severity_matchup(bl, r, b)
                for c in CLASSES:
                    assert probs[c] == pytest.approx(glob[c], abs=1e-6)

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
        t = InteractionTable(rows)
        for m in (0.0, 10.0, 50.0):
            wb = fit_win_baseline(t, m)
            sb = fit_severity_baseline(t, m)
            for r in t.rushers:
                for b in t.blockers:
                    p_sev = predict_severity_matchup(sb, r, b)[OutcomeClass.WIN]
                    p_win = predict_win_matchup(wb, r, b)
                    assert p_sev == pytest.approx(p_win, abs=1e-12)

    def test_json_round_trip(self, small_table):
        bl = fit_severity_baseline(small_table, 50.0)
        back = severity_baseline_from_json_dict(
            json.loads(json.dumps(severity_baseline_to_json_dict(bl)))
        )
        assert back == bl

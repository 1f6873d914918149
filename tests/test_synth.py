import math

import numpy as np
import pytest

from trenchrank.interactions import CLASSES, OutcomeClass, SeverityWeights
from trenchrank.synth import GroundTruth, SynthConfig, synth_generate

from conftest import rows_by_game


def inv_logit(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestConfig:
    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_rushers=0)
        with pytest.raises(ValueError):
            SynthConfig(plays_per_game=-1)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(sigma_r=-0.1)

    def test_double_rate_bounds(self):
        with pytest.raises(ValueError):
            SynthConfig(p_double=1.5)

    def test_missing_class_parameter_rejected(self):
        with pytest.raises(ValueError, match="sack"):
            SynthConfig(sev_alpha={OutcomeClass.WIN: 0.0, OutcomeClass.HIT: 0.0})


class TestShape:
    def test_row_count_and_ids(self):
        cfg = SynthConfig(n_rushers=12, n_blockers=8, n_games=4, plays_per_game=6,
                          interactions_per_play=3, seed=5)
        table, truth = synth_generate(cfg)
        assert len(table) == 4 * 6 * 3
        assert set(r.rusher_id for r in table) <= set(truth.rusher_win_effects)
        assert set(r.blocker_id for r in table) <= set(truth.blocker_win_effects)
        assert len(truth.rusher_win_effects) == 12
        assert len(truth.blocker_win_effects) == 8

    def test_ids_zero_padded_to_sort_numerically(self):
        cfg = SynthConfig(n_rushers=12, n_games=12, plays_per_game=12, seed=1)
        table, truth = synth_generate(cfg)
        assert "R00" in truth.rusher_win_effects and "R11" in truth.rusher_win_effects
        assert sorted(table.games) == list(table.games)

    def test_canonical_order_by_construction(self):
        table, _ = synth_generate(SynthConfig(seed=3))
        assert table.is_canonically_sorted()

    def test_weeks_partition_games_in_order(self):
        cfg = SynthConfig(n_games=30, n_weeks=18, seed=0)
        table, _ = synth_generate(cfg)
        weeks = {}
        for r in table:
            weeks.setdefault(r.game_id, set()).add(r.week)
        per_game = [weeks[g] for g in sorted(weeks)]
        assert all(len(w) == 1 for w in per_game)
        flat = [w.pop() for w in per_game]
        assert flat == sorted(flat)
        assert flat[0] == 1 and flat[-1] == 18

    def test_event_index_restarts_per_game(self):
        cfg = SynthConfig(n_games=3, plays_per_game=4, interactions_per_play=2, seed=2)
        table, _ = synth_generate(cfg)
        for g in table.games:
            idxs = [r.event_game_index for r in rows_by_game(table)[g]]
            assert idxs == list(range(8))


class TestDeterminism:
    def test_same_seed_same_table(self):
        a, ta = synth_generate(SynthConfig(seed=11))
        b, tb = synth_generate(SynthConfig(seed=11))
        assert a == b
        assert ta.rusher_win_effects == tb.rusher_win_effects

    def test_different_seed_differs(self):
        a, _ = synth_generate(SynthConfig(seed=11))
        b, _ = synth_generate(SynthConfig(seed=12))
        assert a != b


class TestRates:
    def flat_cfg(self, **kw):
        base = dict(
            sigma_r=0.0,
            sigma_b=0.0,
            delta=0.0,
            sev_delta={c: 0.0 for c in (OutcomeClass.WIN, OutcomeClass.HIT, OutcomeClass.SACK)},
            n_games=30,
            plays_per_game=50,
            seed=17,
        )
        base.update(kw)
        return SynthConfig(**base)

    def test_win_rate_matches_intercept(self):
        cfg = self.flat_cfg()
        table, _ = synth_generate(cfg)
        n = len(table)
        p = inv_logit(cfg.alpha)
        rate = sum(r.win_target for r in table) / n
        assert abs(rate - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_double_team_rate(self):
        cfg = self.flat_cfg(p_double=0.427)
        table, _ = synth_generate(cfg)
        n = len(table)
        rate = sum(r.double_team for r in table) / n
        assert abs(rate - 0.427) < 3 * math.sqrt(0.427 * 0.573 / n)

    def test_class_mix_matches_intercepts(self):
        cfg = self.flat_cfg()
        table, _ = synth_generate(cfg)
        n = len(table)
        raw = np.array([1.0] + [math.exp(cfg.sev_alpha[c]) for c in CLASSES[1:]])
        probs = raw / raw.sum()
        counts = np.bincount([int(r.severity) for r in table], minlength=4)
        for c, p in zip(CLASSES, probs):
            sd = math.sqrt(p * (1 - p) / n)
            assert abs(counts[int(c)] / n - p) < 3 * sd + 1e-12

    def test_negative_delta_suppresses_double_team_wins(self):
        cfg = self.flat_cfg(delta=-2.0, p_double=0.5)
        table, _ = synth_generate(cfg)
        dbl = [r.win_target for r in table if r.double_team]
        single = [r.win_target for r in table if not r.double_team]
        rate_d = sum(dbl) / len(dbl)
        rate_s = sum(single) / len(single)
        assert rate_d < rate_s
        p_d = inv_logit(cfg.alpha - 2.0)
        assert abs(rate_d - p_d) < 3 * math.sqrt(p_d * (1 - p_d) / len(dbl))

    def test_zero_double_rate_possible(self):
        table, _ = synth_generate(self.flat_cfg(p_double=0.0))
        assert not any(r.double_team for r in table)


class TestCoupling:
    def test_independent_targets_by_default(self):
        table, _ = synth_generate(SynthConfig(seed=23))
        assert any(r.win_target and r.severity is OutcomeClass.LOSS for r in table)
        assert any(not r.win_target and r.severity is not OutcomeClass.LOSS for r in table)

    def test_coupled_mode_ties_win_to_class(self):
        table, _ = synth_generate(SynthConfig(seed=23, coupled=True))
        for r in table:
            assert r.win_target == (r.severity >= OutcomeClass.WIN)


class TestGroundTruth:
    def test_severity_scores_arithmetic(self):
        truth = GroundTruth(
            alpha=0.0,
            delta=0.0,
            rusher_win_effects={"R0": 0.3},
            blocker_win_effects={"B0": -0.2},
            sev_alpha={},
            sev_delta={},
            rusher_class_effects={
                OutcomeClass.WIN: {"R0": 1.0},
                OutcomeClass.HIT: {"R0": 2.0},
                OutcomeClass.SACK: {"R0": 3.0},
            },
            blocker_class_effects={
                OutcomeClass.WIN: {"B0": -1.0},
                OutcomeClass.HIT: {"B0": 0.5},
                OutcomeClass.SACK: {"B0": 0.25},
            },
        )
        w = SeverityWeights(0.0, 0.1, 0.2, 1.0)
        assert truth.severity_scores("rusher", w)["R0"] == pytest.approx(
            0.1 * 1.0 + 0.2 * 2.0 + 1.0 * 3.0
        )
        assert truth.severity_scores("blocker", w)["B0"] == pytest.approx(
            0.1 * -1.0 + 0.2 * 0.5 + 1.0 * 0.25
        )

    def test_effect_scales_respected(self):
        _, truth = synth_generate(SynthConfig(sigma_r=0.0, seed=4))
        assert all(v == 0.0 for v in truth.rusher_win_effects.values())
        assert any(v != 0.0 for v in truth.blocker_win_effects.values())

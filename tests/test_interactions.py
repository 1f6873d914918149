import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trenchrank.errors import DataError
from trenchrank.interactions import (
    CLASSES,
    Interaction,
    InteractionTable,
    OutcomeClass,
    SeverityWeights,
    canonical_sort,
    class_frequencies,
    default_severity_weights,
    derive_weight_from_epa,
    label_outcome,
    read_interactions_csv,
    summarize,
    write_interactions_csv,
)

from conftest import make_row, random_table


class TestOutcomeClass:
    def test_severity_order(self):
        assert OutcomeClass.LOSS < OutcomeClass.WIN < OutcomeClass.HIT < OutcomeClass.SACK

    def test_labels_round_trip(self):
        for c in CLASSES:
            assert OutcomeClass.from_label(c.label) is c

    def test_label_parsing_is_forgiving_about_case(self):
        assert OutcomeClass.from_label(" Sack ") is OutcomeClass.SACK

    def test_unknown_label_is_a_data_error(self):
        with pytest.raises(DataError):
            OutcomeClass.from_label("fumble")


class TestLabelOutcome:
    def test_sack_dominates_everything(self):
        assert label_outcome(True, True, True) is OutcomeClass.SACK
        assert label_outcome(True, False, False) is OutcomeClass.SACK

    def test_hit_dominates_win(self):
        assert label_outcome(False, True, True) is OutcomeClass.HIT

    def test_win_only(self):
        assert label_outcome(False, False, True) is OutcomeClass.WIN

    def test_nothing_is_a_loss(self):
        assert label_outcome(False, False, False) is OutcomeClass.LOSS

    @given(st.booleans(), st.booleans(), st.booleans())
    def test_priority_matches_max_of_realized_classes(self, sack, hit, win):
        realized = [OutcomeClass.LOSS]
        if sack:
            realized.append(OutcomeClass.SACK)
        if hit:
            realized.append(OutcomeClass.HIT)
        if win:
            realized.append(OutcomeClass.WIN)
        assert label_outcome(sack, hit, win) is max(realized)


class TestSeverityWeights:
    def test_defaults_are_rounded_epa_scale(self):
        assert default_severity_weights().as_tuple() == (0.0, 0.10, 0.20, 1.00)

    def test_weight_lookup(self):
        w = SeverityWeights(win=0.3, hit=0.5)
        assert w.weight(OutcomeClass.LOSS) == 0.0
        assert w.weight(OutcomeClass.WIN) == 0.3
        assert w.weight(OutcomeClass.HIT) == 0.5
        assert w.weight(OutcomeClass.SACK) == 1.0

    def test_rejects_nonzero_loss_anchor(self):
        with pytest.raises(ValueError):
            SeverityWeights(loss=0.1)

    def test_rejects_nonunit_sack_anchor(self):
        with pytest.raises(ValueError):
            SeverityWeights(sack=0.9)

    def test_rejects_decreasing_weights(self):
        with pytest.raises(ValueError):
            SeverityWeights(win=0.5, hit=0.4)


class TestEpaDerivation:
    # benchmark constants: no pressure 0.233, hurry 0.019, hit -0.161,
    # sack -1.856
    def test_published_benchmark_values(self):
        assert derive_weight_from_epa(0.233, 0.019, -1.856) == pytest.approx(0.1024, abs=1e-3)
        assert derive_weight_from_epa(0.233, -0.161, -1.856) == pytest.approx(0.1886, abs=1e-3)

    @given(
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
    )
    def test_endpoints_map_to_zero_and_one(self, a, b):
        if a == b:
            return
        assert derive_weight_from_epa(a, a, b) == 0.0
        assert derive_weight_from_epa(a, b, b) == 1.0

    def test_equal_anchors_rejected(self):
        with pytest.raises(ValueError):
            derive_weight_from_epa(0.5, 0.1, 0.5)


class TestInteraction:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            make_row(idx=-1)
        with pytest.raises(ValueError):
            make_row(week=0)

    def test_sort_key_is_game_play_event(self):
        r = make_row(game="g2", play="p9", idx=4)
        assert r.sort_key() == ("g2", "p9", 4)


class TestInteractionTable:
    def test_derived_id_sets_are_sorted_and_deduplicated(self):
        t = InteractionTable(
            [
                make_row(rusher="R2", blocker="B9", idx=0),
                make_row(rusher="R1", blocker="B9", idx=1),
                make_row(rusher="R2", blocker="B1", idx=2),
            ]
        )
        assert t.rushers == ("R1", "R2")
        assert t.blockers == ("B1", "B9")
        assert t.games == ("g1",)
        assert t.plays == (("g1", "p1"),)

    def test_coded_view_indexes_sorted_vocabularies(self, rng):
        t = InteractionTable(reversed(random_table(rng).rows))
        c = t.coded
        assert (c.rushers, c.blockers, c.games) == (t.rushers, t.blockers, t.games)
        assert [c.rushers[i] for i in c.rusher] == [r.rusher_id for r in t]
        assert [c.blockers[i] for i in c.blocker] == [r.blocker_id for r in t]
        assert [c.games[i] for i in c.game] == [r.game_id for r in t]
        assert c.week.tolist() == [r.week for r in t]
        assert c.double_team.tolist() == [r.double_team for r in t]
        assert c.win.tolist() == [float(r.win_target) for r in t]
        assert c.severity.tolist() == [int(r.severity) for r in t]
        assert not c.rusher.flags.writeable
        sub = c.take(np.array([4, 0]))
        assert sub.rusher.tolist() == [c.rusher[4], c.rusher[0]]
        assert sub.rushers == c.rushers

    def test_rows_by_game_preserves_row_order(self):
        rows = [make_row(game=g, idx=i) for g in ("g1", "g2") for i in range(3)]
        t = InteractionTable(rows)
        assert [r.event_game_index for r in t.rows_by_game["g2"]] == [0, 1, 2]

    def test_canonical_sort_orders_and_is_idempotent(self):
        shuffled = InteractionTable(
            [
                make_row(game="g2", idx=0),
                make_row(game="g1", play="p2", idx=1),
                make_row(game="g1", play="p2", idx=0),
                make_row(game="g1", play="p1", idx=5),
            ]
        )
        assert not shuffled.is_canonically_sorted()
        ordered = canonical_sort(shuffled)
        assert ordered.is_canonically_sorted()
        assert [r.sort_key() for r in ordered] == [
            ("g1", "p1", 5),
            ("g1", "p2", 0),
            ("g1", "p2", 1),
            ("g2", "p1", 0),
        ]
        assert canonical_sort(ordered) == ordered


class TestClassFrequencies:
    def test_sums_to_one_and_counts(self, small_table):
        freqs = class_frequencies(small_table)
        assert set(freqs) == set(CLASSES)
        assert math.isclose(sum(freqs.values()), 1.0)
        n_sack = sum(r.severity is OutcomeClass.SACK for r in small_table)
        assert freqs[OutcomeClass.SACK] == n_sack / len(small_table)

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            class_frequencies(InteractionTable([]))


class TestSummarize:
    def test_counts_and_double_team_rate(self):
        t = InteractionTable(
            [
                make_row(idx=0, double=True),
                make_row(idx=1, double=False),
                make_row(game="g2", idx=0, rusher="R2", double=True),
            ]
        )
        s = summarize(t)
        assert (s.interactions, s.plays, s.games) == (3, 2, 2)
        assert (s.rushers, s.blockers) == (2, 1)
        assert s.double_team_rate == pytest.approx(2 / 3)

    def test_empty_table_has_undefined_rate(self):
        assert summarize(InteractionTable([])).double_team_rate is None


class TestCsvRoundTrip:
    def test_round_trip_preserves_rows_and_bytes(self, tmp_path, small_table):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_interactions_csv(small_table, p1)
        back = read_interactions_csv(p1)
        assert back == small_table
        write_interactions_csv(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("g1,p1,0,1,R1,B1,0,0,loss\n")
        with pytest.raises(DataError):
            read_interactions_csv(p)

    def test_bad_flag_value_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "game_id,play_id,event_game_index,week,rusher_id,blocker_id,"
            "double_team,win_target,severity\n"
            "g1,p1,0,1,R1,B1,2,0,loss\n"
        )
        with pytest.raises(DataError, match=":2"):
            read_interactions_csv(p)

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text(
            "game_id,play_id,event_game_index,week,rusher_id,blocker_id,"
            "double_team,win_target,severity\n"
            "g1,p1,0,1,R1,B1,0,0,loss\n"
            "g1,p1,1,1,R1,B2,0,1,win\n"
            "g1,p2,0,1,R2,B1,0,0,loss\n"
            "g1,p1,1,1,R3,B3,1,0,loss\n"
        )
        with pytest.raises(DataError, match=r":5: duplicate key .* line 3"):
            read_interactions_csv(p)

    def test_bad_severity_label_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "game_id,play_id,event_game_index,week,rusher_id,blocker_id,"
            "double_team,win_target,severity\n"
            "g1,p1,0,1,R1,B1,0,0,fumble\n"
        )
        with pytest.raises(DataError):
            read_interactions_csv(p)

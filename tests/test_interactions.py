import csv
import math
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trenchrank import interactions
from trenchrank.errors import DataError
from trenchrank.evaluate import ordered_split
from trenchrank.interactions import (
    CLASSES,
    INTERACTION_CSV_HEADER,
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
from trenchrank.synth import SynthConfig, synth_generate

from conftest import make_row, random_table, rows_by_game


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
        rows = tuple(reversed(random_table(rng).rows))
        t = InteractionTable(rows)
        assert t.rushers == tuple(sorted({r.rusher_id for r in rows}))
        assert t.play_ids == tuple(sorted({r.play_id for r in rows}))
        assert [t.rushers[i] for i in t.rusher] == [r.rusher_id for r in rows]
        assert [t.blockers[i] for i in t.blocker] == [r.blocker_id for r in rows]
        assert [t.games[i] for i in t.game] == [r.game_id for r in rows]
        assert [t.play_ids[i] for i in t.play] == [r.play_id for r in rows]
        assert t.event_game_index.tolist() == [r.event_game_index for r in rows]
        assert t.week.tolist() == [r.week for r in rows]
        assert t.double_team.tolist() == [r.double_team for r in rows]
        assert t.win.tolist() == [float(r.win_target) for r in rows]
        assert t.severity.tolist() == [int(r.severity) for r in rows]
        assert not t.rusher.flags.writeable
        assert t.rows == rows
        sub = t.take(np.array([4, 0]))
        assert sub.rows == (rows[4], rows[0])
        # take cuts each vocabulary to the ids of the rows it keeps
        assert sub.rushers == tuple(sorted({rows[4].rusher_id, rows[0].rusher_id}))
        assert [sub.rushers[i] for i in sub.rusher] == [rows[4].rusher_id, rows[0].rusher_id]

    def test_rows_by_game_preserves_row_order(self):
        rows = [make_row(game=g, idx=i) for g in ("g1", "g2") for i in range(3)]
        t = InteractionTable(rows)
        assert [r.event_game_index for r in rows_by_game(t)["g2"]] == [0, 1, 2]

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

    @pytest.mark.parametrize(
        "field, text",
        [("event_game_index", "1_0"), ("event_game_index", "\u0661"),
         ("week", "\u0663"), ("week", "1_2")],
    )
    def test_underscored_or_non_ascii_numerals_rejected_with_line(self, tmp_path, field, text):
        # Python's int() reads all of these; the tracking reader's rule does not
        values = {"event_game_index": "1", "week": "1", field: text}
        p = tmp_path / "bad.csv"
        p.write_text(
            ",".join(INTERACTION_CSV_HEADER) + "\n"
            "g1,p1,0,1,R1,B1,0,0,loss\n"
            f"g1,p1,{values['event_game_index']},{values['week']},R1,B1,0,0,loss\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=rf"bad.csv:3: {field} must be written in ASCII digits"):
            read_interactions_csv(p)


# ---------------------------------------------------------------------------
# Reference: the row-backed table the columns replaced (a tuple of
# Interaction values, its coded view and its CSV reader), kept as the
# oracle the columnar table must match.


class ReferenceTable:
    def __init__(self, rows):
        self.rows = tuple(rows)
        self.rushers = tuple(sorted({r.rusher_id for r in self.rows}))
        self.blockers = tuple(sorted({r.blocker_id for r in self.rows}))
        self.games = tuple(sorted({r.game_id for r in self.rows}))
        self.play_ids = tuple(sorted({r.play_id for r in self.rows}))
        self.plays = tuple(sorted({(r.game_id, r.play_id) for r in self.rows}))

    def coded(self):
        rows, n = self.rows, len(self.rows)

        def codes(ids, vocab):
            lookup = {v: i for i, v in enumerate(vocab)}
            return np.fromiter((lookup[v] for v in ids), dtype=np.intp, count=n)

        return {
            "rusher": codes((r.rusher_id for r in rows), self.rushers),
            "blocker": codes((r.blocker_id for r in rows), self.blockers),
            "game": codes((r.game_id for r in rows), self.games),
            "play": codes((r.play_id for r in rows), self.play_ids),
            "event_game_index": np.fromiter((r.event_game_index for r in rows), np.intp, n),
            "week": np.fromiter((r.week for r in rows), dtype=np.intp, count=n),
            "double_team": np.fromiter((r.double_team for r in rows), dtype=bool, count=n),
            "win": np.fromiter((r.win_target for r in rows), dtype=float, count=n),
            "severity": np.fromiter((r.severity for r in rows), dtype=np.intp, count=n),
        }


def reference_canonical_sort(rows):
    return sorted(rows, key=Interaction.sort_key)


def reference_summarize(t):
    n = len(t.rows)
    if n == 0:
        return (0, 0, 0, 0, 0, None)
    return (n, len(t.plays), len(t.games), len(t.rushers), len(t.blockers),
            sum(r.double_team for r in t.rows) / n)


def reference_class_frequencies(rows):
    counts = [0, 0, 0, 0]
    for row in rows:
        counts[int(row.severity)] += 1
    return {c: counts[int(c)] / len(rows) for c in CLASSES}


def reference_read_interactions_csv(path):
    rows, linenos = [], array("l")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != INTERACTION_CSV_HEADER:
            raise DataError(f"{path}: expected header {INTERACTION_CSV_HEADER}, got {header}")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(INTERACTION_CSV_HEADER):
                raise DataError(f"{path}:{lineno}: expected {len(INTERACTION_CSV_HEADER)} fields")
            try:
                rows.append(Interaction(
                    rec[0], rec[1], int(rec[2]), int(rec[3]), rec[4], rec[5],
                    interactions._parse_bool01(rec[6], "double_team"),
                    interactions._parse_bool01(rec[7], "win_target"),
                    OutcomeClass.from_label(rec[8]),
                ))
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            linenos.append(lineno)
    first_row = {}
    for i, row in enumerate(rows):
        j = first_row.setdefault(row.sort_key(), i)
        if j != i:
            raise DataError(
                f"{path}:{linenos[i]}: duplicate key (game_id, play_id, event_game_index) "
                f"= {row.sort_key()}, first seen on line {linenos[j]}"
            )
    return ReferenceTable(rows)


def oracle_tables():
    rng = np.random.default_rng(99)
    for k in range(6):
        yield f"random{k}", random_table(
            rng, n_rows=int(rng.integers(0, 90)), n_rushers=int(rng.integers(1, 9)),
            n_blockers=int(rng.integers(1, 7)), n_games=int(rng.integers(1, 6)),
        ).rows
    for seed in range(3):
        table, _ = synth_generate(SynthConfig(
            n_rushers=30, n_blockers=20, n_games=7, plays_per_game=6, seed=seed,
        ))
        yield f"synth{seed}", table.rows


def assert_matches_reference(t, ref):
    assert t.rows == ref.rows
    assert (t.games, t.play_ids, t.rushers, t.blockers, t.plays) == (
        ref.games, ref.play_ids, ref.rushers, ref.blockers, ref.plays
    )
    for name, want in ref.coded().items():
        got = getattr(t, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable


class TestReferenceEquivalence:
    @pytest.mark.parametrize("name, rows", list(oracle_tables()))
    def test_columns_and_table_operations(self, name, rows):
        rng = np.random.default_rng(len(rows))
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        t, ref = InteractionTable(shuffled), ReferenceTable(shuffled)
        assert_matches_reference(t, ref)
        assert t == InteractionTable(shuffled)
        assert (t == InteractionTable(rows)) == (shuffled == list(rows))

        ordered = canonical_sort(t)
        assert_matches_reference(ordered, ReferenceTable(reference_canonical_sort(shuffled)))
        assert ordered.is_canonically_sorted()
        assert t.is_canonically_sorted() == (list(t.rows) == reference_canonical_sort(shuffled))

        assert tuple(summarize(t).__dict__.values()) == reference_summarize(ref)
        if rows:
            assert class_frequencies(t) == reference_class_frequencies(shuffled)

        picks = rng.integers(0, len(rows), size=min(len(rows), 7)) if rows else np.array([], int)
        assert_matches_reference(t.take(picks), ReferenceTable([shuffled[i] for i in picks]))
        mask = rng.random(len(rows)) < 0.5
        assert_matches_reference(
            t.take(mask), ReferenceTable([r for r, m in zip(shuffled, mask) if m])
        )

        if len(rows) >= 2:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # a split of few rows
                split = ordered_split(ordered, 0.6)
            n_train = math.floor(0.6 * len(rows))
            sorted_rows = reference_canonical_sort(shuffled)
            assert_matches_reference(split.train, ReferenceTable(sorted_rows[:n_train]))
            assert_matches_reference(split.test, ReferenceTable(sorted_rows[n_train:]))

    def test_stable_sort_keeps_tied_keys_in_input_order(self):
        rows = [make_row(game=g, play=p, idx=i, rusher=f"R{k}")
                for k, (g, p, i) in enumerate([("g2", "p1", 0), ("g1", "p2", 3), ("g1", "p2", 3),
                                               ("g2", "p1", 0), ("g1", "p10", 1), ("g1", "p2", 3)])]
        got = canonical_sort(InteractionTable(rows)).rows
        assert list(got) == reference_canonical_sort(rows)
        assert [r.rusher_id for r in got if r.sort_key() == ("g1", "p2", 3)] == ["R1", "R2", "R5"]

    @pytest.mark.parametrize("name, rows", list(oracle_tables()))
    def test_csv_reader_matches_reference(self, name, rows, tmp_path):
        path = tmp_path / "t.csv"
        write_interactions_csv(InteractionTable(rows), path)
        assert_matches_reference(read_interactions_csv(path), reference_read_interactions_csv(path))


_HEADER = ",".join(INTERACTION_CSV_HEADER)
_GOOD = ["g1,p1,0,1,R1,B1,0,0,loss", "g1,p1,1,1,R2,B1,1,1,win", "g1,p2,0,1,R1,B2,0,1,hit",
         "g2,p1,0,2,R3,B2,1,0,sack", "g2,p1,1,2,R1,B1,0,0,loss"]

# file bodies after the header; each case either parses or fails in one way
CSV_CASES = {
    "good": _GOOD,
    "loose spellings": _GOOD[:2] + ["g1,p2,+3, 2 ,R1,B2,0,1, Sack ", "g2,p1,007,2,R3,B2,1,0,HIT"],
    "blank lines": ["", _GOOD[0], "", "", _GOOD[1], _GOOD[2]],
    "quoted ids": [_GOOD[0], '"g1","p,9",0,1,"R""1",B1,0,0,loss', '"g3","p\n1",0,1,R1,B1,0,0,win',
                   _GOOD[3]],
    "bad flag": _GOOD[:3] + ["g2,p1,0,2,R3,B2,2,0,sack"],
    "bad win": _GOOD[:3] + ["g2,p1,0,2,R3,B2,1,yes,sack"],
    "bad label": _GOOD[:4] + ["g2,p1,1,2,R1,B1,0,0,fumble"],
    "bad int": _GOOD[:1] + ["g1,p1,x,1,R2,B1,1,1,win"],
    "float int": _GOOD[:1] + ["g1,p1,1.0,1,R2,B1,1,1,win"],
    "negative index": _GOOD[:2] + ["g1,p2,-1,1,R1,B2,0,1,hit"],
    "week zero": _GOOD[:2] + ["g1,p2,0,0,R1,B2,0,1,hit"],
    "empty week": _GOOD[:2] + ["g1,p2,0,,R1,B2,0,1,hit"],
    "two bad fields": _GOOD[:2] + ["g1,p2,x,0,R1,B2,2,1,fumble"],
    "short record": _GOOD[:3] + ["g2,p1,0,2,R3,B2,1,0"],
    "long record": _GOOD[:3] + ["g2,p1,0,2,R3,B2,1,0,sack,extra"],
    "value error before short record": _GOOD[:1] + ["g1,p1,1,1,R2,B1,5,1,win", "g1,p2"],
    "short record before value error": _GOOD[:1] + ["g1,p2", "g1,p1,1,1,R2,B1,5,1,win"],
    "duplicate key": _GOOD + ["g1,p1,1,3,R9,B9,1,1,sack", "g1,p2,0,1,R1,B2,0,1,hit"],
    "duplicate then bad value": _GOOD + ["g1,p1,1,3,R9,B9,1,1,sack", "g3,p1,0,1,R1,B1,0,0,meh"],
    "header only": [],
}


@pytest.mark.parametrize("block", [2, 3, interactions._READ_BLOCK])
@pytest.mark.parametrize("case", list(CSV_CASES))
def test_csv_cases_match_reference_reader(case, block, tmp_path, monkeypatch):
    monkeypatch.setattr(interactions, "_READ_BLOCK", block)
    path = tmp_path / "t.csv"
    path.write_text("\n".join([_HEADER, *CSV_CASES[case]]) + "\n", encoding="utf-8", newline="")
    try:
        want = reference_read_interactions_csv(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_interactions_csv(path)
        assert str(got.value) == str(exc)
    else:
        assert_matches_reference(read_interactions_csv(path), want)


def test_bad_header_matches_reference_reader(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("game_id,play_id\n", encoding="utf-8")
    with pytest.raises(DataError) as want:
        reference_read_interactions_csv(path)
    with pytest.raises(DataError) as got:
        read_interactions_csv(path)
    assert str(got.value) == str(want.value)

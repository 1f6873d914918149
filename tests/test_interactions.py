import csv
import dataclasses
import math
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trenchrank import cli, interactions
from trenchrank.errors import DataError
from trenchrank.evaluate import ordered_split
from trenchrank.interactions import (
    CLASSES,
    INTERACTION_CSV_HEADER,
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

from conftest import Interaction, make_row, random_table, rows_by_game, rows_of, table_of


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


class TestInteractionTable:
    def test_derived_id_sets_are_sorted_and_deduplicated(self):
        t = table_of(
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
        rows = tuple(reversed(rows_of(random_table(rng))))
        t = table_of(rows)
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
        assert rows_of(t) == rows
        sub = t.take(np.array([4, 0]))
        assert rows_of(sub) == (rows[4], rows[0])
        # take cuts each vocabulary to the ids of the rows it keeps
        assert sub.rushers == tuple(sorted({rows[4].rusher_id, rows[0].rusher_id}))
        assert [sub.rushers[i] for i in sub.rusher] == [rows[4].rusher_id, rows[0].rusher_id]

    def test_rows_by_game_preserves_row_order(self):
        rows = [make_row(game=g, idx=i) for g in ("g1", "g2") for i in range(3)]
        t = table_of(rows)
        assert [r.event_game_index for r in rows_by_game(t)["g2"]] == [0, 1, 2]

    def test_canonical_sort_orders_and_is_idempotent(self):
        shuffled = table_of(
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
        assert [r.sort_key() for r in rows_of(ordered)] == [
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
        n_sack = sum(r.severity is OutcomeClass.SACK for r in rows_of(small_table))
        assert freqs[OutcomeClass.SACK] == n_sack / len(small_table)

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            class_frequencies(table_of([]))


class TestSummarize:
    def test_counts_and_double_team_rate(self):
        t = table_of(
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
        assert summarize(table_of([])).double_team_rate is None


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

    @pytest.mark.parametrize("field", ["event_game_index", "week"])
    @pytest.mark.parametrize("text", ["99999999999999999999", "9223372036854775808",
                                      "-9223372036854775809"])
    def test_integer_beyond_int64_is_a_data_error_with_line(self, tmp_path, field, text):
        values = {"event_game_index": "1", "week": "1", field: text}
        p = tmp_path / "big.csv"
        p.write_text(
            ",".join(INTERACTION_CSV_HEADER) + "\n"
            "g1,p1,0,1,R1,B1,0,0,loss\n"
            f"g1,p1,{values['event_game_index']},{values['week']},R1,B1,0,0,loss\n"
        )
        with pytest.raises(DataError) as got:
            read_interactions_csv(p)
        assert str(got.value) == f"{p}:3: {field} does not fit in a 64-bit integer, got {text!r}"
        assert cli.main(["fit", "--interactions", str(p), "--lam", "0.5",
                         "--out", str(tmp_path / "fit.json")]) == 2

    def test_largest_int64_is_read(self, tmp_path):
        p = tmp_path / "max.csv"
        p.write_text(
            ",".join(INTERACTION_CSV_HEADER) + "\n"
            "g1,p1,9223372036854775807,9223372036854775807,R1,B1,0,0,loss\n"
        )
        t = read_interactions_csv(p)
        assert t.event_game_index.tolist() == t.week.tolist() == [2**63 - 1]


class TestTableEquality:
    """``==`` compares columns; the oracle compares the decoded rows."""

    @staticmethod
    def assert_eq_matches_rows(a, b):
        assert (a == b) == (b == a) == (rows_of(a) == rows_of(b))

    def test_random_tables(self):
        rng = np.random.default_rng(7)
        tables = [random_table(rng, n_rows=int(rng.integers(0, 40)), n_games=2)
                  for _ in range(12)]
        for a in tables:
            assert a == table_of(rows_of(a))
            for b in tables:
                self.assert_eq_matches_rows(a, b)

    @pytest.mark.parametrize("field", ["game_id", "play_id", "event_game_index", "week",
                                       "rusher_id", "blocker_id", "double_team",
                                       "win_target", "severity"])
    def test_one_field_of_one_row_differs(self, rng, field):
        rows = list(rows_of(random_table(rng, n_rows=30)))
        other = {"game_id": "gX", "play_id": "pX", "event_game_index": 999, "week": 9,
                 "rusher_id": "RX", "blocker_id": "BX", "double_team": not rows[7].double_team,
                 "win_target": not rows[7].win_target,
                 "severity": OutcomeClass((int(rows[7].severity) + 1) % 4)}[field]
        changed = rows.copy()
        changed[7] = dataclasses.replace(rows[7], **{field: other})
        assert changed != rows
        self.assert_eq_matches_rows(table_of(rows), table_of(changed))
        assert table_of(rows) != table_of(changed)

    def test_reordered_rows(self, rng):
        rows = rows_of(random_table(rng, n_rows=30))
        self.assert_eq_matches_rows(table_of(rows), table_of(rows[::-1]))
        assert table_of(rows) != table_of(rows[::-1])
        assert canonical_sort(table_of(rows[::-1])) == canonical_sort(table_of(rows))

    def test_empty_tables(self, small_table):
        empty = table_of([])
        assert empty == table_of([]) == small_table.take(slice(0))
        self.assert_eq_matches_rows(empty, small_table)
        self.assert_eq_matches_rows(empty, small_table.take(slice(1)))
        assert empty != "not a table"


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


def reference_int(text, field):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{field} must be an integer, got {text!r}") from None


def reference_read_interactions_csv(path):
    rows, linenos = [], array("l")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != INTERACTION_CSV_HEADER:
            raise DataError(f"{path}: expected header {INTERACTION_CSV_HEADER}, got {header}")
        for rec in reader:
            line = reader.line_num  # the line the record ends on
            if not rec:
                continue
            if len(rec) != len(INTERACTION_CSV_HEADER):
                raise DataError(f"{path}:{line}: expected {len(INTERACTION_CSV_HEADER)} fields")
            try:
                rows.append(Interaction(
                    rec[0], rec[1], reference_int(rec[2], "event_game_index"),
                    reference_int(rec[3], "week"), rec[4], rec[5],
                    interactions._parse_bool01(rec[6], "double_team"),
                    interactions._parse_bool01(rec[7], "win_target"),
                    OutcomeClass.from_label(rec[8]),
                ))
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{line}: {exc}") from exc
            linenos.append(line)
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
        yield f"random{k}", rows_of(random_table(
            rng, n_rows=int(rng.integers(0, 90)), n_rushers=int(rng.integers(1, 9)),
            n_blockers=int(rng.integers(1, 7)), n_games=int(rng.integers(1, 6)),
        ))
    for seed in range(3):
        table, _ = synth_generate(SynthConfig(
            n_rushers=30, n_blockers=20, n_games=7, plays_per_game=6, seed=seed,
        ))
        yield f"synth{seed}", rows_of(table)


def assert_matches_reference(t, ref):
    assert rows_of(t) == ref.rows
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
        t, ref = table_of(shuffled), ReferenceTable(shuffled)
        assert_matches_reference(t, ref)
        assert t == table_of(shuffled)
        assert (t == table_of(rows)) == (shuffled == list(rows))

        ordered = canonical_sort(t)
        assert_matches_reference(ordered, ReferenceTable(reference_canonical_sort(shuffled)))
        assert ordered.is_canonically_sorted()
        assert t.is_canonically_sorted() == (list(rows_of(t)) == reference_canonical_sort(shuffled))

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
        got = rows_of(canonical_sort(table_of(rows)))
        assert list(got) == reference_canonical_sort(rows)
        assert [r.rusher_id for r in got if r.sort_key() == ("g1", "p2", 3)] == ["R1", "R2", "R5"]

    @pytest.mark.parametrize("name, rows", list(oracle_tables()))
    def test_csv_reader_matches_reference(self, name, rows, tmp_path):
        path = tmp_path / "t.csv"
        write_interactions_csv(table_of(rows), path)
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


@pytest.mark.parametrize("body, want", [
    # a quoted line break on lines 2-3; the bad record is on line 4
    (['g1,"p', '1",0,1,R1,B1,0,0,loss', "g1,p2,0,1,R1,B1,2,0,loss"],
     "ql.csv:4: double_team must be 0 or 1, got '2'"),
    # and in a block of its own, after a duplicate key's first row
    (["g1,p1,0,1,R1,B1,0,0,loss", 'g2,"p', '1",0,1,R1,B1,0,0,loss', "g1,p1,0,1,R1,B1,0,0,win"],
     "ql.csv:5: duplicate key (game_id, play_id, event_game_index) = ('g1', 'p1', 0), "
     "first seen on line 2"),
])
@pytest.mark.parametrize("block", [2, interactions._READ_BLOCK])
def test_error_after_quoted_line_break_names_the_file_line(body, want, block, tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(interactions, "_READ_BLOCK", block)
    path = tmp_path / "ql.csv"
    path.write_text("\n".join([_HEADER, *body]) + "\n", encoding="utf-8", newline="")
    with pytest.raises(DataError) as got:
        read_interactions_csv(path)
    assert str(got.value) == f"{tmp_path}/{want}"


@pytest.mark.parametrize("record, want", [
    ("g1,p1,0,x,R2,B1,1,1,win", "week must be an integer, got 'x'"),
    ("g1,p1,1.5,1,R2,B1,1,1,win", "event_game_index must be an integer, got '1.5'"),
    ("g1,p1,0,,R2,B1,1,1,win", "week must be an integer, got ''"),
])
def test_non_numeric_integer_names_its_field(record, want, tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(f"{_HEADER}\n{record}\n", encoding="utf-8")
    with pytest.raises(DataError) as got:
        read_interactions_csv(path)
    assert str(got.value) == f"{path}:2: {want}"


def test_bad_header_matches_reference_reader(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("game_id,play_id\n", encoding="utf-8")
    with pytest.raises(DataError) as want:
        reference_read_interactions_csv(path)
    with pytest.raises(DataError) as got:
        read_interactions_csv(path)
    assert str(got.value) == str(want.value)

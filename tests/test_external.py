import csv
import warnings
from fractions import Fraction

import numpy as np
import pytest

from trenchrank.errors import DataError
from trenchrank.external import (
    ACCOLADE_SLICES,
    enrichment_at_k,
    model_scores,
    rank_auc,
    raw_baseline_scores,
    read_accolades_csv,
    role_sums,
    role_vocab,
    run_external_eval,
)
from trenchrank.fit import (
    fit_coded,
    fit_from_json_dict,
    fit_severity_model,
    fit_to_json_dict,
    fit_win_model,
)
from trenchrank.interactions import (
    OutcomeClass,
    SeverityWeights,
    default_severity_weights,
)

from conftest import (
    ClassEffects,
    dict_fit,
    make_row,
    random_table,
    rows_of,
    table_of,
    win_effects,
)


def brute_force_auc(scores, labels):
    """Exact pair counting with Fractions; ties contribute one half."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = Fraction(0)
    for p in pos:
        for n in neg:
            if p > n:
                total += 1
            elif p == n:
                total += Fraction(1, 2)
    return total / (len(pos) * len(neg))


class TestRankAuc:
    def test_perfect_ranking(self):
        assert rank_auc([4.0, 3.0, 2.0, 1.0], [True, True, False, False]) == 1.0

    def test_reversed_ranking(self):
        assert rank_auc([1.0, 2.0, 3.0, 4.0], [True, True, False, False]) == 0.0

    def test_all_tied_is_half(self):
        assert rank_auc([1.0, 1.0, 1.0], [True, False, False]) == 0.5

    def test_matches_brute_force_with_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            # coarse integer scores force plenty of ties
            scores = rng.integers(0, 5, size=n).astype(float)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            expected = brute_force_auc(scores.tolist(), labels.tolist())
            assert rank_auc(scores, labels) == float(expected)

    def test_complement_of_negated_scores(self, rng):
        scores = rng.normal(size=30)
        labels = rng.random(30) < 0.4
        labels[0] = True
        labels[1] = False
        a = rank_auc(scores, labels)
        b = rank_auc(-scores, labels)
        assert a + b == pytest.approx(1.0, abs=1e-15)

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.normal(size=50)
        labels = rng.random(50) < 0.3
        labels[:2] = [True, False]
        assert rank_auc(scores, labels) == rank_auc(np.exp(scores), labels)

    def test_degenerate_labels_rejected(self):
        with pytest.raises(DataError):
            rank_auc([1.0, 2.0], [True, True])
        with pytest.raises(DataError):
            rank_auc([1.0, 2.0], [False, False])


class TestEnrichmentAtK:
    def test_identity_hits_equals_enrichment_base_rate_k(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 60))
            scores = rng.integers(0, 6, size=n).astype(float)
            labels = (rng.random(n) < 0.4).tolist()
            if not any(labels):
                continue
            n_pos = sum(labels)
            k = int(rng.integers(1, n + 1))
            e = enrichment_at_k(scores, labels, k)
            # exact identity: enrichment * (n_pos/n) * k == hits in top k
            hits = Fraction(e).limit_denominator(10**12) * Fraction(n_pos, n) * k
            assert hits.denominator == 1
            assert 0 <= hits.numerator <= min(k, n_pos)

    def test_hand_example(self):
        scores = [5.0, 4.0, 3.0, 2.0, 1.0]
        labels = [True, False, True, False, False]
        # top-2 by score contains 1 positive; base rate 2/5
        assert enrichment_at_k(scores, labels, 2) == pytest.approx((1 * 5) / (2 * 2))

    def test_perfect_top_k(self):
        scores = [3.0, 2.0, 1.0, 0.5]
        labels = [True, True, False, False]
        assert enrichment_at_k(scores, labels, 2) == pytest.approx(2.0)

    def test_ties_break_by_player_id(self):
        # identical scores: order falls back to ascending id, making the
        # top-k selection reproducible
        scores = [1.0, 1.0, 1.0]
        labels = [False, True, False]
        ids = ["a", "b", "c"]
        e_named = enrichment_at_k(scores, labels, 1, ids=ids)
        assert e_named == 0.0  # "a" sorts first and is negative
        e_renamed = enrichment_at_k(scores, labels, 1, ids=["z", "b", "c"])
        assert e_renamed == pytest.approx(3.0)  # now "b" leads the order

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            enrichment_at_k([1.0], [True], 0)
        with pytest.raises(ValueError):
            enrichment_at_k([1.0], [True], 2)

    def test_no_positives_rejected(self):
        with pytest.raises(DataError):
            enrichment_at_k([1.0, 2.0], [False, False], 1)


class TestAccoladeCsv:
    def write(self, tmp_path, lines):
        p = tmp_path / "acc.csv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_read_and_levels(self, tmp_path):
        p = self.write(
            tmp_path,
            ["player_id,team_level", "R1,first", "B2,second"],
        )
        acc = read_accolades_csv(p)
        assert acc == {"R1": "first", "B2": "second"}

    def test_bad_header_rejected(self, tmp_path):
        p = self.write(tmp_path, ["player,level", "R1,first"])
        with pytest.raises(DataError):
            read_accolades_csv(p)

    def test_duplicate_player_rejected(self, tmp_path):
        p = self.write(
            tmp_path, ["player_id,team_level", "R1,first", "R1,second"]
        )
        with pytest.raises(DataError, match=":3"):
            read_accolades_csv(p)

    def test_unknown_level_rejected(self, tmp_path):
        p = self.write(tmp_path, ["player_id,team_level", "R1,third"])
        with pytest.raises(DataError, match=":2"):
            read_accolades_csv(p)

    def test_error_after_quoted_line_break_names_the_file_line(self, tmp_path):
        p = self.write(tmp_path, ["player_id,team_level", '"R', '1",first', "B2,third"])
        with pytest.raises(DataError) as got:
            read_accolades_csv(p)
        assert str(got.value).startswith(f"{p}:4: team_level must be one of")


def reference_model_scores(model, per_class, role, weights=None):
    """``model_scores`` as it summed the effects keyed by player id of each
    class of ``per_class``: the win model's effects as they are, the
    severity model's class by class."""
    if model == "win":
        return dict(getattr(per_class[OutcomeClass.WIN], f"{role}_effects"))
    w = default_severity_weights() if weights is None else weights
    out = {}
    for c, e in per_class.items():
        for pid, eff in getattr(e, f"{role}_effects").items():
            out[pid] = out.get(pid, 0.0) + w.weight(c) * eff
    return out


class TestScores:
    def test_model_scores_binary_are_effects(self, rng, small_table):
        fit = fit_win_model(small_table, 0.3)
        scores = model_scores(fit, "rusher", default_severity_weights())
        assert scores == win_effects(fit).rusher_effects

    def test_model_scores_severity_weighted_sum(self, rng, small_table):
        fit = fit_severity_model(small_table, 0.3)
        w = default_severity_weights()
        scores = model_scores(fit, "blocker", w)
        pid = small_table.blockers[0]
        expected = sum(
            w.weight(c) * e.blocker_effects[pid]
            for c, e in dict_fit(fit).items()
            if c is not OutcomeClass.LOSS
        )
        assert scores[pid] == pytest.approx(expected)

    def test_model_scores_equal_dict_accumulation(self, rng):
        # one path over theta gives the bits of the per-class accumulation
        # over effects keyed by player id, the win model's raw effects
        # included, for fits read back from JSON too
        t = random_table(rng, n_rows=150, n_rushers=8, n_blockers=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fits = [fit_win_model(t, 0.3), fit_severity_model(t, 0.3),
                    fit_coded(t, np.where(t.severity == 2, 0.0, 1.0), "severity", 0.3)]
        cases = [(fit, dict_fit(fit)) for fit in fits]
        # a fit file whose sack effects miss a player, summed over the dicts read
        raw = fit_to_json_dict(fits[1])
        del raw["rusher_effects"]["sack"][t.rushers[0]]
        cases.append((fit_from_json_dict(raw), {
            OutcomeClass.from_label(c): ClassEffects(
                *(raw[key][c] for key in ("alpha", "delta", "rusher_effects", "blocker_effects"))
            )
            for c in raw["classes"]
        }))
        for fit, per_class in cases:
            for role in ("rusher", "blocker"):
                for w in (None, SeverityWeights(0.0, 0.15, 0.35, 1.0)):
                    got = model_scores(fit, role, w)
                    want = reference_model_scores(fit.model, per_class, role, w)
                    assert sorted(got) == sorted(want)
                    assert np.array_equal([got[p] for p in want], list(want.values()))

    def test_raw_win_scores_orientation(self):
        t = table_of(
            [
                make_row(idx=0, rusher="R1", blocker="B1", win=True),
                make_row(idx=1, rusher="R1", blocker="B1", win=True),
                make_row(idx=2, rusher="R1", blocker="B2", win=False),
                make_row(idx=3, rusher="R2", blocker="B1", win=False),
            ]
        )
        w = default_severity_weights()
        rusher = dict(zip(t.rushers, raw_baseline_scores(t, "win", "rusher", w)))
        blocker = dict(zip(t.blockers, raw_baseline_scores(t, "win", "blocker", w)))
        assert rusher["R1"] == pytest.approx(2 / 3)
        # blockers are scored by the rate at which they deny wins
        assert blocker["B1"] == pytest.approx(1 / 3)
        assert blocker["B2"] == pytest.approx(1.0)

    def test_raw_severity_scores_use_weights(self):
        t = table_of(
            [
                make_row(idx=0, rusher="R1", severity=OutcomeClass.SACK),
                make_row(idx=1, rusher="R1", severity=OutcomeClass.LOSS),
            ]
        )
        w = default_severity_weights()
        scores = dict(zip(t.rushers, raw_baseline_scores(t, "severity", "rusher", w)))
        assert scores["R1"] == pytest.approx(0.5)  # mean of (1.0, 0.0)

    @pytest.mark.parametrize("weights", [None, SeverityWeights(0.0, 0.137, 0.333, 1.0)])
    def test_bincount_sums_equal_row_loop(self, rng, weights):
        """Counts and raw scores equal a sequential loop over the rows, bit for bit."""
        w = default_severity_weights() if weights is None else weights
        for _ in range(5):
            t = random_table(rng, n_rows=300, n_rushers=9, n_blockers=7, n_games=6)
            for role in ("rusher", "blocker"):
                counts, sums = {}, {"win": {}, "severity": {}}
                for row in rows_of(t):
                    pid = row.rusher_id if role == "rusher" else row.blocker_id
                    counts[pid] = counts.get(pid, 0) + 1
                    for task, value in (("win", float(row.win_target)),
                                        ("severity", w.weight(row.severity))):
                        value = 1.0 - value if role == "blocker" else value
                        sums[task][pid] = sums[task].get(pid, 0.0) + value
                ids = role_vocab(t, role)[0]
                assert ids == tuple(sorted(counts))
                assert role_sums(t, role).tolist() == [counts[pid] for pid in ids]
                assert role_sums(t, role).dtype.kind == "i"
                for task in ("win", "severity"):
                    want = [sums[task][pid] / counts[pid] for pid in ids]
                    assert raw_baseline_scores(t, task, role, weights).tolist() == want


class TestRunExternalEval:
    def build(self, rng):
        t = random_table(rng, n_rows=400, n_rushers=8, n_blockers=6, n_games=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            win_fit = fit_win_model(t, 0.5)
            sev_fit = fit_severity_model(t, 0.5)
        accolades = {"R0": "first", "R1": "second", "B0": "first", "B1": "second"}
        return t, win_fit, sev_fit, accolades

    def test_eight_rows_and_k_definition(self, rng):
        t, win_fit, sev_fit, accolades = self.build(rng)
        rows = run_external_eval(win_fit, sev_fit, t, accolades)
        assert len(rows) == 8
        assert [r.accolade for r in rows] == ["first"] * 4 + ["first_second"] * 4
        for r in rows:
            if r.accolade == "first":
                assert r.k == 1  # one first-team player per role
            else:
                assert r.k == 2
            assert r.delta_auc == pytest.approx(r.auc - r.base_auc)
            assert 0.0 <= r.auc <= 1.0

    def test_accolade_slices_constant(self):
        assert ACCOLADE_SLICES == ("first", "first_second")

    def test_min_n_drops_thin_players(self, rng):
        t, win_fit, sev_fit, accolades = self.build(rng)
        counts = {}
        for r in rows_of(t):
            counts[r.rusher_id] = counts.get(r.rusher_id, 0) + 1
        thin = min(counts, key=counts.get)
        rows_all = run_external_eval(win_fit, sev_fit, t, accolades, min_n=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows_cut = run_external_eval(
                win_fit, sev_fit, t, accolades, min_n=counts[thin] + 1
            )
        # removing players changes the evaluated population size
        assert len(rows_cut) == 8
        assert any(
            a.auc != b.auc or a.enrichment != b.enrichment
            for a, b in zip(rows_all, rows_cut)
        ) or thin not in accolades

    def test_no_positives_in_slice_rejected(self, rng):
        t, win_fit, sev_fit, _ = self.build(rng)
        with pytest.raises(DataError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_external_eval(win_fit, sev_fit, t, {"nobody": "first"})

    def test_swapped_fits_rejected(self, rng):
        t, win_fit, sev_fit, accolades = self.build(rng)
        with pytest.raises(ValueError, match="win_fit must be a 'win' fit, got a 'severity' fit"):
            run_external_eval(sev_fit, win_fit, t, accolades)
        with pytest.raises(ValueError, match="severity_fit must be a 'severity' fit"):
            run_external_eval(win_fit, win_fit, t, accolades)

    @pytest.mark.parametrize("min_n", [0, 40])
    def test_equals_dict_path(self, rng, min_n):
        # the rows equal those of scores looked up by player id: model
        # scores from ``model_scores`` (0 for a player the fit lacks), raw
        # scores and counts from a loop over the rows
        t, win_fit, sev_fit, accolades = self.build(rng)
        # a fit that lacks a rusher the table has
        sev_fit = fit_severity_model(t.take(t.rusher != 1), 0.5)
        counts, sums = {}, {}
        w = default_severity_weights()
        for row in rows_of(t):
            for role, pid in (("rusher", row.rusher_id), ("blocker", row.blocker_id)):
                counts[(role, pid)] = counts.get((role, pid), 0) + 1
                for task, value in (("win", float(row.win_target)),
                                    ("severity", w.weight(row.severity))):
                    value = 1.0 - value if role == "blocker" else value
                    sums[(task, role, pid)] = sums.get((task, role, pid), 0.0) + value
        want = []
        for accolade in ACCOLADE_SLICES:
            for task, fit in (("win", win_fit), ("severity", sev_fit)):
                for role in ("rusher", "blocker"):
                    players = sorted(p for (r, p), n in counts.items()
                                     if r == role and n >= max(1, min_n))
                    model = model_scores(fit, role)
                    m_scores = [model.get(p, 0.0) for p in players]
                    b_scores = [sums[(task, role, p)] / counts[(role, p)] for p in players]
                    levels = ("first",) if accolade == "first" else ("first", "second")
                    labels = [accolades.get(p) in levels for p in players]
                    k = sum(labels)
                    auc, base_auc = rank_auc(m_scores, labels), rank_auc(b_scores, labels)
                    enr = enrichment_at_k(m_scores, labels, k, ids=players)
                    base_enr = enrichment_at_k(b_scores, labels, k, ids=players)
                    want.append((task, role, accolade, k, auc, base_auc, auc - base_auc,
                                 enr, base_enr, enr - base_enr))
        got = run_external_eval(win_fit, sev_fit, t, accolades, min_n=min_n)
        assert [tuple(vars(row).values()) for row in got] == want
        assert all(type(row.k) is int for row in got)

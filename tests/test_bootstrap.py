import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from trenchrank.bootstrap import (
    BootstrapConfig,
    IMPROVEMENT_LEVELS,
    RATING_LEVELS,
    end_to_end_bootstrap,
    percentile_interval,
    resample_games,
    split_weights,
    weekly_path_bootstrap,
)
from trenchrank import bootstrap as boot
from trenchrank import fit as fit_module
from trenchrank.errors import DataError, FitError
from trenchrank.evaluate import run_validation, validate_weighted
from trenchrank.external import model_scores
from trenchrank.fit import DROPPED_CLASSES_WARNING, fit_severity_model, fit_win_model
from trenchrank.interactions import InteractionTable, OutcomeClass, canonical_sort
from trenchrank.report import summary_to_json_dict

from conftest import (
    BAD_PENALTIES,
    BAD_SOLVER_OPTIONS,
    Interaction,
    make_row,
    random_table,
    reference_end_to_end_bootstrap,
    reference_weekly_path_bootstrap,
    rows_by_game,
    rows_of,
    table_of,
    win_effects,
)

# ---------------------------------------------------------------------------
# Reference: each replicate materialized as a resampled table (repeated
# games tagged "#k" and canonically sorted), then split and refit row by
# row.  The multiplicity-weighted bootstrap must reproduce it.


def resampled_table(table: InteractionTable, drawn) -> InteractionTable:
    """Concatenate the drawn games' rows and canonically sort.

    Repeated draws are kept as distinct blocks: the second and later
    copies of a game get a copy ordinal appended to game_id so the sort
    stays deterministic.
    """
    by_game = rows_by_game(table)
    rows: list[Interaction] = []
    seen: dict[str, int] = {}
    for gid in drawn:
        if gid not in by_game:
            raise DataError(f"drawn game {gid!r} not present in table")
        copy = seen.get(gid, 0)
        seen[gid] = copy + 1
        block = by_game[gid]
        if copy == 0:
            rows.extend(block)
        else:
            tagged = f"{gid}#{copy + 1}"
            rows.extend(replace(r, game_id=tagged) for r in block)
    return canonical_sort(table_of(rows))


def reference_ratings(tbl, cfg):
    out = {}
    for model in cfg.models:
        if model == "win":
            fit = fit_win_model(tbl, cfg.lambda_win, tol=cfg.tol, max_iter=cfg.max_iter)
        else:
            fit = fit_severity_model(tbl, cfg.lambda_sev, tol=cfg.tol, max_iter=cfg.max_iter)
        for role in ("rusher", "blocker"):
            out[(model, role)] = model_scores(fit, role)
    return out


def reference_end_to_end(table, cfg):
    """Per replicate: (improvements by (task, baseline), ratings by (model, role))."""
    games = list(table.games)
    out = []
    for rep in range(cfg.b):
        drawn = resample_games(games, np.random.default_rng([cfg.seed, rep]))
        tbl = resampled_table(table, drawn)
        report = run_validation(
            tbl, lambda_win=cfg.lambda_win, lambda_sev=cfg.lambda_sev,
            m_win=cfg.m_win, m_sev=cfg.m_sev, ratio=cfg.ratio,
        )
        out.append((
            {(r.task, r.baseline): r.improvement for r in report.rows},
            reference_ratings(tbl, cfg),
        ))
    return out


def assert_same_value(got, want, tol=1e-10):
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == pytest.approx(want, abs=tol)


def forbid_solves(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a fit ran before the call was checked")

    monkeypatch.setattr(fit_module, "_solve", forbidden)


def config(**kw):
    base = dict(
        b=4,
        seed=0,
        lambda_win=0.5,
        lambda_sev=0.5,
    )
    base.update(kw)
    return BootstrapConfig(**base)


class TestConfigValidation:
    def test_replicates_must_be_positive(self):
        with pytest.raises(ValueError):
            config(b=0)

    def test_penalties_must_be_positive(self):
        for lam in BAD_PENALTIES:
            for key in ("lambda_win", "lambda_sev"):
                with pytest.raises(ValueError, match="lam must be finite and > 0"):
                    config(**{key: lam})

    @pytest.mark.parametrize("bad", BAD_SOLVER_OPTIONS)
    def test_solver_options_checked(self, bad):
        options, message = BAD_SOLVER_OPTIONS[bad]
        with pytest.raises(ValueError, match=message):
            config(**options)

    @pytest.mark.parametrize("key", ["m_win", "m_sev"])
    @pytest.mark.parametrize("m", [math.nan, math.inf, -1.0])
    def test_prior_strengths_must_be_finite_and_nonnegative(self, key, m):
        with pytest.raises(ValueError, match="prior strength must be finite and >= 0"):
            config(**{key: m})

    def test_empty_player_list_rejected(self):
        # an empty list would track no rating; track_ratings=False says that
        with pytest.raises(ValueError, match="track_players names no player"):
            config(track_players=())

    @pytest.mark.parametrize("models", [(), ("win", "probit")], ids=["none", "unknown"])
    def test_models_must_be_known_and_nonempty(self, models):
        with pytest.raises(ValueError, match="models must name one or both of"):
            config(models=models)

    def test_improvements_need_both_models(self, rng, monkeypatch):
        # only the end-to-end bootstrap tracks improvements, so it alone
        # checks, before any fit, that both models are refit
        t = random_table(rng, n_rows=120, n_games=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            end_to_end_bootstrap(t, config(b=1, models=("win",), track_improvements=False))
            weekly_path_bootstrap(t, config(b=1, models=("win",)))  # reads no such field
        forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="improvement tracking refits both models"):
            end_to_end_bootstrap(t, config(models=("win",)))


class TestResampleGames:
    def test_single_game_resamples_to_itself(self):
        rng = np.random.default_rng(0)
        assert resample_games(["g1"], rng) == ["g1"]

    def test_draw_count_equals_game_count(self, rng):
        games = [f"g{i}" for i in range(7)]
        drawn = resample_games(games, np.random.default_rng(3))
        assert len(drawn) == 7
        assert set(drawn) <= set(games)

    def test_seeded_draws_are_reproducible(self):
        games = ["g1", "g2", "g3"]
        a = resample_games(games, np.random.default_rng([5, 0]))
        b = resample_games(games, np.random.default_rng([5, 0]))
        assert a == b

    def test_empty_game_list_rejected(self):
        with pytest.raises(DataError):
            resample_games([], np.random.default_rng(0))

    def test_expected_multiplicity_is_one(self):
        # over many draws every game appears once per replicate on average
        games = [f"g{i}" for i in range(5)]
        rng = np.random.default_rng(42)
        counts = np.zeros(5)
        n_draws = 10_000
        for _ in range(n_draws):
            for g in resample_games(games, rng):
                counts[int(g[1:])] += 1
        means = counts / n_draws
        # each count is Binomial(5, 1/5) per draw: sd = sqrt(4/5)/sqrt(n)
        sigma = math.sqrt(5 * (1 / 5) * (4 / 5)) / math.sqrt(n_draws)
        assert np.all(np.abs(means - 1.0) < 3 * sigma)


class TestResampledTable:
    def test_identity_multiset_reproduces_table(self, rng):
        t = random_table(rng, n_games=3)
        out = resampled_table(t, list(t.games))
        assert out == t

    def test_duplicates_get_copy_ordinals(self, rng):
        t = random_table(rng, n_games=2)
        out = resampled_table(t, ["g0", "g0", "g1", "g0"])
        games = set(r.game_id for r in rows_of(out))
        assert games == {"g0", "g0#2", "g0#3", "g1"}
        per_game = len(rows_by_game(t)["g0"])
        assert len(out) == 3 * per_game + len(rows_by_game(t)["g1"])
        assert out.is_canonically_sorted()

    def test_unknown_game_rejected(self, rng):
        t = random_table(rng, n_games=2)
        with pytest.raises(DataError):
            resampled_table(t, ["g0", "gX"])


class TestMultiplicityWeights:
    """Row weights over one table against materialized resamples."""

    def test_split_weights_follow_the_copy_order(self, rng):
        t = random_table(rng, n_rows=40, n_games=4)
        games = list(t.games)
        # game 2 drawn three times; the cut (floor(0.8 * 40) = 32) falls
        # inside its third copy
        m = np.array([0, 1, 3, 0])
        train_w, test_w = split_weights(t, m, 0.8)
        drawn = [g for g, k in zip(games, m) for _ in range(k)]
        tbl = resampled_table(t, drawn)
        n_train = math.floor(0.8 * len(tbl))
        assert n_train == 32
        key = lambda r: (r.game_id.split("#")[0], r.play_id, r.event_game_index)
        want_train = {}
        want_test = {}
        for pos, r in enumerate(rows_of(tbl)):
            side = want_train if pos < n_train else want_test
            side[key(r)] = side.get(key(r), 0) + 1
        for r, a, b in zip(rows_of(t), train_w, test_w):
            assert (a, b) == (want_train.get(key(r), 0), want_test.get(key(r), 0))
        assert train_w.sum() == n_train and test_w.sum() == len(tbl) - n_train

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = validate_weighted(t, train_w, test_w, lambda_win=0.5, lambda_sev=0.5)
            want = run_validation(tbl, lambda_win=0.5, lambda_sev=0.5)
        for g, w in zip(got.rows, want.rows):
            assert (g.task, g.baseline) == (w.task, w.baseline)
            assert g.improvement == pytest.approx(w.improvement, abs=1e-10)
        assert (got.n_train, got.n_test) == (want.n_train, want.n_test)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_end_to_end_matches_materialized_replicates(self, rng, seed):
        base = random_table(rng, n_rows=120, n_games=5)
        # a rusher seen only at the end of the last game: absent from some
        # replicates (NaN rating) and mostly held out (baseline fallback)
        t = table_of(
            replace(r, rusher_id="RZ") if i >= len(base) - 6 else r for i, r in enumerate(rows_of(base))
        )
        cfg = config(b=4, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = end_to_end_bootstrap(t, cfg)
            reference = reference_end_to_end(t, cfg)
        assert summary.n_failed == 0
        for rep, (imps, ratings) in enumerate(reference):
            for key, value in imps.items():
                assert_same_value(summary.improvements[key].values[rep], value)
            for (model, role, pid), series in summary.ratings.items():
                assert_same_value(series.values[rep], ratings[(model, role)].get(pid, math.nan))

    @pytest.mark.parametrize("seed", [1, 4])
    def test_weekly_path_matches_materialized_replicates(self, rng, seed):
        t = TestWeeklyPath().weekly_table(rng, n_weeks=3)
        cfg = config(b=3, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = weekly_path_bootstrap(t, cfg)
            for week in summary.checkpoints:
                sub = table_of([r for r in rows_of(t) if r.week <= week])
                for rep in range(cfg.b):
                    rng_rep = np.random.default_rng([cfg.seed, week, rep])
                    tbl = resampled_table(sub, resample_games(list(sub.games), rng_rep))
                    ratings = reference_ratings(tbl, cfg)
                    for (model, role, pid, w), series in summary.weekly.items():
                        if w == week:
                            want = ratings[(model, role)].get(pid, math.nan)
                            assert_same_value(series.values[rep], want)

    def test_draws_repeating_a_game_three_times_are_covered(self, rng):
        # the seeds above include a replicate that draws one game three
        # times with the cut inside one of its later copies
        found = False
        for seed in (0, 3, 11):
            for rep in range(4):
                draws = np.random.default_rng([seed, rep]).integers(0, 5, size=5)
                m = np.bincount(draws, minlength=5)
                n_g = 24  # random_table(n_rows=120, n_games=5)
                cut = math.floor(0.8 * m.sum() * n_g)
                start = np.cumsum(m * n_g) - m * n_g
                g = int(np.searchsorted(np.cumsum(m * n_g), cut, side="right"))
                if m.max() >= 3 and g < 5 and m[g] >= 2 and cut - start[g] >= n_g:
                    found = True
        assert found

    def test_game_ids_resembling_copy_tags_do_not_collide(self, rng):
        base = random_table(rng, n_rows=120, n_games=5)
        # last in sorted order, where the 80% cut falls; a tag "g0#2" on a
        # second copy of g0 would interleave with the real game g0#2
        names = ["a0", "a1", "g0", "g0#2", "g0#3"]
        renamed = ["a0", "a1", "a2", "a3", "a4"]  # same sorted order

        def relabel(ids):
            mapping = dict(zip(sorted(base.games), ids))
            return table_of(replace(r, game_id=mapping[r.game_id]) for r in rows_of(base))

        tagged, plain = relabel(names), relabel(renamed)
        assert sorted(tagged.games) == names
        cfg = config(b=4, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            a = end_to_end_bootstrap(canonical_sort(tagged), cfg)
            b = end_to_end_bootstrap(canonical_sort(plain), cfg)
        assert json.dumps(summary_to_json_dict(a), sort_keys=True) == json.dumps(
            summary_to_json_dict(b), sort_keys=True
        )


class TestPercentileInterval:
    def sort_oracle(self, values, q):
        """Type-7 interpolated order statistic, written out longhand."""
        xs = sorted(values)
        h = (len(xs) - 1) * (q / 100.0)
        lo = math.floor(h)
        hi = math.ceil(h)
        return xs[lo] + (h - lo) * (xs[hi] - xs[lo])

    def test_matches_sort_based_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            values = rng.normal(size=n).tolist()
            for q_lo, q_hi in (IMPROVEMENT_LEVELS, RATING_LEVELS):
                lo, hi = percentile_interval(values, q_lo, q_hi)
                assert lo == pytest.approx(self.sort_oracle(values, q_lo), rel=1e-12)
                assert hi == pytest.approx(self.sort_oracle(values, q_hi), rel=1e-12)

    def test_nan_values_ignored(self):
        lo, hi = percentile_interval([1.0, math.nan, 3.0], 0.0, 100.0)
        assert (lo, hi) == (1.0, 3.0)

    def test_all_nan_gives_nan(self):
        lo, hi = percentile_interval([math.nan], 2.5, 97.5)
        assert math.isnan(lo) and math.isnan(hi)


class TestEndToEnd:
    def test_single_identity_replicate_matches_point_estimate(self, rng):
        t = random_table(rng, n_rows=160, n_games=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = end_to_end_bootstrap(
                t, config(b=1, identity_resample=True)
            )
            point = run_validation(t, lambda_win=0.5, lambda_sev=0.5)
        assert summary.n_failed == 0
        for row in point.rows:
            series = summary.improvements[(row.task, row.baseline)]
            assert series.values == (row.improvement,)
            assert series.mean == row.improvement
        # identity full-table refit reproduces the full-data ratings
        full = fit_win_model(t, 0.5)
        for pid, eff in win_effects(full).rusher_effects.items():
            assert summary.ratings[("win", "rusher", pid)].values[0] == pytest.approx(
                eff, abs=1e-12
            )

    def test_fixed_seed_is_byte_identical(self, rng):
        from trenchrank.report import summary_to_json_dict

        t = random_table(rng, n_rows=120, n_games=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            a = end_to_end_bootstrap(t, config(b=3, seed=9))
            b = end_to_end_bootstrap(t, config(b=3, seed=9))
        assert json.dumps(summary_to_json_dict(a), sort_keys=True) == json.dumps(
            summary_to_json_dict(b), sort_keys=True
        )

    def test_different_seeds_differ(self, rng):
        t = random_table(rng, n_rows=120, n_games=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            a = end_to_end_bootstrap(t, config(b=2, seed=1))
            b = end_to_end_bootstrap(t, config(b=2, seed=2))
        key = next(iter(a.improvements))
        assert a.improvements[key].values != b.improvements[key].values

    def test_interval_levels(self, rng):
        t = random_table(rng, n_rows=120, n_games=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = end_to_end_bootstrap(t, config(b=6))
        for series in summary.improvements.values():
            vals = [v for v in series.values if not math.isnan(v)]
            lo, hi = percentile_interval(vals, *IMPROVEMENT_LEVELS)
            assert (series.lo, series.hi) == (lo, hi)
        for series in summary.ratings.values():
            vals = [v for v in series.values if not math.isnan(v)]
            lo, hi = percentile_interval(vals, *RATING_LEVELS)
            assert (series.lo, series.hi) == (lo, hi)

    def test_cv_is_never_invoked(self, rng, monkeypatch):
        import trenchrank.evaluate as ev

        def boom(*a, **kw):
            raise AssertionError("cross-validation ran inside a bootstrap replicate")

        monkeypatch.setattr(ev, "cv_select_lambda", boom)
        t = random_table(rng, n_rows=120, n_games=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = end_to_end_bootstrap(t, config(b=2))
        assert summary.b == 2

    def test_excess_failures_abort(self, rng):
        t = random_table(rng, n_rows=120, n_games=4)
        # an impossible iteration budget fails every replicate
        with pytest.raises(FitError, match="aborting"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                end_to_end_bootstrap(t, config(b=4, max_iter=1))

    def test_track_players_restricts_rating_series(self, rng):
        t = random_table(rng, n_rows=120, n_games=4)
        pid = t.rushers[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = end_to_end_bootstrap(
                t,
                config(b=2, track_players=(pid,), track_improvements=False),
            )
        assert set(summary.ratings) == {("win", "rusher", pid), ("severity", "rusher", pid)}


def one_hit_game_table(rng):
    """Six games over four weeks with ``hit`` rows only in g0 (week 1)."""
    return table_of([
        replace(r, severity=OutcomeClass.SACK)
        if r.severity is OutcomeClass.HIT and r.game_id != "g0" else r
        for r in rows_of(random_table(rng, n_rows=180, n_games=6))
    ])


def dropped_warnings(caught):
    return [w for w in caught if str(w.message).startswith(DROPPED_CLASSES_WARNING)]


class TestDroppedClassWarning:
    """A bootstrap call warns once about dropped classes, not once per fit."""

    def test_end_to_end_warns_once(self, rng):
        t = one_hit_game_table(rng)
        cfg = config(b=8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = end_to_end_bootstrap(t, cfg)
        assert summary.n_failed == 0
        hit = t.severity == int(OutcomeClass.HIT)
        affected = 0
        for rep in range(cfg.b):
            draws = resample_games(range(len(t.games)), np.random.default_rng([cfg.seed, rep]))
            m = np.bincount(draws, minlength=len(t.games))
            train_w, _ = split_weights(t, m, cfg.ratio)
            affected += bool(m[0] == 0 or not train_w[hit].any())
        assert 0 < affected < cfg.b
        (warning,) = dropped_warnings(caught)
        assert warning.category is RuntimeWarning
        assert warning.filename == __file__
        assert str(warning.message) == (
            f"{DROPPED_CLASSES_WARNING} in {affected} of {cfg.b} bootstrap replicates: hit"
        )

    def test_weekly_path_warns_once(self, rng):
        t = one_hit_game_table(rng)
        cfg = config(b=4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = weekly_path_bootstrap(t, cfg)
        affected = 0
        for week in summary.checkpoints:
            n_games = len({r.game_id for r in rows_of(t) if r.week <= week})
            for rep in range(cfg.b):
                draws = resample_games(range(n_games), np.random.default_rng([cfg.seed, week, rep]))
                affected += bool(0 not in draws)  # g0 is the first game of every checkpoint
        assert affected > 0
        (warning,) = dropped_warnings(caught)
        assert str(warning.message) == (
            f"{DROPPED_CLASSES_WARNING} in {affected} of "
            f"{cfg.b * len(summary.checkpoints)} bootstrap replicates: hit"
        )

    def test_no_dropped_class_no_warning(self, rng):
        t = random_table(rng, n_rows=120, n_games=4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            end_to_end_bootstrap(t, config(b=2, identity_resample=True))
        assert dropped_warnings(caught) == []

    def test_direct_fits_still_warn(self, rng):
        t = one_hit_game_table(rng)
        without_g0 = np.array([r.game_id != "g0" for r in rows_of(t)], dtype=float)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            validate_weighted(t, without_g0, 1.0 - without_g0, lambda_win=0.5, lambda_sev=0.5)
        assert [str(w.message) for w in dropped_warnings(caught)] == [
            f"{DROPPED_CLASSES_WARNING}: hit"
        ]


class TestWeeklyPath:
    def weekly_table(self, rng, n_weeks=4, games_per_week=2, rows_per_game=30):
        rows = []
        g = 0
        for week in range(1, n_weeks + 1):
            for _ in range(games_per_week):
                for e in range(rows_per_game):
                    sev = OutcomeClass(int(rng.integers(0, 4)))
                    rows.append(
                        make_row(
                            game=f"g{g:02d}",
                            play=f"p{e // 5}",
                            idx=e,
                            week=week,
                            rusher=f"R{rng.integers(0, 5)}",
                            blocker=f"B{rng.integers(0, 4)}",
                            double=bool(rng.random() < 0.4),
                            win=bool(rng.random() < 0.3),
                            severity=sev,
                        )
                    )
                g += 1
        return table_of(rows)

    def test_one_checkpoint_per_week(self, rng):
        t = self.weekly_table(rng, n_weeks=4)
        cfg = config(b=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = weekly_path_bootstrap(t, cfg)
        assert summary.checkpoints == (1, 2, 3, 4)
        weeks_seen = {k[3] for k in summary.weekly}
        assert weeks_seen == {1, 2, 3, 4}

    def test_identity_final_checkpoint_equals_full_fit(self, rng):
        t = self.weekly_table(rng, n_weeks=3)
        cfg = config(b=1, identity_resample=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = weekly_path_bootstrap(t, cfg)
        full = fit_win_model(t, 0.5)
        for pid, eff in win_effects(full).rusher_effects.items():
            series = summary.weekly[("win", "rusher", pid, 3)]
            assert series.values[0] == pytest.approx(eff, abs=1e-10)

    def test_band_is_mean_plus_minus_z_sd(self, rng):
        t = self.weekly_table(rng, n_weeks=2)
        cfg = config(b=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = weekly_path_bootstrap(t, cfg)
        for series in summary.weekly.values():
            vals = np.array([v for v in series.values if not math.isnan(v)])
            if vals.size > 1:
                assert series.lo == pytest.approx(vals.mean() - 1.96 * vals.std(ddof=1))
                assert series.hi == pytest.approx(vals.mean() + 1.96 * vals.std(ddof=1))

    def test_player_missing_early_yields_nan_not_zero(self, rng):
        rows = []
        for e in range(40):
            rows.append(
                make_row(
                    game="g1",
                    idx=e,
                    week=1,
                    rusher=f"R{e % 3}",
                    blocker=f"B{e % 2}",
                    win=bool(e % 4 == 0),
                    severity=OutcomeClass(int(e % 4 == 0)),
                )
            )
        for e in range(40):
            rows.append(
                make_row(
                    game="g2",
                    idx=e,
                    week=2,
                    rusher="RLATE" if e % 3 == 0 else f"R{e % 3}",
                    blocker=f"B{e % 2}",
                    win=bool(e % 4 == 1),
                    severity=OutcomeClass(int(e % 4 == 1)),
                )
            )
        t = table_of(rows)
        cfg = config(b=1, identity_resample=True, models=("win",))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = weekly_path_bootstrap(t, cfg)
        early = summary.weekly[("win", "rusher", "RLATE", 1)]
        late = summary.weekly[("win", "rusher", "RLATE", 2)]
        assert math.isnan(early.values[0])
        assert not math.isnan(late.values[0])

    def test_band_width_shrinks_with_exposure(self, rng):
        # stationary abilities: the first checkpoint's band should be at
        # least as wide as the last one's for a median player
        t = self.weekly_table(rng, n_weeks=4, games_per_week=2, rows_per_game=40)
        cfg = config(b=8, models=("win",))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = weekly_path_bootstrap(t, cfg)
        widths_first, widths_last = [], []
        last = summary.checkpoints[-1]
        for pid in t.rushers:
            a = summary.weekly.get(("win", "rusher", pid, 1))
            b = summary.weekly.get(("win", "rusher", pid, last))
            if a and b and not (math.isnan(a.lo) or math.isnan(b.lo)):
                widths_first.append(a.hi - a.lo)
                widths_last.append(b.hi - b.lo)
        assert np.median(widths_first) >= np.median(widths_last)


class TestNothingUnknownTracked:
    """A call that would track nothing, or an unknown player, fails before any fit."""

    @pytest.mark.parametrize("entry, settings", [
        (end_to_end_bootstrap, dict(track_improvements=False, track_ratings=False)),
        (weekly_path_bootstrap, dict(track_ratings=False)),
    ], ids=["end_to_end", "weekly_path"])
    def test_tracking_nothing_is_a_value_error(self, rng, monkeypatch, entry, settings):
        forbid_solves(monkeypatch)
        with pytest.raises(ValueError, match="track"):
            entry(random_table(rng, n_rows=120), config(**settings))

    @pytest.mark.parametrize("entry", [end_to_end_bootstrap, weekly_path_bootstrap],
                             ids=["end_to_end", "weekly_path"])
    @pytest.mark.parametrize("players", [("NOPE",), ("R0", "NOPE", "B1", "ALSO"), ("R0", "")])
    def test_unknown_tracked_player_is_named(self, rng, monkeypatch, entry, players):
        forbid_solves(monkeypatch)
        unknown = ", ".join(map(repr, sorted(set(players) - {"R0", "B1"})))
        with pytest.raises(DataError, match=f"^tracked players not in the table: {unknown}$"):
            entry(random_table(rng, n_rows=120), config(track_players=players))

    @pytest.mark.parametrize("entry", [end_to_end_bootstrap, weekly_path_bootstrap],
                             ids=["end_to_end", "weekly_path"])
    def test_empty_table_is_a_data_error(self, rng, entry):
        empty = random_table(rng).take(slice(0))
        with pytest.raises(DataError, match="bootstrap requires at least one game"):
            entry(empty, config())


def failing_fit_on(monkeypatch, weights):
    """Make the rating fit on exactly ``weights`` raise a FitError."""
    real = boot.fit_coded

    def fit_coded(table, w, *args, **kwargs):
        if np.array_equal(w, weights):
            raise FitError("forced failure")
        return real(table, w, *args, **kwargs)

    monkeypatch.setattr(boot, "fit_coded", fit_coded)


def replicate_weights(table, key, in_play=None):
    """The rating-fit row weights of the replicate drawn from RNG ``key``."""
    in_play = np.ones(len(table), dtype=bool) if in_play is None else in_play
    games = np.unique(table.game[in_play])
    m = np.zeros(len(table.games), dtype=np.intp)
    m[games] = np.bincount(
        resample_games(range(games.size), np.random.default_rng(key)), minlength=games.size
    )
    return (m[table.game] * in_play).astype(float)


def run_both(entry, reference, table, cfg):
    """The summary JSON and the warnings of a call and of its reference."""
    out = []
    for call in (entry, reference):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = call(table, cfg)
        messages = [(str(w.message), w.category) for w in caught]
        out.append((json.dumps(summary_to_json_dict(summary), sort_keys=True), messages,
                    summary))
    return out


def game_across_weeks_table(rng):
    """Five games over five weeks, the second half of g1 a week later."""
    return table_of(
        replace(r, week=r.week + 1) if r.game_id == "g1" and r.event_game_index >= 12 else r
        for r in rows_of(random_table(rng, n_rows=120, n_games=5, n_weeks=5))
    )


class TestOneReplicateLoop:
    """Both bootstraps equal the two loops they replaced (in conftest)."""

    CASES = {
        "plain": (lambda rng: random_table(rng, n_rows=120, n_games=5), {}),
        "dropped_class": (one_hit_game_table, {"b": 8}),
        "track_players": (lambda rng: random_table(rng, n_rows=120, n_games=5),
                          {"track_players": ("R0", "B2", "R3")}),
        "identity": (lambda rng: random_table(rng, n_rows=120, n_games=5),
                     {"b": 2, "identity_resample": True}),
        "win_only": (lambda rng: random_table(rng, n_rows=120, n_games=5),
                     {"models": ("win",), "track_improvements": False}),
        # a checkpoint then holds part of a game: its rows in play are a
        # subset of its resampled games' rows
        "game_across_weeks": (game_across_weeks_table, {}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_end_to_end_equals_reference(self, rng, case):
        make, settings = self.CASES[case]
        (got, got_warned, _), (want, want_warned, _) = run_both(
            end_to_end_bootstrap, reference_end_to_end_bootstrap, make(rng),
            config(**{"b": 4, **settings}),
        )
        assert got == want
        assert got_warned == want_warned
        if case == "dropped_class":
            assert [m for m, _ in got_warned if m.startswith(DROPPED_CLASSES_WARNING)]

    def test_end_to_end_without_ratings_equals_reference(self, rng):
        (got, _, _), (want, _, _) = run_both(
            end_to_end_bootstrap, reference_end_to_end_bootstrap,
            random_table(rng, n_rows=120, n_games=5), config(b=3, track_ratings=False),
        )
        assert got == want

    @pytest.mark.parametrize("case", CASES)
    def test_weekly_path_equals_reference(self, rng, case):
        make, settings = self.CASES[case]
        settings = {k: v for k, v in settings.items() if k != "track_improvements"}
        (got, got_warned, _), (want, want_warned, _) = run_both(
            weekly_path_bootstrap, reference_weekly_path_bootstrap, make(rng),
            config(**{"b": 3, **settings}),
        )
        assert got == want
        assert got_warned == want_warned
        if case == "dropped_class":
            assert [m for m, _ in got_warned if m.startswith(DROPPED_CLASSES_WARNING)]

    def test_weekly_path_skipped_week_equals_reference(self, rng):
        # no game before week 3: two checkpoints are skipped with a warning
        t = table_of(replace(r, week=r.week + 2) for r in rows_of(random_table(rng, n_rows=80)))
        (got, got_warned, summary), (want, want_warned, _) = run_both(
            weekly_path_bootstrap, reference_weekly_path_bootstrap, t, config(b=2),
        )
        assert summary.checkpoints == (3, 4, 5, 6)
        assert got == want
        assert got_warned == want_warned

    def test_end_to_end_failed_replicate_equals_reference(self, rng, monkeypatch):
        # one of 40 replicates fails: under the 5% limit, so it is counted
        t = random_table(rng, n_rows=120, n_games=10)
        cfg = config(b=40, seed=2)
        failing_fit_on(monkeypatch, replicate_weights(t, [cfg.seed, 17]))
        (got, _, summary), (want, _, _) = run_both(
            end_to_end_bootstrap, reference_end_to_end_bootstrap, t, cfg,
        )
        assert summary.n_failed == 1
        assert all(len(s.values) == 39 for s in summary.ratings.values())
        assert got == want

    def test_weekly_failed_checkpoint_equals_reference(self, rng, monkeypatch):
        # B=1 over 20 weekly checkpoints: the one failure removes week 7's
        # series, which exist only where a replicate fit
        t = TestWeeklyPath().weekly_table(rng, n_weeks=20, games_per_week=1, rows_per_game=12)
        cfg = config(b=1, seed=4, models=("win",))
        failing_fit_on(monkeypatch, replicate_weights(t, [cfg.seed, 7, 0], t.week <= 7))
        (got, _, summary), (want, _, _) = run_both(
            weekly_path_bootstrap, reference_weekly_path_bootstrap, t, cfg,
        )
        assert summary.n_failed == 1
        assert {k[3] for k in summary.weekly} == set(range(1, 21)) - {7}
        assert got == want

    @pytest.mark.parametrize("entry, reference", [
        (end_to_end_bootstrap, reference_end_to_end_bootstrap),
        (weekly_path_bootstrap, reference_weekly_path_bootstrap),
    ], ids=["end_to_end", "weekly_path"])
    def test_excess_failures_abort_like_reference(self, rng, entry, reference):
        # an impossible iteration budget fails every replicate
        t = random_table(rng, n_rows=120, n_games=4)
        for call in (entry, reference):
            with pytest.raises(FitError, match="aborting"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    call(t, config(b=4, max_iter=1))

import csv
import math
import warnings

import numpy as np
import pytest

from trenchrank.bootstrap import BootstrapConfig, end_to_end_bootstrap, weekly_path_bootstrap
from trenchrank.errors import DataError
from trenchrank.evaluate import SensitivityRow, ValidationRow, run_validation
from trenchrank.external import RankEvalRow, model_scores
from trenchrank.fit import fit_severity_model, fit_win_model
from trenchrank.report import (
    LEADERBOARD_CSV_HEADER,
    LeaderboardRow,
    RANK_EVAL_CSV_HEADER,
    REPLICATES_CSV_HEADER,
    SENSITIVITY_CSV_HEADER,
    VALIDATION_CSV_HEADER,
    WEEKLY_CSV_HEADER,
    _fmt,
    bands_from_summary,
    leaderboard,
    rank_eval_to_json_dict,
    sensitivity_to_json_dict,
    summary_to_json_dict,
    validate_csv_header,
    validation_to_json_dict,
    write_leaderboard_csv,
    write_rank_eval_csv,
    write_replicates_csv,
    write_sensitivity_csv,
    write_validation_csv,
    write_weekly_csv,
)

from conftest import random_table, rows_of


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFmt:
    def test_four_decimal_default(self):
        assert _fmt(0.123456) == "0.1235"
        assert _fmt(2.0) == "2.0000"

    def test_places_override(self):
        assert _fmt(0.123456, places=2) == "0.12"

    def test_none_and_nan_are_empty(self):
        assert _fmt(None) == ""
        assert _fmt(math.nan) == ""


class TestLeaderboard:
    def test_binary_rows_sorted_by_rating(self, rng):
        t = random_table(rng, n_rows=120)
        fit = fit_win_model(t, 0.5)
        rows = leaderboard(fit, t, min_n=1, top=3)
        rushers = [r for r in rows if r.role == "rusher"]
        blockers = [r for r in rows if r.role == "blocker"]
        assert len(rushers) == 3 and len(blockers) == 3
        assert all(r.model == "win" for r in rows)
        scores = model_scores(fit, "rusher")
        want = sorted(scores.items(), key=lambda pr: (-pr[1], pr[0]))[:3]
        assert [(r.player_id, r.rating) for r in rushers] == want

    def test_counts_are_role_specific(self, rng):
        t = random_table(rng, n_rows=120)
        fit = fit_win_model(t, 0.5)
        rows = leaderboard(fit, t, min_n=1, top=100)
        counts = {}
        for r in rows_of(t):
            counts[("rusher", r.rusher_id)] = counts.get(("rusher", r.rusher_id), 0) + 1
            counts[("blocker", r.blocker_id)] = counts.get(("blocker", r.blocker_id), 0) + 1
        for row in rows:
            assert row.n == counts[(row.role, row.player_id)]

    def test_min_n_filters(self, rng):
        t = random_table(rng, n_rows=120)
        fit = fit_win_model(t, 0.5)
        threshold = max(
            sum(1 for r in rows_of(t) if r.rusher_id == pid) for pid in t.rushers
        )
        rows = leaderboard(fit, t, min_n=threshold + 1, top=10)
        assert [r for r in rows if r.role == "rusher"] == []

    def test_severity_model_uses_weighted_scores(self, rng):
        t = random_table(rng, n_rows=150)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = fit_severity_model(t, 0.5)
        rows = leaderboard(fit, t, min_n=1, top=2)
        assert all(r.model == "severity" for r in rows)
        scores = model_scores(fit, "rusher")
        top = sorted(scores.items(), key=lambda pr: (-pr[1], pr[0]))[0]
        assert (rows[0].player_id, rows[0].rating) == top

    def test_bands_attached_when_available(self, rng):
        t = random_table(rng, n_rows=120)
        fit = fit_win_model(t, 0.5)
        pid = t.rushers[0]
        bands = {("win", "rusher", pid): (-0.4, 0.9)}
        rows = leaderboard(fit, t, min_n=1, top=100, bands=bands)
        row = next(r for r in rows if r.role == "rusher" and r.player_id == pid)
        assert (row.lo, row.hi) == (-0.4, 0.9)
        others = [r for r in rows if r.player_id != pid or r.role != "rusher"]
        assert all(r.lo is None and r.hi is None for r in others)

    @pytest.mark.parametrize("min_n", [1, 30])
    @pytest.mark.parametrize("model", ["win", "severity"])
    def test_equals_dict_path(self, rng, model, min_n):
        # the rows equal a ranking of ``model_scores`` by player id, with
        # counts from a loop over the rows; the fit lacks a rusher of the
        # table and the table a rusher of the fit
        t = random_table(rng, n_rows=150)
        fitted = t.take(t.rusher != 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = (fit_win_model if model == "win" else fit_severity_model)(fitted, 0.5)
        t = t.take(t.rusher != 2)
        counts = {}
        for r in rows_of(t):
            for key in (("rusher", r.rusher_id), ("blocker", r.blocker_id)):
                counts[key] = counts.get(key, 0) + 1
        want = []
        for role in ("rusher", "blocker"):
            eligible = [(pid, rating) for pid, rating in model_scores(fit, role).items()
                        if counts.get((role, pid), 0) >= min_n]
            eligible.sort(key=lambda pr: (-pr[1], pr[0]))
            want += [LeaderboardRow(model, role, pid, rating, counts[(role, pid)])
                     for pid, rating in eligible[:4]]
        got = leaderboard(fit, t, min_n=min_n, top=4)
        assert got == want
        assert all(type(row.rating) is float and type(row.n) is int for row in got)


SAMPLE_VALIDATION = [
    ValidationRow("win", "global", 0.52, 0.60, 0.08),
    ValidationRow("win", "matchup", 0.52, 0.55, 0.03),
    ValidationRow("severity", "global", 0.70, 0.75, 0.05),
    ValidationRow("severity", "matchup", 0.70, 0.72, 0.02),
]


class TestCsvWriters:
    def test_validation_layout(self, tmp_path):
        path = tmp_path / "validation.csv"
        write_validation_csv(SAMPLE_VALIDATION, path)
        validate_csv_header(path, VALIDATION_CSV_HEADER)
        rows = read_rows(path)
        assert rows[1] == ["win", "global", "0.5200", "0.6000", "0.0800", "", ""]
        assert len(rows) == 5

    def test_validation_with_intervals(self, tmp_path):
        path = tmp_path / "validation.csv"
        ci = {("win", "global"): (0.01, 0.15)}
        write_validation_csv(SAMPLE_VALIDATION, path, ci=ci)
        rows = read_rows(path)
        assert rows[1][5:] == ["0.0100", "0.1500"]
        assert rows[2][5:] == ["", ""]

    def test_sensitivity_layout(self, tmp_path):
        path = tmp_path / "sensitivity.csv"
        write_sensitivity_csv(
            [SensitivityRow("win", 25.0, 0.5, 0.55, 0.05)], path
        )
        validate_csv_header(path, SENSITIVITY_CSV_HEADER)
        rows = read_rows(path)
        assert rows[1] == ["win", "25", "0.5000", "0.5500", "0.0500"]

    def test_rank_eval_layout(self, tmp_path):
        path = tmp_path / "rank.csv"
        row = RankEvalRow("win", "rusher", "first", 8, 0.9, 0.8, 0.1, 2.5, 2.0, 0.5)
        write_rank_eval_csv([row], path)
        validate_csv_header(path, RANK_EVAL_CSV_HEADER)
        rows = read_rows(path)
        assert rows[1][:3] == ["win", "rusher", "8"]
        assert rows[1][3:] == ["0.9000", "0.8000", "0.1000", "2.5000", "2.0000", "0.5000"]

    def test_rank_eval_rejects_mixed_slices(self, tmp_path):
        rows = [
            RankEvalRow("win", "rusher", "first", 8, 0.9, 0.8, 0.1, 2.5, 2.0, 0.5),
            RankEvalRow("win", "rusher", "first_second", 16, 0.9, 0.8, 0.1, 2.5, 2.0, 0.5),
        ]
        with pytest.raises(DataError, match="one accolade slice"):
            write_rank_eval_csv(rows, tmp_path / "rank.csv")

    def test_leaderboard_layout(self, tmp_path):
        path = tmp_path / "leaderboard.csv"
        write_leaderboard_csv(
            [LeaderboardRow("win", "rusher", "R1", 0.82, 301, None, None)], path
        )
        validate_csv_header(path, LEADERBOARD_CSV_HEADER)
        rows = read_rows(path)
        assert rows[1] == ["win", "rusher", "R1", "0.8200", "301", "", ""]

    def test_header_validator_rejects_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="declared schema"):
            validate_csv_header(path, VALIDATION_CSV_HEADER)


@pytest.fixture(scope="module")
def small_summary():
    rng_table = random_table(np.random.default_rng(7), n_rows=120, n_games=4)
    cfg = BootstrapConfig(b=3, seed=1, lambda_win=0.5, lambda_sev=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return end_to_end_bootstrap(rng_table, cfg)


@pytest.fixture(scope="module")
def weekly_summary():
    rng_table = random_table(np.random.default_rng(7), n_rows=120, n_games=4)
    cfg = BootstrapConfig(
        b=2,
        seed=1,
        lambda_win=0.5,
        lambda_sev=0.5,
        models=("win",),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return weekly_path_bootstrap(rng_table, cfg)


class TestSummaryExports:
    def test_weekly_csv_layout(self, tmp_path, weekly_summary):
        path = tmp_path / "weekly.csv"
        write_weekly_csv(weekly_summary, path)
        validate_csv_header(path, WEEKLY_CSV_HEADER)
        rows = read_rows(path)
        assert len(rows) == 1 + len(weekly_summary.weekly)
        weeks = sorted({int(r[3]) for r in rows[1:]})
        assert weeks == list(weekly_summary.checkpoints)

    def test_replicates_csv_round_trips_values(self, tmp_path, small_summary):
        path = tmp_path / "replicates.csv"
        write_replicates_csv(small_summary, path)
        validate_csv_header(path, REPLICATES_CSV_HEADER)
        rows = read_rows(path)[1:]
        key = ("win", "global")
        qid = "improvement:win:global"
        got = [float(r[2]) for r in rows if r[1] == qid and r[2] != ""]
        want = [v for v in small_summary.improvements[key].values if not math.isnan(v)]
        assert got == want  # repr() preserves doubles exactly

    def test_bands_from_summary_keys(self, small_summary):
        bands = bands_from_summary(small_summary)
        assert set(bands) == set(small_summary.ratings)
        for key, (lo, hi) in bands.items():
            series = small_summary.ratings[key]
            assert (lo, hi) == (series.lo, series.hi)

    def test_summary_json_replaces_nan_with_none(self, weekly_summary):
        payload = summary_to_json_dict(weekly_summary)
        assert payload["mode"] == "weekly_path"
        assert payload["checkpoints"] == list(weekly_summary.checkpoints)
        for series in payload["weekly"].values():
            for v in series["values"]:
                assert v is None or isinstance(v, float)

    def test_summary_json_key_format(self, small_summary):
        payload = summary_to_json_dict(small_summary)
        assert all(k.count(":") == 1 for k in payload["improvements"])
        assert all(k.count(":") == 2 for k in payload["ratings"])


class TestJsonDicts:
    def test_validation_json_includes_fits_and_ci(self, rng):
        t = random_table(rng, n_rows=120, n_games=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = run_validation(t, lambda_win=0.5, lambda_sev=0.5)
        ci = {("win", "global"): (0.0, 0.1)}
        payload = validation_to_json_dict(report, ci=ci)
        assert payload["lambda_win"] == 0.5
        assert payload["n_train"] == report.n_train
        assert {"win_fit", "severity_fit", "win_baseline", "severity_baseline"} <= set(payload)
        first = payload["rows"][0]
        assert (first["task"], first["baseline"]) == ("win", "global")
        assert (first["ci_lo"], first["ci_hi"]) == (0.0, 0.1)
        assert "ci_lo" not in payload["rows"][1]

    def test_row_collections_export_all_fields(self):
        sens = sensitivity_to_json_dict([SensitivityRow("win", 25.0, 0.5, 0.55, 0.05)])
        assert sens["rows"][0]["m"] == 25.0
        rank = rank_eval_to_json_dict(
            [RankEvalRow("win", "rusher", "first", 8, 0.9, 0.8, 0.1, 2.5, 2.0, 0.5)]
        )
        assert rank["rows"][0]["accolade"] == "first"

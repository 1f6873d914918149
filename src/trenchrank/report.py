"""Leaderboards and file exports for every pipeline artifact.

CSV layouts mirror the report tables (validation, sensitivity, rank
evaluation, leaderboard, weekly path); JSON exports carry full
precision.  CSV numeric cells are fixed to four decimals; missing
values are empty cells.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .baselines import severity_baseline_to_json_dict, win_baseline_to_json_dict
from .bootstrap import (
    IMPROVEMENT_LEVELS,
    RATING_LEVELS,
    WEEKLY_Z,
    BootstrapSummary,
)
from .errors import DataError
from .evaluate import SensitivityRow, ValidationReport, ValidationRow
from .external import ROLES, RankEvalRow, role_ratings, role_sums, role_vocab
from .fit import Fit, fit_to_json_dict, gather
from .interactions import InteractionTable, SeverityWeights

VALIDATION_CSV_HEADER = [
    "task", "baseline", "model_logloss", "baseline_logloss", "improvement", "ci_lo", "ci_hi",
]
SENSITIVITY_CSV_HEADER = ["task", "m", "model_logloss", "baseline_logloss", "improvement"]
RANK_EVAL_CSV_HEADER = [
    "task", "role", "K", "auc", "base_auc", "delta_auc", "enrich", "base_enrich", "delta_enrich",
]
LEADERBOARD_CSV_HEADER = ["model", "role", "player_id", "rating", "n", "lo", "hi"]
WEEKLY_CSV_HEADER = ["model", "role", "player_id", "week", "mean", "sd", "lo", "hi"]
REPLICATES_CSV_HEADER = ["replicate", "quantity_id", "value"]

DEFAULT_MIN_INTERACTIONS = 200
DEFAULT_TOP = 10


@dataclass(frozen=True)
class LeaderboardRow:
    model: str
    role: str
    player_id: str
    rating: float
    n: int
    lo: float | None = None
    hi: float | None = None


def _fmt(value, places: int = 4) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return f"{value:.{places}f}"


def bands_from_summary(
    summary: BootstrapSummary,
) -> dict[tuple[str, str, str], tuple[float, float]]:
    """Rating bands keyed by (model, role, player_id)."""
    return {key: (series.lo, series.hi) for key, series in summary.ratings.items()}


def leaderboard(
    fit: Fit,
    table: InteractionTable,
    min_n: int = DEFAULT_MIN_INTERACTIONS,
    top: int = DEFAULT_TOP,
    bands: Mapping[tuple[str, str, str], tuple[float, float]] | None = None,
    weights: SeverityWeights | None = None,
) -> list[LeaderboardRow]:
    """Top players by rating for both roles of one fitted model.

    Players need at least ``min_n`` interactions in the role; ties are
    broken by player id.
    """
    model = fit.model
    bands = {} if bands is None else bands
    rows: list[LeaderboardRow] = []
    for role in ROLES:
        ids, ratings = role_ratings(fit, role, weights)
        counts = gather(np.array(role_vocab(table, role)[0], dtype=object), role_sums(table, role),
                        np.array(ids, dtype=object), 0).tolist()
        ratings = ratings.tolist()
        eligible = sorted((i for i, n in enumerate(counts) if n >= min_n),
                          key=lambda i: (-ratings[i], ids[i]))
        rows += [
            LeaderboardRow(model, role, ids[i], ratings[i], counts[i],
                           *bands.get((model, role, ids[i]), (None, None)))
            for i in eligible[:top]
        ]
    return rows


# ---------------------------------------------------------------------------
# CSV writers


def _write_csv(path, header: Sequence[str], records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(records)


def write_validation_csv(
    rows: Sequence[ValidationRow],
    path,
    ci: Mapping[tuple[str, str], tuple[float, float]] | None = None,
) -> None:
    ci = {} if ci is None else ci
    _write_csv(path, VALIDATION_CSV_HEADER, (
        [row.task, row.baseline, _fmt(row.model_logloss), _fmt(row.baseline_logloss),
         _fmt(row.improvement), *map(_fmt, ci.get((row.task, row.baseline), (None, None)))]
        for row in rows
    ))


def write_sensitivity_csv(rows: Sequence[SensitivityRow], path) -> None:
    _write_csv(path, SENSITIVITY_CSV_HEADER, (
        [row.task, f"{row.m:g}", _fmt(row.model_logloss), _fmt(row.baseline_logloss),
         _fmt(row.improvement)]
        for row in rows
    ))


def write_rank_eval_csv(rows: Sequence[RankEvalRow], path) -> None:
    """One accolade slice per file, mirroring the two report tables."""
    slices = {row.accolade for row in rows}
    if len(slices) > 1:
        raise DataError(
            f"rank-eval CSV holds one accolade slice per file, got {sorted(slices)}"
        )
    _write_csv(path, RANK_EVAL_CSV_HEADER, (
        [row.task, row.role, row.k, _fmt(row.auc), _fmt(row.base_auc), _fmt(row.delta_auc),
         _fmt(row.enrichment), _fmt(row.base_enrichment), _fmt(row.delta_enrichment)]
        for row in rows
    ))


def write_leaderboard_csv(rows: Sequence[LeaderboardRow], path) -> None:
    _write_csv(path, LEADERBOARD_CSV_HEADER, (
        [row.model, row.role, row.player_id, _fmt(row.rating), row.n, _fmt(row.lo), _fmt(row.hi)]
        for row in rows
    ))


def write_weekly_csv(summary: BootstrapSummary, path) -> None:
    _write_csv(path, WEEKLY_CSV_HEADER, (
        [*key, *map(_fmt, (series.mean, series.sd, series.lo, series.hi))]
        for key, series in sorted(summary.weekly.items())
    ))


def write_replicates_csv(summary: BootstrapSummary, path) -> None:
    """Replicate-level audit stream: one row per (replicate, quantity)."""
    groups = (("improvement", summary.improvements), ("rating", summary.ratings),
              ("weekly", summary.weekly))
    _write_csv(path, REPLICATES_CSV_HEADER, (
        [rep, ":".join(map(str, (kind, *key))), "" if math.isnan(value) else repr(value)]
        for kind, tracked in groups
        for key, series in sorted(tracked.items())
        for rep, value in enumerate(series.values)
    ))


def validate_csv_header(path, expected: Sequence[str]) -> None:
    """Assert a written file starts with its declared header."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header != list(expected):
        raise DataError(f"{path}: header {header} does not match declared schema {list(expected)}")


# ---------------------------------------------------------------------------
# JSON exports (full precision)


def validation_to_json_dict(
    report: ValidationReport,
    ci: Mapping[tuple[str, str], tuple[float, float]] | None = None,
) -> dict:
    rows = []
    for row in report.rows:
        rec = asdict(row)
        if ci is not None and (row.task, row.baseline) in ci:
            rec["ci_lo"], rec["ci_hi"] = ci[(row.task, row.baseline)]
        rows.append(rec)
    return {
        "rows": rows,
        "lambda_win": report.lambda_win,
        "lambda_sev": report.lambda_sev,
        "n_train": report.n_train,
        "n_test": report.n_test,
        "win_fit": fit_to_json_dict(report.win_fit),
        "severity_fit": fit_to_json_dict(report.severity_fit),
        "win_baseline": win_baseline_to_json_dict(report.win_baseline),
        "severity_baseline": severity_baseline_to_json_dict(report.severity_baseline),
    }


def sensitivity_to_json_dict(rows: Sequence[SensitivityRow]) -> dict:
    return {"rows": [asdict(row) for row in rows]}


def rank_eval_to_json_dict(rows: Sequence[RankEvalRow]) -> dict:
    return {"rows": [asdict(row) for row in rows]}


def summary_to_json_dict(summary: BootstrapSummary) -> dict:
    def series_dict(series) -> dict:
        return {
            "values": [None if math.isnan(v) else v for v in series.values],
            "mean": None if math.isnan(series.mean) else series.mean,
            "sd": None if math.isnan(series.sd) else series.sd,
            "lo": None if math.isnan(series.lo) else series.lo,
            "hi": None if math.isnan(series.hi) else series.hi,
        }

    return {
        "mode": summary.mode,
        "b": summary.b,
        "n_failed": summary.n_failed,
        "levels": {
            "improvements_percentiles": list(IMPROVEMENT_LEVELS),
            "ratings_percentiles": list(RATING_LEVELS),
            "weekly_band": f"mean +/- {WEEKLY_Z} sd",
        },
        "improvements": {
            f"{task}:{baseline}": series_dict(series)
            for (task, baseline), series in sorted(summary.improvements.items())
        },
        "ratings": {
            f"{model}:{role}:{pid}": series_dict(series)
            for (model, role, pid), series in sorted(summary.ratings.items())
        },
        "weekly": {
            f"{model}:{role}:{pid}:{week}": series_dict(series)
            for (model, role, pid, week), series in sorted(summary.weekly.items())
        },
        "checkpoints": list(summary.checkpoints),
    }

"""External rank validation against accolade labels.

Ratings from the fitted models are checked against season-honor labels
(first-team / second-team) with two metrics: tie-aware Mann-Whitney
rank AUC and enrichment@K (precision among the top K divided by the
positive base rate, K = number of positives in the slice).  Each model
is compared against a task-matched raw baseline: empirical win rate for
the win task and empirical severity value for the severity task.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .fit import Fit, gather
from .interactions import (
    CLASSES,
    InteractionTable,
    SeverityWeights,
    _check_new,
    _read_blocks,
    _text_column,
    default_severity_weights,
)

ROLES = ("rusher", "blocker")
ACCOLADE_SLICES = ("first", "first_second")
ACCOLADE_CSV_HEADER = ["player_id", "team_level"]
_TEAM_LEVELS = ("first", "second")


@dataclass(frozen=True)
class RankEvalRow:
    """Model-vs-baseline ranking comparison for one (task, role, slice)."""

    task: str
    role: str
    accolade: str
    k: int
    auc: float
    base_auc: float
    delta_auc: float
    enrichment: float
    base_enrichment: float
    delta_enrichment: float


def _level_column(texts: Sequence[str], field: str) -> Sequence[str]:
    """The texts, each one of ``_TEAM_LEVELS``."""
    if not set(_TEAM_LEVELS).issuperset(texts):
        bad = next(text for text in texts if text not in _TEAM_LEVELS)
        raise DataError(f"{field} must be one of {_TEAM_LEVELS}, got {bad!r}")
    return texts


def read_accolades_csv(path) -> dict[str, str]:
    """Load per-player accolade levels; players absent have no accolade."""
    labels: dict[str, str] = {}
    for fields, _ in _read_blocks(
        path, dict(zip(ACCOLADE_CSV_HEADER, (_text_column, _level_column))),
        lambda fields: _check_new(fields["player_id"], labels, "player_id"),
        bad_header="bad accolade header in {path}: expected {want}, got {got}",
        bad_width="expected {width} fields, got {got}",
    ):
        labels.update(zip(fields["player_id"], fields["team_level"]))
    return labels


def rank_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Tie-aware Mann-Whitney AUC by explicit pair counting."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise DataError(f"length mismatch: {s.shape} scores vs {y.shape} labels")
    pos = s[y]
    neg = s[~y]
    if pos.size == 0 or neg.size == 0:
        raise DataError(
            f"rank_auc needs both label values; got {pos.size} positives, {neg.size} negatives"
        )
    diff = pos[:, None] - neg[None, :]
    wins = np.count_nonzero(diff > 0)
    ties = np.count_nonzero(diff == 0)
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def enrichment_at_k(
    scores: Sequence[float],
    labels: Sequence[bool],
    k: int,
    *,
    ids: Sequence[str] | None = None,
) -> float:
    """Precision among the top k divided by the positive base rate.

    Boundary ties are broken deterministically by (score descending,
    player id ascending); with no ids given, position stands in for id.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    n = s.size
    if s.shape != y.shape:
        raise DataError(f"length mismatch: {s.shape} scores vs {y.shape} labels")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise DataError("enrichment_at_k needs at least one positive label")
    keys = list(range(n)) if ids is None else list(ids)
    order = sorted(range(n), key=lambda i: (-s[i], keys[i]))
    hits = int(y[order[:k]].sum())
    return (hits * n) / (k * n_pos)


def role_vocab(table: InteractionTable, role: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted ids of ``role``'s players in a table and each row's code
    into them."""
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")
    if role == "rusher":
        return table.rushers, table.rusher
    return table.blockers, table.blocker


def role_sums(
    table: InteractionTable, role: str, values: np.ndarray | None = None
) -> np.ndarray:
    """Each player's row count in ``role``, or with ``values`` (one per
    row) their per-player sum, over ``role_vocab``'s ids.

    ``np.bincount`` adds the values in row order, so a sum has the bits
    of a sequential loop over the rows.
    """
    ids, codes = role_vocab(table, role)
    return np.bincount(codes, weights=values, minlength=len(ids))


def raw_baseline_scores(
    table: InteractionTable,
    task: str,
    role: str,
    weights: SeverityWeights | None = None,
) -> np.ndarray:
    """Per-player empirical scores over ``role_vocab``'s ids, oriented so
    higher is better.

    Win task: rushers score by win rate, blockers by the rate at which
    they stop the rusher.  Severity task: the severity weight of each
    observed outcome replaces the win indicator.
    """
    if task not in ("win", "severity"):
        raise ValueError(f"task must be 'win' or 'severity', got {task!r}")
    w = default_severity_weights() if weights is None else weights
    if task == "win":
        values = table.win
    else:
        values = np.array([w.weight(c) for c in CLASSES])[table.severity]
    if role == "blocker":
        values = 1.0 - values
    return role_sums(table, role, values) / role_sums(table, role)


def role_ratings(
    fit: Fit, role: str, weights: SeverityWeights | None = None
) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids of ``role``'s players in a fit and their ratings: the
    class effects weighted by ``(1.0,)`` for the win model and by the
    severity weights of ``fit.classes`` otherwise, summed class by class
    in that order."""
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")
    if fit.model == "win":
        class_weights = (1.0,)
    else:
        w = default_severity_weights() if weights is None else weights
        class_weights = tuple(map(w.weight, fit.classes))
    ids, effects = fit.effects(role)
    ratings = np.zeros(len(ids))
    for wc, row in zip(class_weights, effects):
        ratings += wc * row
    return ids, ratings


def model_scores(
    fit: Fit,
    role: str,
    weights: SeverityWeights | None = None,
) -> dict[str, float]:
    """Per-player ratings from a fit by player id: raw effects for the win
    model, severity-weighted effect sums for the severity model."""
    ids, ratings = role_ratings(fit, role, weights)
    return dict(zip(ids, ratings.tolist()))


def _slice_positive(level: str | None, accolade: str) -> bool:
    if accolade == "first":
        return level == "first"
    if accolade == "first_second":
        return level in ("first", "second")
    raise ValueError(f"unknown accolade slice {accolade!r}")


def run_external_eval(
    win_fit: Fit,
    severity_fit: Fit,
    table: InteractionTable,
    accolades: Mapping[str, str],
    slices: Sequence[str] = ACCOLADE_SLICES,
    weights: SeverityWeights | None = None,
    min_n: int = 0,
) -> list[RankEvalRow]:
    """Rank AUC and enrichment@K per (accolade slice, task, role).

    Role membership requires at least one interaction in that role
    (``min_n`` raises the bar); accolade players with no qualifying
    interactions are excluded with a warning.  Each fit must be its
    task's model (a ValueError otherwise).
    """
    fits = {"win": win_fit, "severity": severity_fit}
    for task, fit in fits.items():
        if fit.model != task:
            raise ValueError(f"{task}_fit must be a {task!r} fit, got a {fit.model!r} fit")
    qualifies = {role: role_sums(table, role) >= max(1, min_n) for role in ROLES}
    role_players = {
        role: np.array(role_vocab(table, role)[0], dtype=object)[qualifies[role]]
        for role in ROLES
    }
    rated = set(role_players["rusher"]) | set(role_players["blocker"])
    missing = sorted(set(accolades) - rated)
    if missing:
        warnings.warn(
            f"{len(missing)} accolade players have no qualifying interactions "
            f"and were excluded: {', '.join(missing[:5])}"
            + ("..." if len(missing) > 5 else ""),
            RuntimeWarning,
            stacklevel=2,
        )

    # per-player scores do not depend on the accolade slice; a player
    # the fit lacks rates 0
    scores = {}
    for task, fit in fits.items():
        for role in ROLES:
            ids, ratings = role_ratings(fit, role, weights)
            scores[(task, role)] = (
                gather(np.array(ids, dtype=object), ratings, role_players[role], 0.0),
                raw_baseline_scores(table, task, role, weights)[qualifies[role]],
            )
    rows: list[RankEvalRow] = []
    for accolade in slices:
        for task in ("win", "severity"):
            for role in ROLES:
                players = role_players[role]
                m_scores, b_scores = scores[(task, role)]
                labels = [_slice_positive(accolades.get(p), accolade) for p in players]
                k = sum(labels)
                if k == 0:
                    raise DataError(
                        f"no {accolade!r} accolade positives among {role}s; "
                        "cannot evaluate this slice"
                    )
                auc = rank_auc(m_scores, labels)
                base_auc = rank_auc(b_scores, labels)
                enr = enrichment_at_k(m_scores, labels, k, ids=players)
                base_enr = enrichment_at_k(b_scores, labels, k, ids=players)
                rows.append(
                    RankEvalRow(
                        task=task,
                        role=role,
                        accolade=accolade,
                        k=k,
                        auc=auc,
                        base_auc=base_auc,
                        delta_auc=auc - base_auc,
                        enrichment=enr,
                        base_enrichment=base_enr,
                        delta_enrichment=enr - base_enr,
                    )
                )
    return rows

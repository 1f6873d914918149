"""Smoothed matchup baselines for win and severity prediction.

Four non-latent reference predictors: a global win rate, a per-matchup
win rate built from smoothed per-player rates combined on the logit
scale, global class frequencies, and a per-matchup class distribution
built from smoothed per-player class profiles combined on the
multinomial-logit scale with loss as the reference class.

Per-player quantities are shrunk toward the global value with prior
strength ``m``:

    smoothed = (n * observed + m * global) / (n + m)

A player with no training rows (n = 0) gets the global value exactly.
Fits count rows through ``np.bincount`` over the table's code columns,
with row i counted ``weights[i]`` times (default once).  None of the
baselines reads the double-team flag.
Degenerate rates (exactly 0 or 1) are preserved; clipping for log loss
belongs to the evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError
from .fit import _inv_logit, _row_weights, gather
from .interactions import CLASSES, InteractionTable, OutcomeClass

DEFAULT_WIN_PRIOR = 25.0
DEFAULT_SEVERITY_PRIOR = 50.0


@dataclass(frozen=True, eq=False)
class Baseline:
    """A fitted win or severity matchup baseline.

    ``global_value`` (read-only) is the global win rate, shape (1,), for
    the win task and the global class frequencies in severity order,
    shape (4,), for the severity task.  ``rushers`` and ``blockers`` are
    the sorted ids of the players with positive train weight; ``counts``
    holds their weighted row counts and ``values`` (one row per entry of
    ``global_value``) their smoothed rates or class profiles, rushers
    first, both read-only.  Rates on both sides are rates of rusher wins:
    a blocker's rate is the win rate of the rushers facing that blocker.
    ``==`` compares every field, the arrays exactly.
    """

    task: str
    m: float
    global_value: np.ndarray
    rushers: tuple[str, ...]
    blockers: tuple[str, ...]
    counts: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("global_value", "counts", "values"):
            array = np.array(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other) -> bool:
        if type(other) is not Baseline:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def side(self, role: str) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """The ids of ``role``'s players ("rusher" or "blocker"), their
        counts and their (C, n) smoothed values."""
        split = len(self.rushers)
        if role == "rusher":
            return self.rushers, self.counts[:split], self.values[:, :split]
        return self.blockers, self.counts[split:], self.values[:, split:]


def _smoothed(n: np.ndarray, sums: np.ndarray, m: float, global_value) -> np.ndarray:
    """Observed rates or class profiles shrunk toward the global value,
    for players with n > 0."""
    return (n * (sums / n) + m * global_value) / (n + m)


def check_prior_strength(m: float) -> None:
    """A prior strength must be finite and >= 0 (NaN is neither)."""
    if not 0 <= m < math.inf:
        raise ValueError(f"prior strength must be finite and >= 0, got {m}")


def _fit_weights(table: InteractionTable, weights, m: float, what: str) -> np.ndarray:
    """Row weights checked as a fit's are (all ones if None), and the
    prior strength."""
    if len(table) == 0:
        raise DataError(f"cannot fit a {what} baseline on an empty table")
    weights = _row_weights(weights, len(table))
    check_prior_strength(m)
    return weights


def _fit(table: InteractionTable, weights, m: float, task: str) -> Baseline:
    """The one baseline fit: the win task counts wins per player, the
    severity task counts each class per player."""
    weights = _fit_weights(table, weights, m, task)
    k = len(CLASSES)
    if task == "win":
        global_value = np.array([np.sum(weights * table.win) / np.sum(weights)])
    else:
        global_value = np.bincount(table.severity, weights=weights, minlength=k) / np.sum(weights)

    ids, counts, values = [], [], []
    for codes, vocab in ((table.rusher, table.rushers), (table.blocker, table.blockers)):
        # per-player outcome sums, one column per entry of global_value
        if task == "win":
            n = np.bincount(codes, weights=weights, minlength=len(vocab))
            sums = np.bincount(codes, weights=weights * table.win, minlength=len(vocab))[:, None]
        else:
            sums = np.bincount(
                codes * k + table.severity, weights=weights, minlength=len(vocab) * k
            ).reshape(len(vocab), k)
            n = sums.sum(axis=1)
        seen = np.flatnonzero(n > 0)
        ids.append(tuple(vocab[i] for i in seen.tolist()))
        counts.append(n[seen])
        values.append(_smoothed(n[seen, None], sums[seen], m, global_value).T)
    return Baseline(task, float(m), global_value, *ids, np.concatenate(counts),
                    np.concatenate(values, axis=1))


def fit_win_baseline(
    table: InteractionTable, m: float = DEFAULT_WIN_PRIOR, weights=None
) -> Baseline:
    """Win baseline with row i counted ``weights[i]`` times (default once).

    Players whose rows all have zero weight get no entry, so predictions
    fall back to the global rate for them.
    """
    return _fit(table, weights, m, "win")


def fit_severity_baseline(
    table: InteractionTable, m: float = DEFAULT_SEVERITY_PRIOR, weights=None
) -> Baseline:
    """Severity baseline with row i counted ``weights[i]`` times (default once).

    Players whose rows all have zero weight get no entry, so predictions
    fall back to the global profile for them.
    """
    return _fit(table, weights, m, "severity")


def _check_task(bl: Baseline, task: str) -> None:
    if bl.task != task:
        raise ValueError(f"expected a {task!r} baseline, got a {bl.task!r} baseline")


def _on_vocab(bl: Baseline, table: InteractionTable, role: str) -> np.ndarray:
    """The (C, n) smoothed values of ``role``'s players in ``table``, in
    vocabulary order; the global value for a player the baseline lacks."""
    ids, _, values = bl.side(role)
    wanted = table.rushers if role == "rusher" else table.blockers
    return gather(np.array(ids, dtype=object), values, np.array(wanted, dtype=object),
                  bl.global_value[:, None])


def predict_win_matchups(bl: Baseline, table: InteractionTable) -> np.ndarray:
    """Win probability of every row of a table: the inverse logit of the
    mean logit of the two smoothed rates.

    A player unseen in the relevant role contributes the global rate.
    """
    _check_task(bl, "win")
    p_r, p_b = (_on_vocab(bl, table, role)[0] for role in ("rusher", "blocker"))
    with np.errstate(divide="ignore"):
        logit_r = np.log(p_r) - np.log1p(-p_r)
        logit_b = np.log(p_b) - np.log1p(-p_b)
    return _inv_logit(0.5 * (logit_r[table.rusher] + logit_b[table.blocker]))


def predict_severity_matchups(bl: Baseline, table: InteractionTable) -> np.ndarray:
    """(n, 4) class probabilities of every row of a table: the softmax of
    the per-class log-odds averaged across the two sides.

    Each side contributes eta_c = log(profile_c / profile_loss); the loss
    entry is pinned at 0 and an unseen side falls back to the global
    profile.
    """
    _check_task(bl, "severity")
    loss_i = int(OutcomeClass.LOSS)

    def log_odds(role):
        prof = _on_vocab(bl, table, role).T
        if np.any(prof[:, loss_i] == 0.0):
            raise DataError(
                "severity matchup log-odds undefined: a smoothed profile has a zero "
                "loss component (possible only at m=0 or a degenerate global profile)"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(prof / prof[:, loss_i : loss_i + 1])

    eta = 0.5 * (log_odds("rusher")[table.rusher] + log_odds("blocker")[table.blocker])
    eta[:, loss_i] = 0.0
    eta -= eta.max(axis=1, keepdims=True)
    weights = np.exp(eta)
    return weights / weights.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# JSON export


def _to_json_dict(bl: Baseline, task: str, keys: tuple[str, str, str]) -> dict:
    """A baseline keyed by player id: its global value under ``keys[0]``
    and each side's ``[n, value]`` pairs under ``keys[1:]``."""
    _check_task(bl, task)
    # the win task's values are one rate, the severity task's a profile
    value = (lambda v: v[0]) if task == "win" else (lambda v: v)
    out = {"kind": task, keys[0]: value(bl.global_value.tolist()), "m": bl.m}
    for role, key in zip(("rusher", "blocker"), keys[1:]):
        ids, counts, values = bl.side(role)
        # a weighted count need not be integral
        out[key] = {pid: [int(n) if n.is_integer() else n, value(v)]
                    for pid, n, v in zip(ids, counts.tolist(), values.T.tolist())}
    return out


def win_baseline_to_json_dict(bl: Baseline) -> dict:
    return _to_json_dict(bl, "win", ("p_global", "rusher_rates", "blocker_rates"))


def severity_baseline_to_json_dict(bl: Baseline) -> dict:
    return _to_json_dict(bl, "severity", ("pi_global", "rusher_profiles", "blocker_profiles"))

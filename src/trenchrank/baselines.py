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
Fits count rows through ``np.bincount`` over a coded table, optionally
with row weights (``fit_win_baseline_coded``); the table fits are the
all-ones case.  None of the baselines reads the double-team flag.
Degenerate rates (exactly 0 or 1) are preserved; clipping for log loss
belongs to the evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .interactions import CLASSES, CodedTable, InteractionTable, OutcomeClass

DEFAULT_WIN_PRIOR = 25.0
DEFAULT_SEVERITY_PRIOR = 50.0


@dataclass(frozen=True)
class WinBaseline:
    """Global win rate plus smoothed per-player win rates.

    Rates on both sides are rates of rusher wins: a blocker's rate is
    the win rate of the rushers facing that blocker.
    """

    p_global: float
    m: float
    rusher_rates: dict[str, tuple[int, float]]
    blocker_rates: dict[str, tuple[int, float]]


@dataclass(frozen=True)
class SeverityBaseline:
    """Global class frequencies plus smoothed per-player class profiles.

    Profiles are probability vectors over the four outcome classes in
    severity order.
    """

    pi_global: tuple[float, float, float, float]
    m: float
    rusher_profiles: dict[str, tuple[int, tuple[float, float, float, float]]]
    blocker_profiles: dict[str, tuple[int, tuple[float, float, float, float]]]


def logit(p: float) -> float:
    with np.errstate(divide="ignore"):
        return float(np.log(p) - np.log1p(-p))


def inv_logit(x: float) -> float:
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    z = np.exp(x)
    return float(z / (1.0 + z))


def smooth_rate(n: int, rate: float, m: float, global_rate: float) -> float:
    """Shrink an observed rate toward the global rate with prior strength m.

    With no observations (n = 0) the result is ``global_rate`` exactly.
    """
    if n == 0:
        return global_rate
    return (n * rate + m * global_rate) / (n + m)


def _smoothed(n: np.ndarray, sums: np.ndarray, m: float, global_value) -> np.ndarray:
    """``smooth_rate`` over players with n > 0, for rates or class profiles.

    Players with n = 0 get no entry in a fitted baseline, so predictions
    use the global value for them exactly.
    """
    return (n * (sums / n) + m * global_value) / (n + m)


def _first_seen_codes(codes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Codes of positive weight, in order of their first such row.

    Baseline dicts follow this order, so their JSON lists players in
    table order.
    """
    active = codes[weights > 0]
    uniq, first = np.unique(active, return_index=True)
    return uniq[np.argsort(first, kind="stable")]


def check_prior_strength(m: float) -> None:
    """A prior strength must be finite and >= 0 (NaN is neither)."""
    if not 0 <= m < math.inf:
        raise ValueError(f"prior strength must be finite and >= 0, got {m}")


def _check_fit_input(n_rows: int, weights: np.ndarray, m: float, what: str) -> None:
    if n_rows == 0 or not weights.sum() > 0:
        raise DataError(f"cannot fit a {what} baseline on an empty table")
    check_prior_strength(m)


def fit_win_baseline_coded(
    coded: CodedTable, weights: np.ndarray, m: float = DEFAULT_WIN_PRIOR
) -> WinBaseline:
    """Win baseline with row i counted ``weights[i]`` times.

    Players whose rows all have zero weight get no entry, so predictions
    fall back to the global rate for them.
    """
    weights = np.asarray(weights, dtype=float)
    _check_fit_input(len(coded), weights, m, "win")
    p_global = float(np.sum(weights * coded.win) / np.sum(weights))

    def side_rates(codes, vocab) -> dict[str, tuple[int, float]]:
        seen = _first_seen_codes(codes, weights)
        n = np.bincount(codes, weights=weights, minlength=len(vocab))[seen]
        sums = np.bincount(codes, weights=weights * coded.win, minlength=len(vocab))[seen]
        rates = _smoothed(n, sums, m, p_global)
        return {vocab[i]: (int(n_i), float(r)) for i, n_i, r in zip(seen, n, rates)}

    return WinBaseline(
        p_global=p_global,
        m=float(m),
        rusher_rates=side_rates(coded.rusher, coded.rushers),
        blocker_rates=side_rates(coded.blocker, coded.blockers),
    )


def fit_win_baseline(train: InteractionTable, m: float = DEFAULT_WIN_PRIOR) -> WinBaseline:
    return fit_win_baseline_coded(train.coded, np.ones(len(train)), m)


def predict_win_global(bl: WinBaseline) -> float:
    return bl.p_global


def predict_win_matchup(bl: WinBaseline, rusher_id: str, blocker_id: str) -> float:
    """Inverse-logit of the mean logit of the two smoothed components.

    A player unseen in the relevant role contributes the global rate.
    """
    p_r = bl.rusher_rates.get(rusher_id, (0, bl.p_global))[1]
    p_b = bl.blocker_rates.get(blocker_id, (0, bl.p_global))[1]
    return inv_logit(0.5 * (logit(p_r) + logit(p_b)))


def fit_severity_baseline_coded(
    coded: CodedTable, weights: np.ndarray, m: float = DEFAULT_SEVERITY_PRIOR
) -> SeverityBaseline:
    """Severity baseline with row i counted ``weights[i]`` times.

    Players whose rows all have zero weight get no entry, so predictions
    fall back to the global profile for them.
    """
    weights = np.asarray(weights, dtype=float)
    _check_fit_input(len(coded), weights, m, "severity")
    k = len(CLASSES)
    pi_global = np.bincount(coded.severity, weights=weights, minlength=k) / np.sum(weights)

    def side_profiles(codes, vocab) -> dict[str, tuple[int, tuple[float, float, float, float]]]:
        seen = _first_seen_codes(codes, weights)
        counts = np.bincount(
            codes * k + coded.severity, weights=weights, minlength=len(vocab) * k
        ).reshape(len(vocab), k)[seen]
        n = counts.sum(axis=1)
        profiles = _smoothed(n[:, None], counts, m, pi_global)
        return {
            vocab[i]: (int(n_i), tuple(float(v) for v in prof))
            for i, n_i, prof in zip(seen, n, profiles)
        }

    return SeverityBaseline(
        pi_global=tuple(float(v) for v in pi_global),
        m=float(m),
        rusher_profiles=side_profiles(coded.rusher, coded.rushers),
        blocker_profiles=side_profiles(coded.blocker, coded.blockers),
    )


def fit_severity_baseline(
    train: InteractionTable, m: float = DEFAULT_SEVERITY_PRIOR
) -> SeverityBaseline:
    return fit_severity_baseline_coded(train.coded, np.ones(len(train)), m)


def predict_severity_global(bl: SeverityBaseline) -> np.ndarray:
    return np.asarray(bl.pi_global, dtype=float)


def predict_severity_matchup(bl: SeverityBaseline, rusher_id: str, blocker_id: str) -> np.ndarray:
    """Softmax of per-class log-odds averaged across the two sides.

    Each side contributes eta_c = log(profile_c / profile_loss); the
    loss entry is pinned at 0 and an unseen side falls back to the
    global profile.
    """
    prof_r = np.asarray(bl.rusher_profiles.get(rusher_id, (0, bl.pi_global))[1], dtype=float)
    prof_b = np.asarray(bl.blocker_profiles.get(blocker_id, (0, bl.pi_global))[1], dtype=float)
    loss_i = int(OutcomeClass.LOSS)
    if prof_r[loss_i] == 0.0 or prof_b[loss_i] == 0.0:
        raise DataError(
            "severity matchup log-odds undefined: a smoothed profile has a zero "
            "loss component (possible only at m=0 or a degenerate global profile)"
        )
    with np.errstate(divide="ignore"):
        eta = 0.5 * (
            np.log(prof_r / prof_r[loss_i]) + np.log(prof_b / prof_b[loss_i])
        )
    eta[loss_i] = 0.0
    eta -= eta.max()
    weights = np.exp(eta)
    return weights / weights.sum()


def _inv_logit_array(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(x)
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), z / (1.0 + z))


def predict_win_matchups(bl: WinBaseline, coded: CodedTable) -> np.ndarray:
    """``predict_win_matchup`` for every row of a coded table."""
    p_r = np.array([bl.rusher_rates.get(p, (0, bl.p_global))[1] for p in coded.rushers])
    p_b = np.array([bl.blocker_rates.get(p, (0, bl.p_global))[1] for p in coded.blockers])
    with np.errstate(divide="ignore"):
        logit_r = np.log(p_r) - np.log1p(-p_r)
        logit_b = np.log(p_b) - np.log1p(-p_b)
    return _inv_logit_array(0.5 * (logit_r[coded.rusher] + logit_b[coded.blocker]))


def predict_severity_matchups(bl: SeverityBaseline, coded: CodedTable) -> np.ndarray:
    """``predict_severity_matchup`` for every row: an (n, 4) matrix."""
    loss_i = int(OutcomeClass.LOSS)

    def log_odds(profiles, vocab, codes):
        prof = np.array([profiles.get(p, (0, bl.pi_global))[1] for p in vocab])
        prof = prof.reshape(-1, len(CLASSES))
        if np.any(prof[np.unique(codes), loss_i] == 0.0):
            raise DataError(
                "severity matchup log-odds undefined: a smoothed profile has a zero "
                "loss component (possible only at m=0 or a degenerate global profile)"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(prof / prof[:, loss_i : loss_i + 1])

    eta = 0.5 * (
        log_odds(bl.rusher_profiles, coded.rushers, coded.rusher)[coded.rusher]
        + log_odds(bl.blocker_profiles, coded.blockers, coded.blocker)[coded.blocker]
    )
    eta[:, loss_i] = 0.0
    eta -= eta.max(axis=1, keepdims=True)
    weights = np.exp(eta)
    return weights / weights.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# JSON export


def win_baseline_to_json_dict(bl: WinBaseline) -> dict:
    return {
        "kind": "win",
        "p_global": bl.p_global,
        "m": bl.m,
        "rusher_rates": {pid: [n, rate] for pid, (n, rate) in bl.rusher_rates.items()},
        "blocker_rates": {pid: [n, rate] for pid, (n, rate) in bl.blocker_rates.items()},
    }


def severity_baseline_to_json_dict(bl: SeverityBaseline) -> dict:
    return {
        "kind": "severity",
        "pi_global": list(bl.pi_global),
        "m": bl.m,
        "rusher_profiles": {
            pid: [n, list(prof)] for pid, (n, prof) in bl.rusher_profiles.items()
        },
        "blocker_profiles": {
            pid: [n, list(prof)] for pid, (n, prof) in bl.blocker_profiles.items()
        },
    }


def win_baseline_from_json_dict(raw: dict) -> WinBaseline:
    return WinBaseline(
        p_global=raw["p_global"],
        m=raw["m"],
        rusher_rates={pid: (int(n), float(r)) for pid, (n, r) in raw["rusher_rates"].items()},
        blocker_rates={pid: (int(n), float(r)) for pid, (n, r) in raw["blocker_rates"].items()},
    )


def severity_baseline_from_json_dict(raw: dict) -> SeverityBaseline:
    return SeverityBaseline(
        pi_global=tuple(float(v) for v in raw["pi_global"]),
        m=raw["m"],
        rusher_profiles={
            pid: (int(n), tuple(float(v) for v in prof))
            for pid, (n, prof) in raw["rusher_profiles"].items()
        },
        blocker_profiles={
            pid: (int(n), tuple(float(v) for v in prof))
            for pid, (n, prof) in raw["blocker_profiles"].items()
        },
    )

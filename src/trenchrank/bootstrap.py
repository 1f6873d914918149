"""Game-level bootstrap uncertainty for metrics, ratings, and weekly paths.

Replicates resample whole games with replacement and rerun the pipeline
with the penalty weights held fixed (cross-validation is never invoked
here).  A replicate draws G game indices, ``rng.integers(0, G, size=G)``,
and is fully described by the multiplicities ``m = bincount(draws,
minlength=G)``.  Its likelihood is the original table's with each row
weighted by its game's multiplicity (the weighted-likelihood view of the
bootstrap), so every replicate refits the table's one set of columns
under row weights; no resampled table is ever built.

Both bootstraps plan their replicates and hand them to one loop.  A
replicate is an RNG key, the games it resamples and the rows in play;
the loop draws its multiplicities, runs its fits, counts its failures
and gathers the tracked ratings.

- ``end_to_end_bootstrap``: each replicate resamples every game, re-splits
  and refits models and baselines, records the four holdout improvements
  (95% percentile intervals), and records per-player ratings from a
  refit on all of the replicate's rows (25th-75th percentile bands).
- ``weekly_path_bootstrap``: for each cumulative week checkpoint, games
  with rows in weeks <= w are resampled and refit on those rows,
  producing per-week rating bands of mean +/- 1.96 SD.  It reads none
  of ``ratio``, ``m_win``, ``m_sev`` or ``track_improvements``.

The replicate's row order, which fixes its 80/20 split, is: games in
sorted id order, a game's m_g copies contiguous, and the rows inside
each copy in canonical order.  The cut falls after the first
floor(0.8 * sum_g m_g n_g) rows of that order, so a row's train weight
is the number of its game's copies wholly before the cut, plus one if
the row lies before the cut inside the copy the cut falls in; its test
weight is the rest of m_g.

A player whose rows all have zero weight is absent from that fit: the
rating is NaN, and validation falls back for the player as it does for
any player unseen in training.  A severity class without training
weight in a replicate is dropped from its fits, as in any fit; a
bootstrap call then issues one warning that names the dropped classes
and counts the replicates that dropped any, in place of one per fit.
Each replicate derives its own RNG stream from its key, (seed,
replicate index) or (seed, week, replicate index), so results do not
depend on execution order.  Percentiles use linearly interpolated
order statistics.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, FitError
from .baselines import DEFAULT_SEVERITY_PRIOR, DEFAULT_WIN_PRIOR, check_prior_strength
from .evaluate import DEFAULT_SPLIT_RATIO, ValidationReport, split_point, validate_weighted
from .external import role_ratings
from .fit import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DROPPED_CLASSES_WARNING,
    check_penalty,
    check_solver_options,
    fit_coded,
    gather,
)
from .interactions import InteractionTable, OutcomeClass, canonical_sort

MODEL_NAMES = ("win", "severity")
IMPROVEMENT_LEVELS = (2.5, 97.5)
RATING_LEVELS = (25.0, 75.0)
WEEKLY_Z = 1.96
#: Largest share of a call's planned fits that may fail before it aborts.
MAX_FAILURE_RATE = 0.05


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, seed, fixed penalties, and tracking switches.

    ``identity_resample`` replaces each random draw with the original
    game multiset; it exists so that single-replicate runs can be
    checked against the point estimate.
    """

    b: int
    seed: int
    lambda_win: float
    lambda_sev: float
    ratio: float = DEFAULT_SPLIT_RATIO
    m_win: float = DEFAULT_WIN_PRIOR
    m_sev: float = DEFAULT_SEVERITY_PRIOR
    models: tuple[str, ...] = MODEL_NAMES
    track_improvements: bool = True
    track_ratings: bool = True
    track_players: tuple[str, ...] | None = None
    identity_resample: bool = False
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self) -> None:
        if self.b < 1:
            raise ValueError(f"replicate count must be >= 1, got {self.b}")
        for lam in (self.lambda_win, self.lambda_sev):
            check_penalty(lam)
        check_solver_options(self.tol, self.max_iter)
        for m in (self.m_win, self.m_sev):
            check_prior_strength(m)
        bad = [m for m in self.models if m not in MODEL_NAMES]
        if bad or not self.models:
            raise ValueError(f"models must name one or both of {MODEL_NAMES}, got {self.models}")
        if self.track_players is not None and len(self.track_players) == 0:
            raise ValueError("track_players names no player; None tracks every player")


@dataclass(frozen=True)
class TrackedSeries:
    """Replicate values for one quantity plus its standard reductions.

    ``values`` has one entry per successful replicate; NaN marks a
    replicate where the quantity was undefined (e.g. a player absent
    from the resample).  ``lo``/``hi`` are percentile bounds for
    improvement and rating series and mean +/- 1.96 SD for weekly
    series; all reductions can be recomputed from ``values``.
    """

    values: tuple[float, ...]
    mean: float
    sd: float
    lo: float
    hi: float


@dataclass(frozen=True)
class BootstrapSummary:
    mode: str
    b: int
    n_failed: int
    improvements: dict[tuple[str, str], TrackedSeries] = field(default_factory=dict)
    ratings: dict[tuple[str, str, str], TrackedSeries] = field(default_factory=dict)
    weekly: dict[tuple[str, str, str, int], TrackedSeries] = field(default_factory=dict)
    checkpoints: tuple[int, ...] = ()


def percentile_interval(values: Sequence[float], lo_pct: float, hi_pct: float) -> tuple[float, float]:
    """Percentile bounds by linear interpolation between order statistics."""
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return math.nan, math.nan
    lo, hi = np.percentile(arr, [lo_pct, hi_pct], method="linear")
    return float(lo), float(hi)


def resample_games(game_ids: Sequence[str], rng: np.random.Generator) -> list[str]:
    """Draw |games| game ids with replacement (a multiset, in draw order)."""
    if len(game_ids) == 0:
        raise DataError("cannot resample an empty game list")
    draws = rng.integers(0, len(game_ids), size=len(game_ids))
    return [game_ids[i] for i in draws]


def split_weights(
    table: InteractionTable, m: np.ndarray, ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row train and test weights of a replicate's ordered split.

    ``table`` must be in canonical order and ``m`` holds the copies of
    each game (by game code).  See the module docstring for the cut rule.
    """
    n_g = np.bincount(table.game, minlength=len(table.games))
    game_start = np.cumsum(n_g) - n_g
    copy_start = np.cumsum(m * n_g) - m * n_g
    n_train = split_point(int(np.sum(m * n_g)), ratio)
    # rows of this game copy lying before the cut, counted from the row's
    # own position in the copy
    g = table.game
    ahead = n_train - copy_start[g] - (np.arange(len(table)) - game_start[g])
    train = np.clip(-(-ahead // n_g[g]), 0, m[g])
    return train.astype(float), (m[g] - train).astype(float)


def _series(values: list[float], kind: str) -> TrackedSeries:
    arr = np.asarray(values, dtype=float)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return TrackedSeries(tuple(values), math.nan, math.nan, math.nan, math.nan)
    mean = float(finite.mean())
    sd = float(finite.std(ddof=1)) if finite.size > 1 else math.nan
    if kind == "improvement":
        lo, hi = percentile_interval(finite, *IMPROVEMENT_LEVELS)
    elif kind == "rating":
        lo, hi = percentile_interval(finite, *RATING_LEVELS)
    else:
        lo = mean - WEEKLY_Z * sd if finite.size > 1 else math.nan
        hi = mean + WEEKLY_Z * sd if finite.size > 1 else math.nan
    return TrackedSeries(tuple(float(v) for v in arr), mean, sd, lo, hi)


def _rating_players(
    table: InteractionTable, config: BootstrapConfig
) -> dict[tuple[str, str], np.ndarray]:
    """The tracked players of each (model, role), in id order, as object
    arrays of the ids ``gather`` looks up.

    Checks, before any fit, that the table has a game and that every
    tracked id is a rusher or a blocker of it.
    """
    if len(table) == 0:
        raise DataError("bootstrap requires at least one game")
    vocab = set(table.rushers + table.blockers)
    keep = vocab if config.track_players is None else set(config.track_players)
    unknown = sorted(keep - vocab)
    if unknown:
        raise DataError(f"tracked players not in the table: {', '.join(map(repr, unknown))}")
    return {
        (model, role): np.array(
            [p for p in (table.rushers if role == "rusher" else table.blockers) if p in keep],
            dtype=object,
        )
        for model in config.models
        for role in ("rusher", "blocker")
    }


def _fit_ratings(
    table: InteractionTable,
    weights: np.ndarray,
    config: BootstrapConfig,
    players: dict[tuple[str, str], np.ndarray],
) -> tuple[dict[tuple[str, str], list[float]], tuple[OutcomeClass, ...]]:
    """Each model's ratings of the tracked ``players`` by (model, role),
    NaN for a player outside the fit, and the severity fit's dropped
    classes."""
    out: dict[tuple[str, str], list[float]] = {}
    dropped: tuple[OutcomeClass, ...] = ()
    for model in config.models:
        lam = config.lambda_win if model == "win" else config.lambda_sev
        fit = fit_coded(table, weights, model, lam, tol=config.tol, max_iter=config.max_iter)
        if model == "severity":
            dropped = fit.dropped
        for role in ("rusher", "blocker"):
            ids, ratings = role_ratings(fit, role)
            keys = np.array(ids, dtype=object)
            out[(model, role)] = gather(keys, ratings, players[(model, role)], math.nan).tolist()
    return out, dropped


def _run_replicates(
    table: InteractionTable,
    config: BootstrapConfig,
    plans: Sequence[tuple[tuple[int, ...], np.ndarray, np.ndarray]],
    players: dict[tuple[str, str], np.ndarray],
    holdout: Callable[[np.ndarray], ValidationReport] | None = None,
) -> tuple[int, dict[tuple[str, str], list[float]], dict[tuple, list[float]]]:
    """Resample, fit and record each planned replicate: an RNG key, the
    codes of the games it resamples and a mask of the rows in play.

    ``holdout`` maps a replicate's game multiplicities to its holdout
    report; ratings come from a refit on the rows in play, keyed by
    (model, role, player) and the key less seed and replicate index (the
    week, if any).  Returns the failure count and the improvement and
    rating values of the replicates that fit.
    """
    improvements: dict[tuple[str, str], list[float]] = {}
    ratings: dict[tuple, list[float]] = {}
    n_failed = 0
    dropped: set[OutcomeClass] = set()
    n_dropping = 0  # replicates that dropped a class
    for key, games, rows in plans:
        rng = np.random.default_rng(key)
        m = np.zeros(len(table.games), dtype=np.intp)
        # the identity replicate keeps one copy of each game
        m[games] = 1 if config.identity_resample else np.bincount(
            resample_games(range(games.size), rng), minlength=games.size
        )
        try:
            with warnings.catch_warnings():
                # one warning per call replaces the per-fit ones
                warnings.filterwarnings(
                    "ignore", re.escape(DROPPED_CLASSES_WARNING), RuntimeWarning
                )
                report = scores = None
                rep_dropped: tuple[OutcomeClass, ...] = ()
                if holdout is not None:
                    report = holdout(m)
                    rep_dropped = report.severity_fit.dropped
                if config.track_ratings:
                    weights = (m[table.game] * rows).astype(float)
                    scores, rating_dropped = _fit_ratings(table, weights, config, players)
                    rep_dropped += rating_dropped
        except FitError:
            n_failed += 1
            if n_failed > MAX_FAILURE_RATE * len(plans):
                raise FitError(
                    f"{n_failed} of {len(plans)} bootstrap replicates failed to fit "
                    f"(limit {MAX_FAILURE_RATE:.0%}); aborting"
                )
            continue
        if rep_dropped:
            n_dropping += 1
            dropped.update(rep_dropped)
        if report is not None:
            for row in report.rows:
                improvements.setdefault((row.task, row.baseline), []).append(row.improvement)
        if scores is not None:
            for (model, role), ids in players.items():
                for pid, rating in zip(ids, scores[(model, role)]):
                    ratings.setdefault((model, role, pid, *key[1:-1]), []).append(rating)
    if n_dropping:
        warnings.warn(
            f"{DROPPED_CLASSES_WARNING} in {n_dropping} of {len(plans)} bootstrap replicates: "
            + ", ".join(c.label for c in sorted(dropped)),
            RuntimeWarning,
            stacklevel=3,
        )
    return n_failed, improvements, ratings


def end_to_end_bootstrap(table: InteractionTable, config: BootstrapConfig) -> BootstrapSummary:
    """Resample games B times, rerunning the split/fit/validate pipeline.

    Improvements come from each replicate's re-split holdout; ratings
    come from a refit on all of the replicate's rows, since season
    ratings are full-data quantities.  Failed replicates are dropped
    and counted; more than ``MAX_FAILURE_RATE`` of them aborts.
    """
    if config.track_improvements and tuple(config.models) != MODEL_NAMES:
        raise ValueError("improvement tracking refits both models; restrict via track_improvements=False")
    if not (config.track_improvements or config.track_ratings):
        raise ValueError("an end-to-end bootstrap needs track_improvements or track_ratings")
    players = _rating_players(table, config)
    if not table.is_canonically_sorted():
        table = canonical_sort(table)

    def holdout(m: np.ndarray) -> ValidationReport:
        return validate_weighted(
            table,
            *split_weights(table, m, config.ratio),
            lambda_win=config.lambda_win,
            lambda_sev=config.lambda_sev,
            m_win=config.m_win,
            m_sev=config.m_sev,
            tol=config.tol,
            max_iter=config.max_iter,
        )

    games, rows = np.arange(len(table.games)), np.ones(len(table), dtype=bool)
    plans = [((config.seed, rep), games, rows) for rep in range(config.b)]
    n_failed, improvements, ratings = _run_replicates(
        table, config, plans, players, holdout if config.track_improvements else None
    )
    return BootstrapSummary(
        mode="end_to_end",
        b=config.b,
        n_failed=n_failed,
        improvements={k: _series(v, "improvement") for k, v in improvements.items()},
        ratings={k: _series(v, "rating") for k, v in ratings.items()},
    )


def weekly_path_bootstrap(table: InteractionTable, config: BootstrapConfig) -> BootstrapSummary:
    """Per-cumulative-week resampled refits giving rating uncertainty bands.

    For checkpoint w, the games with rows in weeks <= w are resampled B
    times and both models refit on those rows at the fixed penalties;
    the band per player and week is mean +/- 1.96 SD over the replicates
    where the player appears.  Checkpoints with no games yet are skipped
    with a warning.
    """
    if not config.track_ratings:
        raise ValueError("the weekly path tracks only ratings; track_ratings=False leaves nothing")
    players = _rating_players(table, config)
    checkpoints: list[int] = []
    plans = []
    for week in range(1, int(table.week.max()) + 1):
        in_week = table.week <= week
        if not in_week.any():
            warnings.warn(
                f"checkpoint week {week} has no games yet; skipped",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        checkpoints.append(week)
        games = np.unique(table.game[in_week])
        plans += [((config.seed, week, rep), games, in_week) for rep in range(config.b)]
    n_failed, _, weekly = _run_replicates(table, config, plans, players)
    return BootstrapSummary(
        mode="weekly_path",
        b=config.b,
        n_failed=n_failed,
        weekly={k: _series(v, "weekly") for k, v in weekly.items()},
        checkpoints=tuple(checkpoints),
    )

"""Synthetic interaction generator with known ground truth.

Draws player effects from centered normals, assigns random matchups
with Bernoulli double teams, then samples the win indicator from the
binary model and the outcome class from the multinomial model.  The two
targets are sampled independently by default, mirroring their separate
definitions; ``coupled`` mode instead derives win_target from the drawn
class (win or worse) for stress tests.

Ids are zero-padded so that generation order coincides with canonical
order; the table's columns are built from the drawn arrays, sorted by
construction.  Default
intercepts reproduce the observed base rates (27% win rate, class mix
of roughly 73/25/1.1/0.6 percent) and the 42.7% double-team rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .interactions import (
    CLASSES,
    InteractionTable,
    OutcomeClass,
    SeverityWeights,
    default_severity_weights,
)

_NONREF = (OutcomeClass.WIN, OutcomeClass.HIT, OutcomeClass.SACK)


def _default_sev_alpha() -> dict[OutcomeClass, float]:
    # log odds vs the loss class matching the observed class mix
    return {
        OutcomeClass.WIN: math.log(0.253 / 0.730),
        OutcomeClass.HIT: math.log(0.0109 / 0.730),
        OutcomeClass.SACK: math.log(0.0063 / 0.730),
    }


def _default_sev_delta() -> dict[OutcomeClass, float]:
    return {c: -0.5 for c in _NONREF}


@dataclass(frozen=True)
class SynthConfig:
    """Generator shape and true model parameters."""

    n_rushers: int = 60
    n_blockers: int = 40
    n_games: int = 30
    plays_per_game: int = 20
    interactions_per_play: int = 5
    n_weeks: int = 18
    sigma_r: float = 0.5
    sigma_b: float = 0.5
    alpha: float = math.log(0.27 / 0.73)
    delta: float = -0.5
    sev_alpha: dict[OutcomeClass, float] = field(default_factory=_default_sev_alpha)
    sev_delta: dict[OutcomeClass, float] = field(default_factory=_default_sev_delta)
    p_double: float = 0.427
    coupled: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_rushers", "n_blockers", "n_games", "plays_per_game",
                     "interactions_per_play", "n_weeks"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.sigma_r < 0 or self.sigma_b < 0:
            raise ValueError("effect scales must be >= 0")
        if not 0.0 <= self.p_double <= 1.0:
            raise ValueError(f"p_double must be in [0, 1], got {self.p_double}")
        for c in _NONREF:
            if c not in self.sev_alpha or c not in self.sev_delta:
                raise ValueError(f"missing multinomial parameter for class {c.label!r}")


@dataclass(frozen=True)
class GroundTruth:
    """The generating parameters, keyed the same way fits are."""

    alpha: float
    delta: float
    rusher_win_effects: dict[str, float]
    blocker_win_effects: dict[str, float]
    sev_alpha: dict[OutcomeClass, float]
    sev_delta: dict[OutcomeClass, float]
    rusher_class_effects: dict[OutcomeClass, dict[str, float]]
    blocker_class_effects: dict[OutcomeClass, dict[str, float]]

    def severity_scores(self, role: str, weights: SeverityWeights | None = None) -> dict[str, float]:
        """True severity-weighted effect sums, comparable to model_scores."""
        w = default_severity_weights() if weights is None else weights
        per_class = self.rusher_class_effects if role == "rusher" else self.blocker_class_effects
        ids = next(iter(per_class.values())).keys()
        return {
            pid: sum(w.weight(c) * per_class[c][pid] for c in per_class) for pid in ids
        }


def _pad_ids(prefix: str, n: int) -> list[str]:
    width = len(str(n - 1)) if n > 1 else 1
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def synth_generate(cfg: SynthConfig) -> tuple[InteractionTable, GroundTruth]:
    """Sample a full interaction table plus its generating parameters."""
    rng = np.random.default_rng(cfg.seed)
    rusher_ids = _pad_ids("R", cfg.n_rushers)
    blocker_ids = _pad_ids("B", cfg.n_blockers)
    game_ids = _pad_ids("g", cfg.n_games)
    play_ids = _pad_ids("p", cfg.plays_per_game)

    r_win = rng.normal(0.0, cfg.sigma_r, cfg.n_rushers)
    b_win = rng.normal(0.0, cfg.sigma_b, cfg.n_blockers)
    r_cls = {c: rng.normal(0.0, cfg.sigma_r, cfg.n_rushers) for c in _NONREF}
    b_cls = {c: rng.normal(0.0, cfg.sigma_b, cfg.n_blockers) for c in _NONREF}

    n = cfg.n_games * cfg.plays_per_game * cfg.interactions_per_play
    ri = rng.integers(0, cfg.n_rushers, n)
    bi = rng.integers(0, cfg.n_blockers, n)
    dbl = rng.random(n) < cfg.p_double

    eta_win = cfg.alpha + r_win[ri] - b_win[bi] + cfg.delta * dbl
    p_win = 1.0 / (1.0 + np.exp(-eta_win))
    wins = rng.random(n) < p_win

    eta = np.zeros((n, len(CLASSES)))
    for c in _NONREF:
        eta[:, int(c)] = cfg.sev_alpha[c] + r_cls[c][ri] - b_cls[c][bi] + cfg.sev_delta[c] * dbl
    eta -= eta.max(axis=1)[:, None]
    probs = np.exp(eta)
    probs /= probs.sum(axis=1)[:, None]
    u = rng.random(n)
    sev_idx = (np.cumsum(probs, axis=1) < u[:, None]).sum(axis=1)
    if cfg.coupled:
        wins = sev_idx >= int(OutcomeClass.WIN)

    per_game = cfg.plays_per_game * cfg.interactions_per_play
    game = np.repeat(np.arange(cfg.n_games), per_game)
    event = np.tile(np.arange(per_game), cfg.n_games)
    table = InteractionTable(
        game=(tuple(game_ids), game),
        play=(tuple(play_ids), event // cfg.interactions_per_play),
        rusher=(tuple(rusher_ids), ri),
        blocker=(tuple(blocker_ids), bi),
        event_game_index=event,
        week=game * cfg.n_weeks // cfg.n_games + 1,
        double_team=dbl,
        win=wins,
        severity=sev_idx,
    )

    truth = GroundTruth(
        alpha=cfg.alpha,
        delta=cfg.delta,
        rusher_win_effects=dict(zip(rusher_ids, map(float, r_win))),
        blocker_win_effects=dict(zip(blocker_ids, map(float, b_win))),
        sev_alpha=dict(cfg.sev_alpha),
        sev_delta=dict(cfg.sev_delta),
        rusher_class_effects={
            c: dict(zip(rusher_ids, map(float, r_cls[c]))) for c in _NONREF
        },
        blocker_class_effects={
            c: dict(zip(blocker_ids, map(float, b_cls[c]))) for c in _NONREF
        },
    )
    return table, truth

"""Shared fixtures and small-table builders for the test suite."""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp

from trenchrank import fit as fit_module
from trenchrank.interactions import InteractionTable, OutcomeClass


#: Penalties every fit entry refuses: lam must be finite and > 0.
BAD_PENALTIES = (0.0, -1.0, math.nan, math.inf)
#: Solver options every fit entry refuses, with the start of the message.
BAD_SOLVER_OPTIONS = {
    "tol=-1": ({"tol": -1.0}, "tol must be finite and > 0"),
    "tol=0": ({"tol": 0.0}, "tol must be finite and > 0"),
    "tol=nan": ({"tol": math.nan}, "tol must be finite and > 0"),
    "tol=inf": ({"tol": math.inf}, "tol must be finite and > 0"),
    "max_iter=0": ({"max_iter": 0}, "max_iter must be an integer >= 1"),
    "max_iter=-5": ({"max_iter": -5}, "max_iter must be an integer >= 1"),
    "max_iter=2.5": ({"max_iter": 2.5}, "max_iter must be an integer >= 1"),
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts after the main report."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@dataclass(frozen=True, slots=True)
class Interaction:
    """One table row as values: the tests' reference row model."""

    game_id: str
    play_id: str
    event_game_index: int
    week: int
    rusher_id: str
    blocker_id: str
    double_team: bool
    win_target: bool
    severity: OutcomeClass

    def __post_init__(self) -> None:
        if self.event_game_index < 0:
            raise ValueError(f"event_game_index must be >= 0, got {self.event_game_index}")
        if self.week < 1:
            raise ValueError(f"week must be >= 1, got {self.week}")

    def sort_key(self) -> tuple[str, str, int]:
        return (self.game_id, self.play_id, self.event_game_index)


def _coded(ids):
    """Sorted distinct ids, and each id's index into them."""
    vocab = tuple(sorted(set(ids)))
    index = {v: i for i, v in enumerate(vocab)}
    return vocab, np.array([index[v] for v in ids], dtype=np.intp)


def table_of(rows):
    """The table of ``Interaction`` rows, in their order."""
    rows = tuple(rows)
    return InteractionTable(
        game=_coded([r.game_id for r in rows]),
        play=_coded([r.play_id for r in rows]),
        rusher=_coded([r.rusher_id for r in rows]),
        blocker=_coded([r.blocker_id for r in rows]),
        event_game_index=[r.event_game_index for r in rows],
        week=[r.week for r in rows],
        double_team=[r.double_team for r in rows],
        win=[float(r.win_target) for r in rows],
        severity=[int(r.severity) for r in rows],
    )


def rows_of(table):
    """Every row of a table, decoded to an ``Interaction``."""
    def ids(vocab, codes):
        return [vocab[i] for i in codes.tolist()]

    return tuple(map(
        Interaction,
        ids(table.games, table.game), ids(table.play_ids, table.play),
        table.event_game_index.tolist(), table.week.tolist(),
        ids(table.rushers, table.rusher), ids(table.blockers, table.blocker),
        table.double_team.tolist(), table.win.astype(bool).tolist(),
        map(OutcomeClass, table.severity.tolist()),
    ))


def make_row(
    game="g1",
    play="p1",
    idx=0,
    week=1,
    rusher="R1",
    blocker="B1",
    double=False,
    win=False,
    severity=OutcomeClass.LOSS,
):
    """Interaction with keyword defaults so tests only spell what matters."""
    return Interaction(game, play, idx, week, rusher, blocker, double, win, severity)


def random_table(
    rng,
    n_rows=60,
    n_rushers=5,
    n_blockers=4,
    n_games=4,
    p_double=0.4,
    n_weeks=4,
):
    """Random well-formed table in canonical order, uniform class draws."""
    rows = []
    games = [f"g{k}" for k in range(n_games)]
    per_game = n_rows // n_games
    for gi, game in enumerate(games):
        week = gi * n_weeks // n_games + 1
        for e in range(per_game):
            sev = OutcomeClass(int(rng.integers(0, 4)))
            rows.append(
                Interaction(
                    game,
                    f"p{e // 3:03d}",
                    e,
                    week,
                    f"R{rng.integers(0, n_rushers)}",
                    f"B{rng.integers(0, n_blockers)}",
                    bool(rng.random() < p_double),
                    sev is not OutcomeClass.LOSS and bool(rng.random() < 0.8),
                    sev,
                )
            )
    return table_of(rows)


@dataclass(frozen=True)
class PlayerIndex:
    """Id-to-column mapping of the design's player columns: the column
    layout ``[intercept | double_team | rushers... | blockers...]`` the
    dense oracles use."""

    rusher_cols: dict[str, int]
    blocker_cols: dict[str, int]

    @property
    def n_columns(self) -> int:
        return 2 + len(self.rusher_cols) + len(self.blocker_cols)


def index_from_ids(rushers, blockers):
    """Index the given sorted rusher and blocker ids, in that order."""
    rusher_cols = {pid: 2 + i for i, pid in enumerate(rushers)}
    blocker_cols = {pid: 2 + len(rushers) + j for j, pid in enumerate(blockers)}
    return PlayerIndex(rusher_cols=rusher_cols, blocker_cols=blocker_cols)


def penalty_mask(idx):
    """1.0 on ridge-penalized columns, 0.0 on the intercept (column 0)."""
    mask = np.ones(idx.n_columns)
    mask[0] = 0.0
    return mask


def table_index(table):
    """The column index of a fit of every row of ``table``: its sorted
    rusher ids, then its sorted blocker ids."""
    return index_from_ids(table.rushers, table.blockers)


def fit_index(fit):
    """The column index of a fit's theta."""
    return index_from_ids(fit.rushers, fit.blockers)


def fit_cells(table, weights, model):
    """``fit._cells`` with the cells' player codes turned into the column
    index of their ids."""
    design, outcome, cell_w, rushers, blockers = fit_module._cells(table, weights, model)
    idx = index_from_ids([table.rushers[i] for i in rushers],
                         [table.blockers[i] for i in blockers])
    return design, outcome, cell_w, idx


class ClassEffects(NamedTuple):
    """One class's parameters keyed by player id."""

    alpha: float
    delta: float
    rusher_effects: dict
    blocker_effects: dict


def dict_fit(fit):
    """Each modeled class's parameters keyed by player id: the reference
    dict form of a fit, built from its theta over ``fit_index(fit)`` the
    way the package once stored its fits."""
    idx = fit_index(fit)
    return {
        cls: ClassEffects(
            float(row[0]),
            float(row[1]),
            {pid: float(row[col]) for pid, col in idx.rusher_cols.items()},
            {pid: float(row[col]) for pid, col in idx.blocker_cols.items()},
        )
        for cls, row in zip(fit.classes, fit.theta)
    }


def win_effects(fit):
    """The parameters of a win fit's one class, keyed by player id."""
    (effects,) = dict_fit(fit).values()
    return effects


def theta_on_index(fit, idx):
    """The (K, d) parameters of ``fit`` over ``idx``'s columns, mapped by
    player id from the dict form; a player the fit lacks gets 0."""
    per_class = list(dict_fit(fit).values())
    theta = np.zeros((len(per_class), idx.n_columns))
    for a, (alpha, delta, rushers, blockers) in enumerate(per_class):
        theta[a, :2] = alpha, delta
        for cols, effects in ((idx.rusher_cols, rushers), (idx.blocker_cols, blockers)):
            for pid, col in cols.items():
                theta[a, col] = effects.get(pid, 0.0)
    return theta


def design_matrix(table, idx):
    """Reference design, encoded one interaction at a time: one CSR row per
    table row over ``idx``'s columns, holding 1 on the intercept (column
    0), 1 on the double team (column 1) for a double-teamed row, +1 on the
    rusher's column and -1 on the blocker's.  A player ``idx`` lacks gets
    no entry."""
    data, indices, indptr = [], [], [0]
    for x in rows_of(table):
        row = [(0, 1.0)]
        if x.double_team:
            row.append((1, 1.0))
        if x.rusher_id in idx.rusher_cols:
            row.append((idx.rusher_cols[x.rusher_id], 1.0))
        if x.blocker_id in idx.blocker_cols:
            row.append((idx.blocker_cols[x.blocker_id], -1.0))
        for col, val in row:
            indices.append(col)
            data.append(val)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.intp), np.asarray(indptr)),
        shape=(len(indptr) - 1, idx.n_columns),
    )


def dense_hessian(parts, design):
    """The full (K d) x (K d) Hessian in class-major order, written out from
    ``fit._hessian_parts``."""
    r, k, m = parts.coupling.shape
    n = r * k + m
    H = np.zeros((n, n))
    block = np.arange(r * k).reshape(r, k)
    H[block[:, :, None], block[:, None, :]] = parts.rusher
    H[: r * k, r * k :] = parts.coupling.reshape(r * k, m)
    H[r * k :, : r * k] = H[: r * k, r * k :].T
    fit_module._add_rest(H[r * k :, r * k :], parts.rest_sums, parts.rest_ridge)
    # class-major position of each rusher-first parameter
    position = np.arange(k * design.n_columns).reshape(k, -1)
    order = np.concatenate([
        position[:, design.rusher_columns].T.ravel(), position[:, design.rest_columns].ravel()
    ])
    out = np.empty_like(H)
    out[np.ix_(order, order)] = H
    return out


def rows_by_game(table):
    """Each game's rows, in row order; games in order of their first row."""
    return {table.games[g]: rows_of(table.take(table.game == g))
            for g in dict.fromkeys(table.game.tolist())}


# ---------------------------------------------------------------------------
# Reference matchup baselines: per-player dicts keyed by player id, fitted
# and evaluated one matchup at a time the way the package once did


@dataclass(frozen=True)
class WinBaseline:
    """Global win rate plus ``(n, smoothed rate)`` per player id."""

    p_global: float
    m: float
    rusher_rates: dict
    blocker_rates: dict


@dataclass(frozen=True)
class SeverityBaseline:
    """Global class frequencies plus ``(n, smoothed profile)`` per player id."""

    pi_global: tuple
    m: float
    rusher_profiles: dict
    blocker_profiles: dict


def logit(p):
    with np.errstate(divide="ignore"):
        return float(np.log(p) - np.log1p(-p))


def inv_logit(x):
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    z = np.exp(x)
    return float(z / (1.0 + z))


def _smoothed(n, sums, m, global_value):
    return (n * (sums / n) + m * global_value) / (n + m)


def _first_seen_codes(codes, weights):
    """Codes of positive weight, in order of their first such row."""
    active = codes[weights > 0]
    uniq, first = np.unique(active, return_index=True)
    return uniq[np.argsort(first, kind="stable")]


def _reference_weights(table, weights):
    return np.ones(len(table)) if weights is None else np.asarray(weights, dtype=float)


def reference_win_baseline(table, m, weights=None):
    """The dict-built win baseline: row i counted ``weights[i]`` times."""
    weights = _reference_weights(table, weights)
    p_global = float(np.sum(weights * table.win) / np.sum(weights))

    def side_rates(codes, vocab):
        seen = _first_seen_codes(codes, weights)
        n = np.bincount(codes, weights=weights, minlength=len(vocab))[seen]
        sums = np.bincount(codes, weights=weights * table.win, minlength=len(vocab))[seen]
        rates = _smoothed(n, sums, m, p_global)
        return {vocab[i]: (float(n_i), float(r)) for i, n_i, r in zip(seen, n, rates)}

    return WinBaseline(p_global, float(m), side_rates(table.rusher, table.rushers),
                       side_rates(table.blocker, table.blockers))


def reference_severity_baseline(table, m, weights=None):
    """The dict-built severity baseline: row i counted ``weights[i]`` times."""
    weights = _reference_weights(table, weights)
    k = 4
    pi_global = np.bincount(table.severity, weights=weights, minlength=k) / np.sum(weights)

    def side_profiles(codes, vocab):
        seen = _first_seen_codes(codes, weights)
        counts = np.bincount(
            codes * k + table.severity, weights=weights, minlength=len(vocab) * k
        ).reshape(len(vocab), k)[seen]
        n = counts.sum(axis=1)
        profiles = _smoothed(n[:, None], counts, m, pi_global)
        return {vocab[i]: (float(n_i), tuple(float(v) for v in prof))
                for i, n_i, prof in zip(seen, n, profiles)}

    return SeverityBaseline(tuple(float(v) for v in pi_global), float(m),
                            side_profiles(table.rusher, table.rushers),
                            side_profiles(table.blocker, table.blockers))


def reference_win_matchup(bl, rusher_id, blocker_id):
    """Inverse-logit of the mean logit of the two smoothed rates; an unseen
    player contributes the global rate."""
    p_r = bl.rusher_rates.get(rusher_id, (0, bl.p_global))[1]
    p_b = bl.blocker_rates.get(blocker_id, (0, bl.p_global))[1]
    return inv_logit(0.5 * (logit(p_r) + logit(p_b)))


def reference_severity_matchup(bl, rusher_id, blocker_id):
    """Softmax of the per-class log-odds against loss averaged across the
    two sides; an unseen side falls back to the global profile."""
    prof_r = np.asarray(bl.rusher_profiles.get(rusher_id, (0, bl.pi_global))[1], dtype=float)
    prof_b = np.asarray(bl.blocker_profiles.get(blocker_id, (0, bl.pi_global))[1], dtype=float)
    loss_i = int(OutcomeClass.LOSS)
    with np.errstate(divide="ignore"):
        eta = 0.5 * (np.log(prof_r / prof_r[loss_i]) + np.log(prof_b / prof_b[loss_i]))
    eta[loss_i] = 0.0
    eta -= eta.max()
    weights = np.exp(eta)
    return weights / weights.sum()


def _json_count(n):
    """A weighted count as JSON writes it: an integral count as an integer."""
    return int(n) if float(n).is_integer() else float(n)


def reference_baseline_json(bl):
    """The baseline JSON built from the reference dicts."""
    if isinstance(bl, WinBaseline):
        return {
            "kind": "win",
            "p_global": bl.p_global,
            "m": bl.m,
            "rusher_rates": {pid: [_json_count(n), r] for pid, (n, r) in bl.rusher_rates.items()},
            "blocker_rates": {pid: [_json_count(n), r]
                              for pid, (n, r) in bl.blocker_rates.items()},
        }
    return {
        "kind": "severity",
        "pi_global": list(bl.pi_global),
        "m": bl.m,
        "rusher_profiles": {pid: [_json_count(n), list(p)]
                            for pid, (n, p) in bl.rusher_profiles.items()},
        "blocker_profiles": {pid: [_json_count(n), list(p)]
                             for pid, (n, p) in bl.blocker_profiles.items()},
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_table(rng):
    return random_table(rng)

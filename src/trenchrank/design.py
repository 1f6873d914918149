"""Sparse paired-comparison design construction.

Each interaction becomes one row with an intercept, the double-team
indicator, +1 on the rusher's column and -1 on the blocker's column.
Rusher and blocker columns are separate blocks even when the same
player appears in both roles.  A player absent from the index gets no
column: its effect is the ridge prior mean, zero.

Column layout: ``[intercept | double_team | rushers... | blockers...]``.

The design is a CSR matrix built in one vectorized pass from the
integer code columns of the table (``csr_from_codes``); there is
no per-row encoder.  ``codes_from_csr`` is its inverse: the fit layer
solves on the codes, and decodes a public caller's matrix once,
rejecting any row that is not of the paired-comparison form.  Both
models share the design, since the fit layer treats the binary model
as the one-class case of the severity model.  A weighted fit,
cross-validation fold or bootstrap replicate first merges rows that
encode alike into cells (``aggregate_cells``): rows with equal
(rusher, blocker, double_team, outcome) contribute identical
likelihood terms, so one cell row carrying their summed weight
replaces them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .interactions import InteractionTable

INTERCEPT_COL = 0
DOUBLE_TEAM_COL = 1

@dataclass(frozen=True)
class PlayerIndex:
    """Deterministic id-to-column mapping for one training table.

    Ordinals are dense and assigned in sorted-id order, so two tables
    with the same player sets produce identical indexes.
    """

    rusher_cols: dict[str, int]
    blocker_cols: dict[str, int]

    @property
    def n_rushers(self) -> int:
        return len(self.rusher_cols)

    @property
    def n_blockers(self) -> int:
        return len(self.blocker_cols)

    @property
    def n_columns(self) -> int:
        return 2 + self.n_rushers + self.n_blockers

    @property
    def rusher_ids(self) -> list[str]:
        return sorted(self.rusher_cols)

    @property
    def blocker_ids(self) -> list[str]:
        return sorted(self.blocker_cols)

    def to_json(self) -> str:
        return json.dumps({"rushers": self.rusher_cols, "blockers": self.blocker_cols})

    @classmethod
    def from_json(cls, text: str) -> "PlayerIndex":
        raw = json.loads(text)
        return cls(rusher_cols=dict(raw["rushers"]), blocker_cols=dict(raw["blockers"]))


def build_index(table: InteractionTable) -> PlayerIndex:
    """Index every distinct rusher and blocker id in the table."""
    if len(table) == 0:
        raise DataError("cannot build a player index from an empty table")
    return index_from_ids(table.rushers, table.blockers)


def index_from_ids(rushers: Sequence[str], blockers: Sequence[str]) -> PlayerIndex:
    """Index the given sorted rusher and blocker ids, in that order."""
    rusher_cols = {pid: 2 + i for i, pid in enumerate(rushers)}
    blocker_cols = {pid: 2 + len(rushers) + j for j, pid in enumerate(blockers)}
    return PlayerIndex(rusher_cols=rusher_cols, blocker_cols=blocker_cols)


def csr_from_codes(
    rusher_cols: np.ndarray,
    blocker_cols: np.ndarray,
    double_team: np.ndarray,
    n_columns: int,
) -> sp.csr_matrix:
    """Design rows from per-row column numbers, built without a row loop.

    A negative rusher or blocker column means the player is not in the
    index and contributes no entry.  Each row's entries come in column
    role order: intercept, double team, rusher, blocker.
    """
    rusher_cols = np.asarray(rusher_cols, dtype=np.intp)
    blocker_cols = np.asarray(blocker_cols, dtype=np.intp)
    parts = (
        (np.ones(rusher_cols.shape[0], dtype=bool), INTERCEPT_COL, 1.0),
        (np.asarray(double_team, dtype=bool), DOUBLE_TEAM_COL, 1.0),
        (rusher_cols >= 0, rusher_cols, 1.0),
        (blocker_cols >= 0, blocker_cols, -1.0),
    )
    indptr = np.zeros(rusher_cols.shape[0] + 1, dtype=np.intp)
    np.cumsum(sum(present.astype(np.intp) for present, _, _ in parts), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.intp)
    data = np.empty(indptr[-1])
    slot = indptr[:-1].copy()
    for present, cols, value in parts:
        at = slot[present]
        indices[at] = cols if np.isscalar(cols) else cols[present]
        data[at] = value
        slot += present
    return sp.csr_matrix((data, indices, indptr), shape=(rusher_cols.shape[0], n_columns))


def codes_from_csr(
    X: sp.spmatrix, n_rushers: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of ``csr_from_codes``: each row's rusher and blocker column
    (-1 when the row has none) and its double-team flag.

    A row must hold 1 in the intercept column, 0 or 1 in the double-team
    column, at most one +1 among the ``n_rushers`` rusher columns and at
    most one -1 among the blocker columns after them.  Without
    ``n_rushers``, the rusher columns are those before the first column
    that holds a -1.  Raises ``DataError`` naming the first row of any
    other form.
    """
    X = sp.csr_matrix(X, dtype=float, copy=True)
    X.sum_duplicates()
    X.eliminate_zeros()
    n = X.shape[0]
    row = np.repeat(np.arange(n), np.diff(X.indptr))
    col, val = X.indices, X.data
    if n_rushers is None:
        n_rushers = int(col[(col > DOUBLE_TEAM_COL) & (val == -1.0)].min(initial=X.shape[1])) - 2
    role = np.select(
        [col == INTERCEPT_COL, col == DOUBLE_TEAM_COL, col < 2 + n_rushers], [0, 1, 2], 3
    )
    bad = np.bincount(row, weights=val != np.array([1.0, 1.0, 1.0, -1.0])[role], minlength=n) > 0
    per_role = np.bincount(4 * row + role, minlength=4 * n).reshape(n, 4)
    bad |= (per_role[:, 0] != 1) | (per_role[:, 1:] > 1).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        span = slice(X.indptr[i], X.indptr[i + 1])
        entries = {int(c): float(v) for c, v in zip(col[span], val[span])}
        raise DataError(
            f"design row {i} is not a paired comparison (intercept 1, double team 0 or 1, "
            f"+1 on at most one rusher, -1 on at most one blocker): entries {entries}"
        )
    rusher_cols = np.full(n, -1, dtype=np.intp)
    blocker_cols = np.full(n, -1, dtype=np.intp)
    rusher_cols[row[role == 2]] = col[role == 2]
    blocker_cols[row[role == 3]] = col[role == 3]
    double_team = np.zeros(n, dtype=bool)
    double_team[row[role == 1]] = True
    return rusher_cols, blocker_cols, double_team


def build_matrix(table: InteractionTable, idx: PlayerIndex) -> sp.csr_matrix:
    """One design row per table row over ``idx``'s columns."""
    # column of each vocabulary entry in idx, -1 for players it lacks
    rcols = np.array([idx.rusher_cols.get(p, -1) for p in table.rushers], dtype=np.intp)
    bcols = np.array([idx.blocker_cols.get(p, -1) for p in table.blockers], dtype=np.intp)
    return csr_from_codes(
        rcols[table.rusher], bcols[table.blocker], table.double_team, idx.n_columns
    )


def aggregate_cells(weights: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge rows with equal key tuples; drop cells of zero total weight.

    ``keys`` are nonnegative integer columns.  Returns one representative
    row per cell and the cell's summed weight, cells in key order.
    """
    combined = np.zeros(weights.shape[0], dtype=np.int64)
    for key in keys:
        combined = combined * (int(key.max(initial=0)) + 1) + key
    _, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    totals = np.bincount(inverse, weights=weights, minlength=first.shape[0])
    keep = totals > 0
    return first[keep], totals[keep]


def penalty_mask(idx: PlayerIndex) -> np.ndarray:
    """1.0 on ridge-penalized columns, 0.0 on the intercept.

    Player effects and the double-team coefficient are penalized; the
    intercept is not, which keeps the shrinkage limit calibrated to the
    training base rate.
    """
    mask = np.ones(idx.n_columns)
    mask[INTERCEPT_COL] = 0.0
    return mask


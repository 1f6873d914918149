"""Paired-comparison design: player columns and weighted cells.

Each interaction is one design row with an intercept, the double-team
indicator, +1 on the rusher's column and -1 on the blocker's column.
Rusher and blocker columns are separate blocks even when the same
player appears in both roles.

Column layout: ``[intercept | double_team | rushers... | blockers...]``.

The design is never built as a matrix: the fit layer solves on each
row's rusher, blocker and double-team codes.  Both models share the
design, since the fit layer treats the binary model as the one-class
case of the severity model.  Every fit, cross-validation fold and
bootstrap replicate first merges rows that encode alike into cells
(``aggregate_cells``): rows with equal (rusher, blocker, double_team,
outcome) contribute identical likelihood terms, so one cell row
carrying their summed weight replaces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

INTERCEPT_COL = 0


@dataclass(frozen=True)
class PlayerIndex:
    """Deterministic id-to-column mapping for one training table.

    Ordinals are dense and assigned in sorted-id order, so two tables
    with the same player sets produce identical indexes.
    """

    rusher_cols: dict[str, int]
    blocker_cols: dict[str, int]

    @property
    def n_columns(self) -> int:
        return 2 + len(self.rusher_cols) + len(self.blocker_cols)


def index_from_ids(rushers: Sequence[str], blockers: Sequence[str]) -> PlayerIndex:
    """Index the given sorted rusher and blocker ids, in that order."""
    rusher_cols = {pid: 2 + i for i, pid in enumerate(rushers)}
    blocker_cols = {pid: 2 + len(rushers) + j for j, pid in enumerate(blockers)}
    return PlayerIndex(rusher_cols=rusher_cols, blocker_cols=blocker_cols)


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

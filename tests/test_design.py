import numpy as np
import pytest
import scipy.sparse as sp

from trenchrank.design import (
    DOUBLE_TEAM_COL,
    INTERCEPT_COL,
    PlayerIndex,
    aggregate_cells,
    build_index,
    build_matrix,
    codes_from_csr,
    penalty_mask,
)
from trenchrank.errors import DataError
from trenchrank.interactions import Interaction, InteractionTable

from conftest import make_row, random_table

# ---------------------------------------------------------------------------
# Reference row encoder: one interaction at a time, as (column, value)
# pairs.  build_matrix is checked against it.

#: One encoded row: (column ordinal, value) pairs for the nonzero entries.
SparseRow = list[tuple[int, float]]


def encode_row(x: Interaction, idx: PlayerIndex) -> SparseRow:
    """Encode one interaction; players absent from the index get no column."""
    row: SparseRow = [(INTERCEPT_COL, 1.0)]
    if x.double_team:
        row.append((DOUBLE_TEAM_COL, 1.0))
    rc = idx.rusher_cols.get(x.rusher_id)
    if rc is not None:
        row.append((rc, 1.0))
    bc = idx.blocker_cols.get(x.blocker_id)
    if bc is not None:
        row.append((bc, -1.0))
    return row


def rows_to_csr(rows, n_columns: int) -> sp.csr_matrix:
    """Assemble encoded rows into a CSR matrix."""
    data: list[float] = []
    indices: list[int] = []
    indptr: list[int] = [0]
    for row in rows:
        for col, val in row:
            indices.append(col)
            data.append(val)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data), np.asarray(indices), np.asarray(indptr)),
        shape=(len(indptr) - 1, n_columns),
    )


def linear_predictor(theta, row: SparseRow) -> float:
    """Dot product of a parameter vector with one encoded row."""
    return sum(theta[col] * val for col, val in row)


class TestBuildIndex:
    def test_columns_follow_sorted_ids(self):
        t = InteractionTable(
            [
                make_row(rusher="R2", blocker="B1", idx=0),
                make_row(rusher="R1", blocker="B3", idx=1),
            ]
        )
        idx = build_index(t)
        assert idx.rusher_cols == {"R1": 2, "R2": 3}
        assert idx.blocker_cols == {"B1": 4, "B3": 5}
        assert idx.n_columns == 6

    def test_same_player_set_gives_same_index(self, rng):
        t = random_table(rng)
        reversed_t = InteractionTable(tuple(reversed(t.rows)))
        assert build_index(t) == build_index(reversed_t)

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            build_index(InteractionTable([]))

    def test_json_round_trip(self, rng):
        idx = build_index(random_table(rng))
        assert PlayerIndex.from_json(idx.to_json()) == idx


class TestEncodeRow:
    def test_single_team_row(self):
        t = InteractionTable([make_row()])
        idx = build_index(t)
        row = encode_row(t[0], idx)
        assert row == [(INTERCEPT_COL, 1.0), (2, 1.0), (3, -1.0)]

    def test_double_team_adds_indicator(self):
        t = InteractionTable([make_row(double=True)])
        row = encode_row(t[0], build_index(t))
        assert (DOUBLE_TEAM_COL, 1.0) in row

    def test_unseen_players_contribute_no_columns(self):
        idx = build_index(InteractionTable([make_row()]))
        row = encode_row(make_row(rusher="RX", blocker="BX"), idx)
        assert row == [(INTERCEPT_COL, 1.0)]

    def test_linear_predictor_matches_dense_dot(self, rng):
        t = random_table(rng)
        idx = build_index(t)
        theta = rng.normal(size=idx.n_columns)
        X = build_matrix(t, idx)
        dense = X @ theta
        for i, x in enumerate(t):
            assert linear_predictor(theta, encode_row(x, idx)) == pytest.approx(dense[i])


class TestBuildMatrix:
    def test_shape_and_pattern(self, rng):
        t = random_table(rng)
        idx = build_index(t)
        X = build_matrix(t, idx)
        assert X.shape == (len(t), idx.n_columns)
        dense = X.toarray()
        assert np.all(dense[:, INTERCEPT_COL] == 1.0)
        for i, x in enumerate(t):
            assert dense[i, DOUBLE_TEAM_COL] == float(x.double_team)
            assert dense[i, idx.rusher_cols[x.rusher_id]] == 1.0
            assert dense[i, idx.blocker_cols[x.blocker_id]] == -1.0
            # exactly the expected nonzeros
            assert np.count_nonzero(dense[i]) == 3 + int(x.double_team)

    def test_equals_row_encoder(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=6, n_blockers=5)
        own = build_index(t)
        # an index from part of the table leaves some players unseen
        partial = build_index(InteractionTable(t.rows[:10]))
        for idx in (own, partial):
            got = build_matrix(t, idx)
            want = rows_to_csr([encode_row(x, idx) for x in t], idx.n_columns)
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)

    def test_codes_round_trip(self, rng):
        t = random_table(rng, n_rows=80, n_rushers=6, n_blockers=5)
        partial = build_index(InteractionTable(t.rows[:10]))
        for idx in (build_index(t), partial):
            X = build_matrix(t, idx)
            for n_rushers in (idx.n_rushers, None):
                rusher, blocker, double_team = codes_from_csr(X, n_rushers)
                want = [
                    (idx.rusher_cols.get(x.rusher_id, -1), idx.blocker_cols.get(x.blocker_id, -1),
                     x.double_team)
                    for x in t
                ]
                assert list(zip(rusher.tolist(), blocker.tolist(), double_team.tolist())) == want

    def test_rusher_blocker_blocks_are_disjoint(self, rng):
        t = random_table(rng)
        idx = build_index(t)
        rcols = set(idx.rusher_cols.values())
        bcols = set(idx.blocker_cols.values())
        assert not rcols & bcols
        assert {INTERCEPT_COL, DOUBLE_TEAM_COL} | rcols | bcols == set(range(idx.n_columns))


class TestAggregateCells:
    def test_sums_weights_of_equal_keys_and_drops_empty_cells(self):
        a = np.array([0, 1, 0, 2, 1, 0])
        b = np.array([1, 0, 1, 1, 0, 0])
        w = np.array([1.0, 2.0, 3.0, 0.0, 4.0, 5.0])
        rows, totals = aggregate_cells(w, a, b)
        cells = {(int(a[r]), int(b[r])): t for r, t in zip(rows, totals)}
        assert cells == {(0, 1): 4.0, (1, 0): 6.0, (0, 0): 5.0}


class TestPenaltyMask:
    def test_only_intercept_unpenalized(self, rng):
        idx = build_index(random_table(rng))
        mask = penalty_mask(idx)
        assert mask[INTERCEPT_COL] == 0.0
        assert mask[DOUBLE_TEAM_COL] == 1.0
        assert mask.sum() == idx.n_columns - 1

import json
from collections import Counter

import numpy as np
import pytest

from trenchrank import fit as fit_module
from trenchrank.errors import DataError
from trenchrank.fit import (
    aggregate_cells,
    fit_from_json_dict,
    fit_severity_model,
    fit_to_json_dict,
    fit_win_model,
    predict_win_probs,
)

from conftest import (
    design_matrix,
    fit_cells,
    fit_index,
    make_row,
    penalty_mask,
    random_table,
    rows_of,
    table_index,
    table_of,
    theta_on_index,
)


def cells_index(table):
    """The index a fit of every row of ``table`` builds from its cells."""
    return fit_cells(table, np.ones(len(table)), "win")[3]


class TestBuildIndex:
    """The player index a table fit builds over its cells."""

    def test_columns_follow_sorted_ids(self):
        t = table_of(
            [
                make_row(rusher="R2", blocker="B1", idx=0),
                make_row(rusher="R1", blocker="B3", idx=1),
            ]
        )
        idx = cells_index(t)
        assert idx.rusher_cols == {"R1": 2, "R2": 3}
        assert idx.blocker_cols == {"B1": 4, "B3": 5}
        assert idx.n_columns == 6
        assert idx == table_index(t)

    def test_same_player_set_gives_same_index(self, rng):
        t = random_table(rng)
        reversed_t = table_of(tuple(reversed(rows_of(t))))
        assert cells_index(t) == cells_index(reversed_t)

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            fit_win_model(table_of([]), 0.1)

    def test_json_round_trip(self, rng):
        # a fit's JSON keeps the index it was fit on and each column's parameters
        t = random_table(rng)
        idx = cells_index(t)
        for fit in (fit_win_model(t, 0.3), fit_severity_model(t, 0.3)):
            back = fit_from_json_dict(json.loads(json.dumps(fit_to_json_dict(fit))))
            assert fit_index(back) == fit_index(fit) == idx
            assert np.array_equal(back.theta, fit.theta)
            assert np.array_equal(theta_on_index(back, idx), theta_on_index(fit, idx))


class TestEncodeRow:
    """The reference design of ``conftest.design_matrix``."""

    def test_single_team_row(self):
        t = table_of([make_row()])
        row = design_matrix(t, table_index(t)).toarray()[0]
        assert row.tolist() == [1.0, 0.0, 1.0, -1.0]

    def test_double_team_adds_indicator(self):
        t = table_of([make_row(double=True)])
        row = design_matrix(t, table_index(t)).toarray()[0]
        assert row.tolist() == [1.0, 1.0, 1.0, -1.0]

    def test_unseen_players_contribute_no_columns(self):
        idx = table_index(table_of([make_row()]))
        X = design_matrix(table_of([make_row(rusher="RX", blocker="BX")]), idx)
        assert X.toarray()[0].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_linear_predictor_matches_dense_dot(self, rng):
        # the reference design and the vectorized predictor encode rows alike
        t = random_table(rng)
        idx = table_index(t)
        fit = fit_win_model(t, 0.3)
        eta = design_matrix(t, idx) @ theta_on_index(fit, idx)[0]
        np.testing.assert_allclose(1.0 / (1.0 + np.exp(-eta)), predict_win_probs(fit, t),
                                   rtol=1e-13, atol=0)


def solver_rows(design):
    """The cell design as the solver reads it: column j holds the linear
    predictors (``fit._linear_predictors``) of the j-th unit parameter."""
    return np.stack(
        [fit_module._linear_predictors(e[None, :], design)[0] for e in np.eye(design.n_columns)],
        axis=1,
    )


class TestBuildMatrix:
    """The cell design a table fit builds (``fit._cells``)."""

    def test_shape_and_pattern(self, rng):
        t = random_table(rng)
        design, outcome, cell_w, idx = fit_cells(t, np.ones(len(t)), "win")
        X = solver_rows(design)
        assert X.shape == (outcome.size, idx.n_columns) == (cell_w.size, design.n_columns)
        assert np.all(X[:, 0] == 1.0)
        assert set(X[:, 1].tolist()) <= {0.0, 1.0}
        # exactly one rusher entry of +1 and one blocker entry of -1 per cell
        for block, sign in ((X[:, design.rusher_columns], 1.0),
                            (X[:, 2 + design.n_rushers :], -1.0)):
            assert np.all(np.count_nonzero(block, axis=1) == 1)
            assert np.all(block.sum(axis=1) == sign)
        assert cell_w.sum() == len(t)

    def test_equals_row_encoder(self, rng):
        # each cell is a distinct reference row and outcome, weighted by its rows
        t = random_table(rng, n_rows=80, n_rushers=6, n_blockers=5)
        w = rng.integers(0, 3, len(t)).astype(float)
        for model, target in (("win", t.win), ("severity", t.severity)):
            design, outcome, cell_w, idx = fit_cells(t, w, model)
            want = Counter()
            for row, y, k in zip(design_matrix(t, idx).toarray(), target, w):
                if k:
                    want[(*row.tolist(), int(y))] += k
            got = [(*row.tolist(), int(y)) for row, y in zip(solver_rows(design), outcome)]
            assert len(set(got)) == len(got)
            assert dict(zip(got, cell_w.tolist())) == dict(want)

    def test_codes_round_trip(self, rng):
        # the cells' codes decode, through the index, to the ids of their rows
        t = random_table(rng, n_rows=80, n_rushers=6, n_blockers=5)
        w = rng.integers(0, 3, len(t)).astype(float)
        design, outcome, _, idx = fit_cells(t, w, "severity")
        assert design.n_rushers == len(idx.rusher_cols)
        assert design.n_blockers == len(idx.blocker_cols)
        rushers = sorted(idx.rusher_cols, key=idx.rusher_cols.get)
        blockers = sorted(idx.blocker_cols, key=idx.blocker_cols.get)
        got = set(zip((rushers[r] for r in design.rusher), (blockers[b] for b in design.blocker),
                      design.double_team.astype(bool).tolist(), outcome.tolist()))
        want = {(x.rusher_id, x.blocker_id, x.double_team, int(x.severity))
                for x, k in zip(rows_of(t), w) if k}
        assert got == want

    def test_rusher_blocker_blocks_are_disjoint(self, rng):
        idx = cells_index(random_table(rng))
        rcols = set(idx.rusher_cols.values())
        bcols = set(idx.blocker_cols.values())
        assert not rcols & bcols
        assert {0, 1} | rcols | bcols == set(range(idx.n_columns))


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
        # the cell design carries the penalty layout of the oracles' mask
        t = random_table(rng)
        design, _, _, idx = fit_cells(t, np.ones(len(t)), "severity")
        mask = design.penalty
        assert mask[0] == 0.0
        assert mask[1] == 1.0
        assert mask.sum() == idx.n_columns - 1
        assert np.array_equal(mask, penalty_mask(idx))

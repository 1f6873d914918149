"""Shared fixtures and small-table builders for the test suite."""

import sys

import numpy as np
import pytest

from trenchrank.interactions import Interaction, InteractionTable, OutcomeClass


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts after the main report."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


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
    return InteractionTable(rows)


def rows_by_game(table):
    """Each game's rows, in row order; games in order of their first row."""
    return {table.games[g]: table.take(table.game == g).rows
            for g in dict.fromkeys(table.game.tolist())}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_table(rng):
    return random_table(rng)

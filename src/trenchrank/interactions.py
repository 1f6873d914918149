"""Domain model for blocker-rusher interactions.

Every downstream module works on the same atomic row: one engagement
between a pass rusher and a pass blocker, labeled with a binary win
target (the 2.5-second rule), a four-level outcome class, and a
double-team flag.  Outcome classes are ordered by severity and carry a
scalar weight calibrated from expected-points benchmarks.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError


class OutcomeClass(IntEnum):
    """Outcome of one interaction, from the rusher's perspective.

    The four values are totally ordered by severity:
    ``LOSS < WIN < HIT < SACK``.
    """

    LOSS = 0
    WIN = 1
    HIT = 2
    SACK = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "OutcomeClass":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise DataError(f"unknown outcome class label: {label!r}") from None


#: Classes in severity order; convenient for building probability vectors.
CLASSES: tuple[OutcomeClass, ...] = (
    OutcomeClass.LOSS,
    OutcomeClass.WIN,
    OutcomeClass.HIT,
    OutcomeClass.SACK,
)


@dataclass(frozen=True)
class SeverityWeights:
    """Scalar value per outcome class on the unit interval.

    ``loss`` is anchored at 0 and ``sack`` at 1; the weights must be
    nondecreasing in severity order.  Defaults are the one-decimal
    rounding of the EPA-derived values.
    """

    loss: float = 0.0
    win: float = 0.10
    hit: float = 0.20
    sack: float = 1.00

    def __post_init__(self) -> None:
        if self.loss != 0.0:
            raise ValueError(f"loss weight must be 0, got {self.loss}")
        if self.sack != 1.0:
            raise ValueError(f"sack weight must be 1, got {self.sack}")
        seq = (self.loss, self.win, self.hit, self.sack)
        if any(b < a for a, b in zip(seq, seq[1:])):
            raise ValueError(f"weights must be nondecreasing in severity, got {seq}")

    def weight(self, outcome: OutcomeClass) -> float:
        return (self.loss, self.win, self.hit, self.sack)[int(outcome)]

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.loss, self.win, self.hit, self.sack)


@dataclass(frozen=True, slots=True)
class Interaction:
    """One blocker-rusher engagement: the atomic modeling row.

    ``win_target`` (the 2.5-second distance rule) and ``severity`` (the
    event-priority class) are independent labels; neither is derived
    from the other.
    """

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


@dataclass(frozen=True)
class CodedTable:
    """Integer-coded columns of an interaction table, in row order.

    ``rusher``, ``blocker`` and ``game`` index the sorted id
    vocabularies ``rushers``, ``blockers`` and ``games``; ``win`` is the
    win target as 0.0/1.0 and ``severity`` the outcome class as an
    integer.  The arrays are read-only, since one view is shared by
    every reader of its table.
    """

    rushers: tuple[str, ...]
    blockers: tuple[str, ...]
    games: tuple[str, ...]
    rusher: np.ndarray
    blocker: np.ndarray
    game: np.ndarray
    week: np.ndarray
    double_team: np.ndarray
    win: np.ndarray
    severity: np.ndarray

    def __len__(self) -> int:
        return self.rusher.shape[0]

    def take(self, rows: np.ndarray) -> "CodedTable":
        """The selected rows (an index or boolean array), same vocabularies."""
        return CodedTable(
            self.rushers, self.blockers, self.games,
            *(_frozen(getattr(self, name)[rows]) for name in _CODED_COLUMNS),
        )


_CODED_COLUMNS = ("rusher", "blocker", "game", "week", "double_team", "win", "severity")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _codes(ids: Iterable[str], vocab: tuple[str, ...], n: int) -> np.ndarray:
    lookup = {v: i for i, v in enumerate(vocab)}
    return np.fromiter((lookup[v] for v in ids), dtype=np.intp, count=n)


class InteractionTable:
    """Ordered, immutable collection of interactions.

    Derived id sets (rushers, blockers, games, plays) and the coded
    column view are computed lazily and cached; the table itself is
    safe to share across concurrent readers.
    """

    def __init__(self, rows: Iterable[Interaction]):
        self._rows: tuple[Interaction, ...] = tuple(rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self._rows)

    def __getitem__(self, i):
        return self._rows[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, InteractionTable) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"InteractionTable({len(self._rows)} rows)"

    @property
    def rows(self) -> tuple[Interaction, ...]:
        return self._rows

    @cached_property
    def rushers(self) -> tuple[str, ...]:
        return tuple(sorted({r.rusher_id for r in self._rows}))

    @cached_property
    def blockers(self) -> tuple[str, ...]:
        return tuple(sorted({r.blocker_id for r in self._rows}))

    @cached_property
    def games(self) -> tuple[str, ...]:
        return tuple(sorted({r.game_id for r in self._rows}))

    @cached_property
    def plays(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted({(r.game_id, r.play_id) for r in self._rows}))

    @cached_property
    def rows_by_game(self) -> Mapping[str, tuple[Interaction, ...]]:
        grouped: dict[str, list[Interaction]] = {}
        for r in self._rows:
            grouped.setdefault(r.game_id, []).append(r)
        return {g: tuple(rs) for g, rs in grouped.items()}

    @cached_property
    def coded(self) -> CodedTable:
        rows, n = self._rows, len(self._rows)
        return CodedTable(
            rushers=self.rushers,
            blockers=self.blockers,
            games=self.games,
            rusher=_frozen(_codes((r.rusher_id for r in rows), self.rushers, n)),
            blocker=_frozen(_codes((r.blocker_id for r in rows), self.blockers, n)),
            game=_frozen(_codes((r.game_id for r in rows), self.games, n)),
            week=_frozen(np.fromiter((r.week for r in rows), dtype=np.intp, count=n)),
            double_team=_frozen(np.fromiter((r.double_team for r in rows), dtype=bool, count=n)),
            win=_frozen(np.fromiter((r.win_target for r in rows), dtype=float, count=n)),
            severity=_frozen(np.fromiter((r.severity for r in rows), dtype=np.intp, count=n)),
        )

    def is_canonically_sorted(self) -> bool:
        rows = self._rows
        return all(rows[i].sort_key() <= rows[i + 1].sort_key() for i in range(len(rows) - 1))


@dataclass(frozen=True)
class TableSummary:
    """Distinct-key counts plus the double-team rate.

    ``double_team_rate`` is ``None`` for an empty table (undefined
    rather than an error, so pipelines can probe filters).
    """

    interactions: int
    plays: int
    games: int
    rushers: int
    blockers: int
    double_team_rate: float | None


def label_outcome(has_sack: bool, has_hit: bool, has_win: bool) -> OutcomeClass:
    """Most severe realized class; LOSS when no event flag is set."""
    if has_sack:
        return OutcomeClass.SACK
    if has_hit:
        return OutcomeClass.HIT
    if has_win:
        return OutcomeClass.WIN
    return OutcomeClass.LOSS


def default_severity_weights() -> SeverityWeights:
    """The rounded one-decimal weight scale: (0, 0.10, 0.20, 1.00)."""
    return SeverityWeights()


def derive_weight_from_epa(
    epa_no_pressure: float, epa_outcome: float, epa_sack: float
) -> float:
    """Rescale an outcome's EPA benchmark to the unit interval.

    Maps the no-pressure benchmark to 0 and the sack benchmark to 1:
    ``(epa_no_pressure - epa_outcome) / (epa_no_pressure - epa_sack)``.
    """
    denom = epa_no_pressure - epa_sack
    if denom == 0:
        raise ValueError(
            "degenerate EPA anchors: no-pressure and sack benchmarks are equal "
            f"({epa_no_pressure})"
        )
    return (epa_no_pressure - epa_outcome) / denom


def class_frequencies(table: InteractionTable) -> dict[OutcomeClass, float]:
    """Empirical outcome-class proportions over a nonempty table."""
    n = len(table)
    if n == 0:
        raise DataError("class_frequencies requires a nonempty table")
    counts = [0, 0, 0, 0]
    for row in table:
        counts[int(row.severity)] += 1
    return {c: counts[int(c)] / n for c in CLASSES}


def canonical_sort(table: InteractionTable) -> InteractionTable:
    """Stable sort by (game_id, play_id, event_game_index)."""
    return InteractionTable(sorted(table, key=Interaction.sort_key))


def summarize(table: InteractionTable) -> TableSummary:
    """Distinct-key counts and the mean of the double-team flag."""
    n = len(table)
    if n == 0:
        return TableSummary(0, 0, 0, 0, 0, None)
    return TableSummary(
        interactions=n,
        plays=len(table.plays),
        games=len(table.games),
        rushers=len(table.rushers),
        blockers=len(table.blockers),
        double_team_rate=sum(r.double_team for r in table) / n,
    )


INTERACTION_CSV_HEADER = [
    "game_id",
    "play_id",
    "event_game_index",
    "week",
    "rusher_id",
    "blocker_id",
    "double_team",
    "win_target",
    "severity",
]


def _parse_bool01(value: str, field: str) -> bool:
    if value == "0":
        return False
    if value == "1":
        return True
    raise DataError(f"{field} must be 0 or 1, got {value!r}")


def read_interactions_csv(path) -> InteractionTable:
    """Load an interaction table from its CSV schema (header required).

    Keys ``(game_id, play_id, event_game_index)`` must be unique: the
    ordered split and the bootstrap's copy order rely on it.
    """
    rows: list[Interaction] = []
    linenos = array("l")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != INTERACTION_CSV_HEADER:
            raise DataError(
                f"{path}: expected header {INTERACTION_CSV_HEADER}, got {header}"
            )
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(INTERACTION_CSV_HEADER):
                raise DataError(f"{path}:{lineno}: expected {len(INTERACTION_CSV_HEADER)} fields")
            try:
                rows.append(
                    Interaction(
                        game_id=rec[0],
                        play_id=rec[1],
                        event_game_index=int(rec[2]),
                        week=int(rec[3]),
                        rusher_id=rec[4],
                        blocker_id=rec[5],
                        double_team=_parse_bool01(rec[6], "double_team"),
                        win_target=_parse_bool01(rec[7], "win_target"),
                        severity=OutcomeClass.from_label(rec[8]),
                    )
                )
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            linenos.append(lineno)
    # checked after the read, so the key tuples are allocated and freed
    # together rather than interleaved with the rows that stay alive
    first_row: dict[tuple[str, str, int], int] = {}
    for i, row in enumerate(rows):
        j = first_row.setdefault(row.sort_key(), i)
        if j != i:
            raise DataError(
                f"{path}:{linenos[i]}: duplicate key (game_id, play_id, event_game_index) "
                f"= {row.sort_key()}, first seen on line {linenos[j]}"
            )
    return InteractionTable(rows)


def write_interactions_csv(table: InteractionTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INTERACTION_CSV_HEADER)
        for r in table:
            writer.writerow(
                [
                    r.game_id,
                    r.play_id,
                    r.event_game_index,
                    r.week,
                    r.rusher_id,
                    r.blocker_id,
                    int(r.double_team),
                    int(r.win_target),
                    r.severity.label,
                ]
            )

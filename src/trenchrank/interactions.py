"""Domain model for blocker-rusher interactions.

Every downstream module works on the same atomic row: one engagement
between a pass rusher and a pass blocker, labeled with a binary win
target (the 2.5-second rule), a four-level outcome class, and a
double-team flag.  Outcome classes are ordered by severity and carry a
scalar weight calibrated from expected-points benchmarks.

An ``InteractionTable`` is one set of read-only columns: integer codes
into sorted game, play, rusher and blocker id vocabularies, and the
numeric fields.  Fits, baselines, splits and the bootstrap read the
columns; an ``Interaction`` is decoded only for a caller that asks for
a row.  The CSV reader, ``tracking.build_interactions`` and the
synthetic generator build the columns directly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import compress, islice, repeat
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


#: Code columns of a table, each with its vocabulary and ``Interaction`` field.
_ID_COLUMNS = {
    "game": ("games", "game_id"),
    "play": ("play_ids", "play_id"),
    "rusher": ("rushers", "rusher_id"),
    "blocker": ("blockers", "blocker_id"),
}
#: The other columns, each with its dtype and ``Interaction`` field.
_VALUE_COLUMNS = {
    "event_game_index": (np.intp, "event_game_index"),
    "week": (np.intp, "week"),
    "double_team": (bool, "double_team"),
    "win": (float, "win_target"),
    "severity": (np.intp, "severity"),
}


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _factorize(values) -> tuple[tuple, np.ndarray]:
    """Sorted distinct values and each value's int64 code into them."""
    vocab = tuple(sorted(set(values)))
    index = {v: i for i, v in enumerate(vocab)}
    return vocab, np.fromiter(map(index.__getitem__, values), np.int64, len(values))


def _compact(vocab: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """``vocab`` cut to the entries ``codes`` use, and the codes into the cut one."""
    used = np.zeros(len(vocab), dtype=bool)
    used[codes] = True
    if used.all():
        return vocab, codes
    return tuple(compress(vocab, used.tolist())), (np.cumsum(used) - 1)[codes]


def _decoded(vocab: Sequence, codes: np.ndarray) -> list:
    return list(map(vocab.__getitem__, codes.tolist()))


def _fields(table: "InteractionTable", flag_type, classes: Sequence) -> list[list]:
    """The rows' fields as lists, in ``Interaction`` order, the two flags
    converted to ``flag_type`` and the class codes looked up in ``classes``."""
    game, play, rusher, blocker = (
        _decoded(getattr(table, v), getattr(table, c)) for c, (v, _) in _ID_COLUMNS.items()
    )
    return [
        game, play, table.event_game_index.tolist(), table.week.tolist(), rusher, blocker,
        table.double_team.astype(flag_type).tolist(), table.win.astype(flag_type).tolist(),
        _decoded(classes, table.severity),
    ]


class InteractionTable:
    """Ordered, immutable interaction table, stored as read-only columns.

    ``game``, ``play``, ``rusher`` and ``blocker`` hold each row's code
    into the sorted vocabularies ``games``, ``play_ids``, ``rushers`` and
    ``blockers``, which list exactly the ids present in the rows, so
    codes order rows as their ids do.  ``event_game_index``, ``week`` and
    ``double_team`` are the fields of those names, ``win`` is the win
    target as 0.0/1.0 and ``severity`` the outcome class as an integer.

    ``InteractionTable(rows)`` encodes ``Interaction`` values; indexing,
    iteration and ``rows`` decode them, and ``==`` compares decoded
    rows.  The table is safe to share across concurrent readers.
    """

    def __init__(self, rows: Iterable[Interaction] = ()):
        rows = tuple(rows)
        self._set({
            **{c: _factorize([getattr(r, f) for r in rows]) for c, (_, f) in _ID_COLUMNS.items()},
            **{c: [getattr(r, f) for r in rows] for c, (_, f) in _VALUE_COLUMNS.items()},
        })

    @classmethod
    def from_columns(cls, **columns) -> "InteractionTable":
        """A table from its columns, by name: each code column as a pair of
        a sorted tuple of distinct ids and each row's index into it (ids
        no row uses are dropped), each other column as an array.

        The values must be valid ``Interaction`` fields.
        """
        table = cls.__new__(cls)
        table._set(columns)
        return table

    def _set(self, columns: Mapping[str, Sequence]) -> None:
        for column, (vocab_name, _) in _ID_COLUMNS.items():
            vocab, codes = _compact(*columns[column])
            setattr(self, vocab_name, vocab)
            setattr(self, column, _frozen(np.asarray(codes, dtype=np.intp).view()))
        for column, (dtype, _) in _VALUE_COLUMNS.items():
            setattr(self, column, _frozen(np.asarray(columns[column], dtype=dtype).view()))

    def take(self, rows) -> "InteractionTable":
        """The selected rows (an index or boolean array, or a slice), with
        each vocabulary cut to the ids they hold."""
        return InteractionTable.from_columns(
            **{c: (getattr(self, v), getattr(self, c)[rows]) for c, (v, _) in _ID_COLUMNS.items()},
            **{c: getattr(self, c)[rows] for c in _VALUE_COLUMNS},
        )

    def __len__(self) -> int:
        return len(self.game)

    @property
    def rows(self) -> tuple[Interaction, ...]:
        """Every row, decoded."""
        return tuple(map(Interaction, *_fields(self, bool, CLASSES)))

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self.rows)

    def __getitem__(self, i: int) -> Interaction:
        return self.take([i]).rows[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, InteractionTable) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"InteractionTable({len(self)} rows)"

    @cached_property
    def plays(self) -> tuple[tuple[str, str], ...]:
        n = len(self.play_ids)
        pairs = np.unique(self.game * n + self.play).tolist()
        return tuple((self.games[p // n], self.play_ids[p % n]) for p in pairs)

    def is_canonically_sorted(self) -> bool:
        order = _canonical_order(self)
        return bool(np.array_equal(order, np.arange(len(order))))


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
    counts = np.bincount(table.severity, minlength=len(CLASSES)).tolist()
    return {c: counts[int(c)] / n for c in CLASSES}


def _canonical_order(table: InteractionTable) -> np.ndarray:
    return np.lexsort((table.event_game_index, table.play, table.game))


def canonical_sort(table: InteractionTable) -> InteractionTable:
    """Stable sort by (game_id, play_id, event_game_index)."""
    return table.take(_canonical_order(table))


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
        double_team_rate=int(np.count_nonzero(table.double_team)) / n,
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

_LABEL_CODES = {c.label: int(c) for c in CLASSES}
# records per block of the CSV reader: large enough to convert columns in
# bulk, small enough that a block's field strings stay near 1 MB
_READ_BLOCK = 1 << 11


def _parse_bool01(value: str, field: str) -> bool:
    if value == "0":
        return False
    if value == "1":
        return True
    raise DataError(f"{field} must be 0 or 1, got {value!r}")


def _decimal(kind, text: str, field: str):
    """``kind(text)``, refusing the underscores and non-ASCII digits
    that Python accepts and ``np.loadtxt`` does not."""
    value = kind(text)
    if "_" in text or not text.isascii():
        raise ValueError(
            f"{field} must be written in ASCII digits without underscores, got {text!r}"
        )
    return value


def _parse_record(path, lineno: int, rec: list[str]) -> Interaction:
    if len(rec) != len(INTERACTION_CSV_HEADER):
        raise DataError(f"{path}:{lineno}: expected {len(INTERACTION_CSV_HEADER)} fields")
    try:
        return Interaction(
            game_id=rec[0],
            play_id=rec[1],
            event_game_index=_decimal(int, rec[2], "event_game_index"),
            week=_decimal(int, rec[3], "week"),
            rusher_id=rec[4],
            blocker_id=rec[5],
            double_team=_parse_bool01(rec[6], "double_team"),
            win_target=_parse_bool01(rec[7], "win_target"),
            severity=OutcomeClass.from_label(rec[8]),
        )
    except (ValueError, DataError) as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from exc


def _plain_counts(texts: Sequence[str]) -> bool:
    """Every text is 1-18 ASCII digits, so ``int`` reads each into an int64."""
    joined = "".join(texts)
    return (joined.isascii() and joined.isdigit() and "" not in texts
            and max(map(len, texts)) <= 18)


# how a block in the written form converts each value field's text
_FROM_TEXT = {"event_game_index": int, "week": int, "double_team": "1".__eq__,
              "win_target": "1".__eq__, "severity": _LABEL_CODES.__getitem__}


def _parse_block(path, lines: np.ndarray, recs: list[list[str]]) -> InteractionTable:
    """One block of records, read from ``lines``, as a table.

    A block in the form ``write_interactions_csv`` writes is converted
    column by column.  Any other block is parsed record by record, which
    accepts every spelling the schema allows and raises the first bad
    record's error.
    """
    cols = dict(zip(INTERACTION_CSV_HEADER, zip(*recs)))
    if (
        set(map(len, recs)) == {len(INTERACTION_CSV_HEADER)}
        and _plain_counts(cols["event_game_index"])
        and _plain_counts(cols["week"])
        and {"0", "1"}.issuperset(cols["double_team"] + cols["win_target"])
        and _LABEL_CODES.keys() >= set(cols["severity"])
    ):
        table = InteractionTable.from_columns(
            **{c: _factorize(cols[f]) for c, (_, f) in _ID_COLUMNS.items()},
            **{c: np.fromiter(map(_FROM_TEXT[f], cols[f]), dtype, len(recs))
               for c, (dtype, f) in _VALUE_COLUMNS.items()},
        )
        if table.week.min() >= 1:
            return table
    return InteractionTable(map(_parse_record, repeat(path), lines.tolist(), recs))


def _concat(tables: Sequence[InteractionTable]) -> InteractionTable:
    """The rows of ``tables`` in order, as one table."""
    columns = {c: np.concatenate([getattr(t, c) for t in tables]) for c in _VALUE_COLUMNS}
    for column, (vocab_name, _) in _ID_COLUMNS.items():
        vocabs = [getattr(t, vocab_name) for t in tables]
        # each table's vocabulary entries, coded into the merged vocabulary
        vocab, codes = _factorize([v for vs in vocabs for v in vs])
        starts = np.cumsum([0] + [len(vs) for vs in vocabs])
        columns[column] = vocab, np.concatenate(
            [codes[start:][getattr(t, column)] for t, start in zip(tables, starts)]
        )
    return InteractionTable.from_columns(**columns)


def _check_unique_keys(table: InteractionTable, lines: np.ndarray, path) -> None:
    """A repeated (game_id, play_id, event_game_index) is a DataError naming
    the first repeating row's line and the line of its key's first row."""
    order = _canonical_order(table)
    keys = np.stack([table.game, table.play, table.event_game_index])
    repeats = order[1:][(keys[:, order[1:]] == keys[:, order[:-1]]).all(axis=0)]
    if repeats.size:
        i = repeats.min()
        j = np.argmax((keys == keys[:, i:i + 1]).all(axis=0))
        key = (table.games[table.game[i]], table.play_ids[table.play[i]],
               int(table.event_game_index[i]))
        raise DataError(
            f"{path}:{lines[i]}: duplicate key (game_id, play_id, event_game_index) "
            f"= {key}, first seen on line {lines[j]}"
        )


def read_interactions_csv(path) -> InteractionTable:
    """Load an interaction table from its CSV schema (header required).

    Records are read in blocks and converted to columns without a
    per-row object.  An error names the first bad record's line.  Keys
    ``(game_id, play_id, event_game_index)`` must be unique: the
    ordered split and the bootstrap's copy order rely on it.
    """
    blocks: list[InteractionTable] = [InteractionTable()]
    lines: list[np.ndarray] = [np.empty(0, dtype=np.intp)]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != INTERACTION_CSV_HEADER:
            raise DataError(
                f"{path}: expected header {INTERACTION_CSV_HEADER}, got {header}"
            )
        start = 2  # the line of the next record
        while recs := list(islice(reader, _READ_BLOCK)):
            block_lines = np.arange(start, start + len(recs))
            start += len(recs)
            if not all(recs):  # skip blank lines
                kept = list(map(bool, recs))
                recs, block_lines = list(compress(recs, kept)), block_lines[kept]
            blocks.append(_parse_block(path, block_lines, recs))
            lines.append(block_lines)
    table = _concat(blocks)
    _check_unique_keys(table, np.concatenate(lines), path)
    return table


def write_interactions_csv(table: InteractionTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INTERACTION_CSV_HEADER)
        writer.writerows(zip(*_fields(table, np.intp, [c.label for c in CLASSES])))

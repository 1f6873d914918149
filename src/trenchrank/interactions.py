"""Domain model for blocker-rusher interactions.

Every downstream module works on the same atomic row: one engagement
between a pass rusher and a pass blocker, labeled with a binary win
target (the 2.5-second rule), a four-level outcome class, and a
double-team flag.  Outcome classes are ordered by severity and carry a
scalar weight calibrated from expected-points benchmarks.

An ``InteractionTable`` is one set of read-only columns: integer codes
into sorted game, play, rusher and blocker id vocabularies, and the
numeric fields.  There is no row object: fits, baselines, splits and the
bootstrap read the columns, and the CSV reader,
``tracking.build_interactions`` and the synthetic generator build them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import compress, islice
from typing import NoReturn, Sequence

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


#: Code columns of a table, each with its vocabulary and CSV field.
_ID_COLUMNS = {
    "game": ("games", "game_id"),
    "play": ("play_ids", "play_id"),
    "rusher": ("rushers", "rusher_id"),
    "blocker": ("blockers", "blocker_id"),
}
#: The other columns, each with its dtype and CSV field.
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
    """The rows' fields as lists, in CSV order, the two flags converted to
    ``flag_type`` and the class codes looked up in ``classes``."""
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
    codes order rows as their ids do.  ``event_game_index`` (>= 0),
    ``week`` (>= 1) and ``double_team`` are the fields of those names,
    ``win`` is the win target as 0.0/1.0 and ``severity`` the outcome
    class as an integer.  The win target (the 2.5-second distance rule)
    and the outcome class (the event-priority class) are independent
    labels; neither is derived from the other.

    The constructor takes the columns by name: each code column as a pair
    of a sorted tuple of distinct ids and each row's index into it (ids
    no row uses are dropped), each other column as an array.  ``==``
    compares vocabularies and columns.  The table is safe to share across
    concurrent readers.
    """

    def __init__(self, **columns) -> None:
        for column, (vocab_name, _) in _ID_COLUMNS.items():
            vocab, codes = _compact(*columns[column])
            setattr(self, vocab_name, vocab)
            setattr(self, column, _frozen(np.asarray(codes, dtype=np.intp).view()))
        for column, (dtype, _) in _VALUE_COLUMNS.items():
            setattr(self, column, _frozen(np.asarray(columns[column], dtype=dtype).view()))

    def take(self, rows) -> "InteractionTable":
        """The selected rows (an index or boolean array, or a slice), with
        each vocabulary cut to the ids they hold."""
        return InteractionTable(
            **{c: (getattr(self, v), getattr(self, c)[rows]) for c, (v, _) in _ID_COLUMNS.items()},
            **{c: getattr(self, c)[rows] for c in _VALUE_COLUMNS},
        )

    def __len__(self) -> int:
        return len(self.game)

    def __eq__(self, other) -> bool:
        # vocabularies hold exactly the ids in use, so equal vocabularies
        # and equal codes mean equal ids row by row
        return (
            isinstance(other, InteractionTable)
            and all(getattr(self, v) == getattr(other, v) for v, _ in _ID_COLUMNS.values())
            and all(np.array_equal(getattr(self, c), getattr(other, c))
                    for c in (*_ID_COLUMNS, *_VALUE_COLUMNS))
        )

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

# records per block of the CSV reader: large enough to convert columns in
# bulk, small enough that a block's field strings stay near 1 MB
_READ_BLOCK = 1 << 11
_INT64 = np.iinfo(np.int64)


def _parse_bool01(value: str, field: str) -> bool:
    if value == "0":
        return False
    if value == "1":
        return True
    raise DataError(f"{field} must be 0 or 1, got {value!r}")


def _decimal(kind, text: str, field: str):
    """``kind(text)``, refusing the underscores and non-ASCII digits
    that Python accepts and ``np.loadtxt`` does not."""
    try:
        value = kind(text)
    except ValueError:
        # int's and float's own text names neither the field nor the rule
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{field} must be {what}, got {text!r}") from None
    if "_" in text or not text.isascii():
        raise ValueError(
            f"{field} must be written in ASCII digits without underscores, got {text!r}"
        )
    return value


def _int64(text: str, field: str) -> int:
    """``_decimal(int, text, field)``, refusing a value beyond int64."""
    value = _decimal(int, text, field)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{field} does not fit in a 64-bit integer, got {text!r}")
    return value


def _raise_first(parse, texts: Sequence[str], field: str) -> NoReturn:
    """The error ``parse(text, field)`` raises on the first text it rejects."""
    for text in texts:
        parse(text, field)
    raise AssertionError(f"no bad {field} text")


# Column converters: each converts every text of one CSV field at once, or
# raises the error of the first text the schema rejects.


def _int_column(texts: Sequence[str], field: str) -> np.ndarray:
    """Each text as an int64, read as ``_int64`` reads it."""
    joined = "".join(texts)
    if "_" not in joined and joined.isascii():
        try:
            return np.fromiter(map(int, texts), np.int64, len(texts))
        except (ValueError, OverflowError):
            pass
    _raise_first(_int64, texts, field)


def _flag_column(texts: Sequence[str], field: str) -> np.ndarray:
    """Each text, "0" or "1", as a bool."""
    if not {"0", "1"}.issuperset(texts):
        _raise_first(_parse_bool01, texts, field)
    return np.fromiter(map("1".__eq__, texts), bool, len(texts))


def _class_column(texts: Sequence[str], field: str) -> np.ndarray:
    """Each outcome class label (in any case or padding) as its class
    code; each distinct label is read once."""
    codes = {label: int(OutcomeClass.from_label(label)) for label in dict.fromkeys(texts)}
    return np.fromiter(map(codes.__getitem__, texts), np.intp, len(texts))


# the converter of each value column's CSV field
_FROM_TEXT = {"event_game_index": _int_column, "week": _int_column,
              "double_team": _flag_column, "win": _flag_column, "severity": _class_column}


def _value_columns(fields: dict[str, Sequence[str]]) -> dict[str, np.ndarray]:
    """The value columns read from ``fields`` (each CSV field's texts).

    A bad value raises the error of the first field, in CSV order, that
    holds one, and only then a value below its column's least; on one
    record's fields, that is the error a record-by-record read meets first.
    """
    columns = {c: _FROM_TEXT[c](fields[f], f) for c, (_, f) in _VALUE_COLUMNS.items()}
    for column, least in (("event_game_index", 0), ("week", 1)):
        low = columns[column] < least
        if low.any():
            raise ValueError(f"{column} must be >= {least}, got {columns[column][low.argmax()]}")
    return columns


def _line(path, record: int) -> int:
    """The line on which record ``record`` of ``path`` ends (the header is
    record 1): records and lines differ past a quoted field's line break."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(islice(reader, record - 1, None))
        return reader.line_num


def _raise_record_error(path, records: np.ndarray, recs: list[list[str]]) -> NoReturn:
    """The first bad record's first error, naming its line."""
    width = len(INTERACTION_CSV_HEADER)
    for record, rec in zip(records.tolist(), recs):
        if len(rec) != width:
            raise DataError(f"{path}:{_line(path, record)}: expected {width} fields")
        try:
            _value_columns({f: (text,) for f, text in zip(INTERACTION_CSV_HEADER, rec)})
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}:{_line(path, record)}: {exc}") from exc
    raise AssertionError("no bad record in the block")


def _parse_block(path, records: np.ndarray, recs: list[list[str]]) -> InteractionTable:
    """One block of records, numbered ``records``, as a table.

    Each column is converted in bulk, accepting every spelling the schema
    allows.  A block that fails a check is walked record by record to
    raise the first bad record's error.
    """
    width = len(INTERACTION_CSV_HEADER)
    if set(map(len, recs)) <= {width}:
        fields = dict(zip(INTERACTION_CSV_HEADER, list(zip(*recs)) or [()] * width))
        try:
            values = _value_columns(fields)
        except (ValueError, DataError):
            pass
        else:
            return InteractionTable(
                **{c: _factorize(fields[f]) for c, (_, f) in _ID_COLUMNS.items()}, **values
            )
    _raise_record_error(path, records, recs)


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
    return InteractionTable(**columns)


def _check_unique_keys(table: InteractionTable, records: np.ndarray, path) -> None:
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
            f"{path}:{_line(path, records[i])}: duplicate key (game_id, play_id, "
            f"event_game_index) = {key}, first seen on line {_line(path, records[j])}"
        )


def read_interactions_csv(path) -> InteractionTable:
    """Load an interaction table from its CSV schema (header required).

    Records are read in blocks, and each block's fields are converted
    column by column.  An error names the first bad record's line.  Keys
    ``(game_id, play_id, event_game_index)`` must be unique: the
    ordered split and the bootstrap's copy order rely on it.
    """
    records: list[np.ndarray] = [np.empty(0, dtype=np.intp)]
    blocks = [_parse_block(path, records[0], [])]  # a file of no records is an empty table
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != INTERACTION_CSV_HEADER:
            raise DataError(
                f"{path}: expected header {INTERACTION_CSV_HEADER}, got {header}"
            )
        start = 2  # the number of the next record
        while recs := list(islice(reader, _READ_BLOCK)):
            numbers = np.arange(start, start + len(recs))
            start += len(recs)
            if not all(recs):  # skip blank lines
                kept = list(map(bool, recs))
                recs, numbers = list(compress(recs, kept)), numbers[kept]
            blocks.append(_parse_block(path, numbers, recs))
            records.append(numbers)
    table = _concat(blocks)
    _check_unique_keys(table, np.concatenate(records), path)
    return table


def write_interactions_csv(table: InteractionTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INTERACTION_CSV_HEADER)
        writer.writerows(zip(*_fields(table, np.intp, [c.label for c in CLASSES])))

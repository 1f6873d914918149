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

Every input CSV (interactions, tracking, events, engagements, schedule
and accolades) is read as UTF-8 by one block reader, ``_read_blocks``,
which converts each block of records column by column with the
converters defined here and names the line of the first bad record.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, partial
from itertools import compress, count, islice
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


# records per block of the CSV reader: large enough to convert columns in
# bulk, small enough that a block's field strings stay near 1 MB
_READ_BLOCK = 1 << 11
_INT64 = np.iinfo(np.int64)
# what the "surrogateescape" handler decodes each byte that is not UTF-8 to
_UNDECODED = re.compile("[\udc80-\udcff]")


def _parse_bool01(value: str, field: str) -> bool:
    if value == "0":
        return False
    if value == "1":
        return True
    raise DataError(f"{field} must be 0 or 1, got {value!r}")


def _decimal(kind, text: str, field: str):
    """``kind(text)``, refusing the underscores and non-ASCII digits that
    Python accepts and ``np.loadtxt`` does not, and an int beyond int64."""
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
    if kind is int and not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{field} does not fit in a 64-bit integer, got {text!r}")
    return value


def _raise_first(parse, texts: Sequence[str], field: str) -> NoReturn:
    """The error ``parse(text, field)`` raises on the first text it rejects."""
    for text in texts:
        parse(text, field)
    raise AssertionError(f"no bad {field} text")


def _check_decoded(texts: Sequence[str]) -> None:
    """A text read from bytes that are not UTF-8 is an error naming the
    first such byte."""
    joined = "".join(texts)
    if not joined.isascii() and (bad := _UNDECODED.search(joined)):
        raise DataError(f"byte 0x{ord(bad[0]) - 0xDC00:02x} is not valid UTF-8")


# Column converters: each converts every text of one CSV field at once, or
# raises the error of the first text the schema rejects, which a text read
# from bytes that are not UTF-8 always is.


def _text_column(texts: Sequence[str], field: str) -> Sequence[str]:
    """The texts as they are, as ids are kept."""
    _check_decoded(texts)
    return texts


def _number_column(kind, dtype):
    """The converter of each text to a ``dtype``, read as ``_decimal(kind, ...)`` reads it."""
    def convert(texts: Sequence[str], field: str) -> np.ndarray:
        joined = "".join(texts)
        if "_" not in joined and joined.isascii():
            try:
                return np.fromiter(map(kind, texts), dtype, len(texts))
            except (ValueError, OverflowError):
                pass
        _raise_first(partial(_decimal, kind), texts, field)
    return convert


_int_column = _number_column(int, np.int64)
_float_column = _number_column(float, np.float64)


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


def _check_new(ids: Sequence[str], seen, field: str) -> None:
    """An id of ``ids`` that is in ``seen`` or repeats an earlier one is a
    DataError naming the first."""
    again = np.ones(len(ids), dtype=bool)
    again[np.unique(_factorize(ids)[1], return_index=True)[1]] = False
    again |= np.fromiter(map(seen.__contains__, ids), bool, len(ids))
    if again.any():
        raise DataError(f"duplicate {field} {ids[again.argmax()]!r}")


# ---------------------------------------------------------------------------
# The block reader of every input CSV


def _lines(path, last: int) -> list[int]:
    """The line on which each record of ``path`` up to record ``last`` ends
    (the header is record 1): records and lines differ past a quoted
    field's line break."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        return [reader.line_num for _ in islice(reader, last)]


def _read_blocks(path, converters: dict, check, *, skip_blank: bool = False,
                 bad_header: str = "bad header in {path}: expected {want}, got {got}",
                 bad_width: str = "expected {width} fields"):
    """The data records of the CSV file ``path``, read as UTF-8, as
    ``(columns, records)`` per block of ``_READ_BLOCK`` records: each
    field's column, converted by its entry of ``converters`` (in header
    order) and accepted by ``check``, and each row's record number (the
    header is record 1).  A file of no records yields one empty block.

    An error names the line on which the first bad record ends, in the
    file's own wording of header and field-count errors; ``skip_blank``
    skips blank lines rather than reading records of no fields.
    """
    header, width = list(converters), len(converters)

    def convert(recs):
        # a wrong field count, then the first field in header order that
        # holds a bad value, then check's error: on one record, the error a
        # record-by-record read meets first
        if not set(map(len, recs)) <= {width}:
            got = len(next(rec for rec in recs if len(rec) != width))
            raise DataError(bad_width.format(width=width, got=got))
        fields = list(zip(*recs)) or [()] * width
        columns = {f: to(texts, f) for (f, to), texts in zip(converters.items(), fields)}
        check(columns)
        return columns

    def first_error(recs) -> tuple[int, Exception]:
        # convert rejects every run of records that holds a bad one, so the
        # shortest rejected prefix, found by bisection, ends at the first
        # bad record; a byte in it that is not UTF-8 stops its reading
        good, bad = 0, len(recs)  # recs[:good] converts, recs[:bad] does not
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                convert(recs[:mid])
                good = mid
            except (ValueError, DataError):
                bad = mid
        try:
            _check_decoded(recs[bad - 1])
            convert(recs[:bad])
        except (ValueError, DataError) as exc:
            return bad - 1, exc
        raise AssertionError("no bad record in the block")

    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            try:
                _check_decoded(got or ())
            except DataError as exc:
                raise DataError(f"{path}:{_lines(path, 1)[-1]}: {exc}") from None
            raise DataError(bad_header.format(path=path, want=header, got=got))
        for start in count(2, _READ_BLOCK):
            recs = list(islice(reader, _READ_BLOCK))
            if not recs and start > 2:
                return
            records = np.arange(start, start + len(recs))
            if skip_blank and not all(recs):
                kept = list(map(bool, recs))
                recs, records = list(compress(recs, kept)), records[kept]
            try:
                columns = convert(recs)
            except (ValueError, DataError):
                i, exc = first_error(recs)
                raise DataError(f"{path}:{_lines(path, records[i])[-1]}: {exc}") from exc
            yield columns, records


# the converter of each CSV field, in header order
_CSV_CONVERTERS = {
    "game_id": _text_column, "play_id": _text_column, "event_game_index": _int_column,
    "week": _int_column, "rusher_id": _text_column, "blocker_id": _text_column,
    "double_team": _flag_column, "win_target": _flag_column, "severity": _class_column,
}
INTERACTION_CSV_HEADER = list(_CSV_CONVERTERS)


def _check_least(fields: dict) -> None:
    """An event_game_index below 0 or a week below 1 is an error naming the value."""
    for field, least in (("event_game_index", 0), ("week", 1)):
        low = fields[field] < least
        if low.any():
            raise ValueError(f"{field} must be >= {least}, got {fields[field][low.argmax()]}")


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
            f"{path}:{_lines(path, records[i])[-1]}: duplicate key (game_id, play_id, "
            f"event_game_index) = {key}, first seen on line {_lines(path, records[j])[-1]}"
        )


def read_interactions_csv(path) -> InteractionTable:
    """Load an interaction table from its CSV schema (header required).

    Each block's ids are coded into its own vocabularies before the blocks
    are joined.  Keys ``(game_id, play_id, event_game_index)`` must be
    unique: the ordered split and the bootstrap's copy order rely on it.
    """
    tables, records = [], []
    for fields, numbers in _read_blocks(
        path, _CSV_CONVERTERS, _check_least, skip_blank=True,
        bad_header="{path}: expected header {want}, got {got}",
    ):
        tables.append(InteractionTable(
            **{c: _factorize(fields[f]) for c, (_, f) in _ID_COLUMNS.items()},
            **{c: fields[f] for c, (_, f) in _VALUE_COLUMNS.items()},
        ))
        records.append(numbers)
    table = _concat(tables)
    _check_unique_keys(table, np.concatenate(records), path)
    return table


def write_interactions_csv(table: InteractionTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INTERACTION_CSV_HEADER)
        writer.writerows(zip(*_fields(table, np.intp, [c.label for c in CLASSES])))

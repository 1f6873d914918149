"""Tracking-data ingestion: frames + annotations -> interaction table.

Plays are kept when they contain a forward pass or a sack (dropbacks).
Each engagement on a kept play becomes one interaction:

- win_target: at some frame of the engagement window clipped to the
  2.5 s horizon, [max(snap, start), min(snap + 25, end)] (25 frames at
  10 Hz, endpoint included), the rusher's distance to the QB is strictly
  below the blocker's minus ``tolerance`` (0 by default);
- severity: sack > hit > win > loss by priority, with sack and hit
  taken from play-level annotations and win from the 2.5 s rule;
- double_team: two engagements of the same rusher by distinct blockers
  share at least one frame.

The ingest path is columnar.  ``read_tracking_csv`` parses the file
with one ``np.loadtxt`` call into a read-only ``TrackingFrames`` (play
and player codes, frame, x, y, is_qb and source line columns), sorted
once by (play, player, frame).  ``read_events_csv`` and
``read_engagements_csv`` return read-only structured arrays with the
CSV header's fields.  ``build_interactions`` joins engagements to events
through play codes, orders each game's engagements with one
``np.lexsort``, decides double teams over the pairs of each (game, play,
rusher), finds each clipped window in the QB, rusher and blocker tracks
with one ``searchsorted`` each, and decides the win as an any over the
gathered window.  Distances use ``math.hypot``: ``np.hypot`` differs
from it in the last bit, and the rule is a strict comparison.

All inputs are flat UTF-8 CSVs with required headers and 0/1 booleans;
every integer field is an int64.  The events, engagements and schedule
files, and a tracking file that ``np.loadtxt`` fails on, are read by the
block reader of ``interactions``, which converts each block of records
column by column.  An error names the line the first bad record ends on,
a byte that is not UTF-8 included.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Mapping

import numpy as np

from .errors import DataError
from .interactions import (
    InteractionTable,
    _check_new,
    _factorize,
    _flag_column,
    _float_column,
    _frozen,
    _int_column,
    _lines,
    _read_blocks,
    _text_column,
    canonical_sort,
    label_outcome,
)

WIN_HORIZON_FRAMES = 25

TRACKING_CSV_HEADER = ["game_id", "play_id", "frame_index", "player_id", "x", "y", "is_qb"]
EVENTS_CSV_HEADER = ["game_id", "play_id", "snap_frame", "has_forward_pass", "has_sack", "qb_hit"]
ENGAGEMENTS_CSV_HEADER = ["game_id", "play_id", "rusher_id", "blocker_id", "start_frame", "end_frame"]
SCHEDULE_CSV_HEADER = ["game_id", "week"]

# ids and the 0/1 flag stay strings, so their checks read what the file says
_TRACKING_CSV_TYPES = [object, object, np.int64, object, np.float64, np.float64, object]

#: The events and engagements arrays: the CSV header's fields, ids as
#: objects, frames as int64 and flags as bool.
EVENTS_DTYPE = np.dtype(list(zip(EVENTS_CSV_HEADER, [object, object, np.int64, bool, bool, bool])))
ENGAGEMENTS_DTYPE = np.dtype(
    list(zip(ENGAGEMENTS_CSV_HEADER, [object, object, object, object, np.int64, np.int64]))
)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _play_codes(game_id: np.ndarray, play_id: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Sorted distinct (game_id, play_id) pairs and each row's code.

    Tracking files list a play's rows together, so each run of one play
    is looked up once.
    """
    n = len(game_id)
    head = np.ones(n, dtype=bool)
    head[1:] = (game_id[1:] != game_id[:-1]) | (play_id[1:] != play_id[:-1])
    heads = np.flatnonzero(head)
    games, game = _factorize(game_id[heads])
    play_ids, play = _factorize(play_id[heads])
    pairs, code = np.unique(game * len(play_ids) + play, return_inverse=True)
    plays = tuple((games[p // len(play_ids)], play_ids[p % len(play_ids)]) for p in pairs.tolist())
    return plays, np.repeat(code.astype(np.int64), np.diff(heads, append=n))


class TrackingFrames:
    """Tracking rows as read-only columns, in input order.

    ``plays`` (sorted ``(game_id, play_id)`` pairs) and ``players``
    (sorted ids) are the vocabularies behind the int64 ``play`` and
    ``player`` codes; ``frame``, ``x``, ``y`` and ``is_qb`` hold the
    other fields, and ``line`` each row's source line (None for rows that
    were not read from a file).  ``len()`` is the row count.

    The rows are sorted once by (play, player, frame), so each player's
    track on a play is one run of the sorted rows.  A repeated (game,
    play, frame, player) is a DataError.
    """

    def __init__(self, game_id, play_id, player_id, frame, x, y, is_qb, *, line=None, source=None):
        self.plays, play = _play_codes(
            np.asarray(game_id, dtype=object), np.asarray(play_id, dtype=object)
        )
        self.play = _frozen(play)
        self.players, player = _factorize(player_id)
        self.player = _frozen(player)
        # contiguous copies, so no view keeps a parsed file's rows alive
        self.frame = _frozen(np.ascontiguousarray(frame, dtype=np.int64))
        self.x = _frozen(np.ascontiguousarray(x, dtype=np.float64))
        self.y = _frozen(np.ascontiguousarray(y, dtype=np.float64))
        self.is_qb = _frozen(np.ascontiguousarray(is_qb, dtype=bool))
        self.line = None if line is None else _frozen(np.ascontiguousarray(line, dtype=np.int64))
        # keys pack dense ranks, not raw ids and frame numbers, so they fit in int64
        self._frame_values, self._rank = np.unique(self.frame, return_inverse=True)
        self._series, series = np.unique(
            self.play * len(self.players) + self.player, return_inverse=True
        )
        key = series * len(self._frame_values) + self._rank
        self._order = _frozen(np.argsort(key, kind="stable"))
        self._sorted_key = _frozen(key[self._order])
        self._qb = None
        self._check_unique(source)

    def __len__(self) -> int:
        return len(self.frame)

    def _where(self, i: int) -> str:
        game_id, play_id = self.plays[self.play[i]]
        return f"{game_id}/{play_id} frame {self.frame[i]}"

    def _check_unique(self, source) -> None:
        dup = np.flatnonzero(self._sorted_key[1:] == self._sorted_key[:-1])
        if not dup.size:
            return
        # the stable sort keeps equal keys in input order: report the
        # repeat that comes first, as a row-by-row read would meet it
        k = int(np.argmin(self._order[dup + 1]))
        first, again = self._order[dup[k]], self._order[dup[k] + 1]
        player_id = self.players[self.player[again]]
        what = f"duplicate tracking row for player {player_id!r} at {self._where(again)}"
        if self.line is None:
            raise DataError(what)
        raise DataError(f"{source}:{self.line[again]}: {what} (first at line {self.line[first]})")

    def qb_track(self) -> tuple[np.ndarray, np.ndarray]:
        """QB rows sorted by (play, frame) and their sort keys, found once.

        Two QB rows at one (play, frame) are a DataError naming the later
        one in input order.
        """
        if self._qb is None:
            rows = np.flatnonzero(self.is_qb)
            key = self.play[rows] * len(self._frame_values) + self._rank[rows]
            order = np.argsort(key, kind="stable")
            rows, key = rows[order], key[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                raise DataError(f"multiple QB frames at {self._where(rows[dup + 1].min())}")
            self._qb = rows, key
        return self._qb

    def window_wins(self, play, rusher, blocker, lo, hi, tolerance: float, names) -> np.ndarray:
        """Win flag of each engagement over its window ``lo[i]..hi[i]``
        (a loss where ``hi[i] < lo[i]``), given codes into ``plays`` and
        ``players`` (-1 for ids without rows).  Every frame of a non-empty
        window needs a QB, rusher and blocker row; the first engagement that
        lacks one is a DataError, ``names(i)`` giving its four ids."""
        won = np.zeros(len(lo), dtype=bool)
        live = np.flatnonzero(lo <= hi)
        play, lo, hi = play[live], lo[live], hi[live]
        qb_rows, qb_key = self.qb_track()
        q_start, whole = self._runs(qb_key, play, lo, hi)
        starts = [q_start]
        for player in (rusher[live], blocker[live]):
            start, ok = self._runs(self._sorted_key, self._series_code(play, player), lo, hi)
            starts.append(start)
            whole &= ok
        if not whole.all():
            k = np.argmin(whole)
            raise self._missing_track(*names(live[k]), int(lo[k]), int(hi[k]))

        # gather every window frame: segment offsets, then rows of each track
        n = hi - lo + 1  # whole windows are no longer than the tracks
        seg = np.cumsum(n) - n
        step = np.arange(int(n.sum())) - np.repeat(seg, n)
        qb = qb_rows[np.repeat(starts[0], n) + step]
        qx, qy = self.x[qb], self.y[qb]

        def qb_dist(start):
            rows = self._order[np.repeat(start, n) + step]
            dx, dy = self.x[rows] - qx, self.y[rows] - qy
            return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), np.float64, len(rows))

        beats = qb_dist(starts[1]) < qb_dist(starts[2]) - tolerance
        won[live] = np.logical_or.reduceat(beats, seg)
        return won

    def _missing_track(self, game_id, play_id, rusher_id, blocker_id, lo, hi) -> DataError:
        """The error a frame-by-frame walk of one engagement's window
        ``lo..hi`` meets first: the rusher's frames before the blocker's,
        and at each frame the QB before the player."""
        code = self.plays.index((game_id, play_id)) if (game_id, play_id) in self.plays else -1
        rows = np.flatnonzero(self.play == code)
        qb_frames = set(self.frame[rows[self.is_qb[rows]]].tolist())
        tracked = {
            (self.players[p], t) for p, t in zip(self.player[rows], self.frame[rows].tolist())
        }
        for player_id in (rusher_id, blocker_id):
            for t in range(lo, hi + 1):
                if t not in qb_frames:
                    return DataError(f"missing QB track at {game_id}/{play_id} frame {t}")
                if (player_id, t) not in tracked:
                    return DataError(
                        f"missing track for player {player_id!r} at {game_id}/{play_id} frame {t}"
                    )
        raise AssertionError("no missing track in the window")

    def _runs(self, sorted_key, group, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Where each window's run starts in ``sorted_key``, and whether it is whole.

        ``sorted_key`` packs (group, frame rank) as ``_sorted_key`` does;
        ``group`` is -1 where the track does not exist.  A run is whole
        when it holds every frame ``lo..hi``, so that run positions of
        different tracks line up frame by frame.
        """
        width = len(self._frame_values)
        first = np.searchsorted(self._frame_values, lo)
        last = np.searchsorted(self._frame_values, hi, "right") - 1
        start = np.searchsorted(sorted_key, group * width + first)
        # a window longer than the keys cannot be whole; the cap keeps it in int64
        end = start + np.minimum(hi - lo, len(sorted_key))
        inside = (group >= 0) & (end < len(sorted_key))
        if not inside.any():
            return start, inside
        # keys are distinct, so n keys in the window's key range are its n frames
        whole = inside & (sorted_key[np.where(inside, end, 0)] == group * width + last)
        return start, whole

    def _series_code(self, play, player) -> np.ndarray:
        """Code of each (play, player) track in the sorted keys; -1 where absent."""
        known = (play >= 0) & (player >= 0)
        return _lookup(self._series, np.where(known, play * len(self.players) + player, -1))


def _lookup(vocab, values) -> np.ndarray:
    """Index of each of ``values`` in the sorted ``vocab``; -1 where absent.
    A tuple or list (of ids or of id pairs) is read as a 1-d object array."""
    vocab, values = (v if isinstance(v, np.ndarray) else np.fromiter(v, object, len(v))
                     for v in (vocab, values))
    at = np.searchsorted(vocab, values)
    found = at < len(vocab)
    found[found] = vocab[at[found]] == values[found]
    return np.where(found, at, -1)


def _check_events(events: np.ndarray) -> None:
    """A negative snap frame is a DataError naming the first."""
    snap = events["snap_frame"]
    if (snap < 0).any():
        raise DataError(f"snap_frame must be >= 0, got {snap[snap < 0][0]}")


def _check_engagements(engagements: np.ndarray) -> None:
    """An engagement that ends before it starts is a DataError naming the first."""
    start, end = engagements["start_frame"], engagements["end_frame"]
    if (start > end).any():
        i = np.argmax(start > end)
        raise DataError(f"engagement has start_frame {start[i]} > end_frame {end[i]}")


def _double_teams(group, blocker, start, end, min_overlap: int) -> np.ndarray:
    """Whether each engagement's ``group`` (its game, play and rusher)
    holds two engagements by distinct blockers that share at least
    ``min_overlap`` frames."""
    order = np.argsort(group, kind="stable")
    n, sorted_group = len(order), group[order]
    # every pair of a group: each sorted row with each row after it in the group
    after = np.searchsorted(sorted_group, sorted_group, "right") - np.arange(n) - 1
    first = np.repeat(np.arange(n), after)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(after) - after, after)
    a, b = order[first], order[second]
    lo, hi = np.maximum(start[a], start[b]), np.minimum(end[a], end[b])
    # the pair shares hi - lo + 1 frames; the difference is taken in uint64,
    # where it is exact for any int64 bounds with lo <= hi
    need = min_overlap - 1
    shared = (lo <= hi) & (hi.astype(np.uint64) - lo.astype(np.uint64) >= min(need, 2**64 - 1))
    pairs = (blocker[a] != blocker[b]) & shared & (need < 2**64)
    return np.isin(group, group[a[pairs]])


def build_interactions(
    frames: TrackingFrames,
    events: np.ndarray,
    engagements: np.ndarray,
    schedule: Mapping[str, int],
    *,
    horizon: int = WIN_HORIZON_FRAMES,
    tolerance: float = 0.0,
    min_overlap: int = 1,
) -> InteractionTable:
    """Assemble the modeling table from raw tracking inputs.

    ``frames`` is a ``TrackingFrames``; ``events`` and ``engagements``
    are structured arrays of ``EVENTS_DTYPE`` and ``ENGAGEMENTS_DTYPE``
    (what ``read_events_csv`` and ``read_engagements_csv`` return).
    Engagements whose window misses the snap horizon entirely produce
    win_target=False (no win is demonstrable inside 2.5 s) rather than an
    error.  event_game_index numbers each game's engagements by (play_id,
    start_frame, rusher_id, blocker_id).  ``horizon`` must be >= 0,
    ``tolerance`` finite and >= 0, and ``min_overlap`` >= 1.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0 frames, got {horizon}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be >= 1 frame, got {min_overlap}")
    if not isinstance(frames, TrackingFrames):
        raise TypeError(f"frames must be a TrackingFrames, got {type(frames).__name__}")
    _check_events(events)
    _check_engagements(engagements)

    # events rows then engagements, coded into shared game and play vocabularies
    n_events = len(events)
    games, game = _factorize(np.concatenate([events["game_id"], engagements["game_id"]]))
    play_ids, play = _factorize(np.concatenate([events["play_id"], engagements["play_id"]]))
    key = game * len(play_ids) + play
    event_order = np.argsort(key[:n_events], kind="stable")
    event_key = key[:n_events][event_order]
    repeat = event_order[1:][event_key[1:] == event_key[:-1]]
    if repeat.size:
        e = events[repeat.min()]
        raise DataError(f"duplicate events row for {(e['game_id'], e['play_id'])}")

    frames.qb_track()  # two QBs at one instant fail before any engagement check

    found = _lookup(event_key, key[n_events:])
    if (found < 0).any():
        e = engagements[np.argmax(found < 0)]
        raise DataError(
            f"dangling engagement: no events row for {e['game_id']}/{e['play_id']} "
            f"({e['rusher_id']} vs {e['blocker_id']})"
        )
    ev = event_order[found]  # each engagement's events row
    keep = np.flatnonzero(events["has_forward_pass"][ev] | events["has_sack"][ev])
    game, play, ev = game[n_events:][keep], play[n_events:][keep], ev[keep]

    # each game's week, checked at its first dropback engagement, in input order
    _, first, game_seq = np.unique(game, return_index=True, return_inverse=True)
    week = np.ones(len(games), dtype=np.int64)
    for i in np.sort(first).tolist():
        game_id = games[game[i]]
        if game_id not in schedule:
            raise DataError(f"game {game_id!r} missing from the schedule (unknown week)")
        if schedule[game_id] < 1:
            raise DataError(f"game {game_id!r} has week {schedule[game_id]}; weeks start at 1")
        week[game[i]] = schedule[game_id]

    # games in order of their first dropback engagement (the one whose
    # missing track is reported first), each game's rows in event order
    players, player = _factorize(
        np.concatenate([engagements["rusher_id"][keep], engagements["blocker_id"][keep]])
    )
    rusher, blocker = player[:len(keep)], player[len(keep):]
    start, end = engagements["start_frame"][keep], engagements["end_frame"][keep]
    order = np.lexsort((blocker, rusher, start, play, first[game_seq]))
    game, play, ev, rusher, blocker, start, end = (
        c[order] for c in (game, play, ev, rusher, blocker, start, end)
    )
    game_first = first[game_seq][order]  # sorted: each game's rows are one run
    event_index = np.arange(len(order)) - np.searchsorted(game_first, game_first)

    pair_keys, pair = np.unique(game * len(play_ids) + play, return_inverse=True)
    plays = [(games[k // len(play_ids)], play_ids[k % len(play_ids)]) for k in pair_keys.tolist()]
    double = _double_teams(pair * len(players) + rusher, blocker, start, end, min_overlap)

    # the window clipped to snap .. snap + horizon, which is past every end where it passes int64
    snap = events["snap_frame"][ev]
    lo = np.maximum(snap, start)
    hi = np.minimum(snap + np.minimum(_INT64_MAX - snap, min(horizon, _INT64_MAX)), end)
    tracked = _lookup(frames.players, players)
    won = frames.window_wins(
        _lookup(frames.plays, plays)[pair], tracked[rusher], tracked[blocker],
        lo, hi, tolerance, lambda i: (*plays[pair[i]], players[rusher[i]], players[blocker[i]]),
    )
    sack, hit = events["has_sack"][ev].tolist(), events["qb_hit"][ev].tolist()
    return canonical_sort(InteractionTable(
        game=(games, game), play=(play_ids, play), rusher=(players, rusher),
        blocker=(players, blocker), event_game_index=event_index, week=week[game],
        double_team=double, win=won,
        severity=np.fromiter(map(label_outcome, sack, hit, won.tolist()), np.intp, len(won)),
    ))


# ---------------------------------------------------------------------------
# CSV readers


def _line_count(path) -> int:
    """Lines in ``path``, a last line without a newline included."""
    n, last = 0, b"\n"
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            n += chunk.count(b"\n")
            last = chunk[-1:]
    return n + (last != b"\n")


# the converter of each tracking field, for the rescan
_TRACKING_CONVERTERS = dict(zip(TRACKING_CSV_HEADER, (
    _text_column, _text_column, _int_column, _text_column, _float_column, _float_column,
    _flag_column,
)))


def _check_frames(fields) -> None:
    """A negative frame index is a DataError naming the first."""
    frame = fields["frame_index"]
    if (frame < 0).any():
        raise DataError(f"frame_index must be >= 0, got {frame[frame < 0][0]}")


def _tracking_valid(rows) -> bool:
    flag = rows["is_qb"]
    return bool(((flag == "1") | (flag == "0")).all() and (rows["frame_index"] >= 0).all())


def _load_tracking(path) -> tuple[np.ndarray, np.ndarray]:
    """The tracking file's data records as a structured array, parsed by a
    single ``np.loadtxt`` call, and the line each record ends on.

    A file that call does not read whole and valid (a bad header, blank
    lines, a value the checks reject, a byte that is not UTF-8) is
    rescanned by ``_read_blocks``, which raises the first bad record's
    error as a row-by-row reader would.
    """
    dtype = np.dtype(list(zip(TRACKING_CSV_HEADER, _TRACKING_CSV_TYPES)))
    rows = failure = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader([fh.readline()]), None)
            start = fh.tell()
            # after a blank first line np.loadtxt may find no data and warn
            if header == TRACKING_CSV_HEADER and fh.readline().rstrip("\r\n"):
                fh.seek(start)
                with warnings.catch_warnings():
                    # an int64 field such as "3.5" or "1e1" is otherwise
                    # truncated to an integer with only a DeprecationWarning
                    warnings.simplefilter("error", DeprecationWarning)
                    rows = np.loadtxt(
                        fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1
                    )
    except (ValueError, DeprecationWarning) as exc:  # a UnicodeDecodeError is a ValueError
        failure = exc
    if rows is not None and len(rows) == _line_count(path) - 1 and _tracking_valid(rows):
        return rows, np.arange(2, len(rows) + 2)
    n = sum(len(records) for _, records in
            _read_blocks(path, _TRACKING_CONVERTERS, _check_frames))
    if n == 0:
        return np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64)
    if rows is not None and n == len(rows) and _tracking_valid(rows):
        # quoted line breaks made the line count differ
        return rows, np.array(_lines(path, n + 1)[1:], dtype=np.int64)
    raise DataError(f"{path}: np.loadtxt and csv disagree ({failure or f'{n} csv records'})")


def read_tracking_csv(path) -> TrackingFrames:
    """Tracking frames as columns; see ``TrackingFrames``."""
    rows, lines = _load_tracking(path)
    return TrackingFrames(
        rows["game_id"], rows["play_id"], rows["player_id"], rows["frame_index"],
        rows["x"], rows["y"], rows["is_qb"] == "1", line=lines, source=path,
    )


# the column converter of each field kind; ids stay the file's strings
_CONVERTERS = {"O": _text_column, "i": _int_column, "b": _flag_column}


def _read_rows(path, dtype: np.dtype, check) -> np.ndarray:
    """The data records of ``path``, whose header is ``dtype``'s field
    names, as a read-only structured array of ``dtype``; ``check`` checks
    each block."""
    converters = {field: _CONVERTERS[dtype[field].kind] for field in dtype.names}
    blocks = []
    for fields, records in _read_blocks(path, converters, check):
        rows = np.empty(len(records), dtype=dtype)
        for field in dtype.names:
            rows[field] = fields[field]
        blocks.append(rows)
    return _frozen(np.concatenate(blocks))


def read_events_csv(path) -> np.ndarray:
    """Play events as a read-only structured array of ``EVENTS_DTYPE``."""
    return _read_rows(path, EVENTS_DTYPE, _check_events)


def read_engagements_csv(path) -> np.ndarray:
    """Engagements as a read-only structured array of ``ENGAGEMENTS_DTYPE``."""
    return _read_rows(path, ENGAGEMENTS_DTYPE, _check_engagements)


def read_schedule_csv(path) -> dict[str, int]:
    """Each game's week; a game listed twice or a week below 1 is an error."""
    schedule: dict[str, int] = {}

    def check(fields) -> None:
        _check_new(fields["game_id"], schedule, "game_id")
        week = fields["week"]
        if (week < 1).any():
            raise DataError(f"week must be >= 1, got {week[week < 1][0]}")

    converters = dict(zip(SCHEDULE_CSV_HEADER, (_text_column, _int_column)))
    for fields, _ in _read_blocks(path, converters, check):
        schedule.update(zip(fields["game_id"], fields["week"].tolist()))
    return schedule

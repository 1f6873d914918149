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

The tracking path is columnar.  ``read_tracking_csv`` parses the file
with one ``np.loadtxt`` call into a read-only ``TrackingFrames``: play
and player codes over sorted vocabularies, frame, x, y, is_qb and source
line columns, and one sort of the rows by (play, player, frame).
``build_interactions`` finds each engagement's clipped window in the QB,
rusher and blocker tracks with one ``searchsorted`` each, decides the
win as an any over the gathered window and builds the table's columns
directly.  Distances use ``math.hypot``: ``np.hypot`` differs from it in
the last bit, and the rule is a strict comparison.

All inputs are flat CSVs with required headers and 0/1 booleans.  The
events, engagements and schedule files are read record by record with
``csv``; an error names the bad line.  A tracking file that
``np.loadtxt`` rejects, or that fails a check, is rescanned the same way,
so its error names the first bad line too.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DataError
from .interactions import (
    InteractionTable,
    _decimal,
    _factorize,
    _frozen,
    _int64,
    _parse_bool01,
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


@dataclass(frozen=True, slots=True)
class PlayEvents:
    """Play-level annotations: snap frame, pass/sack/hit flags."""

    game_id: str
    play_id: str
    snap_frame: int
    has_forward_pass: bool
    has_sack: bool
    qb_hit: bool

    def __post_init__(self) -> None:
        if self.snap_frame < 0:
            raise DataError(f"snap_frame must be >= 0, got {self.snap_frame}")


@dataclass(frozen=True, slots=True)
class Engagement:
    """A labeled rusher-blocker matchup over a frame interval."""

    game_id: str
    play_id: str
    rusher_id: str
    blocker_id: str
    start_frame: int
    end_frame: int

    def __post_init__(self) -> None:
        if self.start_frame > self.end_frame:
            raise DataError(
                f"engagement has start_frame {self.start_frame} > end_frame {self.end_frame}"
            )


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

    def window_wins(self, keys, windows, tolerance: float) -> np.ndarray:
        """Win flag of each engagement ``(game_id, play_id, rusher_id,
        blocker_id)`` over its clipped window (a ``range``); empty windows
        are losses.  Every frame of a non-empty window needs a QB, rusher
        and blocker row."""
        won = np.zeros(len(windows), dtype=bool)
        n = np.fromiter(map(len, windows), np.int64, len(windows))
        live = np.flatnonzero(n > 0)
        if not live.size:
            return won
        n = n[live]
        # a window that starts after every tracked frame cannot be whole; the
        # cap also keeps frame numbers too large for int64 out of the arrays
        top = int(self._frame_values[-1]) + 1 if len(self) else 0
        lo = np.array([min(windows[i].start, top) for i in live], dtype=np.int64)
        hi = lo + n - 1
        play_code = {key: i for i, key in enumerate(self.plays)}
        player_code = {p: i for i, p in enumerate(self.players)}
        play = np.array([play_code.get(keys[i][:2], -1) for i in live], dtype=np.int64)
        qb_rows, qb_key = self.qb_track()
        q_start, whole = self._runs(qb_key, play, lo, hi)
        starts = [q_start]
        for role in (2, 3):  # the rusher's track, then the blocker's
            player = np.array([player_code.get(keys[i][role], -1) for i in live], dtype=np.int64)
            series = self._series_code(play, player)
            start, role_whole = self._runs(self._sorted_key, series, lo, hi)
            starts.append(start)
            whole &= role_whole
        if not whole.all():
            i = live[np.argmin(whole)]
            raise self._missing_track(keys[i], windows[i])

        # gather every window frame: segment offsets, then rows of each track
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

    def _missing_track(self, key, window) -> DataError:
        """The error a frame-by-frame walk of one engagement's window meets
        first: the rusher's frames before the blocker's, and at each frame
        the QB before the player."""
        game_id, play_id, rusher_id, blocker_id = key
        code = self.plays.index((game_id, play_id)) if (game_id, play_id) in self.plays else -1
        rows = np.flatnonzero(self.play == code)
        qb_frames = set(self.frame[rows[self.is_qb[rows]]].tolist())
        tracked = {
            (self.players[p], t) for p, t in zip(self.player[rows], self.frame[rows].tolist())
        }
        for player_id in (rusher_id, blocker_id):
            for t in window:
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
        end = start + (hi - lo)
        inside = (group >= 0) & (end < len(sorted_key))
        if not inside.any():
            return start, inside
        # keys are distinct, so n keys in the window's key range are its n frames
        whole = inside & (sorted_key[np.where(inside, end, 0)] == group * width + last)
        return start, whole

    def _series_code(self, play, player) -> np.ndarray:
        """Code of each (play, player) track in the sorted keys; -1 where absent."""
        want = play * len(self.players) + player
        at = np.searchsorted(self._series, want)
        ok = (play >= 0) & (player >= 0) & (at < len(self._series))
        ok[ok] = self._series[at[ok]] == want[ok]
        return np.where(ok, at, -1)


def is_dropback(events: PlayEvents) -> bool:
    """A play is a dropback when it has a forward pass or a sack."""
    return events.has_forward_pass or events.has_sack


def _win_window(
    snap_frame: int, window: tuple[int, int], horizon: int
) -> range:
    """The frames of ``window`` inside snap .. snap + horizon (endpoint
    included); empty when the window misses the horizon."""
    start, end = window
    lo = max(snap_frame, start)
    hi = min(snap_frame + horizon, end)
    return range(lo, hi + 1)


def detect_double_team(engagements: Sequence[Engagement], *, min_overlap: int = 1) -> bool:
    """True iff two distinct blockers engage this rusher in overlapping
    windows (overlap measured in shared frames)."""
    if not engagements:
        return False
    first = engagements[0]
    for e in engagements[1:]:
        if (e.game_id, e.play_id, e.rusher_id) != (
            first.game_id,
            first.play_id,
            first.rusher_id,
        ):
            raise DataError("detect_double_team expects engagements of one rusher in one play")
    for i, a in enumerate(engagements):
        for b in engagements[i + 1 :]:
            if a.blocker_id == b.blocker_id:
                continue
            shared = min(a.end_frame, b.end_frame) - max(a.start_frame, b.start_frame) + 1
            if shared >= min_overlap:
                return True
    return False


def build_interactions(
    frames: TrackingFrames,
    events: Sequence[PlayEvents],
    engagements: Sequence[Engagement],
    schedule: Mapping[str, int],
    *,
    horizon: int = WIN_HORIZON_FRAMES,
    tolerance: float = 0.0,
    min_overlap: int = 1,
) -> InteractionTable:
    """Assemble the modeling table from raw tracking inputs.

    ``frames`` is a ``TrackingFrames``.  Engagements whose window misses
    the snap horizon entirely produce win_target=False (no win is
    demonstrable inside 2.5 s) rather than an error.  event_game_index
    numbers each game's engagements by (play order, start_frame,
    rusher_id, blocker_id).  ``horizon`` must be >= 0, ``tolerance``
    finite and >= 0, and ``min_overlap`` >= 1.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0 frames, got {horizon}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be >= 1 frame, got {min_overlap}")
    if not isinstance(frames, TrackingFrames):
        raise TypeError(f"frames must be a TrackingFrames, got {type(frames).__name__}")

    events_by_play: dict[tuple[str, str], PlayEvents] = {}
    for ev in events:
        key = (ev.game_id, ev.play_id)
        if key in events_by_play:
            raise DataError(f"duplicate events row for {key}")
        events_by_play[key] = ev

    frames.qb_track()  # two QBs at one instant fail before any engagement check

    by_play: dict[tuple[str, str], list[Engagement]] = {}
    for e in engagements:
        key = (e.game_id, e.play_id)
        if key not in events_by_play:
            raise DataError(
                f"dangling engagement: no events row for {e.game_id}/{e.play_id} "
                f"({e.rusher_id} vs {e.blocker_id})"
            )
        by_play.setdefault(key, []).append(e)

    by_game: dict[str, list[tuple[str, Engagement]]] = {}
    for (game_id, play_id), plays_engagements in by_play.items():
        if not is_dropback(events_by_play[(game_id, play_id)]):
            continue
        if game_id not in schedule:
            raise DataError(f"game {game_id!r} missing from the schedule (unknown week)")
        if schedule[game_id] < 1:
            raise DataError(f"game {game_id!r} has week {schedule[game_id]}; weeks start at 1")
        for e in plays_engagements:
            by_game.setdefault(game_id, []).append((play_id, e))

    # each game's engagements in event order, with their double-team flags
    ordered: list[tuple[str, str, int, Engagement, bool]] = []
    for game_id, tagged in by_game.items():
        tagged.sort(key=lambda pe: (pe[0], pe[1].start_frame, pe[1].rusher_id, pe[1].blocker_id))
        partners: dict[tuple[str, str], list[Engagement]] = {}
        for play_id, e in tagged:
            partners.setdefault((play_id, e.rusher_id), []).append(e)
        double = {
            key: detect_double_team(group, min_overlap=min_overlap)
            for key, group in partners.items()
        }
        ordered += [
            (game_id, play_id, event_index, e, double[(play_id, e.rusher_id)])
            for event_index, (play_id, e) in enumerate(tagged)
        ]

    play_events = [events_by_play[(g, p)] for g, p, *_ in ordered]
    windows = [
        _win_window(ev.snap_frame, (e.start_frame, e.end_frame), horizon)
        for ev, (*_, e, _) in zip(play_events, ordered)
    ]
    keys = [(g, p, e.rusher_id, e.blocker_id) for g, p, _, e, _ in ordered]
    won = frames.window_wins(keys, windows, tolerance)
    sack = [ev.has_sack for ev in play_events]
    hit = [ev.qb_hit for ev in play_events]
    table = InteractionTable(
        game=_factorize([k[0] for k in keys]),
        play=_factorize([k[1] for k in keys]),
        rusher=_factorize([k[2] for k in keys]),
        blocker=_factorize([k[3] for k in keys]),
        event_game_index=[i for _, _, i, _, _ in ordered],
        week=[schedule[g] for g, *_ in ordered],
        double_team=[d for *_, d in ordered],
        win=won,
        severity=np.fromiter(map(label_outcome, sack, hit, won), np.intp, len(ordered)),
    )
    return canonical_sort(table)


# ---------------------------------------------------------------------------
# CSV readers


def _check_header(path, got, want) -> None:
    if got != want:
        raise DataError(f"bad header in {path}: expected {want}, got {got}")


def _csv_records(path, header):
    """``(line, record)`` for each data record of ``path`` as ``csv``
    reads it (the header is line 1), after the header and field-count
    checks."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(path, next(reader, None), header)
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
            yield lineno, rec


def _parsed(path, header, record):
    """``record`` of each data record, in file order; an error names the
    record's line."""
    for lineno, rec in _csv_records(path, header):
        try:
            value = record(rec)
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        yield value


def _line_count(path) -> int:
    """Lines in ``path``, a last line without a newline included."""
    n, last = 0, b"\n"
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            n += chunk.count(b"\n")
            last = chunk[-1:]
    return n + (last != b"\n")


def _tracking_record(rec) -> None:
    """Check one tracking record's fields as the columns read them."""
    frame_index = _int64(rec[2], "frame_index")
    _decimal(float, rec[4], "x")
    _decimal(float, rec[5], "y")
    _parse_bool01(rec[6], "is_qb")
    if frame_index < 0:
        raise DataError(f"frame_index must be >= 0, got {frame_index}")


def _tracking_valid(rows) -> bool:
    flag = rows["is_qb"]
    return bool(((flag == "1") | (flag == "0")).all() and (rows["frame_index"] >= 0).all())


def _load_tracking(path) -> np.ndarray:
    """The tracking file's data records as a structured array, parsed by a
    single ``np.loadtxt`` call.

    When that call fails, skips blank lines (errors here) or reads a value
    the checks reject, a rescan with ``csv`` raises the first bad record's
    error as a row-by-row reader would.
    """
    dtype = np.dtype(list(zip(TRACKING_CSV_HEADER, _TRACKING_CSV_TYPES)))
    rows = failure = None
    with open(path, newline="") as fh:
        head = fh.readline()
        _check_header(path, next(csv.reader([head])) if head else None, TRACKING_CSV_HEADER)
        start = fh.tell()
        first = fh.readline()
        if not first:
            return np.empty(0, dtype=dtype)
        # after a blank first line np.loadtxt may find no data and warn;
        # the rescan raises the blank line's error instead
        if first.rstrip("\r\n"):
            fh.seek(start)
            try:
                with warnings.catch_warnings():
                    # an int64 field such as "3.5" or "1e1" is otherwise
                    # truncated to an integer with only a DeprecationWarning
                    warnings.simplefilter("error", DeprecationWarning)
                    rows = np.loadtxt(
                        fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1
                    )
            except (ValueError, DeprecationWarning) as exc:
                failure = exc
    if rows is not None and len(rows) == _line_count(path) - 1 and _tracking_valid(rows):
        return rows
    n = sum(1 for _ in _parsed(path, TRACKING_CSV_HEADER, _tracking_record))
    if rows is not None and n == len(rows) and _tracking_valid(rows):
        return rows  # quoted line breaks made the line count differ
    raise DataError(f"{path}: np.loadtxt and csv disagree ({failure or f'{n} csv records'})")


def read_tracking_csv(path) -> TrackingFrames:
    """Tracking frames as columns; see ``TrackingFrames``."""
    rows = _load_tracking(path)
    return TrackingFrames(
        rows["game_id"], rows["play_id"], rows["player_id"], rows["frame_index"],
        rows["x"], rows["y"], rows["is_qb"] == "1",
        line=np.arange(2, len(rows) + 2), source=path,
    )


def _events_record(rec) -> PlayEvents:
    return PlayEvents(
        game_id=rec[0],
        play_id=rec[1],
        snap_frame=_decimal(int, rec[2], "snap_frame"),
        has_forward_pass=_parse_bool01(rec[3], "has_forward_pass"),
        has_sack=_parse_bool01(rec[4], "has_sack"),
        qb_hit=_parse_bool01(rec[5], "qb_hit"),
    )


def read_events_csv(path) -> list[PlayEvents]:
    return list(_parsed(path, EVENTS_CSV_HEADER, _events_record))


def _engagement_record(rec) -> Engagement:
    return Engagement(
        game_id=rec[0],
        play_id=rec[1],
        rusher_id=rec[2],
        blocker_id=rec[3],
        start_frame=_decimal(int, rec[4], "start_frame"),
        end_frame=_decimal(int, rec[5], "end_frame"),
    )


def read_engagements_csv(path) -> list[Engagement]:
    return list(_parsed(path, ENGAGEMENTS_CSV_HEADER, _engagement_record))


def read_schedule_csv(path) -> dict[str, int]:
    out: dict[str, int] = {}
    for lineno, (game_id, week_text) in _csv_records(path, SCHEDULE_CSV_HEADER):
        if game_id in out:
            raise DataError(f"{path}:{lineno}: duplicate game_id {game_id!r}")
        try:
            week = _int64(week_text, "week")
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad week {week_text!r}") from exc
        if week < 1:
            raise DataError(f"{path}:{lineno}: week must be >= 1, got {week}")
        out[game_id] = week
    return out

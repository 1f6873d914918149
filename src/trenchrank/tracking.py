"""Tracking-data ingestion: frames + annotations -> interaction table.

Plays are kept when they contain a forward pass or a sack (dropbacks).
Each engagement on a kept play becomes one interaction:

- win_target: the rusher's QB distance drops strictly below the
  blocker's at some frame in the engagement window clipped to the 2.5 s
  horizon after the snap (25 frames at 10 Hz, endpoint included);
- severity: sack > hit > win > loss by priority, with sack and hit
  taken from play-level annotations and win from the 2.5 s rule;
- double_team: two engagements of the same rusher by distinct blockers
  share at least one frame.

All inputs are flat CSVs with required headers and 0/1 booleans.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import math

from .errors import DataError
from .interactions import (
    Interaction,
    InteractionTable,
    _parse_bool01,
    canonical_sort,
    label_outcome,
)

WIN_HORIZON_FRAMES = 25

TRACKING_CSV_HEADER = ["game_id", "play_id", "frame_index", "player_id", "x", "y", "is_qb"]
EVENTS_CSV_HEADER = ["game_id", "play_id", "snap_frame", "has_forward_pass", "has_sack", "qb_hit"]
ENGAGEMENTS_CSV_HEADER = ["game_id", "play_id", "rusher_id", "blocker_id", "start_frame", "end_frame"]
SCHEDULE_CSV_HEADER = ["game_id", "week"]


@dataclass(frozen=True, slots=True)
class Frame:
    """One player's position at one 10 Hz instant."""

    game_id: str
    play_id: str
    frame_index: int
    player_id: str
    x: float
    y: float
    is_qb: bool

    def __post_init__(self) -> None:
        if self.frame_index < 0:
            raise DataError(f"frame_index must be >= 0, got {self.frame_index}")


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


def is_dropback(events: PlayEvents) -> bool:
    """A play is a dropback when it has a forward pass or a sack."""
    return events.has_forward_pass or events.has_sack


def qb_distance(frames: Iterable[Frame], player_id: str) -> float:
    """Euclidean distance from a player to the QB at one instant."""
    qb = None
    target = None
    for f in frames:
        if f.is_qb:
            if qb is not None:
                raise DataError(
                    f"multiple QB frames at {f.game_id}/{f.play_id} frame {f.frame_index}"
                )
            qb = f
        if f.player_id == player_id:
            target = f
    if qb is None:
        raise DataError(f"no QB frame found for player {player_id!r} lookup")
    if target is None:
        raise DataError(f"no frame for player {player_id!r} at this instant")
    return math.hypot(target.x - qb.x, target.y - qb.y)


def _win_window(
    snap_frame: int, window: tuple[int, int], horizon: int
) -> range:
    start, end = window
    lo = max(snap_frame, start)
    hi = min(snap_frame + horizon, end)
    return range(lo, hi + 1)


def rusher_win_25(
    rusher_dists: Mapping[int, float],
    blocker_dists: Mapping[int, float],
    snap_frame: int,
    window: tuple[int, int],
    *,
    horizon: int = WIN_HORIZON_FRAMES,
    tolerance: float = 0.0,
) -> bool:
    """True iff the rusher gets strictly closer to the QB than the
    blocker at any frame of the engagement within the snap horizon.

    The horizon is inclusive: frames snap .. snap+horizon count.  Ties
    are not wins (configurable ``tolerance`` widens the required gap).
    """
    frames = _win_window(snap_frame, window, horizon)
    if len(frames) == 0:
        raise DataError(
            f"engagement window {window} does not intersect "
            f"[{snap_frame}, {snap_frame + horizon}]"
        )
    for t in frames:
        if t not in rusher_dists or t not in blocker_dists:
            raise DataError(f"distance series missing frame {t} inside the win window")
        if rusher_dists[t] < blocker_dists[t] - tolerance:
            return True
    return False


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


def _distance_series(
    positions: Mapping[tuple[str, int], tuple[float, float]],
    qb_track: Mapping[int, tuple[float, float]],
    player_id: str,
    frames: Iterable[int],
    game_id: str,
    play_id: str,
) -> dict[int, float]:
    out: dict[int, float] = {}
    for t in frames:
        if t not in qb_track:
            raise DataError(f"missing QB track at {game_id}/{play_id} frame {t}")
        if (player_id, t) not in positions:
            raise DataError(
                f"missing track for player {player_id!r} at {game_id}/{play_id} frame {t}"
            )
        qx, qy = qb_track[t]
        px, py = positions[(player_id, t)]
        out[t] = math.hypot(px - qx, py - qy)
    return out


def build_interactions(
    frames: Sequence[Frame],
    events: Sequence[PlayEvents],
    engagements: Sequence[Engagement],
    schedule: Mapping[str, int],
    *,
    horizon: int = WIN_HORIZON_FRAMES,
    tolerance: float = 0.0,
    min_overlap: int = 1,
) -> InteractionTable:
    """Assemble the modeling table from raw tracking inputs.

    Engagements whose window misses the snap horizon entirely produce
    win_target=False (no win is demonstrable inside 2.5 s) rather than
    an error.  event_game_index numbers each game's engagements by
    (play order, start_frame, rusher_id, blocker_id).
    """
    events_by_play: dict[tuple[str, str], PlayEvents] = {}
    for ev in events:
        key = (ev.game_id, ev.play_id)
        if key in events_by_play:
            raise DataError(f"duplicate events row for {key}")
        events_by_play[key] = ev

    qb_tracks: dict[tuple[str, str], dict[int, tuple[float, float]]] = {}
    positions: dict[tuple[str, str], dict[tuple[str, int], tuple[float, float]]] = {}
    for f in frames:
        key = (f.game_id, f.play_id)
        if f.is_qb:
            track = qb_tracks.setdefault(key, {})
            if f.frame_index in track:
                raise DataError(
                    f"multiple QB frames at {f.game_id}/{f.play_id} frame {f.frame_index}"
                )
            track[f.frame_index] = (f.x, f.y)
        positions.setdefault(key, {})[(f.player_id, f.frame_index)] = (f.x, f.y)

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
        for e in plays_engagements:
            by_game.setdefault(game_id, []).append((play_id, e))

    rows: list[Interaction] = []
    for game_id, tagged in by_game.items():
        tagged.sort(key=lambda pe: (pe[0], pe[1].start_frame, pe[1].rusher_id, pe[1].blocker_id))
        week = schedule[game_id]
        # each rusher's engagements on a play, in event order
        partners: dict[tuple[str, str], list[Engagement]] = {}
        for play_id, e in tagged:
            partners.setdefault((play_id, e.rusher_id), []).append(e)
        for event_index, (play_id, e) in enumerate(tagged):
            key = (game_id, play_id)
            ev = events_by_play[key]
            window = _win_window(ev.snap_frame, (e.start_frame, e.end_frame), horizon)
            if len(window) == 0:
                won = False
            else:
                qb_track = qb_tracks.get(key, {})
                pos = positions.get(key, {})
                rd = _distance_series(pos, qb_track, e.rusher_id, window, game_id, play_id)
                bd = _distance_series(pos, qb_track, e.blocker_id, window, game_id, play_id)
                won = rusher_win_25(
                    rd,
                    bd,
                    ev.snap_frame,
                    (e.start_frame, e.end_frame),
                    horizon=horizon,
                    tolerance=tolerance,
                )
            rows.append(
                Interaction(
                    game_id=game_id,
                    play_id=play_id,
                    event_game_index=event_index,
                    week=week,
                    rusher_id=e.rusher_id,
                    blocker_id=e.blocker_id,
                    double_team=detect_double_team(
                        partners[(play_id, e.rusher_id)], min_overlap=min_overlap
                    ),
                    win_target=won,
                    severity=label_outcome(
                        has_sack=ev.has_sack, has_hit=ev.qb_hit, has_win=won
                    ),
                )
            )
    return canonical_sort(InteractionTable(rows))


# ---------------------------------------------------------------------------
# CSV readers


def _check_header(path, got, want) -> None:
    if got != want:
        raise DataError(f"bad header in {path}: expected {want}, got {got}")


def read_tracking_csv(path) -> list[Frame]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(path, next(reader, None), TRACKING_CSV_HEADER)
        out = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(TRACKING_CSV_HEADER):
                raise DataError(f"{path}:{lineno}: expected {len(TRACKING_CSV_HEADER)} fields")
            try:
                out.append(
                    Frame(
                        game_id=rec[0],
                        play_id=rec[1],
                        frame_index=int(rec[2]),
                        player_id=rec[3],
                        x=float(rec[4]),
                        y=float(rec[5]),
                        is_qb=_parse_bool01(rec[6], "is_qb"),
                    )
                )
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out


def read_events_csv(path) -> list[PlayEvents]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(path, next(reader, None), EVENTS_CSV_HEADER)
        out = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(EVENTS_CSV_HEADER):
                raise DataError(f"{path}:{lineno}: expected {len(EVENTS_CSV_HEADER)} fields")
            try:
                out.append(
                    PlayEvents(
                        game_id=rec[0],
                        play_id=rec[1],
                        snap_frame=int(rec[2]),
                        has_forward_pass=_parse_bool01(rec[3], "has_forward_pass"),
                        has_sack=_parse_bool01(rec[4], "has_sack"),
                        qb_hit=_parse_bool01(rec[5], "qb_hit"),
                    )
                )
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out


def read_engagements_csv(path) -> list[Engagement]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(path, next(reader, None), ENGAGEMENTS_CSV_HEADER)
        out = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(ENGAGEMENTS_CSV_HEADER):
                raise DataError(f"{path}:{lineno}: expected {len(ENGAGEMENTS_CSV_HEADER)} fields")
            try:
                out.append(
                    Engagement(
                        game_id=rec[0],
                        play_id=rec[1],
                        rusher_id=rec[2],
                        blocker_id=rec[3],
                        start_frame=int(rec[4]),
                        end_frame=int(rec[5]),
                    )
                )
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out


def read_schedule_csv(path) -> dict[str, int]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _check_header(path, next(reader, None), SCHEDULE_CSV_HEADER)
        out: dict[str, int] = {}
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 fields")
            game_id, week_text = rec
            if game_id in out:
                raise DataError(f"{path}:{lineno}: duplicate game_id {game_id!r}")
            try:
                week = int(week_text)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad week {week_text!r}") from exc
            if week < 1:
                raise DataError(f"{path}:{lineno}: week must be >= 1, got {week}")
            out[game_id] = week
    return out

import collections
import csv
import dataclasses
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from trenchrank import cli, interactions
from trenchrank.errors import DataError
from trenchrank.external import ACCOLADE_CSV_HEADER, read_accolades_csv
from trenchrank.interactions import (
    OutcomeClass,
    _parse_bool01,
    canonical_sort,
    label_outcome,
    read_interactions_csv,
    write_interactions_csv,
)
from trenchrank.tracking import (
    ENGAGEMENTS_CSV_HEADER,
    ENGAGEMENTS_DTYPE,
    EVENTS_CSV_HEADER,
    EVENTS_DTYPE,
    SCHEDULE_CSV_HEADER,
    TRACKING_CSV_HEADER,
    TrackingFrames,
    WIN_HORIZON_FRAMES,
    build_interactions,
    read_engagements_csv,
    read_events_csv,
    read_schedule_csv,
    read_tracking_csv,
)

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
import rawgen  # noqa: E402  (raw tracking CSVs whose table is known by construction)

from conftest import Interaction, rows_of, table_of  # noqa: E402

INT64 = np.iinfo(np.int64)


# ---------------------------------------------------------------------------
# Reference records: the row model the columnar ingest replaced, kept as
# the oracle's input and as the source of the columnar inputs.


@dataclass(frozen=True, slots=True)
class Frame:
    """One tracking row as values: one player's position at one 10 Hz instant."""

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


def is_dropback(events):
    """A play is a dropback when it has a forward pass or a sack."""
    return events.has_forward_pass or events.has_sack


def detect_double_team(engagements, *, min_overlap=1):
    """True iff two distinct blockers engage this rusher (one rusher on
    one play) in windows that share at least ``min_overlap`` frames."""
    for i, a in enumerate(engagements):
        for b in engagements[i + 1 :]:
            if a.blocker_id == b.blocker_id:
                continue
            shared = min(a.end_frame, b.end_frame) - max(a.start_frame, b.start_frame) + 1
            if shared >= min_overlap:
                return True
    return False


def frame(pid, x, y, *, qb=False, game="g1", play="p1", t=0):
    return Frame(game, play, t, pid, float(x), float(y), qb)


def tracking_frames(frames):
    """``Frame``s as a ``TrackingFrames``, in list order."""
    return TrackingFrames(
        [f.game_id for f in frames], [f.play_id for f in frames],
        [f.player_id for f in frames], [f.frame_index for f in frames],
        [f.x for f in frames], [f.y for f in frames], [bool(f.is_qb) for f in frames],
    )


def decoded_frames(columns):
    """The rows of a ``TrackingFrames`` as ``Frame``s, in input order."""
    return [
        Frame(*columns.plays[p], t, columns.players[i], x, y, qb)
        for p, t, i, x, y, qb in zip(
            columns.play.tolist(), columns.frame.tolist(), columns.player.tolist(),
            columns.x.tolist(), columns.y.tolist(), columns.is_qb.tolist(),
        )
    ]


def structured(records, dtype):
    """Records (``PlayEvents`` or ``Engagement``) as the structured array
    the readers return, in list order."""
    rows = np.empty(len(records), dtype=dtype)
    for field in dtype.names:
        rows[field] = [getattr(r, field) for r in records]
    return rows


def records_of(rows, record):
    """The rows of a structured array as ``record``s."""
    return [record(*row) for row in rows.tolist()]


def build(frames, events, engagements, schedule, **options):
    """``build_interactions`` on reference inputs: ``Frame``s (or frame
    columns), and events and engagement records."""
    if not isinstance(frames, TrackingFrames):
        frames = tracking_frames(frames)
    return build_interactions(
        frames, structured(events, EVENTS_DTYPE), structured(engagements, ENGAGEMENTS_DTYPE),
        schedule, **options,
    )


def eng(rusher, blocker, start, end, *, game="g1", play="p1"):
    return Engagement(game, play, rusher, blocker, start, end)


def engage(frames, rusher="R1", blocker="B1", *, snap=0, window=(0, 0), **options):
    """The win label of one engagement on the one-play world ``frames``."""
    (row,) = rows_of(build(
        frames, [PlayEvents("g1", "p1", snap, True, False, False)],
        [eng(rusher, blocker, *window)], {"g1": 1}, **options,
    ))
    return row.win_target


class TestQbDistance:
    def test_three_four_five_triangle(self):
        frames = [frame("QB", 0, 0, qb=True), frame("R1", 3, 4)]
        # R1 is exactly 5.0 from the QB: a tie with B1 at 5.0, a win one ulp further
        assert engage(frames + [frame("B1", 0, 5.0)]) is False
        assert engage(frames + [frame("B1", 0, math.nextafter(5.0, 6.0))]) is True

    def test_zero_distance(self):
        frames = [frame("QB", 2, 2, qb=True), frame("R1", 2, 2)]
        assert engage(frames + [frame("B1", 2, 2)]) is False
        assert engage(frames + [frame("B1", 2, math.nextafter(2.0, 3.0))]) is True

    def test_multiple_qbs_rejected(self):
        frames = [frame("QB", 0, 0, qb=True), frame("QB2", 1, 1, qb=True),
                  frame("R1", 3, 4), frame("B1", 0, 5)]
        with pytest.raises(DataError, match="multiple QB frames at g1/p1 frame 0"):
            engage(frames)

    def test_missing_qb_rejected(self):
        with pytest.raises(DataError, match="missing QB track at g1/p1 frame 0"):
            engage([frame("R1", 3, 4), frame("B1", 0, 5)])

    def test_missing_player_rejected(self):
        frames = [frame("QB", 0, 0, qb=True), frame("B1", 0, 5)]
        with pytest.raises(DataError, match="missing track for player 'R9' at g1/p1 frame 0"):
            engage(frames, rusher="R9")


def dists(pairs):
    return {t: float(d) for t, d in pairs}


def wins(rusher_dists, blocker_dists, snap, window, **options):
    """The win label of one engagement on a one-play world: the QB at the
    origin at every frame either player has and, at each frame t, R1 at
    (rusher_dists[t], 0) and B1 at (0, blocker_dists[t]), so those are
    their exact distances to the QB."""
    frames = [frame("QB", 0, 0, qb=True, t=t) for t in sorted({*rusher_dists, *blocker_dists})]
    frames += [frame("R1", d, 0, t=t) for t, d in rusher_dists.items()]
    frames += [frame("B1", 0, d, t=t) for t, d in blocker_dists.items()]
    return engage(frames, snap=snap, window=window, **options)


class TestWinRule:
    def far(self, ts):
        return dists((t, 5.0) for t in ts)

    def test_strictly_closer_wins(self):
        ts = range(0, 11)
        rd = dists((t, 4.9 if t == 6 else 5.5) for t in ts)
        assert wins(rd, self.far(ts), 0, (0, 10)) is True

    def test_tie_is_not_a_win(self):
        ts = range(0, 11)
        rd = dists((t, 5.0) for t in ts)
        assert wins(rd, self.far(ts), 0, (0, 10)) is False

    def test_horizon_endpoint_included(self):
        # closer only at frame snap+25: still a win
        ts = range(0, 40)
        rd = dists((t, 1.0 if t == WIN_HORIZON_FRAMES else 9.0) for t in ts)
        assert wins(rd, self.far(ts), 0, (0, 39)) is True

    def test_frame_after_horizon_ignored(self):
        # closer only at frame snap+26: one frame too late
        ts = range(0, 40)
        rd = dists((t, 1.0 if t == WIN_HORIZON_FRAMES + 1 else 9.0) for t in ts)
        assert wins(rd, self.far(ts), 0, (0, 39)) is False

    def test_horizon_counts_from_snap_not_window(self):
        ts = range(0, 60)
        rd = dists((t, 1.0 if t == 30 else 9.0) for t in ts)
        # snap at 10: frame 30 is within 10+25; snap at 0: it is not
        assert wins(rd, self.far(ts), 10, (0, 59)) is True
        assert wins(rd, self.far(ts), 0, (0, 59)) is False

    def test_window_clipped_to_snap(self):
        # frames before the snap never count even if the window covers them
        ts = range(0, 20)
        rd = dists((t, 1.0 if t < 5 else 9.0) for t in ts)
        assert wins(rd, self.far(ts), 5, (0, 19)) is False

    def test_tolerance_widens_required_gap(self):
        ts = range(0, 5)
        rd = dists((t, 4.6) for t in ts)
        assert wins(rd, self.far(ts), 0, (0, 4), tolerance=0.0) is True
        assert wins(rd, self.far(ts), 0, (0, 4), tolerance=0.3) is True
        assert wins(rd, self.far(ts), 0, (0, 4), tolerance=0.4) is False
        assert wins(rd, self.far(ts), 0, (0, 4), tolerance=0.5) is False

    def test_disjoint_window_is_a_loss(self):
        # a window that misses snap .. snap + horizon needs no tracks at all
        assert wins({}, {}, 0, (30, 40)) is False

    def test_missing_frame_rejected(self):
        rd = dists([(0, 5.0), (2, 5.0)])
        bd = dists([(0, 5.0), (1, 5.0), (2, 5.0)])
        with pytest.raises(DataError, match="missing track for player 'R1' at g1/p1 frame 1"):
            wins(rd, bd, 0, (0, 2))


def doubles(engagements, **options):
    """The double-team flag of each engagement on one dropback play, in
    event order.  The snap is at frame 100, so no window reaches the
    horizon and no tracks are needed."""
    table = build([], [PlayEvents("g1", "p1", 100, True, False, False)], engagements,
                  {"g1": 1}, **options)
    return table.double_team.tolist()


class TestDoubleTeam:
    def test_two_blockers_overlapping(self):
        assert doubles([eng("R1", "B1", 0, 10), eng("R1", "B2", 5, 15)]) == [True, True]

    def test_single_shared_frame_counts(self):
        assert doubles([eng("R1", "B1", 0, 10), eng("R1", "B2", 10, 20)]) == [True, True]

    def test_adjacent_windows_do_not_overlap(self):
        assert doubles([eng("R1", "B1", 0, 10), eng("R1", "B2", 11, 20)]) == [False, False]

    def test_same_blocker_twice_is_not_a_double(self):
        assert doubles([eng("R1", "B1", 0, 10), eng("R1", "B1", 12, 20)]) == [False, False]
        assert doubles([eng("R1", "B1", 0, 10), eng("R1", "B1", 5, 20)]) == [False, False]

    def test_min_overlap_threshold(self):
        pair = [eng("R1", "B1", 0, 10), eng("R1", "B2", 9, 20)]  # 2 shared frames
        assert doubles(pair, min_overlap=2) == [True, True]
        assert doubles(pair, min_overlap=3) == [False, False]

    def test_empty_play_has_no_rows(self):
        assert doubles([]) == []

    def test_overlap_across_rushers_is_not_a_double(self):
        assert doubles([eng("R1", "B1", 0, 10), eng("R2", "B2", 0, 10)]) == [False, False]

    def test_flag_covers_every_engagement_of_the_rusher(self):
        # B1 and B2 overlap; B3 comes later, but it is still R1's double-teamed play
        group = [eng("R1", "B1", 0, 10), eng("R1", "B2", 5, 15), eng("R1", "B3", 30, 40)]
        # event order: R1-B1 and R2-B4 start at 0, then R1-B2, then R1-B3
        assert doubles(group + [eng("R2", "B4", 0, 40)]) == [True, False, True, True]

    def test_other_plays_and_games_are_apart(self):
        plays = [("g1", "p1"), ("g1", "p2"), ("g2", "p1")]
        events = [PlayEvents(g, p, 100, True, False, False) for g, p in plays]
        engagements = [eng("R1", f"B{k}", 0, 10, game=g, play=p) for k, (g, p) in enumerate(plays)]
        table = build([], events, engagements, {"g1": 1, "g2": 1})
        assert not table.double_team.any()


class TestDropbackFilter:
    def kept(self, has_forward_pass, has_sack):
        events = [PlayEvents("g1", "p1", 100, has_forward_pass, has_sack, False)]
        return len(build([], events, [eng("R1", "B1", 0, 10)], {"g1": 1})) == 1

    def test_pass_counts(self):
        assert self.kept(True, False) is True

    def test_sack_counts(self):
        assert self.kept(False, True) is True

    def test_run_play_does_not(self):
        assert self.kept(False, False) is False


def hand_play():
    """One game, two plays: a pass dropback and a run to be filtered.

    On p1 (snap frame 2) R1 beats B1 at frame 6 and the QB is hit, while
    R2 is double-teamed by B1 and B2 and never wins.
    """
    frames = []
    for t in range(0, 13):
        frames.append(frame("QB", 0.0, 0.0, qb=True, t=t))
        frames.append(frame("R1", 4.0 if t == 6 else 6.0, 0.0, t=t))
        frames.append(frame("B1", 5.0, 0.0, t=t))
        frames.append(frame("R2", 8.0, 0.0, t=t))
        frames.append(frame("B2", 5.0, 1.0, t=t))
    frames += [
        frame("QB", 0.0, 0.0, qb=True, play="p2", t=0),
        frame("R1", 6.0, 0.0, play="p2", t=0),
        frame("B1", 5.0, 0.0, play="p2", t=0),
    ]
    events = [
        PlayEvents("g1", "p1", 2, True, False, True),
        PlayEvents("g1", "p2", 0, False, False, False),
    ]
    engagements = [
        eng("R1", "B1", 3, 12),
        eng("R2", "B1", 3, 8),
        eng("R2", "B2", 6, 12),
        eng("R1", "B1", 0, 0, play="p2"),
    ]
    return frames, events, engagements, {"g1": 4}


class TestBuildInteractions:
    def test_hand_built_play(self):
        frames, events, engagements, schedule = hand_play()
        table = build(frames, events, engagements, schedule)
        assert len(table) == 3  # run play filtered out
        assert [r.play_id for r in rows_of(table)] == ["p1", "p1", "p1"]
        assert [r.week for r in rows_of(table)] == [4, 4, 4]
        assert [r.event_game_index for r in rows_of(table)] == [0, 1, 2]
        by_pair = {(r.rusher_id, r.blocker_id): r for r in rows_of(table)}
        r1 = by_pair[("R1", "B1")]
        assert r1.win_target is True
        assert r1.severity is OutcomeClass.HIT  # hit outranks the 2.5 s win
        assert r1.double_team is False
        r2b1 = by_pair[("R2", "B1")]
        r2b2 = by_pair[("R2", "B2")]
        assert r2b1.win_target is False and r2b2.win_target is False
        assert r2b1.severity is OutcomeClass.HIT  # play-level flag reaches every row
        assert r2b1.double_team is True and r2b2.double_team is True

    def test_event_index_orders_by_start_frame_then_ids(self):
        frames, events, engagements, schedule = hand_play()
        table = build(frames, events, engagements, schedule)
        ordered = [(r.rusher_id, r.blocker_id) for r in rows_of(table)]
        assert ordered == [("R1", "B1"), ("R2", "B1"), ("R2", "B2")]

    def test_window_past_horizon_is_a_loss_not_an_error(self):
        frames, events, engagements, schedule = hand_play()
        engagements = engagements + [eng("R3", "B3", 40, 50)]
        table = build(frames, events, engagements, schedule)
        row = next(r for r in rows_of(table) if r.rusher_id == "R3")
        assert row.win_target is False
        assert row.severity is OutcomeClass.HIT  # qb_hit still applies

    def test_dangling_engagement_rejected(self):
        frames, events, engagements, schedule = hand_play()
        with pytest.raises(DataError, match="dangling"):
            build(frames, events, engagements + [eng("R1", "B1", 0, 1, play="p9")], schedule)

    def test_missing_schedule_entry_rejected(self):
        frames, events, engagements, _ = hand_play()
        with pytest.raises(DataError, match="schedule"):
            build(frames, events, engagements, {})

    def test_missing_track_rejected(self):
        frames, events, engagements, schedule = hand_play()
        frames = [f for f in frames if f.player_id != "B2"]
        with pytest.raises(DataError, match="missing track"):
            build(frames, events, engagements, schedule)

    def test_sack_outranks_everything(self):
        frames, events, engagements, schedule = hand_play()
        events = [
            PlayEvents("g1", "p1", 2, True, True, True),
            events[1],
        ]
        table = build(frames, events, engagements, schedule)
        assert all(r.severity is OutcomeClass.SACK for r in rows_of(table))

    def test_output_is_canonically_sorted(self):
        frames, events, engagements, schedule = hand_play()
        table = build(frames, events, engagements, schedule)
        assert table.is_canonically_sorted()

    def test_week_below_one_rejected_for_a_game_with_rows(self):
        frames, events, engagements, _ = hand_play()
        with pytest.raises(DataError, match=r"game 'g1' has week 0"):
            build(frames, events, engagements, {"g1": 0})

    def test_week_below_one_ignored_for_a_game_without_dropbacks(self):
        frames, events, engagements, _ = hand_play()
        events = events + [PlayEvents("g2", "p1", 0, False, False, False)]
        engagements = engagements + [eng("R1", "B1", 0, 0, game="g2")]
        table = build(frames, events, engagements, {"g1": 4, "g2": 0})
        assert table.games == ("g1",) and len(table) == 3

    def test_no_dropback_engagement_gives_an_empty_table(self):
        frames, events, engagements, schedule = hand_play()
        table = build(frames, events, engagements[3:], schedule)
        assert table == table_of([]) and table.games == ()
        assert table.win.dtype == float and table.severity.dtype == np.intp

    def test_frame_list_rejected(self):
        frames, events, engagements, schedule = hand_play()
        with pytest.raises(TypeError, match="TrackingFrames"):
            build_interactions(
                frames, structured(events, EVENTS_DTYPE),
                structured(engagements, ENGAGEMENTS_DTYPE), schedule,
            )

    def test_tolerance_flips_marginal_win(self):
        frames, events, engagements, schedule = hand_play()
        table = build(frames, events, engagements, schedule, tolerance=2.0)
        r1 = next(r for r in rows_of(table) if r.rusher_id == "R1")
        # R1's best margin is 1.0 yard (4.0 vs 5.0): below the 2.0 gap
        assert r1.win_target is False
        assert r1.severity is OutcomeClass.HIT


class TestValidation:
    def test_negative_frame_index_rejected(self, tmp_path):
        path = tmp_path / "tracking.csv"
        path.write_text(
            "game_id,play_id,frame_index,player_id,x,y,is_qb\n"
            "g1,p1,0,QB,1.0,2.0,1\n"
            "g1,p1,-1,R1,1.0,2.0,0\n"
        )
        with pytest.raises(DataError, match=r"tracking.csv:3: frame_index must be >= 0, got -1$"):
            read_tracking_csv(path)

    def test_negative_snap_rejected(self):
        frames, events, engagements, schedule = hand_play()
        events = structured(events, EVENTS_DTYPE)
        events["snap_frame"][1] = -3
        with pytest.raises(DataError, match=r"^snap_frame must be >= 0, got -3$"):
            build_interactions(tracking_frames(frames), events,
                               structured(engagements, ENGAGEMENTS_DTYPE), schedule)

    def test_reversed_engagement_rejected(self):
        frames, events, engagements, schedule = hand_play()
        engagements = structured(engagements, ENGAGEMENTS_DTYPE)
        engagements["start_frame"][2] = 13
        with pytest.raises(DataError, match=r"^engagement has start_frame 13 > end_frame 12$"):
            build_interactions(tracking_frames(frames), structured(events, EVENTS_DTYPE),
                               engagements, schedule)


class TestCsvReaders:
    def test_tracking_round_trip(self, tmp_path):
        path = tmp_path / "tracking.csv"
        path.write_text(
            "game_id,play_id,frame_index,player_id,x,y,is_qb\n"
            "g1,p1,0,QB,1.5,2.5,1\n"
            "g1,p1,0,R1,4.5,6.5,0\n"
        )
        frames = read_tracking_csv(path)
        assert len(frames) == 2
        rows = decoded_frames(frames)
        assert rows[0].is_qb is True
        assert rows[1] == Frame("g1", "p1", 0, "R1", 4.5, 6.5, False)

    def test_tracking_bad_header(self, tmp_path):
        path = tmp_path / "tracking.csv"
        path.write_text("game,play\ng1,p1\n")
        with pytest.raises(DataError, match="bad header"):
            read_tracking_csv(path)

    def test_tracking_bad_flag_has_line_number(self, tmp_path):
        path = tmp_path / "tracking.csv"
        path.write_text(
            "game_id,play_id,frame_index,player_id,x,y,is_qb\n"
            "g1,p1,0,QB,1.0,2.0,1\n"
            "g1,p1,0,R1,1.0,2.0,yes\n"
        )
        with pytest.raises(DataError, match=r":3:"):
            read_tracking_csv(path)

    def test_events_round_trip(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "game_id,play_id,snap_frame,has_forward_pass,has_sack,qb_hit\n"
            "g1,p1,3,1,0,1\n"
        )
        events = read_events_csv(path)
        assert events.dtype == EVENTS_DTYPE and events.dtype.names == tuple(EVENTS_CSV_HEADER)
        assert not events.flags.writeable and len(events) == 1
        assert records_of(events, PlayEvents) == [PlayEvents("g1", "p1", 3, True, False, True)]

    def test_events_negative_snap_has_line_number(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "game_id,play_id,snap_frame,has_forward_pass,has_sack,qb_hit\n"
            "g1,p1,-2,1,0,0\n"
        )
        with pytest.raises(DataError, match=r":2:.*snap_frame"):
            read_events_csv(path)

    def test_engagements_round_trip(self, tmp_path):
        path = tmp_path / "engagements.csv"
        path.write_text(
            "game_id,play_id,rusher_id,blocker_id,start_frame,end_frame\n"
            "g1,p1,R1,B1,2,9\n"
            "g1,p1,R2,B1,-5,-1\n"
        )
        engagements = read_engagements_csv(path)
        assert engagements.dtype == ENGAGEMENTS_DTYPE
        assert engagements.dtype.names == tuple(ENGAGEMENTS_CSV_HEADER)
        assert not engagements.flags.writeable and len(engagements) == 2
        assert records_of(engagements, Engagement) == [
            Engagement("g1", "p1", "R1", "B1", 2, 9), Engagement("g1", "p1", "R2", "B1", -5, -1)
        ]

    def test_empty_files_are_empty_arrays(self, tmp_path):
        for reader, header, dtype in ((read_events_csv, EVENTS_CSV_HEADER, EVENTS_DTYPE),
                                      (read_engagements_csv, ENGAGEMENTS_CSV_HEADER,
                                       ENGAGEMENTS_DTYPE)):
            path = tmp_path / "in.csv"
            path.write_text(",".join(header) + "\n")
            rows = reader(path)
            assert rows.dtype == dtype and len(rows) == 0

    def test_engagements_reversed_window_has_line_number(self, tmp_path):
        path = tmp_path / "engagements.csv"
        path.write_text(
            "game_id,play_id,rusher_id,blocker_id,start_frame,end_frame\n"
            "g1,p1,R1,B1,9,2\n"
        )
        with pytest.raises(DataError, match=r":2:"):
            read_engagements_csv(path)

    def test_schedule_round_trip(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("game_id,week\ng1,1\ng2,14\n")
        assert read_schedule_csv(path) == {"g1": 1, "g2": 14}

    def test_schedule_duplicate_game_rejected(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("game_id,week\ng1,1\ng1,2\n")
        with pytest.raises(DataError, match="duplicate"):
            read_schedule_csv(path)

    def test_schedule_week_below_one_rejected(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("game_id,week\ng1,0\n")
        with pytest.raises(DataError, match="week"):
            read_schedule_csv(path)

    def test_schedule_week_beyond_int64_rejected_with_line(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("game_id,week\ng1,1\ng2,99999999999999999999\n")
        with pytest.raises(DataError) as got:
            read_schedule_csv(path)
        assert str(got.value) == (
            f"{path}:3: week does not fit in a 64-bit integer, got '99999999999999999999'"
        )

    def test_schedule_week_not_an_integer_names_field(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("game_id,week\ng1,w2\n")
        with pytest.raises(DataError) as got:
            read_schedule_csv(path)
        assert str(got.value) == f"{path}:2: week must be an integer, got 'w2'"

    def test_ingest_with_week_beyond_int64_exits_2(self, tmp_path, capsys):
        paths = rawgen.generate(tmp_path, seed=0, n_games=1, plays_per_game=2)["paths"]
        schedule = paths["schedule"]
        game = rawgen.read_rows(schedule)[0][0]
        Path(schedule).write_text(f"game_id,week\n{game},99999999999999999999\n")
        argv = ["ingest", "--tracking", paths["tracking"], "--events", paths["events"],
                "--engagements", paths["engagements"], "--schedule", schedule,
                "--out", str(tmp_path / "out.csv")]
        assert cli.main([str(a) for a in argv]) == 2
        assert f"{schedule}:2: week does not fit in a 64-bit integer" in capsys.readouterr().err

    def test_tracking_frame_index_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "tracking.csv"
        path.write_text(
            "game_id,play_id,frame_index,player_id,x,y,is_qb\n"
            "g1,p1,0,QB,1.0,2.0,1\n"
            "g1,p1,99999999999999999999,R1,1.0,2.0,0\n"
        )
        with pytest.raises(DataError) as got:
            read_tracking_csv(path)
        assert str(got.value) == (
            f"{path}:3: frame_index does not fit in a 64-bit integer, got '99999999999999999999'"
        )

    @pytest.mark.parametrize("reader, header, first, bad, want", [
        (read_events_csv, EVENTS_CSV_HEADER, 'g1,"p\n1",3,1,0,1', "g1,p2,x,1,0,0",
         "snap_frame must be an integer, got 'x'"),
        (read_engagements_csv, ENGAGEMENTS_CSV_HEADER, 'g1,p1,"R\n1",B1,2,9', "g1,p1,R2,B1,5,z",
         "end_frame must be an integer, got 'z'"),
        (read_schedule_csv, SCHEDULE_CSV_HEADER, '"g\n1",1', "g2,0", "week must be >= 1, got 0"),
        (read_tracking_csv, TRACKING_CSV_HEADER, 'g1,p1,0,"R\n1",3.0,4.0,0',
         "g1,p1,0,QB,0.0,0.0,yes", "is_qb must be 0 or 1, got 'yes'"),
        (read_tracking_csv, TRACKING_CSV_HEADER, 'g1,p1,0,"R\n1",3.0,4.0,0',
         "g1,p1,0,QB,0.0,0.0,1\ng1,p1,0,QB,1.0,0.0,1",
         "duplicate tracking row for player 'QB' at g1/p1 frame 0 (first at line 4)"),
    ], ids=["events", "engagements", "schedule", "tracking rescan", "tracking duplicate"])
    def test_error_after_quoted_line_break_names_the_file_line(
        self, tmp_path, reader, header, first, bad, want
    ):
        # the first record spans lines 2-3, so the next bad record is on line 4 or 5
        path = tmp_path / "ql.csv"
        path.write_text(",".join(header) + f"\n{first}\n{bad}\n")
        line = 3 + bad.count("\n") + 1
        with pytest.raises(DataError) as got:
            reader(path)
        assert str(got.value) == f"{path}:{line}: {want}"

    def test_quoted_line_breaks_keep_tracking_lines(self, tmp_path):
        path = tmp_path / "tracking.csv"
        path.write_text(",".join(TRACKING_CSV_HEADER) + '\ng1,p1,0,"R\n1",3.0,4.0,0\n'
                        'g1,p1,0,QB,0.0,0.0,1\n"g\n\n2",p1,0,QB,0.0,0.0,1\ng2,p1,1,QB,0,0,1\n')
        frames = read_tracking_csv(path)
        assert frames.line.tolist() == [3, 4, 7, 8]
        assert frames.plays == (("g\n\n2", "p1"), ("g1", "p1"), ("g2", "p1"))

    @pytest.mark.parametrize("reader, header, record, want", [
        (read_events_csv, EVENTS_CSV_HEADER, "g1,p1,1.5,1,0,0",
         "snap_frame must be an integer, got '1.5'"),
        (read_events_csv, EVENTS_CSV_HEADER, "g1,p1,,1,0,0",
         "snap_frame must be an integer, got ''"),
        (read_engagements_csv, ENGAGEMENTS_CSV_HEADER, "g1,p1,R1,B1,x,2",
         "start_frame must be an integer, got 'x'"),
        (read_tracking_csv, TRACKING_CSV_HEADER, "g1,p1,1.5,QB,0.0,0.0,1",
         "frame_index must be an integer, got '1.5'"),
    ], ids=["events 1.5", "events empty", "engagements x", "tracking 1.5"])
    def test_non_numeric_integer_names_its_field(self, tmp_path, reader, header, record, want):
        path = tmp_path / "in.csv"
        path.write_text(",".join(header) + f"\n{record}\n")
        with pytest.raises(DataError) as got:
            reader(path)
        assert str(got.value) == f"{path}:2: {want}"

    @pytest.mark.parametrize("reader, header, record, field, text", [
        (read_events_csv, EVENTS_CSV_HEADER, "g1,p2,{},1,0,0", "snap_frame", str(2**63)),
        (read_engagements_csv, ENGAGEMENTS_CSV_HEADER, "g1,p1,R1,B1,{},9", "start_frame",
         str(-2**63 - 1)),
        (read_engagements_csv, ENGAGEMENTS_CSV_HEADER, "g1,p1,R1,B1,0,{}", "end_frame",
         str(2**64)),
    ], ids=["snap_frame", "start_frame", "end_frame"])
    def test_frame_beyond_int64_names_line(self, tmp_path, reader, header, record, field, text):
        path = tmp_path / "in.csv"
        good = record.format(0)
        path.write_text(",".join(header) + f"\n{good}\n{record.format(text)}\n")
        with pytest.raises(DataError) as got:
            reader(path)
        want = f"{field} does not fit in a 64-bit integer, got '{text}'"
        assert str(got.value) == f"{path}:3: {want}"

    def test_frames_at_int64_bounds_are_read(self, tmp_path):
        path = tmp_path / "engagements.csv"
        path.write_text(",".join(ENGAGEMENTS_CSV_HEADER)
                        + f"\ng1,p1,R1,B1,{INT64.min},{INT64.max}\n")
        (row,) = records_of(read_engagements_csv(path), Engagement)
        assert (row.start_frame, row.end_frame) == (INT64.min, INT64.max)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "engagements.csv"
        path.write_text(
            "game_id,play_id,rusher_id,blocker_id,start_frame,end_frame\n"
            "g1,p1,R1,B1,2\n"
        )
        with pytest.raises(DataError, match="fields"):
            read_engagements_csv(path)

    @pytest.mark.parametrize(
        "reader, header, good, bad",
        [
            (read_events_csv, "game_id,play_id,snap_frame,has_forward_pass,has_sack,qb_hit",
             "g1,p1,3,1,0,1", "g1,p2,{},1,0,0"),
            (read_engagements_csv, "game_id,play_id,rusher_id,blocker_id,start_frame,end_frame",
             "g1,p1,R1,B1,2,9", "g1,p1,R2,B1,{},99"),
            (read_engagements_csv, "game_id,play_id,rusher_id,blocker_id,start_frame,end_frame",
             "g1,p1,R1,B1,2,9", "g1,p1,R2,B1,0,{}"),
            (read_schedule_csv, "game_id,week", "g1,1", "g2,{}"),
        ],
        ids=["snap_frame", "start_frame", "end_frame", "week"],
    )
    @pytest.mark.parametrize("text", ["1_0", "\u0663"])
    def test_underscored_or_non_ascii_numerals_rejected_with_line(
        self, tmp_path, reader, header, good, bad, text
    ):
        # Python's int() reads both; the tracking file's numeral rule does not
        path = tmp_path / "in.csv"
        path.write_text(f"{header}\n{good}\n{bad.format(text)}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"in.csv:3: "):
            reader(path)


# ---------------------------------------------------------------------------
# Reference implementations: the row reader and dict-based builder that the
# columnar path replaced, kept as the oracle it must match.


def reference_read_records(path, header, record):
    """``record(*fields)`` of each data record of ``path``, read one at a
    time; an error names the line the bad record ends on."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise DataError(f"bad header in {path}: expected {header}, got {got}")
        out = []
        for rec in reader:
            lineno = reader.line_num
            if len(rec) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                out.append(record(*rec))
            except (ValueError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out


def reference_int(text, field):
    """Python's int of ``text``, in ASCII digits without underscores and
    within int64."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{field} must be an integer, got {text!r}") from None
    if "_" in text or not text.isascii():
        raise ValueError(
            f"{field} must be written in ASCII digits without underscores, got {text!r}"
        )
    if not INT64.min <= value <= INT64.max:
        raise ValueError(f"{field} does not fit in a 64-bit integer, got {text!r}")
    return value


def reference_float(text, field):
    """Python's float of ``text``, an error naming the field."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{field} must be a number, got {text!r}") from None


def _frame_record(game_id, play_id, frame_index, player_id, x, y, is_qb):
    try:
        frame_index = int(frame_index)
    except ValueError:
        raise ValueError(f"frame_index must be an integer, got {frame_index!r}") from None
    return Frame(game_id, play_id, frame_index, player_id, reference_float(x, "x"),
                 reference_float(y, "y"), _parse_bool01(is_qb, "is_qb"))


def _events_record(game_id, play_id, snap_frame, *flags):
    return PlayEvents(game_id, play_id, reference_int(snap_frame, "snap_frame"), *(
        _parse_bool01(text, field) for text, field in zip(flags, EVENTS_CSV_HEADER[3:])
    ))


def _engagement_record(game_id, play_id, rusher_id, blocker_id, start_frame, end_frame):
    return Engagement(game_id, play_id, rusher_id, blocker_id,
                      reference_int(start_frame, "start_frame"),
                      reference_int(end_frame, "end_frame"))


def reference_read_tracking_csv(path):
    return reference_read_records(path, TRACKING_CSV_HEADER, _frame_record)


def reference_read_events_csv(path):
    return reference_read_records(path, EVENTS_CSV_HEADER, _events_record)


def reference_read_engagements_csv(path):
    return reference_read_records(path, ENGAGEMENTS_CSV_HEADER, _engagement_record)


def _reference_distances(positions, qb_track, player_id, frames, game_id, play_id, hypot):
    out = {}
    for t in frames:
        if t not in qb_track:
            raise DataError(f"missing QB track at {game_id}/{play_id} frame {t}")
        if (player_id, t) not in positions:
            raise DataError(
                f"missing track for player {player_id!r} at {game_id}/{play_id} frame {t}"
            )
        qx, qy = qb_track[t]
        px, py = positions[(player_id, t)]
        out[t] = hypot(px - qx, py - qy)
    return out


def reference_build_interactions(
    frames, events, engagements, schedule, *, horizon=WIN_HORIZON_FRAMES, tolerance=0.0,
    min_overlap=1, hypot=math.hypot,
):
    events_by_play = {}
    for ev in events:
        key = (ev.game_id, ev.play_id)
        if key in events_by_play:
            raise DataError(f"duplicate events row for {key}")
        events_by_play[key] = ev

    qb_tracks = {}
    positions = {}
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

    by_play = {}
    for e in engagements:
        key = (e.game_id, e.play_id)
        if key not in events_by_play:
            raise DataError(
                f"dangling engagement: no events row for {e.game_id}/{e.play_id} "
                f"({e.rusher_id} vs {e.blocker_id})"
            )
        by_play.setdefault(key, []).append(e)

    by_game = {}
    for (game_id, play_id), plays_engagements in by_play.items():
        if not is_dropback(events_by_play[(game_id, play_id)]):
            continue
        if game_id not in schedule:
            raise DataError(f"game {game_id!r} missing from the schedule (unknown week)")
        if schedule[game_id] < 1:
            raise DataError(f"game {game_id!r} has week {schedule[game_id]}; weeks start at 1")
        for e in plays_engagements:
            by_game.setdefault(game_id, []).append((play_id, e))

    rows = []
    for game_id, tagged in by_game.items():
        tagged.sort(key=lambda pe: (pe[0], pe[1].start_frame, pe[1].rusher_id, pe[1].blocker_id))
        partners = {}
        for play_id, e in tagged:
            partners.setdefault((play_id, e.rusher_id), []).append(e)
        for event_index, (play_id, e) in enumerate(tagged):
            key = (game_id, play_id)
            ev = events_by_play[key]
            window = range(
                max(ev.snap_frame, e.start_frame), min(ev.snap_frame + horizon, e.end_frame) + 1
            )
            won = False
            if window:
                qb_track = qb_tracks.get(key, {})
                pos = positions.get(key, {})
                rd, bd = (
                    _reference_distances(pos, qb_track, pid, window, game_id, play_id, hypot)
                    for pid in (e.rusher_id, e.blocker_id)
                )
                won = any(rd[t] < bd[t] - tolerance for t in window)
            rows.append(
                Interaction(
                    game_id=game_id,
                    play_id=play_id,
                    event_game_index=event_index,
                    week=schedule[game_id],
                    rusher_id=e.rusher_id,
                    blocker_id=e.blocker_id,
                    double_team=detect_double_team(
                        partners[(play_id, e.rusher_id)], min_overlap=min_overlap
                    ),
                    win_target=won,
                    severity=label_outcome(has_sack=ev.has_sack, has_hit=ev.qb_hit, has_win=won),
                )
            )
    return canonical_sort(table_of(rows))


# ---------------------------------------------------------------------------
# Equivalence oracle on seeded random worlds


def _hard_vectors(n=40):
    """Off-grid QB offsets where np.hypot is above math.hypot in the last bit."""
    rng = np.random.default_rng(2024)
    out = []
    while len(out) < n:
        xy = rng.uniform(0.5, 9.0, size=(20000, 2))
        exact = np.array(list(map(math.hypot, xy[:, 0].tolist(), xy[:, 1].tolist())))
        out += [tuple(v) for v in xy[np.hypot(xy[:, 0], xy[:, 1]) > exact].tolist()]
    return out[:n]


HARD_VECTORS = _hard_vectors()


def _window_kind(rng, snap):
    """(start, end, case): windows inside the horizon, clipped at the snap
    or at snap + 25, or missing the horizon on either side."""
    u = rng.random()
    if u < 0.25:
        start = snap - int(rng.integers(1, 4))
        return start, snap + int(rng.integers(0, 20)), "clipped_at_snap"
    if u < 0.5:
        start = snap + int(rng.integers(5, 25))
        return start, snap + WIN_HORIZON_FRAMES + int(rng.integers(1, 6)), "clipped_at_horizon"
    if u < 0.6:
        if rng.random() < 0.5:
            start = snap + WIN_HORIZON_FRAMES + int(rng.integers(1, 4))
            return start, start + int(rng.integers(0, 3)), "misses_horizon"
        return 0, snap - 1, "misses_horizon"
    start = snap + int(rng.integers(0, 10))
    return start, start + int(rng.integers(0, 15)), "inside"


def random_world(seed):
    """Frames (shuffled), events, engagements, schedule and case counts of
    a random world whose win labels hinge on single frames at the window
    edges, exact ties, last-bit hypot differences and small margins."""
    rng = np.random.default_rng(seed)
    frames, events, engagements, schedule = [], [], [], {}
    cases = collections.Counter()
    for g in range(3):
        game = f"g{g}"
        schedule[game] = g + 1
        for p in range(12):
            play = f"p{p}"
            snap = int(rng.integers(1, 6))
            last = snap + WIN_HORIZON_FRAMES + 8
            u = rng.random()
            hit = bool(rng.random() < 0.1)
            events.append(PlayEvents(game, play, snap, u >= 0.1, 0.1 <= u < 0.2, hit))
            origin = rng.random() < 0.5  # the QB stays at (0, 0): hypot inputs are exact offsets
            if origin:
                qb = {t: (0.0, 0.0) for t in range(last + 1)}
            else:
                qb = {t: tuple(rng.uniform(-30, 30, 2).tolist()) for t in range(last + 1)}
            rushers = [f"R{i}" for i in rng.choice(10, int(rng.integers(1, 4)), replace=False)]
            blockers = iter(f"B{i}" for i in rng.permutation(12))
            rusher_vec = {}
            for r in rushers:
                theta = rng.uniform(0, 2 * math.pi, last + 1)
                dist = rng.uniform(2, 10, last + 1)
                rusher_vec[r] = {t: (dist[t] * math.cos(theta[t]), dist[t] * math.sin(theta[t]))
                                 for t in range(last + 1)}
            blocker_vec = {}
            span = {}
            for r in rushers:
                first = None
                for k in range(int(rng.integers(1, 3))):
                    b = next(blockers)
                    if first is None:
                        start, end, case = _window_kind(rng, snap)
                    else:  # second blocker: touch at one frame, share two, or follow on
                        start = first[1] - int(rng.integers(-1, 2))
                        end = start + int(rng.integers(1, 10))
                        case = {0: "touching", 1: "two_shared"}.get(first[1] - start, "sequential")
                    cases[case] += 1
                    first = first or (start, end)
                    engagements.append(Engagement(game, play, r, b, start, end))
                    lo, hi = max(snap, start), min(snap + WIN_HORIZON_FRAMES, end)
                    window = range(lo, hi + 1)
                    # loss frames everywhere; outside the window the rusher often "wins"
                    rel = {t: 1.3 if t not in window and rng.random() < 0.5 else 0.75
                           for t in range(last + 1)}
                    special = rng.choice(["none", "win_lo", "win_hi", "win_after", "win_before",
                                          "win_any", "tie", "margin", "hypot"])
                    if not len(window):
                        special = "none"
                    if special == "hypot" and (not origin or k > 0):
                        special = "tie"
                    cases[str(special)] += 1
                    if special == "win_hi":
                        cases["win_hi_at_end" if hi == end else "win_hi_at_horizon"] += 1
                    target = {"win_lo": lo, "win_hi": hi, "win_after": hi + 1, "win_before": lo - 1,
                              "win_any": int(rng.integers(lo, hi + 1)) if len(window) else -1}
                    if special in target and 0 <= target[special] <= last:
                        rel[target[special]] = 1.3
                    vec = {}
                    for t in range(last + 1):
                        rx, ry = rusher_vec[r][t]
                        vec[t] = (rx * rel[t], ry * rel[t])
                        if t in window and special == "tie" and rng.random() < 0.5:
                            vec[t] = None  # on the rusher's spot
                        elif t in window and special == "margin" and rng.random() < 0.3:
                            d = math.hypot(rx, ry)
                            vec[t] = (rx * (d + 0.05) / d, ry * (d + 0.05) / d)
                        elif t in window and special == "hypot":
                            hx, hy = HARD_VECTORS[int(rng.integers(len(HARD_VECTORS)))]
                            rusher_vec[r][t] = (math.hypot(hx, hy), 0.0)
                            vec[t] = (hx, hy)
                    blocker_vec[b] = r, vec
                    # tracks cover the window plus a random margin, never all frames
                    a = max(0, min(lo, snap) - int(rng.integers(0, 3)))
                    z = min(last, max(hi, snap) + int(rng.integers(0, 3)))
                    span[b] = (a, z)
                    sa, sz = span.get(r, (a, z))
                    span[r] = (min(sa, a), max(sz, z))
            for t in range(last + 1):
                qx, qy = qb[t]
                frames.append(Frame(game, play, t, "QB", qx, qy, True))
                for r in rushers:
                    if span[r][0] <= t <= span[r][1]:
                        rx, ry = rusher_vec[r][t]
                        frames.append(Frame(game, play, t, r, qx + rx, qy + ry, False))
                for b, (r, vec) in blocker_vec.items():
                    if span[b][0] <= t <= span[b][1]:
                        bx, by = rusher_vec[r][t] if vec[t] is None else vec[t]
                        frames.append(Frame(game, play, t, b, qx + bx, qy + by, False))
    order = rng.permutation(len(frames))
    return [frames[i] for i in order], events, engagements, schedule, cases


WORLD_OPTIONS = [{}, {"tolerance": 0.1}, {"min_overlap": 2}, {"horizon": 7}]


class TestEquivalenceOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_world_covers_every_case(self, seed):
        frames, events, engagements, schedule, cases = random_world(seed)
        for case in ("clipped_at_snap", "clipped_at_horizon", "misses_horizon", "inside",
                     "touching", "two_shared", "win_lo", "win_after", "win_before", "tie",
                     "margin", "hypot", "win_hi_at_end", "win_hi_at_horizon"):
            assert cases[case] > 0, case
        # last-bit hypot differences decide some labels, and so do ties and margins
        exact = reference_build_interactions(frames, events, engagements, schedule)
        assert exact != reference_build_interactions(
            frames, events, engagements, schedule, hypot=np.hypot
        )
        assert exact != reference_build_interactions(
            frames, events, engagements, schedule, tolerance=0.1
        )

    @pytest.mark.parametrize("options", WORLD_OPTIONS, ids=lambda o: ",".join(o) or "defaults")
    @pytest.mark.parametrize("seed", range(4))
    def test_frame_lists_match_reference(self, seed, options):
        frames, events, engagements, schedule, _ = random_world(seed)
        want = reference_build_interactions(frames, events, engagements, schedule, **options)
        got = build(frames, events, engagements, schedule, **options)
        assert got == want
        assert 0 < got.win.sum() < len(got)

    @pytest.mark.parametrize("seed", range(4))
    def test_csv_path_matches_reference(self, seed, tmp_path):
        frames, events, engagements, schedule, _ = random_world(seed)
        path = tmp_path / "tracking.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(TRACKING_CSV_HEADER)
            for f in frames:
                w.writerow([f.game_id, f.play_id, f.frame_index, f.player_id, f.x, f.y,
                            int(f.is_qb)])
        ref_frames = reference_read_tracking_csv(path)
        columns = read_tracking_csv(path)
        assert decoded_frames(columns) == ref_frames == frames
        for options in WORLD_OPTIONS:
            assert build(columns, events, engagements, schedule, **options) == \
                reference_build_interactions(ref_frames, events, engagements, schedule, **options)

    @pytest.mark.parametrize("seed", range(3))
    def test_rawgen_ingest_is_byte_identical(self, seed, tmp_path, capsys):
        info = rawgen.generate(tmp_path, seed=seed, n_games=1)
        paths = info["paths"]
        out = tmp_path / "interactions.csv"
        argv = ["ingest"] + [
            arg for name in ("tracking", "events", "engagements", "schedule")
            for arg in (f"--{name}", paths[name])
        ] + ["--out", str(out)]
        assert cli.main(argv) == 0
        ref = tmp_path / "reference.csv"
        write_interactions_csv(
            reference_build_interactions(
                reference_read_tracking_csv(paths["tracking"]),
                reference_read_events_csv(paths["events"]),
                reference_read_engagements_csv(paths["engagements"]),
                read_schedule_csv(paths["schedule"]),
            ),
            ref,
        )
        assert out.read_bytes() == ref.read_bytes()
        assert rawgen.read_rows(out) == rawgen.read_rows(paths["expected"])


@pytest.mark.parametrize("options", WORLD_OPTIONS + [{"min_overlap": 3}],
                         ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "defaults")
@pytest.mark.parametrize("seed", range(12))
def test_more_worlds_match_reference(seed, options):
    frames, events, engagements, schedule, _ = random_world(seed)
    want = reference_build_interactions(frames, events, engagements, schedule, **options)
    assert build(frames, events, engagements, schedule, **options) == want


# ---------------------------------------------------------------------------
# Reader parity: malformed inputs raise the reference's error text


def _play_rows(drop=()):
    """QB, R1 and B1 rows of g1/p1 at frames 0-2, minus ``drop`` (player, frame) pairs."""
    spots = {"QB": ("0.0", "0.0", "1"), "R1": ("3.0", "4.0", "0"), "B1": ("1.0", "1.0", "0")}
    return [
        f"g1,p1,{t},{pid},{x},{y},{qb}"
        for t in range(3) for pid, (x, y, qb) in spots.items() if (pid, t) not in drop
    ]


PARITY_EVENTS = [PlayEvents("g1", "p1", 0, True, False, False)]
PARITY_ENGAGEMENTS = [Engagement("g1", "p1", "R1", "B1", 0, 2)]

READER_CASES = {
    "short line": _play_rows() + ["g1,p1,3,QB,0.0,0.0"],
    "long line": _play_rows() + ["g1,p1,3,QB,0.0,0.0,1,9"],
    "blank line": _play_rows()[:2] + [""] + _play_rows()[2:],
    "blank last line": _play_rows() + [""],
    "non-integer frame_index": _play_rows() + ["g1,p1,1.5,QB,0.0,0.0,1"],
    "frame_index 3.5": _play_rows() + ["g1,p1,3.5,QB,0.0,0.0,1"],
    "frame_index 2.9": _play_rows() + ["g1,p1,2.9,QB,0.0,0.0,1"],
    "frame_index 1e1": _play_rows() + ["g1,p1,1e1,QB,0.0,0.0,1"],
    "non-numeric x": _play_rows() + ["g1,p1,3,QB,abc,0.0,1"],
    "is_qb yes": _play_rows() + ["g1,p1,3,QB,0.0,0.0,yes"],
    "is_qb 2": _play_rows() + ["g1,p1,3,QB,0.0,0.0,2"],
    "negative frame_index": _play_rows() + ["g1,p1,-1,QB,0.0,0.0,1"],
    "bad flag before bad number": ["g1,p1,0,QB,0.0,0.0,yes", "g1,p1,1,QB,abc,0.0,1"],
    "negative frame before short line": ["g1,p1,-4,QB,0.0,0.0,1", "g1,p1,1,QB"],
    "header only": [],
    "hash inside an id": [r.replace("g1", "g0#2") for r in _play_rows()],
    "quoted id with a comma": [r.replace("R1", '"R,1"') for r in _play_rows()],
    "doubled quotes": [r.replace("R1", '"R""1"') for r in _play_rows()],
    "duplicate QB frame": _play_rows() + ["g1,p1,1,QB2,5.0,5.0,1"],
    "missing QB and player track at one frame": _play_rows(drop={("QB", 1), ("R1", 1)}),
    "missing player track before missing QB track": _play_rows(drop={("R1", 0), ("QB", 2)}),
    "missing blocker track before missing QB track": _play_rows(drop={("B1", 0), ("QB", 2)}),
    "missing blocker track": _play_rows(drop={("B1", 1)}),
}


PARSED_IDS = {"hash inside an id": "g0#2", "quoted id with a comma": "R,1", "doubled quotes": 'R"1'}


def _outcome(read, build, path):
    """The read error's text, or the frames read and the built table or
    the build error's text."""
    try:
        frames = read(path)
    except DataError as exc:
        return str(exc)
    rows = frames if isinstance(frames, list) else decoded_frames(frames)
    try:
        return rows, build(frames, PARITY_EVENTS, PARITY_ENGAGEMENTS, {"g1": 1})
    except DataError as exc:
        return rows, str(exc)


@pytest.mark.parametrize("case", READER_CASES)
def test_reader_parity(case, tmp_path):
    path = tmp_path / "tracking.csv"
    lines = READER_CASES[case]
    path.write_text(",".join(TRACKING_CSV_HEADER) + "\n" + "".join(line + "\n" for line in lines))
    want = _outcome(reference_read_tracking_csv, reference_build_interactions, path)
    # warnings are recorded, not raised, so the reader takes the path it
    # takes under the default filters; it must warn about nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(read_tracking_csv, build, path)
    assert [str(w.message) for w in caught] == []
    assert got == want
    if case == "header only":
        assert got[0] == []
    elif case in PARSED_IDS:
        assert PARSED_IDS[case] in {f.player_id for f in got[0]} | {f.game_id for f in got[0]}
    else:  # every other case is a read or build error
        assert isinstance(got, str) or isinstance(got[1], str)


class TestColumnarReader:
    @pytest.mark.parametrize("field, row", [("x", "g1,p1,1,QB,abc,0.0,1"),
                                            ("y", "g1,p1,1,QB,0.0,abc,1")])
    def test_non_numeric_coordinate_names_field(self, tmp_path, field, row):
        path = tmp_path / "tracking.csv"
        path.write_text(",".join(TRACKING_CSV_HEADER) + "\ng1,p1,0,QB,0.0,0.0,1\n" + row + "\n")
        with pytest.raises(DataError) as got:
            read_tracking_csv(path)
        assert str(got.value) == f"{path}:3: {field} must be a number, got 'abc'"

    def test_underscored_numerals_rejected_with_line(self, tmp_path):
        for row in ("g1,p1,5_0,QB,0.0,0.0,1", "g1,p1,5,QB,1_5,0.0,1"):
            path = tmp_path / "tracking.csv"
            path.write_text(",".join(TRACKING_CSV_HEADER) + "\ng1,p1,0,QB,0.0,0.0,1\n" + row + "\n")
            assert len(reference_read_tracking_csv(path)) == 2  # Python's int/float accept them
            with pytest.raises(DataError, match=r":3: .*underscores"):
                read_tracking_csv(path)

    @pytest.mark.parametrize("text", ["3.5", "2.9", "1e1"])
    def test_float_frame_index_rejected_where_loadtxt_only_warns(self, text, tmp_path, monkeypatch):
        # numpy 1.x parses such an int field as a float, truncates it and
        # only warns; emulate that, since newer numpy raises by itself
        real = np.loadtxt

        def truncating_loadtxt(fh, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            as_float = np.dtype([(name, np.float64 if name == "frame_index" else dtype[name])
                                 for name in dtype.names])
            return real(fh, dtype=as_float, **kwargs).astype(dtype)

        path = tmp_path / "tracking.csv"
        path.write_text(",".join(TRACKING_CSV_HEADER) + "\ng1,p1,0,QB,0.0,0.0,1\n"
                        + f"g1,p1,{text},QB,0.0,0.0,1\n")
        with pytest.raises(DataError) as want:
            reference_read_tracking_csv(path)
        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(DataError) as got:
                read_tracking_csv(path)
        assert str(got.value) == str(want.value)

    def test_duplicate_csv_row_names_both_lines(self, tmp_path):
        path = tmp_path / "tracking.csv"
        rows = _play_rows()
        path.write_text(",".join(TRACKING_CSV_HEADER) + "\n"
                        + "\n".join(rows + [rows[4].replace("3.0", "9.0")]) + "\n")
        with pytest.raises(
            DataError,
            match=r"tracking.csv:11: duplicate tracking row for player 'R1' at g1/p1 frame 1 "
                  r"\(first at line 6\)",
        ):
            read_tracking_csv(path)

    def test_duplicate_frame_in_list_names_key(self):
        frames, events, engagements, schedule = hand_play()
        frames = frames + [frame("R2", 1.0, 1.0, t=7)]
        want = r"^duplicate tracking row for player 'R2' at g1/p1 frame 7$"
        with pytest.raises(DataError, match=want):
            tracking_frames(frames)

    def test_columns_are_read_only_and_index_to_frames(self):
        frames, *_ = hand_play()
        columns = tracking_frames(frames)
        assert len(columns) == len(frames) and decoded_frames(columns) == frames
        assert columns.plays == (("g1", "p1"), ("g1", "p2"))
        assert columns.players == ("B1", "B2", "QB", "R1", "R2")
        assert columns.line is None
        with pytest.raises(ValueError):
            columns.x[0] = 1.0

    def test_window_past_int64_gives_reference_error(self, tmp_path):
        # a snap past int64 is the events reader's error, as the reference reads it
        path = tmp_path / "events.csv"
        path.write_text(",".join(EVENTS_CSV_HEADER) + f"\ng1,p1,2,1,0,1\ng1,p2,{2**64},1,0,0\n")
        with pytest.raises(DataError) as want:
            reference_read_events_csv(path)
        with pytest.raises(DataError) as got:
            read_events_csv(path)
        assert str(got.value) == str(want.value) == (
            f"{path}:3: snap_frame does not fit in a 64-bit integer, got '{2**64}'"
        )


# ---------------------------------------------------------------------------
# Ingest reader parity: the events and engagements readers give the
# reference record reader's records or error text


EVENTS_GOOD = ["g1,p1,3,1,0,1", "g1,p2,0,0,1,0"]
ENGAGEMENTS_GOOD = ["g1,p1,R1,B1,2,9", "g1,p1,R2,B1,-4,-4"]

INGEST_READER_CASES = {
    "events good": EVENTS_GOOD,
    "events loose integers": ["g1,p1, 3 ,1,0,1", "g1,p2,+4,1,0,0", "g1,p3,007,0,1,0"],
    "events quoted ids": ['"g,1","p""1",3,1,0,1', 'g1,"p\n2",4,1,0,0'],
    "events header only": [],
    "events negative snap": EVENTS_GOOD + ["g1,p3,-1,1,0,0"],
    "events bad flag and negative snap in one record": EVENTS_GOOD + ["g1,p3,-1,yes,0,0"],
    "events negative snap before bad flag": ["g1,p3,-1,1,0,0", "g1,p4,2,2,0,0"],
    "events bad flag before negative snap": ["g1,p3,1,0,0,2", "g1,p4,-2,1,0,0"],
    "events bad value before short line": ["g1,p3,x,1,0,0", "g1,p4"],
    "events short line before bad value": ["g1,p4", "g1,p3,x,1,0,0"],
    "events long line": EVENTS_GOOD + ["g1,p3,1,1,0,0,1"],
    "events blank line": EVENTS_GOOD[:1] + [""] + EVENTS_GOOD[1:],
    "events blank last line": EVENTS_GOOD + [""],
    "events snap beyond int64": EVENTS_GOOD + [f"g1,p3,{2**63},1,0,0"],
    "events snap 1.5": EVENTS_GOOD + ["g1,p3,1.5,1,0,0"],
    "events snap 1e1": EVENTS_GOOD + ["g1,p3,1e1,1,0,0"],
    "events underscored snap": EVENTS_GOOD + ["g1,p3,1_0,1,0,0"],
    "events non-ASCII snap": EVENTS_GOOD + ["g1,p3,٣,1,0,0"],
    "events bad flag after quoted line break": ['g1,"p\n2",4,1,0,0', "g1,p3,4,1,0,x"],
    "engagements good": ENGAGEMENTS_GOOD,
    "engagements int64 bounds": [f"g1,p1,R1,B1,{-2**63},{2**63 - 1}"],
    "engagements header only": [],
    "engagements reversed": ENGAGEMENTS_GOOD + ["g1,p1,R3,B2,9,2"],
    "engagements bad end and reversed in one record": ["g1,p1,R3,B2,9,-"],
    "engagements reversed before bad start": ["g1,p1,R3,B2,9,2", "g1,p1,R3,B2,x,2"],
    "engagements bad start before reversed": ["g1,p1,R3,B2,x,2", "g1,p1,R3,B2,9,2"],
    "engagements start beyond int64": [f"g1,p1,R3,B2,{-2**63 - 1},2"],
    "engagements end beyond int64": ENGAGEMENTS_GOOD + [f"g1,p1,R3,B2,0,{2**64}"],
    "engagements short line": ENGAGEMENTS_GOOD + ["g1,p1,R3,B2,0"],
    "engagements reversed after quoted line break": ['g1,p1,"R\n3",B2,0,2', "g1,p1,R3,B2,3,2"],
}


@pytest.mark.parametrize("case", INGEST_READER_CASES)
def test_ingest_reader_parity(case, tmp_path):
    kind = case.split()[0]
    reader, reference, header, record = {
        "events": (read_events_csv, reference_read_events_csv, EVENTS_CSV_HEADER, PlayEvents),
        "engagements": (read_engagements_csv, reference_read_engagements_csv,
                        ENGAGEMENTS_CSV_HEADER, Engagement),
    }[kind]
    path = tmp_path / f"{kind}.csv"
    lines = INGEST_READER_CASES[case]
    path.write_text(",".join(header) + "\n" + "".join(line + "\n" for line in lines),
                    encoding="utf-8")

    def outcome(read, decode):
        try:
            return decode(read(path))
        except DataError as exc:
            return str(exc)

    want = outcome(reference, list)
    assert outcome(reader, lambda rows: records_of(rows, record)) == want
    # the good cases read every record; every other case is an error
    assert isinstance(want, list) == ("good" in case or "loose" in case or "quoted ids" in case
                                      or "header only" in case or "bounds" in case)


# ---------------------------------------------------------------------------
# Keyed reader parity: the schedule and accolade readers give the error text
# of a reference that reads one record at a time and checks each key against
# the records before it


def reference_read_schedule_csv(path):
    schedule = {}

    def record(game_id, week_text):
        week = reference_int(week_text, "week")
        if game_id in schedule:
            raise DataError(f"duplicate game_id {game_id!r}")
        if week < 1:
            raise DataError(f"week must be >= 1, got {week}")
        schedule[game_id] = week

    reference_read_records(path, SCHEDULE_CSV_HEADER, record)
    return schedule


def reference_read_accolades_csv(path):
    labels = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ACCOLADE_CSV_HEADER:
            raise DataError(
                f"bad accolade header in {path}: expected {ACCOLADE_CSV_HEADER}, got {header}"
            )
        for rec in reader:
            line = reader.line_num
            if len(rec) != 2:
                raise DataError(f"{path}:{line}: expected 2 fields, got {len(rec)}")
            player_id, level = rec
            if level not in ("first", "second"):
                raise DataError(f"{path}:{line}: team_level must be one of ('first', 'second'), "
                                f"got {level!r}")
            if player_id in labels:
                raise DataError(f"{path}:{line}: duplicate player_id {player_id!r}")
            labels[player_id] = level
    return labels


KEYED_READER_CASES = {
    "schedule good": ["g1,1", "g2,14", "g3,2"],
    "schedule loose weeks": ["g1, 3 ", "g2,+4", "g3,007"],
    "schedule quoted ids": ['"g,1",1', '"g\n2",2', '"g""3",3'],
    "schedule header only": [],
    "schedule duplicate game": ["g1,1", "g2,2", "g1,3"],
    "schedule duplicate game in a later block": ["g1,1", "g2,2", "g3,3", "g4,4", "g2,5"],
    "schedule week 0": ["g1,1", "g2,0"],
    "schedule week not an integer": ["g1,1", "g2,w2"],
    "schedule week beyond int64": ["g1,1", f"g2,{2**63}"],
    "schedule underscored week": ["g1,1", "g2,1_0"],
    "schedule non-ASCII week": ["g1,1", "g2,٣"],
    "schedule duplicate game before bad week": ["g1,1", "g1,2", "g2,x"],
    "schedule bad week before duplicate game": ["g1,1", "g2,x", "g1,2"],
    "schedule duplicate game before week 0": ["g1,1", "g2,2", "g3,3", "g1,4", "g4,0"],
    "schedule week 0 before duplicate game": ["g1,1", "g2,2", "g3,0", "g1,4"],
    "schedule duplicate game and week 0 in one record": ["g1,1", "g1,0"],
    "schedule duplicate game and bad week in one record": ["g1,1", "g1,x"],
    "schedule short line": ["g1,1", "g2"],
    "schedule long line": ["g1,1", "g2,2,3"],
    "schedule blank line": ["g1,1", "", "g2,2"],
    "schedule duplicate after quoted line break": ['"g\n1",1', "g2,2", '"g\n1",3'],
    "accolades good": ["R1,first", "B2,second", "R3,first"],
    "accolades quoted ids": ['"R,1",first', '"B\n2",second'],
    "accolades header only": [],
    "accolades unknown level": ["R1,first", "B2,third"],
    "accolades level in another case": ["R1,First"],
    "accolades duplicate player": ["R1,first", "B2,second", "R1,second"],
    "accolades duplicate player in a later block": ["R1,first", "R2,first", "R3,first", "R2,second"],
    "accolades duplicate player before unknown level": ["R1,first", "R1,second", "B2,third"],
    "accolades unknown level before duplicate player": ["R1,first", "B2,third", "R1,second"],
    "accolades duplicate player and unknown level in one record": ["R1,first", "R1,third"],
    "accolades short line": ["R1,first", "B2"],
    "accolades long line": ["R1,first", "B2,second,x"],
    "accolades blank line": ["R1,first", "", "B2,second"],
    "accolades duplicate after quoted line break": ['"R\n1",first', "B2,second", '"R\n1",first'],
}


KEYED_READERS = {
    "schedule": (read_schedule_csv, reference_read_schedule_csv, SCHEDULE_CSV_HEADER),
    "accolades": (read_accolades_csv, reference_read_accolades_csv, ACCOLADE_CSV_HEADER),
}


def _keyed_file(case, tmp_path):
    """The reader, the reference and the file of one keyed reader case."""
    kind = case.split()[0]
    reader, reference, header = KEYED_READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(",".join(header) + "\n"
                    + "".join(line + "\n" for line in KEYED_READER_CASES[case]), encoding="utf-8")
    return reader, reference, path


@pytest.mark.parametrize("block", [2, interactions._READ_BLOCK])
@pytest.mark.parametrize("case", KEYED_READER_CASES)
def test_keyed_reader_parity(case, block, tmp_path, monkeypatch):
    monkeypatch.setattr(interactions, "_READ_BLOCK", block)
    reader, reference, path = _keyed_file(case, tmp_path)

    def outcome(read):
        try:
            return read(path)
        except DataError as exc:
            return str(exc)

    want = outcome(reference)
    assert outcome(reader) == want
    # the good cases read every record; every other case is an error
    assert isinstance(want, dict) == any(
        word in case for word in ("good", "loose", "quoted ids", "header only")
    )


@pytest.mark.parametrize("case, want", [
    ("schedule duplicate game before bad week", "3: duplicate game_id 'g1'"),
    ("schedule bad week before duplicate game", "3: week must be an integer, got 'x'"),
    ("accolades duplicate player before unknown level", "3: duplicate player_id 'R1'"),
    ("accolades unknown level before duplicate player",
     "3: team_level must be one of ('first', 'second'), got 'third'"),
])
def test_keyed_reader_raises_the_first_bad_records_error(case, want, tmp_path):
    # checking the converted columns must not put a later record's error first
    reader, _, path = _keyed_file(case, tmp_path)
    with pytest.raises(DataError) as got:
        reader(path)
    assert str(got.value) == f"{path}:{want}"


# ---------------------------------------------------------------------------
# Bytes that are not UTF-8: an error naming the file line, from every reader


BAD_BYTE_CASES = {
    "interactions": (read_interactions_csv, ",".join(interactions.INTERACTION_CSV_HEADER),
                     [b"g1,p1,0,1,R1,B1,0,0,loss", b"g1,p1,1,1,R\xff2,B1,0,0,win"]),
    "tracking": (read_tracking_csv, ",".join(TRACKING_CSV_HEADER),
                 [b"g1,p1,0,QB,0.0,0.0,1", b"g1,p1,0,R\xff1,3.0,4.0,0"]),
    "events": (read_events_csv, ",".join(EVENTS_CSV_HEADER),
               [b"g1,p1,3,1,0,1", b"g1,p\xff2,0,0,1,0"]),
    "engagements": (read_engagements_csv, ",".join(ENGAGEMENTS_CSV_HEADER),
                    [b"g1,p1,R1,B1,2,9", b"g1,p1,R\xff2,B1,0,4"]),
    "schedule": (read_schedule_csv, ",".join(SCHEDULE_CSV_HEADER), [b"g1,1", b"g\xff2,2"]),
    "accolades": (read_accolades_csv, ",".join(ACCOLADE_CSV_HEADER),
                  [b"R1,first", b"R\xff2,second"]),
}


def _write_bytes(path, header, records):
    path.write_bytes(header.encode() + b"\n" + b"".join(rec + b"\n" for rec in records))


@pytest.mark.parametrize("kind", BAD_BYTE_CASES)
def test_bad_byte_names_its_line(kind, tmp_path):
    reader, header, records = BAD_BYTE_CASES[kind]
    path = tmp_path / f"{kind}.csv"
    _write_bytes(path, header, records)
    with pytest.raises(DataError) as got:
        reader(path)
    assert str(got.value) == f"{path}:3: byte 0xff is not valid UTF-8"


@pytest.mark.parametrize("kind", BAD_BYTE_CASES)
def test_bad_byte_in_a_numeric_field_or_short_record_is_a_decoding_error(kind, tmp_path):
    # the record cannot be read, so its field count and values are not checked
    reader, header, records = BAD_BYTE_CASES[kind]
    path = tmp_path / f"{kind}.csv"
    for bad in (records[0][:-1] + b"\xc3", records[0].split(b",")[0] + b",\xe9"):
        _write_bytes(path, header, [records[0], bad])
        with pytest.raises(DataError) as got:
            reader(path)
        assert str(got.value) == f"{path}:3: byte 0x{bad[-1]:02x} is not valid UTF-8"


@pytest.mark.parametrize("kind", BAD_BYTE_CASES)
def test_bad_byte_in_the_header_names_line_1(kind, tmp_path):
    reader, header, records = BAD_BYTE_CASES[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(b"\xfe" + header.encode() + b"\n" + records[0] + b"\n")
    with pytest.raises(DataError) as got:
        reader(path)
    assert str(got.value) == f"{path}:1: byte 0xfe is not valid UTF-8"


@pytest.mark.parametrize("block", [2, interactions._READ_BLOCK])
def test_bad_byte_and_bad_value_are_met_in_record_order(block, tmp_path, monkeypatch):
    monkeypatch.setattr(interactions, "_READ_BLOCK", block)
    path = tmp_path / "engagements.csv"
    header = ",".join(ENGAGEMENTS_CSV_HEADER)
    good, bad_value, bad_byte = b"g1,p1,R1,B1,2,9", b"g1,p1,R2,B1,x,9", b"g1,p1,R\xff3,B1,0,1"
    _write_bytes(path, header, [good, bad_value, bad_byte])
    with pytest.raises(DataError, match=r":3: start_frame must be an integer, got 'x'$"):
        read_engagements_csv(path)
    _write_bytes(path, header, [good, bad_byte, bad_value])
    with pytest.raises(DataError, match=r":3: byte 0xff is not valid UTF-8$"):
        read_engagements_csv(path)


def test_bad_byte_after_a_quoted_line_break_names_the_file_line(tmp_path):
    path = tmp_path / "tracking.csv"
    _write_bytes(path, ",".join(TRACKING_CSV_HEADER),
                 [b'g1,p1,0,"R\n1",3.0,4.0,0', b"g1,p1,0,QB,0.0,0.0,1", b"g1,p1,1,Q\xffB,0,0,1"])
    with pytest.raises(DataError) as got:
        read_tracking_csv(path)
    assert str(got.value) == f"{path}:5: byte 0xff is not valid UTF-8"


def test_ingest_with_a_bad_byte_exits_2(tmp_path, capsys):
    paths = rawgen.generate(tmp_path, seed=0, n_games=1, plays_per_game=2)["paths"]
    events = Path(paths["events"])
    lines = events.read_bytes().split(b"\n")
    events.write_bytes(b"\n".join([*lines[:2], lines[2].replace(b",", b"\xff,", 1), *lines[3:]]))
    argv = ["ingest", "--tracking", paths["tracking"], "--events", paths["events"],
            "--engagements", paths["engagements"], "--schedule", paths["schedule"],
            "--out", str(tmp_path / "out.csv")]
    assert cli.main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"data error: {events}:3: byte 0xff is not valid UTF-8\n"
    )


# ---------------------------------------------------------------------------
# Extreme frames: int64 bounds, huge horizons and overlaps past int64


def extreme_world(snap, windows, tracked):
    """One dropback play snapped at ``snap``, an engagement per
    ``(rusher, blocker, start, end)`` of ``windows``, and the QB and every
    player tracked at the ``tracked`` frames."""
    players = sorted({p for r, b, *_ in windows for p in (r, b)})
    frames = [frame("QB", 0, 0, qb=True, t=t) for t in tracked]
    frames += [frame(p, 3 + k % 4, 4, t=t) for k, p in enumerate(players) for t in tracked]
    return (frames, [PlayEvents("g1", "p1", snap, True, False, False)],
            [eng(*w) for w in windows], {"g1": 1})


MAX, MIN = int(INT64.max), int(INT64.min)
FULL = [("R1", "B1", MIN, MAX), ("R1", "B2", MIN, MAX)]  # share 2**64 frames
HALF = [("R1", "B1", MIN, -1), ("R1", "B2", MIN, MAX)]  # share 2**63 frames
PAIR = {"horizon": 0}  # the pairs' windows clip to the snap frame, 5

# (snap, windows, tracked frames, options, what the reference gives: a
# missing-track error, each row's double-team flag, or a table)
EXTREME_CASES = {
    "window at int64's top": (MAX, [("R1", "B1", MIN, MAX)], [MAX - 1, MAX], {}, "table"),
    "window at int64's top, untracked": (MAX, [("R1", "B1", MIN, MAX)], [0], {}, "missing"),
    "start at int64's bottom": (0, [("R1", "B1", MIN, 3)], [0, 1, 2, 3], {}, "table"),
    "end at int64's bottom": (0, [("R1", "B1", MIN, MIN)], [], {}, "table"),
    "snap near the top, horizon 2**62": (MAX - 5, [("R1", "B1", 0, MAX)],
                                         range(MAX - 5, MAX + 1), {"horizon": 2**62}, "table"),
    "horizon past int64": (MAX - 1, [("R1", "B1", 0, MAX)], [MAX - 1, MAX], {"horizon": 2**66},
                           "table"),
    "window of 2**62 frames, untracked": (0, [("R1", "B1", MIN, MAX)], [0, 1, 2],
                                          {"horizon": 2**62}, "missing"),
    "window of 2**62 frames, blocker untracked": (0, [("R1", "B1", MIN, MAX)], [0, 1, 2],
                                                  {"horizon": 2**62}, "missing"),
    "window of 2**63 frames, untracked": (0, [("R1", "B1", 0, MAX)], [0, 1], {"horizon": 2**66},
                                          "missing"),
    "full range, min_overlap 1": (5, FULL, [5], PAIR, True),
    "full range, min_overlap 2**63 + 1": (5, FULL, [5], {**PAIR, "min_overlap": 2**63 + 1}, True),
    "full range, min_overlap 2**64": (5, FULL, [5], {**PAIR, "min_overlap": 2**64}, True),
    "full range, min_overlap 2**64 + 1": (5, FULL, [5], {**PAIR, "min_overlap": 2**64 + 1}, False),
    "half range, min_overlap 2**63": (5, HALF, [5], {**PAIR, "min_overlap": 2**63}, True),
    "half range, min_overlap 2**63 + 1": (5, HALF, [5], {**PAIR, "min_overlap": 2**63 + 1}, False),
    "touching at 0 from both ends": (5, [("R1", "B1", 0, MAX), ("R1", "B2", MIN, 0)], [5], PAIR,
                                     True),
    "apart at 0 from both ends": (5, [("R1", "B1", 1, MAX), ("R1", "B2", MIN, 0)], [5], PAIR,
                                  False),
}


@pytest.mark.parametrize("case", EXTREME_CASES)
def test_extreme_frames_match_reference(case):
    snap, windows, tracked, options, expect = EXTREME_CASES[case]
    frames, events, engagements, schedule = extreme_world(snap, windows, tracked)
    if case.endswith("blocker untracked"):
        frames = [f for f in frames if f.player_id != "B1" or f.frame_index == 0]

    def outcome(build_fn, tracks):
        try:
            return build_fn(tracks, events, engagements, schedule, **options)
        except DataError as exc:
            return str(exc)

    want = outcome(reference_build_interactions, frames)
    assert outcome(build, tracking_frames(frames)) == want
    if expect == "missing":
        assert want.startswith("missing")
    elif expect != "table":
        assert want.double_team.tolist() == [expect] * len(windows)
    else:
        assert len(want) == len(windows)


# ---------------------------------------------------------------------------
# Error order: one injected build error of each kind (two of a kind where
# there can be two), and chains of them, raise the reference's message


def _inject(world, kind, rng):
    frames, events, engagements, schedule = world
    if kind == "duplicate events row":
        for _ in range(2):
            ev = events[int(rng.integers(len(events)))]
            events.insert(int(rng.integers(len(events) + 1)),
                          dataclasses.replace(ev, qb_hit=not ev.qb_hit))
    elif kind == "dangling engagement":
        for k in range(2):
            engagements.insert(int(rng.integers(len(engagements) + 1)),
                               eng("R1", "B1", 0, 3, game=f"g{k}", play=f"p9{k}"))
    elif kind == "game missing from the schedule":
        for g in rng.choice(3, 2, replace=False).tolist():
            del schedule[f"g{g}"]
    elif kind == "week 0":
        for game, week in zip(rng.permutation(sorted(schedule)).tolist(), (0, -1)):
            schedule[game] = week
    else:  # a missing track: about one tracking row in fifty dropped
        drop = set(rng.choice(len(frames), len(frames) // 50, replace=False).tolist())
        frames[:] = [f for i, f in enumerate(frames) if i not in drop]


BUILD_ERRORS = ["duplicate events row", "dangling engagement", "game missing from the schedule",
                "week 0", "missing track"]
ERROR_TEXT = {"duplicate events row": "duplicate events row", "dangling engagement": "dangling",
              "game missing from the schedule": "missing from the schedule",
              "week 0": "weeks start at 1", "missing track": "missing"}


@pytest.mark.parametrize("errors", [[kind] for kind in BUILD_ERRORS]
                         + [BUILD_ERRORS[k:] for k in range(len(BUILD_ERRORS) - 1)],
                         ids=lambda errors: " + ".join(errors))
@pytest.mark.parametrize("seed", range(4))
def test_build_error_order_matches_reference(seed, errors):
    frames, events, engagements, schedule, _ = random_world(seed)
    rng = np.random.default_rng(seed)
    # engagements in random order, so games do not come in id order
    engagements = [engagements[i] for i in rng.permutation(len(engagements))]
    world = frames, events, engagements, schedule
    for kind in errors:
        _inject(world, kind, rng)
    messages = []
    for build_fn, tracks in ((reference_build_interactions, frames),
                             (build, tracking_frames(frames))):
        with pytest.raises(DataError) as got:
            build_fn(tracks, events, engagements, schedule)
        messages.append(str(got.value))
    assert messages[0] == messages[1]
    # the schedule is checked game by game: a missing game and a week 0 come in game order
    first = errors[:2] if errors[0] == "game missing from the schedule" else errors[:1]
    assert any(ERROR_TEXT[kind] in messages[0] for kind in first)

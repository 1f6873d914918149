import collections
import csv
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from trenchrank import cli
from trenchrank.errors import DataError
from trenchrank.interactions import (
    Interaction,
    InteractionTable,
    OutcomeClass,
    _parse_bool01,
    canonical_sort,
    label_outcome,
    write_interactions_csv,
)
from trenchrank.tracking import (
    TRACKING_CSV_HEADER,
    Engagement,
    Frame,
    PlayEvents,
    TrackingFrames,
    WIN_HORIZON_FRAMES,
    build_interactions,
    detect_double_team,
    is_dropback,
    read_engagements_csv,
    read_events_csv,
    read_schedule_csv,
    read_tracking_csv,
)

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
import rawgen  # noqa: E402  (raw tracking CSVs whose table is known by construction)


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


def eng(rusher, blocker, start, end, *, game="g1", play="p1"):
    return Engagement(game, play, rusher, blocker, start, end)


def engage(frames, rusher="R1", blocker="B1", *, snap=0, window=(0, 0), **options):
    """The win label of one engagement on the one-play world ``frames``."""
    (row,) = build_interactions(
        tracking_frames(frames), [PlayEvents("g1", "p1", snap, True, False, False)],
        [eng(rusher, blocker, *window)], {"g1": 1}, **options,
    )
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


class TestDoubleTeam:
    def test_two_blockers_overlapping(self):
        assert detect_double_team([eng("R1", "B1", 0, 10), eng("R1", "B2", 5, 15)]) is True

    def test_single_shared_frame_counts(self):
        assert detect_double_team([eng("R1", "B1", 0, 10), eng("R1", "B2", 10, 20)]) is True

    def test_adjacent_windows_do_not_overlap(self):
        assert detect_double_team([eng("R1", "B1", 0, 10), eng("R1", "B2", 11, 20)]) is False

    def test_same_blocker_twice_is_not_a_double(self):
        assert detect_double_team([eng("R1", "B1", 0, 10), eng("R1", "B1", 12, 20)]) is False

    def test_min_overlap_threshold(self):
        pair = [eng("R1", "B1", 0, 10), eng("R1", "B2", 9, 20)]  # 2 shared frames
        assert detect_double_team(pair, min_overlap=2) is True
        assert detect_double_team(pair, min_overlap=3) is False

    def test_empty_is_false(self):
        assert detect_double_team([]) is False

    def test_mixed_rushers_rejected(self):
        with pytest.raises(DataError, match="one rusher"):
            detect_double_team([eng("R1", "B1", 0, 10), eng("R2", "B2", 0, 10)])


class TestDropbackFilter:
    def test_pass_counts(self):
        assert is_dropback(PlayEvents("g", "p", 0, True, False, False)) is True

    def test_sack_counts(self):
        assert is_dropback(PlayEvents("g", "p", 0, False, True, False)) is True

    def test_run_play_does_not(self):
        assert is_dropback(PlayEvents("g", "p", 0, False, False, False)) is False


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
        table = build_interactions(tracking_frames(frames), events, engagements, schedule)
        assert len(table) == 3  # run play filtered out
        assert [r.play_id for r in table] == ["p1", "p1", "p1"]
        assert [r.week for r in table] == [4, 4, 4]
        assert [r.event_game_index for r in table] == [0, 1, 2]
        by_pair = {(r.rusher_id, r.blocker_id): r for r in table}
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
        table = build_interactions(tracking_frames(frames), events, engagements, schedule)
        ordered = [(r.rusher_id, r.blocker_id) for r in table]
        assert ordered == [("R1", "B1"), ("R2", "B1"), ("R2", "B2")]

    def test_window_past_horizon_is_a_loss_not_an_error(self):
        frames, events, engagements, schedule = hand_play()
        engagements = engagements + [eng("R3", "B3", 40, 50)]
        table = build_interactions(tracking_frames(frames), events, engagements, schedule)
        row = next(r for r in table if r.rusher_id == "R3")
        assert row.win_target is False
        assert row.severity is OutcomeClass.HIT  # qb_hit still applies

    def test_dangling_engagement_rejected(self):
        frames, events, engagements, schedule = hand_play()
        with pytest.raises(DataError, match="dangling"):
            build_interactions(
                tracking_frames(frames), events,
                engagements + [eng("R1", "B1", 0, 1, play="p9")], schedule,
            )

    def test_missing_schedule_entry_rejected(self):
        frames, events, engagements, _ = hand_play()
        with pytest.raises(DataError, match="schedule"):
            build_interactions(tracking_frames(frames), events, engagements, {})

    def test_missing_track_rejected(self):
        frames, events, engagements, schedule = hand_play()
        frames = [f for f in frames if f.player_id != "B2"]
        with pytest.raises(DataError, match="missing track"):
            build_interactions(tracking_frames(frames), events, engagements, schedule)

    def test_sack_outranks_everything(self):
        frames, events, engagements, schedule = hand_play()
        events = [
            PlayEvents("g1", "p1", 2, True, True, True),
            events[1],
        ]
        table = build_interactions(tracking_frames(frames), events, engagements, schedule)
        assert all(r.severity is OutcomeClass.SACK for r in table)

    def test_output_is_canonically_sorted(self):
        frames, events, engagements, schedule = hand_play()
        table = build_interactions(tracking_frames(frames), events, engagements, schedule)
        assert table.is_canonically_sorted()

    def test_week_below_one_rejected_for_a_game_with_rows(self):
        frames, events, engagements, _ = hand_play()
        with pytest.raises(DataError, match=r"game 'g1' has week 0"):
            build_interactions(tracking_frames(frames), events, engagements, {"g1": 0})

    def test_week_below_one_ignored_for_a_game_without_dropbacks(self):
        frames, events, engagements, _ = hand_play()
        events = events + [PlayEvents("g2", "p1", 0, False, False, False)]
        engagements = engagements + [eng("R1", "B1", 0, 0, game="g2")]
        table = build_interactions(
            tracking_frames(frames), events, engagements, {"g1": 4, "g2": 0}
        )
        assert table.games == ("g1",) and len(table) == 3

    def test_no_dropback_engagement_gives_an_empty_table(self):
        frames, events, engagements, schedule = hand_play()
        table = build_interactions(tracking_frames(frames), events, engagements[3:], schedule)
        assert table == InteractionTable() and table.games == ()
        assert table.win.dtype == float and table.severity.dtype == np.intp

    def test_frame_list_rejected(self):
        frames, events, engagements, schedule = hand_play()
        with pytest.raises(TypeError, match="TrackingFrames"):
            build_interactions(frames, events, engagements, schedule)

    def test_tolerance_flips_marginal_win(self):
        frames, events, engagements, schedule = hand_play()
        table = build_interactions(tracking_frames(frames), events, engagements, schedule, tolerance=2.0)
        r1 = next(r for r in table if r.rusher_id == "R1")
        # R1's best margin is 1.0 yard (4.0 vs 5.0): below the 2.0 gap
        assert r1.win_target is False
        assert r1.severity is OutcomeClass.HIT


class TestValidation:
    def test_negative_frame_index_rejected(self):
        with pytest.raises(DataError):
            Frame("g", "p", -1, "R1", 0.0, 0.0, False)

    def test_negative_snap_rejected(self):
        with pytest.raises(DataError):
            PlayEvents("g", "p", -3, True, False, False)

    def test_reversed_engagement_rejected(self):
        with pytest.raises(DataError):
            Engagement("g", "p", "R1", "B1", 10, 4)


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
        (ev,) = read_events_csv(path)
        assert ev == PlayEvents("g1", "p1", 3, True, False, True)

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
        )
        (e,) = read_engagements_csv(path)
        assert e == Engagement("g1", "p1", "R1", "B1", 2, 9)

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


def reference_read_tracking_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACKING_CSV_HEADER:
            raise DataError(f"bad header in {path}: expected {TRACKING_CSV_HEADER}, got {header}")
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
            if len(window):
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
    return canonical_sort(InteractionTable(rows))


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
        got = build_interactions(tracking_frames(frames), events, engagements, schedule, **options)
        assert got == want
        assert any(r.win_target for r in got) and not all(r.win_target for r in got)

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
            assert build_interactions(columns, events, engagements, schedule, **options) == \
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
                reference_read_tracking_csv(paths["tracking"]), read_events_csv(paths["events"]),
                read_engagements_csv(paths["engagements"]), read_schedule_csv(paths["schedule"]),
            ),
            ref,
        )
        assert out.read_bytes() == ref.read_bytes()
        assert rawgen.read_rows(out) == rawgen.read_rows(paths["expected"])


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
        got = _outcome(read_tracking_csv, build_interactions, path)
    assert [str(w.message) for w in caught] == []
    assert got == want
    if case == "header only":
        assert got[0] == []
    elif case in PARSED_IDS:
        assert PARSED_IDS[case] in {f.player_id for f in got[0]} | {f.game_id for f in got[0]}
    else:  # every other case is a read or build error
        assert isinstance(got, str) or isinstance(got[1], str)


class TestColumnarReader:
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

    def test_window_past_int64_gives_reference_error(self):
        frames, events, engagements, schedule = hand_play()
        events = [PlayEvents("g1", "p1", 2**64, True, False, False), events[1]]
        engagements = engagements + [Engagement("g1", "p1", "R1", "B2", 0, 2**64 + 5)]
        errors = []
        for build, tracks in ((reference_build_interactions, frames),
                              (build_interactions, tracking_frames(frames))):
            with pytest.raises(DataError) as info:
                build(tracks, events, engagements, schedule)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == f"missing QB track at g1/p1 frame {2**64}"

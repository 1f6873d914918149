"""Raw tracking inputs whose interaction table is known by construction.

Writes the four CSVs that ``trenchrank ingest`` reads (tracking frames,
play events, engagement windows, schedule) plus ``expected.csv``, the
interaction table that ingest must reproduce exactly.  Labels are drawn
first and the geometry is built to realize them:

- Every coordinate lies on a quarter-yard grid and every player sits on
  an axis through the QB, so each QB distance is an exact multiple of
  0.25 and the win rule compares exact numbers.
- A rusher wins an engagement exactly when a win was drawn: at one frame
  inside the window clipped to [snap, snap + 25] (inclusive) the rusher
  is strictly closer to the QB than the blocker; at every other frame of
  the clipped window the blocker is closer or tied.  Outside the clipped
  window the rusher is always closer, so a rule that reads past the
  horizon or the window labels wins that were never drawn.
- Double teams are two distinct blockers on one rusher with windows that
  share at least one frame.  Some pairs touch at exactly one frame (a
  double team); some follow each other without overlap (not one).
- Some plays are not dropbacks (dropped by ingest), some are sacks or QB
  hits, and a few single engagements have windows that miss the horizon
  entirely, before the snap or after it; those yield win_target=0.
"""

from __future__ import annotations

import csv
import os

import numpy as np

HORIZON = 25
PRE_SNAP_FRAMES = 3
POST_HORIZON_FRAMES = 5
PLAYS_PER_GAME = 115
ENGAGEMENTS_PER_PLAY = 5
N_WEEKS = 18

INTERACTION_HEADER = [
    "game_id", "play_id", "event_game_index", "week", "rusher_id", "blocker_id",
    "double_team", "win_target", "severity",
]

# Probability of 0, 1 or 2 double-teamed rushers in a five-engagement
# play; with the non-overlapping pairs below this gives about 43% of
# interactions flagged as double teams.
_PAIR_PROBS = (0.15, 0.50, 0.35)
_P_SEQUENTIAL_PAIR = 0.10
_P_TOUCHING_PAIR = 0.10
_P_MISS_HORIZON = 0.02
_P_WIN = 0.27
_P_TIE_FRAME = 0.05


def _grid(n_quarters: int) -> str:
    return f"{n_quarters / 4:.2f}"


def _severity(has_sack: bool, has_hit: bool, won: bool) -> str:
    if has_sack:
        return "sack"
    if has_hit:
        return "hit"
    return "win" if won else "loss"


def _normal_window(rng, snap: int) -> tuple[int, int]:
    start = snap + int(rng.integers(-2, 6))
    return start, start + int(rng.integers(4, 30))


def _missing_window(rng, snap: int) -> tuple[int, int]:
    if rng.random() < 0.5:
        start = snap + HORIZON + 1 + int(rng.integers(0, 4))
        return start, start + int(rng.integers(0, 4))
    end = snap - 1 - int(rng.integers(0, 2))
    return end - int(rng.integers(0, 2)), end


def _play_engagements(rng, snap, rushers, blockers, cases):
    """Five (rusher, blocker, start, end) windows plus the double flags."""
    n_pairs = int(rng.choice(3, p=_PAIR_PROBS))
    out = []
    double = []
    b = iter(blockers)
    for i in range(n_pairs):
        rusher = rushers[i]
        w1 = _normal_window(rng, snap)
        u = rng.random()
        if u < _P_SEQUENTIAL_PAIR:
            s2 = w1[1] + 1 + int(rng.integers(0, 3))
            w2 = (s2, s2 + int(rng.integers(2, 8)))
            is_double = False
            cases["sequential_pairs"] += 1
        elif u < _P_SEQUENTIAL_PAIR + _P_TOUCHING_PAIR:
            w2 = (w1[1], w1[1] + int(rng.integers(1, 8)))
            is_double = True
            cases["touching_pairs"] += 1
        else:
            s2 = int(rng.integers(w1[0], w1[1] + 1))
            w2 = (s2, s2 + int(rng.integers(2, 20)))
            is_double = True
        out.append((rusher, next(b), *w1))
        out.append((rusher, next(b), *w2))
        double += [is_double, is_double]
    for rusher in rushers[n_pairs:ENGAGEMENTS_PER_PLAY - n_pairs]:
        if rng.random() < _P_MISS_HORIZON:
            w = _missing_window(rng, snap)
            cases["missed_horizon"] += 1
        else:
            w = _normal_window(rng, snap)
        out.append((rusher, next(b), *w))
        double.append(False)
    return out, double


def generate(
    out_dir,
    *,
    seed: int,
    n_games: int,
    plays_per_game: int = PLAYS_PER_GAME,
    n_rushers: int = 120,
    n_blockers: int = 150,
) -> dict:
    """Write one raw world into ``out_dir``; return its file paths and counts."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    rusher_pool = [f"R{i:03d}" for i in range(n_rushers)]
    blocker_pool = [f"B{i:03d}" for i in range(n_blockers)]
    axes = ((1, 0), (-1, 0), (0, 1), (0, -1))

    frames: list[tuple] = []
    events: list[tuple] = []
    engagements: list[tuple] = []
    schedule: list[tuple] = []
    expected: list[list] = []
    cases = dict.fromkeys(("sequential_pairs", "touching_pairs", "missed_horizon", "tie_frames"), 0)

    for g in range(n_games):
        game_id = f"g{g:03d}"
        week = g * N_WEEKS // n_games + 1
        schedule.append((game_id, week))
        qb_id = f"QB{g:03d}"
        kept: list[tuple] = []  # (play_id, start, rusher, blocker, row-without-index)
        for p in range(plays_per_game):
            play_id = f"p{p:03d}"
            snap = 10 + int(rng.integers(0, 6))
            u = rng.random()
            if u < 0.12:
                has_pass, has_sack = False, False
            elif u < 0.19:
                has_pass, has_sack = False, True
            else:
                has_pass, has_sack = True, False
            qb_hit = (has_pass or has_sack) and rng.random() < 0.10
            events.append((game_id, play_id, snap, int(has_pass), int(has_sack), int(qb_hit)))

            rushers = [rusher_pool[i] for i in rng.choice(n_rushers, ENGAGEMENTS_PER_PLAY, replace=False)]
            blockers = [blocker_pool[i] for i in rng.choice(n_blockers, ENGAGEMENTS_PER_PLAY, replace=False)]
            play_eng, double = _play_engagements(rng, snap, rushers, blockers, cases)

            first, last = snap - PRE_SNAP_FRAMES, snap + HORIZON + POST_HORIZON_FRAMES
            span = range(first, last + 1)
            qx0 = 160 + int(rng.integers(0, 160))  # quarter-yard units
            qy0 = 80 + int(rng.integers(0, 80))
            qb_x = {t: qx0 - max(0, t - snap) for t in span}

            # rusher distance to the QB, in quarter yards: closes in after the snap
            rusher_track = {}
            rusher_axis = {}
            for r in dict.fromkeys(e[0] for e in play_eng):
                n0 = 24 + int(rng.integers(0, 17))
                rusher_track[r] = {t: max(4, n0 - max(0, t - snap)) for t in span}
                rusher_axis[r] = axes[int(rng.integers(0, 4))]

            tracks = {}  # player -> (axis, {t: quarters})
            for (r, b, start, end), is_double in zip(play_eng, double):
                lo, hi = max(snap, start), min(snap + HORIZON, end)
                clipped = range(lo, hi + 1)
                won = len(clipped) > 0 and rng.random() < _P_WIN
                win_frame = int(rng.choice(clipped)) if won else None
                nr = rusher_track[r]
                nb = {}
                for t in span:
                    if t not in clipped:
                        nb[t] = nr[t] + 2
                    elif t == win_frame:
                        nb[t] = nr[t] + 1
                    elif rng.random() < _P_TIE_FRAME:
                        nb[t] = nr[t]
                        cases["tie_frames"] += 1
                    else:
                        nb[t] = nr[t] - 2
                # the rule re-derived from the integer geometry must agree
                assert won == any(nr[t] < nb[t] for t in clipped)
                tracks[b] = (rusher_axis[r], nb)
                engagements.append((game_id, play_id, r, b, start, end))
                if has_pass or has_sack:
                    kept.append((
                        play_id, start, r, b,
                        [game_id, play_id, None, week, r, b, int(is_double), int(won),
                         _severity(has_sack, qb_hit, won)],
                    ))
            for r, nr in rusher_track.items():
                tracks[r] = (rusher_axis[r], nr)

            qy = _grid(qy0)
            for t in span:
                frames.append((game_id, play_id, t, qb_id, _grid(qb_x[t]), qy, 1))
                for pid, ((ux, uy), n) in tracks.items():
                    frames.append((
                        game_id, play_id, t, pid,
                        _grid(qb_x[t] + ux * n[t]), _grid(qy0 + uy * n[t]), 0,
                    ))

        kept.sort(key=lambda k: k[:4])
        for index, k in enumerate(kept):
            row = k[4]
            row[2] = index
            expected.append(row)

    expected.sort(key=lambda row: (row[0], row[1], row[2]))
    paths = {
        name: os.path.join(out_dir, f"{name}.csv")
        for name in ("tracking", "events", "engagements", "schedule", "expected")
    }
    _write(paths["tracking"], ["game_id", "play_id", "frame_index", "player_id", "x", "y", "is_qb"], frames)
    _write(paths["events"], ["game_id", "play_id", "snap_frame", "has_forward_pass", "has_sack", "qb_hit"], events)
    _write(paths["engagements"], ["game_id", "play_id", "rusher_id", "blocker_id", "start_frame", "end_frame"], engagements)
    _write(paths["schedule"], ["game_id", "week"], schedule)
    _write(paths["expected"], INTERACTION_HEADER, expected)
    return {
        "paths": paths,
        "frames": len(frames),
        "engagements": len(engagements),
        "interactions": len(expected),
        "double_rate": sum(row[6] for row in expected) / max(1, len(expected)),
        **cases,
    }


def _write(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path) -> list[list[str]]:
    """All data rows of a CSV as lists of strings (header dropped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

import trenchrank
from trenchrank import bootstrap, fit


def test_every_exported_name_resolves():
    assert [name for name in trenchrank.__all__ if not hasattr(trenchrank, name)] == []
    assert len(set(trenchrank.__all__)) == len(trenchrank.__all__)


def _run_python(code: str, cwd=None) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return out.stdout


def test_import_loads_no_scipy():
    # the solver works on player codes and solves with numpy's LAPACK, so
    # the package and its CLI import numpy only
    out = _run_python(
        "import sys, trenchrank, trenchrank.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert out.strip() == "[]"


NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # every scipy import now fails
from trenchrank import cli
synth = ["--rushers", "8", "--blockers", "6", "--games", "6", "--plays-per-game", "6",
         "--interactions-per-play", "3", "--weeks", "6"]
penalties = ["--lambda-win", "0.5", "--lambda-sev", "0.5"]
runs = [
    ["synth", "--out", "i.csv", *synth],
    ["fit", "--interactions", "i.csv", "--lam", "0.5", "--out", "fits.json"],
    ["validate", "--interactions", "i.csv", *penalties, "--out-dir", "validate"],
    ["bootstrap", "--interactions", "i.csv", "--b", "3", *penalties, "--out-dir", "boot"],
]
print("exit codes", [cli.main(argv) for argv in runs])
"""


def test_cli_runs_without_scipy(tmp_path):
    # a stage that imported scipy lazily would fail here
    out = _run_python(NO_SCIPY_RUN, cwd=tmp_path)
    assert out.splitlines()[-1] == "exit codes [0, 0, 0, 0]"


def _defined_in_package(names):
    found = {}
    for info in pkgutil.iter_modules(trenchrank.__path__):
        module = importlib.import_module(f"trenchrank.{info.name}")
        found[info.name] = sorted(names & vars(module).keys())
    return {name: defined for name, defined in found.items() if defined}


DELETED_NAMES = {
    # the interaction table, the tracking frames, the events and the
    # engagements are columns, with no row object or per-row helper
    "rows": {"Interaction", "Frame", "PlayEvents", "Engagement", "detect_double_team",
             "is_dropback"},
    # one ``Fit`` holds both models' parameters as arrays over sorted ids;
    # no package module keeps a per-model fit type or an id-to-column index
    "fits": {"BinaryFit", "MultinomialFit", "PlayerIndex", "index_from_ids", "penalty_mask"},
    # one ``Baseline`` holds both tasks' smoothed values as arrays over
    # sorted ids, predicted a table at a time
    "baselines": {"WinBaseline", "SeverityBaseline", "predict_win_matchup",
                  "predict_severity_matchup", "predict_win_global", "predict_severity_global",
                  "logit", "inv_logit", "smooth_rate", "_first_seen_codes",
                  "win_baseline_from_json_dict", "severity_baseline_from_json_dict"},
    # lam must be positive, so every Newton step factors: no dense Hessian
    # and no least-squares fallback
    "solver": {"_dense_hessian", "_fallback_note"},
    # both bootstraps run one replicate loop, so no mode names which
    # loop a config is for
    "bootstrap": {"MODES", "_DroppedClasses", "_multiplicities", "_check_failures"},
    # every input CSV goes through one block reader, so no reader keeps a
    # record loop or a walk of its own to name the bad line
    "readers": {"_csv_records", "_checked_lines", "_tracking_record", "_structured",
                "_read_structured", "_raise_record_error", "_parse_block", "_value_columns"},
    # public names that no package module called
    "uncalled": {"expected_severity", "leaderboard_to_json_dict"},
}


@pytest.mark.parametrize("reason", DELETED_NAMES)
def test_deleted_names_stay_gone(reason):
    assert _defined_in_package(DELETED_NAMES[reason]) == {}


def test_deleted_module_and_field_stay_gone():
    # ``design.py`` held the per-fit index and matrix; a solution no longer
    # records least-squares steps; a bootstrap config names no mode
    assert "design" not in {info.name for info in pkgutil.iter_modules(trenchrank.__path__)}
    assert importlib.util.find_spec("trenchrank.design") is None
    assert "fallbacks" not in fit._Solution._fields
    assert "mode" not in {f.name for f in dataclasses.fields(bootstrap.BootstrapConfig)}


# a tiny world with a non-ASCII player id: one game, three dropbacks (a hit,
# a sack, a pass), so both models see every outcome class
LOCALE_WORLD = {
    "tracking.csv": "game_id,play_id,frame_index,player_id,x,y,is_qb\n" + "".join(
        f"g1,{play},{t},{pid},{x},{y},{int(pid == 'QB')}\n"
        for play in ("p1", "p2", "p3") for t in range(3)
        for pid, x, y in (("QB", 0.0, 0.0), ("Rü1", 3.0 - t, 1.0), ("R2", 4.0, 1.0),
                          ("B1", 1.0, 1.0), ("B2", 2.0, 0.5))
    ),
    "events.csv": "game_id,play_id,snap_frame,has_forward_pass,has_sack,qb_hit\n"
                  "g1,p1,0,1,0,1\ng1,p2,0,1,1,0\ng1,p3,0,1,0,0\n",
    "engagements.csv": "game_id,play_id,rusher_id,blocker_id,start_frame,end_frame\n"
                       "g1,p1,Rü1,B1,0,2\ng1,p1,R2,B2,0,2\ng1,p2,Rü1,B2,0,2\ng1,p2,R2,B1,1,2\n"
                       "g1,p3,Rü1,B1,0,2\ng1,p3,R2,B2,0,2\n",
    "schedule.csv": "game_id,week\ng1,1\n",
}
LOCALE_RUNS = [
    ["ingest", "--tracking", "tracking.csv", "--events", "events.csv", "--engagements",
     "engagements.csv", "--schedule", "schedule.csv", "--out", "interactions.csv"],
    ["fit", "--interactions", "interactions.csv", "--lam", "0.5", "--out", "fits.json"],
    ["leaderboard", "--interactions", "interactions.csv", "--fit", "fits.json", "--min-n", "1",
     "--out", "leaderboard.csv"],
]


def _locale_run(tmp_path, name, flags=(), **env):
    """The CLI's exit codes, output bytes and written files over ``LOCALE_RUNS``."""
    d = tmp_path / name
    d.mkdir()
    for file, text in LOCALE_WORLD.items():
        (d / file).write_text(text, encoding="utf-8", newline="")
    codes, out = [], []
    for argv in LOCALE_RUNS:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "trenchrank.cli", *argv], capture_output=True,
            cwd=d, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env},
        )
        codes.append(proc.returncode)
        out.append((proc.stdout, proc.stderr))
    files = {f.name: f.read_bytes() for f in sorted(d.iterdir())}
    return codes, out, files


def test_file_io_does_not_depend_on_the_locale(tmp_path):
    # every file, and what the CLI prints, is UTF-8: nothing is opened in
    # the locale's encoding, and an ASCII locale changes no byte
    want = _locale_run(tmp_path, "default")
    assert want[0] == [0, 0, 0]
    assert "Rü1".encode() in want[2]["leaderboard.csv"]
    assert _locale_run(tmp_path, "warn", ["-X", "warn_default_encoding",
                                          "-W", "error::EncodingWarning"]) == want
    assert _locale_run(tmp_path, "ascii", PYTHONUTF8="0", LC_ALL="C",
                       PYTHONCOERCECLOCALE="0") == want

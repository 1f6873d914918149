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

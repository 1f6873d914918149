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


def test_import_loads_no_sparse_matrices():
    # the solver works on player codes, so no package module needs scipy.sparse
    out = subprocess.run(
        [sys.executable, "-c", "import sys, trenchrank; print('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


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

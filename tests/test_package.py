import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import trenchrank


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


def test_no_module_defines_a_row_class():
    # the interaction table, the tracking frames, the events and the
    # engagements are columns, with no row object or per-row helper
    row_names = {"Interaction", "Frame", "PlayEvents", "Engagement", "detect_double_team",
                 "is_dropback"}
    assert _defined_in_package(row_names) == {}


def test_fits_are_one_type_over_theta():
    # one ``Fit`` holds both models' parameters as arrays over sorted ids;
    # no package module keeps a per-model fit type or an id-to-column index
    gone = {"BinaryFit", "MultinomialFit", "PlayerIndex", "index_from_ids", "penalty_mask"}
    assert _defined_in_package(gone) == {}
    assert "design" not in {info.name for info in pkgutil.iter_modules(trenchrank.__path__)}
    assert importlib.util.find_spec("trenchrank.design") is None


def test_baselines_are_one_type_over_arrays():
    # one ``Baseline`` holds both tasks' smoothed values as arrays over
    # sorted ids, predicted a table at a time
    gone = {"WinBaseline", "SeverityBaseline", "predict_win_matchup",
            "predict_severity_matchup", "predict_win_global", "predict_severity_global",
            "logit", "inv_logit", "smooth_rate", "_first_seen_codes",
            "win_baseline_from_json_dict", "severity_baseline_from_json_dict"}
    assert _defined_in_package(gone) == {}

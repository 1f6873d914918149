import csv
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from trenchrank import cli
from trenchrank import fit as fit_module
from trenchrank.cli import main
from trenchrank.errors import DataError
from trenchrank.fit import DEFAULT_LAMBDA_GRID
from trenchrank.interactions import OutcomeClass, read_interactions_csv, write_interactions_csv
from trenchrank.report import (
    LEADERBOARD_CSV_HEADER,
    RANK_EVAL_CSV_HEADER,
    SENSITIVITY_CSV_HEADER,
    VALIDATION_CSV_HEADER,
    WEEKLY_CSV_HEADER,
)

from test_tracking import hand_play

SYNTH_ARGS = [
    "--rushers", "8", "--blockers", "6", "--games", "6",
    "--plays-per-game", "6", "--interactions-per-play", "3",
    "--weeks", "6", "--seed", "3",
]


def run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main(argv)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    out = d / "interactions.csv"
    truth = d / "truth.json"
    assert run(["synth", "--out", str(out), "--truth", str(truth)] + SYNTH_ARGS) == 0
    return out, truth


@pytest.fixture(scope="module")
def fits_json(tmp_path_factory, synth_csv):
    d = tmp_path_factory.mktemp("fits")
    out = d / "fits.json"
    code = run(
        ["fit", "--interactions", str(synth_csv[0]), "--lam", "0.5", "--out", str(out)]
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_table_and_truth(self, synth_csv):
        out, truth = synth_csv
        table = read_interactions_csv(out)
        assert len(table) == 6 * 6 * 3
        payload = json.loads(truth.read_text())
        assert len(payload["rusher_win_effects"]) == 8
        assert set(payload["sev_alpha"]) == {"win", "hit", "sack"}

    def test_deterministic_output(self, synth_csv, tmp_path):
        again = tmp_path / "again.csv"
        assert run(["synth", "--out", str(again)] + SYNTH_ARGS) == 0
        assert again.read_bytes() == synth_csv[0].read_bytes()


class TestFit:
    def test_fixed_lambda_payload(self, fits_json):
        payload = json.loads(fits_json.read_text())
        assert {"win", "severity"} <= set(payload)
        assert "cv" not in payload
        assert payload["win"]["lambda"] == 0.5

    def test_cv_payload_traces_grid(self, synth_csv, tmp_path, monkeypatch):
        grids = []
        real = cli.cv_select_lambda

        def spy(table, target, grid, *args, **kwargs):
            grids.append(list(grid))
            return real(table, target, grid, *args, **kwargs)

        monkeypatch.setattr(cli, "cv_select_lambda", spy)
        out = tmp_path / "fits.json"
        code = run(
            [
                "fit", "--interactions", str(synth_csv[0]), "--out", str(out),
                "--model", "win", "--grid-min", "0.1", "--grid-max", "10",
                "--grid-size", "3", "--folds", "3",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"cv", "win"}
        trace = payload["cv"]["win"]
        assert len(trace["lambdas"]) == 3
        assert len(trace["mean_losses"]) == 3
        assert trace["lambda_min"] in trace["lambdas"]
        assert payload["win"]["lambda"] == trace["lambda_min"]

        # the same bounds as pipeline config keys give the same grid
        cfg = {
            "seed": 3, "stages": "fit", "out_dir": str(tmp_path / "runs"),
            "interactions": str(synth_csv[0]), "folds": 3,
            "grid_min": 0.1, "grid_max": 10, "grid_size": 3,
        }
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert run(["pipeline", "--config", str(tmp_path / "config.json")]) == 0
        assert len(grids) == 3
        assert grids[1] == grids[2] == grids[0]

        # bad bounds are usage errors on both surfaces
        for flags in (["--grid-min", "10", "--grid-max", "0.1"], ["--grid-min", "0"]):
            code = run(["fit", "--interactions", str(synth_csv[0]),
                        "--out", str(tmp_path / "bad.json")] + flags)
            assert code == 1
        # before the run directory is made (JSON's NaN and Infinity read as floats)
        runs = sorted((tmp_path / "runs").iterdir())
        for bad in ({"grid_min": 10, "grid_max": 0.1}, {"grid_min": 0}, {"grid_min": math.nan},
                    {"grid_max": math.inf}):
            (tmp_path / "bad.json").write_text(json.dumps({**cfg, **bad}))
            assert run(["pipeline", "--config", str(tmp_path / "bad.json")]) == 1
        assert sorted((tmp_path / "runs").iterdir()) == runs

    @pytest.mark.parametrize(
        "flags",
        [dict(chosen) for k in range(4)
         for chosen in itertools.combinations(
             [("--grid-min", "0.01"), ("--grid-max", "10"), ("--grid-size", "7")], k)],
        ids=lambda flags: " ".join(flags) or "none",
    )
    def test_grid_flags_give_the_grid_they_gave_before(self, flags):
        def reference_lambda_grid(lo, hi, size):
            if lo is None and hi is None and size is None:
                return list(DEFAULT_LAMBDA_GRID)
            lo = 1e-6 if lo is None else lo
            hi = 1e2 if hi is None else hi
            size = 25 if size is None else size
            return list(np.logspace(math.log10(lo), math.log10(hi), size))

        argv = ["fit", "--interactions", "t.csv", "--out", "f.json"]
        args = cli.build_parser().parse_args(argv + [v for kv in flags.items() for v in kv])
        want = reference_lambda_grid(args.grid_min, args.grid_max, args.grid_size)
        assert cli._cv_options(vars(args))["grid"] == want

    def test_single_model_selection(self, synth_csv, tmp_path):
        out = tmp_path / "sev.json"
        code = run(
            ["fit", "--interactions", str(synth_csv[0]), "--lam", "0.4",
             "--model", "severity", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert "severity" in payload and "win" not in payload


class TestValidate:
    def test_outputs(self, synth_csv, tmp_path):
        code = run(
            ["validate", "--interactions", str(synth_csv[0]),
             "--lambda-win", "0.5", "--lambda-sev", "0.5",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "validation.csv")
        assert rows[0] == VALIDATION_CSV_HEADER
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("win", "global"), ("win", "matchup"),
            ("severity", "global"), ("severity", "matchup"),
        ]
        payload = json.loads((tmp_path / "validation.json").read_text())
        assert payload["lambda_win"] == 0.5
        assert len(payload["rows"]) == 4

    @pytest.mark.parametrize("flags", [
        ["--m-win", "nan"], ["--m-sev", "inf"], ["--m-win", "-1"],
    ], ids=" ".join)
    def test_bad_prior_strength_is_usage_error(self, synth_csv, tmp_path, capsys, flags):
        code = run(["validate", "--interactions", str(synth_csv[0]),
                    "--out-dir", str(tmp_path)] + flags)
        assert code == 1
        assert "prior strength must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "validation.csv").exists()


class TestSensitivity:
    def test_default_grid_gives_eight_rows(self, synth_csv, tmp_path):
        code = run(
            ["sensitivity", "--interactions", str(synth_csv[0]),
             "--lambda-win", "0.5", "--lambda-sev", "0.5",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "sensitivity.csv")
        assert rows[0] == SENSITIVITY_CSV_HEADER
        assert len(rows) == 9
        assert [r[1] for r in rows[1:5]] == ["10", "25", "50", "100"]

    @pytest.mark.parametrize("flags", [
        ["--m-grid", "nan"], ["--m-grid", "10,inf"], ["--m-grid", ","],
    ], ids=" ".join)
    def test_bad_grid_is_usage_error_before_any_fit(self, synth_csv, tmp_path, capsys,
                                                     monkeypatch, flags):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the grid was checked")

        monkeypatch.setattr(cli.evaluate, "cv_select_lambda", forbidden)
        monkeypatch.setattr(fit_module, "_fit_cells", forbidden)
        code = run(["sensitivity", "--interactions", str(synth_csv[0]),
                    "--out-dir", str(tmp_path)] + flags)
        assert code == 1
        assert "prior" in capsys.readouterr().err
        assert not (tmp_path / "sensitivity.csv").exists()


class TestBootstrap:
    def test_outputs_and_replicates(self, synth_csv, tmp_path):
        code = run(
            ["bootstrap", "--interactions", str(synth_csv[0]), "--b", "2",
             "--lambda-win", "0.5", "--lambda-sev", "0.5",
             "--replicates", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "bootstrap.json").read_text())
        assert payload["b"] == 2
        assert payload["mode"] == "end_to_end"
        assert payload["improvements"]
        reps = read_rows(tmp_path / "replicates.csv")
        assert len(reps) > 1

    def test_single_model_tracks_no_improvements(self, synth_csv, tmp_path):
        code = run(
            ["bootstrap", "--interactions", str(synth_csv[0]), "--b", "2",
             "--lambda-win", "0.5", "--lambda-sev", "0.5", "--models", "win",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "bootstrap.json").read_text())
        assert payload["improvements"] == {}
        assert payload["ratings"]

    def test_no_improvements_flag_still_accepted(self, synth_csv, tmp_path):
        code = run(
            ["bootstrap", "--interactions", str(synth_csv[0]), "--b", "1",
             "--lambda-win", "0.5", "--lambda-sev", "0.5", "--no-improvements",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert json.loads((tmp_path / "bootstrap.json").read_text())["improvements"] == {}


class TestTrackingErrors:
    """A bootstrap tracking nothing, or a player not in the table, fails before any fit."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a fit ran before the tracking was checked")

        monkeypatch.setattr(fit_module, "_solve", forbidden)

    def test_nothing_tracked_is_a_usage_error(self, synth_csv, tmp_path, capsys):
        code = run(
            ["bootstrap", "--interactions", str(synth_csv[0]), "--b", "2",
             "--lambda-win", "0.5", "--lambda-sev", "0.5", "--models", "win", "--no-ratings",
             "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "track_improvements or track_ratings" in capsys.readouterr().err
        assert not (tmp_path / "bootstrap.json").exists()

    @pytest.mark.parametrize("command", ["bootstrap", "path"])
    @pytest.mark.parametrize("with_known", [False, True], ids=["alone", "after_a_known_id"])
    def test_unknown_player_is_a_data_error(self, synth_csv, tmp_path, capsys, command,
                                            with_known):
        known = read_interactions_csv(synth_csv[0]).rushers[0]
        players = f"{known},NOPE" if with_known else "NOPE"
        code = run(
            [command, "--interactions", str(synth_csv[0]), "--b", "2",
             "--lambda-win", "0.5", "--lambda-sev", "0.5", "--players", players,
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "data error: tracked players not in the table: 'NOPE'"
        )
        assert list(tmp_path.iterdir()) == []


class TestPath:
    def test_outputs(self, synth_csv, tmp_path):
        code = run(
            ["path", "--interactions", str(synth_csv[0]), "--b", "2",
             "--lambda-win", "0.5", "--lambda-sev", "0.5",
             "--models", "win", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "weekly.csv")
        assert rows[0] == WEEKLY_CSV_HEADER
        payload = json.loads((tmp_path / "path.json").read_text())
        assert payload["mode"] == "weekly_path"
        assert payload["checkpoints"] == [1, 2, 3, 4, 5, 6]


class TestExternal:
    def test_outputs_per_slice(self, synth_csv, fits_json, tmp_path):
        table = read_interactions_csv(synth_csv[0])
        acc = tmp_path / "accolades.csv"
        with open(acc, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["player_id", "team_level"])
            w.writerow([table.rushers[0], "first"])
            w.writerow([table.rushers[1], "second"])
            w.writerow([table.blockers[0], "first"])
            w.writerow([table.blockers[1], "second"])
        code = run(
            ["external", "--interactions", str(synth_csv[0]), "--fit", str(fits_json),
             "--accolades", str(acc), "--out-dir", str(tmp_path)]
        )
        assert code == 0
        for name in ("external_first.csv", "external_first_second.csv"):
            rows = read_rows(tmp_path / name)
            assert rows[0] == RANK_EVAL_CSV_HEADER
            assert len(rows) == 5  # 2 tasks x 2 roles
        payload = json.loads((tmp_path / "external.json").read_text())
        assert len(payload["rows"]) == 8


class TestLeaderboard:
    def test_with_bands(self, synth_csv, fits_json, tmp_path):
        boot_dir = tmp_path / "boot"
        assert run(
            ["bootstrap", "--interactions", str(synth_csv[0]), "--b", "2",
             "--lambda-win", "0.5", "--lambda-sev", "0.5",
             "--out-dir", str(boot_dir)]
        ) == 0
        out = tmp_path / "leaderboard.csv"
        code = run(
            ["leaderboard", "--interactions", str(synth_csv[0]), "--fit", str(fits_json),
             "--min-n", "1", "--top", "3",
             "--bands", str(boot_dir / "bootstrap.json"), "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == LEADERBOARD_CSV_HEADER
        assert len(rows) == 1 + 3 * 2 * 2  # both models, both roles
        assert all(r[5] != "" and r[6] != "" for r in rows[1:])


class TestMalformedFitJson:
    CASES = ["win fit without alpha", "severity delta without a class"]

    @staticmethod
    def broken_fits(fits_json, tmp_path, case):
        """The fit file with one key removed, and the error text naming it."""
        raw = json.loads(fits_json.read_text())
        if case == "win fit without alpha":
            del raw["win"]["alpha"]
            key = "fit JSON has no key 'alpha'"
        else:
            label = raw["severity"]["classes"][-1]
            del raw["severity"]["delta"][label]
            key = f"fit JSON 'delta' has no key {label!r}"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        return path, key

    @pytest.mark.parametrize("case", CASES)
    def test_load_fits_names_file_and_key(self, fits_json, tmp_path, case):
        path, key = self.broken_fits(fits_json, tmp_path, case)
        with pytest.raises(DataError) as got:
            cli._load_fits(path)
        assert str(got.value) == f"{path}: {key}"

    @pytest.mark.parametrize("command", ["leaderboard", "external"])
    @pytest.mark.parametrize("case", CASES)
    def test_commands_exit_2(self, synth_csv, fits_json, tmp_path, capsys, case, command):
        path, key = self.broken_fits(fits_json, tmp_path, case)
        extra = {"leaderboard": ["--out", str(tmp_path / "lb.csv")],
                 "external": ["--accolades", str(tmp_path / "acc.csv"),
                              "--out-dir", str(tmp_path)]}[command]
        argv = [command, "--interactions", str(synth_csv[0]), "--fit", str(path), *extra]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err


class TestFitFileChecks:
    def test_fit_under_the_other_models_key_is_a_data_error(self, fits_json, tmp_path):
        raw = json.loads(fits_json.read_text())
        raw["win"], raw["severity"] = raw["severity"], raw["win"]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError) as got:
            cli._load_fits(path)
        assert str(got.value) == f"{path}: the 'win' entry holds a 'severity' fit"
        del raw["win"]
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError) as got:
            cli._load_fits(path)
        assert str(got.value) == f"{path}: the 'severity' entry holds a 'win' fit"

    @pytest.mark.parametrize("command", ["leaderboard", "external"])
    def test_swapped_fits_exit_2(self, synth_csv, fits_json, tmp_path, capsys, command):
        raw = json.loads(fits_json.read_text())
        raw["win"], raw["severity"] = raw["severity"], raw["win"]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(raw))
        extra = {"leaderboard": ["--out", str(tmp_path / "lb.csv")],
                 "external": ["--accolades", str(tmp_path / "acc.csv"),
                              "--out-dir", str(tmp_path)]}[command]
        argv = [command, "--interactions", str(synth_csv[0]), "--fit", str(path), *extra]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: the 'win' entry holds a 'severity' fit\n"
        )

    def test_non_numeric_effect_exits_2(self, synth_csv, fits_json, tmp_path, capsys):
        raw = json.loads(fits_json.read_text())
        player = sorted(raw["win"]["rusher_effects"])[0]
        raw["win"]["rusher_effects"][player] = "abc"
        path = tmp_path / "abc.json"
        path.write_text(json.dumps(raw))
        argv = ["leaderboard", "--interactions", str(synth_csv[0]), "--fit", str(path),
                "--out", str(tmp_path / "lb.csv")]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: fit JSON 'rusher_effects' of player {player!r}"
            " is not a number: 'abc'\n"
        )


class TestIngest:
    def write_inputs(self, d):
        frames, events, engagements, schedule = hand_play()
        with open(d / "tracking.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["game_id", "play_id", "frame_index", "player_id", "x", "y", "is_qb"])
            for f in frames:
                w.writerow([f.game_id, f.play_id, f.frame_index, f.player_id,
                            f.x, f.y, int(f.is_qb)])
        with open(d / "events.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["game_id", "play_id", "snap_frame", "has_forward_pass",
                        "has_sack", "qb_hit"])
            for e in events:
                w.writerow([e.game_id, e.play_id, e.snap_frame, int(e.has_forward_pass),
                            int(e.has_sack), int(e.qb_hit)])
        with open(d / "engagements.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["game_id", "play_id", "rusher_id", "blocker_id",
                        "start_frame", "end_frame"])
            for e in engagements:
                w.writerow([e.game_id, e.play_id, e.rusher_id, e.blocker_id,
                            e.start_frame, e.end_frame])
        with open(d / "schedule.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["game_id", "week"])
            for gid, week in schedule.items():
                w.writerow([gid, week])

    def test_round_trip(self, tmp_path):
        self.write_inputs(tmp_path)
        out = tmp_path / "interactions.csv"
        code = run(
            ["ingest", "--tracking", str(tmp_path / "tracking.csv"),
             "--events", str(tmp_path / "events.csv"),
             "--engagements", str(tmp_path / "engagements.csv"),
             "--schedule", str(tmp_path / "schedule.csv"),
             "--out", str(out)]
        )
        assert code == 0
        table = read_interactions_csv(out)
        assert len(table) == 3
        assert table.severity.tolist() == [OutcomeClass.HIT] * 3

    @pytest.mark.parametrize("option", [
        ["--horizon", "-1"],
        ["--tolerance", "nan"],
        ["--tolerance", "inf"],
        ["--tolerance", "-0.5"],
        ["--min-overlap", "0"],
    ], ids=" ".join)
    def test_label_changing_options_rejected(self, tmp_path, capsys, option):
        self.write_inputs(tmp_path)
        out = tmp_path / "interactions.csv"
        code = run(
            ["ingest", "--tracking", str(tmp_path / "tracking.csv"),
             "--events", str(tmp_path / "events.csv"),
             "--engagements", str(tmp_path / "engagements.csv"),
             "--schedule", str(tmp_path / "schedule.csv"),
             "--out", str(out)] + option
        )
        assert code == 1
        assert option[0].lstrip("-").replace("-", "_") in capsys.readouterr().err
        assert not out.exists()


class TestPipeline:
    def config(self, tmp_path, **overrides):
        cfg = {
            "seed": 3,
            "stages": "synth,fit",
            "out_dir": str(tmp_path / "runs"),
            "rushers": 8,
            "blockers": 6,
            "games": 6,
            "plays_per_game": 6,
            "interactions_per_play": 3,
            "weeks": 6,
            "lambda_win": 0.5,
            "lambda_sev": 0.5,
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def runs(self, tmp_path):
        base = tmp_path / "runs"
        return sorted(base.iterdir()) if base.exists() else []

    def test_minimal_run(self, tmp_path):
        cfg = self.config(tmp_path)
        assert run(["pipeline", "--config", str(cfg)]) == 0
        (run_dir,) = self.runs(tmp_path)
        assert (run_dir / "config_resolved.json").exists()
        assert (run_dir / "interactions.csv").exists()
        assert (run_dir / "fits.json").exists()
        resolved = json.loads((run_dir / "config_resolved.json").read_text())
        assert resolved["seed"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = self.config(tmp_path, typo_key=1)
        assert run(["pipeline", "--config", str(cfg)]) == 1
        assert self.runs(tmp_path) == []

    def test_missing_seed_rejected(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"stages": "synth", "out_dir": str(tmp_path / "runs")}))
        assert run(["pipeline", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("stages", {"stages": ["synth", "fit"]}),
            ("players", {"stages": "synth,path", "players": ["R00"]}),
        ],
    )
    def test_list_for_comma_separated_key_is_usage_error(self, tmp_path, capsys, key, overrides):
        cfg = self.config(tmp_path, **overrides)
        assert run(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize(
        "key, value",
        [("m_grid", [25, None]), ("m_grid", 25), ("grid_min", "a"), ("ratio", "0.5"),
         ("tol", [1]), ("rushers", 8.0), ("rushers", True), ("coupled", 1), ("seed", "3"),
         ("out_dir", 7), ("lambda_win", {"v": 1})],
    )
    def test_wrong_json_type_is_usage_error_before_run_dir(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        cfg = self.config(tmp_path, stages="synth,validate,sensitivity", **{key: value})
        monkeypatch.chdir(tmp_path)  # where a relative run directory would go
        assert run(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_stage_failure_writes_error_json(self, tmp_path):
        cfg = self.config(tmp_path, lambda_win=-1.0)
        assert run(["pipeline", "--config", str(cfg)]) == 1
        (run_dir,) = self.runs(tmp_path)
        err = json.loads((run_dir / "error.json").read_text())
        assert err["stage"] == "fit"

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"stages": "synth,fit", "interactions": True}, ("'interactions'", "'synth'")),
            ({"stages": "ingest,fit", "interactions": True}, ("'interactions'", "'ingest'")),
            ({"stages": "ingest,synth,fit"}, ("'ingest'", "'synth'")),
        ],
        ids=["interactions-synth", "interactions-ingest", "ingest-synth"],
    )
    def test_table_source_conflict_is_usage_error(
        self, synth_csv, tmp_path, capsys, overrides, named
    ):
        raw = {key: str(tmp_path / f"{key}.csv")
               for key in ("tracking", "events", "engagements", "schedule")}
        overrides = dict(overrides)
        if overrides.pop("interactions", False):
            overrides["interactions"] = str(synth_csv[0])
        cfg = self.config(tmp_path, **raw, **overrides)
        assert run(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(name in err for name in named)
        assert self.runs(tmp_path) == []

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"stages": "synth,fit,bootstrap,external"},
             "external stage requires an 'accolades' CSV path in config"),
            ({"stages": "ingest,fit", "tracking": "t.csv", "events": "e.csv",
              "schedule": "s.csv"},
             "ingest stage requires config key 'engagements'"),
            ({"stages": "fit,validate"},
             "config needs an 'interactions' path, or an 'ingest' or 'synth' stage"),
        ],
        ids=["accolades", "ingest-input", "no-table"],
    )
    def test_missing_key_fails_before_any_stage(self, tmp_path, capsys, overrides, message):
        cfg = self.config(tmp_path, **overrides)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert self.runs(tmp_path) == []

    def test_stages_equal_subcommands(self, synth_csv, tmp_path):
        """One pipeline run writes the files each subcommand writes alone."""
        acc = tmp_path / "accolades.csv"
        table = read_interactions_csv(synth_csv[0])
        acc.write_text(
            "player_id,team_level\n"
            f"{table.rushers[0]},first\n{table.rushers[1]},second\n"
            f"{table.blockers[0]},first\n{table.blockers[1]},second\n"
        )
        cfg = self.config(
            tmp_path,
            stages="synth,fit,validate,sensitivity,bootstrap,path,external,leaderboard",
            replicates=True, b_end_to_end=3, b_weekly=2, accolades=str(acc),
            min_n_leaderboard=1, top=3,
        )
        assert run(["pipeline", "--config", str(cfg)]) == 0
        (got,) = self.runs(tmp_path)

        want = tmp_path / "subcommands"
        want.mkdir()
        lams = ["--lambda-win", "0.5", "--lambda-sev", "0.5"]
        csv_in = ["--interactions", str(want / "interactions.csv")]
        out_dir = ["--out-dir", str(want)]
        for argv in (
            ["synth", "--out", str(want / "interactions.csv"),
             "--truth", str(want / "truth.json")] + SYNTH_ARGS,
            ["fit"] + csv_in + ["--lam", "0.5", "--out", str(want / "fits.json")],
            ["validate"] + csv_in + lams + out_dir,
            ["sensitivity"] + csv_in + lams + out_dir,
            ["bootstrap"] + csv_in + lams + ["--b", "3", "--seed", "3", "--replicates"] + out_dir,
            ["path"] + csv_in + lams + ["--b", "2", "--seed", "3"] + out_dir,
            ["external"] + csv_in + ["--fit", str(want / "fits.json"),
                                     "--accolades", str(acc)] + out_dir,
            ["leaderboard"] + csv_in + ["--fit", str(want / "fits.json"), "--min-n", "1",
                                        "--top", "3", "--bands", str(want / "bootstrap.json"),
                                        "--out", str(want / "leaderboard.csv")],
        ):
            assert run(argv) == 0, argv

        names = {p.name for p in want.iterdir()}
        assert names == {p.name for p in got.iterdir()} - {"config_resolved.json"}
        for name in sorted(names - {"validation.csv", "validation.json"}):
            assert (got / name).read_bytes() == (want / name).read_bytes(), name

        # validation agrees except for the CI the pipeline takes from its bootstrap
        boot = json.loads((got / "bootstrap.json").read_text())["improvements"]
        got_rows, want_rows = read_rows(got / "validation.csv"), read_rows(want / "validation.csv")
        assert [r[:5] for r in got_rows] == [r[:5] for r in want_rows]
        assert all(r[5:] == ["", ""] for r in want_rows[1:])
        for task, baseline, *_, lo, hi in got_rows[1:]:
            series = boot[f"{task}:{baseline}"]
            assert (lo, hi) == (f"{series['lo']:.4f}", f"{series['hi']:.4f}")
        got_json = json.loads((got / "validation.json").read_text())
        for rec in got_json["rows"]:
            series = boot[f"{rec['task']}:{rec['baseline']}"]
            assert (rec.pop("ci_lo"), rec.pop("ci_hi")) == (series["lo"], series["hi"])
        assert got_json == json.loads((want / "validation.json").read_text())


    def test_holdout_cv_runs_once_for_validate_and_sensitivity(
        self, synth_csv, tmp_path, monkeypatch
    ):
        """Without penalties, both stages use one train-split CV per target,
        and write what the subcommands write alone."""
        targets = []
        real = cli.cv_select_lambda

        def spy(table, target, *args, **kwargs):
            targets.append(target)
            return real(table, target, *args, **kwargs)

        fits = []
        real_fit = fit_module._fit_cells

        def fit_spy(*args, **kwargs):
            fits.append(args[2])
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(cli, "cv_select_lambda", spy)
        monkeypatch.setattr(cli.evaluate, "cv_select_lambda", spy)
        monkeypatch.setattr(fit_module, "_fit_cells", fit_spy)
        grid = {"grid_min": 0.1, "grid_max": 10, "grid_size": 3, "folds": 3}
        cfg = self.config(
            tmp_path, stages="validate,sensitivity", interactions=str(synth_csv[0]),
            lambda_win=None, lambda_sev=None, **grid,
        )
        assert run(["pipeline", "--config", str(cfg)]) == 0
        assert targets == ["win", "severity"]
        assert fits == ["win", "severity"]  # one pair of train-split fits for both stages
        (got,) = self.runs(tmp_path)

        want = tmp_path / "subcommands"
        flags = ["--interactions", str(synth_csv[0]), "--out-dir", str(want),
                 "--grid-min", "0.1", "--grid-max", "10", "--grid-size", "3", "--folds", "3"]
        assert run(["validate"] + flags) == 0
        assert run(["sensitivity"] + flags) == 0
        assert targets == ["win", "severity"] * 3
        for name in ("validation.csv", "validation.json", "sensitivity.csv", "sensitivity.json"):
            assert (got / name).read_bytes() == (want / name).read_bytes(), name

    def test_sweep_alone_writes_no_validation(self, tmp_path):
        cfg = self.config(tmp_path, stages="synth,sensitivity,bootstrap", b_end_to_end=2)
        assert run(["pipeline", "--config", str(cfg)]) == 0
        (got,) = self.runs(tmp_path)
        assert (got / "sensitivity.csv").exists() and (got / "bootstrap.json").exists()
        assert not (got / "validation.csv").exists()
        assert not (got / "validation.json").exists()

    @pytest.mark.parametrize("stage", ["validate", "sensitivity"])
    def test_one_row_table_fails_like_the_subcommand(self, synth_csv, tmp_path, capsys, stage):
        one_row = tmp_path / "one.csv"
        write_interactions_csv(read_interactions_csv(synth_csv[0]).take(slice(1)), one_row)
        assert run([stage, "--interactions", str(one_row), "--out-dir", str(tmp_path)]) == 2
        message = capsys.readouterr().err.removeprefix("data error: ").strip()
        assert message == "validation needs nonempty train and test portions"

        cfg = self.config(tmp_path, stages=stage, interactions=str(one_row),
                          lambda_win=None, lambda_sev=None)
        assert run(["pipeline", "--config", str(cfg)]) == 2
        (run_dir,) = self.runs(tmp_path)
        err = json.loads((run_dir / "error.json").read_text())
        assert (err["stage"], err["error"], err["message"]) == (stage, "DataError", message)

    def test_bad_prior_grid_fails_before_any_stage(self, tmp_path, capsys):
        cfg = self.config(tmp_path, stages="synth,validate,sensitivity", m_grid="25,nan")
        assert run(["pipeline", "--config", str(cfg)]) == 1
        assert "prior strength must be finite and >= 0" in capsys.readouterr().err
        assert self.runs(tmp_path) == []


class TestExitCodes:
    def test_missing_input_file_is_data_error(self, tmp_path):
        out = tmp_path / "fits.json"
        code = run(["fit", "--interactions", str(tmp_path / "nope.csv"),
                    "--lam", "0.5", "--out", str(out)])
        assert code == 2

    def test_bad_value_is_usage_error(self, synth_csv, tmp_path):
        code = run(["fit", "--interactions", str(synth_csv[0]),
                    "--lam", "-3", "--out", str(tmp_path / "f.json")])
        assert code == 1

    FIT_CASES = [
        (["--lam", "0"], "lam must be finite and > 0, got 0.0"),
        (["--lam", "nan"], "lam must be finite and > 0, got nan"),
        (["--lam", "inf"], "lam must be finite and > 0, got inf"),
        (["--grid-min", "nan", "--grid-size", "2", "--folds", "3"],
         "lam must be finite and > 0, got nan"),
        (["--grid-max", "inf"], "lam must be finite and > 0, got inf"),
        (["--lam", "0.5", "--tol", "-1"], "tol must be finite and > 0"),
        (["--lam", "0.5", "--tol", "0"], "tol must be finite and > 0"),
        (["--lam", "0.5", "--tol", "nan"], "tol must be finite and > 0"),
        (["--lam", "0.5", "--max-iter", "0"], "max_iter must be an integer >= 1"),
        (["--lam", "0.5", "--max-iter", "-5"], "max_iter must be an integer >= 1"),
    ]
    BOOTSTRAP_CASES = [
        (["--lambda-win", "nan"], "lam must be finite and > 0, got nan"),
        (["--lambda-sev", "0"], "lam must be finite and > 0, got 0.0"),
        (["--tol", "inf"], "tol must be finite and > 0"),
        (["--max-iter", "0"], "max_iter must be an integer >= 1"),
    ]

    @pytest.mark.parametrize("flags, message", FIT_CASES,
                             ids=[" ".join(flags) for flags, _ in FIT_CASES])
    def test_bad_penalty_or_solver_option_is_usage_error(self, synth_csv, tmp_path, capsys,
                                                        flags, message):
        out = tmp_path / "f.json"
        assert run(["fit", "--interactions", str(synth_csv[0]), "--out", str(out)] + flags) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bootstrap", "path"])
    @pytest.mark.parametrize("flags, message", BOOTSTRAP_CASES,
                             ids=[" ".join(flags) for flags, _ in BOOTSTRAP_CASES])
    def test_bad_bootstrap_option_is_usage_error(self, synth_csv, tmp_path, capsys, command,
                                                 flags, message):
        out = tmp_path / "out"
        code = run([command, "--interactions", str(synth_csv[0]), "--b", "10",
                    "--lambda-win", "0.5", "--lambda-sev", "0.5", "--out-dir", str(out)] + flags)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_nonconvergence_is_fit_error(self, synth_csv, tmp_path):
        code = run(["fit", "--interactions", str(synth_csv[0]), "--lam", "0.5",
                    "--max-iter", "1", "--tol", "1e-14",
                    "--out", str(tmp_path / "f.json")])
        assert code == 3

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_bare_invocation_prints_help(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

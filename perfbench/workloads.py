"""The benchmark's workloads: inputs, one measured iteration, output checks.

Each workload runs through the package's public entry points only.
``season_cv`` and ``desk_bootstrap`` compare their outputs with
references recorded from the seed commit for ``N_WORLDS`` input worlds;
``raw_ingest`` compares with the table its generator built.

This module imports the package under test; ``run.py`` loads it only in
the child processes that set up or run a workload.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import warnings
from pathlib import Path

from trenchrank import cli, evaluate, external, fit, interactions, report, synth

import rawgen

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

#: References exist for this many worlds; a seed selects world seed % N_WORLDS.
N_WORLDS = 10
TOLERANCE = 1e-6

SEASON_SHAPE = dict(
    n_rushers=620, n_blockers=348, n_games=266, plays_per_game=115,
    interactions_per_play=5, n_weeks=18,
)
# CV grids drawn from DEFAULT_LAMBDA_GRID: {0.01, 1, 100} for the win
# model; the severity CV runs at 1.0 only, because each severity fold
# costs about 3 s at full scale and a wider grid would not fit a run.
SEASON_WIN_GRID = tuple(fit.DEFAULT_LAMBDA_GRID[i] for i in (6, 18, 24))
SEASON_SEV_GRID = (fit.DEFAULT_LAMBDA_GRID[18],)
SEASON_FOLDS = 5
ACCOLADES_PER_TEAM = 8
MIN_SPEARMAN = 0.9

DESK_SHAPE = dict(
    n_rushers=10, n_blockers=8, n_games=20, plays_per_game=40,
    interactions_per_play=4, n_weeks=10,
)
DESK_B = 50
DESK_LAMBDA = "0.2"

RAW_GAMES = 8


def _world(seed: int) -> int:
    return seed % N_WORLDS


def load_refs(name: str) -> dict:
    path = REFS / f"{name}.json.gz"
    if not path.exists():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["worlds"]


def save_refs(name: str, worlds: dict) -> None:
    REFS.mkdir(exist_ok=True)
    payload = {"tolerance": TOLERANCE, "worlds": dict(sorted(worlds.items(), key=lambda kv: int(kv[0])))}
    with gzip.GzipFile(REFS / f"{name}.json.gz", "wb", mtime=0) as raw:
        raw.write(json.dumps(payload, separators=(",", ":")).encode())


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOLERANCE


def _compare_values(got: dict, want: dict, label: str) -> list[str]:
    if set(got) != set(want):
        return [f"{label}: keys differ ({len(set(got) ^ set(want))} not shared)"]
    bad = [k for k in want if len(got[k]) != len(want[k])
           or not all(_close(a, b) for a, b in zip(got[k], want[k]))]
    if bad:
        return [f"{label}: {len(bad)} series differ by more than {TOLERANCE:g}, e.g. {bad[0]}"]
    return []


def _rounded(values) -> list:
    return [None if v is None or math.isnan(v) else round(v, 10) for v in values]


class SeasonCV:
    """Criterion-7 flow at full scale: CV, holdout validation, full fits,
    external rank evaluation, leaderboards and report files."""

    name = "season_cv"

    def __init__(self, seed: int, workdir: Path):
        self.world = _world(seed)
        self.csv = workdir / "interactions.csv"
        self.truth_path = workdir / "truth.json"
        self.accolades = workdir / "accolades.csv"

    def setup(self) -> None:
        table, truth = synth.synth_generate(synth.SynthConfig(**SEASON_SHAPE, seed=self.world))
        interactions.write_interactions_csv(table, self.csv)
        with open(self.truth_path, "w") as fh:
            json.dump({"rusher_win_effects": truth.rusher_win_effects}, fh)
        # accolades from the truth: the best true win effects per role
        # form the first team, the next ones the second team
        lines = ["player_id,team_level"]
        for effects, sign in ((truth.rusher_win_effects, -1), (truth.blocker_win_effects, 1)):
            ranked = sorted(effects, key=lambda p: (sign * effects[p], p))
            lines += [f"{p},first" for p in ranked[:ACCOLADES_PER_TEAM]]
            lines += [f"{p},second" for p in ranked[ACCOLADES_PER_TEAM:2 * ACCOLADES_PER_TEAM]]
        self.accolades.write_text("\n".join(lines) + "\n")

    def prepare(self) -> None:
        with open(self.truth_path) as fh:
            self.truth = json.load(fh)["rusher_win_effects"]
        self.ref = load_refs(self.name).get(str(self.world))

    def iterate(self, out: Path) -> dict:
        table = interactions.read_interactions_csv(self.csv)
        train = evaluate.ordered_split(table).train
        lam_win = fit.cv_select_lambda(train, "win", SEASON_WIN_GRID, SEASON_FOLDS).lambda_min
        lam_sev = fit.cv_select_lambda(train, "severity", SEASON_SEV_GRID, SEASON_FOLDS).lambda_min
        rep = evaluate.run_validation(table, lambda_win=lam_win, lambda_sev=lam_sev)
        win = fit.fit_win_model(table, rep.lambda_win)
        sev = fit.fit_severity_model(table, rep.lambda_sev)
        rank_rows = external.run_external_eval(
            win, sev, table, external.read_accolades_csv(self.accolades)
        )
        board = report.leaderboard(win, table) + report.leaderboard(sev, table)
        report.write_validation_csv(rep.rows, out / "validation.csv")
        for accolade in external.ACCOLADE_SLICES:
            sliced = [r for r in rank_rows if r.accolade == accolade]
            report.write_rank_eval_csv(sliced, out / f"external_{accolade}.csv")
        report.write_leaderboard_csv(board, out / "leaderboard.csv")
        with open(out / "fits.json", "w") as fh:
            json.dump({"win": fit.fit_to_json_dict(win), "severity": fit.fit_to_json_dict(sev)}, fh)
        return {
            "rows": len(table),
            "lambda_win": rep.lambda_win,
            "lambda_sev": rep.lambda_sev,
            "improvements": [row.improvement for row in rep.rows],
            "ratings": {
                f"{model}:{role}": external.model_scores(f, role)
                for model, f in (("win", win), ("severity", sev))
                for role in ("rusher", "blocker")
            },
            "newton_iters": (rep.win_fit.iterations + rep.severity_fit.iterations
                             + win.iterations + sev.iterations),
        }

    def info(self, outputs: dict) -> dict:
        return {"rating_spearman": self.spearman(outputs), "newton_iters": outputs["newton_iters"],
                "lambda_win": outputs["lambda_win"], "lambda_sev": outputs["lambda_sev"]}

    def spearman(self, outputs: dict) -> float:
        import scipy.stats

        fitted = outputs["ratings"]["win:rusher"]
        players = sorted(fitted)
        return float(scipy.stats.spearmanr(
            [fitted[p] for p in players], [self.truth[p] for p in players]
        ).statistic)

    def reference(self, outputs: dict) -> dict:
        return {
            "lambda_win": outputs["lambda_win"],
            "lambda_sev": outputs["lambda_sev"],
            "ratings": {
                key: {"players": sorted(vals), "values": _rounded(vals[p] for p in sorted(vals))}
                for key, vals in outputs["ratings"].items()
            },
        }

    def check(self, outputs: dict) -> list[str]:
        failures = []
        if self.ref is None:
            return [f"no reference recorded for world {self.world}"]
        for key in ("lambda_win", "lambda_sev"):
            if outputs[key] != self.ref[key]:
                failures.append(f"{key} {outputs[key]!r} != reference {self.ref[key]!r}")
        if not all(v > 0 for v in outputs["improvements"]):
            failures.append(f"holdout improvements not all positive: {outputs['improvements']}")
        rho = self.spearman(outputs)
        if not rho >= MIN_SPEARMAN:
            failures.append(f"rating_spearman {rho:.4f} < {MIN_SPEARMAN}")
        ratings, ref = outputs["ratings"], self.ref["ratings"]
        if set(ratings) != set(ref) or any(sorted(ratings[k]) != ref[k]["players"] for k in ref):
            failures.append("rated players differ from the reference")
        else:
            got = {k: [ratings[k][p] for p in r["players"]] for k, r in ref.items()}
            want = {k: r["values"] for k, r in ref.items()}
            failures += _compare_values(got, want, "ratings")
        return failures

    def operations(self, outputs: dict | None, failures: list[str]) -> tuple[int, int]:
        return 1, int(outputs is None or bool(failures))

    def work_units(self, outputs: dict) -> int:
        return outputs["rows"]


class DeskBootstrap:
    """``trenchrank bootstrap`` in-process on the criterion-8 world."""

    name = "desk_bootstrap"

    def __init__(self, seed: int, workdir: Path):
        self.world = _world(seed)
        self.csv = workdir / "interactions.csv"

    def setup(self) -> None:
        table, _ = synth.synth_generate(synth.SynthConfig(**DESK_SHAPE, seed=1000 + self.world))
        interactions.write_interactions_csv(table, self.csv)

    def prepare(self) -> None:
        self.rows = len(interactions.read_interactions_csv(self.csv))
        self.ref = load_refs(self.name).get(str(self.world))

    def iterate(self, out: Path) -> dict:
        argv = [
            "bootstrap", "--interactions", str(self.csv), "--b", str(DESK_B),
            "--lambda-win", DESK_LAMBDA, "--lambda-sev", DESK_LAMBDA,
            "--seed", str(self.world), "--out-dir", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return {"exit_code": code}
        with open(out / "bootstrap.json") as fh:
            summary = json.load(fh)
        values = {f"improvements:{k}": s["values"] for k, s in summary["improvements"].items()}
        values.update({f"ratings:{k}": s["values"] for k, s in summary["ratings"].items()})
        return {"exit_code": 0, "b": summary["b"], "n_failed": summary["n_failed"], "values": values}

    def info(self, outputs: dict) -> dict:
        return {"replicates": outputs.get("b", 0), "replicates_failed": outputs.get("n_failed", 0)}

    def reference(self, outputs: dict) -> dict:
        return {
            "n_failed": outputs["n_failed"],
            "values": {k: _rounded(v) for k, v in outputs["values"].items()},
        }

    def check(self, outputs: dict) -> list[str]:
        if outputs["exit_code"] != 0:
            return [f"trenchrank bootstrap exited with {outputs['exit_code']}"]
        if self.ref is None:
            return [f"no reference recorded for world {self.world}"]
        failures = []
        if outputs["n_failed"] != self.ref["n_failed"]:
            failures.append(f"n_failed {outputs['n_failed']} != reference {self.ref['n_failed']}")
        failures += _compare_values(outputs["values"], self.ref["values"], "replicate values")
        return failures

    def operations(self, outputs: dict | None, failures: list[str]) -> tuple[int, int]:
        if outputs is None or outputs["exit_code"] != 0:
            return DESK_B + 1, DESK_B + 1
        return outputs["b"] + 1, outputs["n_failed"] + int(bool(failures))

    def work_units(self, outputs: dict) -> int:
        return self.rows * outputs.get("b", DESK_B)


class RawIngest:
    """``trenchrank ingest`` in-process on generated tracking CSVs."""

    name = "raw_ingest"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.paths = {
            name: workdir / f"{name}.csv"
            for name in ("tracking", "events", "engagements", "schedule", "expected")
        }

    def setup(self) -> None:
        rawgen.generate(self.dir, seed=self.seed, n_games=RAW_GAMES)

    def prepare(self) -> None:
        self.expected = rawgen.read_rows(self.paths["expected"])

    def iterate(self, out: Path) -> dict:
        target = out / "interactions.csv"
        argv = ["ingest"] + [
            arg for name in ("tracking", "events", "engagements", "schedule")
            for arg in (f"--{name}", str(self.paths[name]))
        ] + ["--out", str(target)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return {"exit_code": code, "path": target}

    def info(self, outputs: dict) -> dict:
        return {"interactions": len(self.expected)}

    def check(self, outputs: dict) -> list[str]:
        if outputs["exit_code"] != 0:
            return [f"trenchrank ingest exited with {outputs['exit_code']}"]
        got = rawgen.read_rows(outputs["path"])
        if got != self.expected:
            diff = next((i for i, (a, b) in enumerate(zip(got, self.expected)) if a != b), None)
            return [f"ingested table differs from the generated one: {len(got)} vs "
                    f"{len(self.expected)} rows, first difference at row {diff}"]
        return []

    def operations(self, outputs: dict | None, failures: list[str]) -> tuple[int, int]:
        return 1, int(outputs is None or bool(failures))

    def work_units(self, outputs: dict) -> int:
        return len(self.expected)


WORKLOADS = {w.name: w for w in (SeasonCV, DeskBootstrap, RawIngest)}


def warm_up(workdir: Path) -> None:
    """Load the lazily imported numeric code paths on a tiny problem."""
    table, _ = synth.synth_generate(synth.SynthConfig(
        n_rushers=6, n_blockers=5, n_games=6, plays_per_game=6, seed=0))
    path = workdir / "warmup.csv"
    interactions.write_interactions_csv(table, path)
    table = interactions.read_interactions_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a tiny world misses rare classes
        evaluate.run_validation(table, lambda_win=1.0, lambda_sev=1.0)


# ---------------------------------------------------------------------------
# Tracing: which functions are wrapped and how spans become layer metrics


def _add(key, amount):
    def hook(counts, args, kwargs, result):
        counts[key] = counts.get(key, 0) + amount(result)
    return hook


def _matrix_hook(counts, args, kwargs, result):
    counts["rows_encoded"] = counts.get("rows_encoded", 0) + result.shape[0]
    counts["nnz"] = counts.get("nnz", 0) + result.nnz


def _fit_hook(counts, args, kwargs, result):
    classes = getattr(result, "classes", None)
    if classes is None:  # binary fit: effects keyed by player
        k, rushers, blockers = 1, result.rusher_effects, result.blocker_effects
    else:  # multinomial fit: effects keyed by class, then player
        k = len(classes)
        rushers, blockers = result.rusher_effects[classes[0]], result.blocker_effects[classes[0]]
    d = 2 + len(rushers) + len(blockers)
    counts["fits"] = counts.get("fits", 0) + 1
    counts["newton_iters"] = counts.get("newton_iters", 0) + result.iterations
    counts["hessian_mb"] = max(counts.get("hessian_mb", 0.0), 8.0 * (k * d) ** 2 / 1e6)


def _boot_hook(counts, args, kwargs, result):
    counts["replicates"] = counts.get("replicates", 0) + result.b * max(1, len(result.checkpoints))
    counts["boot_failed"] = counts.get("boot_failed", 0) + result.n_failed


REPORT_FUNCS = tuple(f"report.{n}" for n in (
    "leaderboard", "bands_from_summary", "write_validation_csv", "write_sensitivity_csv",
    "write_rank_eval_csv", "write_leaderboard_csv", "write_weekly_csv",
    "write_replicates_csv", "validate_csv_header", "validation_to_json_dict",
    "sensitivity_to_json_dict", "rank_eval_to_json_dict", "leaderboard_to_json_dict",
    "summary_to_json_dict",
))

SPAN_FUNCS = {
    "tracking.read_tracking_csv": _add("frames", len),
    "tracking.read_events_csv": None,
    "tracking.read_engagements_csv": _add("engagements", len),
    "tracking.read_schedule_csv": None,
    "tracking.build_interactions": _add("interactions_out", len),
    "interactions.read_interactions_csv": None,
    "interactions.write_interactions_csv": None,
    "interactions.canonical_sort": None,
    "design.build_index": None,
    "design.build_matrix": _matrix_hook,
    "fit.cv_select_lambda": None,
    "fit.fit_win_model": None,
    "fit.fit_severity_model": None,
    "fit.fit_binary_ridge": _fit_hook,
    "fit.fit_multinomial_ridge": _fit_hook,
    "fit.predict_win_probs": _add("predict_rows", len),
    "fit.predict_class_prob_matrix": _add("predict_rows", len),
    "baselines.fit_win_baseline": None,
    "baselines.fit_severity_baseline": None,
    "evaluate.run_validation": None,
    "evaluate.ordered_split": None,
    "evaluate.binary_log_loss": None,
    "evaluate.multiclass_log_loss": None,
    "bootstrap.end_to_end_bootstrap": _boot_hook,
    "bootstrap.weekly_path_bootstrap": _boot_hook,
    "bootstrap.resample_games": None,
    "bootstrap.resampled_table": None,
    "external.read_accolades_csv": None,
    "external.run_external_eval": None,
    "external.model_scores": None,
    "synth.synth_generate": None,
    "cli.main": None,
    **{name: None for name in REPORT_FUNCS},
}

ROW_FUNCS = (
    "design.encode_row",
    "fit.predict_class_probs",
    "baselines.predict_win_matchup",
    "baselines.predict_severity_matchup",
)

BASELINE_PREDICT = ("baselines.predict_win_matchup", "baselines.predict_severity_matchup")


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (self times unless counts)."""

    def self_s(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names)

    read_frames_s = self_s("tracking.read_tracking_csv")
    engagements = counts.get("engagements", 0)
    return {
        "tracking.read_s": self_s("tracking.read_tracking_csv", "tracking.read_events_csv",
                                  "tracking.read_engagements_csv", "tracking.read_schedule_csv"),
        "tracking.frames_per_s": counts.get("frames", 0) / read_frames_s if read_frames_s else 0.0,
        "tracking.build_s": self_s("tracking.build_interactions"),
        "tracking.keep_ratio": counts.get("interactions_out", 0) / engagements if engagements else 0.0,
        "interactions.csv_read_s": self_s("interactions.read_interactions_csv"),
        "interactions.csv_write_s": self_s("interactions.write_interactions_csv"),
        "interactions.sort_s": self_s("interactions.canonical_sort"),
        "design.index_s": self_s("design.build_index"),
        "design.matrix_s": self_s("design.build_matrix", "design.encode_row"),
        "design.matrix_calls": calls("design.build_matrix"),
        "design.rows_encoded": counts.get("rows_encoded", 0),
        "design.nnz": counts.get("nnz", 0),
        "fit.cv_s": self_s("fit.cv_select_lambda"),
        "fit.cv_calls": calls("fit.cv_select_lambda"),
        "fit.win_s": self_s("fit.fit_win_model", "fit.fit_binary_ridge"),
        "fit.sev_s": self_s("fit.fit_severity_model", "fit.fit_multinomial_ridge"),
        "fit.fits": counts.get("fits", 0),
        "fit.newton_iters": counts.get("newton_iters", 0),
        "fit.hessian_mb": counts.get("hessian_mb", 0.0),
        "fit.predict_s": self_s("fit.predict_win_probs", "fit.predict_class_prob_matrix",
                                "fit.predict_class_probs"),
        "fit.predict_rows": counts.get("predict_rows", 0),
        "baselines.fit_s": self_s("baselines.fit_win_baseline", "baselines.fit_severity_baseline"),
        "baselines.predict_s": self_s(*BASELINE_PREDICT),
        "baselines.predict_calls": calls(*BASELINE_PREDICT),
        "evaluate.validation_self_s": self_s("evaluate.run_validation"),
        "evaluate.split_s": self_s("evaluate.ordered_split"),
        "evaluate.logloss_s": self_s("evaluate.binary_log_loss", "evaluate.multiclass_log_loss"),
        "bootstrap.self_s": self_s("bootstrap.end_to_end_bootstrap", "bootstrap.weekly_path_bootstrap"),
        "bootstrap.resample_s": self_s("bootstrap.resample_games", "bootstrap.resampled_table"),
        "bootstrap.replicates": counts.get("replicates", 0),
        "bootstrap.failed": counts.get("boot_failed", 0),
        "external.eval_s": self_s("external.read_accolades_csv", "external.run_external_eval",
                                  "external.model_scores"),
        "report.write_s": self_s(*REPORT_FUNCS),
        "cli.self_s": self_s("cli.main"),
    }

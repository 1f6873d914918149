"""Command-line surface for the rating pipeline.

Subcommands: ingest, synth, fit, validate, sensitivity, bootstrap,
path, external, leaderboard, pipeline.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import bootstrap as boot
from . import evaluate, report
from .errors import DataError, FitError
from .external import ACCOLADE_SLICES, read_accolades_csv, run_external_eval
from .fit import (
    DEFAULT_LAMBDA_GRID,
    Fit,
    check_penalty,
    cv_select_lambda,
    fit_from_json_dict,
    fit_severity_model,
    fit_to_json_dict,
    fit_win_model,
)
from .interactions import (
    INTERACTION_CSV_HEADER,
    InteractionTable,
    read_interactions_csv,
    summarize,
    write_interactions_csv,
)
from .synth import SynthConfig, synth_generate
from .tracking import (
    build_interactions,
    read_engagements_csv,
    read_events_csv,
    read_schedule_csv,
    read_tracking_csv,
)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; 2 is reserved
    for data errors here, so usage failures remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _pick(src: Mapping, *keys: str, **renamed: str) -> dict:
    """Keyword arguments from ``src`` (a pipeline config or ``vars(args)``):
    ``keys`` under their own names, ``renamed`` as argument=source key.

    A key that is missing or None (a flag not given, a JSON null) is left
    out, so the called function's default applies.
    """
    names = {**{key: key for key in keys}, **renamed}
    return {arg: src[key] for arg, key in names.items() if src.get(key) is not None}


def _lambda_grid(lo: float | None, hi: float | None, size: int | None) -> list[float]:
    """The CV grid from ``--grid-*`` flags or ``grid_*`` config keys.

    A missing bound or size takes ``DEFAULT_LAMBDA_GRID``'s, so with none
    given it is that grid.
    """
    lo = DEFAULT_LAMBDA_GRID[0] if lo is None else lo
    hi = DEFAULT_LAMBDA_GRID[-1] if hi is None else hi
    size = len(DEFAULT_LAMBDA_GRID) if size is None else size
    check_penalty(lo)
    check_penalty(hi)
    if hi < lo or size < 1:
        raise ValueError(f"bad lambda grid: min={lo} max={hi} size={size}")
    return list(np.logspace(math.log10(lo), math.log10(hi), size))


def _add_grid_flags(p) -> None:
    p.add_argument("--grid-min", type=float, default=None, help="smallest lambda in the CV grid")
    p.add_argument("--grid-max", type=float, default=None, help="largest lambda in the CV grid")
    p.add_argument("--grid-size", type=int, default=None, help="number of CV grid points")
    p.add_argument("--folds", type=int, help="CV fold count (grouped by game)")


def _add_solver_flags(p) -> None:
    p.add_argument("--tol", type=float, help="gradient sup-norm tolerance (> 0)")
    p.add_argument("--max-iter", type=int, help="solver iteration cap (>= 1)")


def _add_penalty_flags(p, required: bool) -> None:
    selected = "" if required else "; omit to select by cross-validation"
    for flag, model in (("--lambda-win", "win"), ("--lambda-sev", "severity")):
        p.add_argument(flag, type=float, required=required,
                       help=f"{model}-model penalty (> 0){selected}")


def _solver_options(src: Mapping) -> dict:
    return _pick(src, "tol", "max_iter")


def _cv_options(src: Mapping) -> dict:
    """The CV grid and fold count, with the solver options."""
    grid = _lambda_grid(src.get("grid_min"), src.get("grid_max"), src.get("grid_size"))
    return {"grid": grid, **_pick(src, "tol", "max_iter", n_folds="folds")}


def _load_fits(path) -> tuple[Fit | None, Fit | None]:
    """The win and the severity fit of a fits file, None where it has none;
    a fit stored under the other model's key is a DataError."""
    raw = _read_json(path)
    try:
        fits = {model: fit_from_json_dict(raw[model]) for model in _FITTERS if model in raw}
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    for model, fit in fits.items():
        if fit.model != model:
            raise DataError(f"{path}: the {model!r} entry holds a {fit.model!r} fit")
    if not fits:
        raise DataError(f"{path}: no 'win' or 'severity' fit found")
    return fits.get("win"), fits.get("severity")


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_table(table: InteractionTable, path) -> None:
    write_interactions_csv(table, path)
    report.validate_csv_header(path, INTERACTION_CSV_HEADER)


# ---------------------------------------------------------------------------
# Stages.  Each ``_run_<stage>`` runs one stage and writes its files; the
# subcommand of the same name and ``pipeline`` both call it, passing only
# the options that were set.


def _run_ingest(out, tracking, events, engagements, schedule, **options) -> InteractionTable:
    """The table built from the raw CSVs; ``options`` go to ``build_interactions``."""
    table = build_interactions(
        read_tracking_csv(tracking), read_events_csv(events),
        read_engagements_csv(engagements), read_schedule_csv(schedule), **options,
    )
    _write_table(table, out)
    return table


# synth flag dests and pipeline config keys -> SynthConfig fields, in flag order
_SYNTH_FIELDS = {
    "rushers": "n_rushers", "blockers": "n_blockers", "games": "n_games",
    "plays_per_game": "plays_per_game", "interactions_per_play": "interactions_per_play",
    "weeks": "n_weeks", "sigma_r": "sigma_r", "sigma_b": "sigma_b", "alpha": "alpha",
    "delta": "delta", "p_double": "p_double", "coupled": "coupled", "seed": "seed",
}


def _truth_json_dict(truth) -> dict:
    return {
        "alpha": truth.alpha,
        "delta": truth.delta,
        "rusher_win_effects": truth.rusher_win_effects,
        "blocker_win_effects": truth.blocker_win_effects,
        "sev_alpha": {c.label: v for c, v in truth.sev_alpha.items()},
        "sev_delta": {c.label: v for c, v in truth.sev_delta.items()},
        "rusher_class_effects": {
            c.label: d for c, d in truth.rusher_class_effects.items()
        },
        "blocker_class_effects": {
            c.label: d for c, d in truth.blocker_class_effects.items()
        },
    }


def _run_synth(out, truth_out=None, **settings) -> InteractionTable:
    """A synthetic table from ``settings`` keyed as ``_SYNTH_FIELDS``, and its truth."""
    config = SynthConfig(**{_SYNTH_FIELDS[key]: value for key, value in settings.items()})
    table, truth = synth_generate(config)
    _write_table(table, out)
    if truth_out:
        _write_json(_truth_json_dict(truth), truth_out)
    return table


_FITTERS = {"win": fit_win_model, "severity": fit_severity_model}


def _select_lambdas(table, wanted: Mapping[str, float | None], **cv) -> tuple[dict, dict]:
    """Each model's penalty, a None one selected by game-grouped CV on
    ``table``, and the CV trace of each selected penalty."""
    lambdas: dict[str, float] = {}
    traces: dict[str, dict] = {}
    for model, lam in wanted.items():
        if lam is None:
            result = cv_select_lambda(table, model, **cv)
            traces[model] = {
                "lambdas": list(result.lambdas),
                "mean_losses": list(result.mean_losses),
                "lambda_min": result.lambda_min,
            }
            lam = result.lambda_min
        lambdas[model] = lam
    return lambdas, traces


def _fit_models(table, lambdas: Mapping[str, float], **solver) -> dict:
    return {model: _FITTERS[model](table, lam, **solver) for model, lam in lambdas.items()}


def _run_fit(table, wanted: Mapping[str, float | None], out, **cv) -> tuple[dict, dict]:
    """Fit each model of ``wanted`` (model -> penalty, None to select it by
    CV) and write the fits with the CV traces; returns penalties and fits."""
    lambdas, traces = _select_lambdas(table, wanted, **cv)
    fits = _fit_models(table, lambdas, **_solver_options(cv))
    payload = {"cv": traces} if traces else {}
    payload.update((model, fit_to_json_dict(fit)) for model, fit in fits.items())
    _write_json(payload, out)
    return lambdas, fits


def _holdout(table, src: Mapping) -> evaluate.ValidationReport:
    """``run_validation``'s holdout, shared by validate and sensitivity."""
    return evaluate.run_validation(
        table, **_pick(src, "lambda_win", "lambda_sev", "m_win", "m_sev", "ratio"),
        **_cv_options(src),
    )


def _prior_grid(m_grid=evaluate.SENSITIVITY_PRIOR_GRID) -> list[float]:
    """The sweep's prior strengths from ``--m-grid`` or the ``m_grid`` key
    (a comma-separated string, or a list in config), checked."""
    if isinstance(m_grid, str):
        m_grid = [float(v) for v in m_grid.split(",") if v]
    return evaluate.prior_grid(m_grid)


def _run_validate(rep: evaluate.ValidationReport, out_dir, ci=None) -> None:
    """Write a holdout report's rows, with bootstrap intervals if given."""
    out_dir = _out_dir(out_dir)
    report.write_validation_csv(rep.rows, out_dir / "validation.csv", ci)
    report.validate_csv_header(out_dir / "validation.csv", report.VALIDATION_CSV_HEADER)
    _write_json(report.validation_to_json_dict(rep, ci), out_dir / "validation.json")


def _run_sensitivity(table, rep, out_dir, m_grid) -> list[evaluate.SensitivityRow]:
    """The matchup-baseline prior sweep over a holdout report of ``table``."""
    rows = evaluate.prior_sweep(table, rep, m_grid)
    out_dir = _out_dir(out_dir)
    report.write_sensitivity_csv(rows, out_dir / "sensitivity.csv")
    report.validate_csv_header(out_dir / "sensitivity.csv", report.SENSITIVITY_CSV_HEADER)
    _write_json(report.sensitivity_to_json_dict(rows), out_dir / "sensitivity.json")
    return rows


def _bootstrap_config(b: int, models: str = "both", players: str | None = None,
                      improvements: bool = True, no_ratings: bool = False,
                      **settings) -> boot.BootstrapConfig:
    """A config from flag-style settings; the other settings pass through."""
    chosen = boot.MODEL_NAMES if models == "both" else (models,)
    return boot.BootstrapConfig(
        b=b,
        models=chosen,
        # holdout improvements compare both models, so a single model skips them
        track_improvements=improvements and chosen == boot.MODEL_NAMES,
        track_ratings=not no_ratings,
        track_players=tuple(players.split(",")) if players else None,
        **settings,
    )


def _run_bootstrap(table, out_dir, replicates: bool = False, b: int = 1000,
                   **settings) -> boot.BootstrapSummary:
    """The end-to-end game bootstrap, with the replicate-level CSV if asked."""
    summary = boot.end_to_end_bootstrap(table, _bootstrap_config(b, **settings))
    out_dir = _out_dir(out_dir)
    _write_json(report.summary_to_json_dict(summary), out_dir / "bootstrap.json")
    if replicates:
        report.write_replicates_csv(summary, out_dir / "replicates.csv")
        report.validate_csv_header(out_dir / "replicates.csv", report.REPLICATES_CSV_HEADER)
    return summary


def _run_path(table, out_dir, b: int = 100, **settings) -> boot.BootstrapSummary:
    """The weekly cumulative-checkpoint bootstrap (no holdout refits)."""
    summary = boot.weekly_path_bootstrap(table, _bootstrap_config(b, **settings))
    out_dir = _out_dir(out_dir)
    report.write_weekly_csv(summary, out_dir / "weekly.csv")
    report.validate_csv_header(out_dir / "weekly.csv", report.WEEKLY_CSV_HEADER)
    _write_json(report.summary_to_json_dict(summary), out_dir / "path.json")
    return summary


def _run_external(table, win_fit, sev_fit, accolades, out_dir, **options) -> list:
    """Rank metrics against the accolade labels, one CSV per slice."""
    rows = run_external_eval(win_fit, sev_fit, table, accolades, **options)
    out_dir = _out_dir(out_dir)
    for accolade in ACCOLADE_SLICES:
        path = out_dir / f"external_{accolade}.csv"
        report.write_rank_eval_csv([r for r in rows if r.accolade == accolade], path)
        report.validate_csv_header(path, report.RANK_EVAL_CSV_HEADER)
    _write_json(report.rank_eval_to_json_dict(rows), out_dir / "external.json")
    return rows


def _run_leaderboard(table, fits: Iterable, out, bands=None, **options) -> list:
    """Top players of each fit (None entries skipped) in one CSV."""
    rows = [row for fit in fits if fit is not None
            for row in report.leaderboard(fit, table, bands=bands, **options)]
    report.write_leaderboard_csv(rows, out)
    report.validate_csv_header(out, report.LEADERBOARD_CSV_HEADER)
    return rows


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_ingest(args) -> int:
    table = _run_ingest(
        args.out, args.tracking, args.events, args.engagements, args.schedule,
        **_pick(vars(args), "horizon", "tolerance", "min_overlap"),
    )
    s = summarize(table)
    print(
        f"wrote {args.out}: {s.interactions} interactions, {s.plays} plays, "
        f"{s.games} games, {s.rushers} rushers, {s.blockers} blockers"
    )
    return 0


def _cmd_synth(args) -> int:
    table = _run_synth(args.out, args.truth, **_pick(vars(args), *_SYNTH_FIELDS))
    print(f"wrote {args.out}: {len(table)} interactions (seed {args.seed})")
    return 0


def _cmd_fit(args) -> int:
    table = read_interactions_csv(args.interactions)
    models = boot.MODEL_NAMES if args.model == "both" else (args.model,)
    _, fits = _run_fit(table, dict.fromkeys(models, args.lam), args.out, **_cv_options(vars(args)))
    for model, fit in fits.items():
        print(f"{model}: lambda={fit.lam:g} nll={fit.neg_loglik:.4f}")
    return 0


def _cmd_validate(args) -> int:
    table = read_interactions_csv(args.interactions)
    rep = _holdout(table, vars(args))
    _run_validate(rep, args.out_dir)
    print(f"lambda_win={rep.lambda_win:g} lambda_sev={rep.lambda_sev:g} "
          f"(train {rep.n_train} / test {rep.n_test})")
    for row in rep.rows:
        print(
            f"{row.task}/{row.baseline}: model={row.model_logloss:.4f} "
            f"baseline={row.baseline_logloss:.4f} improvement={row.improvement:+.4f}"
        )
    return 0


def _cmd_sensitivity(args) -> int:
    m_grid = _prior_grid(**_pick(vars(args), "m_grid"))  # checked before the holdout's CV
    table = read_interactions_csv(args.interactions)
    rows = _run_sensitivity(table, _holdout(table, vars(args)), args.out_dir, m_grid)
    for row in rows:
        print(f"{row.task} m={row.m:g}: improvement={row.improvement:+.4f}")
    return 0


def _cmd_bootstrap(args) -> int:
    table = read_interactions_csv(args.interactions)
    summary = _run_bootstrap(table, args.out_dir, **_pick(
        vars(args), "replicates", "b", "seed", "lambda_win", "lambda_sev", "ratio",
        "m_win", "m_sev", "models", "improvements", "no_ratings", "players",
        "identity_resample", "tol", "max_iter",
    ))
    print(f"B={summary.b} replicates, {summary.n_failed} failed")
    for key, series in sorted(summary.improvements.items()):
        print(f"improvement {key[0]}/{key[1]}: mean={series.mean:+.4f} "
              f"95%=[{series.lo:+.4f}, {series.hi:+.4f}]")
    return 0


def _cmd_path(args) -> int:
    table = read_interactions_csv(args.interactions)
    summary = _run_path(table, args.out_dir, **_pick(
        vars(args), "b", "seed", "lambda_win", "lambda_sev", "models", "players",
        "identity_resample", "tol", "max_iter",
    ))
    print(f"checkpoints: {list(summary.checkpoints)} ({summary.n_failed} failed fits)")
    return 0


def _cmd_external(args) -> int:
    table = read_interactions_csv(args.interactions)
    win_fit, sev_fit = _load_fits(args.fit)
    if win_fit is None or sev_fit is None:
        raise DataError(f"{args.fit}: external evaluation needs both model fits")
    accolades = read_accolades_csv(args.accolades)
    rows = _run_external(
        table, win_fit, sev_fit, accolades, args.out_dir, **_pick(vars(args), "min_n")
    )
    for row in rows:
        print(f"{row.accolade} {row.task}/{row.role}: auc={row.auc:.3f} "
              f"(base {row.base_auc:.3f}) enrich={row.enrichment:.2f}")
    return 0


def _bands_from_summary_json(path) -> dict[tuple[str, str, str], tuple[float, float]]:
    raw = _read_json(path)
    bands = {}
    for key, series in raw.get("ratings", {}).items():
        model, role, pid = key.split(":", 2)
        if series["lo"] is not None and series["hi"] is not None:
            bands[(model, role, pid)] = (series["lo"], series["hi"])
    return bands


def _cmd_leaderboard(args) -> int:
    table = read_interactions_csv(args.interactions)
    fits = _load_fits(args.fit)
    bands = _bands_from_summary_json(args.bands) if args.bands else None
    rows = _run_leaderboard(table, fits, args.out, bands, **_pick(vars(args), "min_n", "top"))
    for row in rows:
        band = f" [{row.lo:.3f}, {row.hi:.3f}]" if row.lo is not None else ""
        print(f"{row.model}/{row.role} {row.player_id}: {row.rating:+.3f} (n={row.n}){band}")
    return 0


# ---------------------------------------------------------------------------
# Pipeline


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what each JSON type of the pipeline config admits
_JSON_TYPES = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": _is_number,
    "a boolean": lambda v: isinstance(v, bool),
    "a comma-separated string or a list of numbers":
        lambda v: isinstance(v, str) or isinstance(v, list) and all(map(_is_number, v)),
}

_RAW_KEYS = ("tracking", "events", "engagements", "schedule")
# Pipeline config keys and their JSON types.  A null value is allowed for
# every key and means the key is not set.
_PIPELINE_KEYS = {
    **dict.fromkeys(("out_dir", "stages", "interactions", *_RAW_KEYS, "accolades", "players"),
                    "a string"),
    **dict.fromkeys(("seed", "rushers", "blockers", "games", "plays_per_game",
                     "interactions_per_play", "weeks", "grid_size", "folds", "max_iter",
                     "b_end_to_end", "b_weekly", "min_n_external", "min_n_leaderboard", "top"),
                    "an integer"),
    **dict.fromkeys(("sigma_r", "sigma_b", "alpha", "delta", "p_double", "lambda_win",
                     "lambda_sev", "m_win", "m_sev", "ratio", "grid_min", "grid_max", "tol"),
                    "a number"),
    **dict.fromkeys(("coupled", "replicates", "identity_resample"), "a boolean"),
    "m_grid": "a comma-separated string or a list of numbers",
}


class _PipelineRun:
    """A checked pipeline config and the values its stages share.

    The constructor raises every config error, before any stage runs.
    Each stage method maps config keys onto its ``_run_*`` call.  The
    full-data penalties and fits, and the ordered holdout (split, CV and
    fits) that the validate and sensitivity stages share, are computed
    once, on first use.
    """

    def __init__(self, cfg: dict):
        unknown = sorted(set(cfg) - set(_PIPELINE_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        for key, value in cfg.items():
            kind = _PIPELINE_KEYS[key]
            if value is not None and not _JSON_TYPES[kind](value):
                raise ValueError(
                    f"config key {key!r} must be {kind}, got {type(value).__name__} {value!r}"
                )
        if "seed" not in cfg:
            raise ValueError("config must set an explicit 'seed'")
        stages = cfg.get("stages")
        stages = ("validate" if stages is None else stages).split(",")
        self.stages = [s.strip() for s in stages if s.strip()]
        bad = [s for s in self.stages if s not in _STAGES]
        if bad:
            raise ValueError(f"unknown stages: {bad} (choose from {tuple(_STAGES)})")
        self.cv = _cv_options(cfg)
        self.m_grid = _prior_grid(**_pick(cfg, "m_grid"))

        self.given_table = cfg.get("interactions") is not None
        sources = [s for s in ("ingest", "synth") if s in self.stages]
        if self.given_table and sources:
            raise ValueError(
                f"config key 'interactions' conflicts with the {sources[0]!r} stage: "
                "give an input table or a stage that builds one, not both"
            )
        if len(sources) > 1:
            raise ValueError(
                "stages 'ingest' and 'synth' both build the interaction table; list one"
            )
        if not self.given_table and not sources:
            raise DataError(
                "config needs an 'interactions' path, or an 'ingest' or 'synth' stage"
            )
        for name, (requires, _) in _STAGES.items():
            for key, what in requires.items():
                if name in self.stages and cfg.get(key) is None:
                    raise DataError(f"{name} stage requires {what}")

        self.cfg = cfg
        self.wanted = {"win": cfg.get("lambda_win"), "severity": cfg.get("lambda_sev")}
        self.dir: Path | None = None
        self.table: InteractionTable | None = None
        self.lambdas: dict | None = None
        self.fits: dict | None = None
        self.validation: evaluate.ValidationReport | None = None
        self.summary: boot.BootstrapSummary | None = None

    def full_lambdas(self) -> dict:
        # the bootstrap penalty is fixed from full-data CV, unlike
        # validation's train-only selection
        if self.lambdas is None:
            self.lambdas, _ = _select_lambdas(self.table, self.wanted, **self.cv)
        return self.lambdas

    @functools.cached_property
    def holdout(self) -> evaluate.ValidationReport:
        # written by the validate stage only: the bootstrap adds its
        # intervals to ``self.validation``, never to a sweep's holdout
        return _holdout(self.table, self.cfg)

    def full_fits(self) -> dict:
        if self.fits is None:
            self.fits = _fit_models(self.table, self.full_lambdas(), **_solver_options(self.cv))
        return self.fits

    def ingest(self) -> None:
        self.table = _run_ingest(self.dir / "interactions.csv", **_pick(self.cfg, *_RAW_KEYS))

    def synth(self) -> None:
        self.table = _run_synth(
            self.dir / "interactions.csv", self.dir / "truth.json",
            **_pick(self.cfg, *_SYNTH_FIELDS),
        )

    def fit(self) -> None:
        self.lambdas, self.fits = _run_fit(
            self.table, self.wanted, self.dir / "fits.json", **self.cv
        )

    def validate(self) -> None:
        self.validation = self.holdout
        _run_validate(self.validation, self.dir)

    def sensitivity(self) -> None:
        _run_sensitivity(self.table, self.holdout, self.dir, self.m_grid)

    def bootstrap(self) -> None:
        lambdas = self.full_lambdas()
        self.summary = _run_bootstrap(
            self.table, self.dir,
            lambda_win=lambdas["win"], lambda_sev=lambdas["severity"],
            **_pick(self.cfg, "replicates", "seed", "ratio", "m_win", "m_sev",
                    "identity_resample", "tol", "max_iter", b="b_end_to_end"),
        )
        if self.validation is not None:
            # the holdout rows gain the bootstrap's improvement intervals
            ci = {key: (s.lo, s.hi) for key, s in self.summary.improvements.items()}
            _run_validate(self.validation, self.dir, ci)

    def path(self) -> None:
        lambdas = self.full_lambdas()
        _run_path(
            self.table, self.dir,
            lambda_win=lambdas["win"], lambda_sev=lambdas["severity"],
            **_pick(self.cfg, "seed", "players", "identity_resample", "tol", "max_iter",
                    b="b_weekly"),
        )

    def external(self) -> None:
        accolades = read_accolades_csv(self.cfg["accolades"])
        fits = self.full_fits()
        _run_external(
            self.table, fits["win"], fits["severity"], accolades, self.dir,
            **_pick(self.cfg, min_n="min_n_external"),
        )

    def leaderboard(self) -> None:
        bands = report.bands_from_summary(self.summary) if self.summary is not None else None
        _run_leaderboard(
            self.table, self.full_fits().values(), self.dir / "leaderboard.csv", bands,
            **_pick(self.cfg, "top", min_n="min_n_leaderboard"),
        )


# Stages in run order: name -> (required config keys, each mapped to how
# an error names it when missing; the stage's pipeline call).
_STAGES = {
    "ingest": ({key: f"config key {key!r}" for key in _RAW_KEYS}, _PipelineRun.ingest),
    "synth": ({}, _PipelineRun.synth),
    "fit": ({}, _PipelineRun.fit),
    "validate": ({}, _PipelineRun.validate),
    "sensitivity": ({}, _PipelineRun.sensitivity),
    "bootstrap": ({}, _PipelineRun.bootstrap),
    "path": ({}, _PipelineRun.path),
    "external": ({"accolades": "an 'accolades' CSV path in config"}, _PipelineRun.external),
    "leaderboard": ({}, _PipelineRun.leaderboard),
}


def _cmd_pipeline(args) -> int:
    cfg = _read_json(args.config)
    run = _PipelineRun(cfg)

    base = Path(cfg.get("out_dir", "runs"))
    stamp = time.strftime("%Y%m%d_%H%M%S")
    run.dir = base / f"run_{stamp}"
    n = 2
    while run.dir.exists():
        run.dir = base / f"run_{stamp}-{n}"
        n += 1
    run.dir.mkdir(parents=True)
    _write_json(cfg, run.dir / "config_resolved.json")
    print(f"run directory: {run.dir}")

    stage = "resolve-input"
    try:
        if run.given_table:
            run.table = read_interactions_csv(cfg["interactions"])
            _write_table(run.table, run.dir / "interactions.csv")
        for name, (_, call) in _STAGES.items():
            if name in run.stages:
                stage = name
                call(run)
    except Exception as exc:
        _write_json(
            {"stage": stage, "error": type(exc).__name__, "message": str(exc)},
            run.dir / "error.json",
        )
        raise
    print(f"completed stages: {', '.join(run.stages)}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="trenchrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("ingest", help="build the interaction table from tracking CSVs")
    p.add_argument("--tracking", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--engagements", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int, help="win-rule horizon in frames")
    p.add_argument("--tolerance", type=float, help="win-rule distance margin")
    p.add_argument("--min-overlap", type=int, help="double-team overlap frames")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic interactions with known truth")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="also write ground-truth JSON here")
    for key, name in _SYNTH_FIELDS.items():
        flag, default = "--" + key.replace("_", "-"), getattr(SynthConfig, name)
        if isinstance(default, bool):
            p.add_argument(flag, action="store_true",
                           help="derive win_target from the drawn outcome class")
        else:
            p.add_argument(flag, type=type(default), default=default)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit models at a fixed or CV-selected penalty")
    p.add_argument("--interactions", required=True)
    p.add_argument("--model", choices=("win", "severity", "both"), default="both")
    p.add_argument("--lam", type=float, default=None,
                   help="fixed penalty (> 0); omit to select by cross-validation")
    _add_grid_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("validate", help="ordered 80/20 holdout validation")
    p.add_argument("--interactions", required=True)
    _add_penalty_flags(p, required=False)
    p.add_argument("--m-win", type=float)
    p.add_argument("--m-sev", type=float)
    p.add_argument("--ratio", type=float)
    _add_grid_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sensitivity", help="matchup-baseline prior-strength sweep")
    p.add_argument("--interactions", required=True)
    p.add_argument("--m-grid")
    _add_penalty_flags(p, required=False)
    p.add_argument("--ratio", type=float)
    _add_grid_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("bootstrap", help="end-to-end game bootstrap at fixed penalties")
    p.add_argument("--interactions", required=True)
    p.add_argument("--b", type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_penalty_flags(p, required=True)
    p.add_argument("--ratio", type=float)
    p.add_argument("--m-win", type=float)
    p.add_argument("--m-sev", type=float)
    p.add_argument("--models", choices=("both", "win", "severity"))
    p.add_argument("--no-improvements", dest="improvements", action="store_false",
                   help="skip the per-replicate holdout refits; they run only when "
                        "--models is both (the default)")
    p.add_argument("--no-ratings", action="store_true", help="skip rating tracking")
    p.add_argument("--players", default=None, help="comma-separated players to track")
    p.add_argument("--identity-resample", action="store_true",
                   help="use the original game multiset in every replicate")
    p.add_argument("--replicates", action="store_true",
                   help="also stream replicate-level values to CSV")
    _add_solver_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("path", help="weekly cumulative-checkpoint bootstrap bands")
    p.add_argument("--interactions", required=True)
    p.add_argument("--b", type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_penalty_flags(p, required=True)
    p.add_argument("--models", choices=("both", "win", "severity"))
    p.add_argument("--players", default=None, help="comma-separated players to track")
    p.add_argument("--identity-resample", action="store_true")
    _add_solver_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("external", help="rank validation against accolade labels")
    p.add_argument("--interactions", required=True)
    p.add_argument("--fit", required=True, help="fit JSON with both models")
    p.add_argument("--accolades", required=True)
    p.add_argument("--min-n", type=int, help="minimum interactions for slice membership")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_external)

    p = sub.add_parser("leaderboard", help="top players by fitted rating")
    p.add_argument("--interactions", required=True)
    p.add_argument("--fit", required=True, help="fit JSON from the fit subcommand")
    p.add_argument("--min-n", type=int)
    p.add_argument("--top", type=int)
    p.add_argument("--bands", default=None, help="bootstrap.json with rating bands")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_leaderboard)

    p = sub.add_parser("pipeline", help="run configured stages into a run directory")
    p.add_argument("--config", required=True, help="flat JSON config with an explicit seed")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

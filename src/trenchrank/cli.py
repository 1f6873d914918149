"""Command-line surface for the rating pipeline.

Subcommands: ingest, synth, fit, validate, sensitivity, bootstrap,
path, external, leaderboard, pipeline.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bootstrap as boot
from . import evaluate, report
from .baselines import DEFAULT_SEVERITY_PRIOR, DEFAULT_WIN_PRIOR
from .errors import DataError, FitError
from .external import read_accolades_csv, run_external_eval
from .fit import (
    BinaryFit,
    DEFAULT_LAMBDA_GRID,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    MultinomialFit,
    cv_select_lambda,
    fit_from_json_dict,
    fit_severity_model,
    fit_to_json_dict,
    fit_win_model,
)
from .interactions import (
    INTERACTION_CSV_HEADER,
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


def _lambda_grid(lo: float | None, hi: float | None, size: int | None) -> list[float]:
    """The CV grid from ``--grid-*`` flags or ``grid_*`` config keys.

    With none given it is ``DEFAULT_LAMBDA_GRID``; a missing bound or
    size takes that grid's value.
    """
    if lo is None and hi is None and size is None:
        return list(DEFAULT_LAMBDA_GRID)
    lo = 1e-6 if lo is None else lo
    hi = 1e2 if hi is None else hi
    size = 25 if size is None else size
    if lo <= 0 or hi <= 0 or hi < lo or size < 1:
        raise ValueError(f"bad lambda grid: min={lo} max={hi} size={size}")
    return list(np.logspace(math.log10(lo), math.log10(hi), size))


def _add_grid_flags(p) -> None:
    p.add_argument("--grid-min", type=float, default=None, help="smallest lambda in the CV grid")
    p.add_argument("--grid-max", type=float, default=None, help="largest lambda in the CV grid")
    p.add_argument("--grid-size", type=int, default=None, help="number of CV grid points")
    p.add_argument("--folds", type=int, default=5, help="CV fold count (grouped by game)")


def _add_solver_flags(p) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="gradient sup-norm tolerance")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, help="solver iteration cap")


def _fits_payload(table, lam_win, lam_sev, models, args, cv_traces=None) -> dict:
    payload: dict = {}
    if cv_traces:
        payload["cv"] = cv_traces
    if "win" in models:
        fit = fit_win_model(table, lam_win, tol=args.tol, max_iter=args.max_iter)
        payload["win"] = fit_to_json_dict(fit)
    if "severity" in models:
        fit = fit_severity_model(table, lam_sev, tol=args.tol, max_iter=args.max_iter)
        payload["severity"] = fit_to_json_dict(fit)
    return payload


def _load_fits(path) -> tuple[BinaryFit | None, MultinomialFit | None]:
    raw = _read_json(path)
    win = fit_from_json_dict(raw["win"]) if "win" in raw else None
    sev = fit_from_json_dict(raw["severity"]) if "severity" in raw else None
    if win is None and sev is None:
        raise DataError(f"{path}: no 'win' or 'severity' fit found")
    return win, sev


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_ingest(args) -> int:
    frames = read_tracking_csv(args.tracking)
    events = read_events_csv(args.events)
    engagements = read_engagements_csv(args.engagements)
    schedule = read_schedule_csv(args.schedule)
    table = build_interactions(
        frames,
        events,
        engagements,
        schedule,
        horizon=args.horizon,
        tolerance=args.tolerance,
        min_overlap=args.min_overlap,
    )
    write_interactions_csv(table, args.out)
    report.validate_csv_header(args.out, INTERACTION_CSV_HEADER)
    s = summarize(table)
    print(
        f"wrote {args.out}: {s.interactions} interactions, {s.plays} plays, "
        f"{s.games} games, {s.rushers} rushers, {s.blockers} blockers"
    )
    return 0


def _synth_config_from_args(args) -> SynthConfig:
    return SynthConfig(
        n_rushers=args.rushers,
        n_blockers=args.blockers,
        n_games=args.games,
        plays_per_game=args.plays_per_game,
        interactions_per_play=args.interactions_per_play,
        n_weeks=args.weeks,
        sigma_r=args.sigma_r,
        sigma_b=args.sigma_b,
        alpha=args.alpha,
        delta=args.delta,
        p_double=args.p_double,
        coupled=args.coupled,
        seed=args.seed,
    )


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


def _cmd_synth(args) -> int:
    table, truth = synth_generate(_synth_config_from_args(args))
    write_interactions_csv(table, args.out)
    report.validate_csv_header(args.out, INTERACTION_CSV_HEADER)
    if args.truth:
        _write_json(_truth_json_dict(truth), args.truth)
    print(f"wrote {args.out}: {len(table)} interactions (seed {args.seed})")
    return 0


def _cmd_fit(args) -> int:
    table = read_interactions_csv(args.interactions)
    models = ("win", "severity") if args.model == "both" else (args.model,)
    cv_traces: dict = {}
    lam_win = lam_sev = args.lam
    if args.lam is None:
        grid = _lambda_grid(args.grid_min, args.grid_max, args.grid_size)
        for m in models:
            cv = cv_select_lambda(
                table, m, grid, args.folds, tol=args.tol, max_iter=args.max_iter
            )
            cv_traces[m] = {
                "lambdas": list(cv.lambdas),
                "mean_losses": list(cv.mean_losses),
                "lambda_min": cv.lambda_min,
            }
            if m == "win":
                lam_win = cv.lambda_min
            else:
                lam_sev = cv.lambda_min
    payload = _fits_payload(table, lam_win, lam_sev, models, args, cv_traces)
    _write_json(payload, args.out)
    for m in models:
        print(f"{m}: lambda={payload[m]['lambda']:g} nll={payload[m]['neg_loglik']:.4f}")
    return 0


def _cmd_validate(args) -> int:
    table = read_interactions_csv(args.interactions)
    rep = evaluate.run_validation(
        table,
        lambda_win=args.lambda_win,
        lambda_sev=args.lambda_sev,
        m_win=args.m_win,
        m_sev=args.m_sev,
        ratio=args.ratio,
        grid=_lambda_grid(args.grid_min, args.grid_max, args.grid_size),
        n_folds=args.folds,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_validation_csv(rep.rows, out_dir / "validation.csv")
    report.validate_csv_header(out_dir / "validation.csv", report.VALIDATION_CSV_HEADER)
    _write_json(report.validation_to_json_dict(rep), out_dir / "validation.json")
    print(f"lambda_win={rep.lambda_win:g} lambda_sev={rep.lambda_sev:g} "
          f"(train {rep.n_train} / test {rep.n_test})")
    for row in rep.rows:
        print(
            f"{row.task}/{row.baseline}: model={row.model_logloss:.4f} "
            f"baseline={row.baseline_logloss:.4f} improvement={row.improvement:+.4f}"
        )
    return 0


def _cmd_sensitivity(args) -> int:
    table = read_interactions_csv(args.interactions)
    m_grid = [float(v) for v in args.m_grid.split(",") if v]
    rows = evaluate.prior_sensitivity(
        table,
        m_grid,
        lambda_win=args.lambda_win,
        lambda_sev=args.lambda_sev,
        ratio=args.ratio,
        grid=_lambda_grid(args.grid_min, args.grid_max, args.grid_size),
        n_folds=args.folds,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_sensitivity_csv(rows, out_dir / "sensitivity.csv")
    report.validate_csv_header(out_dir / "sensitivity.csv", report.SENSITIVITY_CSV_HEADER)
    _write_json(report.sensitivity_to_json_dict(rows), out_dir / "sensitivity.json")
    for row in rows:
        print(f"{row.task} m={row.m:g}: improvement={row.improvement:+.4f}")
    return 0


def _bootstrap_config(args, mode: str) -> boot.BootstrapConfig:
    models = ("win", "severity") if args.models == "both" else (args.models,)
    players = tuple(args.players.split(",")) if args.players else None
    return boot.BootstrapConfig(
        b=args.b,
        seed=args.seed,
        lambda_win=args.lambda_win,
        lambda_sev=args.lambda_sev,
        mode=mode,
        ratio=getattr(args, "ratio", evaluate.DEFAULT_SPLIT_RATIO),
        m_win=getattr(args, "m_win", DEFAULT_WIN_PRIOR),
        m_sev=getattr(args, "m_sev", DEFAULT_SEVERITY_PRIOR),
        models=models,
        # holdout improvements compare both models, so a single model skips them
        track_improvements=getattr(args, "improvements", False) and models == boot.MODEL_NAMES,
        track_ratings=not getattr(args, "no_ratings", False),
        track_players=players,
        identity_resample=args.identity_resample,
        tol=args.tol,
        max_iter=args.max_iter,
    )


def _cmd_bootstrap(args) -> int:
    table = read_interactions_csv(args.interactions)
    config = _bootstrap_config(args, "end_to_end")
    summary = boot.end_to_end_bootstrap(table, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(report.summary_to_json_dict(summary), out_dir / "bootstrap.json")
    if args.replicates:
        report.write_replicates_csv(summary, out_dir / "replicates.csv")
        report.validate_csv_header(out_dir / "replicates.csv", report.REPLICATES_CSV_HEADER)
    print(f"B={summary.b} replicates, {summary.n_failed} failed")
    for key, series in sorted(summary.improvements.items()):
        print(f"improvement {key[0]}/{key[1]}: mean={series.mean:+.4f} "
              f"95%=[{series.lo:+.4f}, {series.hi:+.4f}]")
    return 0


def _cmd_path(args) -> int:
    table = read_interactions_csv(args.interactions)
    config = _bootstrap_config(args, "weekly_path")
    summary = boot.weekly_path_bootstrap(table, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_weekly_csv(summary, out_dir / "weekly.csv")
    report.validate_csv_header(out_dir / "weekly.csv", report.WEEKLY_CSV_HEADER)
    _write_json(report.summary_to_json_dict(summary), out_dir / "path.json")
    print(f"checkpoints: {list(summary.checkpoints)} ({summary.n_failed} failed fits)")
    return 0


def _cmd_external(args) -> int:
    table = read_interactions_csv(args.interactions)
    win_fit, sev_fit = _load_fits(args.fit)
    if win_fit is None or sev_fit is None:
        raise DataError(f"{args.fit}: external evaluation needs both model fits")
    accolades = read_accolades_csv(args.accolades)
    rows = run_external_eval(win_fit, sev_fit, table, accolades, min_n=args.min_n)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for accolade in ("first", "first_second"):
        sliced = [r for r in rows if r.accolade == accolade]
        path = out_dir / f"external_{accolade}.csv"
        report.write_rank_eval_csv(sliced, path)
        report.validate_csv_header(path, report.RANK_EVAL_CSV_HEADER)
    _write_json(report.rank_eval_to_json_dict(rows), out_dir / "external.json")
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
    win_fit, sev_fit = _load_fits(args.fit)
    bands = _bands_from_summary_json(args.bands) if args.bands else None
    rows = []
    for fit in (win_fit, sev_fit):
        if fit is not None:
            rows.extend(report.leaderboard(fit, table, args.min_n, args.top, bands))
    report.write_leaderboard_csv(rows, args.out)
    report.validate_csv_header(args.out, report.LEADERBOARD_CSV_HEADER)
    for row in rows:
        band = f" [{row.lo:.3f}, {row.hi:.3f}]" if row.lo is not None else ""
        print(f"{row.model}/{row.role} {row.player_id}: {row.rating:+.3f} (n={row.n}){band}")
    return 0


# ---------------------------------------------------------------------------
# Pipeline


_PIPELINE_KEYS = {
    "seed", "out_dir", "stages", "interactions",
    "tracking", "events", "engagements", "schedule",
    "rushers", "blockers", "games", "plays_per_game", "interactions_per_play",
    "weeks", "sigma_r", "sigma_b", "alpha", "delta", "p_double", "coupled",
    "lambda_win", "lambda_sev", "m_win", "m_sev", "m_grid", "ratio",
    "grid_min", "grid_max", "grid_size", "folds", "tol", "max_iter",
    "b_end_to_end", "b_weekly", "replicates", "identity_resample",
    "accolades", "min_n_external", "min_n_leaderboard", "top", "players",
}
_PIPELINE_STAGES = (
    "ingest", "synth", "fit", "validate", "sensitivity",
    "bootstrap", "path", "external", "leaderboard",
)


def _config_str(cfg: dict, key: str, default: str | None = None) -> str | None:
    """A comma-separated string setting (``default`` if absent or null).

    Any other JSON type, such as a list, is a usage error naming the key.
    """
    value = cfg.get(key)
    if value is None:
        return default
    if not isinstance(value, str):
        raise ValueError(
            f"config key {key!r} must be a comma-separated string, "
            f"got {type(value).__name__} {value!r}"
        )
    return value


def _resolve_table(cfg: dict, stages: list[str], run_dir: Path):
    truth = None
    if "interactions" in cfg:
        table = read_interactions_csv(cfg["interactions"])
    elif "ingest" in stages:
        for key in ("tracking", "events", "engagements", "schedule"):
            if key not in cfg:
                raise DataError(f"ingest stage requires config key {key!r}")
        table = build_interactions(
            read_tracking_csv(cfg["tracking"]),
            read_events_csv(cfg["events"]),
            read_engagements_csv(cfg["engagements"]),
            read_schedule_csv(cfg["schedule"]),
        )
    elif "synth" in stages:
        synth_cfg = SynthConfig(
            n_rushers=cfg.get("rushers", 60),
            n_blockers=cfg.get("blockers", 40),
            n_games=cfg.get("games", 30),
            plays_per_game=cfg.get("plays_per_game", 20),
            interactions_per_play=cfg.get("interactions_per_play", 5),
            n_weeks=cfg.get("weeks", 18),
            sigma_r=cfg.get("sigma_r", 0.5),
            sigma_b=cfg.get("sigma_b", 0.5),
            alpha=cfg.get("alpha", math.log(0.27 / 0.73)),
            delta=cfg.get("delta", -0.5),
            p_double=cfg.get("p_double", 0.427),
            coupled=cfg.get("coupled", False),
            seed=cfg["seed"],
        )
        table, truth = synth_generate(synth_cfg)
        _write_json(_truth_json_dict(truth), run_dir / "truth.json")
    else:
        raise DataError(
            "config needs an 'interactions' path, or an 'ingest' or 'synth' stage"
        )
    write_interactions_csv(table, run_dir / "interactions.csv")
    report.validate_csv_header(run_dir / "interactions.csv", INTERACTION_CSV_HEADER)
    return table, truth


def _cmd_pipeline(args) -> int:
    cfg = _read_json(args.config)
    unknown = sorted(set(cfg) - _PIPELINE_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    if "seed" not in cfg:
        raise ValueError("config must set an explicit 'seed'")
    stages = [s.strip() for s in _config_str(cfg, "stages", "validate").split(",") if s.strip()]
    bad = [s for s in stages if s not in _PIPELINE_STAGES]
    if bad:
        raise ValueError(f"unknown stages: {bad} (choose from {_PIPELINE_STAGES})")

    base = Path(cfg.get("out_dir", "runs"))
    stamp = time.strftime("%Y%m%d_%H%M%S")
    run_dir = base / f"run_{stamp}"
    n = 2
    while run_dir.exists():
        run_dir = base / f"run_{stamp}-{n}"
        n += 1
    run_dir.mkdir(parents=True)
    _write_json(cfg, run_dir / "config_resolved.json")
    print(f"run directory: {run_dir}")

    tol = cfg.get("tol", DEFAULT_TOL)
    max_iter = cfg.get("max_iter", DEFAULT_MAX_ITER)
    grid = _lambda_grid(cfg.get("grid_min"), cfg.get("grid_max"), cfg.get("grid_size"))
    folds = cfg.get("folds", 5)

    stage = "resolve-input"
    try:
        table, _truth = _resolve_table(cfg, stages, run_dir)

        lam_win = cfg.get("lambda_win")
        lam_sev = cfg.get("lambda_sev")

        def full_data_lambdas():
            # the bootstrap penalty is fixed from full-data CV, unlike
            # validation's train-only selection
            nonlocal lam_win, lam_sev
            if lam_win is None:
                lam_win = cv_select_lambda(
                    table, "win", grid, folds, tol=tol, max_iter=max_iter
                ).lambda_min
            if lam_sev is None:
                lam_sev = cv_select_lambda(
                    table, "severity", grid, folds, tol=tol, max_iter=max_iter
                ).lambda_min
            return lam_win, lam_sev

        fits: dict[str, BinaryFit | MultinomialFit] = {}

        def full_fits():
            if not fits:
                lw, ls = full_data_lambdas()
                fits["win"] = fit_win_model(table, lw, tol=tol, max_iter=max_iter)
                fits["severity"] = fit_severity_model(table, ls, tol=tol, max_iter=max_iter)
            return fits["win"], fits["severity"]

        validation_report = None
        summary = None

        if "fit" in stages:
            stage = "fit"
            wf, sf = full_fits()
            _write_json(
                {"win": fit_to_json_dict(wf), "severity": fit_to_json_dict(sf)},
                run_dir / "fits.json",
            )

        if "validate" in stages:
            stage = "validate"
            validation_report = evaluate.run_validation(
                table,
                lambda_win=cfg.get("lambda_win"),
                lambda_sev=cfg.get("lambda_sev"),
                m_win=cfg.get("m_win", DEFAULT_WIN_PRIOR),
                m_sev=cfg.get("m_sev", DEFAULT_SEVERITY_PRIOR),
                ratio=cfg.get("ratio", evaluate.DEFAULT_SPLIT_RATIO),
                grid=grid,
                n_folds=folds,
                tol=tol,
                max_iter=max_iter,
            )
            report.write_validation_csv(validation_report.rows, run_dir / "validation.csv")
            report.validate_csv_header(run_dir / "validation.csv", report.VALIDATION_CSV_HEADER)
            _write_json(
                report.validation_to_json_dict(validation_report),
                run_dir / "validation.json",
            )

        if "sensitivity" in stages:
            stage = "sensitivity"
            m_grid = cfg.get("m_grid", list(evaluate.SENSITIVITY_PRIOR_GRID))
            if isinstance(m_grid, str):
                m_grid = [float(v) for v in m_grid.split(",") if v]
            rows = evaluate.prior_sensitivity(
                table,
                m_grid,
                lambda_win=cfg.get("lambda_win"),
                lambda_sev=cfg.get("lambda_sev"),
                ratio=cfg.get("ratio", evaluate.DEFAULT_SPLIT_RATIO),
                grid=grid,
                n_folds=folds,
                tol=tol,
                max_iter=max_iter,
            )
            report.write_sensitivity_csv(rows, run_dir / "sensitivity.csv")
            report.validate_csv_header(run_dir / "sensitivity.csv", report.SENSITIVITY_CSV_HEADER)
            _write_json(report.sensitivity_to_json_dict(rows), run_dir / "sensitivity.json")

        if "bootstrap" in stages:
            stage = "bootstrap"
            lw, ls = full_data_lambdas()
            config = boot.BootstrapConfig(
                b=cfg.get("b_end_to_end", 1000),
                seed=cfg["seed"],
                lambda_win=lw,
                lambda_sev=ls,
                mode="end_to_end",
                ratio=cfg.get("ratio", evaluate.DEFAULT_SPLIT_RATIO),
                m_win=cfg.get("m_win", DEFAULT_WIN_PRIOR),
                m_sev=cfg.get("m_sev", DEFAULT_SEVERITY_PRIOR),
                identity_resample=cfg.get("identity_resample", False),
                tol=tol,
                max_iter=max_iter,
            )
            summary = boot.end_to_end_bootstrap(table, config)
            _write_json(report.summary_to_json_dict(summary), run_dir / "bootstrap.json")
            if cfg.get("replicates", False):
                report.write_replicates_csv(summary, run_dir / "replicates.csv")
                report.validate_csv_header(run_dir / "replicates.csv", report.REPLICATES_CSV_HEADER)
            if validation_report is not None:
                ci = {key: (s.lo, s.hi) for key, s in summary.improvements.items()}
                report.write_validation_csv(
                    validation_report.rows, run_dir / "validation.csv", ci
                )
                _write_json(
                    report.validation_to_json_dict(validation_report, ci),
                    run_dir / "validation.json",
                )

        if "path" in stages:
            stage = "path"
            lw, ls = full_data_lambdas()
            players = _config_str(cfg, "players")
            config = boot.BootstrapConfig(
                b=cfg.get("b_weekly", 100),
                seed=cfg["seed"],
                lambda_win=lw,
                lambda_sev=ls,
                mode="weekly_path",
                track_improvements=False,
                track_players=tuple(players.split(",")) if players else None,
                identity_resample=cfg.get("identity_resample", False),
                tol=tol,
                max_iter=max_iter,
            )
            weekly = boot.weekly_path_bootstrap(table, config)
            report.write_weekly_csv(weekly, run_dir / "weekly.csv")
            report.validate_csv_header(run_dir / "weekly.csv", report.WEEKLY_CSV_HEADER)
            _write_json(report.summary_to_json_dict(weekly), run_dir / "path.json")

        if "external" in stages:
            stage = "external"
            if "accolades" not in cfg:
                raise DataError("external stage requires an 'accolades' CSV path in config")
            accolades = read_accolades_csv(cfg["accolades"])
            wf, sf = full_fits()
            rows = run_external_eval(
                wf, sf, table, accolades, min_n=cfg.get("min_n_external", 0)
            )
            for accolade in ("first", "first_second"):
                sliced = [r for r in rows if r.accolade == accolade]
                path = run_dir / f"external_{accolade}.csv"
                report.write_rank_eval_csv(sliced, path)
                report.validate_csv_header(path, report.RANK_EVAL_CSV_HEADER)
            _write_json(report.rank_eval_to_json_dict(rows), run_dir / "external.json")

        if "leaderboard" in stages:
            stage = "leaderboard"
            wf, sf = full_fits()
            bands = report.bands_from_summary(summary) if summary is not None else None
            rows = []
            for fit in (wf, sf):
                rows.extend(
                    report.leaderboard(
                        fit,
                        table,
                        cfg.get("min_n_leaderboard", report.DEFAULT_MIN_INTERACTIONS),
                        cfg.get("top", report.DEFAULT_TOP),
                        bands,
                    )
                )
            report.write_leaderboard_csv(rows, run_dir / "leaderboard.csv")
            report.validate_csv_header(run_dir / "leaderboard.csv", report.LEADERBOARD_CSV_HEADER)
    except Exception as exc:
        _write_json(
            {"stage": stage, "error": type(exc).__name__, "message": str(exc)},
            run_dir / "error.json",
        )
        raise
    print(f"completed stages: {', '.join(stages)}")
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
    p.add_argument("--horizon", type=int, default=25, help="win-rule horizon in frames")
    p.add_argument("--tolerance", type=float, default=0.0, help="win-rule distance margin")
    p.add_argument("--min-overlap", type=int, default=1, help="double-team overlap frames")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic interactions with known truth")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="also write ground-truth JSON here")
    p.add_argument("--rushers", type=int, default=60)
    p.add_argument("--blockers", type=int, default=40)
    p.add_argument("--games", type=int, default=30)
    p.add_argument("--plays-per-game", type=int, default=20)
    p.add_argument("--interactions-per-play", type=int, default=5)
    p.add_argument("--weeks", type=int, default=18)
    p.add_argument("--sigma-r", type=float, default=0.5)
    p.add_argument("--sigma-b", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=math.log(0.27 / 0.73))
    p.add_argument("--delta", type=float, default=-0.5)
    p.add_argument("--p-double", type=float, default=0.427)
    p.add_argument("--coupled", action="store_true",
                   help="derive win_target from the drawn outcome class")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit models at a fixed or CV-selected penalty")
    p.add_argument("--interactions", required=True)
    p.add_argument("--model", choices=("win", "severity", "both"), default="both")
    p.add_argument("--lam", type=float, default=None,
                   help="fixed penalty; omit to select by cross-validation")
    _add_grid_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("validate", help="ordered 80/20 holdout validation")
    p.add_argument("--interactions", required=True)
    p.add_argument("--lambda-win", type=float, default=None)
    p.add_argument("--lambda-sev", type=float, default=None)
    p.add_argument("--m-win", type=float, default=DEFAULT_WIN_PRIOR)
    p.add_argument("--m-sev", type=float, default=DEFAULT_SEVERITY_PRIOR)
    p.add_argument("--ratio", type=float, default=evaluate.DEFAULT_SPLIT_RATIO)
    _add_grid_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sensitivity", help="matchup-baseline prior-strength sweep")
    p.add_argument("--interactions", required=True)
    p.add_argument("--m-grid", default="10,25,50,100")
    p.add_argument("--lambda-win", type=float, default=None)
    p.add_argument("--lambda-sev", type=float, default=None)
    p.add_argument("--ratio", type=float, default=evaluate.DEFAULT_SPLIT_RATIO)
    _add_grid_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("bootstrap", help="end-to-end game bootstrap at fixed penalties")
    p.add_argument("--interactions", required=True)
    p.add_argument("--b", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda-win", type=float, required=True)
    p.add_argument("--lambda-sev", type=float, required=True)
    p.add_argument("--ratio", type=float, default=evaluate.DEFAULT_SPLIT_RATIO)
    p.add_argument("--m-win", type=float, default=DEFAULT_WIN_PRIOR)
    p.add_argument("--m-sev", type=float, default=DEFAULT_SEVERITY_PRIOR)
    p.add_argument("--models", choices=("both", "win", "severity"), default="both")
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
    p.add_argument("--b", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda-win", type=float, required=True)
    p.add_argument("--lambda-sev", type=float, required=True)
    p.add_argument("--models", choices=("both", "win", "severity"), default="both")
    p.add_argument("--players", default=None, help="comma-separated players to track")
    p.add_argument("--identity-resample", action="store_true")
    _add_solver_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_path, improvements=False, no_ratings=False)

    p = sub.add_parser("external", help="rank validation against accolade labels")
    p.add_argument("--interactions", required=True)
    p.add_argument("--fit", required=True, help="fit JSON with both models")
    p.add_argument("--accolades", required=True)
    p.add_argument("--min-n", type=int, default=0,
                   help="minimum interactions for slice membership")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_external)

    p = sub.add_parser("leaderboard", help="top players by fitted rating")
    p.add_argument("--interactions", required=True)
    p.add_argument("--fit", required=True, help="fit JSON from the fit subcommand")
    p.add_argument("--min-n", type=int, default=report.DEFAULT_MIN_INTERACTIONS)
    p.add_argument("--top", type=int, default=report.DEFAULT_TOP)
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
    if not getattr(args, "func", None):
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

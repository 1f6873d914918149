"""Benchmark for trenchrank: three workloads, timed end to end, traced per layer.

One workload run::

    python3 perfbench/run.py --workload season_cv --seed 0 --seconds 10 --trace 0

prints an ``env`` line, one line per metric and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  Without ``--workload`` every
workload runs untraced and traced, and the tracing overhead is printed.

The package is imported from ``src/`` of the checkout that holds this
file; nothing is installed.  Set-up and the measured run each happen in
child processes, so that the run's peak memory excludes input
generation.  Each set-up child imports the package, warms up and writes
the inputs; ``setup_s`` is the median of their wall times.  Scratch inputs go to ``.perfbench_work/`` (removed at the
end of a run) and span dumps of traced runs to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("season_cv", "desk_bootstrap", "raw_ingest")
N_SETUPS = 3
# a run must end within 180 s; children are killed past this budget
RUN_BUDGET_S = 170.0
BLAS_THREADS = str(min(2, os.cpu_count() or 1))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Child processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run this script in child mode; return its JSON result and wall time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before a child could start")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *args],
            env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} exceeded the time budget") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args[:2]} printed no result")
    return json.loads(lines[-1]), wall


def _load_workloads():
    """Import the workload module, which imports the package from src/."""
    sys.path.insert(0, str(HERE))
    import workloads

    package = Path(sys.modules["trenchrank"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise BenchError(f"trenchrank imported from {package}, not from {SRC}")
    return workloads


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child_setup(args) -> dict:
    wl_mod = _load_workloads()
    wl_mod.warm_up(Path(args.dir))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({"synth.synth_generate": None})
        tracer.reset("setup")
    wl_mod.WORKLOADS[args.workload](args.seed, Path(args.dir)).setup()
    synth_s = tracer.summary("setup").get("synth.synth_generate", {}).get("self_s", 0.0) if tracer else 0.0
    return {"synth_s": synth_s}


def child_run(args) -> dict:
    wl_mod = _load_workloads()
    workdir = Path(args.dir)
    wl_mod.warm_up(workdir)

    workload = wl_mod.WORKLOADS[args.workload](args.seed, workdir)
    workload.prepare()
    out = workdir / "out"
    out.mkdir(exist_ok=True)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(wl_mod.SPAN_FUNCS, wl_mod.ROW_FUNCS)

    walls, units, infos, layers, spans = [], [], [], [], []
    attempted = failed = 0
    failures: list[str] = []
    start = time.perf_counter()
    while True:
        run_id = f"{args.workload}:{args.seed}:{len(walls)}"
        if tracer:
            tracer.reset(run_id)
        n_spans = len(tracer.spans) if tracer else 0
        t = time.perf_counter()
        try:
            outputs = workload.iterate(out)
            problems = []
        except Exception as exc:  # the run continues and reports the failure
            traceback.print_exc()
            outputs, problems = None, [f"{type(exc).__name__}: {exc}"]
        walls.append(time.perf_counter() - t)
        if outputs is not None:
            problems = workload.check(outputs)
            units.append(workload.work_units(outputs))
            infos.append(workload.info(outputs))
        ops, bad = workload.operations(outputs, problems)
        attempted += ops
        failed += bad
        failures += problems
        if tracer:
            layers.append(wl_mod.layer_metrics(tracer.summary(run_id), tracer.counts))
            spans.append(len(tracer.spans) - n_spans)
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break

    if tracer:
        tracer.uninstall()
        TRACE_OUT.mkdir(exist_ok=True)
        tracer.dump(TRACE_OUT / f"{args.workload}-seed{args.seed}.jsonl")
        if tracer.absent:
            print(f"traced names absent from the package: {tracer.absent}", file=sys.stderr)
    return {
        "walls": walls,
        "units": units,
        "infos": infos,
        "layers": layers,
        "spans": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "env": _environment(),
    }


# ---------------------------------------------------------------------------
# Parent: one workload run


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "trenchrank" / "__init__.py").is_file():
        raise BenchError(f"package source not found at {SRC / 'trenchrank'}")
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--dir", str(workdir), "--trace", str(int(trace))]
    try:
        setups = [_run_child(["--child", "setup", *common], deadline) for _ in range(N_SETUPS)]
        result, _ = _run_child(["--child", "run", "--seconds", str(seconds), *common], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    wall = statistics.median(result["walls"])
    info = {k: statistics.median(i[k] for i in result["infos"]) for k in (result["infos"] or [{}])[0]}
    info["iterations"] = len(result["walls"])
    info["fail_frac"] = result["failed"] / max(1, result["attempted"])
    if name == "desk_bootstrap" and "replicates" in info:
        info["replicates_per_s"] = info["replicates"] / wall
    if trace:
        # median_low keeps each figure an observed value, so counts stay whole
        metrics = {
            k: statistics.median_low(layer[k] for layer in result["layers"])
            for k in result["layers"][0]
        }
        metrics["synth.generate_s"] = statistics.median(s["synth_s"] for s, _ in setups)
        metrics["trace.wall_s"] = wall
        metrics["trace.spans"] = statistics.median_low(result["spans"])
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(w for _, w in setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "interactions_per_s": statistics.median(result["units"]) / wall if result["units"] else 0.0,
        }
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "info": info,
        "failures": result["failures"],
        "env": result["env"],
    }


def _units(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _emit(name: str, res: dict, units: dict[str, str]) -> None:
    """Print env, failures, info and metric lines, then the JSON result."""
    if set(res["metrics"]) != set(units):
        raise BenchError(
            f"metrics do not match BENCHMARK.json: {sorted(set(res['metrics']) ^ set(units))}"
        )
    print("env " + json.dumps(res["env"], sort_keys=True))
    for failure in res["failures"]:
        print(f"{name} check failed: {failure}")
    for key, value in res["info"].items():
        print(f"{name} {key} = {value:.10g}")
    for key in units:
        print(f"{name} {key} = {res['metrics'][key]:.10g} {units[key]}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
    }))


def run_all(seed: int, seconds: float) -> bool:
    """Every workload untraced, then traced; prints the tracing overhead."""
    spec = _spec()
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (False, True):
            print(f"== {name} ({'traced' if trace else 'untraced'}, seed {seed})", flush=True)
            res = run_workload(name, seed, seconds, trace)
            _emit(name, res, _units(spec, trace))
            ok = ok and res["correct"]
            if trace:
                overhead = res["metrics"]["trace.wall_s"] - untraced_wall
                print(f"{name} trace.overhead_s = {overhead:.6g} s "
                      f"({overhead / untraced_wall:+.1%} of wall_s)", flush=True)
            else:
                untraced_wall = res["metrics"]["wall_s"]
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trenchrank benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload; omit to run all, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), default=None, help=argparse.SUPPRESS)
    parser.add_argument("--dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.child:
            handler = child_setup if args.child == "setup" else child_run
            print(json.dumps(handler(args)))
            return 0
        seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
        if args.workload is None:
            return 0 if run_all(args.seed, seconds) else 1
        res = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        _emit(args.workload, res, _units(_spec(), bool(args.trace)))
        return 0
    except (BenchError, ImportError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

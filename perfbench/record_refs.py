"""Record the output references of season_cv and desk_bootstrap.

Run at the commit whose outputs define correct (the references in
``refs/`` were recorded at the seed commit), one workload at a time::

    python3 perfbench/record_refs.py season_cv

Each of the ``N_WORLDS`` worlds is set up, run once, checked for the
invariants that need no reference, and stored in ``refs/<name>.json.gz``.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(2, os.cpu_count() or 1))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    name = sys.argv[1]
    worlds = {}
    for world in range(workloads.N_WORLDS):
        workdir = ROOT / ".perfbench_work" / f"record-{name}-{world}"
        (workdir / "out").mkdir(parents=True, exist_ok=True)
        try:
            wl = workloads.WORKLOADS[name](world, workdir)
            wl.setup()
            wl.prepare()
            start = time.perf_counter()
            outputs = wl.iterate(workdir / "out")
            elapsed = time.perf_counter() - start
            worlds[str(world)] = wl.reference(outputs)
            wl.ref = worlds[str(world)]
            problems = wl.check(outputs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        extra = {k: v for k, v in outputs.items() if k in ("lambda_win", "lambda_sev", "newton_iters", "n_failed", "improvements")}
        print(f"world {world}: {elapsed:.2f} s {extra} problems={problems}", flush=True)
    workloads.save_refs(name, worlds)

"""Benchmark entry point: one run of one workload, one JSON line of results.

    python3 bench/run.py --workload ladder|sweep_subset --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The run

1. pins the BLAS thread count (min(2, cores)) for itself and its children;
2. with `--trace 0`, times several fresh interpreters that import
   `cutbiot.cli` and validate the workload's `RunConfig` (`setup_s`);
3. repeats whole rounds of the workload's CLI command until `--seconds`
   have passed (one round is longer than that for both workloads);
4. checks every round's CSV output (see checks.py), and with `--trace 1`
   also the residuals and cut-rule areas seen by the layer wrappers;
5. prints `{"correct", "attempted", "failed", "metrics"}` as its last line:
   the end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.

CLI outputs, span files and an environment record go to
bench/runs/<workload>-seed<seed>/.
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
from pathlib import Path

import checks
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "bench" / "runs"
SETUP_REPEATS = 5
SETUP_SNIPPET = ("import json, sys; import cutbiot.cli as cli; "
                 "cli.RunConfig.from_dict(json.loads(sys.argv[1]))")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "err_u_star": "1", "err_pT_star": "1", "err_pF_star": "1",
}
LAYER_UNITS = {
    "solver.solve_s": "s", "solver.factor_nnz": "count", "solver.fill_ratio": "1",
    "solver.residual_max": "1", "solver.estimate_condition_s": "s",
    "solver.kappa_inverse_solves": "count",
    "forms.assemble_system_s": "s", "forms.matrix_nnz": "count",
    "forms.assemble_rhs_s": "s", "forms.with_params_s": "s", "forms.without_ghost_s": "s",
    "verification.error_norms_s": "s",
    "geometry.build_cut_rules_s": "s", "geometry.volume_points": "count",
    "geometry.points_per_cut_cell": "points/cell",
    "mesh.classify_s": "s", "mesh.cut_cells": "count", "mesh.escalated_cells": "count",
    "spaces.build_space_s": "s", "spaces.dofs": "count",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


def blas_threads() -> str:
    return str(min(2, len(os.sched_getaffinity(0))))


def measure_setup(raw: dict, repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and validates `raw`.

    One untimed start first, so that every timed one finds the files cached,
    as a user's repeated CLI invocations do.
    """
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, json.dumps(raw)],
                       cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def environment(blas: str) -> dict:
    """Cores, interpreter, numpy/scipy and BLAS library of this run."""
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{deps.get('name', '?')} {deps.get('version', '?')}",
            "blas_threads": int(blas)}


def import_cli():
    sys.path.insert(0, str(SRC))
    import cutbiot.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "cutbiot":
        raise ImportError(f"cutbiot.cli imported from {cli.__file__}, not from {SRC}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cutbiot" / "cli.py").is_file():
        print(f"bench: no cutbiot sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    blas = blas_threads()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = blas
    os.environ["PYTHONPATH"] = str(SRC)

    raw = workloads.config(args.workload, args.seed)
    out = RUNS / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    traced = bool(args.trace)
    setup_s = None if traced else measure_setup(raw, SETUP_REPEATS)
    cli = import_cli()
    (out / "environment.json").write_text(json.dumps(environment(blas), indent=1) + "\n")
    geometry = cli.RunConfig.from_dict(raw).raw["geometry"]

    rounds, layer_rows = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        k = len(rounds) + 1
        tracer = Tracer() if traced else None
        rnd = workloads.run_round(cli, args.workload, raw, out / f"round{k}", tracer)
        if tracer is not None:
            rnd.problems += checks.check_residual(tracer.residual_max)
            rnd.problems += checks.check_areas(tracer.cut_areas, geometry)
            layer_rows.append(tracer.layer_metrics(rnd.wall_s))
            tracer.dump(out / f"spans-round{k}.json")
        rounds.append(rnd)

    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if traced:
        values = {name: statistics.median(row[name] for row in layer_rows)
                  for name in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        last = rounds[-1].errors
        values = {
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{name: last.get(name, 0.0) for name in checks.STARRED},
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver for the three experiment pipelines.

`cutbiot solve|convergence|sweep --config cfg.json --out dir` runs a single
manufactured solve, the mesh-refinement ladder over the (lambda, K) grid, or
the cut-translation robustness sweep.  Configuration is JSON validated
against a schema, with paper-default values; outputs are deterministic CSV
and JSON files (rows sorted by key, shortest round-trip float formatting),
so repeated runs are byte-identical.  Exit codes: 0 ok, 2 configuration
error, 3 solver failure, 4 geometry-resolution failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from .errors import ConfigurationError, CutBiotError, GeometryError, SolverError
# `with_params` is not called here any more, but bench/tracing.py wraps it by name.
from .forms import (PhysicalParams, QuadGroup, StabilizationParams, assemble_rhs,
                    assemble_system, dump_matrix, mass_matrix, tabulate, tabulation_columns,
                    with_params, without_ghost)  # noqa: F401
from .geometry import build_cut_rules, dump_boundary_points, make_flower_domain
from .mesh import MeshConfig, build_mesh, classify, dump_classification, translate_box
from .solver import estimate_condition, solve, solve_params
from .spaces import build_space, make_layout
from .verification import CASE_NAMES, eoc, error_norms, field_values, make_case

logger = logging.getLogger(__name__)

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "r0": {"type": "number", "exclusiveMinimum": 0},
                "r1": {"type": "number", "exclusiveMinimum": 0},
                "petals": {"type": "integer", "minimum": 1},
            },
        },
        "mesh": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "box_lo": {"type": "array", "items": {"type": "number"},
                           "minItems": 2, "maxItems": 2},
                "box_hi": {"type": "array", "items": {"type": "number"},
                           "minItems": 2, "maxItems": 2},
                "n": {"type": "integer", "minimum": 2},
                "n_probe": {"type": "integer", "minimum": 2},
                "subdiv": {"type": "integer", "minimum": 1, "maximum": 6},
                "order": {"type": "integer", "minimum": 1},
                "delta": {"type": "number", "minimum": 0},
            },
        },
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mu": {"type": "number", "exclusiveMinimum": 0},
                "lam": {"type": "number", "exclusiveMinimum": 0},
                "K": {"type": "number", "minimum": 0},
            },
        },
        "stabilization": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma_u": {"type": "number", "exclusiveMinimum": 0},
                "gamma_p": {"type": "number", "exclusiveMinimum": 0},
                "gamma1": {"type": "number", "minimum": 0},
                "gamma2": {"type": "number", "minimum": 0},
                "ghost_order": {"type": "integer", "minimum": 1},
                "enabled": {"type": "boolean"},
            },
        },
        "spaces": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "k": {"type": "integer", "minimum": 2, "maximum": 3},
                "l": {"type": "integer", "minimum": 1, "maximum": 3},
            },
        },
        "case": {"type": "string", "enum": list(CASE_NAMES)},
        "convergence": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ladder": {"type": "array", "items": {"type": "integer", "minimum": 2}},
                "lambdas": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                            "minItems": 1, "uniqueItems": True},
                "Ks": {"type": "array", "items": {"type": "number", "minimum": 0},
                       "minItems": 1, "uniqueItems": True},
                "subdiv": {"type": "integer", "minimum": 1, "maximum": 6},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 2},
                "count": {"type": "integer", "minimum": 1},
                "stride": {"type": "integer", "minimum": 1},
                "delta_step": {"type": "number", "exclusiveMinimum": 0},
                "deltas": {"type": ["array", "null"],
                           "items": {"type": "number", "minimum": 0}, "minItems": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "write_points": {"type": "boolean"},
                "write_matrix": {"type": "boolean"},
                "write_debug": {"type": "boolean"},
            },
        },
    },
}

DEFAULT_CONFIG = {
    "geometry": {"radius": 0.95, "r0": 0.7, "r1": 0.18, "petals": 5},
    "mesh": {"box_lo": [-1.0, -1.0], "box_hi": [1.0, 1.0], "n": 32,
             "n_probe": 8, "subdiv": 3, "order": 5, "delta": 0.0},
    "params": {"mu": 1.0, "lam": 1.0, "K": 1.0},
    "stabilization": {"gamma_u": 40.0, "gamma_p": 40.0, "gamma1": 0.1,
                      "gamma2": 0.01, "ghost_order": 2, "enabled": True},
    "spaces": {"k": 2, "l": 2},
    "case": "trig",
    "convergence": {"ladder": [16, 32, 64, 128], "lambdas": [1.0, 1e8],
                    "Ks": [1.0, 1e-8], "subdiv": 4},
    "sweep": {"n": 60, "count": 64, "stride": 31, "delta_step": 5e-4, "deltas": None},
    "output": {"write_points": False, "write_matrix": False, "write_debug": False},
}


def _finite(text: str) -> float:  # a JSON number, or NaN, Infinity, -Infinity
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"non-finite number {text} in config")
    return value


def _merge(base: dict, override: dict) -> dict:
    out = {}
    for key, val in base.items():
        if isinstance(val, dict):
            out[key] = _merge(val, override.get(key, {}))
        else:
            out[key] = override.get(key, val)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with paper defaults."""

    raw: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        try:
            jsonschema.validate(data, CONFIG_SCHEMA)
        except jsonschema.ValidationError as exc:
            raise ConfigurationError(f"invalid config: {exc.message}") from exc
        cfg = cls(raw=_merge(DEFAULT_CONFIG, data))
        cfg.domain()  # the flower checks its own radii
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text(), parse_constant=_finite,
                              parse_float=_finite)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    def domain(self):
        g = self.raw["geometry"]
        return make_flower_domain(g["radius"], g["r0"], g["r1"], g["petals"])

    def mesh_config(self, n: int | None = None) -> MeshConfig:
        m = self.raw["mesh"]
        return MeshConfig(tuple(m["box_lo"]), tuple(m["box_hi"]),
                          m["n"] if n is None else int(n))

    def params(self, lam: float | None = None, K: float | None = None) -> PhysicalParams:
        p = self.raw["params"]
        return PhysicalParams(mu=p["mu"],
                              lam=p["lam"] if lam is None else lam,
                              K=p["K"] if K is None else K)

    def stab(self) -> StabilizationParams:
        s = self.raw["stabilization"]
        return StabilizationParams(gamma_u=s["gamma_u"], gamma_p=s["gamma_p"],
                                   gamma_g_u=s["gamma1"], gamma_g_p=s["gamma2"],
                                   ghost_order=s["ghost_order"])

    @property
    def stabilized(self) -> bool:
        return bool(self.raw["stabilization"]["enabled"])


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):  # quoted only when it holds a separator or a quote
        return '"' + x.replace('"', '""') + '"' if any(c in x for c in ',"\n') else x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    return "nan" if np.isnan(v) else repr(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _covering_box(cfg: RunConfig, n: int, delta: float) -> MeshConfig:
    """The box translated by delta; raises unless it still covers the outer circle."""
    mc = translate_box(cfg.mesh_config(n), delta)
    radius = cfg.raw["geometry"]["radius"]
    if max(mc.box_lo) > -radius or min(mc.box_hi) < radius:
        raise ConfigurationError(
            f"box {mc.box_lo}..{mc.box_hi} does not cover the outer circle "
            f"(radius {radius}); reduce the translation delta or refine")
    return mc


# Ladder levels on threads build their meshes one at a time, so a wrapper
# around `build_mesh` sees each call whole: `bench/tracing.py` names every
# later span after the level whose mesh was built last.
_BUILD_MESH_LOCK = threading.Lock()


def _discretize(cfg: RunConfig, n: int, delta: float = 0.0, subdiv: int | None = None):
    mc = _covering_box(cfg, n, delta)
    m = cfg.raw["mesh"]
    subdiv = m["subdiv"] if subdiv is None else subdiv
    dom = cfg.domain()
    with _BUILD_MESH_LOCK:
        mesh = build_mesh(mc.box_lo, mc.box_hi, mc.n)
    active = classify(mesh, dom, n_probe=m["n_probe"], subdiv=subdiv)
    rules = build_cut_rules(active, dom, order=m["order"])
    k, l = cfg.raw["spaces"]["k"], cfg.raw["spaces"]["l"]
    su = build_space(active, k, ncomp=2)
    st = build_space(active, k - 1)
    sf = build_space(active, l)
    return dom, mesh, active, rules, su, st, sf, make_layout(su, st, sf)


# ---------------------------------------------------------------------------
# solve

def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    """Assemble and solve one configuration; write summary and optional dumps."""
    out_dir.mkdir(parents=True, exist_ok=True)
    n = cfg.raw["mesh"]["n"]
    dom, mesh, active, rules, su, st, sf, layout = _discretize(
        cfg, n, delta=cfg.raw["mesh"]["delta"])
    params, stab = cfg.params(), cfg.stab()
    case = make_case(cfg.raw["case"])
    system = assemble_system(su, st, sf, rules, params, stab, case.boundary_data(),
                             include_ghost=cfg.stabilized)
    report = solve(system)
    kappa = estimate_condition(system, lu=report._lu)

    xu, xt, xf = report.x[layout.s_u], report.x[layout.s_t], report.x[layout.s_f]
    m_u = mass_matrix(su, su, rules)
    m_t = mass_matrix(st, st, rules)
    m_f = mass_matrix(sf, sf, rules)
    norms = {
        "u_L2": float(np.sqrt(xu[0::2] @ (m_u @ xu[0::2]) + xu[1::2] @ (m_u @ xu[1::2]))),
        "pT_L2": float(np.sqrt(xt @ (m_t @ xt))),
        "pF_L2": float(np.sqrt(xf @ (m_f @ xf))),
    }
    [err] = error_norms(report.x[None], [params], case, su, st, sf, rules, stab)
    summary = {
        "n": n,
        "h": rules.h,
        "delta": cfg.raw["mesh"]["delta"],
        "stabilized": cfg.stabilized,
        "case": cfg.raw["case"],
        "dofs": {"u": layout.n_u, "pT": layout.n_t, "pF": layout.n_f,
                 "total": layout.total},
        "cells": {"active": int(active.n_active), "cut": int(len(active.cut_cells)),
                  "interior": int(len(active.interior_cells))},
        "rel_residual": report.rel_residual,
        "factorization": {"ordering": report.ordering, "factor_nnz": report.factor_nnz},
        "kappa": kappa,
        "solution_norms": norms,
        "errors": err.as_dict(),
        "quadrature": {"volume_points": sum(len(r.vol_wts) for r in rules.cut.values()),
                       "boundary_points": sum(len(r.bnd_wts) for r in rules.cut.values())},
    }
    (out_dir / "solution.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    if cfg.raw["output"]["write_points"]:
        # the fields at the centers of the active cells whose center is inside
        centers = mesh.cell_origin(active.active_cells) + mesh.h / 2
        inside = dom.psi(centers) < 0
        cells = active.active_cells[inside]
        mid = QuadGroup(cells, centers[inside][:, None, :], np.ones((len(cells), 1)))
        [(_, B)] = tabulate([mid], (su, st, sf))
        cols = tabulation_columns((su, st, sf))
        vals = [field_values(s, c[None], cells, B, cols)[0, :, 0, 0]
                for s, c in ((su, xu[0::2]), (su, xu[1::2]), (st, xt), (sf, xf))]
        _write_csv(out_dir / "solution_points.csv", ["x", "y", "ux", "uy", "pT", "pF"],
                   np.column_stack([centers[inside], *vals]).tolist())
    if cfg.raw["output"]["write_matrix"]:
        dump_matrix(system, out_dir / "system.mtx")
    if cfg.raw["output"]["write_debug"]:
        (out_dir / "classification.txt").write_text(dump_classification(active))
        (out_dir / "boundary_points.csv").write_text(dump_boundary_points(rules))
    return 0


# ---------------------------------------------------------------------------
# convergence ladder

_ERR_NAMES = ["err_u_star", "err_u_L2", "err_pT_star", "err_pT_L2", "err_pF_star",
              "err_pF_L2"]


def _ladder_level_job(cfg_dict: dict, n: int) -> list[dict]:
    """All (lambda, K) runs of one refinement level, sharing the assembly.

    One `assemble_rhs` call builds the load vectors of every (lambda, K)
    pair, one `solve_params` call solves them together (lockstep MINRES on
    one shared elasticity factor, a direct solve only as a pair's fallback)
    and one `error_norms` call measures every solution.  The MINRES steps
    per pair and the number of fallbacks go to the log, not to the output.
    """
    cfg = RunConfig(raw=cfg_dict)
    conv = cfg.raw["convergence"]
    _, _, active, rules, su, st, sf, _ = _discretize(cfg, n, subdiv=conv["subdiv"])
    stab = cfg.stab()
    base = assemble_system(su, st, sf, rules, cfg.params(), stab,
                           include_ghost=cfg.stabilized)
    params = [cfg.params(lam=lam, K=K) for lam in conv["lambdas"] for K in conv["Ks"]]
    case = make_case(cfg.raw["case"])
    rhs = assemble_rhs(su, st, sf, rules, stab, params, case.boundary_data())
    reports = solve_params(base, params, rhs)
    logger.info("N=%d: MINRES steps per (lambda, K): %s; %d direct fallbacks", n,
                ", ".join(f"({p.lam:g}, {p.K:g}) {r.steps}" for p, r in zip(params, reports)),
                sum(r.ordering != "MINRES" for r in reports))
    errs = error_norms(np.array([r.x for r in reports]), params, case, su, st, sf, rules, stab)
    return [{"N": n, "h": rules.h, "lambda": prm.lam, "K": prm.K, "residual": r.rel_residual,
             **err.as_dict()} for prm, r, err in zip(params, reports, errs)]


def _run_jobs(job, cfg: RunConfig, items: list, workers: int) -> list:
    """job(cfg.raw, item) for every item, in min(workers, len(items)) processes.

    One worker runs the items in this process, one after another.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(items))
    if workers == 1:
        return [job(cfg.raw, item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, [cfg.raw] * len(items), items))


def _run_levels(cfg: RunConfig, ladder: list) -> list:
    """`_ladder_level_job` for every level, on up to two threads, finest first.

    On the paper's ladder each level has 4x the cells of the one below, so
    the finest level is the critical path and a second thread runs every
    coarser level beside it; a third would add memory, not speed.  SuperLU
    and numpy release the GIL, so the threads share the cores.  Results
    come back in ladder order.  When levels raise, every level is awaited
    and the coarsest one's error is raised: the one a serial loop meets first.
    """
    threads = min(2, len(os.sched_getaffinity(0)), len(ladder))
    logger.info("%d levels on %d threads, finest first", len(ladder), threads)
    if threads == 1:
        return [_ladder_level_job(cfg.raw, n) for n in ladder]
    with ThreadPoolExecutor(max_workers=threads) as pool:  # waits for every level
        futures = [pool.submit(_ladder_level_job, cfg.raw, n) for n in reversed(ladder)]
    return [future.result() for future in reversed(futures)]


def cmd_convergence(cfg: RunConfig, out_dir: Path, workers: int = 1) -> int:
    """Run the refinement ladder over the parameter grid; write one CSV.

    With one worker the levels run on threads in this process (see
    `_run_levels`); with more, each level runs in a worker process.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    conv = cfg.raw["convergence"]
    ladder = conv["ladder"]
    if len(ladder) < 3:
        raise ConfigurationError("convergence ladder needs at least 3 levels")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigurationError("convergence ladder must be strictly increasing")

    chunks = _run_levels(cfg, ladder) if workers == 1 else \
        _run_jobs(_ladder_level_job, cfg, ladder, workers)
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r["N"], r["lambda"], r["K"]))

    by_combo: dict[tuple, list[dict]] = {}
    for r in rows:
        by_combo.setdefault((r["lambda"], r["K"]), []).append(r)
    for combo_rows in by_combo.values():
        combo_rows.sort(key=lambda r: r["N"])
        for name in _ERR_NAMES:
            levels = [(r["h"], r[name]) for r in combo_rows]
            rates = eoc(levels)
            combo_rows[0][f"eoc_{name[4:]}"] = None
            for r, rate in zip(combo_rows[1:], rates):
                r[f"eoc_{name[4:]}"] = rate

    header = ["N", "h", "lambda", "K"] + _ERR_NAMES + \
        [f"eoc_{n[4:]}" for n in _ERR_NAMES]
    table = [[r["N"], r["h"], r["lambda"], r["K"]] + [r[n] for n in _ERR_NAMES]
             + [r.get(f"eoc_{n[4:]}") for n in _ERR_NAMES] for r in rows]
    _write_csv(out_dir / "convergence.csv", header, table)
    return 0


# ---------------------------------------------------------------------------
# cut-translation sweep

def sweep_deltas(cfg: RunConfig) -> list[float]:
    sw = cfg.raw["sweep"]
    if sw["deltas"] is not None:
        return [float(d) for d in sw["deltas"]]
    return [sw["stride"] * j * sw["delta_step"] for j in range(1, sw["count"] + 1)]


def _sweep_row(delta: float, stab_on: bool, exc: Exception | None = None) -> dict:
    """One arm's row, empty; marked failed with the error's class and message if given."""
    row = {"delta": delta, "stabilized": stab_on, "err_u_star": None,
           "err_pT_star": None, "err_pF_star": None, "err_u_L2": None,
           "kappa": None, "solver_status": "ok", "error": "", "message": ""}
    if exc is not None:
        row.update(solver_status="failed", error=type(exc).__name__, message=str(exc))
    return row


def _sweep_delta_job(cfg_dict: dict, delta: float) -> list[dict]:
    """Stabilized and unstabilized runs for one translated configuration.

    The solved arms are measured by one `error_norms` call; a failed arm
    keeps empty errors.  A geometry failure at this translation fails both
    arms; the sweep goes on.
    """
    cfg = RunConfig(raw=cfg_dict)
    n = cfg.raw["sweep"]["n"]
    try:
        _, _, active, rules, su, st, sf, _ = _discretize(cfg, n, delta=delta)
    except GeometryError as exc:
        return [_sweep_row(delta, stab_on, exc) for stab_on in (True, False)]
    params, stab = cfg.params(), cfg.stab()
    case = make_case(cfg.raw["case"])
    stabilized = assemble_system(su, st, sf, rules, params, stab,
                                 case.boundary_data(), include_ghost=True)
    rows, solved, xs = [], [], []
    for stab_on in (True, False):
        system = stabilized if stab_on else without_ghost(stabilized)
        row = _sweep_row(delta, stab_on)
        try:
            report = solve(system)
            row["kappa"] = estimate_condition(system, lu=report._lu)
            solved.append(row)
            xs.append(report.x)
        except SolverError as exc:
            row = _sweep_row(delta, stab_on, exc)
        rows.append(row)
        # free this factorization before the next one is made
        report = system = None
    if xs:
        for row, err in zip(solved, error_norms(np.array(xs), [params] * len(xs), case,
                                                su, st, sf, rules, stab)):
            row.update({"err_u_star": err.u_star, "err_pT_star": err.pT_star,
                        "err_pF_star": err.pF_star, "err_u_L2": err.u_L2})
    return rows


def cmd_sweep(cfg: RunConfig, out_dir: Path, workers: int = 1) -> int:
    """Translate the box through a family of cuts; run both arms per cut."""
    out_dir.mkdir(parents=True, exist_ok=True)
    deltas = sweep_deltas(cfg)
    if not deltas:
        raise ConfigurationError("sweep delta family is empty")
    for delta in deltas:  # fail before any translation is solved
        _covering_box(cfg, cfg.raw["sweep"]["n"], delta)
    chunks = _run_jobs(_sweep_delta_job, cfg, deltas, workers)
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r["delta"], not r["stabilized"]))
    header = ["delta", "stabilized", "err_u_star", "err_pT_star", "err_pF_star",
              "err_u_L2", "kappa", "solver_status"]
    _write_csv(out_dir / "sweep.csv", header, [[r[h] for h in header] for r in rows])
    # why each failed arm failed; only the header when none did
    header = ["delta", "stabilized", "error", "message"]
    _write_csv(out_dir / "sweep_failures.csv", header,
               [[r[h] for h in header] for r in rows if r["solver_status"] == "failed"])
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutbiot",
        description="Cut finite element solver for the Biot system "
                    "(total-pressure form) with ghost-penalty stabilization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [("solve", "single manufactured solve"),
                           ("convergence", "mesh refinement ladder"),
                           ("sweep", "cut-translation robustness sweep")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (defaults used when omitted)")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (>= 1; at most one per "
                            "ladder level or sweep translation)")
        p.add_argument("--no-stab", action="store_true",
                       help="disable ghost-penalty stabilization")
    return parser


def _write_error(out_dir: Path, exc: Exception) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {"error": type(exc).__name__, "message": str(exc)}
        (out_dir / "error.json").write_text(json.dumps(payload, indent=2) + "\n")
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")  # to stderr
    try:
        cfg = RunConfig.from_file(args.config) if args.config \
            else RunConfig.from_dict({})
        if args.no_stab:
            raw = json.loads(json.dumps(cfg.raw))
            raw["stabilization"]["enabled"] = False
            cfg = RunConfig(raw=raw)
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "convergence":
            return cmd_convergence(cfg, args.out, workers=args.workers)
        return cmd_sweep(cfg, args.out, workers=args.workers)
    except ConfigurationError as exc:
        _write_error(args.out, exc)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        _write_error(args.out, exc)
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except GeometryError as exc:
        _write_error(args.out, exc)
        print(f"geometry failure: {exc}", file=sys.stderr)
        return 4
    except CutBiotError as exc:
        _write_error(args.out, exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

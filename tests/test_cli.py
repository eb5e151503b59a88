from __future__ import annotations

import gc
import json
import logging
import os
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from conftest import TrackedLU
from cutbiot import cli, forms, solver
from cutbiot.cli import DEFAULT_CONFIG, RunConfig, cmd_convergence, cmd_solve, \
    cmd_sweep, main
from cutbiot.errors import AssemblyError, ConfigurationError, GeometryResolutionError, \
    SolverError
from cutbiot.forms import assemble_system
from cutbiot.mesh import build_mesh, classify
from cutbiot.solver import solve
from cutbiot.verification import make_case

from oracles import mass_pairing_by_summation, tensor_shape

SOLVE_CFG = {"mesh": {"n": 12},
             "output": {"write_points": True, "write_matrix": True,
                        "write_debug": True}}
CONV_CFG = {"convergence": {"ladder": [8, 12, 16], "lambdas": [1.0], "Ks": [1.0],
                            "subdiv": 3}}
SWEEP_CFG = {"sweep": {"n": 16, "deltas": [0.1, 0.3]}}


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _stub_level(n):
    """What `_ladder_level_job` returns for one (lambda, K) at level n."""
    return [{"N": n, "h": 2.0 / n, "lambda": 1.0, "K": 1.0,
             **{name: 1.0 / n for name in cli.ERR_NAMES}}]


def _cores(monkeypatch, count):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)))


def test_config_defaults_are_paper_values():
    cfg = RunConfig.from_dict({})
    g = cfg.raw["geometry"]
    assert (g["radius"], g["r0"], g["r1"]) == (0.95, 0.7, 0.18)
    s = cfg.raw["stabilization"]
    assert (s["gamma_u"], s["gamma_p"]) == (40.0, 40.0)
    assert (s["gamma1"], s["gamma2"]) == (0.1, 0.01)
    assert cfg.raw["params"]["mu"] == 1.0
    assert cfg.raw["convergence"]["lambdas"] == [1.0, 1e8]
    assert cfg.raw["convergence"]["Ks"] == [1.0, 1e-8]
    # the paper's 64 translations: every 31st member of the family j * 5e-4
    assert cli.sweep_deltas(cfg) == [31 * j * 5e-4 for j in range(1, 65)]


def test_config_schema_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"mesh": {"cells": 3}})
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"case": "unknown-case"})
    # the ghost and quadrature orders follow the space degrees
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"stabilization": {"ghost_order": 3}})
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"mesh": {"order": 7}})
    # keys that only restated a constant: the probe grid and the sweep family's
    # generator; the family is the `deltas` list itself, never null
    for data in ({"mesh": {"n_probe": 8}}, {"sweep": {"count": 8}}, {"sweep": {"stride": 1}},
                 {"sweep": {"delta_step": 1e-3}}, {"sweep": {"deltas": None}}):
        with pytest.raises(ConfigurationError, match="invalid config"):
            RunConfig.from_dict(data)


def test_invalid_flower_exit_code(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"geometry": {"r0": 0.1, "r1": 0.5}})
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert "invalid flower" in err["message"]


@pytest.mark.parametrize("text", ['{"params": {"mu": NaN}}', '{"params": {"lam": Infinity}}',
                                  '{"params": {"K": -Infinity}}', '{"params": {"lam": 1e999}}'])
def test_non_finite_config_numbers_rejected(tmp_path, text):
    # NaN mu used to pass the schema and end in a singular factor (exit 3)
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ConfigurationError" and "non-finite" in err["message"]


@pytest.mark.parametrize("conv", [{"lambdas": [1.0, 1.0]}, {"lambdas": [1.0, -1.0]},
                                  {"lambdas": [0.0]}, {"Ks": [1e-8, 1e-8]}, {"Ks": [-1.0]}])
def test_bad_parameter_lists_rejected_on_load(conv):
    # repeated lambdas used to fail only after the whole ladder, in `eoc`
    with pytest.raises(ConfigurationError, match="invalid config"):
        RunConfig.from_dict({"convergence": conv})


def test_other_package_error_exit_code(monkeypatch, tmp_path, capsys):
    def inconsistent(*args, **kwargs):
        raise AssemblyError("layout does not match the spaces")

    monkeypatch.setattr(cli, "assemble_system", inconsistent)
    assert main(["solve", "--out", str(tmp_path / "out")]) == 1
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == {
        "error": "AssemblyError", "message": "layout does not match the spaces"}
    assert "error: layout does not match the spaces" in capsys.readouterr().err


def test_single_level_ladder_exit_code(tmp_path):
    cfg = _write(tmp_path, "short.json", {"convergence": {"ladder": [16]}})
    code = main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_sweep_empty_deltas_rejected(tmp_path):
    # an empty translation family is an error, not a request for the default
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"sweep": {"deltas": []}})
    cfg = _write(tmp_path, "empty.json", {"sweep": {"deltas": []}})
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert json.loads((tmp_path / "o" / "error.json").read_text())["error"] == \
        "ConfigurationError"


def test_sweep_negative_delta_rejected_on_load():
    # a negative translation used to fail only inside its own job, after the
    # earlier translations had been solved
    with pytest.raises(ConfigurationError, match="invalid config"):
        RunConfig.from_dict({"sweep": {"n": 16, "deltas": [0.1, 0.3, -0.1]}})


def test_sweep_uncovering_delta_fails_before_any_solve(monkeypatch, tmp_path):
    solves = []
    real_solve = cli.solve
    monkeypatch.setattr(cli, "solve", lambda system: solves.append(1) or real_solve(system))
    cfg = _write(tmp_path, "far.json", {"sweep": {"n": 16, "deltas": [0.1, 0.3, 5.0]}})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads((tmp_path / "o" / "error.json").read_text())
    assert err["error"] == "ConfigurationError" and "does not cover" in err["message"]
    assert solves == []


def test_solve_reports_quadrature_point_counts(tmp_path):
    cfg = RunConfig.from_dict({"mesh": {"n": 12}})
    assert cmd_solve(cfg, tmp_path / "out") == 0
    counts = json.loads((tmp_path / "out" / "solution.json").read_text())["quadrature"]
    rules = cli._discretize(cfg, 12)[3].cut.values()
    assert counts == {"volume_points": sum(len(r.vol_wts) for r in rules),
                      "boundary_points": sum(len(r.bnd_wts) for r in rules)}
    assert counts["volume_points"] > 0 and counts["boundary_points"] > 0


def test_solve_writes_summary_and_points(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SOLVE_CFG)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert summary["rel_residual"] <= 1e-9
    assert summary["dofs"]["total"] == summary["dofs"]["u"] + \
        summary["dofs"]["pT"] + summary["dofs"]["pF"]
    assert summary["kappa"] > 1.0
    assert summary["factorization"]["ordering"] == "MMD_AT_PLUS_A"
    assert summary["factorization"]["factor_nnz"] > 0
    pts = (tmp_path / "out" / "solution_points.csv").read_text().splitlines()
    assert pts[0] == "x,y,ux,uy,pT,pF"
    assert len(pts) > 10
    assert (tmp_path / "out" / "system.mtx").read_text().startswith("%%MatrixMarket")
    bnd = (tmp_path / "out" / "boundary_points.csv").read_text().splitlines()
    assert bnd[0] == "x,y,nx,ny,w,tag"
    assert (tmp_path / "out" / "classification.txt").read_text().startswith("cell_index")


@pytest.fixture(scope="module")
def solved12(tmp_path_factory):
    """The N=12 `solve` with every dump, and its solution recomputed outside the CLI:
    (output directory, mesh, rules, [(space, node coefficients)] of u_x, u_y, p_T, p_F)."""
    out = tmp_path_factory.mktemp("solve12")
    cfg = RunConfig.from_dict(SOLVE_CFG)
    assert cmd_solve(cfg, out) == 0
    _, mesh, _, rules, su, st, sf, layout = cli._discretize(cfg, 12)
    system = assemble_system(su, st, sf, rules, cfg.params(), cfg.stab(),
                             make_case(cfg.raw["case"]))
    x = solve(system).x
    xu, xt, xf = (x[layout.slice(name)] for name in ("u", "pT", "pF"))
    return out, mesh, rules, [(su, xu[0::2]), (su, xu[1::2]), (st, xt), (sf, xf)]


def test_solution_points_are_the_solution_at_the_cell_centres(solved12):
    out, mesh, _, fields = solved12
    rows = np.loadtxt(out / "solution_points.csv", delimiter=",", skiprows=1)
    ix, iy = np.floor((rows[:, :2] - mesh.box_lo) / mesh.h).astype(int).T
    cells = ix * mesh.n + iy
    for col, (space, coeffs) in zip(rows[:, 2:].T, fields):
        want = []
        for p, c in zip(rows[:, :2], cells):
            vals, _ = tensor_shape(space.degree, *((p - mesh.cell_origin(c)) / mesh.h))
            want.append(vals @ coeffs[space.cell_dofs[c]])
        assert np.abs(col - want).max() <= 1e-12 * np.abs(want).max()


def test_solution_norms_are_the_l2_norms_over_the_domain(solved12):
    out, _, rules, fields = solved12
    norms = json.loads((out / "solution.json").read_text())["solution_norms"]
    ux, uy, pt, pf = (mass_pairing_by_summation(c, c, s, s, rules, 1.0) for s, c in fields)
    for name, square in (("u_L2", ux + uy), ("pT_L2", pt), ("pF_L2", pf)):
        assert norms[name] ** 2 == pytest.approx(square, rel=1e-12), name


def test_solve_counts_the_demoted_sliver_cells(tmp_path):
    # the outer circle passes 1e-15 outside four mesh vertices: the two cells
    # beyond each hold a sliver of it and are demoted to outside
    cfg = RunConfig.from_dict({"geometry": {"radius": 0.5 + 1e-15, "r0": 0.2, "r1": 0.05},
                               "mesh": {"n": 12}})
    assert cmd_solve(cfg, tmp_path / "out") == 0
    cells = json.loads((tmp_path / "out" / "solution.json").read_text())["cells"]
    mesh = build_mesh(cfg.raw["mesh"]["box_lo"], cfg.raw["mesh"]["box_hi"], 12)
    slivers = classify(mesh, cfg.domain(), subdiv=cfg.raw["mesh"]["subdiv"]).sliver_cells
    assert cells["sliver"] == len(slivers) == 8


def test_solve_no_stab_flag(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SOLVE_CFG)
    code = main(["solve", "--config", str(cfg), "--no-stab",
                 "--out", str(tmp_path / "ns")])
    assert code == 0
    summary = json.loads((tmp_path / "ns" / "solution.json").read_text())
    assert summary["stabilized"] is False


def test_convergence_rows_and_eoc(caplog, tmp_path):
    cfg = RunConfig.from_dict(CONV_CFG)
    with caplog.at_level(logging.INFO, logger="cutbiot.cli"):
        assert cmd_convergence(cfg, tmp_path / "conv") == 0
    # one line per level with the MINRES steps of its one pair, none in the output
    steps = [m for m in caplog.messages if "MINRES steps" in m]
    assert sorted(m.split(":")[0] for m in steps) == ["N=12", "N=16", "N=8"]
    assert all(m.endswith("; 0 direct fallbacks") for m in steps)
    lines = (tmp_path / "conv" / "convergence.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["N", "h", "lambda", "K", *cli.ERR_NAMES] + \
        [f"eoc_{name[4:]}" for name in cli.ERR_NAMES]
    assert len(lines) == 1 + 3  # one row per level per combo
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert first[header.index("eoc_u_star")] == ""
    assert float(last[header.index("eoc_u_star")]) > 1.5


def test_cubic_ladder_reaches_the_method_rates(caplog, tmp_path):
    # Q3/Q2/Q3: energy-type norms and the p_T L2 norm at rate 3, the u and p_F
    # L2 norms at rate 4; every level's MINRES converges without a direct solve
    cfg = RunConfig.from_dict({"spaces": {"k": 3, "l": 3},
                               "convergence": {"ladder": [8, 16, 32], "lambdas": [1.0, 1e8],
                                               "Ks": [1.0], "subdiv": 4}})
    with caplog.at_level(logging.INFO, logger="cutbiot.cli"):
        assert cmd_convergence(cfg, tmp_path / "cubic") == 0
    steps = [m for m in caplog.messages if "MINRES steps" in m]
    assert len(steps) == 3 and all(m.endswith("; 0 direct fallbacks") for m in steps)
    lines = (tmp_path / "cubic" / "convergence.csv").read_text().splitlines()
    header = lines[0].split(",")
    finest = [dict(zip(header, line.split(","))) for line in lines[1:]
              if line.startswith("32,")]
    assert len(finest) == 2
    gates = {"u_star": 2.7, "pT_star": 2.7, "pF_star": 2.7, "pT_L2": 2.7,
             "u_L2": 3.3, "pF_L2": 3.3}
    for row in finest:
        for name, gate in gates.items():
            assert float(row[f"eoc_{name}"]) >= gate, (row["lambda"], name)


def test_stabilized_ladder_level_composes_no_matrix(monkeypatch):
    from test_golden import CONVERGENCE, ERR_NAMES, REL

    composed = []
    real = forms.compose_matrix
    monkeypatch.setattr(forms, "compose_matrix",
                        lambda *args: composed.append(args) or real(*args))
    cfg = RunConfig.from_dict({"convergence": {"ladder": [8, 12, 16], "subdiv": 3}})
    rows = cli._ladder_level_job(cfg.raw, 8)
    assert composed == []  # MINRES applies the unit parts; no fallback composes
    assert len(rows) == 4
    for r in rows:
        want = CONVERGENCE[(8, r["lambda"], r["K"])][0]
        assert [r[name] for name in ERR_NAMES] == pytest.approx(want, rel=REL)


def test_convergence_combo_count(tmp_path):
    cfg = RunConfig.from_dict({"convergence": {"ladder": [6, 8, 10],
                                               "subdiv": 3}})
    assert cmd_convergence(cfg, tmp_path / "conv4") == 0
    lines = (tmp_path / "conv4" / "convergence.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 4  # all four (lambda, K) combos


def test_sweep_rows(tmp_path):
    cfg = RunConfig.from_dict(SWEEP_CFG)
    assert cmd_sweep(cfg, tmp_path / "sw") == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "delta,stabilized,err_u_star,err_pT_star,err_pF_star," \
        "err_u_L2,kappa,solver_status"
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] in ("true", "false")
        assert fields[-1] in ("ok", "failed")


def test_sweep_nearly_singular_translations_solve(tmp_path):
    # j = 29 and 34 of the paper's family: the unstabilized arm is nearly singular
    cfg = RunConfig.from_dict({"mesh": {"subdiv": 3},
                               "sweep": {"n": 60, "deltas": [0.4495, 0.527]}})
    assert cmd_sweep(cfg, tmp_path / "sw") == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["solver_status"] for r in rows] == ["ok"] * 4
    stabilized = [float(r["kappa"]) for r in rows if r["stabilized"] == "true"]
    unstabilized = [float(r["kappa"]) for r in rows if r["stabilized"] == "false"]
    assert min(unstabilized) > 100 * float(np.median(stabilized))


def test_sweep_row_recomputable_by_solve(tmp_path):
    # every sweep row can be reproduced by a scalar solve configuration
    cfg = RunConfig.from_dict(SWEEP_CFG)
    cmd_sweep(cfg, tmp_path / "sw")
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")  # delta=0.1, stabilized
    delta = float(row[0])
    solve_cfg = RunConfig.from_dict({"mesh": {"n": 16, "delta": delta}})
    cmd_solve(solve_cfg, tmp_path / "single")
    summary = json.loads((tmp_path / "single" / "solution.json").read_text())
    assert summary["errors"]["err_u_star"] == pytest.approx(
        float(row[header.index("err_u_star")]), rel=1e-12)


@pytest.mark.parametrize("command,cfg", [
    ("solve", SOLVE_CFG),
    ("convergence", CONV_CFG),
    ("sweep", SWEEP_CFG),
])
def test_byte_identical_reruns(tmp_path, command, cfg):
    cfgfile = _write(tmp_path, "cfg.json", cfg)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        outs.append({f: (out / f).read_bytes() for f in files})
    assert outs[0] == outs[1]


def test_solve_default_config(tmp_path):
    # paper defaults at N=32
    code = main(["solve", "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert summary["n"] == 32
    assert summary["rel_residual"] <= 1e-9


def test_parallel_workers_match_serial(monkeypatch, tmp_path):
    # level threads, worker processes and one core all write the same bytes,
    # and so does a sweep on worker processes
    cfg = _write(tmp_path, "cfg.json", CONV_CFG)
    assert main(["convergence", "--config", str(cfg),
                 "--out", str(tmp_path / "w1")]) == 0
    assert main(["convergence", "--config", str(cfg), "--workers", "2",
                 "--out", str(tmp_path / "w2")]) == 0
    sweep = _write(tmp_path, "sweep.json", SWEEP_CFG)
    for workers in ("1", "2"):
        assert main(["sweep", "--config", str(sweep), "--workers", workers,
                     "--out", str(tmp_path / f"sweep{workers}")]) == 0
    for name in ("sweep.csv", "sweep_failures.csv"):
        assert (tmp_path / "sweep1" / name).read_bytes() == \
            (tmp_path / "sweep2" / name).read_bytes()
    _cores(monkeypatch, 1)
    assert main(["convergence", "--config", str(cfg),
                 "--out", str(tmp_path / "core1")]) == 0
    for out in ("w2", "core1"):
        assert (tmp_path / "w1" / "convergence.csv").read_bytes() == \
            (tmp_path / out / "convergence.csv").read_bytes()


def test_convergence_without_an_affinity_call(monkeypatch, caplog, tmp_path):
    # macOS and Windows have no os.sched_getaffinity: the thread count falls back
    # to os.cpu_count(), and to one thread when that is unknown too
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    cfg = RunConfig.from_dict({"convergence": {"ladder": [6, 8, 10], "lambdas": [1.0],
                                               "Ks": [1.0], "subdiv": 2}})
    for cpus, threads in ((4, 2), (None, 1)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="cutbiot.cli"):
            assert cmd_convergence(cfg, tmp_path / str(cpus)) == 0
        assert f"3 levels on {threads} threads" in caplog.text
        rows = (tmp_path / str(cpus) / "convergence.csv").read_text().splitlines()
        assert len(rows) == 4
    assert (tmp_path / "4" / "convergence.csv").read_bytes() == \
        (tmp_path / "None" / "convergence.csv").read_bytes()


def test_levels_start_finest_first_on_at_most_two_threads(monkeypatch, caplog, tmp_path):
    lock = threading.Lock()
    starts, threads, running, peak = [], set(), [0], [0]
    ladder = [8, 12, 16, 20]

    def job(raw, n):
        with lock:
            starts.append(n)
            threads.add(threading.get_ident())
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.4 if n == ladder[-1] else 0.1)  # the coarser levels end first
        with lock:
            running[0] -= 1
        return _stub_level(n)

    monkeypatch.setattr(cli, "_ladder_level_job", job)
    cfg = RunConfig.from_dict({"convergence": {"ladder": ladder, "lambdas": [1.0],
                                               "Ks": [1.0]}})
    _cores(monkeypatch, 4)
    with caplog.at_level(logging.INFO, logger="cutbiot.cli"):
        assert cmd_convergence(cfg, tmp_path / "four") == 0
    # the two finest levels start together, then the rest finest first
    assert peak[0] == 2 and len(threads) == 2
    assert sorted(starts[:2]) == [16, 20] and starts[2:] == [12, 8]
    assert "4 levels on 2 threads, finest first" in caplog.text
    assert [p.name for p in (tmp_path / "four").iterdir()] == ["convergence.csv"]

    # one core: the levels run in this thread, in ladder order
    starts.clear()
    threads.clear()
    peak[0] = 0
    _cores(monkeypatch, 1)
    assert cmd_convergence(cfg, tmp_path / "one") == 0
    assert starts == ladder and threads == {threading.get_ident()} and peak[0] == 1
    assert (tmp_path / "four" / "convergence.csv").read_bytes() == \
        (tmp_path / "one" / "convergence.csv").read_bytes()


def test_failing_levels_raise_the_coarsest_error(monkeypatch, tmp_path):
    # the finer level fails first; the coarser one's error is the one a
    # serial loop meets first, and every level still runs to its end
    done = []

    def job(raw, n):
        if n == 16:
            raise SolverError("level 16 failed")
        time.sleep(0.2)
        if n == 12:
            raise SolverError("level 12 failed")
        done.append(n)
        return _stub_level(n)

    monkeypatch.setattr(cli, "_ladder_level_job", job)
    _cores(monkeypatch, 2)
    cfg = _write(tmp_path, "cfg.json", CONV_CFG)
    before = set(threading.enumerate())
    code = main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == {
        "error": "SolverError", "message": "level 12 failed"}
    assert done == [8]
    assert set(threading.enumerate()) <= before  # no level thread left running


def _child_env() -> dict:
    """The environment of a child interpreter that imports this cutbiot, installed or not."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"mesh": {"n": 8}})
    proc = subprocess.run(
        [sys.executable, "-m", "cutbiot.cli", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "solution.json").exists()


def test_cli_import_leaves_out_scipy_special():
    # scipy.special costs about 0.1 s of every fresh start, and no rule needs it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cutbiot.cli; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_box_coverage_guard(tmp_path):
    # translation pushing the box off the circle must be a config error
    cfg = RunConfig.from_dict({"mesh": {"n": 8, "delta": 1.0}})
    with pytest.raises(ConfigurationError):
        cmd_solve(cfg, tmp_path / "x")


def test_previous_factorization_released_before_next_solve(monkeypatch, tmp_path):
    # A stabilized ladder level solves its (lambda, K) pairs by lockstep MINRES:
    # it makes no direct solve, and none of its factors is reachable once the
    # level returns, on either level thread.  In the sweep, which solves
    # directly on one thread, no earlier SolveReport (each holds its LU factor)
    # is alive at a solve.
    factors = []  # (thread, weak reference to the factor)

    def tracked_lu(matrix):
        lu = TrackedLU(real_lu(matrix))
        factors.append((threading.get_ident(), weakref.ref(lu)))
        return lu

    def tracked_level(raw, n):
        rows = real_level(raw, n)
        gc.collect()
        assert not [ref for thread, ref in factors
                    if thread == threading.get_ident() and ref() is not None], \
            f"a factor of level N={n} outlives it"
        return rows

    def no_direct_solve(system):
        raise AssertionError("direct solve in a stabilized ladder level")

    real_lu, real_level, real_solve = solver._symmetric_lu, cli._ladder_level_job, solver.solve
    monkeypatch.setattr(solver, "_symmetric_lu", tracked_lu)
    monkeypatch.setattr(cli, "_ladder_level_job", tracked_level)
    monkeypatch.setattr(solver, "solve", no_direct_solve)
    monkeypatch.setattr(cli, "solve", no_direct_solve)
    _cores(monkeypatch, 2)
    conv = {"convergence": {"ladder": [6, 8, 10], "lambdas": [1.0, 1e8], "Ks": [1.0],
                            "subdiv": 3}}
    assert cmd_convergence(RunConfig.from_dict(conv), tmp_path / "conv") == 0
    assert len({thread for thread, _ in factors}) == 2  # both level threads factored
    assert len(factors) == 3 * (1 + 2 * 2)  # per level: A_uu, then p_T and p_F per pair

    reports = []  # weak references to the sweep's reports

    def tracking_solve(system):
        gc.collect()
        assert all(ref() is None for ref in reports), "an earlier SolveReport is alive"
        report = real_solve(system)
        reports.append(weakref.ref(report))
        return report

    monkeypatch.setattr(solver, "solve", real_solve)
    monkeypatch.setattr(cli, "solve", tracking_solve)
    assert cmd_sweep(RunConfig.from_dict({"sweep": {"n": 16, "deltas": [0.1]}}),
                     tmp_path / "sw") == 0
    assert len(reports) == 2


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and the submitted
    items, runs each task inline and returns its finished future."""

    sizes: list = []
    submitted: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, raw, item):
        self.submitted.append(item)
        future = Future()
        future.set_result(fn(raw, item))
        return future


def test_workers_validated_and_capped(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "submitted", [])
    monkeypatch.setattr(cli, "_ladder_level_job", lambda raw, n: _stub_level(n))
    monkeypatch.setattr(cli, "_sweep_delta_job", lambda raw, d: [
        {"delta": d, "stabilized": s, "err_u_star": 1.0, "err_pT_star": 1.0,
         "err_pF_star": 1.0, "err_u_L2": 1.0, "kappa": 1.0, "solver_status": "ok",
         "error": "", "message": ""} for s in (True, False)])
    conv, sweep = RunConfig.from_dict(CONV_CFG), RunConfig.from_dict(SWEEP_CFG)
    assert cmd_convergence(conv, tmp_path / "c", workers=8) == 0
    assert cmd_sweep(sweep, tmp_path / "s", workers=8) == 0
    assert cmd_sweep(sweep, tmp_path / "s1", workers=1) == 0
    assert _InlinePool.sizes == [3, 2]  # one worker per level or translation
    assert _InlinePool.submitted == [16, 12, 8, 0.3, 0.1]  # the finest level first
    for command in (cmd_convergence, cmd_sweep):
        for workers in (0, -3):
            with pytest.raises(ConfigurationError):
                command(conv if command is cmd_convergence else sweep,
                        tmp_path / "bad", workers=workers)
    cfg = _write(tmp_path, "cfg.json", SWEEP_CFG)
    code = main(["sweep", "--config", str(cfg), "--workers", "0",
                 "--out", str(tmp_path / "w0")])
    assert code == 2
    assert "workers" in json.loads((tmp_path / "w0" / "error.json").read_text())["message"]
    assert _InlinePool.sizes == [3, 2]


def test_solve_takes_no_workers_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--workers", "2", "--out", str(tmp_path / "w")])
    assert exc.value.code == 2


def test_sweep_failures_sidecar(monkeypatch, tmp_path):
    cfg = RunConfig.from_dict(SWEEP_CFG)
    assert cmd_sweep(cfg, tmp_path / "ok") == 0
    assert (tmp_path / "ok" / "sweep_failures.csv").read_text() == \
        "delta,stabilized,error,message\n"

    real_solve = cli.solve

    def failing_unstabilized(system):
        if "g1" not in system.parts:
            raise SolverError("relative residual 2.000e-08 exceeds 1e-09")
        return real_solve(system)

    monkeypatch.setattr(cli, "solve", failing_unstabilized)
    assert cmd_sweep(cfg, tmp_path / "bad") == 0
    lines = (tmp_path / "bad" / "sweep_failures.csv").read_text().splitlines()
    assert lines == ["delta,stabilized,error,message",
                     "0.1,false,SolverError,relative residual 2.000e-08 exceeds 1e-09",
                     "0.3,false,SolverError,relative residual 2.000e-08 exceeds 1e-09"]
    sweep = (tmp_path / "bad" / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "delta,stabilized,err_u_star,err_pT_star,err_pF_star," \
        "err_u_L2,kappa,solver_status"
    assert [line.split(",")[-1] for line in sweep[1:]] == ["ok", "failed", "ok", "failed"]


def test_sweep_geometry_failure_fails_both_arms(monkeypatch, tmp_path):
    real_rules = cli.build_cut_rules

    def unresolved_at_second_delta(active, dom, order):
        if active.mesh.box_lo[0] > -1.0 + 0.2 * active.mesh.h:  # delta 0.3, not 0.1
            raise GeometryResolutionError("level set not resolved at subdivision 6")
        return real_rules(active, dom, order)

    monkeypatch.setattr(cli, "build_cut_rules", unresolved_at_second_delta)
    assert main(["sweep", "--config", str(_write(tmp_path, "s.json", SWEEP_CFG)),
                 "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "sweep_failures.csv").read_text().splitlines()
    assert lines == ["delta,stabilized,error,message",
                     "0.3,true,GeometryResolutionError,level set not resolved at subdivision 6",
                     "0.3,false,GeometryResolutionError,level set not resolved at subdivision 6"]
    sweep = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[-1] for line in sweep[1:]] == ["ok", "ok", "failed", "failed"]
    assert sweep[3] == "0.3,true,,,,,,failed"


def _counting(monkeypatch, name, calls):
    """Replace cli.<name> by a wrapper that records the size of each call's stack."""
    real = getattr(cli, name)

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(len(result))
        return result

    monkeypatch.setattr(cli, name, counted)


def test_one_rhs_and_one_norm_pass_per_level_and_translation(monkeypatch, tmp_path):
    rhs_calls, norm_calls, cases = [], [], []
    _counting(monkeypatch, "assemble_rhs", rhs_calls)
    _counting(monkeypatch, "error_norms", norm_calls)
    real_case = cli.make_case
    monkeypatch.setattr(cli, "make_case", lambda name: cases.append(name) or real_case(name))
    conv = {"convergence": {"ladder": [6, 8, 10], "lambdas": [1.0, 1e8], "Ks": [1.0, 1e-8],
                            "subdiv": 2}}
    assert cmd_convergence(RunConfig.from_dict(conv), tmp_path / "conv") == 0
    assert rhs_calls == [4, 4, 4] and norm_calls == [4, 4, 4]
    assert cases == ["trig"] * 3  # one case per level, shared by the four (lambda, K)
    rhs_calls.clear()
    norm_calls.clear()
    cases.clear()
    assert cmd_sweep(RunConfig.from_dict(SWEEP_CFG), tmp_path / "sw") == 0
    assert rhs_calls == []  # the sweep's load vector comes with assemble_system
    assert norm_calls == [2, 2] and cases == ["trig"] * 2


def test_failed_arm_left_out_of_the_norm_stack(monkeypatch, tmp_path):
    norm_calls = []
    _counting(monkeypatch, "error_norms", norm_calls)
    real_solve = cli.solve

    def failing_unstabilized(system):
        if "g1" not in system.parts:
            raise SolverError("relative residual 2.000e-08 exceeds 1e-09")
        return real_solve(system)

    monkeypatch.setattr(cli, "solve", failing_unstabilized)
    assert cmd_sweep(RunConfig.from_dict(SWEEP_CFG), tmp_path / "sw") == 0
    assert norm_calls == [1, 1]
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for row in rows:
        errors = [row[name] for name in ("err_u_star", "err_pT_star", "err_pF_star",
                                         "err_u_L2")]
        if row["stabilized"] == "true":
            assert row["solver_status"] == "ok" and all(float(e) > 0.0 for e in errors)
        else:
            assert row["solver_status"] == "failed" and errors == ["", "", "", ""]
    failures = (tmp_path / "sw" / "sweep_failures.csv").read_text().splitlines()
    assert failures[1:] == [f"{d},false,SolverError,relative residual 2.000e-08 exceeds 1e-09"
                            for d in (0.1, 0.3)]

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from cutbiot import cli
from cutbiot.cli import DEFAULT_CONFIG, RunConfig, cmd_convergence, cmd_solve, \
    cmd_sweep, main
from cutbiot.errors import ConfigurationError, SolverError

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


def test_config_schema_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"mesh": {"cells": 3}})
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"case": "unknown-case"})


def test_invalid_flower_exit_code(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"geometry": {"r0": 0.1, "r1": 0.5}})
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert "invalid flower" in err["message"]


def test_single_level_ladder_exit_code(tmp_path):
    cfg = _write(tmp_path, "short.json", {"convergence": {"ladder": [16]}})
    code = main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_sweep_empty_deltas_rejected(tmp_path):
    # only null selects the default translation family; an empty list is an error
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"sweep": {"deltas": []}})
    cfg = _write(tmp_path, "empty.json", {"sweep": {"deltas": []}})
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert json.loads((tmp_path / "o" / "error.json").read_text())["error"] == \
        "ConfigurationError"


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


def test_solve_no_stab_flag(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SOLVE_CFG)
    code = main(["solve", "--config", str(cfg), "--no-stab",
                 "--out", str(tmp_path / "ns")])
    assert code == 0
    summary = json.loads((tmp_path / "ns" / "solution.json").read_text())
    assert summary["stabilized"] is False


def test_convergence_rows_and_eoc(tmp_path):
    cfg = RunConfig.from_dict(CONV_CFG)
    assert cmd_convergence(cfg, tmp_path / "conv") == 0
    lines = (tmp_path / "conv" / "convergence.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["N", "h", "lambda", "K"]
    assert "err_u_star" in header and "eoc_u_star" in header
    assert len(lines) == 1 + 3  # one row per level per combo
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert first[header.index("eoc_u_star")] == ""
    assert float(last[header.index("eoc_u_star")]) > 1.5


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


def test_parallel_workers_match_serial(tmp_path):
    cfg = _write(tmp_path, "cfg.json", CONV_CFG)
    assert main(["convergence", "--config", str(cfg),
                 "--out", str(tmp_path / "w1")]) == 0
    assert main(["convergence", "--config", str(cfg), "--workers", "2",
                 "--out", str(tmp_path / "w2")]) == 0
    assert (tmp_path / "w1" / "convergence.csv").read_bytes() == \
        (tmp_path / "w2" / "convergence.csv").read_bytes()


def test_console_entry_point(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"mesh": {"n": 8}})
    # the child imports the same cutbiot, installed or not
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cutbiot.cli", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "solution.json").exists()


def test_box_coverage_guard(tmp_path):
    # translation pushing the box off the circle must be a config error
    cfg = RunConfig.from_dict({"mesh": {"n": 8, "delta": 1.0}})
    with pytest.raises(ConfigurationError):
        cmd_solve(cfg, tmp_path / "x")


def test_previous_factorization_released_before_next_solve(monkeypatch, tmp_path):
    # each SolveReport holds its LU factor; two must never coexist in one job
    reports = []

    def tracking_solve(system):
        gc.collect()
        assert all(ref() is None for ref in reports), "an earlier SolveReport is alive"
        report = real_solve(system)
        reports.append(weakref.ref(report))
        return report

    real_solve = cli.solve
    monkeypatch.setattr(cli, "solve", tracking_solve)
    conv = {"convergence": {"ladder": [6, 8, 10], "lambdas": [1.0, 1e8], "Ks": [1.0],
                            "subdiv": 3}}
    assert cmd_convergence(RunConfig.from_dict(conv), tmp_path / "conv") == 0
    assert len(reports) == 6
    assert cmd_sweep(RunConfig.from_dict({"sweep": {"n": 16, "deltas": [0.1]}}),
                     tmp_path / "sw") == 0
    assert len(reports) == 8


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs tasks inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_workers_validated_and_capped(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    stub = [{"N": n, "h": 2.0 / n, "lambda": 1.0, "K": 1.0,
             **{name: 1.0 / n for name in cli._ERR_NAMES}} for n in (8, 12, 16)]
    monkeypatch.setattr(cli, "_ladder_level_job", lambda raw, n: [stub[(n - 8) // 4]])
    monkeypatch.setattr(cli, "_sweep_delta_job", lambda raw, d: [
        {"delta": d, "stabilized": s, "err_u_star": 1.0, "err_pT_star": 1.0,
         "err_pF_star": 1.0, "err_u_L2": 1.0, "kappa": 1.0, "solver_status": "ok",
         "error": "", "message": ""} for s in (True, False)])
    conv, sweep = RunConfig.from_dict(CONV_CFG), RunConfig.from_dict(SWEEP_CFG)
    assert cmd_convergence(conv, tmp_path / "c", workers=8) == 0
    assert cmd_sweep(sweep, tmp_path / "s", workers=8) == 0
    assert cmd_sweep(sweep, tmp_path / "s1", workers=1) == 0
    assert _InlinePool.sizes == [3, 2]  # one worker per level or translation
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

"""Self-tests of the benchmark harness (about 3 s).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math

import pytest

import checks
import workloads
from run import END_TO_END_UNITS, LAYER_UNITS, ROOT, import_cli
from tracing import LAYERS, Tracer

cli = import_cli()

LEVELS = (16, 32, 64, 128)
COMBOS = ((1.0, 1.0), (1.0, 1e-8), (1e8, 1.0), (1e8, 1e-8))
RATES = {"err_u_star": 2.0, "err_u_L2": 3.0, "err_pT_star": 2.0, "err_pT_L2": 2.0,
         "err_pF_star": 2.0, "err_pF_L2": 3.0}


def _ladder_rows(final_rate: float | None = None) -> list[dict]:
    """A convergence table with the promised rates; p_F L2 at rate 2 where mass dominates."""
    rows = []
    for lam, K in COMBOS:
        prev = None
        for N in LEVELS:
            h = 2.0 / N
            mass = K * lam < 2.0 * (2.0 / LEVELS[-1]) ** 2
            row = {"N": float(N), "h": h, "lambda": lam, "K": K}
            for name, rate in RATES.items():
                if name == "err_pF_L2" and mass:
                    rate = 2.0
                if final_rate is not None and N == LEVELS[-1] and name == "err_u_star":
                    rate = final_rate
                base = prev[name] / (prev["h"] / h) ** rate if prev else h ** rate
                row[name] = 0.4 * row["err_pT_L2"] if name == "err_pF_L2" and mass else base
            for name in RATES:
                row["eoc_" + name[4:]] = (math.log(prev[name] / row[name]) / math.log(prev["h"] / h)
                                          if prev else None)
            rows.append(row)
            prev = row
    return rows


def _sweep_rows(kappa_spread: float = 2.0, status: str = "ok") -> list[dict]:
    rows = []
    for i, delta in enumerate((0.1, 0.2, 0.3)):
        scale = kappa_spread ** (i / 2)
        rows.append({"delta": delta, "stabilized": True, "err_u_star": 2.6e-3 * (1 + 0.01 * i),
                     "err_pT_star": 5.6e-4, "err_pF_star": 1.7e-3, "err_u_L2": 1.5e-5,
                     "kappa": 7e6 * scale, "solver_status": "ok"})
        rows.append({"delta": delta, "stabilized": False, "err_u_star": 2.6e-3,
                     "err_pT_star": 5.6e-4, "err_pF_star": 1.7e-3, "err_u_L2": 1.5e-5,
                     "kappa": 1e20 if i == 1 else 1e6, "solver_status": "ok"})
    if status == "failed":
        rows[-1].update({k: None for k in ("err_u_star", "err_pT_star", "err_pF_star",
                                           "err_u_L2", "kappa")}, solver_status="failed")
    return rows


def test_ladder_check_accepts_promised_rates():
    assert checks.check_ladder(_ladder_rows(), spread_level=64) == []


def test_ladder_check_rejects_low_final_rate():
    problems = checks.check_ladder(_ladder_rows(final_rate=1.0), spread_level=64)
    assert any("eoc_u_star" in p for p in problems)


def test_ladder_check_rejects_rising_error_and_combo_spread():
    rows = _ladder_rows()
    for r in rows:
        if r["N"] == 64 and r["lambda"] == 1e8 and r["K"] == 1.0:
            r["err_pT_star"] *= 5.0
    problems = checks.check_ladder(rows, spread_level=64)
    assert any("does not decrease" in p for p in problems)
    assert any("varies by" in p for p in problems)


def test_ladder_check_applies_mass_regime_rule():
    rows = _ladder_rows()
    for r in rows:
        if r["K"] * r["lambda"] < 1e-6 and r["N"] == 128:
            r["err_pF_L2"] = 0.9 * r["err_pT_L2"]
    assert any("0.6 * err_pT_L2" in p for p in checks.check_ladder(rows, spread_level=64))


def test_aborted_ladder_level_counts_as_failed():
    rows = [r for r in _ladder_rows() if not (r["N"] == 128 and r["lambda"] == 1.0)]
    rnd = workloads._judge_ladder(1.0, 16, rows)
    assert rnd.failed == 2


def test_sweep_check_accepts_robust_sweep_and_rejects_kappa_spread():
    assert checks.check_sweep(_sweep_rows()) == []
    assert any("kappa varies" in p for p in checks.check_sweep(_sweep_rows(kappa_spread=20.0)))


def test_sweep_check_needs_one_blown_unstabilized_arm():
    rows = [dict(r, kappa=1e6) if not r["stabilized"] else r for r in _sweep_rows()]
    assert any("unstabilized" in p for p in checks.check_sweep(rows))


def test_failed_sweep_arm_is_counted():
    rnd = workloads._judge_sweep(1.0, 6, _sweep_rows(status="failed"))
    assert (rnd.attempted, rnd.failed) == (6, 1)


def test_residual_and_area_checks():
    assert checks.check_residual(1e-12) == []
    assert checks.check_residual(1e-6) != []
    geo = {"radius": 0.95, "r0": 0.7, "r1": 0.18}
    exact = checks.domain_area(geo)
    assert checks.check_areas([exact + 5e-4], geo) == []
    assert checks.check_areas([exact + 2e-3], geo) != []


def test_read_table_decodes_cli_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    cli._write_csv(path, ["delta", "stabilized", "kappa", "solver_status"],
                   [[0.5, True, 7e6, "ok"], [0.5, False, None, "failed"]])
    rows = checks.read_table(path)
    assert rows[0] == {"delta": 0.5, "stabilized": True, "kappa": 7e6, "solver_status": "ok"}
    assert rows[1]["stabilized"] is False and rows[1]["kappa"] is None


def test_sweep_translations_follow_the_seed():
    a, b = workloads.sweep_deltas(7), workloads.sweep_deltas(8)
    assert a == workloads.sweep_deltas(7) and a != b
    assert len(set(a)) == workloads.SWEEP_DRAWS and a == sorted(a)
    assert set(a) <= set(cli.sweep_deltas(cli.RunConfig.from_dict({})))
    failing = {workloads.SWEEP_STRIDE * j * workloads.SWEEP_STEP for j in workloads.SWEEP_FAILING}
    assert not any(failing & set(workloads.sweep_deltas(seed)) for seed in range(200))


def _originals():
    return {name: getattr(cli, name) for name in LAYERS}


def test_tracer_restores_cli_names_after_a_raising_call():
    before = _originals()
    tracer = Tracer()
    with pytest.raises(cli.ConfigurationError):
        with tracer.installed(cli):
            assert all(getattr(cli, n) is not f for n, f in before.items())
            mesh = cli.build_mesh((-1.0, -1.0), (1.0, 1.0), 4)
            cli.classify(mesh, cli.RunConfig.from_dict({}).domain(), n_probe=1)
    assert _originals() == before
    assert [s.name for s in tracer.spans] == ["build_mesh", "classify"]


def test_traced_tiny_ladder_attributes_its_time_to_layers(tmp_path):
    raw = {"convergence": {"ladder": [6, 8, 10], "lambdas": [1.0], "Ks": [1.0], "subdiv": 2}}
    tracer = Tracer()
    before = _originals()
    rnd = workloads.run_round(cli, "ladder", raw, tmp_path, tracer)
    assert _originals() == before
    assert (rnd.attempted, rnd.failed) == (3, 0)
    assert tracer.traced_seconds() > 0.9 * rnd.wall_s
    metrics = tracer.layer_metrics(rnd.wall_s)
    assert set(metrics) == set(LAYER_UNITS)
    assert metrics["solver.residual_max"] <= checks.RESIDUAL_TOL
    assert metrics["solver.kappa_inverse_solves"] == 0
    assert {s.context.split()[0] for s in tracer.spans} == {"N=6", "N=8", "N=10"}


def test_condition_estimate_counts_inverse_solves_through_the_proxy():
    raw = {"mesh": {"n": 6, "subdiv": 2}}
    cfg = cli.RunConfig.from_dict(raw)
    _, _, _, rules, su, st, sf, _ = cli._discretize(cfg, 6)
    system = cli.assemble_system(su, st, sf, rules, cfg.params(), cfg.stab())
    tracer = Tracer()
    with tracer.installed(cli):
        report = cli.solve(system)
        cli.estimate_condition(system, lu=report._lu)
    assert tracer.counters["solver.kappa_inverse_solves"] > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS

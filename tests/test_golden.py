"""Golden values of two small CLI runs, pinned to guard refactors of assembly.

The numbers were produced by the batched-interior/per-cut-cell assembly that
preceded the single quadrature-table path; a refactor may change summation
order, so they are compared to relative 1e-8, not bitwise.  The unstabilized
sweep arm is ill-conditioned enough that its errors and kappa move with the
rounding of single matrix entries, so only its status and its kappa blow-up
are pinned.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest

from cutbiot.cli import RunConfig, cmd_convergence, cmd_sweep

REL = 1e-8
ERR_NAMES = ["err_u_star", "err_u_L2", "err_pT_star", "err_pT_L2", "err_pF_star",
             "err_pF_L2"]

# (N, lambda, K) -> (errors in ERR_NAMES order, EOCs in the same order)
CONVERGENCE = {
    (8, 1.0, 1e-08): (
        [0.35506797822131625, 0.008474760272402578, 0.09034337151849121,
         0.044279775721747974, 0.02372504924721127, 0.023724838744983743],
        [None] * 6),
    (8, 1.0, 1.0): (
        [0.3578322206095821, 0.008739477092840654, 0.07267527630204329,
         0.036409547229193914, 0.10178230564484876, 0.0035018650816591684],
        [None] * 6),
    (8, 1e8, 1e-08): (
        [0.347402393237141, 0.008209439220398136, 0.12168431621155998,
         0.05971903556065266, 1.0205749433256186e-05, 0.0035179934045012785],
        [None] * 6),
    (8, 1e8, 1.0): (
        [0.3474023932388225, 0.008209439220347682, 0.12168431620470388,
         0.05971903555717321, 0.09995828837174321, 0.0034248005976121893],
        [None] * 6),
    (12, 1.0, 1e-08): (
        [0.12948886593137715, 0.0027418690900737177, 0.027635998440504583,
         0.015209373066912247, 0.006558734168923024, 0.006558620431784241],
        [2.487795716179785, 2.78310637920451, 2.921332593052753,
         2.635531725211048, 3.171009717612079, 3.1710306043978576]),
    (12, 1.0, 1.0): (
        [0.13028186333166147, 0.002759640237411945, 0.02352034482677105,
         0.013250327139304791, 0.052792859858545885, 0.0009261135325734335],
        [2.4918640741362377, 2.843031405569247, 2.7823244018751407,
         2.492961205954053, 1.6190303663172345, 3.2803171639733923]),
    (12, 1e8, 1e-08): (
        [0.12777436400523068, 0.0027449909624781667, 0.037796629853014595,
         0.019946019658191625, 5.2846688390401465e-06, 0.0009314472743155594],
        [2.4668406617342518, 2.701852297935926, 2.8836271098104334,
         2.7046007010434665, 1.6231761042720607, 3.2774866159491065]),
    (12, 1e8, 1.0): (
        [0.12777436400547582, 0.0027449909624605137, 0.03779662985264288,
         0.019946019657615825, 0.052430525775438004, 0.0009195878635355109],
        [2.466840661741458, 2.7018522979366293, 2.883627109695728,
         2.7046007009709676, 1.5914168571095184, 3.242875669885782]),
    (16, 1.0, 1e-08): (
        [0.06902645680661643, 0.0011649956023120417, 0.015089988634141334,
         0.008124689953390043, 0.00294483198747928, 0.002944755677159746],
        [2.1868065383147526, 2.975237622691856, 2.1033208272765185,
         2.1795043177095836, 2.783440240378611, 2.7834700377248853]),
    (16, 1.0, 1.0): (
        [0.06940814713287233, 0.0011746265899275946, 0.013155213235814252,
         0.007276310622728231, 0.02863874111093593, 0.00043871577047404015],
        [2.1888608594415992, 2.969076292824145, 2.019756236891202,
         2.083544120838966, 2.126012096968367, 2.597120739610148]),
    (16, 1e8, 1e-08): (
        [0.06824655794319727, 0.0011638512002950568, 0.021141125435354173,
         0.010741721182002529, 2.8649372045908327e-06, 0.00044118780565101563],
        [2.179972224588049, 2.9826094790894264, 2.0195896118995065,
         2.1513133126536497, 2.1282644406433406, 2.59755128685881]),
    (16, 1e8, 1.0): (
        [0.06824655794319644, 0.0011638512002984259, 0.021141125435511967,
         0.010741721182024691, 0.02851809473499253, 0.0004364171969661308],
        [2.17997222459476, 2.98260947905701, 2.019589611839376,
         2.1513133125461312, 2.1167470767096903, 2.590800772845829]),
}

# delta -> (err_u_star, err_pT_star, err_pF_star, err_u_L2, kappa), stabilized arm
SWEEP_STABILIZED = {
    0.1: (0.06840746674472402, 0.013316544991195922, 0.02784282899948648,
          0.0011372074856658078, 653978.6070886564),
    0.3: (0.06954125725504397, 0.013199390053253166, 0.030767714362315374,
          0.0011849539654047588, 557080.2834978644),
}


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text):
    return None if text == "" else float(text)


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    cmd_convergence(RunConfig.from_dict(
        {"convergence": {"ladder": [8, 12, 16], "subdiv": 3}}), out / "conv")
    cmd_sweep(RunConfig.from_dict({"sweep": {"n": 16, "deltas": [0.1, 0.3]}}),
              out / "sweep")
    return _read(out / "conv" / "convergence.csv"), _read(out / "sweep" / "sweep.csv")


def test_convergence_golden_values(small_runs):
    rows, _ = small_runs
    assert len(rows) == len(CONVERGENCE)
    for r in rows:
        errs, eocs = CONVERGENCE[(int(r["N"]), float(r["lambda"]), float(r["K"]))]
        for name, want_err, want_eoc in zip(ERR_NAMES, errs, eocs):
            assert float(r[name]) == pytest.approx(want_err, rel=REL), (r["N"], name)
            got_eoc = _num(r[f"eoc_{name[4:]}"])
            if want_eoc is None:
                assert got_eoc is None
            else:
                assert got_eoc == pytest.approx(want_eoc, rel=REL), (r["N"], name)


def test_sweep_golden_values(small_runs):
    _, rows = small_runs
    assert [(float(r["delta"]), r["stabilized"]) for r in rows] == [
        (0.1, "true"), (0.1, "false"), (0.3, "true"), (0.3, "false")]
    stab = [r for r in rows if r["stabilized"] == "true"]
    for r in stab:
        got = [float(r[k]) for k in ("err_u_star", "err_pT_star", "err_pF_star",
                                     "err_u_L2", "kappa")]
        assert got == pytest.approx(SWEEP_STABILIZED[float(r["delta"])], rel=REL)
    kappa_median = float(np.median([float(r["kappa"]) for r in stab]))
    for r in rows:
        assert r["solver_status"] == "ok"
        if r["stabilized"] == "false":
            assert float(r["kappa"]) > 100.0 * kappa_median

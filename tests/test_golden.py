"""Golden values of two small CLI runs, pinned to guard refactors of assembly.

The numbers were produced with the cut-cell volume rule that merges the
inside sub-squares into quadtree blocks and with each boundary chord's own
normal, that of the clipped polygon, and kappa with the Lanczos that stops
once its Ritz residual is 1e-2 of its value; a refactor may change summation
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
        [0.35518293888328645, 0.008386872791807757, 0.09031621806259288,
         0.044020513674725384, 0.02364045520044481, 0.023640248499121365],
        [None] * 6),
    (8, 1.0, 1.0): (
        [0.35801308455714853, 0.008616777656580324, 0.07261806151974368,
         0.03620899017977014, 0.10167094565155345, 0.0035093713539848673],
        [None] * 6),
    (8, 1e8, 1e-08): (
        [0.3473770011796299, 0.008173295943703002, 0.12160468547615984,
         0.05930383969819402, 1.0195020552030843e-05, 0.0035226932393355183],
        [None] * 6),
    (8, 1e8, 1.0): (
        [0.3473770011821389, 0.008173295943569234, 0.12160468546424309,
         0.05930383969241439, 0.09983388973024618, 0.0034354014144219584],
        [None] * 6),
    (12, 1.0, 1e-08): (
        [0.12940487734730846, 0.0026941407346408952, 0.027549003915154104,
         0.015032288586509646, 0.006453140477086821, 0.006453032128942529],
        [2.490194307659222, 2.8007056124418845, 2.9283670608378265,
         2.6499327897619023, 3.2022300166437376, 3.2022498618710014]),
    (12, 1.0, 1.0): (
        [0.13021488121513283, 0.0027042918897953283, 0.023450413297603622,
         0.013117487985477074, 0.05257837912646474, 0.0009271353255470173],
        [2.4943786684967257, 2.8581277898046324, 2.7877258244468153,
         2.5041886824266006, 1.626370728882775, 3.282878440609449]),
    (12, 1e8, 1e-08): (
        [0.12764623127488342, 0.002714130995702519, 0.037724447099635905,
         0.019719077772205273, 5.261806020699537e-06, 0.0009320808699056129],
        [2.4691348516338283, 2.7188539749872573, 2.886727190050998,
         2.715615845394252, 1.6312750195504238, 3.27910217932651]),
    (12, 1e8, 1.0): (
        [0.12764623127509012, 0.0027141309956850083, 0.03772444709917,
         0.019719077771726268, 0.05223412970492784, 0.0009214096660422685],
        [2.469134851647647, 2.7188539749628045, 2.8867271898397706,
         2.715615845213801, 1.5976013278913288, 3.2456166722020328]),
    (16, 1.0, 1e-08): (
        [0.06900197218276348, 0.001143797112655341, 0.01504438206925607,
         0.008052234072392066, 0.0028863354493714995, 0.002886262650235108],
        [2.185784402445075, 2.9780298132600374, 2.1028830096627056,
         2.1699332089165777, 2.796765242294027, 2.7967945530691787]),
    (16, 1.0, 1.0): (
        [0.0693869981674509, 0.0011500009702310409, 0.01312545389638291,
         0.007226593287627178, 0.028530235009388547, 0.0004397622247785589],
        [2.188132577239352, 2.9722996168059206, 2.0172780457296438,
         2.072352168684332, 2.125056262091131, 2.5926723490003267]),
    (16, 1e8, 1e-08): (
        [0.06820810539653219, 0.0011500777303993406, 0.02109189863903145,
         0.010648065793845786, 2.853466772474332e-06, 0.0004423216145861532],
        [2.1784437548440705, 2.9846917044320356, 2.021048192265932,
         2.14197678935612, 2.127138636412009, 2.5909933231625293]),
    (16, 1e8, 1.0): (
        [0.06820810539563796, 0.0011500777305075488, 0.02109189864478515,
         0.010648065796757856, 0.028419364964805884, 0.0004374120390360222],
        [2.1784437548952718, 2.984691704082555, 2.021048191274761,
         2.1419767883210366, 2.1157568980727706, 2.58976551701413]),
}

# delta -> (err_u_star, err_pT_star, err_pF_star, err_u_L2, kappa), stabilized arm
SWEEP_STABILIZED = {
    0.1: (0.06837980344558853, 0.01329562094921968, 0.027734724815478857,
          0.001110586780690651, 653890.0404954144),
    0.3: (0.06949565993502502, 0.013174155668604541, 0.030665176369684213,
          0.001158892533604946, 556705.7808444293),
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
    cmd_sweep(RunConfig.from_dict({"mesh": {"subdiv": 3},
                                   "sweep": {"n": 16, "deltas": [0.1, 0.3]}}), out / "sweep")
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

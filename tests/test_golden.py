"""Golden values of two small CLI runs, pinned to guard refactors of assembly.

The numbers were produced with the cut-cell volume rule that merges the
inside sub-squares into quadtree blocks; a refactor may change summation
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
        [0.35506801261437443, 0.008474060021092689, 0.09034341616294331,
         0.04427988997234675, 0.02372498760367738, 0.0237247771012504],
        [None] * 6),
    (8, 1.0, 1.0): (
        [0.35783225610249464, 0.008738797459895378, 0.07267535196096575,
         0.03640969297732731, 0.10178170940376616, 0.0035012516571404037],
        [None] * 6),
    (8, 1e8, 1e-08): (
        [0.3474024307739953, 0.008208716375630759, 0.12168436354270533,
         0.05971912654061292, 1.0205689787070261e-05, 0.0035173833433506394],
        [None] * 6),
    (8, 1e8, 1.0): (
        [0.34740243077548805, 0.008208716375574205, 0.12168436353620073,
         0.059719126537324606, 0.0999577100317285, 0.0034241691523048735],
        [None] * 6),
    (12, 1.0, 1e-08): (
        [0.12948888163682168, 0.002741619649776098, 0.027636011684423454,
         0.015209402292831142, 0.006558700916592622, 0.006558587179148527],
        [2.4877956559411034, 2.783126966452522, 2.9213326298919893,
         2.635533349577349, 3.1710158135589586, 3.1710367005987976]),
    (12, 1.0, 1.0): (
        [0.13028187903508795, 0.0027593924717139087, 0.023520364585822427,
         0.013250362388206666, 0.05279276693913109, 0.0009258459851809771],
        [2.491864021491642, 2.8430610432141545, 2.7823248975303483,
         2.492964517672767, 1.6190202595450032, 3.2805977016515984]),
    (12, 1e8, 1e-08): (
        [0.12777437993473484, 0.0027447416857866768, 0.03779664168657467,
         0.019946042788014158, 5.284659538380908e-06, 0.0009311813282487722],
        [2.4668406207469045, 2.701859108097544, 2.8836272969574903,
         2.7046015983961893, 1.6231660307684073, 3.2777631705343624]),
    (12, 1e8, 1.0): (
        [0.12777437993504712, 0.002744741685758923, 0.03779664168519473,
         0.01994604278722876, 0.05243043768706012, 0.000919318113784565],
        [2.4668406207514737, 2.701859108105491, 2.8836272969156984,
         2.7046015983575007, 1.5914067311293036, 3.243144470731764]),
    (16, 1.0, 1e-08): (
        [0.06902646060292955, 0.0011649003382165014, 0.015089993552631627,
         0.008124700843845768, 0.002944819578055876, 0.0029447432675449737],
        [2.186806768742887, 2.9752056315529978, 2.1033213600976355,
         2.1795063378459156, 2.783437264980961, 2.7834670624652857]),
    (16, 1.0, 1.0): (
        [0.06940815092848378, 0.0011745321297097382, 0.013155220202065271,
         0.007276323297163085, 0.02863871433921509, 0.00043862094490430646],
        [2.1888610883361364, 2.969043737964918, 2.019757316347404,
         2.083547313078997, 2.126009228285442, 2.596867795424154]),
    (16, 1e8, 1e-08): (
        [0.06824656177063555, 0.0011637558053089192, 0.02114112952297445,
         0.01074172962369224, 2.8649345259546503e-06, 0.00044109352315890795],
        [2.1799724629988, 2.982578725310899, 2.019590028108273,
         2.151314611802784, 2.1282615730286265, 2.5973015819537406]),
    (16, 1e8, 1.0): (
        [0.06824656177069469, 0.0011637558053045525, 0.021141129522600603,
         0.010741729623489541, 0.028518069351559004, 0.0004363218201482551],
        [2.1799724630042836, 2.9825787252887936, 2.0195900280428325,
         2.151314611731504, 2.116744330565303, 2.590540722727996]),
}

# delta -> (err_u_star, err_pT_star, err_pF_star, err_u_L2, kappa), stabilized arm
SWEEP_STABILIZED = {
    0.1: (0.06840747035351391, 0.013316550864513187, 0.027842805427053814,
          0.0011371230622581618, 653978.6129356743),
    0.3: (0.0695412612234535, 0.013199394532338031, 0.03076769578334504,
          0.0011848652535201014, 557080.2893921714),
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

"""Properties the CLI outputs must have, computed from the CSV tables alone.

Each check returns a list of problems; an empty list means the table passes.
The rates are the ones the paper's estimates promise for Q2/Q1/Q2 elements
(k = 2, l = 2); the p_F L2 rule follows the regime rule of the acceptance
suite: where K*lambda >= 2h^2 at the finest level the gate is l + 1 - 0.3,
elsewhere p_F inherits the total-pressure rate k - 0.15 and must stay below
0.6 times the p_T L2 error.
"""

from __future__ import annotations

import csv
import math
import statistics
from pathlib import Path

ERR_NAMES = ("err_u_star", "err_u_L2", "err_pT_star", "err_pT_L2", "err_pF_star", "err_pF_L2")
STARRED = ("err_u_star", "err_pT_star", "err_pF_star")

RATE_STAR = 1.85
RATE_U_L2 = 2.7
RATE_PF_L2 = 2.7
RATE_PF_L2_MASS = 1.85
PF_PT_RATIO_MASS = 0.6
COMBO_SPREAD = 2.0
RESIDUAL_TOL = 1e-9
SWEEP_ERR_SPREAD = 3.0
SWEEP_KAPPA_SPREAD = 10.0
UNSTABLE_FACTOR = 100.0
AREA_TOL = 1e-3


def _value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: Path) -> list[dict]:
    """Rows of a CLI CSV file with numbers, booleans and blanks decoded."""
    with open(path, newline="") as fh:
        return [{k: _value(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _spread(values) -> float:
    return max(values) / min(values)


def _ladder_combos(rows: list[dict]) -> dict[tuple, list[dict]]:
    combos: dict[tuple, list[dict]] = {}
    for r in rows:
        combos.setdefault((r["lambda"], r["K"]), []).append(r)
    for combo_rows in combos.values():
        combo_rows.sort(key=lambda r: r["N"])
    return combos


def check_ladder(rows: list[dict], spread_level: int) -> list[str]:
    """Rates, monotone errors and parameter robustness of a convergence table."""
    problems = []
    combos = _ladder_combos(rows)
    for (lam, K), combo_rows in combos.items():
        tag = f"lambda={lam:g} K={K:g}"
        last = combo_rows[-1]
        gates = {"eoc_u_star": RATE_STAR, "eoc_pT_star": RATE_STAR,
                 "eoc_pF_star": RATE_STAR, "eoc_u_L2": RATE_U_L2}
        mass_regime = K * lam < 2.0 * last["h"] ** 2
        gates["eoc_pF_L2"] = RATE_PF_L2_MASS if mass_regime else RATE_PF_L2
        for name, gate in gates.items():
            rate = last[name]
            if rate is None or not rate >= gate:
                problems.append(f"{tag}: final {name} = {rate} below {gate}")
        if mass_regime and not last["err_pF_L2"] <= PF_PT_RATIO_MASS * last["err_pT_L2"]:
            problems.append(f"{tag}: err_pF_L2 {last['err_pF_L2']:.3e} above "
                            f"{PF_PT_RATIO_MASS} * err_pT_L2 {last['err_pT_L2']:.3e}")
        for name in ERR_NAMES:
            errs = [r[name] for r in combo_rows]
            if not all(b < a for a, b in zip(errs, errs[1:])):
                problems.append(f"{tag}: {name} does not decrease with N: {errs}")
    at_level = [r for combo_rows in combos.values() for r in combo_rows
                if r["N"] == spread_level]
    if len(at_level) != len(combos):
        problems.append(f"level N={spread_level} missing from some (lambda, K) combinations")
    else:
        for name in ("err_u_star", "err_pT_star"):
            spread = _spread([r[name] for r in at_level])
            if not spread <= COMBO_SPREAD:
                problems.append(f"N={spread_level}: {name} varies by {spread:.3g}x "
                                f"over (lambda, K), above {COMBO_SPREAD}")
    return problems


def check_sweep(rows: list[dict]) -> list[str]:
    """Robustness of the stabilized arm and the blow-up of the unstabilized one."""
    problems = []
    ok = [r for r in rows if r["solver_status"] == "ok"]
    stab = [r for r in ok if r["stabilized"]]
    unstab = [r for r in ok if not r["stabilized"]]
    if not stab:
        return ["no stabilized arm finished"]
    for name, bound in [(n, SWEEP_ERR_SPREAD) for n in STARRED] + [("kappa", SWEEP_KAPPA_SPREAD)]:
        spread = _spread([r[name] for r in stab])
        if not spread <= bound:
            problems.append(f"stabilized {name} varies by {spread:.3g}x over the "
                            f"translations, above {bound}")
    medians = {name: statistics.median(r[name] for r in stab) for name in STARRED + ("kappa",)}
    blown = [r["delta"] for r in unstab
             if any(r[name] > UNSTABLE_FACTOR * medians[name] for name in medians)]
    if not blown:
        problems.append(f"no unstabilized arm exceeds {UNSTABLE_FACTOR:g}x the stabilized "
                        f"median kappa or starred error")
    return problems


def check_residual(residual_max: float) -> list[str]:
    if not residual_max <= RESIDUAL_TOL:
        return [f"relative residual {residual_max:.3e} above {RESIDUAL_TOL:g}"]
    return []


def domain_area(geometry: dict) -> float:
    """|circle of radius R minus the flower r0 + r1 cos(p theta)|."""
    r0, r1 = geometry["r0"], geometry["r1"]
    return math.pi * geometry["radius"] ** 2 - math.pi * (r0 * r0 + 0.5 * r1 * r1)


def check_areas(areas: list[float], geometry: dict) -> list[str]:
    exact = domain_area(geometry)
    return [f"cut-rule area {a:.6f} differs from {exact:.6f} by more than {AREA_TOL:g}"
            for a in areas if not abs(a - exact) <= AREA_TOL]

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from cutbiot.errors import SolverError
from cutbiot.forms import BlockSystem, FieldLayout, assemble_system
from cutbiot.geometry import ConstantLevelSet, LevelSetDomain, build_cut_rules, \
    make_flower_domain
from cutbiot.mesh import MeshConfig, build_mesh, classify, translate_box
from cutbiot.solver import estimate_condition, solve
from cutbiot.spaces import build_space, make_layout
from cutbiot.verification import make_case


def _toy_system(matrix, rhs):
    n = matrix.shape[0]
    return BlockSystem(matrix=sp.csr_matrix(matrix), rhs=rhs,
                       layout=FieldLayout(n, 0, 0), params=None)


def test_identity_system():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(40)
    rep = solve(_toy_system(np.eye(40), b))
    assert np.allclose(rep.x, b, atol=1e-14)
    assert rep.rel_residual <= 1e-15


def test_condition_identity_and_diag():
    b = np.ones(2)
    sys1 = _toy_system(np.eye(50), np.ones(50))
    assert estimate_condition(sys1) == pytest.approx(1.0, rel=1e-10)
    sys2 = _toy_system(np.diag([1.0, 1e6]), b)
    assert estimate_condition(sys2) == pytest.approx(1e6, rel=0.1)


def test_zero_rhs_gives_zero_solution(disc16, params, stab):
    system = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules,
                             params, stab)
    rep = solve(system)
    assert np.abs(rep.x).max() == 0.0


def test_manufactured_solve_residual(disc16, params, stab):
    case = make_case(params, "trig")
    system = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules,
                             params, stab, case.boundary_data())
    rep = solve(system)
    assert rep.rel_residual <= 1e-9
    assert rep.n == disc16.layout.total
    assert rep.factor_nnz > 0


def test_solve_deterministic(disc16, params, stab):
    case = make_case(params, "trig")
    system = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules,
                             params, stab, case.boundary_data())
    x1 = solve(system).x
    x2 = solve(system).x
    assert np.array_equal(x1, x2)


def test_singular_system_raises():
    # pure natural conditions on the whole box: rigid modes are unconstrained
    mesh = build_mesh([-1, -1], [1, 1], 4)
    dom = LevelSetDomain(ConstantLevelSet(-1.0))
    act = classify(mesh, dom)
    rules = build_cut_rules(act, dom)
    su, st, sf = build_space(act, 2, ncomp=2), build_space(act, 1), build_space(act, 2)
    from cutbiot.forms import PhysicalParams, StabilizationParams, BoundaryData

    prm, stb = PhysicalParams(), StabilizationParams()
    bd = BoundaryData.zero()
    bdata = BoundaryData(f=lambda p: np.tile([1.0, 0.0], (len(p), 1)), g=bd.g,
                         u_D=bd.u_D, g_N=bd.g_N, sigma_N=bd.sigma_N, p_FD=bd.p_FD)
    system = assemble_system(su, st, sf, rules, prm, stb, bdata)
    with pytest.raises(SolverError):
        solve(system)


def test_condition_stable_across_translations(flower_domain, stab):
    from cutbiot.forms import PhysicalParams

    prm = PhysicalParams()
    case = make_case(prm, "trig")
    kappas = []
    for j in range(6):
        cfg = translate_box(MeshConfig((-1.0, -1.0), (1.0, 1.0), 32), 0.11 * (j + 1))
        mesh = build_mesh(cfg.box_lo, cfg.box_hi, 32)
        act = classify(mesh, flower_domain)
        rules = build_cut_rules(act, flower_domain)
        su, st, sf = build_space(act, 2, 2), build_space(act, 1), build_space(act, 2)
        system = assemble_system(su, st, sf, rules, prm, stab, case.boundary_data())
        rep = solve(system)
        kappas.append(estimate_condition(system, lu=rep._lu))
    assert max(kappas) / min(kappas) <= 10.0

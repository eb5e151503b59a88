from __future__ import annotations

import gc
import logging
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TrackedLU, _discretize
from cutbiot import solver
from cutbiot.errors import SolverError
from cutbiot.forms import BlockSystem, FieldLayout, PhysicalParams, StabilizationParams, \
    apply_groups, assemble_rhs, assemble_system, group_terms, with_params
from cutbiot.geometry import ConstantLevelSet, LevelSetDomain, build_cut_rules, \
    make_flower_domain
from cutbiot.mesh import MeshConfig, build_mesh, classify, translate_box
from cutbiot.solver import estimate_condition, solve, solve_params
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
    case = make_case("trig")
    system = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules,
                             params, stab, case.boundary_data())
    rep = solve(system)
    assert rep.rel_residual <= 1e-9
    assert len(rep.x) == disc16.layout.total
    assert rep.factor_nnz > 0


def test_solve_deterministic(disc16, params, stab):
    case = make_case("trig")
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
    bdata = BoundaryData(f=lambda p, prm: np.tile([1.0, 0.0], (len(p), 1)), g=bd.g,
                         u_D=bd.u_D, g_N=bd.g_N, sigma_N=bd.sigma_N, p_FD=bd.p_FD)
    system = assemble_system(su, st, sf, rules, prm, stb, bdata)
    with pytest.raises(SolverError):
        solve(system)


def test_condition_stable_across_translations(flower_domain, stab):
    from cutbiot.forms import PhysicalParams

    prm = PhysicalParams()
    case = make_case("trig")
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


def _trig_system(disc, prm, stab):
    case = make_case("trig")
    return assemble_system(disc.su, disc.st, disc.sf, disc.rules, prm, stab,
                           case.boundary_data())


@pytest.mark.parametrize("lam", [1.0, 1e8])
@pytest.mark.parametrize("K", [1.0, 1e-8])
def test_symmetric_ordering_passes_and_fills_less(disc16, stab, lam, K):
    system = _trig_system(disc16, PhysicalParams(mu=1.0, lam=lam, K=K), stab)
    rep = solve(system)
    assert rep.ordering == "MMD_AT_PLUS_A"
    assert rep.rel_residual <= 1e-9
    colamd = spla.splu(system.matrix.tocsc())
    assert rep.factor_nnz < colamd.L.nnz + colamd.U.nnz


class _OffsetLU:
    """A factor whose solutions are shifted by a constant, so they miss the check."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b):
        return self._lu.solve(b) + 1e-3


class _DoublingLU(_OffsetLU):
    """A linear but wrong factor: it solves a zero right-hand side exactly."""

    def solve(self, b):
        return 2.0 * self._lu.solve(b)


def test_fallback_when_symmetric_factorization_raises(monkeypatch, caplog, disc16,
                                                      params, stab):
    def failing(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver, "_symmetric_lu", failing)
    system = _trig_system(disc16, params, stab)
    with caplog.at_level(logging.WARNING, logger="cutbiot.solver"):
        rep = solve(system)
    assert rep.ordering == "COLAMD"
    assert rep.rel_residual <= 1e-9
    assert "Factor is exactly singular" in caplog.text


@pytest.mark.parametrize("bad_lu, with_load", [(_OffsetLU, True), (_DoublingLU, False)],
                         ids=["offset", "zero_rhs_linear"])
def test_fallback_when_symmetric_solution_misses_residual(monkeypatch, caplog, disc16,
                                                          params, stab, bad_lu, with_load):
    rejected = []

    def bad_symmetric(matrix):
        lu = bad_lu(real_splu(matrix, permc_spec="MMD_AT_PLUS_A",
                              diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)))
        rejected.append(weakref.ref(lu))
        return lu

    def fallback_splu(matrix, *args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in rejected), "rejected factor still alive"
        return real_splu(matrix, *args, **kwargs)

    real_splu = spla.splu
    monkeypatch.setattr(solver, "_symmetric_lu", bad_symmetric)
    monkeypatch.setattr(solver.spla, "splu", fallback_splu)
    system = _trig_system(disc16, params, stab) if with_load else \
        assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules, params, stab)
    with caplog.at_level(logging.WARNING, logger="cutbiot.solver"):
        rep = solve(system)
    assert len(rejected) == 1
    assert rep.ordering == "COLAMD"
    assert rep.rel_residual <= 1e-9
    assert "relative residual" in caplog.text


class _NoCopyLU:
    """Forwards to a SuperLU factor, but fails on `.L` or `.U` while `armed`."""

    armed = True

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        if name in ("L", "U") and self.armed:
            raise AssertionError(f"solve built a copy of the factor's {name}")
        return getattr(self._lu, name)


def test_solve_builds_no_factor_copies(monkeypatch, disc16, params, stab):
    proxies = []

    def proxied(matrix):
        proxies.append(_NoCopyLU(real(matrix)))
        return proxies[-1]

    real = solver._symmetric_lu
    monkeypatch.setattr(solver, "_symmetric_lu", proxied)
    rep = solve(_trig_system(disc16, params, stab))
    [proxy] = proxies
    assert rep.ordering == "MMD_AT_PLUS_A" and rep._lu is proxy
    proxy.armed = False  # the count is made when read, with the same definition
    assert rep.factor_nnz == proxy.L.nnz + proxy.U.nnz > 0


def test_condition_estimate_factors_through_solve_path(monkeypatch, disc16, params, stab):
    system = _trig_system(disc16, params, stab)
    attempts = []

    def counting(matrix):
        attempts.append(matrix.shape)
        return real(matrix)

    real = solver._symmetric_lu
    monkeypatch.setattr(solver, "_symmetric_lu", counting)
    kappa = estimate_condition(system)
    assert attempts == [system.matrix.shape]
    assert kappa == pytest.approx(estimate_condition(system, lu=solve(system)._lu), rel=1e-8)


def test_condition_estimate_rejects_unverified_factors(monkeypatch, disc16, params, stab):
    # both attempts make factors that fail the residual check; the estimate
    # must not run on either of them
    real_splu = spla.splu
    monkeypatch.setattr(solver, "_symmetric_lu", lambda matrix: _OffsetLU(real_splu(matrix)))
    monkeypatch.setattr(solver.spla, "splu",
                        lambda matrix, *a, **kw: _OffsetLU(real_splu(matrix, *a, **kw)))
    system = _trig_system(disc16, params, stab)
    with pytest.raises(SolverError):
        solve(system)
    with pytest.raises(SolverError):
        estimate_condition(system)


# ---------------------------------------------------------------------------
# lockstep MINRES over a level's (lambda, K) pairs

PAIRS = [PhysicalParams(lam=lam, K=K) for lam in (1.0, 1e8) for K in (1.0, 1e-8)]


def _level(disc, include_ghost=True):
    """The unit-parameter system of `disc` and its four (lambda, K) load vectors."""
    stb = StabilizationParams()
    base = assemble_system(disc.su, disc.st, disc.sf, disc.rules, PhysicalParams(), stb,
                           include_ghost=include_ghost)
    rhs = assemble_rhs(disc.su, disc.st, disc.sf, disc.rules, stb, PAIRS,
                       make_case("trig").boundary_data())
    return base, rhs


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(derandomize=True, deadline=None, database=None, max_examples=6)
@given(n=st.sampled_from([8, 12, 16]), delta=st.floats(0.0, 0.99))
def test_minres_steps_bounded_and_solutions_match_direct(n, delta):
    base, rhs = _level(_discretize(n, delta=delta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = solve_params(base, PAIRS, rhs)
    groups = group_terms(base.parts, PAIRS)
    X = np.random.default_rng(n).standard_normal((base.layout.total, len(PAIRS)))
    Y = apply_groups(groups, base.layout, X)
    for s, (prm, b, rep) in enumerate(zip(PAIRS, rhs, reports)):
        assert rep.ordering == "MINRES" and rep.steps <= 80, (prm, rep.steps)
        assert rep.rel_residual <= solver.RESIDUAL_TOL
        system = with_params(base, prm, b)
        assert _rel(rep.x, solve(system).x) <= 1e-9
        assert _rel(Y[:, s], system.matrix @ X[:, s]) <= 1e-13


def _caught(caplog, disc, **level):
    """solve_params on `disc` with numpy warnings raised, its warnings captured."""
    base, rhs = _level(disc, **level)
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="cutbiot.solver"):
        warnings.simplefilter("error")
        return base, rhs, solve_params(base, PAIRS, rhs)


def _assert_direct(base, rhs, reports):
    for prm, b, rep in zip(PAIRS, rhs, reports):
        assert rep.ordering == "MMD_AT_PLUS_A" and rep._lu is None
        assert np.array_equal(rep.x, solve(with_params(base, prm, b)).x)


@pytest.mark.parametrize("name, value, reason", [
    ("MINRES_MAX_STEPS", 1, "no convergence in 1 steps"),
    ("MINRES_RTOL", 1e-2, "relative residual"),  # stops early, then fails the check
], ids=["step_cap", "residual_check"])
def test_unconverged_pairs_sent_to_direct(monkeypatch, caplog, disc12, name, value, reason):
    monkeypatch.setattr(solver, name, value)
    base, rhs, reports = _caught(caplog, disc12)
    assert caplog.text.count(reason) == 4
    _assert_direct(base, rhs, reports)


def test_breakdown_detected_and_sent_to_direct(monkeypatch, caplog, disc12):
    # an indefinite preconditioner makes beta^2 < 0 in the first step
    real = solver._BlockPreconditioner.__call__
    monkeypatch.setattr(solver._BlockPreconditioner, "__call__",
                        lambda self, R, cols: -real(self, R, cols))
    base, rhs, reports = _caught(caplog, disc12)
    assert caplog.text.count("breakdown before the first step") == 4
    _assert_direct(base, rhs, reports)


def test_unstabilized_level_passes_the_residual_check(caplog, disc32):
    # here the (lambda, K) = (1, 1e-8) column breaks down within its first
    # steps, with numpy warnings raised as errors, and is solved directly
    base, rhs, reports = _caught(caplog, disc32, include_ghost=False)
    assert "breakdown at step" in caplog.text
    for prm, b, rep in zip(PAIRS, rhs, reports):
        system = with_params(base, prm, b)
        rel = np.linalg.norm(system.matrix @ rep.x - b) / np.linalg.norm(b)
        assert rel <= solver.RESIDUAL_TOL and rep.rel_residual <= solver.RESIDUAL_TOL


def test_minres_factors_freed_before_the_fallback_factor(monkeypatch, disc12):
    base, rhs = _level(disc12)
    minres_factors, direct_factors = [], []

    def tracked(matrix):
        if matrix.shape[0] == base.layout.total:  # a fallback factors the whole system
            gc.collect()
            assert all(ref() is None for ref in minres_factors), "MINRES factor alive"
            target = direct_factors
        else:
            target = minres_factors
        lu = TrackedLU(real(matrix))
        target.append(weakref.ref(lu))
        return lu

    real = solver._symmetric_lu
    monkeypatch.setattr(solver, "_symmetric_lu", tracked)
    monkeypatch.setattr(solver, "MINRES_MAX_STEPS", 1)
    reports = solve_params(base, PAIRS, rhs)
    assert len(minres_factors) == 1 + 2 * len(PAIRS) and len(direct_factors) == len(PAIRS)
    gc.collect()
    assert all(ref() is None for ref in direct_factors), "a report keeps its factor"
    assert [rep.ordering for rep in reports] == ["MMD_AT_PLUS_A"] * 4

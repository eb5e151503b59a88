from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from conftest import _discretize
from cutbiot import cli
from cutbiot.errors import ConfigurationError
from cutbiot.forms import (PhysicalParams, StabilizationParams, assemble_rhs, assemble_system,
                           quadrature_table)
from cutbiot.geometry import TAG_DIRICHLET, TAG_STRESS
from cutbiot.solver import solve, solve_params
from cutbiot.verification import eoc, error_norms, make_case

from oracles import OMEGA_AREA


def test_trig_case_divergence_free(params):
    case = make_case("trig")
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (500, 2))
    assert np.abs(case.div_u(pts)).max() == 0.0
    assert np.abs(case.p_T(pts, params) - case.p_F(pts)).max() == 0.0  # lambda drops out


@pytest.mark.parametrize("name,prm", [
    ("trig", PhysicalParams(1.0, 1.0, 1.0)),
    ("trig", PhysicalParams(2.0, 1e8, 1e-8)),
    ("trig_div", PhysicalParams(1.0, 1.0, 1.0)),
    ("trig_div", PhysicalParams(0.5, 37.0, 0.2)),
])
def test_strong_residuals_vanish(name, prm):
    case = make_case(name)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (1000, 2))
    r1, r2, r3 = case.strong_residuals(pts, prm)
    scale = max(1.0, np.abs(case.f(pts, prm)).max(), np.abs(case.g(pts, prm)).max())
    assert np.abs(r1).max() <= 1e-10 * scale
    assert np.abs(r2).max() <= 1e-10 * scale
    assert np.abs(r3).max() <= 1e-10 * scale


def test_derivatives_match_finite_differences():
    case = make_case("trig_div")
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.9, 0.9, (200, 2))
    eps = 1e-6

    def fd_vec(f, comp=None):
        gx = (f(pts + [eps, 0]) - f(pts - [eps, 0])) / (2 * eps)
        gy = (f(pts + [0, eps]) - f(pts - [0, eps])) / (2 * eps)
        return gx, gy

    gx, gy = fd_vec(case.p_F)
    assert np.abs(case.grad_p_F(pts) - np.column_stack([gx, gy])).max() < 1e-6
    gu = case.grad_u(pts)
    for c in range(2):
        gx, gy = fd_vec(lambda p, c=c: case.u(p)[:, c])
        assert np.abs(gu[:, c, 0] - gx).max() < 1e-6
        assert np.abs(gu[:, c, 1] - gy).max() < 1e-6
    lap_fd = (case.p_F(pts + [eps, 0]) + case.p_F(pts - [eps, 0])
              + case.p_F(pts + [0, eps]) + case.p_F(pts - [0, eps])
              - 4 * case.p_F(pts)) / eps ** 2
    assert np.abs(case.lap_p_F(pts) - lap_fd).max() < 1e-3


def test_unknown_case_rejected():
    with pytest.raises(ConfigurationError):
        make_case("nope")


class _FieldCase:
    """Duck-typed case with prescribed fields, for norm checks."""

    def __init__(self, u=None, p_t=None, p_f=None):
        self._u = u or (lambda p: np.zeros((len(p), 2)))
        self._pt = p_t or (lambda p: np.zeros(len(p)))
        self._pf = p_f or (lambda p: np.zeros(len(p)))

    def u(self, p):
        return self._u(p)

    def grad_u(self, p):
        eps = 1e-7
        gx = (self._u(p + [eps, 0]) - self._u(p - [eps, 0])) / (2 * eps)
        gy = (self._u(p + [0, eps]) - self._u(p - [0, eps])) / (2 * eps)
        return np.stack([gx, gy], axis=-1)

    def p_T(self, p, prm):
        return self._pt(p)

    def p_F(self, p):
        return self._pf(p)

    def grad_p_F(self, p):
        eps = 1e-7
        gx = (self._pf(p + [eps, 0]) - self._pf(p - [eps, 0])) / (2 * eps)
        gy = (self._pf(p + [0, eps]) - self._pf(p - [0, eps])) / (2 * eps)
        return np.column_stack([gx, gy])


def test_error_norm_of_unit_field_is_area(disc16, params, stab):
    # |1|_L2(Omega)^2 = |Omega|
    case = _FieldCase(p_f=lambda p: np.ones(len(p)))
    x = np.zeros(disc16.layout.total)
    [rep] = error_norms(x[None], [params], case, disc16.su, disc16.st, disc16.sf,
                        disc16.rules, stab)
    assert rep["err_pF_L2"] ** 2 == pytest.approx(OMEGA_AREA, abs=1e-3)


def test_error_norms_zero_for_representable_fields(disc16, params, stab):
    # exact interpolant of Q2-representable fields has zero error
    u_poly = lambda p: np.column_stack([p[:, 0] ** 2 - p[:, 1], p[:, 0] * p[:, 1]])
    pt_poly = lambda p: 1.0 - 0.5 * p[:, 1]
    pf_poly = lambda p: p[:, 0] * p[:, 1] + 2.0

    class _PolyCase(_FieldCase):
        def grad_u(self, p):
            g = np.zeros((len(p), 2, 2))
            g[:, 0, 0] = 2 * p[:, 0]
            g[:, 0, 1] = -1.0
            g[:, 1, 0] = p[:, 1]
            g[:, 1, 1] = p[:, 0]
            return g

        def grad_p_F(self, p):
            return np.column_stack([p[:, 1], p[:, 0]])

    case = _PolyCase(u=u_poly, p_t=pt_poly, p_f=pf_poly)
    x = np.concatenate([disc16.su.interpolate(u_poly),
                        disc16.st.interpolate(pt_poly),
                        disc16.sf.interpolate(pf_poly)])
    [rep] = error_norms(x[None], [params], case, disc16.su, disc16.st, disc16.sf,
                        disc16.rules, stab)
    for name in ("err_u_star", "err_u_L2", "err_pT_star", "err_pF_star", "err_pF_L2"):
        assert rep[name] < 1e-10


def test_lambda_weight_in_f_norm(disc16, stab):
    # with K=0 the starred F-norm collapses to lambda^{-1/2} L2
    case = _FieldCase(p_f=lambda p: np.ones(len(p)))
    x = np.zeros(disc16.layout.total)
    [rep] = error_norms(x[None], [PhysicalParams(lam=1e8, K=0.0)], case, disc16.su,
                        disc16.st, disc16.sf, disc16.rules, stab)
    assert rep["err_pF_star"] <= 1e-4 * rep["err_pF_L2"] + 1e-15


def test_starred_norms_dominate(disc16, params, stab):
    case = make_case("trig")
    system = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules,
                             params, stab, case)
    rep = solve(system)
    [err] = error_norms(rep.x[None], [params], case, disc16.su, disc16.st, disc16.sf,
                        disc16.rules, stab)
    assert err["err_pT_star"] >= err["err_pT_L2"]
    assert all(v >= 0 for v in err.values())


def test_error_norms_keyed_by_the_cli_columns(disc8, params, stab):
    [err] = error_norms(np.zeros((1, disc8.layout.total)), [params], make_case("trig"),
                        disc8.su, disc8.st, disc8.sf, disc8.rules, stab)
    assert tuple(err) == cli.ERR_NAMES


def test_error_norms_needs_one_case_per_solution(disc8, params, stab):
    d = disc8
    for xs, prms in ((np.zeros((2, d.layout.total)), [params]),
                     (np.zeros((1, d.layout.total)), [params, params]),
                     (np.zeros((0, d.layout.total)), [])):
        with pytest.raises(ConfigurationError, match="one solution per parameter set"):
            error_norms(xs, prms, make_case(), d.su, d.st, d.sf, d.rules, stab)


@pytest.mark.parametrize("extra", [-5, 7])
def test_error_norms_rejects_wrong_solution_length(disc8, params, stab, extra):
    # 801 entries used to raise a bare IndexError, 813 to pass with the tail ignored
    d = disc8
    assert d.layout.total == 806
    x = np.zeros((1, d.layout.total + extra))
    with pytest.raises(ConfigurationError, match="shape \\(806,\\)"):
        error_norms(x, [params], make_case(), d.su, d.st, d.sf, d.rules, stab)


class _CountingCase:
    """A case whose analytic fields count their calls."""

    def __init__(self, case):
        self.case, self.calls = case, Counter()

    def __getattr__(self, name):
        field = getattr(self.case, name)

        def counted(*args):
            self.calls[name] += 1
            return field(*args)
        return counted


def test_error_norms_evaluates_parameter_free_fields_once(disc8, stab):
    # over S = 4 parameter sets, u, grad_u, p_F and grad_p_F are evaluated once
    # per point group, not once per parameter set; p_T once per set and group
    d = disc8
    prms = [PhysicalParams(lam=lam, K=K) for lam in (1.0, 1e8) for K in (1.0, 1e-8)]
    case = _CountingCase(make_case("trig_div"))
    error_norms(np.zeros((len(prms), d.layout.total)), prms, case, d.su, d.st, d.sf,
                d.rules, stab)
    groups = sum(len(quadrature_table(d.active, d.rules, tag))
                 for tag in (None, TAG_DIRICHLET, TAG_STRESS))
    assert groups >= 3
    assert dict(case.calls) == {"u": groups, "grad_u": groups, "p_F": groups,
                                "grad_p_F": groups, "p_T": len(prms) * groups}


def test_eoc_formula():
    assert eoc([(0.2, 0.1), (0.1, 0.05)]) == [pytest.approx(1.0)]
    assert eoc([(0.2, 0.1), (0.1, 0.025)]) == [pytest.approx(2.0)]
    # reported 3D values: u-energy errors 1.89e-1 -> 4.21e-2 over one halving
    rate = eoc([(1.0, 1.89e-1), (0.5, 4.21e-2)])[0]
    assert rate == pytest.approx(2.17, abs=0.005)


def test_eoc_validation_and_saturation():
    with pytest.raises(ConfigurationError):
        eoc([(0.1, 1.0)])
    with pytest.raises(ConfigurationError):
        eoc([(0.1, 1.0), (0.2, 0.5)])
    rates = eoc([(0.2, 0.1), (0.1, 0.0)])
    assert math.isnan(rates[0])


def test_galerkin_residual_small_and_gamma_independent(disc16, params):
    case = make_case("trig")
    for scale in (1.0, 2.0):
        stab = StabilizationParams(gamma_u=40.0 * scale, gamma_p=40.0 * scale)
        system = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules,
                                 params, stab, case)
        rep = solve(system)
        res = np.abs(system.matrix @ rep.x - system.rhs).max()
        assert res <= 1e-8 * np.abs(system.rhs).max()


def test_galerkin_residual_zero_data(disc16, params, stab):
    system = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules,
                             params, stab)
    rep = solve(system)
    assert np.abs(system.matrix @ rep.x - system.rhs).max() == 0.0


def test_divergence_variant_rates(flower_domain, stab):
    # the lambda-sensitive manufactured case keeps optimal starred rates
    from cutbiot.geometry import build_cut_rules
    from cutbiot.mesh import build_mesh, classify
    from cutbiot.spaces import build_space

    prm = PhysicalParams(mu=1.0, lam=10.0, K=1.0)
    case = make_case("trig_div")
    seq = {"err_u_star": [], "err_pT_star": [], "err_pF_star": [], "err_pF_L2": []}
    for n in (16, 32, 64):
        mesh = build_mesh([-1, -1], [1, 1], n)
        act = classify(mesh, flower_domain)
        rules = build_cut_rules(act, flower_domain)
        su, st, sf = build_space(act, 2, 2), build_space(act, 1), build_space(act, 2)
        system = assemble_system(su, st, sf, rules, prm, stab, case)
        rep = solve(system)
        [err] = error_norms(rep.x[None], [prm], case, su, st, sf, rules, stab)
        for k in seq:
            seq[k].append((rules.h, err[k]))
    for k, gate in [("err_u_star", 1.85), ("err_pT_star", 1.85), ("err_pF_star", 1.85),
                    ("err_pF_L2", 2.5)]:
        assert eoc(seq[k])[-1] >= gate, (k, seq[k])


def _lambda_errors(n, subdiv, lams, stab):
    """The trig_div errors at mu = K = 1 and each lambda, from one solve_params call."""
    d = _discretize(n, subdiv=subdiv)
    prms = [PhysicalParams(mu=1.0, lam=lam, K=1.0) for lam in lams]
    case = make_case("trig_div")
    base = assemble_system(d.su, d.st, d.sf, d.rules, PhysicalParams(), stab)
    rhs = assemble_rhs(d.su, d.st, d.sf, d.rules, stab, prms, case)
    xs = np.array([rep.x for rep in solve_params(base, prms, rhs)])
    return error_norms(xs, prms, case, d.su, d.st, d.sf, d.rules, stab)


def test_lambda_sensitive_case_is_parameter_robust(stab):
    # p_T = p_F - 2 lambda x here, so the stress data grow with lambda: a
    # boundary normal other than the chord's own gave an err_u_star that grew
    # linearly in lambda (4.96e4 at lambda = 1e8 against 6.95e-2 at 1, N = 16)
    for n in (16, 32):
        errs = _lambda_errors(n, 3, (1.0, 1e4, 1e8), stab)
        for err in errs[1:]:
            assert 1 / 1.1 <= err["err_u_star"] / errs[0]["err_u_star"] <= 1.1, (n, err)
            assert 1 / 1.1 <= err["err_u_L2"] / errs[0]["err_u_L2"] <= 1.1, (n, err)
    [coarse], [fine] = (_lambda_errors(16, m, (1e8,), stab) for m in (2, 4))
    assert abs(fine["err_u_star"] - coarse["err_u_star"]) < 0.01 * fine["err_u_star"]

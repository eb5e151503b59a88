"""Manufactured solutions, discrete error norms, and consistency checks.

The trigonometric case reproduces the 2D benchmark fields; a second variant
adds a quadratic bulge to the first displacement component so that the
divergence (and hence the total pressure) carries an explicit lambda
dependence.  All derivatives are closed forms; the source terms f and g are
written out independently so the strong-form residual genuinely checks the
hand-coded calculus.  A case holds no material parameters; a field that
depends on them takes them last.  Error norms are weighted sums of pointwise
error densities over the same quadrature table and basis tabulation as
assembly.  `error_norms` measures S solutions of one case, one per parameter
set, in one pass that tabulates each point group and evaluates each
parameter-free field once.  `field_values` is the one evaluation of discrete
fields from that tabulation, also used for the CLI's point output.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .errors import ConfigurationError
from .forms import (BlockSystem, BoundaryData, PhysicalParams, StabilizationParams,
                    full_cell_matrix, quadrature_table, tabulate, tabulation_columns, with_params)
from .geometry import TAG_DIRICHLET, TAG_STRESS, CutRule
from .spaces import FeSpace, make_layout

PI = math.pi


class ManufacturedCase:
    """Analytic solution triple with derived data for the one-step system."""

    def __init__(self, bulge: bool = False, name: str = "trig"):
        self.bulge = bulge
        self.name = name

    # displacement -----------------------------------------------------
    def u(self, p):
        x, y = p[:, 0], p[:, 1]
        u0 = np.cos(PI * y)
        if self.bulge:
            u0 = u0 + x * x
        return np.column_stack([u0, np.sin(PI * x)])

    def grad_u(self, p):
        x, y = p[:, 0], p[:, 1]
        g = np.zeros((len(p), 2, 2))
        g[:, 0, 1] = -PI * np.sin(PI * y)
        g[:, 1, 0] = PI * np.cos(PI * x)
        if self.bulge:
            g[:, 0, 0] = 2.0 * x
        return g

    def eps_u(self, p):
        g = self.grad_u(p)
        return 0.5 * (g + np.transpose(g, (0, 2, 1)))

    def div_u(self, p):
        return 2.0 * p[:, 0] if self.bulge else np.zeros(len(p))

    def div_eps_u(self, p):
        x, y = p[:, 0], p[:, 1]
        r = np.column_stack([-0.5 * PI * PI * np.cos(PI * y),
                             -0.5 * PI * PI * np.sin(PI * x)])
        if self.bulge:
            r[:, 0] += 2.0
        return r

    # pressures ----------------------------------------------------------
    def p_F(self, p):
        return np.sin(PI * p[:, 0]) * np.sin(PI * p[:, 1])

    def grad_p_F(self, p):
        x, y = p[:, 0], p[:, 1]
        return PI * np.column_stack([np.cos(PI * x) * np.sin(PI * y),
                                     np.sin(PI * x) * np.cos(PI * y)])

    def lap_p_F(self, p):
        return -2.0 * PI * PI * self.p_F(p)

    def p_T(self, p, prm: PhysicalParams):
        return self.p_F(p) - prm.lam * self.div_u(p)

    def grad_p_T(self, p, prm: PhysicalParams):
        g = self.grad_p_F(p)
        if self.bulge:
            g = g.copy()
            g[:, 0] -= 2.0 * prm.lam
        return g

    # sources, written out explicitly ------------------------------------
    def f(self, p, prm: PhysicalParams):
        mu, lam = prm.mu, prm.lam
        x, y = p[:, 0], p[:, 1]
        f0 = 0.5 * mu * PI * PI * np.cos(PI * y) + PI * np.cos(PI * x) * np.sin(PI * y)
        f1 = 0.5 * mu * PI * PI * np.sin(PI * x) + PI * np.sin(PI * x) * np.cos(PI * y)
        if self.bulge:
            f0 = f0 - 2.0 * mu - 2.0 * lam
        return np.column_stack([f0, f1])

    def g(self, p, prm: PhysicalParams):
        lam, K = prm.lam, prm.K
        pf = np.sin(PI * p[:, 0]) * np.sin(PI * p[:, 1])
        out = -(1.0 / lam + 2.0 * PI * PI * K) * pf
        if self.bulge:
            out = out - 2.0 * p[:, 0]
        return out

    # traces and data ------------------------------------------------------
    def sigma_N(self, p, normals, prm: PhysicalParams):
        t = prm.mu * self.eps_u(p) - self.p_T(p, prm)[:, None, None] * np.eye(2)
        return np.einsum("nij,nj->ni", t, normals)

    def g_N(self, p, normals, prm: PhysicalParams):
        return prm.K * np.einsum("nk,nk->n", self.grad_p_F(p), normals)

    def boundary_data(self) -> BoundaryData:
        return BoundaryData(f=self.f, g=self.g, u_D=self.u, g_N=self.g_N,
                            sigma_N=self.sigma_N, p_FD=self.p_F)

    def strong_residuals(self, p, prm: PhysicalParams):
        """Pointwise residuals of the three strong equations; ~0 by calculus."""
        r1 = -prm.mu * self.div_eps_u(p) + self.grad_p_T(p, prm) - self.f(p, prm)
        r2 = -self.div_u(p) - self.p_T(p, prm) / prm.lam + self.p_F(p) / prm.lam
        r3 = (self.p_T(p, prm) - 2.0 * self.p_F(p)) / prm.lam \
            + prm.K * self.lap_p_F(p) - self.g(p, prm)
        return r1, r2, r3


CASE_NAMES = ("trig", "trig_div")


def make_case(name: str = "trig") -> ManufacturedCase:
    """Manufactured cases: `trig` (divergence-free) and `trig_div` (lambda-sensitive)."""
    if name in CASE_NAMES:
        return ManufacturedCase(bulge=name == "trig_div", name=name)
    raise ConfigurationError(f"unknown manufactured case {name!r}")


# ---------------------------------------------------------------------------
# error norms

@dataclass(frozen=True)
class ErrorReport:
    """Discrete-norm, starred-norm and L2 errors for one solve."""

    u_V: float
    u_star: float
    u_L2: float
    pT_L2: float
    pT_star: float
    pF_F: float
    pF_star: float
    pF_L2: float

    def as_dict(self) -> dict:
        return {
            "err_u_star": self.u_star, "err_u_L2": self.u_L2,
            "err_pT_star": self.pT_star, "err_pT_L2": self.pT_L2,
            "err_pF_star": self.pF_star, "err_pF_L2": self.pF_L2,
        }


def field_values(space: FeSpace, coeffs: np.ndarray, cells: np.ndarray, B: np.ndarray,
                 cols: dict) -> np.ndarray:
    """[v, dv/dx, dv/dy] (S, nc, nq, 3) of S scalar fields with node coefficients
    `coeffs` (S, n), from the stack B that `tabulate` yields for `cells`."""
    c = coeffs[:, space.cell_dofs[space._cell_row[cells]]].transpose(1, 2, 0)  # (nc, nloc, S)
    return np.stack([(B[:, :, cols[kind, space.degree]] @ c).transpose(2, 0, 1)
                     for kind in "Nxy"], axis=-1)


def error_norms(xs: np.ndarray, params: Sequence[PhysicalParams], case: ManufacturedCase,
                space_u: FeSpace, space_t: FeSpace, space_f: FeSpace, rules: CutRule,
                stab: StabilizationParams) -> list[ErrorReport]:
    """Quadrature evaluation of all error norms, one report per solution.

    `xs` (S, total) stacks S solutions, row s measured against `case` at
    `params[s]` in the norms weighted by those parameters.  One pass per
    table (volume, Dirichlet part, stress part) over the same point-count
    groups the assembly uses tabulates each group once for all S solutions
    and evaluates each parameter-free field of the case once, p_T once per
    parameter set; each norm is a weighted sum of a pointwise error density.
    """
    layout = make_layout(space_u, space_t, space_f)
    if len(xs) != len(params) or not len(params):
        raise ConfigurationError(f"need one solution per parameter set and at least one, "
                                 f"got {len(xs)} and {len(params)}")
    if any(np.shape(x) != (layout.total,) for x in xs):
        raise ConfigurationError(f"solutions must have shape ({layout.total},), "
                                 f"got {[np.shape(x) for x in xs]}")
    xs = np.asarray(xs, dtype=float)
    xu, xt, xf = xs[:, layout.s_u], xs[:, layout.s_t], xs[:, layout.s_f]
    h = rules.h
    spaces = (space_u, space_t, space_f)
    cols = tabulation_columns(spaces)
    acc = defaultdict(lambda: np.zeros(len(params)))  # summed densities, one per solution
    for tag in (None, TAG_DIRICHLET, TAG_STRESS):
        for g, B in tabulate(quadrature_table(space_u.active, rules, tag), spaces):
            p = g.pts.reshape(-1, 2)

            def exact(field, *prm):
                """One analytic field at the group's points, (nc, nq, ...)."""
                vals = field(p, *prm)
                return vals.reshape(*g.wts.shape, *vals.shape[1:])

            def err(space, coeffs, value, grad=None):
                """Value (S, nc, nq) and gradient (S, nc, nq, 2) errors of one scalar field."""
                v = field_values(space, coeffs, g.cells, B, cols)
                return value - v[..., 0], None if grad is None else grad - v[..., 1:]

            u, grad_u = exact(case.u), exact(case.grad_u)
            (e_u0, g_u0), (e_u1, g_u1) = (err(space_u, xu[:, i::2], u[..., i], grad_u[..., i, :])
                                          for i in (0, 1))
            e_t, _ = err(space_t, xt, np.stack([exact(case.p_T, prm) for prm in params]))
            e_f, g_f = err(space_f, xf, exact(case.p_F), exact(case.grad_p_F))
            if tag is None:
                e12 = 0.5 * (g_u0[..., 1] + g_u1[..., 0])
                dens = {"strain": g_u0[..., 0] ** 2 + g_u1[..., 1] ** 2 + 2.0 * e12 ** 2,
                        "uL2": e_u0 ** 2 + e_u1 ** 2, "TL2": e_t ** 2, "FL2": e_f ** 2,
                        "gradF": (g_f ** 2).sum(-1)}
            elif tag == TAG_DIRICHLET:
                dens = {"pen_u": e_u0 ** 2 + e_u1 ** 2, "T_bnd": e_t ** 2,
                        "flux_u": ((g_u0 * g.normals).sum(-1) ** 2
                                   + (g_u1 * g.normals).sum(-1) ** 2)}
            else:
                dens = {"pen_F": e_f ** 2, "flux_F": (g_f * g.normals).sum(-1) ** 2}
            for key, d in dens.items():
                acc[key] += (d * g.wts).sum(axis=(1, 2))

    mu, lam, K = np.array([(prm.mu, prm.lam, prm.K) for prm in params]).T
    uV2 = mu * acc["strain"] + stab.gamma_u * mu / h * acc["pen_u"]
    pF_F2 = K * acc["gradF"] + stab.gamma_p * K / h * acc["pen_F"] + acc["FL2"] / lam
    squares = {"u_V": uV2, "u_star": uV2 + mu * h * acc["flux_u"], "u_L2": acc["uL2"],
               "pT_L2": acc["TL2"], "pT_star": acc["TL2"] + h * acc["T_bnd"],
               "pF_F": pF_F2, "pF_star": pF_F2 + K * h * acc["flux_F"], "pF_L2": acc["FL2"]}
    return [ErrorReport(**{name: math.sqrt(sq[s]) for name, sq in squares.items()})
            for s in range(len(params))]


def eoc(levels: list[tuple[float, float]]) -> list[float]:
    """Experimental orders of convergence for a refinement series.

    Takes (h, E) pairs with strictly decreasing h and returns one rate per
    step, log(E_prev/E_next)/log(h_prev/h_next).  A zero error makes the
    rate undefined (saturated); it is reported as nan.
    """
    if len(levels) < 2:
        raise ConfigurationError("need at least two levels to compute EOC")
    hs = [lv[0] for lv in levels]
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ConfigurationError("mesh sizes must be strictly decreasing")
    rates = []
    for (h1, e1), (h2, e2) in zip(levels, levels[1:]):
        if e1 <= 0.0 or e2 <= 0.0:
            rates.append(float("nan"))
        else:
            rates.append(math.log(e1 / e2) / math.log(h1 / h2))
    return rates


def galerkin_residual(system: BlockSystem, x: np.ndarray) -> float:
    """Max-norm residual of the assembled equations at the discrete solution.

    Consistency check behind the weak orthogonality property: the residual
    must vanish to solver tolerance and be independent of the Nitsche
    penalties.
    """
    return float(np.abs(system.matrix @ x - system.rhs).max())


def infsup_constant(system: BlockSystem, space_t: FeSpace) -> float:
    """The discrete inf-sup constant beta_h of the displacement/total-pressure pair.

    beta_h^2 is the smallest eigenvalue of (B A^-1 B^T + G2) q = beta^2 M q at
    unit material parameters, with A the u-u block (ghost penalty g1
    included), B the p_T-u coupling, G2 the total-pressure ghost penalty
    (zero without ghost terms) and M the p_T mass over whole active cells.
    Dense, so meant for small meshes.
    """
    unit = with_params(system, PhysicalParams(), system.rhs)
    B = unit.block("pT", "u")
    schur = B @ spla.splu(unit.block("u", "u").tocsc()).solve(B.T.toarray())
    if "g2" in system.parts:
        schur += system.parts["g2"].toarray()
    M = full_cell_matrix(space_t).toarray()
    beta2 = scipy.linalg.eigh(0.5 * (schur + schur.T), M, eigvals_only=True,
                              subset_by_index=[0, 0])[0]
    return math.sqrt(max(beta2, 0.0))

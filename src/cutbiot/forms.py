"""Assembly of the discrete three-field Biot system.

Builds the elastic, coupling, mass and Darcy forms with Nitsche terms on the
tagged boundary parts, the facet-based ghost penalties with per-field
scalings, and the right-hand side, into one sparse symmetric indefinite
block system over the (u, p_T, p_F) layout.

Every cell integral runs through one quadrature table built per call from
the cut rules: interior cells carry the reference rule, cut cells their own,
boundary points also their normal and part tag.  Cells with equal point
counts form a group, tabulated once per degree as [N, dN/dx, dN/dy]; a
bilinear form is a slice or sum of the per-cell Gram matrices of that stack
(one batched matmul per group), a load term a weighted moment of it, and
each block one COO scatter.  `assemble_rhs` builds the load vectors of one
data object, one per parameter set, from one tabulation of each table.  Ghost
facets of equal orientation share one jump matrix, and one walk over them
serves the assembled penalty and the direct seminorm.  `_TERMS` is the only
record of where each term goes in the 3x3 system (row, column, sign), how it
scales with the material parameters and whether it is a ghost penalty.
`BlockSystem.parts` holds the blocks at mu = lambda = K = 1 and only
`compose_matrix` and `group_terms` apply material parameters to them; the
latter sums the parts that scale alike, so `apply_groups` applies the
matrices at several parameter sets to a block of vectors without composing
any of them.  Assembly is single-threaded and bitwise deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigurationError
from .geometry import TAG_DIRICHLET, TAG_STRESS, CutRule
from .mesh import ActiveMesh
from .quadrature import gauss_1d, tensor_square
from .spaces import FeSpace, FieldLayout, make_layout, ref_basis


@dataclass(frozen=True)
class PhysicalParams:
    """Material constants; alpha=1, c0=1/lambda and dt=1 are built in."""

    mu: float = 1.0
    lam: float = 1.0
    K: float = 1.0

    def __post_init__(self):
        if self.mu <= 0 or self.lam <= 0:
            raise ConfigurationError("mu and lambda must be positive")
        if self.K < 0:
            raise ConfigurationError(f"hydraulic conductivity K must be >= 0, got {self.K}")


@dataclass(frozen=True)
class StabilizationParams:
    """Nitsche penalties and ghost-penalty factors.

    gamma_g_u scales the displacement and fluid-pressure ghost penalties,
    gamma_g_p the total-pressure one; ghost_order caps the highest
    normal-derivative jump in the facet sums (per field it is additionally
    capped by the space degree).  On top of the gradient-type weights
    h^(2j-1) each field's penalty carries the scaling of the bulk form it
    extends: mu for u, h^2 for p_T (an L2 mass) and K + h^2/lambda for p_F
    (Darcy stiffness plus storage mass).
    """

    gamma_u: float = 40.0
    gamma_p: float = 40.0
    gamma_g_u: float = 0.1
    gamma_g_p: float = 0.01
    ghost_order: int = 2

    def __post_init__(self):
        if self.gamma_u <= 0 or self.gamma_p <= 0:
            raise ConfigurationError("Nitsche parameters must be positive")
        if self.gamma_g_u < 0 or self.gamma_g_p < 0:
            raise ConfigurationError("ghost-penalty factors must be >= 0")
        if self.ghost_order < 1:
            raise ConfigurationError("ghost_order must be >= 1")


@dataclass(frozen=True)
class BoundaryData:
    """Problem data: volume sources and traces on the boundary parts.

    Normal-dependent data (g_N, sigma_N) receive (points, normals); f, g, g_N
    and sigma_N also receive the `PhysicalParams` last, u_D and p_FD do not.
    """

    f: Callable[[np.ndarray, PhysicalParams], np.ndarray]
    g: Callable[[np.ndarray, PhysicalParams], np.ndarray]
    u_D: Callable[[np.ndarray], np.ndarray]
    g_N: Callable[[np.ndarray, np.ndarray, PhysicalParams], np.ndarray]
    sigma_N: Callable[[np.ndarray, np.ndarray, PhysicalParams], np.ndarray]
    p_FD: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def zero(cls) -> "BoundaryData":
        return cls(
            f=lambda p, prm: np.zeros((len(p), 2)),
            g=lambda p, prm: np.zeros(len(p)),
            u_D=lambda p: np.zeros((len(p), 2)),
            g_N=lambda p, n, prm: np.zeros(len(p)),
            sigma_N=lambda p, n, prm: np.zeros((len(p), 2)),
            p_FD=lambda p: np.zeros(len(p)),
        )


# ---------------------------------------------------------------------------
# the quadrature table

@dataclass(frozen=True)
class QuadGroup:
    """Cells that share a point count: physical points, weights, boundary normals."""

    cells: np.ndarray  # (nc,)
    pts: np.ndarray  # (nc, nq, 2)
    wts: np.ndarray  # (nc, nq)
    normals: np.ndarray | None = None  # (nc, nq, 2), boundary tables only


def quadrature_table(active: ActiveMesh, rules: CutRule,
                     tag: int | None = None) -> list[QuadGroup]:
    """The volume rule (tag None) or one boundary part's rule, grouped by point count.

    Interior cells carry the reference rule, cut cells their own; only cells
    with points enter.  Groups ascend in point count, so passes are deterministic.
    """
    rows = []  # (cells, pts, wts, normals), one point count each
    if tag is None and len(active.interior_cells):
        cells = active.interior_cells
        pts = active.mesh.cell_origin(cells)[:, None, :] + rules.h * rules.ref_pts
        rows.append((cells, pts, np.broadcast_to(rules.int_wts, pts.shape[:2]), None))
    for c in sorted(rules.cut):
        r = rules.cut[c]
        if tag is None:
            pts, w, nrm = r.vol_pts, r.vol_wts, None
        else:
            on = r.bnd_tags == tag
            pts, w, nrm = r.bnd_pts[on], r.bnd_wts[on], r.bnd_normals[on][None]
        if len(w):
            rows.append((np.array([c]), pts[None], w[None], nrm))
    by_count: dict[int, list] = {}
    for row in rows:
        by_count.setdefault(row[2].shape[1], []).append(row)
    return [QuadGroup(*(None if col[0] is None else np.concatenate(col) for col in zip(*rs)))
            for _, rs in sorted(by_count.items())]


def tabulation_columns(spaces) -> dict:
    """Column slice of each (kind, degree), kind "N", "x" or "y", in the stack."""
    sizes = [(kind, d, ref_basis(d).n_basis)
             for d in dict.fromkeys(s.degree for s in spaces) for kind in "Nxy"]
    ends = np.cumsum([n for _, _, n in sizes])
    return {(kind, d): slice(e - n, e) for (kind, d, n), e in zip(sizes, ends)}


def tabulate(groups: list[QuadGroup], spaces):
    """Yield (group, B): B (nc, nq, m) stacks [N, dN/dx, dN/dy] once per distinct degree."""
    mesh = spaces[0].active.mesh
    for g in groups:
        local = ((g.pts - mesh.cell_origin(g.cells)[:, None, :]) / mesh.h).reshape(-1, 2)
        cols = []
        for d in dict.fromkeys(s.degree for s in spaces):
            vals, grads = ref_basis(d).tabulate(local)
            cols += [vals, grads[:, :, 0] / mesh.h, grads[:, :, 1] / mesh.h]
        yield g, np.concatenate(cols, axis=1).reshape(*g.wts.shape, -1)


class _Gram:
    """Per-cell integrals over one table against the stacked tabulation B.

    `g(a, b, k)` is sum_q w_q (1, n_x, n_y)[k] a_q b_q for a column key b such
    as ("x", 2); a is a column key too, or, when pointwise `data(pts, normals)`
    rows are given, a row index into them (load moments).  k > 0 needs normals.
    """

    def __init__(self, groups: list[QuadGroup], spaces, data: Callable | None = None):
        self.cols, self.data = tabulation_columns(spaces), data
        m = max(c.stop for c in self.cols.values())
        cells, grams = [np.zeros(0, dtype=np.int64)], []
        for g, B in tabulate(groups, spaces):
            W = g.wts[:, None] if g.normals is None else \
                np.stack([g.wts, g.wts * g.normals[..., 0], g.wts * g.normals[..., 1]], axis=1)
            rows = B.transpose(0, 2, 1) if data is None else np.stack(
                data(g.pts.reshape(-1, 2), None if g.normals is None
                     else g.normals.reshape(-1, 2))).reshape(-1, *g.wts.shape).swapaxes(0, 1)
            grams.append(np.matmul(rows[:, None] * W[:, :, None, :], B[:, None]))
            cells.append(g.cells)
        self.cells = np.concatenate(cells)
        # an empty table has room for every column key and weight
        self.G = np.concatenate(grams) if grams else np.zeros((0, 3, m, m))

    def __call__(self, a, b, k: int = 0) -> np.ndarray:
        return self.G[:, k, a if self.data else self.cols[a], self.cols[b]]


def _keys(space: FeSpace):
    return ("N", space.degree), ("x", space.degree), ("y", space.degree)


def _dofs(space: FeSpace, cells: np.ndarray, scalar: bool = False) -> np.ndarray:
    """Cell dofs; vector fields list component 0 of every node, then component 1."""
    d = space.cell_dofs[space._cell_row[cells]]
    return d if scalar or space.ncomp == 1 else np.concatenate([2 * d, 2 * d + 1], axis=1)


def _scatter(shape, blocks) -> sp.csr_matrix:
    """One COO scatter of (rows (nc, nr), cols (nc, nk), local (nc|1, nr, nk)) blocks."""
    rr, cc, vv = [], [], []
    for rows, cols, loc in blocks:
        full = (len(rows), rows.shape[1], cols.shape[1])
        rr.append(np.broadcast_to(rows[:, :, None], full).ravel())
        cc.append(np.broadcast_to(cols[:, None, :], full).ravel())
        vv.append(np.broadcast_to(loc, full).ravel())
    return sp.coo_matrix((np.concatenate(vv), (np.concatenate(rr), np.concatenate(cc))),
                         shape=shape).tocsr()


def _form(space_r: FeSpace, space_c: FeSpace, cells, loc, scalar: bool = False):
    """Scatter local matrices; `scalar` pairs node dofs (a mass applied per component)."""
    n = (space_r.n_nodes, space_c.n_nodes) if scalar else (space_r.n_dofs, space_c.n_dofs)
    return _scatter(n, [(_dofs(space_r, cells, scalar), _dofs(space_c, cells, scalar), loc)])


def _bilinear_parts(rules: CutRule, stab: StabilizationParams,
                    su: FeSpace, st: FeSpace, sf: FeSpace) -> dict:
    """Every non-ghost block of the system at unit parameters, from one Gram per table."""
    vol, dr, sr = (_Gram(quadrature_table(su.active, rules, tag), (su, st, sf))
                   for tag in (None, TAG_DIRICHLET, TAG_STRESS))
    h = rules.h
    (N, x, y), t, (Nf, xf, yf) = _keys(su), ("N", st.degree), _keys(sf)
    xx, yy, P = vol(x, x), vol(y, y), dr(N, N)
    # F[(a,i),(b,j)] = ((eps(phi_a e_i) n)_j, phi_b) on the Dirichlet part
    F = np.block([[dr(x, N, 1) + 0.5 * dr(y, N, 2), 0.5 * dr(y, N, 1)],
                  [0.5 * dr(x, N, 2), 0.5 * dr(x, N, 1) + dr(y, N, 2)]])
    flux = sr(xf, Nf, 1) + sr(yf, Nf, 2)
    return {
        "a1_strain": _form(su, su, vol.cells, np.block(
            [[xx + 0.5 * yy, 0.5 * vol(y, x)], [0.5 * vol(x, y), yy + 0.5 * xx]])),
        "a1_nitsche": _form(su, su, dr.cells, -(F + F.transpose(0, 2, 1))),
        "a1_penalty": _form(su, su, dr.cells, (stab.gamma_u / h)
                            * np.block([[P, 0.0 * P], [0.0 * P, P]])),
        "b1_vol": _form(st, su, vol.cells, -np.block([vol(t, x), vol(t, y)])),
        "b1_bnd": _form(st, su, dr.cells, np.block([dr(t, N, 1), dr(t, N, 2)])),
        "a2_mass": _form(st, st, vol.cells, vol(t, t)),
        "b2_mass": _form(st, sf, vol.cells, vol(t, Nf)),
        "a3_stiff": _form(sf, sf, vol.cells, vol(xf, xf) + vol(yf, yf)),
        "a3_nitsche": _form(sf, sf, sr.cells, -(flux + flux.transpose(0, 2, 1))),
        "a3_penalty": _form(sf, sf, sr.cells, (stab.gamma_p / h) * sr(Nf, Nf)),
        "a3_mass": _form(sf, sf, vol.cells, 2.0 * vol(Nf, Nf)),
    }


def mass_matrix(space_r: FeSpace, space_c: FeSpace, rules: CutRule) -> sp.csr_matrix:
    """Scalar mass pairing over the physical domain (cut cells restricted)."""
    vol = _Gram(quadrature_table(space_r.active, rules), (space_r, space_c))
    loc = vol(("N", space_r.degree), ("N", space_c.degree))
    return _form(space_r, space_c, vol.cells, loc, scalar=True)


# ---------------------------------------------------------------------------
# ghost penalty

def _ghost_jump_rows(degree: int, axis: int, j: int):
    """Rows of the order-j normal-derivative jump on one facet.

    Returns (rows (nq, 2*nloc) over [plus-cell, minus-cell] dofs, weights).
    The 1/j! multinomial normalization and all h powers of the penalty
    weight h^(2j-1) are folded in; they cancel exactly on the uniform mesh,
    so the rows are resolution-free.
    """
    basis = ref_basis(degree)
    t, w = gauss_1d(2 * degree)
    tan = basis.eval_1d(t)
    cj = 1.0 / math.factorial(j)
    d0 = basis.eval_1d(np.array([0.0]), j)[0]
    d1 = basis.eval_1d(np.array([1.0]), j)[0]
    if axis == 0:
        jp = (tan[:, :, None] * d0[None, None, :]).reshape(len(t), -1)
        jm = (tan[:, :, None] * d1[None, None, :]).reshape(len(t), -1)
    else:
        jp = (d0[None, :, None] * tan[:, None, :]).reshape(len(t), -1)
        jm = (d1[None, :, None] * tan[:, None, :]).reshape(len(t), -1)
    return cj * np.concatenate([jp, -jm], axis=1), w


def _ghost_facet_matrix(degree: int, axis: int, ghost_order: int) -> np.ndarray:
    """Jump matrix of one ghost facet over [plus-cell, minus-cell] dofs."""
    nloc = ref_basis(degree).n_basis
    G = np.zeros((2 * nloc, 2 * nloc))
    for j in range(1, ghost_order + 1):
        rows, w = _ghost_jump_rows(degree, axis, j)
        G += (rows * w[:, None]).T @ rows
    return G


def _ghost_walk(space: FeSpace, ghost_order: int) -> list:
    """(axis, dofs) per facet orientation and component over the ghost facets.

    `dofs` (nfacets, 2*nloc) lists the plus cell's dofs, then the minus
    cell's, in the column order of `_ghost_jump_rows`.
    """
    if ghost_order > space.degree:
        raise ConfigurationError(
            f"ghost_order {ghost_order} exceeds space degree {space.degree}; "
            "higher normal-derivative jumps vanish identically"
        )
    active = space.active
    fc = active.mesh.facet_cells[active.ghost_facets]
    fax = active.mesh.facet_axis[active.ghost_facets]
    walk = []
    for axis in (0, 1):
        rows = space._cell_row[fc[fax == axis][:, ::-1]]  # (plus, minus) cell rows
        if np.any(rows < 0):
            raise AssemblyError("ghost facet with inactive neighbor")
        if len(rows):
            dofs = space.cell_dofs[rows].reshape(len(rows), -1)
            walk += [(axis, dofs if space.ncomp == 1 else 2 * dofs + comp)
                     for comp in range(space.ncomp)]
    return walk


def assemble_ghost(space: FeSpace, ghost_order: int, gamma: float) -> sp.csr_matrix:
    """Facet ghost penalty over the space's ghost facets, scaled by `gamma`.

    Penalizes squared jumps of normal derivatives of orders 1..ghost_order
    with weights h^(2j-1) per order j.
    """
    walk = _ghost_walk(space, ghost_order)
    n = space.n_dofs
    if not walk or gamma == 0.0:
        return sp.csr_matrix((n, n))
    return _scatter((n, n), [
        (dofs, dofs, gamma * _ghost_facet_matrix(space.degree, axis, ghost_order))
        for axis, dofs in walk])


def ghost_seminorm(space: FeSpace, v: np.ndarray, ghost_order: int) -> float:
    """|v|_g evaluated through the facet jumps directly.

    Numerically exact annihilation for globally smooth fields: jumps cancel
    before squaring, unlike the quadratic form of the assembled matrix.
    """
    acc = 0.0
    for axis, dofs in _ghost_walk(space, ghost_order):
        for j in range(1, ghost_order + 1):
            rows, w = _ghost_jump_rows(space.degree, axis, j)
            jumps = v[dofs] @ rows.T  # (nfacets, nq)
            acc += float(np.einsum("fq,q->", jumps ** 2, w))
    return math.sqrt(acc)


# ---------------------------------------------------------------------------
# right-hand side

def assemble_rhs(space_u: FeSpace, space_t: FeSpace, space_f: FeSpace,
                 rules: CutRule, stab: StabilizationParams,
                 params: Sequence[PhysicalParams], bdata: BoundaryData) -> np.ndarray:
    """Load vectors (L1, L2, L3) over the field layout, one row per parameter set.

    Each load term is a moment of pointwise data against tabulation columns,
    weighted on the boundary parts by a normal component where the term has one.
    Each table is built and tabulated once; its Gram holds three data rows
    per parameter set, rows 3s..3s+2 belonging to `params[s]`.
    """
    if not params:
        raise ConfigurationError("assemble_rhs needs at least one parameter set")
    layout = make_layout(space_u, space_t, space_f)
    rhs = np.zeros((len(params), layout.total))
    h = rules.h
    off_t, off_f = layout.offset("pT"), layout.offset("pF")
    (Nu, xu, yu), (Nt, _, _), (Nf, xf, yf) = _keys(space_u), _keys(space_t), _keys(space_f)
    sources = {None: lambda p, n, prm: [*bdata.f(p, prm).T, bdata.g(p, prm)],
               TAG_DIRICHLET: lambda p, n, prm: [*bdata.u_D(p).T, bdata.g_N(p, n, prm)],
               TAG_STRESS: lambda p, n, prm: [*bdata.sigma_N(p, n, prm).T, bdata.p_FD(p)]}
    for tag, source in sources.items():
        groups = quadrature_table(space_u.active, rules, tag)
        if not groups:  # no points, no load; an empty Gram has no data rows to index
            continue
        m = _Gram(groups, (space_u, space_t, space_f),
                  lambda p, n: [row for prm in params for row in source(p, n, prm)])
        for s, prm in enumerate(params):
            mu, K = prm.mu, prm.K
            pen_u, pen_f = stab.gamma_u * mu / h, stab.gamma_p * K / h
            i, j, k = 3 * s, 3 * s + 1, 3 * s + 2
            if tag is None:  # L1: (f, v); L3: (g, q_F)
                terms = [(space_u, 0, np.block([m(i, Nu), m(j, Nu)])),
                         (space_f, off_f, m(k, Nf))]
            elif tag == TAG_DIRICHLET:
                # L1: -(u_D, mu eps(v) n) + gamma_u mu / h (u_D, v); L2: (u_D . n, q_T);
                # L3: -(g_N, q_F)
                terms = [(space_u, 0, np.block([
                    -mu * (m(i, xu, 1) + 0.5 * m(i, yu, 2) + 0.5 * m(j, yu, 1))
                    + pen_u * m(i, Nu),
                    -mu * (0.5 * m(i, xu, 2) + 0.5 * m(j, xu, 1) + m(j, yu, 2))
                    + pen_u * m(j, Nu)])),
                    (space_t, off_t, m(i, Nt, 1) + m(j, Nt, 2)), (space_f, off_f, -m(k, Nf))]
            else:  # L1: (sigma_N, v); L3: +(p_FD, K grad q . n) - gamma_p K / h (p_FD, q)
                terms = [(space_u, 0, np.block([m(i, Nu), m(j, Nu)])),
                         (space_f, off_f, K * (m(k, xf, 1) + m(k, yf, 2)) - pen_f * m(k, Nf))]
            for space, offset, vals in terms:
                np.add.at(rhs[s], offset + _dofs(space, m.cells).ravel(), vals.ravel())
    return rhs


# ---------------------------------------------------------------------------
# system composition

class _Term(NamedTuple):
    row: str
    col: str
    sign: float
    scale: Callable[[PhysicalParams], float]  # material factor the unit block is linear in
    ghost: bool


_TERMS = {
    "a1_strain": _Term("u", "u", 1.0, lambda p: p.mu, False),
    "a1_nitsche": _Term("u", "u", 1.0, lambda p: p.mu, False),
    "a1_penalty": _Term("u", "u", 1.0, lambda p: p.mu, False),
    "b1_vol": _Term("pT", "u", 1.0, lambda p: 1.0, False),
    "b1_bnd": _Term("pT", "u", 1.0, lambda p: 1.0, False),
    "a2_mass": _Term("pT", "pT", -1.0, lambda p: 1.0 / p.lam, False),
    "b2_mass": _Term("pT", "pF", 1.0, lambda p: 1.0 / p.lam, False),
    "a3_stiff": _Term("pF", "pF", -1.0, lambda p: p.K, False),
    "a3_nitsche": _Term("pF", "pF", -1.0, lambda p: p.K, False),
    "a3_penalty": _Term("pF", "pF", -1.0, lambda p: p.K, False),
    "a3_mass": _Term("pF", "pF", -1.0, lambda p: 1.0 / p.lam, False),
    "g1": _Term("u", "u", 1.0, lambda p: p.mu, True),
    "g2": _Term("pT", "pT", -1.0, lambda p: 1.0, True),
    "g3_1": _Term("pF", "pF", -1.0, lambda p: p.K, True),
    "g3_2": _Term("pF", "pF", -1.0, lambda p: 1.0 / p.lam, True),
}


@dataclass
class BlockSystem:
    """Assembled sparse symmetric system with per-term bookkeeping.

    `parts` maps a term name to its block at unit material parameters, the
    form in its natural orientation; `_TERMS` places and scales it.
    `matrix` is the signed, scaled sum of the placed blocks at `params`,
    off-diagonal ones also entering transposed at the mirrored position.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    layout: FieldLayout
    params: PhysicalParams
    parts: dict = field(default_factory=dict)

    def block(self, row_field: str, col_field: str) -> sp.csr_matrix:
        """The assembled matrix restricted to one field's rows and another's columns."""
        return self.matrix[self.layout.slice(row_field), self.layout.slice(col_field)]

    def symmetry_defect(self) -> float:
        d = self.matrix - self.matrix.T
        amax = np.abs(self.matrix.data).max() if self.matrix.nnz else 1.0
        return (np.abs(d.data).max() / amax) if d.nnz else 0.0


def assemble_system(space_u: FeSpace, space_t: FeSpace, space_f: FeSpace,
                    rules: CutRule, params: PhysicalParams, stab: StabilizationParams,
                    bdata: BoundaryData | None = None,
                    include_ghost: bool = True) -> BlockSystem:
    """Assemble the full block system.

    Row/column blocks over (u, p_T, p_F):
        [[A1+g1,  B1^T,          0        ],
         [B1,    -(A2+g2),       B2       ],
         [0,      B2^T,         -(A3+g3)  ]]
    with g1 = mu g_u, g2 = h^2 g_p and g3 = (K + h^2/lambda) g_u, where g_u and
    g_p are the facet sums gamma h^(2j-1) ([d_n^j v], [d_n^j w]) over the
    field's own space with factors gamma_g_u and gamma_g_p: gradient-type
    forms take the bare sum, mass-type forms an extra h^2.  Dropping
    `include_ghost` removes exactly the ghost-penalty terms.
    """
    layout = make_layout(space_u, space_t, space_f)
    h = rules.h
    parts = _bilinear_parts(rules, stab, space_u, space_t, space_f)

    if include_ghost:
        go_u = min(space_u.degree, stab.ghost_order)
        go_t = min(space_t.degree, stab.ghost_order)
        go_f = min(space_f.degree, stab.ghost_order)
        parts["g1"] = assemble_ghost(space_u, go_u, stab.gamma_g_u)
        parts["g2"] = assemble_ghost(space_t, go_t, h * h * stab.gamma_g_p)
        parts["g3_1"] = assemble_ghost(space_f, go_f, stab.gamma_g_u)
        parts["g3_2"] = (h * h) * parts["g3_1"]

    rhs = np.zeros(layout.total) if bdata is None else \
        assemble_rhs(space_u, space_t, space_f, rules, stab, [params], bdata)[0]
    return BlockSystem(matrix=compose_matrix(parts, layout, params), rhs=rhs, layout=layout,
                       params=params, parts=parts)


def compose_matrix(parts: dict, layout: FieldLayout, params: PhysicalParams) -> sp.csr_matrix:
    """Unit blocks placed by `_TERMS` times sign and scale, off-diagonal ones also mirrored."""
    rr, cc, vv = [], [], []
    for name in sorted(parts):
        term, coo = _TERMS[name], parts[name].tocoo()
        rows, cols = coo.row + layout.offset(term.row), coo.col + layout.offset(term.col)
        vals = term.sign * term.scale(params) * coo.data
        rr.append(rows)
        cc.append(cols)
        vv.append(vals)
        if term.row != term.col:
            rr.append(cols)
            cc.append(rows)
            vv.append(vals)
    return sp.coo_matrix(
        (np.concatenate(vv), (np.concatenate(rr), np.concatenate(cc))),
        shape=(layout.total, layout.total),
    ).tocsr()


def without_ghost(system: BlockSystem) -> BlockSystem:
    """The same system with every ghost-penalty term removed.

    Shares the right-hand side (ghost terms never touch it); used by the
    cut-translation sweep to run the unstabilized arm without reassembly.
    """
    kept = {name: blk for name, blk in system.parts.items() if not _TERMS[name].ghost}
    return replace(system, matrix=compose_matrix(kept, system.layout, system.params),
                   parts=kept)


def with_params(system: BlockSystem, params: PhysicalParams,
                rhs: np.ndarray) -> BlockSystem:
    """The same system at new (mu, lambda, K), composed from its unit blocks.

    The load vector depends on the parameters through the Nitsche terms and
    the case data, so the caller supplies the one assembled at `params`.
    """
    return replace(system, matrix=compose_matrix(system.parts, system.layout, params),
                   params=params, rhs=rhs)


class TermGroup(NamedTuple):
    """Unit parts that share a position and a scale at every parameter set, summed."""

    row: str
    col: str
    matrix: sp.csr_matrix
    scales: np.ndarray  # (S,) sign times scale at each parameter set


def group_terms(parts: dict, params: Sequence[PhysicalParams]) -> list[TermGroup]:
    """The parts grouped by (row, column, per-set scale vector), each group summed once."""
    sums: dict[tuple, sp.csr_matrix] = {}
    for name in sorted(parts):
        term = _TERMS[name]
        key = (term.row, term.col, tuple(term.sign * term.scale(p) for p in params))
        sums[key] = sums[key] + parts[name] if key in sums else parts[name]
    return [TermGroup(row, col, matrix, np.array(scales))
            for (row, col, scales), matrix in sums.items()]


def apply_groups(groups: list[TermGroup], layout: FieldLayout, X: np.ndarray) -> np.ndarray:
    """Column s of the result is the system matrix at parameter set s times `X[:, s]`.

    The S matrices are never composed: each group's sum is applied to the
    whole (n, S) block and scaled per column, off-diagonal ones also
    transposed at the mirrored position, as in `compose_matrix`.
    """
    Y = np.zeros_like(X)
    for g in groups:
        r, c = layout.slice(g.row), layout.slice(g.col)
        Y[r] += (g.matrix @ X[c]) * g.scales
        if g.row != g.col:
            Y[c] += (g.matrix.T @ X[r]) * g.scales
    return Y


# ---------------------------------------------------------------------------
# helpers for property tests and norms over whole background cells

def full_cell_matrix(space: FeSpace, kind: str = "mass",
                     cells: np.ndarray | None = None) -> sp.csr_matrix:
    """Mass or stiffness over entire background cells (no cut restriction)."""
    if kind not in ("mass", "stiff"):
        raise ConfigurationError(f"unknown kind {kind!r}")
    ref, w = tensor_square(2 * space.degree + 1)
    mesh = space.active.mesh
    cells = space.active.active_cells if cells is None else np.asarray(cells)
    pts = mesh.cell_origin(cells)[:, None, :] + mesh.h * ref
    gram = _Gram([QuadGroup(cells, pts, np.broadcast_to(w * mesh.h ** 2, pts.shape[:2]))],
                 (space,))
    N, x, y = _keys(space)
    scalar = _form(space, space, cells, gram(N, N) if kind == "mass"
                   else gram(x, x) + gram(y, y), scalar=True)
    # vector dofs interleave components: 2 * node + comp
    return scalar if space.ncomp == 1 else sp.kron(scalar, sp.eye(2), format="csr")


def dump_matrix(system: BlockSystem, path) -> None:
    """MatrixMarket coordinate dump for external inspection."""
    from scipy.io import mmwrite

    mmwrite(path, system.matrix.tocoo())

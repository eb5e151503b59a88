"""Assembly of the discrete three-field Biot system.

Builds the elastic, coupling, mass and Darcy forms with Nitsche terms on the
tagged boundary parts, the facet-based ghost penalties with per-field
scalings, and the right-hand side, into one sparse symmetric indefinite
block system over the (u, p_T, p_F) layout.

Every cell integral runs through one quadrature table built per call from the
flat cut rules: the interior cells form one group that shares the reference
rule, cut cells carry their own, boundary points also their normal and part
tag, and cut cells with equal point counts form a group (a stable sort by
count, then a split).  Each group is tabulated once per degree as
[N, dN/dx, dN/dy], the interior group once for all of its cells; a bilinear
form is a slice or sum of the group's Gram matrices of that stack (one batched
matmul per group: one Gram for all interior cells, scattered as one broadcast
local block, and boundary Grams only against the value columns their terms
read), a load term a weighted moment of it at each cell's own points, and each
part one COO scatter over int32 dof indices into preallocated triplets.
`assemble_rhs` builds the load vectors of one case, one per parameter set,
from one tabulation of each table; the same tables and tabulation measure a
solution (`verification.field_values`: its error norms, norms and point
values).  Ghost facets of equal orientation share one jump matrix, and one
walk over them serves the assembled penalty and the direct seminorm.  `_TERMS`
is the only record of where each term goes in the 3x3 system (row, column,
sign), how it scales with the material parameters and whether it is a ghost
penalty.  `BlockSystem.parts` holds the blocks at mu = lambda = K = 1 and only
`compose_matrix` and `group_terms` apply material parameters to them.  The
former composes one field's rows at a time straight from the parts' CSR
arrays, bitwise as one whole-system COO would, explicit zeros included, since
SuperLU orders by the pattern; the latter sums the parts that scale alike, so
`apply_groups` applies the matrices at several parameter sets to a block of
vectors without composing any of them.  Assembly is single-threaded and
bitwise deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    gamma_g_p the total-pressure one.  Each field's facet sums run over the
    normal-derivative jumps of orders 1..degree of its own space.  On top of
    the gradient-type weights h^(2j-1) each field's penalty carries the
    scaling of the bulk form it extends: mu for u, h^2 for p_T (an L2 mass)
    and K + h^2/lambda for p_F (Darcy stiffness plus storage mass).
    """

    gamma_u: float = 40.0
    gamma_p: float = 40.0
    gamma_g_u: float = 0.1
    gamma_g_p: float = 0.01

    def __post_init__(self):
        if self.gamma_u <= 0 or self.gamma_p <= 0:
            raise ConfigurationError("Nitsche parameters must be positive")
        if self.gamma_g_u < 0 or self.gamma_g_p < 0:
            raise ConfigurationError("ghost-penalty factors must be >= 0")


# ---------------------------------------------------------------------------
# the quadrature table

@dataclass(frozen=True)
class QuadGroup:
    """Cells that share a point count: physical points, weights, boundary normals."""

    cells: np.ndarray  # (nc,)
    pts: np.ndarray  # (nc, nq, 2)
    wts: np.ndarray  # (nc, nq)
    normals: np.ndarray | None = None  # (nc, nq, 2), boundary tables only
    ref: np.ndarray | None = None  # (nq, 2) unit-cell points, when every cell has this rule


def quadrature_table(active: ActiveMesh, rules: CutRule,
                     tag: int | None = None) -> list[QuadGroup]:
    """The volume rule (tag None) or one boundary part's rule, grouped by point count.

    Interior cells form one group that shares the reference rule (`ref`), cut
    cells carry their own; only cells with points enter.  Groups ascend in
    point count, the interior group first among equal counts, and the cut
    cells of a group ascend by id, so passes are deterministic.  The cut cells
    are sorted stably by their count and split; each run of equal counts
    gathers its rows of the flat rule at once.
    """
    if tag is None:
        pts, wts, nrm, off = rules.vol_pts, rules.vol_wts, None, rules.vol_off
    else:
        on = rules.bnd_tags == tag
        pts, wts, nrm = rules.bnd_pts[on], rules.bnd_wts[on], rules.bnd_normals[on]
        off = np.concatenate([[0], np.cumsum(on)])[rules.bnd_off]  # points on the part
    counts = np.diff(off)
    order = np.argsort(counts, kind="stable")
    order = order[counts[order] > 0]
    n = counts[order]
    ends = np.cumsum(n)
    take = np.arange(ends[-1] if len(n) else 0) + np.repeat(off[order] - (ends - n), n)
    cells, pts, wts = rules.cells[order], pts[take], wts[take]
    nrm = None if nrm is None else nrm[take]
    groups = []
    if tag is None and len(active.interior_cells):
        icells = active.interior_cells
        ipts = active.mesh.cell_origin(icells)[:, None, :] + rules.h * rules.ref_pts
        groups.append(QuadGroup(icells, ipts, np.broadcast_to(rules.int_wts, ipts.shape[:2]),
                                ref=rules.ref_pts))
    bounds = np.flatnonzero(np.diff(n)) + 1
    for a, b in zip([0, *bounds], [*bounds, len(n)]) if len(n) else []:
        k, m = b - a, int(n[a])
        rows = slice(ends[a] - m, ends[b - 1])
        groups.append(QuadGroup(cells[a:b], pts[rows].reshape(k, m, 2), wts[rows].reshape(k, m),
                                None if nrm is None else nrm[rows].reshape(k, m, 2)))
    return sorted(groups, key=lambda g: g.wts.shape[1])  # stable: the interior group first


def tabulation_columns(spaces) -> dict:
    """Column slice of each (kind, degree), kind "N", "x" or "y", in the stack."""
    sizes = [(kind, d, ref_basis(d).n_basis)
             for d in dict.fromkeys(s.degree for s in spaces) for kind in "Nxy"]
    ends = np.cumsum([n for _, _, n in sizes])
    return {(kind, d): slice(e - n, e) for (kind, d, n), e in zip(sizes, ends)}


def tabulate(groups: list[QuadGroup], spaces):
    """Yield (group, B): B (nc, nq, m) stacks [N, dN/dx, dN/dy] once per distinct degree;
    B (1, nq, m) at `ref` for a group that shares one rule."""
    mesh = spaces[0].active.mesh
    for g in groups:
        local = g.ref if g.ref is not None else \
            ((g.pts - mesh.cell_origin(g.cells)[:, None, :]) / mesh.h).reshape(-1, 2)
        cols = []
        for d in dict.fromkeys(s.degree for s in spaces):
            vals, grads = ref_basis(d).tabulate(local)
            cols += [vals, grads[:, :, 0] / mesh.h, grads[:, :, 1] / mesh.h]
        B = np.concatenate(cols, axis=1)
        yield g, B.reshape(-1, g.wts.shape[1], B.shape[1])


class _Gram:
    """Per-cell integrals over one group of a table against its tabulation B.

    `g(a, b, k)` is sum_q w_q (1, n_x, n_y)[k] a_q b_q for a column key b such
    as ("x", 2); a is a column key too, or, when pointwise `data(pts, normals)`
    rows are given, a row index into them (load moments).  k > 0 needs normals.
    A group with a shared rule has one B, so its bilinear Gram is one block
    (1, ...) for all of its cells; data rows keep one block per cell.  With
    `right`, b can only be that key, and only its columns of B are multiplied.
    """

    def __init__(self, g: QuadGroup, B: np.ndarray, cols: dict,
                 data: Callable | None = None, right: tuple | None = None):
        self.cells, self.cols, self.data = g.cells, cols, data is not None
        self.right = cols if right is None else {right: slice(None)}
        w = g.wts[:len(B)]  # one row of weights for a shared rule
        W = w[:, None] if g.normals is None else \
            np.stack([w, w * g.normals[..., 0], w * g.normals[..., 1]], axis=1)
        rows = B.transpose(0, 2, 1) if data is None else np.stack(
            data(g.pts.reshape(-1, 2), None if g.normals is None
                 else g.normals.reshape(-1, 2))).reshape(-1, *g.wts.shape).swapaxes(0, 1)
        self.G = np.matmul(rows[:, None] * W[:, :, None, :],
                           (B if right is None else B[:, :, cols[right]])[:, None])

    def __call__(self, a, b, k: int = 0) -> np.ndarray:
        return self.G[:, k, a if self.data else self.cols[a], self.right[b]]


def _grams(groups: list[QuadGroup], spaces, data: Callable | None = None,
           right: tuple | None = None) -> list[_Gram]:
    """One `_Gram` per group of a table."""
    cols = tabulation_columns(spaces)
    return [_Gram(g, B, cols, data, right) for g, B in tabulate(groups, spaces)]


def _keys(space: FeSpace):
    return ("N", space.degree), ("x", space.degree), ("y", space.degree)


def _dofs(space: FeSpace, cells: np.ndarray) -> np.ndarray:
    """Cell dofs; vector fields list component 0 of every node, then component 1."""
    d = space.cell_dofs[cells]
    return d if space.ncomp == 1 else np.concatenate([2 * d, 2 * d + 1], axis=1)


def _scatter(shape, blocks) -> sp.csr_matrix:
    """One COO scatter of (rows (nc, nr), cols (nc, nk), local (nc|1, nr, nk)) blocks."""
    fulls = [(len(rows), rows.shape[1], cols.shape[1]) for rows, cols, _ in blocks]
    n = sum(math.prod(full) for full in fulls)
    rr, cc, vv = np.empty(n, np.int32), np.empty(n, np.int32), np.empty(n)
    end = 0
    for (rows, cols, loc), full in zip(blocks, fulls):  # filled in place, no concatenation
        at, end = slice(end, end + math.prod(full)), end + math.prod(full)
        rr[at].reshape(full)[...] = rows[:, :, None]
        cc[at].reshape(full)[...] = cols[:, None, :]
        vv[at].reshape(full)[...] = loc
    return sp.coo_matrix((vv, (rr, cc)), shape=shape).tocsr()


def _form(space_r: FeSpace, space_c: FeSpace, grams: list[_Gram], local: Callable):
    """Scatter `local(gram)` per group over the dofs of `_dofs`."""
    return _scatter((space_r.n_dofs, space_c.n_dofs),
                    [(_dofs(space_r, m.cells), _dofs(space_c, m.cells), local(m)) for m in grams])


def _bilinear_parts(rules: CutRule, stab: StabilizationParams,
                    su: FeSpace, st: FeSpace, sf: FeSpace) -> dict:
    """Every non-ghost block of the system at unit parameters, from one Gram per group.

    A boundary Gram keeps on its right only the value columns its terms read:
    those of u on the Dirichlet part, those of p_F on the stress part."""
    h = rules.h
    (N, x, y), t, (Nf, xf, yf) = _keys(su), ("N", st.degree), _keys(sf)
    vol, dr, sr = (_grams(quadrature_table(su.active, rules, tag), (su, st, sf), right=right)
                   for tag, right in ((None, None), (TAG_DIRICHLET, N), (TAG_STRESS, Nf)))

    def nitsche(F):
        return -(F + F.transpose(0, 2, 1))

    return {
        "a1_strain": _form(su, su, vol, lambda m: np.block(
            [[m(x, x) + 0.5 * m(y, y), 0.5 * m(y, x)],
             [0.5 * m(x, y), m(y, y) + 0.5 * m(x, x)]])),
        # F[(a,i),(b,j)] = ((eps(phi_a e_i) n)_j, phi_b) on the Dirichlet part
        "a1_nitsche": _form(su, su, dr, lambda m: nitsche(np.block(
            [[m(x, N, 1) + 0.5 * m(y, N, 2), 0.5 * m(y, N, 1)],
             [0.5 * m(x, N, 2), 0.5 * m(x, N, 1) + m(y, N, 2)]]))),
        "a1_penalty": _form(su, su, dr, lambda m: (stab.gamma_u / h) * np.block(
            [[m(N, N), 0.0 * m(N, N)], [0.0 * m(N, N), m(N, N)]])),
        "b1_vol": _form(st, su, vol, lambda m: -np.block([m(t, x), m(t, y)])),
        "b1_bnd": _form(st, su, dr, lambda m: np.block([m(t, N, 1), m(t, N, 2)])),
        "a2_mass": _form(st, st, vol, lambda m: m(t, t)),
        "b2_mass": _form(st, sf, vol, lambda m: m(t, Nf)),
        "a3_stiff": _form(sf, sf, vol, lambda m: m(xf, xf) + m(yf, yf)),
        "a3_nitsche": _form(sf, sf, sr, lambda m: nitsche(m(xf, Nf, 1) + m(yf, Nf, 2))),
        "a3_penalty": _form(sf, sf, sr, lambda m: (stab.gamma_p / h) * m(Nf, Nf)),
        "a3_mass": _form(sf, sf, vol, lambda m: 2.0 * m(Nf, Nf)),
    }


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


def _ghost_facet_matrix(degree: int, axis: int) -> np.ndarray:
    """Jump matrix of one ghost facet over [plus-cell, minus-cell] dofs, orders 1..degree."""
    nloc = ref_basis(degree).n_basis
    G = np.zeros((2 * nloc, 2 * nloc))
    for j in range(1, degree + 1):
        rows, w = _ghost_jump_rows(degree, axis, j)
        G += (rows * w[:, None]).T @ rows
    return G


def _ghost_walk(space: FeSpace) -> list:
    """(axis, dofs) per facet orientation and component over the ghost facets.

    The (minus, plus) cell pairs of `ActiveMesh.ghost_facets[axis]` are read
    in their stored order; `dofs` (nfacets, 2*nloc) lists the plus cell's
    dofs, then the minus cell's, in the column order of `_ghost_jump_rows`.
    """
    walk = []
    for axis, pairs in enumerate(space.active.ghost_facets):
        dofs = space.cell_dofs[pairs[:, ::-1]]  # (plus, minus) cells
        if np.any(dofs < 0):
            raise AssemblyError("ghost facet with inactive neighbor")
        if len(dofs):
            dofs = dofs.reshape(len(dofs), -1)
            walk += [(axis, dofs if space.ncomp == 1 else 2 * dofs + comp)
                     for comp in range(space.ncomp)]
    return walk


def assemble_ghost(space: FeSpace, gamma: float) -> sp.csr_matrix:
    """Facet ghost penalty over the space's ghost facets, scaled by `gamma`.

    Penalizes squared jumps of normal derivatives of orders 1..degree of the
    space with weights h^(2j-1) per order j.
    """
    walk = _ghost_walk(space)
    n = space.n_dofs
    if not walk or gamma == 0.0:
        return sp.csr_matrix((n, n))
    return _scatter((n, n), [
        (dofs, dofs, gamma * _ghost_facet_matrix(space.degree, axis))
        for axis, dofs in walk])


def ghost_seminorm(space: FeSpace, v: np.ndarray) -> float:
    """|v|_g evaluated through the facet jumps directly.

    Numerically exact annihilation for globally smooth fields: jumps cancel
    before squaring, unlike the quadratic form of the assembled matrix.
    """
    acc = 0.0
    for axis, dofs in _ghost_walk(space):
        for j in range(1, space.degree + 1):
            rows, w = _ghost_jump_rows(space.degree, axis, j)
            jumps = v[dofs] @ rows.T  # (nfacets, nq)
            acc += float(np.einsum("fq,q->", jumps ** 2, w))
    return math.sqrt(acc)


# ---------------------------------------------------------------------------
# right-hand side

def assemble_rhs(space_u: FeSpace, space_t: FeSpace, space_f: FeSpace,
                 rules: CutRule, stab: StabilizationParams,
                 params: Sequence[PhysicalParams], case) -> np.ndarray:
    """Load vectors (L1, L2, L3) over the field layout, one row per parameter set.

    `case` supplies the data at points p (n, 2), outward normals nrm (n, 2)
    and one `PhysicalParams` prm:
        f(p, prm) (n, 2) and g(p, prm) (n,)       volume sources;
        u(p) (n, 2) and g_N(p, nrm, prm) (n,)     Dirichlet-part traces;
        sigma_N(p, nrm, prm) (n, 2) and p_F(p) (n,)  stress-part traces.
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
    sources = {None: lambda p, n, prm: [*case.f(p, prm).T, case.g(p, prm)],
               TAG_DIRICHLET: lambda p, n, prm: [*case.u(p).T, case.g_N(p, n, prm)],
               TAG_STRESS: lambda p, n, prm: [*case.sigma_N(p, n, prm).T, case.p_F(p)]}
    for tag, source in sources.items():
        for m in _grams(quadrature_table(space_u.active, rules, tag), (space_u, space_t, space_f),
                        lambda p, n: [row for prm in params for row in source(p, n, prm)]):
            for s, prm in enumerate(params):
                mu, K = prm.mu, prm.K
                pen_u, pen_f = stab.gamma_u * mu / h, stab.gamma_p * K / h
                i, j, k = 3 * s, 3 * s + 1, 3 * s + 2
                if tag is None:  # L1: (f, v); L3: (g, q_F)
                    terms = [(space_u, 0, np.block([m(i, Nu), m(j, Nu)])),
                             (space_f, off_f, m(k, Nf))]
                elif tag == TAG_DIRICHLET:
                    # L1: -(u, mu eps(v) n) + gamma_u mu / h (u, v); L2: (u . n, q_T);
                    # L3: -(g_N, q_F)
                    terms = [(space_u, 0, np.block([
                        -mu * (m(i, xu, 1) + 0.5 * m(i, yu, 2) + 0.5 * m(j, yu, 1))
                        + pen_u * m(i, Nu),
                        -mu * (0.5 * m(i, xu, 2) + 0.5 * m(j, xu, 1) + m(j, yu, 2))
                        + pen_u * m(j, Nu)])),
                        (space_t, off_t, m(i, Nt, 1) + m(j, Nt, 2)), (space_f, off_f, -m(k, Nf))]
                else:  # L1: (sigma_N, v); L3: +(p_F, K grad q . n) - gamma_p K / h (p_F, q)
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
    off-diagonal ones also entering transposed at the mirrored position.  It
    is composed on first read and kept; a system whose matrix is never read
    (the ladder's MINRES applies `parts` directly) never composes one.
    """

    rhs: np.ndarray
    layout: FieldLayout
    params: PhysicalParams
    parts: dict = field(default_factory=dict)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        return compose_matrix(self.parts, self.layout, self.params)


def assemble_system(space_u: FeSpace, space_t: FeSpace, space_f: FeSpace,
                    rules: CutRule, params: PhysicalParams, stab: StabilizationParams,
                    case=None) -> BlockSystem:
    """Assemble the full block system.

    Row/column blocks over (u, p_T, p_F):
        [[A1+g1,  B1^T,          0        ],
         [B1,    -(A2+g2),       B2       ],
         [0,      B2^T,         -(A3+g3)  ]]
    with g1 = mu g_u, g2 = h^2 g_p and g3 = (K + h^2/lambda) g_u, where g_u and
    g_p are the facet sums gamma h^(2j-1) ([d_n^j v], [d_n^j w]) over the
    field's own space with factors gamma_g_u and gamma_g_p: gradient-type
    forms take the bare sum, mass-type forms an extra h^2, and each sum
    runs over the jump orders 1..degree of the field's space.  `without_ghost`
    removes exactly the ghost-penalty terms.  Only the unit `parts` are
    assembled; `BlockSystem.matrix` composes them when read.  The load comes
    from `case` (see `assemble_rhs`); without one it is zero.
    """
    layout = make_layout(space_u, space_t, space_f)
    h = rules.h
    parts = _bilinear_parts(rules, stab, space_u, space_t, space_f)
    parts["g1"] = assemble_ghost(space_u, stab.gamma_g_u)
    parts["g2"] = assemble_ghost(space_t, h * h * stab.gamma_g_p)
    parts["g3_1"] = assemble_ghost(space_f, stab.gamma_g_u)
    parts["g3_2"] = (h * h) * parts["g3_1"]

    rhs = np.zeros(layout.total) if case is None else \
        assemble_rhs(space_u, space_t, space_f, rules, stab, [params], case)[0]
    return BlockSystem(rhs=rhs, layout=layout, params=params, parts=parts)


def compose_matrix(parts: dict, layout: FieldLayout, params: PhysicalParams) -> sp.csr_matrix:
    """Unit blocks placed by `_TERMS` times sign and scale, off-diagonal ones also mirrored.

    One field's rows at a time, so no triplet array of the whole system is made:
    the scaled parts in those rows, mirrored ones by column, are placed straight
    into one CSR, each row's entries in the order of one whole-system COO; its
    sums are then bitwise the same, and so is the pattern, explicit zeros included
    (SuperLU orders by it; CSR `+` would drop them)."""
    def block_row(fld: str, n: int) -> sp.csr_matrix:
        names = sorted(k for k in parts if fld in (_TERMS[k].row, _TERMS[k].col))
        by_row = [parts[k] if _TERMS[k].row == fld else parts[k].tocsc() for k in names]
        counts = [np.diff(a.indptr) for a in by_row]
        indptr = np.concatenate([[0], np.cumsum(sum(counts, np.zeros(n, np.int32)))])
        indices, data = np.empty(indptr[-1], np.int32), np.empty(indptr[-1])
        start = indptr[:-1].copy()  # where each row's next entries go
        for name, a, count in zip(names, by_row, counts):
            term = _TERMS[name]
            at = np.repeat(start - a.indptr[:-1], count) + np.arange(a.nnz)
            indices[at] = a.indices + layout.offset(term.col if term.row == fld else term.row)
            data[at] = a.data * (term.sign * term.scale(params))
            start += count
        matrix = sp.csr_matrix((data, indices, indptr), shape=(n, layout.total))
        matrix.sum_duplicates()
        return matrix

    return sp.vstack([block_row(fld, n) for fld, n in
                      zip(("u", "pT", "pF"), (layout.n_u, layout.n_t, layout.n_f))], format="csr")


def without_ghost(system: BlockSystem) -> BlockSystem:
    """The same system with every ghost-penalty term removed.

    Shares the right-hand side (ghost terms never touch it).  This is the
    one way to an unstabilized system: the sweep's unstabilized arm, and
    `solve` and the ladder when stabilization is disabled.
    """
    return replace(system, parts={name: blk for name, blk in system.parts.items()
                                  if not _TERMS[name].ghost})


def with_params(system: BlockSystem, params: PhysicalParams,
                rhs: np.ndarray) -> BlockSystem:
    """The same system at new (mu, lambda, K), composed from its unit blocks.

    The load vector depends on the parameters through the Nitsche terms and
    the case data, so the caller supplies the one assembled at `params`.
    """
    return replace(system, params=params, rhs=rhs)


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
# the mass over whole background cells, for the inf-sup constant

def full_cell_matrix(space: FeSpace) -> sp.csr_matrix:
    """Mass of a scalar space over the entire active cells (no cut restriction)."""
    ref, w = tensor_square(2 * space.degree + 1)
    mesh = space.active.mesh
    cells = space.active.active_cells
    pts = mesh.cell_origin(cells)[:, None, :] + mesh.h * ref
    grams = _grams([QuadGroup(cells, pts, np.broadcast_to(w * mesh.h ** 2, pts.shape[:2]),
                              ref=ref)], (space,))
    N = ("N", space.degree)
    return _form(space, space, grams, lambda m: m(N, N))


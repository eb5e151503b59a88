"""Implicit domain description and cut-cell quadrature.

The physical domain is the region where an outer level set is negative and,
if a hole is present, the hole level set is positive.  Cut cells are
decomposed by marching triangles on a dyadic sub-grid: the combined level
set is linearly interpolated along sub-triangle edges, the inside part is
triangulated, and the zero-chords become embedded-boundary segments.  Inside
sub-squares merge into maximal quadtree blocks that carry the interior rule.
The inside pieces and chords make up the polygon Omega_h, and every integral
is taken over Omega_h: each chord carries the outward unit normal of Omega_h,
the gradient of the linear interpolant of psi on the chord's sub-triangle.
Boundary points also carry a part tag that separates the Dirichlet boundary
(outer) from the stress boundary (hole).
The `subgrid`s of a mesh's cells at one depth make one lattice, in which
neighbours share the vertices of their common edge.  `mesh.classify`
decides on its psi values which cells are cut, and `clip_cells` clips them
in one batched pass from the same values, so the chords of neighbouring
cells meet on their common edge.  Its `Clips` hold every cell's blocks,
triangles and chords as flat arrays with per-cell offsets, and
`build_cut_rules` maps them in array operations into a `CutRule`, whose
volume and boundary points are flat arrays with per-cell offsets too.  A
single cut cell is the same container holding one cell (`Clips.cell`,
`CutRule.cell`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, GeometryConflictError, GeometryResolutionError
from .quadrature import gauss_1d, tensor_square, triangle_rule

if TYPE_CHECKING:
    from .mesh import ActiveMesh

#: boundary-part tags carried by surface quadrature points
TAG_DIRICHLET = 0  # outer boundary, Gamma_d
TAG_STRESS = 1  # hole boundary, Gamma_s

MAX_SUBDIV = 6
SLIVER_FRACTION = 1e-12
CONFLICT_TOL = 1e-8  # level-set values below this count as zero in the conflict check


class CircleLevelSet:
    """Signed distance to a circle: negative inside."""

    def __init__(self, radius: float, center=(0.0, 0.0)):
        if radius <= 0:
            raise ConfigurationError(f"circle radius must be positive, got {radius}")
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)

    def value(self, pts: np.ndarray) -> np.ndarray:
        d = pts - self.center
        return np.hypot(d[:, 0], d[:, 1]) - self.radius


class FlowerLevelSet:
    """Petaled curve r = r0 + r1*cos(petals*theta), negative inside."""

    def __init__(self, r0: float, r1: float, petals: int = 5):
        if not (r0 > r1 > 0):
            raise ConfigurationError(
                f"invalid flower: need r0 > r1 > 0, got r0={r0}, r1={r1}"
            )
        self.r0 = float(r0)
        self.r1 = float(r1)
        self.petals = int(petals)

    def value(self, pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        return r - self.r0 - self.r1 * np.cos(self.petals * theta)


class LevelSetDomain:
    """Implicit domain: inside iff outer < 0 and (if present) hole > 0.

    `psi = max(outer, -hole)` is the combined membership function; its zero
    set is the full boundary.  `branch` identifies which level set attains
    the max, i.e. which one governs locally.
    """

    def __init__(self, outer, hole=None):
        self.outer = outer
        self.hole = hole

    def psi(self, pts: np.ndarray) -> np.ndarray:
        v = self.outer.value(pts)
        if self.hole is None:
            return v
        return np.maximum(v, -self.hole.value(pts))

    def branch(self, pts: np.ndarray) -> np.ndarray:
        """1 where the outer level set governs, 2 where the hole does."""
        if self.hole is None:
            return np.ones(len(pts), dtype=np.int8)
        v1 = self.outer.value(pts)
        v2 = -self.hole.value(pts)
        return np.where(v1 >= v2, 1, 2).astype(np.int8)


def make_flower_domain(radius: float = 0.95, r0: float = 0.7, r1: float = 0.18,
                       petals: int = 5) -> LevelSetDomain:
    """Paper geometry: circle of given radius with a flower-shaped hole."""
    return LevelSetDomain(CircleLevelSet(radius), FlowerLevelSet(r0, r1, petals))


def _offsets(counts) -> np.ndarray:
    """Offsets (n+1,) of n consecutive runs with the given lengths."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _owners(off: np.ndarray) -> np.ndarray:
    """The run index of every row of the runs with offsets `off`."""
    return np.repeat(np.arange(len(off) - 1), np.diff(off))


def _run_sums(values: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The sum of each run, bit for bit numpy's sum of that run's slice alone.

    Runs of equal length are stacked and summed along rows, which takes the
    same pairwise order as summing one slice.
    """
    counts = np.diff(off)
    sums = np.zeros(len(counts))
    for n in np.unique(counts[counts > 0]):
        runs = np.flatnonzero(counts == n)
        sums[runs] = values[off[runs][:, None] + np.arange(n)].sum(axis=1)
    return sums


@dataclass(frozen=True)
class Clips:
    """Piecewise-linear decompositions of cells against the domain, as flat arrays.

    blocks: (nb,3) rows (x0, y0, side) of the aligned dyadic squares that
        merge the sub-squares wholly inside the domain.
    tris: (nt,3,2) vertices of the sub-triangles covering the rest of the inside.
    segs: (ns,2,2) endpoints of embedded-boundary chords.
    normals: (ns,2) outward unit normals of the chords, those of Omega_h.

    Cell i owns rows `block_off[i]:block_off[i+1]` of `blocks`, and likewise
    of `tris` and of `segs` and `normals`; `area[i]` is its inside area before
    degenerate pieces are dropped and `subdiv[i]` the sub-grid depth of the
    pass, the same for every cell.
    """

    blocks: np.ndarray
    block_off: np.ndarray
    tris: np.ndarray
    tri_off: np.ndarray
    segs: np.ndarray
    normals: np.ndarray
    seg_off: np.ndarray
    area: np.ndarray
    subdiv: np.ndarray

    def _runs(self):
        """The row arrays, each group followed by the offsets its rows share."""
        return ((self.blocks, self.block_off), (self.tris, self.tri_off),
                (self.segs, self.normals, self.seg_off))

    def cell(self, i: int) -> "Clips":
        """The clip of cell i alone."""
        flat = []
        for *rows, off in self._runs():
            flat += [r[off[i]:off[i + 1]] for r in rows] + [off[i:i + 2] - off[i]]
        return Clips(*flat, self.area[i:i + 1], self.subdiv[i:i + 1])

    def take(self, keep: np.ndarray) -> "Clips":
        """The clips of the cells where the boolean mask `keep` holds, in order."""
        flat = []
        for *rows, off in self._runs():
            flat += [r[keep[_owners(off)]] for r in rows] + [_offsets(np.diff(off)[keep])]
        return Clips(*flat, self.area[keep], self.subdiv[keep])


def subgrid(lo: np.ndarray, h: float, m: int) -> np.ndarray:
    """The vertices (nc, (2**m+1)**2, 2) of the depth-m sub-grids of the cells with corners lo.

    Column i * (2**m + 1) + j of a cell's row is its vertex lo + h * (i, j) / 2**m.
    """
    nc, ns = len(lo), 2 ** m
    t = np.arange(ns + 1) / ns
    verts = np.empty((nc, ns + 1, ns + 1, 2))
    verts[..., 0] = (lo[:, 0:1] + h * t)[:, :, None]
    verts[..., 1] = (lo[:, 1:2] + h * t)[:, None, :]
    return verts.reshape(nc, (ns + 1) ** 2, 2)


def _tri_areas(tris: np.ndarray) -> np.ndarray:
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def clip_cells(lo: np.ndarray, psi: np.ndarray, h: float, dom: LevelSetDomain, m: int):
    """One marching-triangles pass over the cells with lower-left corners lo (nc,2) at depth m.

    psi (nc, (2**m+1)**2) holds the level set at the cells' `subgrid`
    vertices.  Returns the `Clips` and the (nc,) mask of the cells whose
    pass is consistent: it is False where the sign of psi at the centroid
    of an uncut sub-triangle contradicts its vertex pattern, i.e. the
    boundary wiggles below the sub-grid resolution.  A chord's outward unit
    normal is the normalized gradient G of the linear interpolant of psi on
    its sub-triangle; it points outward because psi < 0 inside and is never
    zero because the sub-triangle's vertex values differ in sign.
    Degenerate pieces (zero-area triangles, zero-length chords from cuts
    passing exactly through sub-grid vertices) are dropped so that every
    derived quadrature weight is strictly positive.
    """
    nc, ns = len(lo), 2 ** m
    verts = subgrid(lo, h, m)

    # two triangles per sub-square: (v00,v10,v11) and (v00,v11,v01)
    ii, jj = np.meshgrid(np.arange(ns), np.arange(ns), indexing="ij")
    v00 = (ii * (ns + 1) + jj).ravel()
    v10 = v00 + (ns + 1)
    v01 = v00 + 1
    v11 = v10 + 1
    tri_idx = np.concatenate([np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])])

    inv = psi < 0.0
    ins = inv[:, tri_idx]  # (nc, ntri, 3)
    full = ins.all(axis=2)
    empty = ~ins.any(axis=2)

    # a sub-square is inside when both its triangles are full; merge those
    # into maximal aligned dyadic blocks of at most half the cell
    levels = [full.reshape(nc, 2, ns, ns).all(axis=1)]
    for k in range(1, m):
        levels.append(levels[-1].reshape(nc, ns >> k, 2, ns >> k, 2).all(axis=(2, 4)))
    levels.append(np.zeros((nc, 1, 1), dtype=bool))  # no block spans the whole cell
    kept = []  # (cell, i, j, side), in sub-squares, of the blocks kept at each level
    for k in range(m):
        c, bi, bj = np.nonzero(levels[k] & ~levels[k + 1].repeat(2, 1).repeat(2, 2))
        kept.append((c, bi << k, bj << k, np.full(len(c), 1 << k)))
    bc, i, j, side = (np.concatenate(a) for a in zip(*kept))
    i, j, side = (h / ns * a for a in (i, j, side))
    blocks = np.column_stack([lo[bc, 0] + i, lo[bc, 1] + j, side])

    oc, ot = np.nonzero(full & ~np.tile(levels[0].reshape(nc, ns * ns), 2))
    tris_out, tri_cells = [verts[oc[:, None], tri_idx[ot]]], [oc]

    mc, mt = np.nonzero(~(full | empty))
    mv_idx = (mc[:, None], tri_idx[mt])
    mp, mv, mins = psi[mv_idx], verts[mv_idx], inv[mv_idx]
    one_in = mins.sum(axis=1) == 1
    # odd vertex: the one whose side differs from the other two
    odd = np.where(one_in, np.argmax(mins, axis=1), np.argmax(~mins, axis=1))
    rows = np.arange(len(mp))
    nxt, prv = (odd + 1) % 3, (odd + 2) % 3
    p_o, p_n, p_p = mp[rows, odd], mp[rows, nxt], mp[rows, prv]
    v_o, v_n, v_p = mv[rows, odd], mv[rows, nxt], mv[rows, prv]
    e1, e2 = v_n - v_o, v_p - v_o
    c1 = v_o + (p_o / (p_o - p_n))[:, None] * e1
    c2 = v_o + (p_o / (p_o - p_p))[:, None] * e2
    # solve G.e1 = p_n - p_o and G.e2 = p_p - p_o
    d1, d2 = p_n - p_o, p_p - p_o
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    g = np.column_stack([d1 * e2[:, 1] - d2 * e1[:, 1],
                         e1[:, 0] * d2 - e2[:, 0] * d1]) / det[:, None]
    segs = np.stack([c1, c2, g / np.hypot(g[:, 0], g[:, 1])[:, None]], axis=1)
    two_in = ~one_in
    a, b = v_n[two_in], v_p[two_in]
    q1, q2 = c1[two_in], c2[two_in]
    tris_out += [np.stack([v_o[one_in], c1[one_in], c2[one_in]], axis=1),
                 np.stack([a, b, q2], axis=1), np.stack([a, q2, q1], axis=1)]
    tc = np.concatenate(tri_cells + [mc[one_in], mc[two_in], mc[two_in]])

    pc, pt = np.nonzero(full | empty)
    pv = tri_idx[pt]
    cent = (verts[pc, pv[:, 0]] + verts[pc, pv[:, 1]] + verts[pc, pv[:, 2]]) / 3
    consistent = np.ones(nc, dtype=bool)
    consistent[pc[(dom.psi(cent) < 0.0) != full[pc, pt]]] = False

    # a stable sort by cell lists every cell's pieces in the cell's own order
    flat = []
    for rows, cell in ((blocks, bc), (np.concatenate(tris_out), tc), (segs, mc)):
        order = np.argsort(cell, kind="stable")
        flat.append((rows[order], _offsets(np.bincount(cell, minlength=nc))))
    (blocks, block_off), (tris, tri_off), (segs, seg_off) = flat
    areas = _tri_areas(tris)
    area = _run_sums(areas, tri_off) + _run_sums(blocks[:, 2] ** 2, block_off)
    keep_tri = areas > 1e-14 * h * h
    lens = np.hypot(segs[:, 1, 0] - segs[:, 0, 0], segs[:, 1, 1] - segs[:, 0, 1])
    keep_seg = lens > 1e-12 * h
    return Clips(blocks, block_off,
                 tris[keep_tri], _offsets(np.bincount(_owners(tri_off)[keep_tri], minlength=nc)),
                 segs[keep_seg, :2], segs[keep_seg, 2],
                 _offsets(np.bincount(_owners(seg_off)[keep_seg], minlength=nc)), area,
                 np.full(nc, m, dtype=np.int64)), consistent


def _volume_rule(clips: Clips, order: int):
    """Volume points, weights and per-cell offsets of the inside parts of clipped cells.

    Maps the interior cells' tensor rule onto each block and a triangle rule
    onto each remaining sub-triangle; a cell lists its block points first.
    """
    ref, w = tensor_square(order)
    b = clips.blocks
    bpts = b[:, None, :2] + b[:, None, 2:] * ref[None]
    bwts = b[:, 2:] ** 2 * w[None]
    owner = [np.repeat(_owners(clips.block_off), len(w))]
    ref, w = triangle_rule(order)
    tris = clips.tris
    v0 = tris[:, 0][:, None, :]
    d1 = (tris[:, 1] - tris[:, 0])[:, None, :]
    d2 = (tris[:, 2] - tris[:, 0])[:, None, :]
    pts = v0 + ref[None, :, 0:1] * d1 + ref[None, :, 1:2] * d2
    wts = 2.0 * _tri_areas(tris)[:, None] * w[None, :]
    owner = np.concatenate(owner + [np.repeat(_owners(clips.tri_off), len(w))])
    order = np.argsort(owner, kind="stable")
    return (np.concatenate([bpts.reshape(-1, 2), pts.reshape(-1, 2)])[order],
            np.concatenate([bwts.ravel(), wts.ravel()])[order],
            _offsets(np.bincount(owner, minlength=len(clips.area))))


def _surface_rule(clips: Clips, dom: LevelSetDomain, order: int):
    """Boundary points, weights, unit normals, tags and per-cell offsets of clipped cells' chords.

    Each point carries its chord's normal, that of Omega_h; tags separate the
    outer (Dirichlet) and hole (stress) parts, by the level set that governs
    at the chord's midpoint.  The last item is None, or (cell, error) for the
    first cell with a point where both level sets vanish
    (GeometryConflictError).
    """
    segs = clips.segs
    t, w = gauss_1d(order)
    a = segs[:, 0][:, None, :]
    d = (segs[:, 1] - segs[:, 0])[:, None, :]
    pts = (a + t[None, :, None] * d).reshape(-1, 2)
    lengths = np.hypot(segs[:, 1, 0] - segs[:, 0, 0], segs[:, 1, 1] - segs[:, 0, 1])
    wts = (lengths[:, None] * w[None, :]).ravel()
    tags = np.where(dom.branch(segs.mean(axis=1)) == 1, TAG_DIRICHLET, TAG_STRESS)
    tags = np.repeat(tags.astype(np.int8), len(t))
    normals = np.repeat(clips.normals, len(t), axis=0)
    off = clips.seg_off * len(t)

    failure = None
    if dom.hole is not None:
        both = (np.abs(dom.outer.value(pts)) < CONFLICT_TOL) & \
            (np.abs(dom.hole.value(pts)) < CONFLICT_TOL)
        if both.any():
            first = np.argmax(both)
            failure = (_owners(off)[first],
                       GeometryConflictError(f"both level sets vanish at {pts[first].tolist()}"))
    return pts, wts, normals, tags, off, failure


@dataclass(frozen=True)
class CutRule:
    """Volume and surface quadrature over an active mesh.

    Interior cells share one reference tensor rule (`ref_pts` local in
    [0,1]^2 with physical weights `int_wts`).  The cut cells, `cells` in
    ascending order, carry their own rules in flat arrays: cut cell i owns
    rows `vol_off[i]:vol_off[i+1]` of `vol_pts` and `vol_wts`, and rows
    `bnd_off[i]:bnd_off[i+1]` of `bnd_pts`, `bnd_wts`, `bnd_normals` and
    `bnd_tags`.  `cut` maps each cut cell to its one-cell `CutRule`.
    """

    h: float
    ref_pts: np.ndarray
    int_wts: np.ndarray
    cells: np.ndarray
    vol_pts: np.ndarray
    vol_wts: np.ndarray
    vol_off: np.ndarray
    bnd_pts: np.ndarray
    bnd_wts: np.ndarray
    bnd_normals: np.ndarray
    bnd_tags: np.ndarray
    bnd_off: np.ndarray

    def cell(self, i: int) -> "CutRule":
        """The rule of cut cell `cells[i]` alone."""
        v, b = slice(*self.vol_off[i:i + 2]), slice(*self.bnd_off[i:i + 2])
        return CutRule(self.h, self.ref_pts, self.int_wts, self.cells[i:i + 1],
                       self.vol_pts[v], self.vol_wts[v], self.vol_off[i:i + 2] - v.start,
                       self.bnd_pts[b], self.bnd_wts[b], self.bnd_normals[b],
                       self.bnd_tags[b], self.bnd_off[i:i + 2] - b.start)

    @cached_property
    def cut(self) -> dict[int, "CutRule"]:
        return {c: self.cell(i) for i, c in enumerate(self.cells.tolist())}

    def total_volume(self, active: "ActiveMesh") -> float:
        return len(active.interior_cells) * float(self.int_wts.sum()) + float(self.vol_wts.sum())


def build_cut_rules(active: "ActiveMesh", dom: LevelSetDomain, order: int = 5) -> CutRule:
    """Generate quadrature for every active cell of a classified mesh.

    All cut cells are mapped at once from the clips `classify` stored, at
    the mesh's sub-grid depth.  The first cut cell, in
    ascending order, whose chords fail (see `_surface_rule`) or whose rule
    is empty raises.
    """
    h = active.mesh.h
    ref, w = tensor_square(order)
    vol_pts, vol_wts, vol_off = _volume_rule(active.clips, order)
    *bnd, failure = _surface_rule(active.clips, dom, order)
    failures = [] if failure is None else [failure]
    empty = np.flatnonzero((np.diff(vol_off) == 0) & (np.diff(bnd[-1]) == 0))
    if len(empty):
        failures.append((empty[0], GeometryResolutionError(
            f"cut cell {int(active.cut_cells[empty[0]])} produced an empty rule; "
            "classification is stale")))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return CutRule(h, ref, w * h * h, active.cut_cells, vol_pts, vol_wts, vol_off, *bnd)


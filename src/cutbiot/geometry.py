"""Implicit domain description and cut-cell quadrature.

The physical domain is the region where an outer level set is negative and,
if a hole is present, the hole level set is positive.  Cut cells are
decomposed by marching triangles on a dyadic sub-grid: the combined level
set is linearly interpolated along sub-triangle edges, the inside part is
triangulated, and the zero-chords become embedded-boundary segments.  Inside
sub-squares merge into maximal quadtree blocks that carry the interior rule.
Boundary quadrature points carry outward unit normals (from the analytic
gradient of whichever level set governs the local cut) and a part tag that
separates the Dirichlet boundary (outer) from the stress boundary (hole).
A cut rule is made only from a stored `CellClip`: `mesh.classify` clips
each cut cell once, choosing its sub-grid depth, and `build_cut_rules` turns
those clips into volume and surface rules through `cut_volume_rule` and
`cut_surface_rule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, GeometryConflictError, GeometryError, GeometryResolutionError
from .quadrature import gauss_1d, tensor_square, triangle_rule

if TYPE_CHECKING:
    from .mesh import ActiveMesh

#: boundary-part tags carried by surface quadrature points
TAG_DIRICHLET = 0  # outer boundary, Gamma_d
TAG_STRESS = 1  # hole boundary, Gamma_s

MAX_SUBDIV = 6
SLIVER_FRACTION = 1e-12
GRAD_FLOOR = 1e-8


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

    def grad(self, pts: np.ndarray) -> np.ndarray:
        d = pts - self.center
        r = np.hypot(d[:, 0], d[:, 1])
        r = np.where(r == 0.0, 1.0, r)
        return d / r[:, None]


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

    def grad(self, pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        r2 = x * x + y * y
        r = np.sqrt(r2)
        r = np.where(r == 0.0, 1.0, r)
        r2 = np.where(r2 == 0.0, 1.0, r2)
        theta = np.arctan2(y, x)
        s = self.petals * self.r1 * np.sin(self.petals * theta)
        gx = x / r - s * y / r2
        gy = y / r + s * x / r2
        return np.column_stack([gx, gy])


class AffineLevelSet:
    """a*x + b*y + c, used for half-plane cuts in tests and debugging."""

    def __init__(self, a: float, b: float, c: float):
        self.a, self.b, self.c = float(a), float(b), float(c)

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.a * pts[:, 0] + self.b * pts[:, 1] + self.c

    def grad(self, pts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.array([self.a, self.b]), (len(pts), 2)).copy()


class ConstantLevelSet:
    """Constant field; value -1 makes the whole box the physical domain."""

    def __init__(self, c: float):
        self.c = float(c)

    def value(self, pts: np.ndarray) -> np.ndarray:
        return np.full(len(pts), self.c)

    def grad(self, pts: np.ndarray) -> np.ndarray:
        return np.zeros((len(pts), 2))


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

    def inside(self, pts: np.ndarray) -> np.ndarray:
        return self.psi(pts) < 0.0

    def branch(self, pts: np.ndarray) -> np.ndarray:
        """1 where the outer level set governs, 2 where the hole does."""
        if self.hole is None:
            return np.ones(len(pts), dtype=np.int8)
        v1 = self.outer.value(pts)
        v2 = -self.hole.value(pts)
        return np.where(v1 >= v2, 1, 2).astype(np.int8)

    def outward_normal(self, pts: np.ndarray, branch: np.ndarray) -> np.ndarray:
        """Unit normals pointing out of the domain for the given branch ids."""
        g = self.outer.grad(pts).copy()
        if self.hole is not None:
            mask = branch == 2
            if mask.any():
                g[mask] = -self.hole.grad(pts[mask])
        norms = np.hypot(g[:, 0], g[:, 1])
        if np.any(norms <= GRAD_FLOOR):
            raise GeometryError("level-set gradient vanishes near the boundary")
        return g / norms[:, None]


def make_flower_domain(radius: float = 0.95, r0: float = 0.7, r1: float = 0.18,
                       petals: int = 5) -> LevelSetDomain:
    """Paper geometry: circle of given radius with a flower-shaped hole."""
    return LevelSetDomain(CircleLevelSet(radius), FlowerLevelSet(r0, r1, petals))


@dataclass(frozen=True)
class CellClip:
    """Piecewise-linear decomposition of one cell against the domain.

    blocks: (nb,3) rows (x0, y0, side) of the aligned dyadic squares that
        merge the sub-squares wholly inside the domain.
    tris: (nt,3,2) vertices of the sub-triangles covering the rest of the inside.
    segs: (ns,2,2) endpoints of embedded-boundary chords.
    """

    blocks: np.ndarray
    tris: np.ndarray
    segs: np.ndarray
    area: float
    subdiv: int


def _clip_subgrid(lo: np.ndarray, h: float, dom: LevelSetDomain, m: int):
    """One marching-triangles pass at sub-grid depth m.

    Returns (blocks, tris, segs, consistent); `consistent` is False when the
    sign of psi at the centroid of an uncut sub-triangle contradicts its
    vertex pattern, i.e. the boundary wiggles below the sub-grid resolution.
    """
    ns = 2 ** m
    t = np.arange(ns + 1) / ns
    X, Y = np.meshgrid(lo[0] + h * t, lo[1] + h * t, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    psi = dom.psi(verts)

    # two triangles per sub-square: (v00,v10,v11) and (v00,v11,v01)
    ii, jj = np.meshgrid(np.arange(ns), np.arange(ns), indexing="ij")
    v00 = (ii * (ns + 1) + jj).ravel()
    v10 = v00 + (ns + 1)
    v01 = v00 + 1
    v11 = v10 + 1
    tri_idx = np.concatenate([
        np.column_stack([v00, v10, v11]),
        np.column_stack([v00, v11, v01]),
    ])

    tp = psi[tri_idx]  # (ntri, 3)
    tv = verts[tri_idx]  # (ntri, 3, 2)
    ins = tp < 0.0
    count = ins.sum(axis=1)

    full = count == 3
    empty = count == 0
    mixed = ~(full | empty)

    # a sub-square is inside when both its triangles are full; merge those
    # into maximal aligned dyadic blocks of at most half the cell
    levels = [full.reshape(2, ns, ns).all(axis=0)]
    for k in range(1, m):
        levels.append(levels[-1].reshape(ns >> k, 2, ns >> k, 2).all(axis=(1, 3)))
    levels.append(np.zeros((1, 1), dtype=bool))  # no block spans the whole cell
    ijs = []  # (i, j, side) in sub-squares of the blocks kept at each level
    for k in range(m):
        bi, bj = np.nonzero(levels[k] & ~levels[k + 1].repeat(2, 0).repeat(2, 1))
        ijs.append((bi << k, bj << k, np.full(len(bi), 1 << k)))
    i, j, side = (h / ns * np.concatenate(a) for a in zip(*ijs))
    blocks = np.column_stack([lo[0] + i, lo[1] + j, side])

    tris_out = [tv[full & ~np.tile(levels[0].ravel(), 2)]]
    segs_out = []

    if mixed.any():
        mp = tp[mixed]
        mv = tv[mixed]
        mins = ins[mixed]
        one_in = mins.sum(axis=1) == 1
        # odd vertex: the one whose side differs from the other two
        odd = np.where(one_in, np.argmax(mins, axis=1), np.argmax(~mins, axis=1))
        rows = np.arange(len(mp))
        nxt = (odd + 1) % 3
        prv = (odd + 2) % 3
        p_o, p_n, p_p = mp[rows, odd], mp[rows, nxt], mp[rows, prv]
        v_o, v_n, v_p = mv[rows, odd], mv[rows, nxt], mv[rows, prv]
        t1 = (p_o / (p_o - p_n))[:, None]
        t2 = (p_o / (p_o - p_p))[:, None]
        c1 = v_o + t1 * (v_n - v_o)
        c2 = v_o + t2 * (v_p - v_o)
        segs_out.append(np.stack([c1, c2], axis=1))
        if one_in.any():
            tris_out.append(np.stack([v_o[one_in], c1[one_in], c2[one_in]], axis=1))
        two_in = ~one_in
        if two_in.any():
            a, b = v_n[two_in], v_p[two_in]
            q1, q2 = c1[two_in], c2[two_in]
            tris_out.append(np.stack([a, b, q2], axis=1))
            tris_out.append(np.stack([a, q2, q1], axis=1))

    tris = np.concatenate(tris_out)
    segs = np.concatenate(segs_out) if segs_out else np.zeros((0, 2, 2))

    consistent = True
    pure = full | empty
    if pure.any():
        cent = tv[pure].mean(axis=1)
        sign_in = dom.psi(cent) < 0.0
        if np.any(sign_in != full[pure]):
            consistent = False
    return blocks, tris, segs, consistent


def _tri_areas(tris: np.ndarray) -> np.ndarray:
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def clip_cell(lo: np.ndarray, h: float, dom: LevelSetDomain, subdiv: int) -> CellClip:
    """Decompose one cell, escalating the sub-grid depth on inconsistency.

    Degenerate pieces (zero-area triangles, zero-length chords from cuts
    passing exactly through sub-grid vertices) are dropped so that every
    derived quadrature weight is strictly positive.
    """
    lo = np.asarray(lo, dtype=float)
    for m in range(subdiv, MAX_SUBDIV + 1):
        blocks, tris, segs, ok = _clip_subgrid(lo, h, dom, m)
        if ok:
            areas = _tri_areas(tris)
            total = float(areas.sum() + (blocks[:, 2] ** 2).sum())
            tris = tris[areas > 1e-14 * h * h]
            if len(segs):
                lens = np.hypot(segs[:, 1, 0] - segs[:, 0, 0], segs[:, 1, 1] - segs[:, 0, 1])
                segs = segs[lens > 1e-12 * h]
            return CellClip(blocks, tris, segs, total, m)
    raise GeometryResolutionError(
        f"cell at {lo.tolist()} (h={h}): level set not resolved at subdivision {MAX_SUBDIV}"
    )


def cut_volume_rule(clip: CellClip, order: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for the inside part of one clipped cell.

    Maps the interior cells' tensor rule onto each block and a triangle rule
    onto each remaining sub-triangle of the clip.  Returns physical points
    (n,2) and positive weights summing to the clipped area.
    """
    ref, w = tensor_square(order)
    b = clip.blocks
    bpts = b[:, None, :2] + b[:, None, 2:] * ref[None]
    bwts = b[:, 2:] ** 2 * w[None]
    ref, w = triangle_rule(order)
    tris = clip.tris
    v0 = tris[:, 0][:, None, :]
    d1 = (tris[:, 1] - tris[:, 0])[:, None, :]
    d2 = (tris[:, 2] - tris[:, 0])[:, None, :]
    pts = v0 + ref[None, :, 0:1] * d1 + ref[None, :, 1:2] * d2
    wts = 2.0 * _tri_areas(tris)[:, None] * w[None, :]
    return (np.concatenate([bpts.reshape(-1, 2), pts.reshape(-1, 2)]),
            np.concatenate([bwts.ravel(), wts.ravel()]))


def cut_surface_rule(clip: CellClip, dom: LevelSetDomain, order: int = 5,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature for the embedded boundary chords of one clipped cell.

    Returns (points, weights, outward unit normals, part tags).  Normals come
    from the analytic gradient of the governing level set; tags separate the
    outer (Dirichlet) and hole (stress) parts.  Raises GeometryConflictError
    when both level sets vanish at the same point.
    """
    segs = clip.segs
    seg_branch = dom.branch(segs.mean(axis=1))

    t, w = gauss_1d(order)
    a = segs[:, 0][:, None, :]
    d = (segs[:, 1] - segs[:, 0])[:, None, :]
    pts = (a + t[None, :, None] * d).reshape(-1, 2)
    lengths = np.hypot(segs[:, 1, 0] - segs[:, 0, 0], segs[:, 1, 1] - segs[:, 0, 1])
    wts = (lengths[:, None] * w[None, :]).ravel()
    branch = np.repeat(seg_branch, len(t))

    if dom.hole is not None:
        both = (np.abs(dom.outer.value(pts)) < GRAD_FLOOR) & \
            (np.abs(dom.hole.value(pts)) < GRAD_FLOOR)
        if np.any(both):
            raise GeometryConflictError(
                f"both level sets vanish at {pts[np.argmax(both)].tolist()}")
    normals = dom.outward_normal(pts, branch)
    tags = np.where(branch == 1, TAG_DIRICHLET, TAG_STRESS).astype(np.int8)
    return pts, wts, normals, tags


@dataclass
class CellRule:
    """Quadrature data for one cut cell."""

    vol_pts: np.ndarray
    vol_wts: np.ndarray
    bnd_pts: np.ndarray
    bnd_wts: np.ndarray
    bnd_normals: np.ndarray
    bnd_tags: np.ndarray


@dataclass
class CutRule:
    """Volume and surface quadrature over an active mesh.

    Interior cells share one reference tensor rule (`ref_pts` local in
    [0,1]^2 with physical weights `int_wts`); cut cells carry per-cell rules
    in `cut`, keyed by background cell index.
    """

    h: float
    ref_pts: np.ndarray
    int_wts: np.ndarray
    cut: dict[int, CellRule] = field(default_factory=dict)

    def total_volume(self, active: "ActiveMesh") -> float:
        v = len(active.interior_cells) * float(self.int_wts.sum())
        return v + sum(float(r.vol_wts.sum()) for r in self.cut.values())

    def boundary_length(self, tag: int) -> float:
        return sum(float(r.bnd_wts[r.bnd_tags == tag].sum()) for r in self.cut.values())

    def boundary_moment(self) -> np.ndarray:
        """Integral of the outward normal over the whole embedded boundary."""
        m = np.zeros(2)
        for r in self.cut.values():
            m += (r.bnd_wts[:, None] * r.bnd_normals).sum(axis=0)
        return m


def build_cut_rules(active: "ActiveMesh", dom: LevelSetDomain, order: int = 5) -> CutRule:
    """Generate quadrature for every active cell of a classified mesh.

    Cut cells reuse the clip `classify` stored for them, at the sub-grid
    depth the classification used.
    """
    h = active.mesh.h
    ref, w = tensor_square(order)
    rule = CutRule(h=h, ref_pts=ref, int_wts=w * h * h)

    for c in active.cut_cells:
        clip = active.clip_for(int(c))
        vp, vw = cut_volume_rule(clip, order)
        bp, bw, bn, bt = cut_surface_rule(clip, dom, order)
        if len(vp) == 0 and len(bp) == 0:
            raise GeometryResolutionError(
                f"cut cell {int(c)} produced an empty rule; classification is stale"
            )
        rule.cut[int(c)] = CellRule(vp, vw, bp, bw, bn, bt)
    return rule


def dump_boundary_points(rule: CutRule) -> str:
    """CSV debug dump of the boundary quadrature: x,y,nx,ny,w,tag."""
    lines = ["x,y,nx,ny,w,tag"]
    for c in sorted(rule.cut):
        r = rule.cut[c]
        for p, n, w, t in zip(r.bnd_pts, r.bnd_normals, r.bnd_wts, r.bnd_tags):
            part = "dirichlet" if t == TAG_DIRICHLET else "stress"
            vals = ",".join(repr(float(v)) for v in (p[0], p[1], n[0], n[1], w))
            lines.append(f"{vals},{part}")
    return "\n".join(lines) + "\n"

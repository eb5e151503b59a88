"""Independent reference implementations used to cross-check the solver.

Everything here is deliberately written from scratch with its own shape
functions, quadrature tables and plain Python loops, so that agreement with
the package is evidence of correctness rather than shared code.  The
per-cell geometry path at the end is the package's earlier clip, rule and
table code, run one cut cell at a time under the same classification rule
(one sub-grid depth per mesh): the batched code must match it bit for bit.
The test data (straight and constant level sets, a zero case), the small
measures of rules and matrices that only tests read, and the earlier
whole-system composition of the matrix live here too;
`full_cell_stiffness` alone reuses the package's Gram, so the
extension-constant spreads it feeds are measured as the package measures.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

# 3-point Gauss on [0,1]
_GP = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GW = np.array([5.0, 8.0, 5.0]) / 18.0

# analytic geometry constants for radius 0.95, r0=0.7, r1=0.18, petals=5
FLOWER_AREA = np.pi * (0.7 ** 2 + 0.18 ** 2 / 2.0)
OMEGA_AREA = np.pi * 0.95 ** 2 - FLOWER_AREA
CIRCLE_LENGTH = 2.0 * np.pi * 0.95
# the integral of the outward normal over a closed polygon vanishes; this
# bounds the rounding of its quadrature
MOMENT_TOL = 1e-12


class AffineLevelSet:
    """a*x + b*y + c: half-plane cuts."""

    def __init__(self, a: float, b: float, c: float):
        self.a, self.b, self.c = float(a), float(b), float(c)

    def value(self, pts):
        return self.a * pts[:, 0] + self.b * pts[:, 1] + self.c


class ShiftedCircleLevelSet:
    """Signed distance to the circle of radius r about (cx, cy): negative inside."""

    def __init__(self, r: float, cx: float, cy: float):
        self.r, self.cx, self.cy = float(r), float(cx), float(cy)

    def value(self, pts):
        return np.hypot(pts[:, 0] - self.cx, pts[:, 1] - self.cy) - self.r


class ConstantLevelSet:
    """Constant field; value -1 makes the whole box the physical domain."""

    def __init__(self, c: float):
        self.c = float(c)

    def value(self, pts):
        return np.full(len(pts), self.c)


class ZeroCase:
    """Problem data that vanish everywhere but for a constant body force `force`."""

    def __init__(self, force=(0.0, 0.0)):
        self.force = np.asarray(force, dtype=float)

    def f(self, p, prm):
        return np.tile(self.force, (len(p), 1))

    def u(self, p, *_):
        return np.zeros((len(p), 2))

    def g(self, p, *_):
        return np.zeros(len(p))

    sigma_N, g_N, p_F = u, g, g


def unit_cell_clip(dom, m):
    """The package's `Clips` of the unit cell [0, 1]^2 at sub-grid depth m."""
    from cutbiot.geometry import clip_cells, subgrid

    lo = np.zeros((1, 2))
    return clip_cells(lo, dom.psi(subgrid(lo, 1.0, m)[0])[None], 1.0, dom, m)[0]


def boundary_length(rules, tag):
    """Length of one boundary part: the sum of its quadrature weights."""
    return float(rules.bnd_wts[rules.bnd_tags == tag].sum())


def boundary_moment(rules):
    """Integral of the outward normal over the whole embedded boundary."""
    return (rules.bnd_wts[:, None] * rules.bnd_normals).sum(axis=0)


def symmetry_defect(matrix):
    """max |A - A^T| relative to max |A|."""
    d = matrix - matrix.T
    amax = np.abs(matrix.data).max() if matrix.nnz else 1.0
    return (np.abs(d.data).max() / amax) if d.nnz else 0.0


def compose_by_triplets(parts, layout, params):
    """The system matrix from one COO of every scaled part, off-diagonal ones also mirrored.

    The earlier whole-system composition.  `forms.compose_matrix` must match it
    bit for bit: the pattern, explicit zeros included (SuperLU orders by it),
    and every row's sums.
    """
    import scipy.sparse as sp
    from cutbiot.forms import _TERMS

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
    return sp.coo_matrix((np.concatenate(vv), (np.concatenate(rr), np.concatenate(cc))),
                         shape=(layout.total, layout.total)).tocsr()


def vector_dofs(scalar_dofs):
    """The interleaved displacement dofs 2*node + comp of scalar node dofs (..., nloc)."""
    expanded = 2 * scalar_dofs[..., None] + np.arange(2)
    return expanded.reshape(*scalar_dofs.shape[:-1], -1)


def full_cell_stiffness(space, cells):
    """Scalar stiffness of `space` over the entire background `cells` (no cut restriction).

    Built with the package's Gram and scatter at the rule of degree 2*degree + 1,
    shared by every cell, as the whole-cell mass of `forms.full_cell_matrix` is.
    """
    from cutbiot.forms import QuadGroup, _form, _grams
    from cutbiot.quadrature import tensor_square

    ref, w = tensor_square(2 * space.degree + 1)
    mesh = space.active.mesh
    pts = mesh.cell_origin(cells)[:, None, :] + mesh.h * ref
    grams = _grams([QuadGroup(cells, pts, np.broadcast_to(w * mesh.h ** 2, pts.shape[:2]),
                              ref=ref)], (space,))
    x, y = ("x", space.degree), ("y", space.degree)
    return _form(space, space, grams, lambda m: m(x, x) + m(y, y))


def q1_shape(t):
    return np.array([1.0 - t, t])


def q1_dshape(t):
    return np.array([-1.0, 1.0])


def q2_shape(t):
    return np.array([(2 * t - 1) * (t - 1), 4 * t * (1 - t), t * (2 * t - 1)])


def q2_dshape(t):
    return np.array([4 * t - 3, 4 - 8 * t, 4 * t - 1])


def tensor_shape(deg, x, y):
    """Values and physical-frame-free reference gradients, local index b*(k+1)+a."""
    sh, dsh = (q1_shape, q1_dshape) if deg == 1 else (q2_shape, q2_dshape)
    lx, ly = sh(x), sh(y)
    dx, dy = dsh(x), dsh(y)
    n = deg + 1
    vals = np.empty(n * n)
    grads = np.empty((n * n, 2))
    for b in range(n):
        for a in range(n):
            vals[b * n + a] = lx[a] * ly[b]
            grads[b * n + a] = (dx[a] * ly[b], lx[a] * dy[b])
    return vals, grads


def flower_arclength(r0=0.7, r1=0.18, petals=5):
    """Adaptive quadrature of the polar arclength integrand."""

    def integrand(t):
        r = r0 + r1 * np.cos(petals * t)
        rp = -petals * r1 * np.sin(petals * t)
        return np.hypot(r, rp)

    val, _ = quad(integrand, 0.0, 2.0 * np.pi, limit=400)
    return val


def montecarlo_area(dom, box_lo, box_hi, n=4_000_000, seed=42):
    rng = np.random.default_rng(seed)
    lo = np.asarray(box_lo, float)
    hi = np.asarray(box_hi, float)
    pts = lo + (hi - lo) * rng.random((n, 2))
    frac = float(np.mean(dom.psi(pts) < 0))
    box = float(np.prod(hi - lo))
    return frac * box, 3.0 * box * np.sqrt(frac * (1 - frac) / n)


def fitted_biot_system(n, box_lo, box_hi, mu, lam, K):
    """Classical fitted assembly of the three-field matrix on the full box.

    No boundary or stabilization terms (pure volume forms), matching the
    no-cut configuration with natural boundary conditions everywhere.
    Dof numbering copies the package convention (lattice nodes y-major,
    displacement components interleaved, blocks u/pT/pF) so matrices are
    directly comparable.
    """
    h = (box_hi[0] - box_lo[0]) / n
    nn2 = 2 * n + 1  # Q2 lattice
    nn1 = n + 1
    n_u = 2 * nn2 * nn2
    n_t = nn1 * nn1
    n_f = nn2 * nn2
    total = n_u + n_t + n_f
    A = np.zeros((total, total))

    # local blocks on one cell (identical for all cells)
    nq = len(_GP)
    a1 = np.zeros((18, 18))
    b1 = np.zeros((4, 18))
    a2 = np.zeros((4, 4))
    b2 = np.zeros((4, 9))
    a3 = np.zeros((9, 9))
    for qx in range(nq):
        for qy in range(nq):
            w = _GW[qx] * _GW[qy] * h * h
            v2, g2 = tensor_shape(2, _GP[qx], _GP[qy])
            v1, g1 = tensor_shape(1, _GP[qx], _GP[qy])
            g2 = g2 / h
            g1 = g1 / h
            for al in range(9):
                for be in range(9):
                    gg = g2[al] @ g2[be]
                    for c in range(2):
                        for d in range(2):
                            val = 0.5 * (g2[al][d] * g2[be][c])
                            if c == d:
                                val += 0.5 * gg
                            a1[2 * al + c, 2 * be + d] += mu * w * val
                    a3[al, be] += w * (K * gg + (2.0 / lam) * v2[al] * v2[be])
            for i in range(4):
                for be in range(9):
                    for d in range(2):
                        b1[i, 2 * be + d] += -w * v1[i] * g2[be][d]
                    b2[i, be] += (1.0 / lam) * w * v1[i] * v2[be]
                for j in range(4):
                    a2[i, j] += (1.0 / lam) * w * v1[i] * v1[j]

    def q2_dofs(cx, cy):
        out = []
        for b in range(3):
            for a in range(3):
                out.append((2 * cy + b) * nn2 + 2 * cx + a)
        return out

    def q1_dofs(cx, cy):
        out = []
        for b in range(2):
            for a in range(2):
                out.append((cy + b) * nn1 + cx + a)
        return out

    off_t, off_f = n_u, n_u + n_t
    for cx in range(n):
        for cy in range(n):
            d2 = q2_dofs(cx, cy)
            d1 = q1_dofs(cx, cy)
            du = [2 * d + c for d in d2 for c in range(2)]
            for i, gi in enumerate(du):
                for j, gj in enumerate(du):
                    A[gi, gj] += a1[i, j]
            for i, gi in enumerate(d1):
                for j, gj in enumerate(du):
                    A[off_t + gi, gj] += b1[i, j]
                    A[gj, off_t + gi] += b1[i, j]
                for j, gj in enumerate(d1):
                    A[off_t + gi, off_t + gj] += -a2[i, j]
                for j, gj in enumerate(d2):
                    A[off_t + gi, off_f + gj] += b2[i, j]
                    A[off_f + gj, off_t + gi] += b2[i, j]
            for i, gi in enumerate(d2):
                for j, gj in enumerate(d2):
                    A[off_f + gi, off_f + gj] += -a3[i, j]
    return A


def a1_energy_by_summation(x_u, space_u, rules, mu, gamma_u):
    """a1(v, v) evaluated pointwise over the quadrature rules, scalar path.

    Loops cells and points in plain Python, forming the strain of the
    discrete field and the Nitsche boundary integrands directly.
    """
    from cutbiot.geometry import TAG_DIRICHLET

    act = space_u.active
    mesh = act.mesh
    h = mesh.h
    total = 0.0

    def cell_energy(c, pts, wts):
        dofs = vector_dofs(space_u.cell_dofs[c])
        coeff = x_u[dofs]
        e = 0.0
        lo = mesh.cell_origin(int(c))
        for p, w in zip(pts, wts):
            t = (p - lo) / h
            _, g = tensor_shape(2, t[0], t[1])
            g = g / h
            gradv = np.zeros((2, 2))
            for al in range(9):
                for cc in range(2):
                    gradv[cc] += coeff[2 * al + cc] * g[al]
            eps = 0.5 * (gradv + gradv.T)
            e += w * mu * np.sum(eps * eps)
        return e

    ref = rules.ref_pts
    for c in act.interior_cells:
        lo = mesh.cell_origin(int(c))
        total += cell_energy(c, lo + h * ref, rules.int_wts)
    for c, r in rules.cut.items():
        total += cell_energy(c, r.vol_pts, r.vol_wts)
        m = r.bnd_tags == TAG_DIRICHLET
        if not m.any():
            continue
        dofs = vector_dofs(space_u.cell_dofs[c])
        coeff = x_u[dofs]
        lo = mesh.cell_origin(int(c))
        for p, w, nrm in zip(r.bnd_pts[m], r.bnd_wts[m], r.bnd_normals[m]):
            t = (p - lo) / h
            v, g = tensor_shape(2, t[0], t[1])
            g = g / h
            vv = np.zeros(2)
            gradv = np.zeros((2, 2))
            for al in range(9):
                for cc in range(2):
                    vv[cc] += coeff[2 * al + cc] * v[al]
                    gradv[cc] += coeff[2 * al + cc] * g[al]
            eps = 0.5 * (gradv + gradv.T)
            total += w * (-2.0 * mu * (eps @ nrm) @ vv + gamma_u * mu / h * vv @ vv)
    return total


def mass_pairing_by_summation(x_r, x_c, space_r, space_c, rules, scale):
    """(scale * f_r, f_c) over the physical domain by plain per-cell loops."""
    act = space_r.active
    mesh = act.mesh
    h = mesh.h
    total = 0.0

    def cell_part(c, pts, wts):
        dr = space_r.cell_dofs[c]
        dc = space_c.cell_dofs[c]
        lo = mesh.cell_origin(int(c))
        e = 0.0
        for p, w in zip(pts, wts):
            t = (p - lo) / h
            vr, _ = tensor_shape(space_r.degree, t[0], t[1])
            vc, _ = tensor_shape(space_c.degree, t[0], t[1])
            e += w * float(vr @ x_r[dr]) * float(vc @ x_c[dc])
        return e

    ref = rules.ref_pts
    for c in act.interior_cells:
        lo = mesh.cell_origin(int(c))
        total += cell_part(c, lo + h * ref, rules.int_wts)
    for c, r in rules.cut.items():
        total += cell_part(c, r.vol_pts, r.vol_wts)
    return scale * total


# ---------------------------------------------------------------------------
# the per-cell geometry path: one clip, one rule and one table row per cut cell

def _clip_subgrid(lo, h, dom, m):
    """One marching-triangles pass over one cell at sub-grid depth m.

    Returns (blocks, tris, segs, normals, consistent, inside), the pieces as
    the package's batched pass returns them for that cell, and whether psi
    < 0 at each sub-grid vertex, indexed (i, j) along (x, y).  A chord's
    normal is the normalized gradient of the linear interpolant of psi on
    its sub-triangle.
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

    tp = psi[tri_idx]
    tv = verts[tri_idx]
    ins = tp < 0.0
    count = ins.sum(axis=1)
    full = count == 3
    empty = count == 0
    mixed = ~(full | empty)

    levels = [full.reshape(2, ns, ns).all(axis=0)]
    for k in range(1, m):
        levels.append(levels[-1].reshape(ns >> k, 2, ns >> k, 2).all(axis=(1, 3)))
    levels.append(np.zeros((1, 1), dtype=bool))
    ijs = []
    for k in range(m):
        bi, bj = np.nonzero(levels[k] & ~levels[k + 1].repeat(2, 0).repeat(2, 1))
        ijs.append((bi << k, bj << k, np.full(len(bi), 1 << k)))
    i, j, side = (h / ns * np.concatenate(a) for a in zip(*ijs))
    blocks = np.column_stack([lo[0] + i, lo[1] + j, side])

    tris_out = [tv[full & ~np.tile(levels[0].ravel(), 2)]]
    segs_out, normals_out = [], []
    if mixed.any():
        mp, mv, mins = tp[mixed], tv[mixed], ins[mixed]
        one_in = mins.sum(axis=1) == 1
        odd = np.where(one_in, np.argmax(mins, axis=1), np.argmax(~mins, axis=1))
        rows = np.arange(len(mp))
        nxt, prv = (odd + 1) % 3, (odd + 2) % 3
        p_o, p_n, p_p = mp[rows, odd], mp[rows, nxt], mp[rows, prv]
        v_o, v_n, v_p = mv[rows, odd], mv[rows, nxt], mv[rows, prv]
        e1, e2 = v_n - v_o, v_p - v_o
        c1 = v_o + (p_o / (p_o - p_n))[:, None] * e1
        c2 = v_o + (p_o / (p_o - p_p))[:, None] * e2
        segs_out.append(np.stack([c1, c2], axis=1))
        # G.e1 = p_n - p_o and G.e2 = p_p - p_o by Cramer's rule
        d1, d2 = p_n - p_o, p_p - p_o
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        g = np.column_stack([d1 * e2[:, 1] - d2 * e1[:, 1],
                             e1[:, 0] * d2 - e2[:, 0] * d1]) / det[:, None]
        normals_out.append(g / np.hypot(g[:, 0], g[:, 1])[:, None])
        if one_in.any():
            tris_out.append(np.stack([v_o[one_in], c1[one_in], c2[one_in]], axis=1))
        two_in = ~one_in
        if two_in.any():
            a, b, q1, q2 = v_n[two_in], v_p[two_in], c1[two_in], c2[two_in]
            tris_out.append(np.stack([a, b, q2], axis=1))
            tris_out.append(np.stack([a, q2, q1], axis=1))
    tris = np.concatenate(tris_out)
    segs = np.concatenate(segs_out) if segs_out else np.zeros((0, 2, 2))
    normals = np.concatenate(normals_out) if normals_out else np.zeros((0, 2))

    consistent = True
    pure = full | empty
    if pure.any():
        sign_in = dom.psi(tv[pure].mean(axis=1)) < 0.0
        consistent = not np.any(sign_in != full[pure])
    return blocks, tris, segs, normals, consistent, (psi < 0.0).reshape(ns + 1, ns + 1)


def _tri_areas(tris):
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _trimmed(blocks, tris, segs, normals, h):
    """The pieces without degenerate triangles and chords, and the area before trimming."""
    areas = _tri_areas(tris)
    total = float(areas.sum() + (blocks[:, 2] ** 2).sum())
    tris = tris[areas > 1e-14 * h * h]
    if len(segs):
        lens = np.hypot(segs[:, 1, 0] - segs[:, 0, 0], segs[:, 1, 1] - segs[:, 0, 1])
        keep = lens > 1e-12 * h
        segs, normals = segs[keep], normals[keep]
    return blocks, tris, segs, normals, total


def ghost_facet_pairs(mesh, tags):
    """Per axis, the (minus, plus) cells of every facet inside the box whose two cells
    are active and at least one cut, facet by facet in ascending minus cell."""
    n = mesh.n
    pairs = ([], [])
    for c in range(n * n):
        ix, iy = divmod(c, n)
        for axis, (nb, has) in enumerate(((c + n, ix < n - 1), (c + 1, iy < n - 1))):
            if has and tags[c] != 0 and tags[nb] != 0 and 2 in (tags[c], tags[nb]):
                pairs[axis].append((c, nb))
    return [np.array(p, dtype=np.int64).reshape(-1, 2) for p in pairs]


def classify_cut_cells(mesh, dom, subdiv, n_probe=8, sliver=1e-12, max_subdiv=6):
    """Cell tags and {cut cell: (blocks, tris, segs, normals, area, depth)}.

    The probed candidates are clipped one at a time at depth m, and so is
    every cell across an edge on whose sub-grid vertices a clipped cell's
    psi changes sign.  When a clip is inconsistent, all of it is done again
    at m + 1.
    """
    from cutbiot.errors import GeometryResolutionError

    t = np.linspace(0.0, 1.0, n_probe)
    PX, PY = np.meshgrid(t, t, indexing="ij")
    offsets = np.column_stack([PX.ravel(), PY.ravel()])
    origins = mesh.cell_origin(np.arange(mesh.n_cells))
    psi = dom.psi((origins[:, None, :] + mesh.h * offsets[None]).reshape(-1, 2))
    psi = psi.reshape(mesh.n_cells, -1)
    tags = np.full(mesh.n_cells, 2, dtype=np.int8)
    tags[(psi < 0.0).all(axis=1)] = 1
    tags[(psi > 0.0).all(axis=1)] = 0
    n, h = mesh.n, mesh.h
    for m in range(subdiv, max_subdiv + 1):
        queue = [int(c) for c in np.flatnonzero(tags == 2)]
        seen, passes = set(queue), {}
        while queue:
            c = queue.pop()
            passes[c] = _clip_subgrid(mesh.cell_origin(c), h, dom, m)
            inside = passes[c][5]
            ix, iy = divmod(c, n)
            edges = ((inside[0], c - n, ix > 0), (inside[-1], c + n, ix < n - 1),
                     (inside[:, 0], c - 1, iy > 0), (inside[:, -1], c + 1, iy < n - 1))
            for edge, nb, has in edges:
                if has and edge.any() and not edge.all() and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        bad = sorted(c for c, clip in passes.items() if not clip[4])
        if not bad:
            break
    else:
        raise GeometryResolutionError(f"cell at {mesh.cell_origin(bad[0]).tolist()} (h={h}): "
                                      f"level set not resolved at subdivision {max_subdiv}")
    clips = {}
    for c in sorted(passes):
        *pieces, area = _trimmed(*passes[c][:4], h)
        if area < sliver * h * h:
            tags[c] = 0
        elif len(pieces[2]) == 0 and area >= (1.0 - sliver) * h * h:
            tags[c] = 1
        else:
            tags[c] = 2
            clips[c] = (*pieces, area, m)
    return tags, clips


def cell_rule(clip, dom, order=5):
    """(vol_pts, vol_wts, bnd_pts, bnd_wts, bnd_normals, bnd_tags) of one clipped cell."""
    from cutbiot.errors import GeometryConflictError
    from cutbiot.quadrature import gauss_1d, tensor_square, triangle_rule

    blocks, tris, segs, normals = clip[:4]
    ref, w = tensor_square(order)
    bpts = blocks[:, None, :2] + blocks[:, None, 2:] * ref[None]
    bwts = blocks[:, 2:] ** 2 * w[None]
    ref, w = triangle_rule(order)
    v0 = tris[:, 0][:, None, :]
    d1 = (tris[:, 1] - tris[:, 0])[:, None, :]
    d2 = (tris[:, 2] - tris[:, 0])[:, None, :]
    tpts = v0 + ref[None, :, 0:1] * d1 + ref[None, :, 1:2] * d2
    twts = 2.0 * _tri_areas(tris)[:, None] * w[None, :]

    branch = dom.branch(segs.mean(axis=1))
    t, w = gauss_1d(order)
    a = segs[:, 0][:, None, :]
    d = (segs[:, 1] - segs[:, 0])[:, None, :]
    pts = (a + t[None, :, None] * d).reshape(-1, 2)
    lengths = np.hypot(segs[:, 1, 0] - segs[:, 0, 0], segs[:, 1, 1] - segs[:, 0, 1])
    branch = np.repeat(branch, len(t))
    if dom.hole is not None:
        both = (np.abs(dom.outer.value(pts)) < 1e-8) & (np.abs(dom.hole.value(pts)) < 1e-8)
        if np.any(both):
            raise GeometryConflictError(
                f"both level sets vanish at {pts[np.argmax(both)].tolist()}")
    return (np.concatenate([bpts.reshape(-1, 2), tpts.reshape(-1, 2)]),
            np.concatenate([bwts.ravel(), twts.ravel()]),
            pts, (lengths[:, None] * w[None, :]).ravel(), np.repeat(normals, len(t), axis=0),
            np.where(branch == 1, 0, 1).astype(np.int8))


def cut_rules(clips, dom, order=5):
    """{cut cell: cell_rule} in ascending cell order; the first failing cell raises."""
    return {c: cell_rule(clips[c], dom, order) for c in sorted(clips)}


def quadrature_rows(active, rules, tag=None):
    """The volume (tag None) or one boundary part's table, one row per cell, grouped.

    Returns [(cells, pts, wts, normals, ref)] in the order the package's
    `quadrature_table` promises: ascending point count, the interior cells'
    group (which shares the reference points `ref`) first among equal counts,
    the cut cells of a group by ascending id.
    """
    rows = []
    for c in sorted(rules.cut):
        r = rules.cut[c]
        if tag is None:
            pts, w, nrm = r.vol_pts, r.vol_wts, None
        else:
            on = r.bnd_tags == tag
            pts, w, nrm = r.bnd_pts[on], r.bnd_wts[on], r.bnd_normals[on][None]
        if len(w):
            rows.append((np.array([c]), pts[None], w[None], nrm, None))
    by_count = {}
    for row in rows:
        by_count.setdefault(row[2].shape[1], []).append(row)
    groups = [tuple(None if col[0] is None else np.concatenate(col) for col in zip(*rs))
              for rs in by_count.values()]
    if tag is None and len(active.interior_cells):
        cells = active.interior_cells
        pts = active.mesh.cell_origin(cells)[:, None, :] + rules.h * rules.ref_pts
        groups.insert(0, (cells, pts, np.broadcast_to(rules.int_wts, pts.shape[:2]), None,
                          rules.ref_pts))
    return sorted(groups, key=lambda row: row[2].shape[1])

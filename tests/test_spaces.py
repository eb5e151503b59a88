from __future__ import annotations

import numpy as np
import pytest

from cutbiot.errors import ConfigurationError
from cutbiot.geometry import CircleLevelSet, LevelSetDomain
from cutbiot.mesh import build_mesh, classify
from cutbiot.spaces import FieldLayout, build_space, ref_basis

from oracles import ConstantLevelSet


@pytest.fixture(scope="module")
def fullbox4():
    mesh = build_mesh([-1, -1], [1, 1], 4)
    return classify(mesh, LevelSetDomain(ConstantLevelSet(-1.0)))


def test_dof_counts_full_box(fullbox4):
    assert build_space(fullbox4, 1).n_dofs == 25
    assert build_space(fullbox4, 2).n_dofs == 81
    assert build_space(fullbox4, 2, ncomp=2).n_dofs == 162


def test_dof_count_circle_matches_node_membership():
    n = 8
    mesh = build_mesh([-1, -1], [1, 1], n)
    act = classify(mesh, LevelSetDomain(CircleLevelSet(0.95)))
    space = build_space(act, 1)
    nn = n + 1
    nodes = set()
    for c in act.active_cells:
        cx, cy = int(c) // n, int(c) % n
        for b in range(2):
            for a in range(2):
                nodes.add((cy + b) * nn + (cx + a))
    assert space.n_dofs == len(nodes)
    # the dof map is indexed by cell: -1 throughout on the inactive ones
    inactive = np.setdiff1d(np.arange(mesh.n_cells), act.active_cells)
    assert np.all(space.cell_dofs[inactive] == -1)
    assert np.all(space.cell_dofs[act.active_cells] >= 0)


def test_q1_center_values():
    vals, _ = ref_basis(1).tabulate(np.array([[0.5, 0.5]]))
    assert np.allclose(vals, 0.25)


def test_q2_kronecker():
    loc = np.array([[a / 2, b / 2] for b in range(3) for a in range(3)])
    vals, _ = ref_basis(2).tabulate(loc)
    assert np.abs(vals - np.eye(9)).max() < 1e-13


def test_partition_of_unity_and_gradient_sum(fullbox4):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 1.5, (200, 2))  # extrapolation permitted
    vals, grads = ref_basis(2).tabulate(pts)
    grads = grads / fullbox4.mesh.h
    assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(grads.sum(axis=1)).max() < 1e-10


def test_interpolate_constant_and_linear(fullbox4):
    s1 = build_space(fullbox4, 1)
    vec = s1.interpolate(lambda p: np.full(len(p), 7.5))
    assert np.allclose(vec, 7.5)
    f = lambda p: 1.5 * p[:, 0] - 0.25 * p[:, 1] + 2.0
    vec = s1.interpolate(f)
    mesh = fullbox4.mesh
    rng = np.random.default_rng(1)
    for c in (0, 5, 15):
        pts = rng.random((30, 2))
        vals, _ = ref_basis(1).tabulate(pts)
        phys = mesh.cell_origin(c) + mesh.h * pts
        assert np.abs(vals @ vec[s1.cell_dofs[c]] - f(phys)).max() < 1e-12


def test_polynomial_reproduction(disc16):
    # interpolate-then-evaluate is exact for any member of Q2
    rng = np.random.default_rng(2)
    coef = rng.standard_normal((3, 3))

    def q2poly(p):
        return sum(coef[i, j] * p[:, 0] ** i * p[:, 1] ** j
                   for i in range(3) for j in range(3))

    s = disc16.sf
    vec = s.interpolate(q2poly)
    mesh = disc16.mesh
    for c in disc16.active.active_cells[::7]:
        pts = rng.random((100, 2))
        vals, _ = ref_basis(2).tabulate(pts)
        phys = mesh.cell_origin(c) + mesh.h * pts
        err = np.abs(vals @ vec[s.cell_dofs[c]] - q2poly(phys)).max()
        assert err < 1e-10


def test_continuity_across_facets(disc16):
    s = disc16.sf
    mesh = disc16.mesh
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(s.n_dofs)
    t = np.linspace(0.05, 0.95, 7)
    active = set(int(c) for c in disc16.active.active_cells)
    checked = 0
    for f in mesh.interior_facets:
        c0, c1 = (int(x) for x in mesh.facet_cells[f])
        if c0 not in active or c1 not in active:
            continue
        if mesh.facet_axis[f] == 0:
            loc0 = np.column_stack([np.ones_like(t), t])
            loc1 = np.column_stack([np.zeros_like(t), t])
        else:
            loc0 = np.column_stack([t, np.ones_like(t)])
            loc1 = np.column_stack([t, np.zeros_like(t)])
        v0, _ = ref_basis(2).tabulate(loc0)
        v1, _ = ref_basis(2).tabulate(loc1)
        d0 = vec[s.cell_dofs[c0]]
        d1 = vec[s.cell_dofs[c1]]
        assert np.abs(v0 @ d0 - v1 @ d1).max() < 1e-10
        checked += 1
    assert checked > 50


def test_interpolation_l2_rate(flower_domain):
    from cutbiot.geometry import build_cut_rules

    f = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    errs = []
    for n in (16, 32):
        mesh = build_mesh([-1, -1], [1, 1], n)
        act = classify(mesh, flower_domain)
        rules = build_cut_rules(act, flower_domain)
        s = build_space(act, 2)
        vec = s.interpolate(f)
        # L2 error over the physical domain via quadrature
        err2 = 0.0
        ref = rules.ref_pts
        cells = act.interior_cells
        vals, _ = ref_basis(2).tabulate(ref)
        for c in cells:
            lo = mesh.cell_origin(c)
            diff = vals @ vec[s.cell_dofs[c]] - f(lo + mesh.h * ref)
            err2 += float((diff ** 2) @ rules.int_wts)
        for c, r in rules.cut.items():
            if not len(r.vol_wts):
                continue
            v, _ = ref_basis(2).tabulate((r.vol_pts - mesh.cell_origin(c)) / mesh.h)
            diff = v @ vec[s.cell_dofs[c]] - f(r.vol_pts)
            err2 += float((diff ** 2) @ r.vol_wts)
        errs.append(np.sqrt(err2))
    ratio = errs[0] / errs[1]
    assert ratio == pytest.approx(8.0, rel=0.25)  # rate k+1 = 3


def test_dof_numbering_deterministic(flower_domain):
    mesh = build_mesh([-1, -1], [1, 1], 12)
    act = classify(mesh, flower_domain)
    a = build_space(act, 2, ncomp=2)
    b = build_space(act, 2, ncomp=2)
    assert np.array_equal(a.cell_dofs, b.cell_dofs)
    assert np.array_equal(a.node_coords, b.node_coords)


def test_space_errors(fullbox4):
    with pytest.raises(ConfigurationError):
        build_space(fullbox4, 4)
    with pytest.raises(ConfigurationError):
        build_space(fullbox4, 2, ncomp=3)
    mesh = build_mesh([-1, -1], [1, 1], 4)
    empty = classify(mesh, LevelSetDomain(ConstantLevelSet(1.0)))
    with pytest.raises(ConfigurationError):
        build_space(empty, 2)


def test_field_layout(disc16):
    lay = disc16.layout
    assert isinstance(lay, FieldLayout)
    assert lay.n_u == 2 * disc16.su.n_nodes
    assert lay.total == lay.n_u + lay.n_t + lay.n_f
    s_u, s_t, s_f = (lay.slice(name) for name in ("u", "pT", "pF"))
    assert s_u == slice(0, lay.n_u)
    assert s_t.start == s_u.stop and s_f.start == s_t.stop
    assert s_f.stop == lay.total

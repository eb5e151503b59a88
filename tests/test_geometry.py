from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutbiot.errors import (ConfigurationError, GeometryConflictError,
                            GeometryResolutionError)
from cutbiot import forms
from cutbiot.forms import QuadGroup, assemble_system, quadrature_table
from cutbiot.geometry import (FlowerLevelSet, LevelSetDomain,
                              build_cut_rules, make_flower_domain, subgrid, TAG_DIRICHLET,
                              TAG_STRESS, _surface_rule, _volume_rule)
from cutbiot.quadrature import tensor_square
from cutbiot.mesh import CellTag, build_mesh, classify, translate_box
from cutbiot.verification import make_case

import oracles
from oracles import CIRCLE_LENGTH, FLOWER_AREA, MOMENT_TOL, OMEGA_AREA, AffineLevelSet, \
    ConstantLevelSet, ShiftedCircleLevelSet, boundary_length, boundary_moment, \
    flower_arclength, montecarlo_area, unit_cell_clip

# random straight cuts through the unit cell: the normal's angle, a point the
# cut passes through, and the sub-grid depth of the clip
halfplane_cut = dict(theta=st.floats(0.0, 2.0 * np.pi), px=st.floats(0.05, 0.95),
                     py=st.floats(0.05, 0.95), subdiv=st.integers(1, 4))
halfplane_examples = settings(derandomize=True, deadline=None, database=None,
                              max_examples=60)
MONOMIALS = [(i, j) for i in range(6) for j in range(6 - i)]  # degree <= 5
_GL_T, _GL_W = np.polynomial.legendre.leggauss(6)  # exact to degree 11 on a segment
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W


def _halfplane(theta, px, py, subdiv):
    """The one-cell clip of the unit cell by {n.(x - p) < 0}, its domain and the unit normal n."""
    n = np.array([np.cos(theta), np.sin(theta)])
    dom = LevelSetDomain(AffineLevelSet(n[0], n[1], -(n[0] * px + n[1] * py)))
    return unit_cell_clip(dom, subdiv), dom, n


def _square_cut(n, p):
    """Oracle: the CCW polygon {x in [0,1]^2 : n.(x - p) <= 0} and its two chord ends."""
    square = [np.array(v, dtype=float) for v in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    poly = []
    for a, b in zip(square, square[1:] + square[:1]):
        fa, fb = n @ (a - p), n @ (b - p)
        if fa <= 0:
            poly.append(a)
        if fa < 0 < fb or fb < 0 < fa:
            poly.append(a + fa / (fa - fb) * (b - a))
    on = [v for v in poly if abs(n @ (v - p)) <= 1e-14]
    ends = max(((a, b) for a in on for b in on), key=lambda e: np.hypot(*(e[1] - e[0])))
    return poly, ends


def _segment_moment(a, b, f):
    """Integral over t in [0,1] of f at a + t (b - a), exact for polynomials of degree <= 11."""
    pts = a + _GL_T[:, None] * (b - a)
    return float(_GL_W @ f(pts))


def test_flower_levelset_values():
    phi = FlowerLevelSet(0.7, 0.18, 5)
    tip = np.array([[0.7 + 0.18, 0.0]])
    assert phi.value(tip)[0] == pytest.approx(0.0, abs=1e-14)
    assert phi.value(np.array([[0.0, 0.0]]))[0] == pytest.approx(-0.88)
    # direct evaluation oracle at (0.6, 0.6)
    r = np.hypot(0.6, 0.6)
    expect = r - 0.7 - 0.18 * np.cos(5 * np.arctan2(0.6, 0.6))
    got = phi.value(np.array([[0.6, 0.6]]))[0]
    assert got == pytest.approx(expect) and got > 0.27


def test_flower_levelset_invalid():
    with pytest.raises(ConfigurationError):
        FlowerLevelSet(0.1, 0.5)


@halfplane_examples
@given(**halfplane_cut)
@example(theta=0.0, px=0.5, py=0.5, subdiv=3)  # the vertical cut x = 0.5
def test_halfplane_volume_exact(theta, px, py, subdiv):
    clip, _, n = _halfplane(theta, px, py, subdiv)
    pts, wts, _ = _volume_rule(clip, 5)
    poly, _ = _square_cut(n, np.array([px, py]))
    area = 0.5 * sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(poly, poly[1:] + poly[:1]))
    assert wts.sum() == pytest.approx(area, abs=1e-14)
    assert np.all(wts > 0)
    assert np.all((pts - [px, py]) @ n <= 1e-12)  # every point in the inside half
    # divergence theorem: the integral of x^i y^j is the flux of (x^(i+1) y^j/(i+1), 0)
    for i, j in MONOMIALS:
        exact = sum((b[1] - a[1]) * _segment_moment(
            a, b, lambda q: q[:, 0] ** (i + 1) * q[:, 1] ** j / (i + 1))
            for a, b in zip(poly, poly[1:] + poly[:1]))
        assert wts @ (pts[:, 0] ** i * pts[:, 1] ** j) == pytest.approx(exact, abs=1e-12), (i, j)


def _check_blocks(clip, dom):
    """The blocks of the unit cell's one-cell clip are its maximal inside quadtree squares."""
    ns = 2 ** clip.subdiv
    ij = clip.blocks[:, :2] * ns
    side = clip.blocks[:, 2] * ns  # in sub-squares
    assert np.allclose(ij, np.round(ij), rtol=0, atol=1e-9)
    assert np.allclose(side, np.round(side), rtol=0, atol=1e-9)
    ij, side = np.round(ij).astype(int), np.round(side).astype(int)
    # aligned dyadic squares of at most half the cell, inside the cell
    assert np.all((side >= 1) & (side <= ns // 2) & (side & (side - 1) == 0))
    assert np.all(ij % side[:, None] == 0)
    assert np.all((ij >= 0) & (ij + side[:, None] <= ns))
    covered = np.zeros((ns, ns), dtype=int)
    for (i, j), k in zip(ij, side):
        covered[i:i + k, j:j + k] += 1
        t = np.arange(k + 1)
        corners = np.stack(np.meshgrid(i + t, j + t, indexing="ij"), axis=-1) / ns
        assert np.all(dom.psi(corners.reshape(-1, 2)) < 0.0)
    assert covered.max(initial=0) <= 1  # pairwise disjoint
    for (i, j), k in zip(ij, side):  # maximal: no quadtree parent is fully covered
        if k < ns // 2:
            pi, pj = i - i % (2 * k), j - j % (2 * k)
            assert not covered[pi:pi + 2 * k, pj:pj + 2 * k].all()


@halfplane_examples
@given(**halfplane_cut)
def test_halfplane_blocks_maximal(theta, px, py, subdiv):
    clip, dom, _ = _halfplane(theta, px, py, subdiv)
    _check_blocks(clip, dom)


@halfplane_examples
@given(cx=st.floats(-0.5, 1.5), cy=st.floats(-0.5, 1.5), r=st.floats(0.1, 1.5),
       hole=st.booleans(), subdiv=st.integers(1, 4))
def test_circle_blocks_maximal(cx, cy, r, hole, subdiv):
    circle = ShiftedCircleLevelSet(r, cx, cy)
    dom = LevelSetDomain(ConstantLevelSet(-1.0), circle) if hole else LevelSetDomain(circle)
    _check_blocks(unit_cell_clip(dom, subdiv), dom)


def test_blocks_cut_the_points_per_cut_cell(flower_domain):
    # the all-triangles rule carried 1978 points per cut cell here
    act = classify(build_mesh([-1, -1], [1, 1], 32), flower_domain, subdiv=4)
    rules = build_cut_rules(act, flower_domain)
    assert np.mean([len(r.vol_wts) for r in rules.cut.values()]) <= 500


@halfplane_examples
@given(**halfplane_cut)
@example(theta=0.0, px=0.5, py=0.5, subdiv=3)  # the vertical cut x = 0.5
def test_halfplane_surface_exact(theta, px, py, subdiv):
    clip, dom, n = _halfplane(theta, px, py, subdiv)
    pts, wts, normals, tags, _, failure = _surface_rule(clip, dom, 5)
    assert failure is None
    _, (a, b) = _square_cut(n, np.array([px, py]))
    length = np.hypot(*(b - a))
    assert wts.sum() == pytest.approx(length, abs=1e-13)
    assert np.abs((pts - [px, py]) @ n).max() <= 1e-12  # every point on the cut
    assert np.all(wts > 0)
    assert np.abs(np.hypot(normals[:, 0], normals[:, 1]) - 1.0).max() < 1e-14
    assert np.abs(normals - n).max() < 1e-14
    assert np.all(tags == TAG_DIRICHLET)
    for i, j in MONOMIALS:
        exact = length * _segment_moment(a, b, lambda q: q[:, 0] ** i * q[:, 1] ** j)
        assert wts @ (pts[:, 0] ** i * pts[:, 1] ** j) == pytest.approx(exact, abs=1e-12), (i, j)


def test_full_cell_tensor_rule():
    # cells wholly inside are interior and carry the reference tensor rule
    dom = LevelSetDomain(ConstantLevelSet(-1.0))
    act = classify(build_mesh([0, 0], [1, 1], 2), dom)
    assert np.all(act.tags == CellTag.INTERIOR) and len(act.cut_cells) == 0
    [group] = quadrature_table(act, build_cut_rules(act, dom, order=5))
    assert group.wts.shape == (4, 9)  # 3x3 tensor Gauss for degree 5
    assert group.wts.sum() == pytest.approx(1.0)


def test_cut_area_against_analytic_and_montecarlo(disc32):
    area = disc32.rules.total_volume(disc32.active)
    assert area == pytest.approx(OMEGA_AREA, abs=1e-4)
    mc, mc_err = montecarlo_area(disc32.dom, [-1, -1], [1, 1])
    assert abs(mc - OMEGA_AREA) < mc_err  # analytic formula cross-check


def test_boundary_lengths(flower_domain):
    mesh = build_mesh([-1, -1], [1, 1], 64)
    act = classify(mesh, flower_domain)
    rules = build_cut_rules(act, flower_domain)
    assert boundary_length(rules, TAG_DIRICHLET) == pytest.approx(CIRCLE_LENGTH, abs=1e-3)
    assert boundary_length(rules, TAG_STRESS) == pytest.approx(flower_arclength(), abs=1e-3)


def test_geometric_conservation(disc16, disc32):
    # divergence theorem on a constant field over the closed polygon boundary:
    # the chord normals are those of the polygon, so the moment is rounding
    for disc in (disc16, disc32):
        moment = boundary_moment(disc.rules)
        assert np.abs(moment).max() <= MOMENT_TOL, disc.n


def test_subdivision_refinement_monotone(flower_domain):
    mesh = build_mesh([-1, -1], [1, 1], 16)
    errs = []
    for m in (2, 3, 4):
        act = classify(mesh, flower_domain, subdiv=m)
        rules = build_cut_rules(act, flower_domain)
        errs.append(abs(rules.total_volume(act) - OMEGA_AREA))
    assert errs[0] > errs[1] > errs[2]


def test_all_rule_weights_positive(disc32):
    assert np.all(disc32.rules.int_wts > 0)
    for r in disc32.rules.cut.values():
        assert np.all(r.vol_wts > 0)
        assert np.all(r.bnd_wts > 0)


def test_normals_unit_and_outward(disc32):
    dom = disc32.dom
    h = disc32.mesh.h
    for r in disc32.rules.cut.values():
        if not len(r.bnd_wts):
            continue
        norms = np.hypot(r.bnd_normals[:, 0], r.bnd_normals[:, 1])
        assert np.abs(norms - 1.0).max() < 1e-12
        step = 1e-6 * h
        dpsi = dom.psi(r.bnd_pts + step * r.bnd_normals) - dom.psi(r.bnd_pts)
        assert dpsi.min() >= 0.0


def test_tags_follow_governing_levelset(disc32):
    dom = disc32.dom
    for r in disc32.rules.cut.values():
        if not len(r.bnd_wts):
            continue
        v1 = np.abs(dom.outer.value(r.bnd_pts))
        v2 = np.abs(dom.hole.value(r.bnd_pts))
        near_circle = v1 < 0.1
        near_flower = v2 < 0.1
        assert np.all(r.bnd_tags[near_circle & ~near_flower] == TAG_DIRICHLET)
        assert np.all(r.bnd_tags[near_flower & ~near_circle] == TAG_STRESS)


def test_zero_sets_separated(flower_domain):
    # sampled min of the other level set over each boundary part exceeds h
    mesh = build_mesh([-1, -1], [1, 1], 64)
    act = classify(mesh, flower_domain)
    rules = build_cut_rules(act, flower_domain)
    gap = np.inf
    for r in rules.cut.values():
        if not len(r.bnd_wts):
            continue
        other = np.where(r.bnd_tags == TAG_DIRICHLET,
                         np.abs(flower_domain.hole.value(r.bnd_pts)),
                         np.abs(flower_domain.outer.value(r.bnd_pts)))
        gap = min(gap, float(other.min()))
    assert gap > mesh.h


def test_geometry_conflict_error():
    # both zero sets coincide along x=0.5: ambiguous boundary part
    dom = LevelSetDomain(AffineLevelSet(1.0, 0.0, -0.5), AffineLevelSet(-1.0, 0.0, 0.5))
    *_, failure = _surface_rule(unit_cell_clip(dom, 3), dom, 5)
    assert failure[0] == 0 and isinstance(failure[1], GeometryConflictError)


class _Wiggle:
    """Oscillates far below any admissible sub-grid resolution."""

    def value(self, pts):
        return np.cos(4000.0 * pts[:, 0]) + 0.2


def test_resolution_error_escalates_then_raises():
    dom = LevelSetDomain(_Wiggle())
    with pytest.raises(GeometryResolutionError, match="not resolved at subdivision 6"):
        classify(build_mesh([0, 0], [1, 1], 2), dom, subdiv=3)


def test_sliver_reclassified(caplog):
    # inside region is a strip of width 1e-15 hugging x=1: the candidate cut
    # cells carry negligible area and must be demoted to outside
    import logging

    dom = LevelSetDomain(AffineLevelSet(-1.0, 0.0, 1.0 - 1e-15))
    mesh = build_mesh([0, 0], [1, 1], 2)
    with caplog.at_level(logging.WARNING, logger="cutbiot.mesh"):
        act = classify(mesh, dom)
    assert len(act.active_cells) == 0
    assert any("sliver" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# the batched clip and the flat rules against the per-cell path in oracles.py

RULE_FIELDS = ("vol_pts", "vol_wts", "bnd_pts", "bnd_wts", "bnd_normals", "bnd_tags")
SWEEP_DELTAS = (31 * 9 * 5e-4, 31 * 39 * 5e-4)  # two translations of the paper's sweep


def _same(a, b) -> bool:
    """Equal shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _flower_mesh(n, delta=0.0):
    return build_mesh(*translate_box((-1.0, -1.0), (1.0, 1.0), n, delta), n)


def _per_cell_rules(mesh, dom, subdiv):
    """The rules of the per-cell path, shaped like a `CutRule` with a dict `cut`."""
    _, clips = oracles.classify_cut_cells(mesh, dom, subdiv)
    ref, w = tensor_square(5)
    return SimpleNamespace(h=mesh.h, ref_pts=ref, int_wts=w * mesh.h * mesh.h, cut={
        c: SimpleNamespace(**dict(zip(RULE_FIELDS, r)))
        for c, r in oracles.cut_rules(clips, dom).items()})


def _assert_matches_per_cell(mesh, dom, subdiv):
    act = classify(mesh, dom, subdiv=subdiv)
    tags, clips = oracles.classify_cut_cells(mesh, dom, subdiv)
    assert _same(act.tags, tags)
    assert act.cut_cells.tolist() == sorted(clips)
    candidates = np.flatnonzero(oracles.classify_cut_cells(mesh, dom, subdiv, sliver=0.0)[0] == 2)
    assert act.sliver_cells.tolist() == [c for c in candidates if tags[c] == 0]
    for c, (blocks, tris, segs, normals, area, depth) in clips.items():
        clip = act.clip_for(c)
        assert _same(clip.blocks, blocks) and _same(clip.tris, tris) and _same(clip.segs, segs)
        assert _same(clip.normals, normals), c
        assert clip.area[0] == area and clip.subdiv == depth, c
    rules = build_cut_rules(act, dom, order=5)
    assert len(rules.cut) == len(clips)
    for c, expected in oracles.cut_rules(clips, dom).items():
        got = rules.cut[c]
        assert all(_same(getattr(got, f), e) for f, e in zip(RULE_FIELDS, expected)), c
    return act


@pytest.mark.parametrize("n, subdiv, delta", [
    *[(n, 3, d) for n in (16, 60) for d in (0.0, *SWEEP_DELTAS)],
    (128, 4, 0.0),
    (8, 1, 0.0),  # two probed candidates without an inside lattice vertex
    (12, 1, 0.0),  # one inconsistent cell sends the mesh to depth 2
])
def test_batched_clip_and_flat_rules_match_per_cell_path(flower_domain, n, subdiv, delta):
    mesh = _flower_mesh(n, delta)
    act = _assert_matches_per_cell(mesh, flower_domain, subdiv)
    if (n, subdiv) == (8, 1):
        # the probes see psi < 0 in cells 26 and 29, their depth-1 sub-grids
        # do not: the clip has no inside area, and both are demoted as slivers
        assert act.sliver_cells.tolist() == [26, 29]
        verts = subgrid(mesh.cell_origin(act.sliver_cells), mesh.h, 1)
        assert np.all(flower_domain.psi(verts.reshape(-1, 2)) >= 0.0)
    if (n, subdiv) == (12, 1):
        # the whole mesh is classified and clipped at depth 2, as if asked for
        assert np.all(act.clips.subdiv == 2)
        deeper = classify(mesh, flower_domain, subdiv=2)
        assert _same(act.tags, deeper.tags)
        for f in ("blocks", "tris", "segs", "normals", "seg_off"):
            assert _same(getattr(act.clips, f), getattr(deeper.clips, f)), f


def test_escalation_logs_the_final_depth_and_the_first_inconsistent_cell(flower_domain, caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="cutbiot.mesh"):
        classify(_flower_mesh(12), flower_domain, subdiv=1)
        classify(_flower_mesh(12), flower_domain, subdiv=2)
    assert [rec.getMessage() for rec in caplog.records] == [
        "cell 95: level set not resolved at subdivision 1, mesh classified and clipped at "
        "subdivision 2"]


def test_batched_sliver_case_matches_per_cell_path():
    dom = LevelSetDomain(AffineLevelSet(-1.0, 0.0, 1.0 - 1e-15))
    act = _assert_matches_per_cell(build_mesh([0, 0], [1, 1], 2), dom, 3)
    assert act.sliver_cells.tolist() == [2, 3]


class _HalfWiggle:
    """A straight cut x = 0.3, then a wiggle above x = 0.6 that no sub-grid depth resolves."""

    def value(self, pts):
        wiggle = np.cos(4000.0 * (pts[:, 0] + 0.37 * pts[:, 1])) + 0.2
        return np.where(pts[:, 0] > 0.6, wiggle, pts[:, 0] - 0.3)


@pytest.mark.parametrize("dom, error", [
    (LevelSetDomain(_HalfWiggle()), GeometryResolutionError),
    # both zero sets along x = 0.5, inside the middle column of cells
    (LevelSetDomain(AffineLevelSet(1.0, 0.0, -0.5), AffineLevelSet(-1.0, 0.0, 0.5)),
     GeometryConflictError),
], ids=["escalate_then_raise", "conflict"])
def test_batched_errors_name_the_per_cell_path_cell(dom, error):
    mesh = build_mesh([0, 0], [1, 1], 3)
    with pytest.raises(error) as expected:
        oracles.cut_rules(oracles.classify_cut_cells(mesh, dom, 3)[1], dom)
    with pytest.raises(error) as got:
        build_cut_rules(classify(mesh, dom, subdiv=3), dom)
    assert str(got.value) == str(expected.value)


def test_tables_and_parts_match_per_cell_path(disc16, params, stab, monkeypatch):
    d = disc16
    old = _per_cell_rules(d.mesh, d.dom, 3)
    for tag in (None, TAG_DIRICHLET, TAG_STRESS):
        groups = quadrature_table(d.active, d.rules, tag)
        rows = oracles.quadrature_rows(d.active, old, tag)
        assert len(groups) == len(rows)
        for g, row in zip(groups, rows):
            got = (g.cells, g.pts, g.wts, g.normals, g.ref)
            assert all(b is None if a is None else _same(a, b)
                       for a, b in zip(got, row, strict=True))
    case = make_case("trig")
    new = assemble_system(d.su, d.st, d.sf, d.rules, params, stab, case)
    monkeypatch.setattr(forms, "quadrature_table", lambda active, rules, tag=None: [
        QuadGroup(*row) for row in oracles.quadrature_rows(active, rules, tag)])
    ref = assemble_system(d.su, d.st, d.sf, old, params, stab, case)
    assert new.parts.keys() == ref.parts.keys()
    for name, part in new.parts.items():
        assert all(_same(getattr(part, a), getattr(ref.parts[name], a))
                   for a in ("data", "indices", "indptr")), name
    assert _same(new.rhs, ref.rhs)

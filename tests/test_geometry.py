from __future__ import annotations

import numpy as np
import pytest

from cutbiot.errors import (ConfigurationError, GeometryConflictError,
                            GeometryResolutionError)
from cutbiot.geometry import (AffineLevelSet, CircleLevelSet, ConstantLevelSet,
                              LevelSetDomain, clip_cell, cut_surface_rule,
                              cut_volume_rule, flower_levelset, make_flower_domain,
                              TAG_DIRICHLET, TAG_STRESS)
from cutbiot.mesh import build_mesh, classify

from oracles import CIRCLE_LENGTH, FLOWER_AREA, OMEGA_AREA, flower_arclength, \
    montecarlo_area

UNIT_CELL = (np.zeros(2), np.ones(2))


def test_flower_levelset_values():
    phi = flower_levelset(0.7, 0.18, 5)
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
        flower_levelset(0.1, 0.5)


@pytest.mark.parametrize("ls", [flower_levelset(), CircleLevelSet(0.95),
                                AffineLevelSet(0.3, -1.2, 0.1)])
def test_gradients_match_finite_differences(ls):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.99, 0.99, (400, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.05]
    eps = 1e-6
    gx = (ls.value(pts + [eps, 0]) - ls.value(pts - [eps, 0])) / (2 * eps)
    gy = (ls.value(pts + [0, eps]) - ls.value(pts - [0, eps])) / (2 * eps)
    assert np.abs(ls.grad(pts) - np.column_stack([gx, gy])).max() < 1e-7


def test_halfplane_volume_exact():
    dom = LevelSetDomain(AffineLevelSet(1.0, 0.0, -0.5))
    pts, wts = cut_volume_rule(UNIT_CELL, dom, order=5, subdiv=3)
    assert wts.sum() == pytest.approx(0.5, abs=1e-14)
    assert np.all(wts > 0)
    assert np.all(pts[:, 0] <= 0.5 + 1e-12)


def test_halfplane_surface_exact():
    dom = LevelSetDomain(AffineLevelSet(1.0, 0.0, -0.5))
    pts, wts, normals, tags = cut_surface_rule(UNIT_CELL, dom, order=5, subdiv=3)
    assert wts.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(pts[:, 0], 0.5)
    assert np.allclose(normals, [1.0, 0.0])
    assert np.all(tags == TAG_DIRICHLET)


def test_full_cell_tensor_rule():
    dom = LevelSetDomain(ConstantLevelSet(-1.0))
    pts, wts = cut_volume_rule(UNIT_CELL, dom, order=5)
    assert len(pts) == 9  # 3x3 tensor Gauss for degree 5
    assert wts.sum() == pytest.approx(1.0)


def test_cut_area_against_analytic_and_montecarlo(disc32):
    area = disc32.rules.total_volume(disc32.active)
    assert area == pytest.approx(OMEGA_AREA, abs=1e-4)
    mc, mc_err = montecarlo_area(disc32.dom, [-1, -1], [1, 1])
    assert abs(mc - OMEGA_AREA) < mc_err  # analytic formula cross-check


def test_boundary_lengths(flower_domain):
    mesh = build_mesh([-1, -1], [1, 1], 64)
    act = classify(mesh, flower_domain)
    from cutbiot.geometry import build_cut_rules

    rules = build_cut_rules(act, flower_domain)
    assert rules.boundary_length(TAG_DIRICHLET) == pytest.approx(CIRCLE_LENGTH, abs=1e-3)
    assert rules.boundary_length(TAG_STRESS) == pytest.approx(flower_arclength(), abs=1e-3)


def test_geometric_conservation(disc32):
    # divergence theorem on a constant field over the closed total boundary;
    # tolerance scales with the square of the sub-grid resolution
    h_sub = disc32.mesh.h / 2 ** disc32.rules.subdiv
    moment = disc32.rules.boundary_moment()
    assert np.abs(moment).max() <= 10.0 * h_sub ** 2


def test_subdivision_refinement_monotone(flower_domain):
    mesh = build_mesh([-1, -1], [1, 1], 16)
    errs = []
    for m in (2, 3, 4):
        act = classify(mesh, flower_domain, subdiv=m)
        from cutbiot.geometry import build_cut_rules

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
        grads_ok = np.hypot(*dom.outer.grad(r.bnd_pts).T) > 1e-8
        assert np.all(grads_ok)


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
    from cutbiot.geometry import build_cut_rules

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
    with pytest.raises(GeometryConflictError):
        cut_surface_rule(UNIT_CELL, dom, order=5, subdiv=3)


class _Wiggle:
    """Oscillates far below any admissible sub-grid resolution."""

    def value(self, pts):
        return np.cos(4000.0 * pts[:, 0]) + 0.2

    def grad(self, pts):
        g = np.zeros((len(pts), 2))
        g[:, 0] = -4000.0 * np.sin(4000.0 * pts[:, 0])
        return g


def test_resolution_error_escalates_then_raises():
    dom = LevelSetDomain(_Wiggle())
    with pytest.raises(GeometryResolutionError):
        clip_cell(np.zeros(2), 1.0, dom, 3)


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

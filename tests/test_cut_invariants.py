"""Invariants of the clips and flat cut rules of whole meshes over random cuts.

Each draw clips the circle-minus-flower domain on an n x n mesh of the box
[-1 - h, 1]^2, h = 2 / (n - 1), translated by delta*h: every translation
keeps the outer circle inside the box.  Every draw runs at sub-grid depth 1
and at depth 3.  The geometric checks compare with the analytic values in
`oracles.py`, within bounds that scale with the square of the sub-grid
resolution; the two boundary parts only where the sub-grid resolves the
gap between them.  The boundary moment is checked to rounding on every draw:
classification and clip share one sub-grid lattice per mesh, so the chords
of neighbouring cut cells meet on their common edge and close up into a
polygon.  The ghost facets equal the facet-by-facet definition in
`oracles.py`, order included.  No value that depends on the quadrature is
pinned.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutbiot.geometry import TAG_DIRICHLET, TAG_STRESS, build_cut_rules, make_flower_domain
from cutbiot.mesh import build_mesh, classify, translate_box

from oracles import CIRCLE_LENGTH, MOMENT_TOL, OMEGA_AREA, boundary_length, boundary_moment, \
    flower_arclength, ghost_facet_pairs


# The petal tips (r0 + r1 = 0.88) come this close to the outer circle.  The
# two parts' lengths are held to the sub-grid bounds only where the sub-grid
# spacing is at most half of it: on a coarser sub-grid the chords bridge the
# gap, and part of the hole's boundary is tagged as the circle's (every
# draw at depth 1).
TIP_GAP = 0.95 - 0.88


def _partitions(off, n_runs, *arrays):
    """The offsets start at 0, never fall, and end at the length of every array."""
    return (len(off) == n_runs + 1 and off[0] == 0 and np.all(np.diff(off) >= 0)
            and all(len(a) == off[-1] for a in arrays))


# Draws whose polygon was left open by a clip one depth deeper than its
# neighbour's, a demoted sliver, or a probe miss, with the boundary moment
# they had then: (12, 0) 8.5e-4 at depth 3 and 5.0e-2 at depth 1,
# (16, 0.2319) 1.0e-3 and (16, 0.051) 6.8e-3 at depth 3, (8, 0) 1.0e-1 at
# depth 1.  Each example runs at both depths.
@pytest.mark.parametrize("subdiv", [1, 3])
@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(n=st.sampled_from([12, 16, 24]), delta=st.floats(0.0, 1.0, exclude_max=True),
       petals=st.integers(3, 12))
@example(n=12, delta=0.0, petals=11)
@example(n=16, delta=0.2319, petals=11)
@example(n=16, delta=0.051, petals=11)
@example(n=8, delta=0.0, petals=11)
def test_flat_rule_invariants_over_random_cuts(n, delta, petals, subdiv):
    dom = make_flower_domain(petals=petals)
    side = 2.0 / (n - 1)
    box = translate_box((-1.0 - side, -1.0 - side), (1.0, 1.0), n, delta)
    act = classify(build_mesh(*box, n), dom, subdiv=subdiv)
    rules = build_cut_rules(act, dom)
    h = act.mesh.h
    h_sub2 = (h / 2 ** subdiv) ** 2
    ncut = len(act.cut_cells)

    clips = act.clips
    assert _partitions(clips.block_off, ncut, clips.blocks)
    assert _partitions(clips.tri_off, ncut, clips.tris)
    assert _partitions(clips.seg_off, ncut, clips.segs)
    assert np.array_equal(rules.cells, act.cut_cells)
    want = ghost_facet_pairs(act.mesh, act.tags)
    assert len(act.ghost_facets) == 2
    assert all(np.array_equal(got, w) for got, w in zip(act.ghost_facets, want))
    assert _partitions(rules.vol_off, ncut, rules.vol_pts, rules.vol_wts)
    assert _partitions(rules.bnd_off, ncut, rules.bnd_pts, rules.bnd_wts, rules.bnd_normals,
                       rules.bnd_tags)

    assert np.all(rules.int_wts > 0) and np.all(rules.vol_wts > 0) and np.all(rules.bnd_wts > 0)
    owner = np.repeat(np.arange(ncut), np.diff(rules.vol_off))
    volume = np.bincount(owner, weights=rules.vol_wts, minlength=ncut)
    assert np.all(volume <= h * h * (1.0 + 1e-12))
    local = (rules.vol_pts - act.mesh.cell_origin(act.cut_cells[owner])) / h
    assert np.all((local >= 0.0) & (local <= 1.0))  # every point in its own cell

    assert np.abs(boundary_moment(rules)).max() <= MOMENT_TOL
    assert abs(rules.total_volume(act) - OMEGA_AREA) <= 15.0 * h_sub2
    if h / 2 ** subdiv <= 0.5 * TIP_GAP:
        assert abs(boundary_length(rules, TAG_DIRICHLET) - CIRCLE_LENGTH) <= 2.0 * h_sub2
        assert abs(boundary_length(rules, TAG_STRESS) - flower_arclength(petals=petals)) \
            <= 5.0 * petals ** 2 * h_sub2

"""Invariants of the clips and flat cut rules of whole meshes over random cuts.

Each draw clips the circle-minus-flower domain on an n x n mesh of the box
[-1 - h, 1]^2, h = 2 / (n - 1), translated by delta*h: every translation
keeps the outer circle inside the box.  The geometric checks compare with
the analytic values in `oracles.py`, within bounds that scale with the
square of the sub-grid resolution.  The boundary moment is checked to
rounding where the chords close up into a polygon.  They do not where a cell
was clipped deeper than its neighbour, where a sliver cell was demoted, or
where the probes of `classify` miss a crossing that the neighbour's clip
finds on the shared edge.  There the uncovered pieces of cell edges carry
no boundary points, and the moment is held only to a bound that scales with
the square of the sub-grid resolution.  No value that depends on the
quadrature is pinned.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from cutbiot.geometry import TAG_DIRICHLET, TAG_STRESS, build_cut_rules, make_flower_domain
from cutbiot.mesh import build_mesh, classify, translate_box

from oracles import CIRCLE_LENGTH, MOMENT_TOL, OMEGA_AREA, boundary_length, boundary_moment, \
    flower_arclength

SUBDIV = 3


def _partitions(off, n_runs, *arrays):
    """The offsets start at 0, never fall, and end at the length of every array."""
    return (len(off) == n_runs + 1 and off[0] == 0 and np.all(np.diff(off) >= 0)
            and all(len(a) == off[-1] for a in arrays))


def _closed(segs, tol):
    """Every chord end meets the end of another chord, within tol."""
    ends = segs.reshape(-1, 2)
    dist, _ = cKDTree(ends).query(ends, k=2)
    return bool(np.all(dist[:, 1] <= tol))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(n=st.sampled_from([12, 16, 24]), delta=st.floats(0.0, 1.0, exclude_max=True),
       petals=st.integers(3, 12))
def test_flat_rule_invariants_over_random_cuts(n, delta, petals):
    dom = make_flower_domain(petals=petals)
    side = 2.0 / (n - 1)
    box = translate_box((-1.0 - side, -1.0 - side), (1.0, 1.0), n, delta)
    act = classify(build_mesh(*box, n), dom, subdiv=SUBDIV)
    rules = build_cut_rules(act, dom)
    h = act.mesh.h
    h_sub2 = (h / 2 ** SUBDIV) ** 2
    ncut = len(act.cut_cells)

    clips = act.clips
    assert _partitions(clips.block_off, ncut, clips.blocks)
    assert _partitions(clips.tri_off, ncut, clips.tris)
    assert _partitions(clips.seg_off, ncut, clips.segs)
    assert np.array_equal(rules.cells, act.cut_cells)
    assert _partitions(rules.vol_off, ncut, rules.vol_pts, rules.vol_wts)
    assert _partitions(rules.bnd_off, ncut, rules.bnd_pts, rules.bnd_wts, rules.bnd_normals,
                       rules.bnd_tags)

    assert np.all(rules.int_wts > 0) and np.all(rules.vol_wts > 0) and np.all(rules.bnd_wts > 0)
    owner = np.repeat(np.arange(ncut), np.diff(rules.vol_off))
    volume = np.bincount(owner, weights=rules.vol_wts, minlength=ncut)
    assert np.all(volume <= h * h * (1.0 + 1e-12))
    local = (rules.vol_pts - act.mesh.cell_origin(act.cut_cells[owner])) / h
    assert np.all((local >= 0.0) & (local <= 1.0))  # every point in its own cell

    closed = _closed(clips.segs, 1e-12 * h)
    assert np.abs(boundary_moment(rules)).max() <= \
        (MOMENT_TOL if closed else 2.0 * petals ** 2 * h_sub2)
    assert abs(rules.total_volume(act) - OMEGA_AREA) <= 15.0 * h_sub2
    assert abs(boundary_length(rules, TAG_DIRICHLET) - CIRCLE_LENGTH) <= 2.0 * h_sub2
    assert abs(boundary_length(rules, TAG_STRESS) - flower_arclength(petals=petals)) \
        <= 5.0 * petals ** 2 * h_sub2

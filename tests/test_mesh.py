from __future__ import annotations

import numpy as np
import pytest

from cutbiot.cli import RunConfig, cmd_solve
from cutbiot.errors import ConfigurationError
from cutbiot.geometry import TAG_DIRICHLET, LevelSetDomain, CircleLevelSet, make_flower_domain
from cutbiot.mesh import CellTag, build_mesh, classify, translate_box

from oracles import AffineLevelSet, ConstantLevelSet, boundary_length


def test_build_mesh_basic():
    mesh = build_mesh([-1, -1], [1, 1], 16)
    assert mesh.h == pytest.approx(0.125)
    assert mesh.n_cells == 256


@pytest.mark.parametrize("n0", range(2, 7))
def test_refinement_ladder_sizes(n0):
    n = 2 ** (2 + n0)
    mesh = build_mesh([-1, -1], [1, 1], n)
    assert mesh.n_cells == n * n
    assert mesh.h == pytest.approx(2.0 / n)


def test_build_mesh_errors():
    with pytest.raises(ConfigurationError):
        build_mesh([0, 0], [2, 1], 4)
    with pytest.raises(ConfigurationError):
        build_mesh([0, 0], [1, 1], 1)
    with pytest.raises(ConfigurationError):
        build_mesh([1, 1], [0, 0], 4)


def test_classify_circle_corners():
    mesh = build_mesh([-1, -1], [1, 1], 4)
    dom = LevelSetDomain(CircleLevelSet(0.95))
    act = classify(mesh, dom)
    cut_cell = 3 * mesh.n + 3  # [0.5,1] x [0.5,1]
    assert act.tags[cut_cell] == CellTag.CUT
    inner = 1 * mesh.n + 1  # [-0.5,0] x [-0.5,0] contains [-0.25,0]^2
    assert act.tags[inner] == CellTag.INTERIOR


def test_classify_whole_box():
    mesh = build_mesh([-1, -1], [1, 1], 8)
    act = classify(mesh, LevelSetDomain(ConstantLevelSet(-1.0)))
    assert np.all(act.tags == CellTag.INTERIOR)
    assert [len(p) for p in act.ghost_facets] == [0, 0]
    assert len(act.cut_cells) == 0


def test_classify_boundary_on_facet():
    # zero set exactly on a grid line: the measure-zero side is demoted to
    # outside by the sliver rule; the full side stays cut and carries the
    # boundary quadrature exactly once
    mesh = build_mesh([-1, -1], [1, 1], 4)
    dom = LevelSetDomain(AffineLevelSet(1.0, 0.0, 0.0))
    act = classify(mesh, dom)
    assert len(act.active_cells) == 8
    centers = mesh.cell_origin(act.active_cells) + mesh.h / 2
    assert np.all(centers[:, 0] < 0)
    from cutbiot.geometry import build_cut_rules

    rules = build_cut_rules(act, dom)
    assert rules.total_volume(act) == pytest.approx(2.0, abs=1e-12)
    assert boundary_length(rules, 0) == pytest.approx(2.0, abs=1e-12)


def test_ghost_facets_invariants(disc16):
    act = disc16.active
    n = disc16.mesh.n
    tags = act.tags
    assert len(act.ghost_facets) == 2 and sum(len(p) for p in act.ghost_facets) > 0
    listed = set()
    for axis, step in enumerate((n, 1)):
        pairs = act.ghost_facets[axis]
        assert np.all(np.diff(pairs[:, 0]) > 0)  # ascending minus cell
        assert np.all(pairs[:, 1] == pairs[:, 0] + step) and np.all(pairs[:, 1] < n * n)
        if axis == 1:
            assert np.all(pairs[:, 0] // n == pairs[:, 1] // n)  # within one column
        for c0, c1 in pairs:
            assert tags[c0] != CellTag.OUTSIDE and tags[c1] != CellTag.OUTSIDE
            assert tags[c0] == CellTag.CUT or tags[c1] == CellTag.CUT
            listed.add((int(c0), int(c1)))
    # complete: every neighbouring pair of active cells with a cut cell is listed
    for c in range(n * n):
        ix, iy = divmod(c, n)
        for nb, has in ((c + n, ix < n - 1), (c + 1, iy < n - 1)):
            pair = (tags[c], tags[nb] if has else CellTag.OUTSIDE)
            if CellTag.OUTSIDE not in pair and CellTag.CUT in pair:
                assert (c, nb) in listed, (c, nb)


def test_active_partition(disc16):
    act = disc16.active
    union = np.sort(np.concatenate([act.interior_cells, act.cut_cells]))
    assert np.array_equal(union, np.sort(act.active_cells))
    assert len(np.intersect1d(act.interior_cells, act.cut_cells)) == 0


def test_every_cut_cell_has_boundary_points(disc16):
    for c in disc16.active.cut_cells:
        assert len(disc16.rules.cut[int(c)].bnd_wts) > 0


def test_probe_monotonicity(flower_domain):
    mesh = build_mesh([-1, -1], [1, 1], 12)
    tags = {p: classify(mesh, flower_domain, n_probe=p).tags for p in (2, 4, 8, 16)}
    for lo, hi in [(2, 4), (4, 8), (8, 16)]:
        a, b = tags[lo], tags[hi]
        # a pure tag may become cut under refinement, never the opposite pure tag
        assert not np.any((a == CellTag.INTERIOR) & (b == CellTag.OUTSIDE))
        assert not np.any((a == CellTag.OUTSIDE) & (b == CellTag.INTERIOR))


def test_cut_layer_scaling(flower_domain):
    counts = {}
    for n in (16, 32, 64):
        mesh = build_mesh([-1, -1], [1, 1], n)
        act = classify(mesh, flower_domain)
        counts[n] = len(act.cut_cells)
        assert len(act.interior_cells) > 0
    # boundary-layer scaling: the per-N constant wobbles with how the curve
    # crosses cells (factor up to sqrt(2)), so allow that much on the fit
    c_fit = np.sqrt(2.0) * counts[16] / 16
    for n in (32, 64):
        assert counts[n] <= c_fit * n


def test_translate_box():
    lo, hi = (-1.0, -1.0), (1.0, 1.0)
    assert translate_box(lo, hi, 60, 0.0) == (lo, hi)
    delta = 5e-4
    moved_lo, moved_hi = translate_box(lo, hi, 60, delta)
    h = 2.0 / 60
    assert moved_lo == pytest.approx((-1 + delta * h, -1 + delta * h))
    assert moved_hi == pytest.approx((1 + delta * h, 1 + delta * h))
    with pytest.raises(ConfigurationError):
        translate_box(lo, hi, 60, -0.1)


def test_translation_family():
    # paper family delta_k = k * 5e-4, k = 1..2000; desk scale subsamples 64
    full = [k * 5e-4 for k in range(1, 2001)]
    assert full[-1] == pytest.approx(1.0)
    from cutbiot.cli import RunConfig, sweep_deltas

    deltas = sweep_deltas(RunConfig.from_dict({}))
    assert len(deltas) == 64
    for j, d in enumerate(deltas, start=1):
        assert d == pytest.approx(31 * j * 5e-4)
        assert min(abs(d - f) for f in full) < 1e-12  # subsample of the family
    assert deltas == sorted(deltas)
    assert deltas[-1] <= 1.0


def test_dump_classification(disc16, tmp_path):
    # the CLI's debug tables: every cell's tag in cell order, every boundary point's part
    cmd_solve(RunConfig.from_dict({"mesh": {"n": 16, "subdiv": disc16.active.subdiv},
                                   "output": {"write_debug": True}}), tmp_path)
    names = {CellTag.OUTSIDE: "outside", CellTag.INTERIOR: "interior", CellTag.CUT: "cut"}
    lines = (tmp_path / "classification.txt").read_text().splitlines()
    assert lines == ["cell_index,tag"] + [f"{c},{names[t]}"
                                          for c, t in enumerate(disc16.active.tags)]
    rows = (tmp_path / "boundary_points.csv").read_text().splitlines()
    assert rows[0] == "x,y,nx,ny,w,tag"
    assert [row.rsplit(",", 1)[1] for row in rows[1:]] == [
        "dirichlet" if t == TAG_DIRICHLET else "stress" for t in disc16.rules.bnd_tags]

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cutbiot import forms
from cutbiot.errors import AssemblyError, ConfigurationError
from cutbiot.forms import (_TERMS, PhysicalParams, StabilizationParams, _bilinear_parts,
                           assemble_ghost, assemble_rhs, assemble_system, compose_matrix,
                           full_cell_matrix, quadrature_table, with_params, without_ghost)
from cutbiot.geometry import LevelSetDomain, build_cut_rules, make_flower_domain
from cutbiot.mesh import CellTag, build_mesh, classify, translate_box
from cutbiot.solver import _symmetric_lu
from cutbiot.spaces import build_space, make_layout
from cutbiot.verification import error_norms, make_case

from oracles import (FLOWER_AREA, OMEGA_AREA, AffineLevelSet, ConstantLevelSet, ZeroCase,
                     a1_energy_by_summation, boundary_length, compose_by_triplets,
                     fitted_biot_system, full_cell_stiffness, mass_pairing_by_summation,
                     symmetry_defect)


@pytest.fixture(scope="module")
def fullbox():
    """No-cut box [-1,1]^2: every cell interior, no boundary anywhere."""
    mesh = build_mesh([-1, -1], [1, 1], 6)
    dom = LevelSetDomain(ConstantLevelSet(-1.0))
    act = classify(mesh, dom)
    rules = build_cut_rules(act, dom)
    su = build_space(act, 2, ncomp=2)
    st = build_space(act, 1)
    sf = build_space(act, 2)
    return act, rules, su, st, sf


def _bare(su, st, sf, rules, params, stab=StabilizationParams()):
    """The system without ghost penalties, whose blocks are the bare forms."""
    return without_ghost(assemble_system(su, st, sf, rules, params, stab))


def _block(system, row, col):
    """One field's rows and another's columns of the composed matrix."""
    return system.matrix[system.layout.slice(row), system.layout.slice(col)]


def _scaled(system, name):
    """One term's block at the system's parameters: its unit block times its scale."""
    return system.parts[name] * _TERMS[name].scale(system.params)


def _a3(disc_spaces, rules, params, stab):
    """(a3_1, a3_2): the Darcy part with its Nitsche terms, and the 2/lambda mass."""
    sys_ = _bare(*disc_spaces, rules, params, stab)
    return (_scaled(sys_, "a3_stiff") + _scaled(sys_, "a3_nitsche")
            + _scaled(sys_, "a3_penalty"), _scaled(sys_, "a3_mass"))


def test_a1_rigid_translation_zero(fullbox, params, stab):
    act, rules, su, st, sf = fullbox
    a1 = _block(_bare(su, st, sf, rules, params, stab), "u", "u")
    v = su.interpolate(lambda p: np.tile([0.3, -1.2], (len(p), 1)))
    scale = np.abs(a1.data).max()
    assert abs(v @ (a1 @ v)) < 1e-12 * scale


def test_a1_linear_strain_energy(fullbox, params, stab):
    # u = (x, -y): eps = diag(1,-1), integrand 2 over area 4
    act, rules, su, st, sf = fullbox
    a1 = _block(_bare(su, st, sf, rules, params, stab), "u", "u")
    v = su.interpolate(lambda p: np.column_stack([p[:, 0], -p[:, 1]]))
    assert v @ (a1 @ v) == pytest.approx(8.0, rel=1e-13)


def test_a1_matches_summation_oracle(disc16, params, stab):
    a1 = _block(_bare(disc16.su, disc16.st, disc16.sf, disc16.rules, params, stab), "u", "u")
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(disc16.su.n_dofs)
        direct = v @ (a1 @ v)
        oracle = a1_energy_by_summation(v, disc16.su, disc16.rules,
                                        params.mu, stab.gamma_u)
        assert direct == pytest.approx(oracle, rel=1e-10)


def test_b1_constant_fields_closed_boundary(disc16):
    # b1(const, const) = c*q * integral of n over the closed outer circle = 0
    b1 = _block(_bare(disc16.su, disc16.st, disc16.sf, disc16.rules, PhysicalParams()),
                "pT", "u")
    v = disc16.su.interpolate(lambda p: np.tile([1.0, 1.0], (len(p), 1)))
    q = disc16.st.interpolate(lambda p: np.ones(len(p)))
    assert abs(q @ (b1 @ v)) < 1e-4


def test_b1_divergence_value(disc16):
    # v=(x,0), q=1: -(div v, 1) + (v.n, 1)_Gd = -|Omega| + pi R^2 = A_flower
    b1 = _block(_bare(disc16.su, disc16.st, disc16.sf, disc16.rules, PhysicalParams()),
                "pT", "u")
    v = disc16.su.interpolate(lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]))
    q = disc16.st.interpolate(lambda p: np.ones(len(p)))
    assert q @ (b1 @ v) == pytest.approx(FLOWER_AREA, abs=1e-3)


def test_a2_box_and_domain(fullbox, disc16):
    act, rules, su, st, sf = fullbox
    a2 = _scaled(_bare(su, st, sf, rules, PhysicalParams(lam=2.0)), "a2_mass")
    ones = np.ones(st.n_dofs)
    assert ones @ (a2 @ ones) == pytest.approx(2.0, rel=1e-12)
    a2d = _scaled(_bare(disc16.su, disc16.st, disc16.sf, disc16.rules,
                        PhysicalParams(lam=1.0)), "a2_mass")
    ones = np.ones(disc16.st.n_dofs)
    assert ones @ (a2d @ ones) == pytest.approx(OMEGA_AREA, abs=1e-3)


def test_a2_lambda_scaling(disc16):
    spaces = disc16.su, disc16.st, disc16.sf
    a_unit = _scaled(_bare(*spaces, disc16.rules, PhysicalParams(lam=1.0)), "a2_mass")
    a_big = _scaled(_bare(*spaces, disc16.rules, PhysicalParams(lam=1e8)), "a2_mass")
    diff = (a_big - 1e-8 * a_unit)
    assert np.abs(diff.data).max() <= 1e-22 if diff.nnz else True


def test_b2_scaling_and_oracle(disc16):
    spaces = disc16.su, disc16.st, disc16.sf
    b2_tiny = _scaled(_bare(*spaces, disc16.rules, PhysicalParams(lam=1e16)), "b2_mass")
    assert np.abs(b2_tiny.data).max() <= 1e-16 * 4.0  # area-bounded local mass
    b2 = _scaled(_bare(*spaces, disc16.rules, PhysicalParams(lam=3.0)), "b2_mass")
    rng = np.random.default_rng(6)
    pf = rng.standard_normal(disc16.sf.n_dofs)
    qt = rng.standard_normal(disc16.st.n_dofs)
    direct = qt @ (b2 @ pf)
    oracle = mass_pairing_by_summation(qt, pf, disc16.st, disc16.sf,
                                       disc16.rules, 1.0 / 3.0)
    assert direct == pytest.approx(oracle, rel=1e-10)


def test_a3_constant_field(disc16, stab):
    prm = PhysicalParams(mu=1.0, lam=4.0, K=2.0)
    a31, a32 = _a3((disc16.su, disc16.st, disc16.sf), disc16.rules, prm, stab)
    ones = np.ones(disc16.sf.n_dofs)
    gamma_len = stab.gamma_p / disc16.rules.h * prm.K * boundary_length(disc16.rules, 1)
    assert ones @ (a31 @ ones) == pytest.approx(gamma_len, rel=1e-10)
    assert ones @ (a32 @ ones) == pytest.approx(2.0 * OMEGA_AREA / prm.lam, abs=1e-3)


def test_a3_linear_field_box(fullbox, stab):
    act, rules, su, st, sf = fullbox
    lam = 5.0
    a31, a32 = _a3((su, st, sf), rules, PhysicalParams(lam=lam, K=1.0), stab)
    v = sf.interpolate(lambda p: p[:, 0])
    assert v @ (a31 @ v) == pytest.approx(4.0, rel=1e-12)
    # (2/lambda) * integral of x^2 over the box = (2/lambda)*(4/3)
    assert v @ (a32 @ v) == pytest.approx(8.0 / (3.0 * lam), rel=1e-12)


def test_a3_term_scalings(disc16, stab):
    def a3_blocks(prm):
        sys_ = without_ghost(assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules,
                                             prm, stab))
        return {name: _scaled(sys_, name) for name in sys_.parts}

    base = a3_blocks(PhysicalParams(lam=1.0, K=1.0))
    scaled = a3_blocks(PhysicalParams(lam=1e8, K=1e-8))
    for name, factor in [("a3_stiff", 1e-8), ("a3_nitsche", 1e-8),
                         ("a3_penalty", 1e-8), ("a3_mass", 1e-8)]:
        d = scaled[name] - factor * base[name]
        assert (np.abs(d.data).max() if d.nnz else 0.0) <= 1e-14 * max(
            1e-30, np.abs(scaled[name].data).max())


def test_a3_negative_K_rejected():
    with pytest.raises(ConfigurationError):
        PhysicalParams(K=-1.0)


# ---------------------------------------------------------------------------
# ghost penalty

def test_ghost_annihilates_global_polynomials(disc16):
    from cutbiot.forms import ghost_seminorm

    rng = np.random.default_rng(7)
    coef = rng.standard_normal((3, 3))

    def q2poly(p):
        return sum(coef[i, j] * p[:, 0] ** i * p[:, 1] ** j
                   for i in range(3) for j in range(3))

    v = disc16.sf.interpolate(q2poly)
    assert ghost_seminorm(disc16.sf, v) < 1e-10 * np.abs(v).max()

    vu = disc16.su.interpolate(lambda p: np.column_stack([q2poly(p), p[:, 0] * p[:, 1]]))
    assert ghost_seminorm(disc16.su, vu) < 1e-10 * np.abs(vu).max()

    # the seminorm agrees with the assembled quadratic form on generic fields
    g = assemble_ghost(disc16.sf, 1.0)
    w = rng.standard_normal(disc16.sf.n_dofs)
    assert ghost_seminorm(disc16.sf, w) == \
        pytest.approx(np.sqrt(w @ (g @ w)), rel=1e-10)


def test_ghost_single_facet_value():
    # box [0,1]^2, 2x2 cells, domain cut through the right column: the two
    # vertical mid-facets carry a unit normal-derivative jump of the hat
    # profile, each contributing gamma*h^2
    dom = LevelSetDomain(AffineLevelSet(1.0, 0.0, -0.55))
    mesh = build_mesh([0, 0], [1, 1], 2)
    act = classify(mesh, dom)
    assert [len(p) for p in act.ghost_facets] == [2, 1]  # two vertical + one between cut cells
    s1 = build_space(act, 1)
    gamma = 0.37
    g = assemble_ghost(s1, gamma)
    v = s1.interpolate(lambda p: np.maximum(p[:, 0] - 0.5, 0.0))
    h = mesh.h
    assert v @ (g @ v) == pytest.approx(2.0 * gamma * h * h, rel=1e-12)


def test_ghost_weak_consistency_decay(flower_domain):
    vals = []
    for n in (8, 16, 32):
        mesh = build_mesh([-1, -1], [1, 1], n)
        act = classify(mesh, flower_domain)
        s = build_space(act, 2)
        g = assemble_ghost(s, 1.0)
        v = s.interpolate(lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
        vals.append(np.sqrt(v @ (g @ v)))
    assert vals[0] > vals[1] > vals[2]


def test_ghost_facet_with_inactive_neighbour_rejected(disc8):
    act = disc8.active
    n = act.mesh.n
    minus = np.arange(n * (n - 1))
    outside = act.tags == CellTag.OUTSIDE
    on_edge = minus[outside[minus] != outside[minus + n]]
    vertical = np.append(act.ghost_facets[0], [[on_edge[0], on_edge[0] + n]], axis=0)
    broken = replace(act, ghost_facets=(vertical, act.ghost_facets[1]))
    with pytest.raises(AssemblyError, match="inactive neighbor"):
        assemble_ghost(build_space(broken, 1), 1.0)


def test_ghost_positive_semidefinite(disc16):
    g = assemble_ghost(disc16.st, 0.01)
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.standard_normal(disc16.st.n_dofs)
        assert v @ (g @ v) >= -1e-12


# ---------------------------------------------------------------------------
# right-hand side

def test_rhs_zero_data(disc16, params, stab):
    [rhs] = assemble_rhs(disc16.su, disc16.st, disc16.sf, disc16.rules, stab,
                         [params], ZeroCase())
    assert np.all(rhs == 0.0)


def test_rhs_constant_force(disc16, params, stab):
    c = np.array([2.5, -1.0])
    [rhs] = assemble_rhs(disc16.su, disc16.st, disc16.sf, disc16.rules, stab,
                         [params], ZeroCase(force=c))
    lay = disc16.layout
    lu = rhs[lay.slice("u")]
    assert lu[0::2].sum() == pytest.approx(c[0] * OMEGA_AREA, abs=1e-3 * abs(c[0]))
    assert lu[1::2].sum() == pytest.approx(c[1] * OMEGA_AREA, abs=1e-3 * abs(c[1]))
    assert np.all(rhs[lay.slice("pT")] == 0.0)


def test_rhs_needs_a_load(disc16, stab):
    with pytest.raises(ConfigurationError, match="at least one parameter set"):
        assemble_rhs(disc16.su, disc16.st, disc16.sf, disc16.rules, stab, [], ZeroCase())


# ---------------------------------------------------------------------------
# system assembly

def test_system_symmetry_and_sparsity(disc16, params, stab):
    sys_ = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules,
                           params, stab)
    assert symmetry_defect(sys_.matrix) <= 1e-12
    assert _block(sys_, "u", "pF").count_nonzero() == 0
    assert _block(sys_, "pF", "u").count_nonzero() == 0


def test_system_matches_fitted_oracle():
    # no-cut full box with pure natural conditions equals the classical
    # fitted three-field matrix
    n = 4
    mesh = build_mesh([-1, -1], [1, 1], n)
    dom = LevelSetDomain(ConstantLevelSet(-1.0))
    act = classify(mesh, dom)
    rules = build_cut_rules(act, dom)
    su, st, sf = build_space(act, 2, ncomp=2), build_space(act, 1), build_space(act, 2)
    prm = PhysicalParams(mu=1.7, lam=3.0, K=0.25)
    stab = StabilizationParams()
    sys_ = assemble_system(su, st, sf, rules, prm, stab)
    dense = sys_.matrix.toarray()
    oracle = fitted_biot_system(n, [-1, -1], [1, 1], prm.mu, prm.lam, prm.K)
    assert np.abs(dense - oracle).max() <= 1e-10 * np.abs(oracle).max()


@pytest.mark.parametrize("ghost", [True, False])
def test_compose_matches_the_whole_system_triplets(disc16, stab, ghost):
    # SuperLU's MMD ordering reads the pattern, explicit zeros included
    prm = PhysicalParams(mu=2.5, lam=7.0, K=0.3)
    system = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules, prm, stab)
    if not ghost:
        system = without_ghost(system)
    got = compose_matrix(system.parts, system.layout, prm)
    want = compose_by_triplets(system.parts, system.layout, prm)
    got.sort_indices()
    want.sort_indices()
    assert np.count_nonzero(want.data == 0.0) > 0
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)  # each row is summed in the same order
    fill = [lu.L.nnz + lu.U.nnz for lu in (_symmetric_lu(m.tocsc()) for m in (got, want))]
    assert fill[0] == fill[1]


def test_compose_peak_memory_and_int32_indices(disc32, params, stab):
    system = assemble_system(disc32.su, disc32.st, disc32.sf, disc32.rules, params, stab)
    assert all(s.cell_dofs.dtype == np.int32 for s in (disc32.su, disc32.st, disc32.sf))
    assert all(part.indices.dtype == np.int32 for part in system.parts.values())
    tracemalloc.start()
    try:
        matrix = compose_matrix(system.parts, system.layout, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


def test_assembly_peak_memory(disc32, params, stab):
    # one Gram for all interior cells, boundary Grams on the value columns their
    # terms read, and triplets filled in place: the peak is 2.19x the parts' bytes;
    # with per-cell interior Grams, all 39 boundary columns and concatenated
    # triplets it was 3.20x
    tracemalloc.start()
    try:
        system = assemble_system(disc32.su, disc32.st, disc32.sf, disc32.rules, params, stab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(p.data.nbytes + p.indices.nbytes + p.indptr.nbytes for p in system.parts.values())
    assert peak <= 2.75 * held


def test_interior_cells_contribute_one_shared_local_block(disc16, stab, monkeypatch):
    d = disc16
    spaces = (d.su, d.st, d.sf)
    groups = quadrature_table(d.active, d.rules)
    [i] = [k for k, g in enumerate(groups) if g.ref is not None]
    assert np.array_equal(groups[i].cells, d.active.interior_cells)
    # one Gram for the group, equal to the per-cell Grams at each cell's own points
    [shared], [per_cell] = (forms._grams([g], spaces) for g in (groups[i], replace(
        groups[i], ref=None)))
    assert shared.G.shape[0] == 1 and per_cell.G.shape[0] == len(groups[i].cells)
    assert np.abs(per_cell.G - shared.G).max() <= 1e-13 * np.abs(shared.G).max()
    # every volume part scatters it as one broadcast local block
    scattered = []

    def recording(shape, blocks):
        scattered.append([(len(rows), len(loc)) for rows, _, loc in blocks])
        return real(shape, blocks)

    real = forms._scatter
    monkeypatch.setattr(forms, "_scatter", recording)
    parts = _bilinear_parts(d.rules, stab, *spaces)
    volume = {"a1_strain", "b1_vol", "a2_mass", "b2_mass", "a3_stiff", "a3_mass"}
    for name, blocks in zip(parts, scattered, strict=True):
        shared_at = [k for k, (cells, nloc) in enumerate(blocks) if nloc != cells]
        assert shared_at == ([i] if name in volume else []), name
        if name in volume:
            assert blocks[i] == (len(d.active.interior_cells), 1)


def test_system_layout_mismatch(disc16, params, stab):
    other = classify(build_mesh([-1, -1], [1, 1], 8), make_flower_domain())
    st_other = build_space(other, 1)
    with pytest.raises(AssemblyError):
        assemble_system(disc16.su, st_other, disc16.sf, disc16.rules, params, stab)
    # a translated mesh of the same size gives a layout of the same length,
    # which `assemble_rhs` used to accept without complaint
    lo, hi = translate_box((-1.0, -1.0), (1.0, 1.0), 16, 0.3)
    st_moved = build_space(classify(build_mesh(lo, hi, 16), make_flower_domain()), 1)
    d = disc16
    x = np.zeros((1, d.su.n_dofs + st_moved.n_dofs + d.sf.n_dofs))
    with pytest.raises(AssemblyError):
        assemble_rhs(d.su, st_moved, d.sf, d.rules, stab, [params], ZeroCase())
    with pytest.raises(AssemblyError):
        error_norms(x, [params], make_case(), d.su, st_moved, d.sf, d.rules, stab)


def test_parameter_rescaling_matches_direct(disc16, stab):
    unit = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules,
                           PhysicalParams(1.0, 1.0, 1.0), stab)
    prm = PhysicalParams(mu=2.5, lam=1e8, K=1e-8)
    direct = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules, prm, stab)
    scaled = with_params(unit, prm, direct.rhs)
    d = (direct.matrix - scaled.matrix).tocoo()
    assert (np.abs(d.data).max() if d.nnz else 0.0) <= \
        1e-14 * np.abs(direct.matrix.data).max()


def test_without_ghost_removes_only_ghost_terms(disc16, params, stab):
    full = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules, params, stab)
    bare = without_ghost(full)
    assert not any(k.startswith("g") for k in bare.parts)
    direct = replace(full, parts=_bilinear_parts(disc16.rules, stab, disc16.su, disc16.st,
                                                 disc16.sf))
    d = (bare.matrix - direct.matrix).tocoo()
    assert (np.abs(d.data).max() if d.nnz else 0.0) == 0.0


def test_ghost_per_field_scalings(disc16, params, stab):
    # gradient-type forms take the bare facet sum, mass-type forms an extra
    # h^2: mu for u, h^2 for p_T, K + h^2/lambda for p_F
    h = disc16.rules.h
    g_f = assemble_ghost(disc16.sf, stab.gamma_g_u)
    g_u = assemble_ghost(disc16.su, stab.gamma_g_u)
    g_t = assemble_ghost(disc16.st, stab.gamma_g_p)
    for prm in (params, PhysicalParams(mu=2.5, lam=4.0, K=0.3)):
        sys_ = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules, prm, stab)
        expected = {
            "g1": prm.mu * g_u,
            "g2": h * h * g_t,
            "g3_1": prm.K * g_f,
            "g3_2": (h * h / prm.lam) * g_f,
        }
        for name, want in expected.items():
            d = (_scaled(sys_, name) - want).tocoo()
            assert (np.abs(d.data).max() if d.nnz else 0.0) <= \
                1e-14 * np.abs(want.data).max(), name


# ---------------------------------------------------------------------------
# coercivity and ghost-penalty extension properties

def test_a1_a3_coercivity(disc16, params, stab):
    sys_ = assemble_system(disc16.su, disc16.st, disc16.sf, disc16.rules, params, stab)
    a1 = _block(sys_, "u", "u")  # A1 + g1
    n_v = sys_.parts["a1_strain"] + sys_.parts["a1_penalty"] + sys_.parts["g1"]
    a3 = -_block(sys_, "pF", "pF")  # A3 + g3
    n_f = (sys_.parts["a3_stiff"] + sys_.parts["a3_penalty"]
           + 0.5 * sys_.parts["a3_mass"]
           + sys_.parts["g3_1"] + sys_.parts["g3_2"])
    rng = np.random.default_rng(9)
    c1 = c3 = np.inf
    for _ in range(100):
        v = rng.standard_normal(disc16.su.n_dofs)
        q = rng.standard_normal(disc16.sf.n_dofs)
        e1 = v @ (a1 @ v)
        e3 = q @ (a3 @ q)
        assert e1 >= -1e-10 and e3 >= -1e-10
        c1 = min(c1, e1 / (v @ (n_v @ v)))
        c3 = min(c3, e3 / (q @ (n_f @ q)))
    # a single fitted constant works for all samples and is O(1)
    assert c1 > 0.5 and c3 > 0.5


def _translation_active(n, delta):
    dom = make_flower_domain()
    mesh = build_mesh(*translate_box((-1.0, -1.0), (1.0, 1.0), n, delta), n)
    return classify(mesh, dom), mesh


def test_extension_and_inverse_inequalities_across_cuts(stab):
    # A1-type extension for the total pressure and A4 inverse estimate,
    # constants stable across cut translations
    rng = np.random.default_rng(10)
    ext, inv = [], []
    for j in range(8):
        act, mesh = _translation_active(24, 0.075 * (j + 1))
        st = build_space(act, 1)
        h = mesh.h
        s_full = full_cell_stiffness(st, act.active_cells)
        s_int = full_cell_stiffness(st, act.interior_cells)
        m_full = full_cell_matrix(st)
        g2 = assemble_ghost(st, h * h * stab.gamma_g_p)
        g_unit = assemble_ghost(st, 1.0)
        c_ext = c_inv = 0.0
        for _ in range(100):
            v = rng.standard_normal(st.n_dofs)
            lhs = h * h * (v @ (s_full @ v))
            rhs = h * h * (v @ (s_int @ v)) + v @ (g2 @ v)
            c_ext = max(c_ext, lhs / rhs)
            c_inv = max(c_inv, (v @ (g_unit @ v)) / ((v @ (m_full @ v)) / (h * h)))
        ext.append(c_ext)
        inv.append(c_inv)
    assert max(ext) / min(ext) <= 3.0
    assert max(inv) / min(inv) <= 3.0

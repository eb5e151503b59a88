"""Property tests over random parameters, fields and cut positions.

Each property is checked on hypothesis-drawn inputs with a fixed derandomized
example sequence, at N <= 12 so the module stays fast.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutbiot.forms import (_TERMS, PhysicalParams, StabilizationParams, _bilinear_parts,
                           assemble_ghost, assemble_rhs, assemble_system, ghost_seminorm,
                           with_params, without_ghost)
from cutbiot.geometry import build_cut_rules, make_flower_domain
from cutbiot.mesh import build_mesh, classify, translate_box
from cutbiot.spaces import build_space, make_layout
from cutbiot.verification import CASE_NAMES, error_norms, make_case

FIELDS = ("u", "pT", "pF")

# log-uniform material parameters over the paper's ranges and beyond
params_st = st.builds(lambda m, l, k: PhysicalParams(mu=10.0 ** m, lam=10.0 ** l, K=10.0 ** k),
                      st.floats(-2, 2), st.floats(0, 9), st.floats(-9, 1))


def examples(n: int):
    """A fixed, derandomized sequence of n examples with no time limit."""
    return settings(derandomize=True, deadline=None, database=None, max_examples=n)


def _max_abs(m) -> float:
    return float(np.abs(m.data).max()) if m.nnz else 0.0


@pytest.fixture(scope="module")
def unit(disc12):
    d = disc12
    return assemble_system(d.su, d.st, d.sf, d.rules, PhysicalParams(1.0, 1.0, 1.0),
                           StabilizationParams())


@examples(20)
@given(prm=params_st, base=st.one_of(st.none(), params_st))
def test_with_params_matches_direct_assembly(disc12, unit, prm, base):
    # any base system rescales, the unit one or one assembled at other parameters
    d = disc12
    if base is not None:
        base = assemble_system(d.su, d.st, d.sf, d.rules, base, StabilizationParams())
    direct = assemble_system(d.su, d.st, d.sf, d.rules, prm, StabilizationParams())
    scaled = with_params(unit if base is None else base, prm, direct.rhs)
    assert _max_abs(direct.matrix - scaled.matrix) <= 1e-14 * _max_abs(direct.matrix)


@examples(10)
@given(prm=params_st)
def test_without_ghost_matches_unstabilized_assembly(disc12, prm):
    d = disc12
    full = assemble_system(d.su, d.st, d.sf, d.rules, prm, StabilizationParams())
    direct = replace(full, parts=_bilinear_parts(d.rules, StabilizationParams(),
                                                 d.su, d.st, d.sf))
    bare = without_ghost(full)
    assert set(bare.parts) == set(direct.parts)
    assert _max_abs(bare.matrix - direct.matrix) == 0.0


@examples(20)
@given(prm=params_st, stabilized=st.booleans())
def test_block_is_signed_sum_of_placed_parts(unit, prm, stabilized):
    system = with_params(unit if stabilized else without_ghost(unit), prm, unit.rhs)
    for r in FIELDS:
        for c in FIELDS:
            want = 0.0 * system.block(r, c)
            for name, blk in system.parts.items():
                term = _TERMS[name]
                factor = term.sign * term.scale(prm)
                if (term.row, term.col) == (r, c):
                    want = want + factor * blk
                elif (term.col, term.row) == (r, c):  # mirrored off-diagonal term
                    want = want + factor * blk.T
            got = system.block(r, c)
            assert got.shape == want.shape
            assert _max_abs(got - want) <= 1e-14 * _max_abs(system.matrix)


@examples(30)
@given(n=st.integers(6, 12), delta=st.floats(0.0, 0.3), degree=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ghost_seminorm_quadratic_form_and_annihilation(n, delta, degree, seed):
    act = classify(build_mesh(*translate_box((-1.0, -1.0), (1.0, 1.0), n, delta), n),
                   make_flower_domain())
    space = build_space(act, degree)
    rng = np.random.default_rng(seed)

    # the direct jump sum is the square root of the assembled quadratic form
    w = rng.standard_normal(space.n_dofs)
    G = assemble_ghost(space, 1.0)
    assert ghost_seminorm(space, w) == pytest.approx(np.sqrt(w @ (G @ w)), rel=1e-10)

    # a global Q_degree polynomial has no jumps across any facet
    coef = rng.standard_normal((degree + 1, degree + 1))
    v = space.interpolate(lambda p: sum(coef[i, j] * p[:, 0] ** i * p[:, 1] ** j
                                        for i in range(degree + 1)
                                        for j in range(degree + 1)))
    assert ghost_seminorm(space, v) < 1e-10 * np.abs(v).max()


@functools.lru_cache(maxsize=None)
def _spaces(n: int):
    dom = make_flower_domain()
    act = classify(build_mesh((-1.0, -1.0), (1.0, 1.0), n), dom, subdiv=2)
    spaces = build_space(act, 2, ncomp=2), build_space(act, 1), build_space(act, 2)
    return (*spaces, build_cut_rules(act, dom), make_layout(*spaces).total)


@examples(8)
@given(n=st.sampled_from([8, 12]), prms=st.lists(params_st, min_size=1, max_size=4),
       name=st.sampled_from(CASE_NAMES), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_loads_and_norms_match_single_calls(n, prms, name, seed):
    su, st_, sf, rules, total = _spaces(n)
    stab = StabilizationParams()
    case = make_case(name)
    xs = np.random.default_rng(seed).standard_normal((len(prms), total))
    perm = np.random.default_rng(seed).permutation(len(prms))

    # each row of the stack is the one-parameter-set vector
    rhs = assemble_rhs(su, st_, sf, rules, stab, prms, case)
    assert rhs.shape == (len(prms), total)
    for row, prm in zip(rhs, prms):
        [one] = assemble_rhs(su, st_, sf, rules, stab, [prm], case)
        assert np.abs(row - one).max() <= 1e-14 * np.abs(one).max()

    # each report of the stack is the one-solution report
    reports = error_norms(xs, prms, case, su, st_, sf, rules, stab)
    for x, prm, rep in zip(xs, prms, reports):
        [one] = error_norms(x[None], [prm], case, su, st_, sf, rules, stab)
        for key, value in one.items():
            assert rep[key] == pytest.approx(value, rel=1e-12), key

    # permuting the stack permutes the outputs
    rhs_p = assemble_rhs(su, st_, sf, rules, stab, [prms[i] for i in perm], case)
    assert np.abs(rhs_p - rhs[perm]).max() <= 1e-14 * np.abs(rhs).max()
    reports_p = error_norms(xs[perm], [prms[i] for i in perm], case, su, st_, sf, rules, stab)
    for rep_p, i in zip(reports_p, perm):
        for key, value in reports[i].items():
            assert rep_p[key] == pytest.approx(value, rel=1e-12), key

"""The modified inf-sup condition as a measured invariant, over random cut positions.

With ghost penalties the discrete inf-sup constant of the displacement /
total-pressure pair stays bounded away from zero wherever the boundary cuts
the mesh; without them, small cut pieces let it collapse.  Dense
eigenproblems at N <= 24, so the module takes about 10 s.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _discretize
from cutbiot import forms
from cutbiot.forms import PhysicalParams, StabilizationParams, assemble_system, without_ghost
from cutbiot.verification import infsup_constant

STABLE_BETA = 0.1  # stabilized beta_h measured 0.114-0.160 at N = 16, 24
COLLAPSED_BETA = 1e-2  # unstabilized beta_h measured <= 3e-4 at the same cuts


def test_ghost_penalties_keep_infsup_constant_bounded_over_cut_positions():
    unstabilized = []

    @settings(derandomize=True, deadline=None, database=None, max_examples=8)
    @given(n=st.sampled_from([16, 24]), delta=st.floats(0.0, 0.99))
    def check(n, delta):
        d = _discretize(n, delta=delta)
        system = assemble_system(d.su, d.st, d.sf, d.rules, PhysicalParams(),
                                 StabilizationParams())
        assert infsup_constant(system, d.st) >= STABLE_BETA
        unstabilized.append(infsup_constant(without_ghost(system), d.st))

    check()
    assert min(unstabilized) < COLLAPSED_BETA


def test_infsup_constant_ignores_the_systems_material_parameters(disc12, stab):
    unit = assemble_system(disc12.su, disc12.st, disc12.sf, disc12.rules, PhysicalParams(),
                           stab)
    scaled = assemble_system(disc12.su, disc12.st, disc12.sf, disc12.rules,
                             PhysicalParams(mu=7.0, lam=1e8, K=1e-8), stab)
    assert abs(infsup_constant(scaled, disc12.st) - infsup_constant(unit, disc12.st)) \
        <= 1e-10 * infsup_constant(unit, disc12.st)


def test_infsup_constant_composes_no_matrix(disc12, stab, monkeypatch):
    # A_uu and B come from the grouped unit parts, not from a composed system matrix
    system = assemble_system(disc12.su, disc12.st, disc12.sf, disc12.rules, PhysicalParams(),
                             stab)
    calls = []
    compose = forms.compose_matrix
    monkeypatch.setattr(forms, "compose_matrix", lambda *a: calls.append(1) or compose(*a))
    assert infsup_constant(system, disc12.st) >= STABLE_BETA
    assert calls == []

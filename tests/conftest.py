from __future__ import annotations

from dataclasses import dataclass

import pytest

from cutbiot.forms import PhysicalParams, StabilizationParams
from cutbiot.geometry import CutRule, build_cut_rules, make_flower_domain
from cutbiot.mesh import ActiveMesh, BackgroundMesh, build_mesh, classify, translate_box
from cutbiot.spaces import FeSpace, FieldLayout, build_space, make_layout


@dataclass
class Disc:
    """One discretized circle-minus-flower configuration."""

    n: int
    dom: object
    mesh: BackgroundMesh
    active: ActiveMesh
    rules: CutRule
    su: FeSpace
    st: FeSpace
    sf: FeSpace
    layout: FieldLayout


def _discretize(n, subdiv=3, delta=0.0):
    """The flower configuration on the box [-1, 1]^2 translated by delta cells."""
    dom = make_flower_domain()
    mesh = build_mesh(*translate_box((-1.0, -1.0), (1.0, 1.0), n, delta), n)
    active = classify(mesh, dom, subdiv=subdiv)
    rules = build_cut_rules(active, dom, order=5)
    su = build_space(active, 2, ncomp=2)
    st = build_space(active, 1)
    sf = build_space(active, 2)
    return Disc(n, dom, mesh, active, rules, su, st, sf, make_layout(su, st, sf))


class TrackedLU:
    """Forwards to a SuperLU factor; weak references can follow it."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)


@pytest.fixture(scope="session")
def flower_domain():
    return make_flower_domain()


@pytest.fixture(scope="session")
def disc8():
    return _discretize(8)


@pytest.fixture(scope="session")
def disc12():
    return _discretize(12)


@pytest.fixture(scope="session")
def disc16():
    return _discretize(16)


@pytest.fixture(scope="session")
def disc32():
    return _discretize(32)


@pytest.fixture(scope="session")
def params():
    return PhysicalParams(mu=1.0, lam=1.0, K=1.0)


@pytest.fixture(scope="session")
def stab():
    return StabilizationParams()

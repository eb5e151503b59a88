from __future__ import annotations

import math

import numpy as np
import pytest

from cutbiot.quadrature import gauss_1d, tensor_square, triangle_rule


@pytest.mark.parametrize("order", [1, 2, 3, 5, 7])
def test_gauss_1d_exactness(order):
    x, w = gauss_1d(order)
    for d in range(order + 1):
        exact = 1.0 / (d + 1)
        assert np.sum(w * x ** d) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("order", [3, 5])
def test_tensor_square_exactness(order):
    pts, wts = tensor_square(order)
    for a in range(order + 1):
        for b in range(order + 1):
            exact = 1.0 / ((a + 1) * (b + 1))
            got = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
            assert got == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 6, 7, 9])
def test_triangle_rule_exactness(order):
    # reference triangle (0,0)-(1,0)-(0,1): int x^a y^b = a! b! / (a+b+2)!
    pts, wts = triangle_rule(order)
    assert np.all(wts > 0)
    assert wts.sum() == pytest.approx(0.5, rel=1e-14)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
            assert got == pytest.approx(exact, rel=1e-12), (a, b)

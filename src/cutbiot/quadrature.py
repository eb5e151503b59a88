"""Reference quadrature rules: 1D Gauss, tensor-product squares, triangles.

All rules are given on reference domains with positive weights: [0,1] for
lines, [0,1]^2 for squares, and the unit triangle (0,0)-(1,0)-(0,1) with
weights summing to 1/2. `order` always means the polynomial degree that is
integrated exactly.  Triangles take a symmetric degree-5 rule up to order 5
and a collapsed Gauss-Legendre square rule above it.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.cache
def gauss_1d(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points/weights on [0,1], exact for degree `order`."""
    npts = max(1, math.ceil((order + 1) / 2))
    x, w = np.polynomial.legendre.leggauss(npts)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False  # cached: shared by every caller
    return x, w


@functools.cache
def tensor_square(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss rule on [0,1]^2; returns points (n,2) and weights (n,)."""
    x, w = gauss_1d(order)
    X, Y = np.meshgrid(x, x, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    wts = np.outer(w, w).ravel()
    pts.flags.writeable = wts.flags.writeable = False  # cached: shared by every caller
    return pts, wts


# Symmetric positive-weight triangle rule (Strang/Fix); weights sum to 1/2.
def _tri_deg5() -> tuple[np.ndarray, np.ndarray]:
    s = math.sqrt(15.0)
    a1 = (6.0 + s) / 21.0
    a2 = (6.0 - s) / 21.0
    w1 = (155.0 + s) / 1200.0
    w2 = (155.0 - s) / 1200.0
    pts = [[1.0 / 3.0, 1.0 / 3.0]]
    pts += [[a1, a1], [1.0 - 2.0 * a1, a1], [a1, 1.0 - 2.0 * a1]]
    pts += [[a2, a2], [1.0 - 2.0 * a2, a2], [a2, 1.0 - 2.0 * a2]]
    wts = np.array([9.0 / 40.0] + [w1] * 3 + [w2] * 3) * 0.5
    return np.array(pts), wts


_TRI_DEG5 = _tri_deg5()


def _tri_collapsed(order: int) -> tuple[np.ndarray, np.ndarray]:
    # Duffy-type collapse of a square rule: x = u, y = v (1-u).  The (1-u)
    # Jacobian raises the degree in u by one, so Gauss-Legendre of degree
    # order + 1 in u keeps the rule exact for total degree `order`.
    u, wu = gauss_1d(order + 1)
    v, wv = gauss_1d(order)
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu * (1.0 - u), wv, indexing="ij")
    pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    return pts, (WU * WV).ravel()


def triangle_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on the unit reference triangle, exact for degree `order`."""
    if order <= 5:
        return _TRI_DEG5
    return _tri_collapsed(order)

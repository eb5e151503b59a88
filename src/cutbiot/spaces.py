"""Continuous tensor-product Lagrange spaces on the active mesh.

Each space is Q_k on the active cells with equispaced nodes; degrees of
freedom exist exactly at lattice nodes touched by at least one active cell
and are numbered deterministically (lexicographic in the node lattice, y
index major).  A space holds one dof map, indexed by background cell;
fields are evaluated at physical points only through `forms.tabulate`,
which maps the points into their cells and tabulates `ref_basis` of the
space's degree.  The reference basis extrapolates naturally outside
[0,1]^2, which cut-cell quadrature relies on.  Spaces are immutable and
evaluation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import AssemblyError, ConfigurationError
from .mesh import ActiveMesh


class RefLagrangeBasis:
    """1D/tensor Lagrange basis on [0,1] with equispaced nodes.

    Local 2D node (a, b) maps to index b*(k+1)+a, a along x.  Derivative
    tables up to the polynomial degree are precomputed as coefficient
    matrices, so evaluation is a single polyval per derivative order.
    """

    def __init__(self, degree: int):
        if degree not in (1, 2, 3):
            raise ConfigurationError(f"unsupported polynomial degree {degree}")
        self.degree = degree
        self.nodes1d = np.linspace(0.0, 1.0, degree + 1)
        coeffs = []
        for i in range(degree + 1):
            others = np.delete(self.nodes1d, i)
            c = P.polyfromroots(others)
            c = c / P.polyval(self.nodes1d[i], c)
            coeffs.append(c)
        # _dcoeffs[d][:, i] are the coefficients of the d-th derivative of l_i
        self._dcoeffs = [np.column_stack(coeffs)]
        for _ in range(degree):
            self._dcoeffs.append(P.polyder(self._dcoeffs[-1], axis=0))

    @property
    def n_basis(self) -> int:
        return (self.degree + 1) ** 2

    def eval_1d(self, x: np.ndarray, deriv: int = 0) -> np.ndarray:
        """Values (npts, k+1) of the d-th derivative (d <= degree) of the 1D basis."""
        out = P.polyval(np.atleast_1d(x), self._dcoeffs[deriv])
        return np.atleast_2d(out).T if out.ndim == 1 else out.T

    def tabulate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values (n, nloc) and reference gradients (n, nloc, 2) at local points."""
        lx = self.eval_1d(pts[:, 0])
        ly = self.eval_1d(pts[:, 1])
        dx = self.eval_1d(pts[:, 0], 1)
        dy = self.eval_1d(pts[:, 1], 1)
        vals = (ly[:, :, None] * lx[:, None, :]).reshape(len(pts), -1)
        gx = (ly[:, :, None] * dx[:, None, :]).reshape(len(pts), -1)
        gy = (dy[:, :, None] * lx[:, None, :]).reshape(len(pts), -1)
        return vals, np.stack([gx, gy], axis=-1)


@lru_cache(maxsize=8)
def ref_basis(degree: int) -> RefLagrangeBasis:
    return RefLagrangeBasis(degree)


class FeSpace:
    """Q_k space (scalar or 2-vector) over the active cells of a mesh.

    `cell_dofs[c]` lists the global scalar-node dofs of background cell `c`
    in local tensor order, and is -1 throughout for an inactive cell, so
    every reader indexes it by cell.  Vector dofs interleave components
    (2*dof + comp).
    """

    def __init__(self, active: ActiveMesh, degree: int, ncomp: int = 1):
        if ncomp not in (1, 2):
            raise ConfigurationError(f"ncomp must be 1 or 2, got {ncomp}")
        if len(active.active_cells) == 0:
            raise ConfigurationError("active mesh has no cells")
        self.active = active
        self.degree = degree
        self.ncomp = ncomp
        nloc = ref_basis(degree).n_basis  # rejects an unsupported degree
        mesh = active.mesh

        k, n = degree, mesh.n
        nn = k * n + 1  # lattice nodes per axis
        cells = active.active_cells
        cix, ciy = cells // n, cells % n
        a = np.arange(k + 1)
        # lattice node (gx, gy) of local node (a, b); local index b*(k+1)+a
        gx = cix[:, None, None] * k + a[None, None, :]
        gy = ciy[:, None, None] * k + a[None, :, None]
        lattice = (gy * nn + gx).reshape(len(cells), -1)

        used = np.unique(lattice)
        self.n_nodes = len(used)
        self.n_dofs = ncomp * self.n_nodes
        self.cell_dofs = np.full((mesh.n_cells, nloc), -1, dtype=np.int32)
        self.cell_dofs[cells] = np.searchsorted(used, lattice)

        gxu, gyu = used % nn, used // nn
        self.node_coords = mesh.box_lo + (mesh.h / k) * np.column_stack([gxu, gyu])

    def interpolate(self, f) -> np.ndarray:
        """Nodal interpolant: dof value = f at the node coordinates."""
        vals = np.asarray(f(self.node_coords), dtype=float)
        if self.ncomp == 1:
            if vals.shape != (self.n_nodes,):
                raise ConfigurationError("scalar interpolation target returned wrong shape")
            return vals.copy()
        if vals.shape != (self.n_nodes, 2):
            raise ConfigurationError("vector interpolation target returned wrong shape")
        return vals.reshape(-1)


def build_space(active: ActiveMesh, degree: int, ncomp: int = 1) -> FeSpace:
    """Q_degree space over the active cells with deterministic dof numbering."""
    return FeSpace(active, degree, ncomp)


@dataclass(frozen=True)
class FieldLayout:
    """Contiguous block layout of (u, p_T, p_F) in the global vector."""

    n_u: int  # displacement dofs (already counts both components)
    n_t: int
    n_f: int

    @property
    def total(self) -> int:
        return self.n_u + self.n_t + self.n_f

    def offset(self, fieldname: str) -> int:
        return {"u": 0, "pT": self.n_u, "pF": self.n_u + self.n_t}[fieldname]

    def slice(self, fieldname: str) -> slice:
        start = self.offset(fieldname)
        return slice(start, start + {"u": self.n_u, "pT": self.n_t, "pF": self.n_f}[fieldname])


def make_layout(space_u: FeSpace, space_t: FeSpace, space_f: FeSpace) -> FieldLayout:
    """The (u, p_T, p_F) layout of three spaces, which must share one active mesh."""
    if not (space_u.active is space_t.active is space_f.active):
        raise AssemblyError("spaces must share one active mesh")
    return FieldLayout(space_u.n_dofs, space_t.n_dofs, space_f.n_dofs)

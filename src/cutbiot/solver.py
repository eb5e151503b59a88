"""Direct solution of the assembled system and conditioning estimates.

The `(u, p_T, p_F)` matrix is symmetric, so the sparse LU first orders it
by multiple minimum degree on A+Aᵀ in SuperLU's symmetric mode, with
diagonal pivots.  Every solution is checked for finite entries and a
relative residual of at most `RESIDUAL_TOL`; any linear factor solves a
zero right-hand side, so there the factor must also solve a fixed non-zero
probe.  When that attempt fails the check, or SuperLU raises, the factor is
freed and the system is factored again with COLAMD and partial pivoting,
under the same check.  The condition estimate combines extremal
singular-value estimates of the matrix and of its inverse through the
factorization; everything is deterministic, including the Lanczos start
vectors and the probe.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .forms import BlockSystem

logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-9


@dataclass
class SolveReport:
    """Solution vector with residual and factorization statistics."""

    x: np.ndarray
    rel_residual: float
    factor_nnz: int
    ordering: str  # "MMD_AT_PLUS_A" (symmetric attempt) or "COLAMD" (fallback)
    _lu: object = field(default=None, repr=False)


def _symmetric_lu(matrix: sp.csc_matrix):
    """Minimum-degree ordering on A+Aᵀ, symmetric mode, diagonal pivots."""
    return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _probe(n: int) -> np.ndarray:
    """Fixed non-zero vector: the factor check's probe and the Lanczos start."""
    return np.sin(np.arange(1, n + 1, dtype=float))


def _solve_checked(a: sp.spmatrix, lu, b: np.ndarray):
    """Solve `a x = b` with `lu`: `(x, rel, failure)`, failure None if `x` passes.

    Any linear factor solves a zero `b`, so there the factor must also solve `_probe`.
    """
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        return x, float("nan"), "solution contains non-finite entries (singular system)"
    bnorm = np.linalg.norm(b)
    rnorm = np.linalg.norm(a @ x - b)
    rel = float(rnorm / bnorm if bnorm > 0 else rnorm)
    if rel > RESIDUAL_TOL:
        return x, rel, f"relative residual {rel:.3e} exceeds {RESIDUAL_TOL:.0e}"
    return x, rel, None if bnorm > 0 else _solve_checked(a, lu, _probe(len(b)))[2]


def _factorize(a: sp.spmatrix, b: np.ndarray):
    """Factor `a` and solve `a x = b`: the symmetric attempt, else COLAMD.

    Returns `(lu, x, rel, failure, ordering)`, where `failure` is the
    fallback's reason for rejecting `x` (None if it passes).
    """
    csc = a.tocsc()
    try:
        lu = _symmetric_lu(csc)
    except RuntimeError as exc:  # SuperLU reports the failing pivot here
        failure = f"sparse factorization failed: {exc}"
    else:
        x, rel, failure = _solve_checked(a, lu, b)
        if failure is None:
            return lu, x, rel, None, "MMD_AT_PLUS_A"
    logger.warning("symmetric MMD_AT_PLUS_A factorization rejected (%s); "
                   "refactoring with COLAMD and partial pivoting", failure)
    lu = x = None  # free the rejected factor before the fallback is made
    try:
        lu = spla.splu(csc)
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    x, rel, failure = _solve_checked(a, lu, b)
    return lu, x, rel, failure, "COLAMD"


def solve(system: BlockSystem) -> SolveReport:
    """Factor and solve; raises SolverError on breakdown or a bad residual."""
    lu, x, rel, failure, ordering = _factorize(system.matrix, system.rhs)
    if failure is not None:
        raise SolverError(failure)
    return SolveReport(x=x, rel_residual=rel,
                       factor_nnz=int(lu.L.nnz + lu.U.nnz), ordering=ordering, _lu=lu)


def _extremal_magnitude(op_matvec, n: int, tol: float = 1e-2) -> float:
    """Largest |eigenvalue| of a symmetric operator, deterministic Lanczos."""
    v0 = _probe(n)
    v0 /= np.linalg.norm(v0)
    if n <= 64:
        A = np.column_stack([op_matvec(e) for e in np.eye(n)])
        return float(np.abs(np.linalg.eigvalsh(0.5 * (A + A.T))).max())
    op = spla.LinearOperator((n, n), matvec=op_matvec, dtype=float)
    try:
        vals = spla.eigsh(op, k=1, which="LM", tol=tol, v0=v0,
                          maxiter=200, return_eigenvectors=False)
        return float(np.abs(vals).max())
    except spla.ArpackNoConvergence as exc:
        if len(exc.eigenvalues):
            return float(np.abs(exc.eigenvalues).max())
        # power iteration on the squared operator as a deterministic fallback
        v = v0
        lam = 0.0
        for _ in range(300):
            w = op_matvec(op_matvec(v))
            nw = np.linalg.norm(w)
            if nw == 0:
                return 0.0
            v = w / nw
            lam = nw
        return float(np.sqrt(lam))


def estimate_condition(system: BlockSystem, lu=None, tol: float = 1e-2) -> float:
    """Spectral condition number estimate, accurate to a few percent.

    Without `lu` the factor comes from `solve`, so an unchecked factor raises SolverError.
    """
    a = system.matrix
    n = a.shape[0]
    if lu is None:
        lu = solve(system)._lu
    sigma_max = _extremal_magnitude(lambda v: a @ v, n, tol)
    inv_max = _extremal_magnitude(lu.solve, n, tol)
    if not np.isfinite(inv_max) or inv_max <= 0:
        raise SolverError("condition estimate failed: inverse iteration broke down")
    return sigma_max * inv_max

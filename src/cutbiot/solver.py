"""Solution of the assembled system and conditioning estimates.

Direct solves: the `(u, p_T, p_F)` matrix is symmetric, so the sparse LU
first orders it by multiple minimum degree on A+Aᵀ in SuperLU's symmetric
mode, with diagonal pivots.  Every solution is checked for finite entries
and a relative residual of at most `RESIDUAL_TOL`; any linear factor solves
a zero right-hand side, so there the factor must also solve a fixed
non-zero probe.  When that attempt fails the check, or SuperLU raises, the
factor is freed and the system is factored again with COLAMD and partial
pivoting, under the same check.  `solve` keeps the factor in its report but
never builds copies of L and U; the factor's nonzero count is made only
when read.

One system at several parameter sets (a ladder level's (lambda, K) pairs):
`solve_params` steps preconditioned MINRES (Paige & Saunders) in lockstep
over the sets, one column each, with the block-diagonal preconditioner
diag(A_uu, (1/(2 mu) + 1/lambda) M_T + G2, -A_FF) of the total-pressure
formulation (Lee, Mardal & Winther 2017), every block factored by the same
symmetric LU.  A_uu does not depend on (lambda, K), so one factor serves
every column and each step solves it for all of them at once.  The operator
is applied from the grouped unit parts (`forms.apply_groups`); no set's
matrix is composed.  Every MINRES solution must pass the same residual
check; a column that breaks down, hits the step cap or fails the check is
solved by `solve` instead, after the MINRES factors are freed.

The condition estimate combines extremal singular-value estimates of the
matrix and of its inverse through the factorization; everything is
deterministic, including the Lanczos start vectors and the probe.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .forms import BlockSystem, PhysicalParams, apply_groups, group_terms, with_params

logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-9
MINRES_RTOL = 1e-12  # preconditioned residual, relative to its initial value
MINRES_MAX_STEPS = 200  # about 3x the most a stabilized ladder level takes (60)


@dataclass
class SolveReport:
    """Solution vector with residual and factorization statistics."""

    x: np.ndarray
    rel_residual: float
    ordering: str  # "MMD_AT_PLUS_A" (symmetric attempt), "COLAMD" (fallback) or "MINRES"
    steps: int = 0  # MINRES steps taken, also when the column fell back to a direct solve
    _lu: object = field(default=None, repr=False)

    @property
    def factor_nnz(self) -> int:
        """Nonzeros of L plus U, 0 without a factor; builds copies of both, so made when read."""
        return 0 if self._lu is None else int(self._lu.L.nnz + self._lu.U.nnz)


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
    return SolveReport(x=x, rel_residual=rel, ordering=ordering, _lu=lu)


class _BlockPreconditioner:
    """diag(A_uu, (1/(2 mu) + 1/lambda) M_T + G2, -A_FF) per parameter set, factored.

    Every u-u term scales with mu alone, so they form one group: its unit
    sum is factored once and each set's solution divided by its mu.  Each
    set has its own p_T and p_F factor.  Applied to the columns `cols` of an
    (n, m) block, column j is preconditioned for set `cols[j]`.
    """

    def __init__(self, base: BlockSystem, groups, params):
        [(a_uu, self.mu)] = [(g.matrix, g.scales) for g in groups if g.row == g.col == "u"]
        self.lu_u = _symmetric_lu(a_uu.tocsc())
        g2 = base.parts.get("g2", 0.0)
        self.lu_t = [_symmetric_lu(((0.5 / p.mu + 1.0 / p.lam) * base.parts["a2_mass"]
                                    + g2).tocsc()) for p in params]
        self.lu_f = [_symmetric_lu(sum(-g.scales[s] * g.matrix for g in groups
                                       if g.row == g.col == "pF").tocsc())
                     for s in range(len(params))]
        self.layout = base.layout

    def __call__(self, R: np.ndarray, cols: np.ndarray) -> np.ndarray:
        lay = self.layout
        Z = np.empty_like(R)
        Z[lay.s_u] = self.lu_u.solve(R[lay.s_u]) / self.mu[cols]
        for j, s in enumerate(cols):
            Z[lay.s_t, j] = self.lu_t[s].solve(R[lay.s_t, j])
            Z[lay.s_f, j] = self.lu_f[s].solve(R[lay.s_f, j])
        return Z


def _lockstep_minres(apply_a, precondition, B: np.ndarray):
    """Preconditioned MINRES (Paige & Saunders) on every column of `B` at once.

    `apply_a(X, cols)` and `precondition(R, cols)` act on the columns `cols`
    of the original block.  Every scalar of the recurrence is a per-column
    vector; a column stops once its preconditioned residual is at most
    `MINRES_RTOL` of its initial value, on breakdown (a non-finite value or
    beta^2 <= 0) or at `MINRES_MAX_STEPS`, and leaves the lockstep.
    Returns `(X, steps, stops)`, stops[s] None for a converged column, else
    the reason it stopped.
    """
    n, k = B.shape
    X = np.zeros_like(B)
    steps = np.zeros(k, dtype=int)
    stops: list = [None] * k
    cols = np.flatnonzero(np.linalg.norm(B, axis=0) > 0)  # a zero column is solved by 0
    with np.errstate(all="ignore"):  # breakdown is detected explicitly below
        r1 = r2 = B[:, cols]
        y = precondition(r1, cols)
        beta2 = np.einsum("ij,ij->j", r1, y)
        ok = np.isfinite(beta2) & (beta2 > 0)
        for s in cols[~ok]:
            stops[s] = "breakdown before the first step"
        cols, r1, r2, y, beta2 = cols[ok], r1[:, ok], r2[:, ok], y[:, ok], beta2[ok]
        m = len(cols)
        beta1 = beta = phibar = np.sqrt(beta2)
        oldb, dbar, epsln, sn = (np.zeros(m) for _ in range(4))
        cs = -np.ones(m)
        x, w, w2 = np.zeros((n, m)), np.zeros((n, m)), np.zeros((n, m))
        itn = 0
        while len(cols):
            itn += 1
            v = y / beta
            y = apply_a(v, cols)
            if itn > 1:
                y -= (beta / oldb) * r1
            alfa = np.einsum("ij,ij->j", v, y)
            y -= (alfa / beta) * r2
            r1, r2 = r2, y
            y = precondition(r2, cols)
            oldb, beta2 = beta, np.einsum("ij,ij->j", r2, y)
            broken = ~(np.isfinite(beta2) & (beta2 > 0))
            beta = np.sqrt(np.where(broken, 1.0, beta2))
            oldeps = epsln
            delta = cs * dbar + sn * alfa
            gbar = sn * dbar - cs * alfa
            epsln, dbar = sn * beta, -cs * beta
            gamma = np.maximum(np.hypot(gbar, beta), np.finfo(float).eps)
            cs, sn = gbar / gamma, beta / gamma
            phi, phibar = cs * phibar, sn * phibar
            w1, w2 = w2, w
            w = (v - oldeps * w1 - delta * w2) / gamma
            x += phi * w
            done = broken | (phibar <= MINRES_RTOL * beta1) | (itn >= MINRES_MAX_STEPS)
            if not done.any():
                continue
            for j in np.flatnonzero(done):
                s = cols[j]
                X[:, s], steps[s] = x[:, j], itn
                if broken[j]:
                    stops[s] = f"breakdown at step {itn}"
                elif not phibar[j] <= MINRES_RTOL * beta1[j]:
                    stops[s] = f"no convergence in {MINRES_MAX_STEPS} steps"
            keep = ~done
            cols, beta1, beta, oldb, phibar, dbar, epsln, sn, cs = (
                a[keep] for a in (cols, beta1, beta, oldb, phibar, dbar, epsln, sn, cs))
            r1, r2, y, x, w, w2 = (a[:, keep] for a in (r1, r2, y, x, w, w2))
    return X, steps, stops


def solve_params(base: BlockSystem, params: list[PhysicalParams],
                 rhs: np.ndarray) -> list[SolveReport]:
    """Solve `base` at every parameter set, `rhs[s]` the load at `params[s]`.

    Lockstep block-preconditioned MINRES over all sets, with the operator
    applied from `base.parts` (no per-set matrix is composed).  Every
    converged column must pass the `RESIDUAL_TOL` true-residual check; a
    column that broke down, hit the step cap or fails the check is solved
    again by `solve` after the MINRES factors are freed, with a warning that
    names the reason.  No report keeps a factor.
    """
    groups = group_terms(base.parts, params)
    lay = base.layout
    B = np.array(rhs, dtype=float).T

    def apply_a(X, cols):
        return apply_groups([g._replace(scales=g.scales[cols]) for g in groups], lay, X)

    X, steps, stops = _lockstep_minres(apply_a, _BlockPreconditioner(base, groups, params), B)
    with np.errstate(all="ignore"):  # a non-finite column fails the check below
        rnorm = np.linalg.norm(apply_a(X, np.arange(len(params))) - B, axis=0)
    bnorm = np.linalg.norm(B, axis=0)
    rel = rnorm / np.where(bnorm > 0, bnorm, 1.0)  # the plain residual for a zero load
    reports = []
    for s, prm in enumerate(params):
        failure = stops[s] or (None if rel[s] <= RESIDUAL_TOL else
                               f"relative residual {rel[s]:.3e} exceeds {RESIDUAL_TOL:.0e}")
        if failure is None:
            reports.append(SolveReport(x=X[:, s].copy(), rel_residual=float(rel[s]),
                                       ordering="MINRES", steps=int(steps[s])))
            continue
        logger.warning("MINRES rejected for lambda=%g, K=%g (%s); solving directly",
                       prm.lam, prm.K, failure)
        direct = solve(with_params(base, prm, rhs[s]))
        reports.append(SolveReport(x=direct.x, rel_residual=direct.rel_residual,
                                   ordering=direct.ordering, steps=int(steps[s])))
    return reports


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

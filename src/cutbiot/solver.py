"""Solution of the assembled system and conditioning estimates.

Direct solves: the `(u, p_T, p_F)` matrix is symmetric, so `solve` loops
over two orderings.  It first orders by multiple minimum degree on A+Aᵀ in
SuperLU's symmetric mode, with diagonal pivots; when that attempt fails the
check, or SuperLU raises, the factor is freed and the system is factored
again with COLAMD and partial pivoting.  Every solution, direct or MINRES,
must have finite entries and a relative residual (`_relative_residual`) of
at most `RESIDUAL_TOL`; any linear factor solves a zero right-hand side, so
there the factor must also solve a fixed non-zero probe.  The composed CSR's
arrays are read as the CSC of Aᵀ, so SuperLU factors Aᵀ without a CSC copy
of the system, and every solve with that factor is transposed (`trans="T"`):
the residual check, the probe, the COLAMD fallback and the inverse Lanczos
of the condition estimate.  `solve` keeps the factor in its report but never
builds copies of L and U; its size is SuperLU's stored entry count.

One system at several parameter sets (a ladder level's (lambda, K) pairs):
`solve_params` steps preconditioned MINRES (Paige & Saunders) in lockstep
over the sets, one column each, with the block-diagonal preconditioner
diag(A_uu, (1/(2 mu) + 1/lambda) M_T + G2, -A_FF) of the total-pressure
formulation (Lee, Mardal & Winther 2017), every block factored by the same
symmetric LU.  A_uu does not depend on (lambda, K), so one factor serves
every column and each step solves it for all of them at once; the p_T
block does not depend on K, so it is factored once per distinct (mu,
lambda).  The operator is applied from the grouped unit parts
(`forms.apply_groups`); no set's matrix is composed.  Every MINRES solution
must pass the same residual check; a column that breaks down, hits the step
cap or fails the check is solved by `solve` instead, after the MINRES
factors are freed.

The condition estimate is |λ|max(A)·|λ|max(A⁻¹), the inverse through the factor
`solve` kept, each by one deterministic Lanczos run (Paige 1971) that stops once
its largest Ritz value has converged: a few solves on a nearly singular system.
"""

from __future__ import annotations

import functools
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
LANCZOS_TOL = 1e-2  # Ritz residual, relative to the Ritz value, at which a kappa Lanczos stops
LANCZOS_MAX_STEPS = 100  # about 2x the most a sweep arm's estimate takes (45)


@dataclass
class SolveReport:
    """Solution vector with residual and factorization statistics."""

    x: np.ndarray
    rel_residual: float
    ordering: str  # "MMD_AT_PLUS_A" (symmetric attempt), "COLAMD" (fallback) or "MINRES"
    steps: int = 0  # MINRES steps taken, also when the column fell back to a direct solve
    _lu: object = field(default=None, repr=False)  # factor of the transposed matrix

    @property
    def factor_nnz(self) -> int:
        """Entries SuperLU stores for L and U, 0 without a factor: set by the factor's
        structure alone, not by which values round to zero, and read without a copy."""
        return 0 if self._lu is None else int(self._lu.nnz)


def _symmetric_lu(matrix: sp.csc_matrix):
    """Minimum-degree ordering on A+Aᵀ, symmetric mode, diagonal pivots."""
    return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _probe(n: int) -> np.ndarray:
    """Fixed non-zero vector: the factor check's probe and the Lanczos start."""
    return np.sin(np.arange(1, n + 1, dtype=float))


def _relative_residual(rnorm: float, bnorm: float):
    """`(rel, failure)`: the residual over the load's norm (the plain residual for a
    zero load), failure None when it is at most `RESIDUAL_TOL`."""
    rel = float(rnorm / bnorm if bnorm > 0 else rnorm)
    return rel, (None if rel <= RESIDUAL_TOL else
                 f"relative residual {rel:.3e} exceeds {RESIDUAL_TOL:.0e}")


def _solve_checked(a: sp.spmatrix, lu, b: np.ndarray):
    """Solve `a x = b` with `lu`, the factor of aᵀ: `(x, rel, failure)`, failure None
    if `x` passes.

    Any linear factor solves a zero `b`, so there the factor must also solve `_probe`.
    """
    x = lu.solve(b, trans="T")
    if not np.all(np.isfinite(x)):
        return x, float("nan"), "solution contains non-finite entries (singular system)"
    bnorm = np.linalg.norm(b)
    rel, failure = _relative_residual(np.linalg.norm(a @ x - b), bnorm)
    return x, rel, failure if failure or bnorm > 0 else _solve_checked(a, lu, _probe(len(b)))[2]


def solve(system: BlockSystem) -> SolveReport:
    """Factor and solve: the symmetric attempt, else COLAMD; raises SolverError with
    the last attempt's failure when neither passes the check."""
    transposed = system.matrix.T  # a CSC view of the CSR's arrays, no copy
    for ordering, factorize in (("MMD_AT_PLUS_A", _symmetric_lu), ("COLAMD", spla.splu)):
        lu = cause = None  # free a rejected factor before the next one is made
        try:
            lu = factorize(transposed)
        except RuntimeError as exc:  # SuperLU reports the failing pivot here
            failure, cause = f"sparse factorization failed: {exc}", exc
        else:
            x, rel, failure = _solve_checked(system.matrix, lu, system.rhs)
            if failure is None:
                return SolveReport(x=x, rel_residual=rel, ordering=ordering, _lu=lu)
        if ordering == "MMD_AT_PLUS_A":
            logger.warning("symmetric MMD_AT_PLUS_A factorization rejected (%s); "
                           "refactoring with COLAMD and partial pivoting", failure)
    raise SolverError(failure) from cause


class _BlockPreconditioner:
    """diag(A_uu, (1/(2 mu) + 1/lambda) M_T + G2, -A_FF) per parameter set, factored.

    Every u-u term scales with mu alone, so they form one group: its unit
    sum is factored once and each set's solution divided by its mu.  The p_T
    block does not depend on K, so sets with equal (mu, lambda) share one
    p_T factor; each set has its own p_F factor.  Applied to the columns
    `cols` of an (n, m) block, column j is preconditioned for set `cols[j]`.
    """

    def __init__(self, base: BlockSystem, groups, params):
        [(a_uu, self.mu)] = [(g.matrix, g.scales) for g in groups if g.row == g.col == "u"]
        self.lu_u = _symmetric_lu(a_uu.tocsc())
        g2 = base.parts.get("g2", 0.0)

        @functools.cache
        def lu_t(mu, lam):
            return _symmetric_lu(((0.5 / mu + 1.0 / lam) * base.parts["a2_mass"] + g2).tocsc())

        self.lu_t = [lu_t(p.mu, p.lam) for p in params]
        self.lu_f = [_symmetric_lu(sum(-g.scales[s] * g.matrix for g in groups
                                       if g.row == g.col == "pF").tocsc())
                     for s in range(len(params))]
        self.layout = base.layout

    def __call__(self, R: np.ndarray, cols: np.ndarray) -> np.ndarray:
        s_u, s_t, s_f = (self.layout.slice(name) for name in ("u", "pT", "pF"))
        Z = np.empty_like(R)
        Z[s_u] = self.lu_u.solve(R[s_u]) / self.mu[cols]
        for j, s in enumerate(cols):
            Z[s_t, j] = self.lu_t[s].solve(R[s_t, j])
            Z[s_f, j] = self.lu_f[s].solve(R[s_f, j])
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
    reports = []
    for s, prm in enumerate(params):
        rel, failure = _relative_residual(rnorm[s], bnorm[s])
        failure = stops[s] or failure
        if failure is None:
            reports.append(SolveReport(x=X[:, s].copy(), rel_residual=rel,
                                       ordering="MINRES", steps=int(steps[s])))
            continue
        logger.warning("MINRES rejected for lambda=%g, K=%g (%s); solving directly",
                       prm.lam, prm.K, failure)
        direct = solve(with_params(base, prm, rhs[s]))
        reports.append(SolveReport(x=direct.x, rel_residual=direct.rel_residual,
                                   ordering=direct.ordering, steps=int(steps[s])))
    return reports


def _extremal_magnitude(op_matvec, n: int, name: str) -> float:
    """Largest |eigenvalue| of the symmetric operator `name`: Lanczos from `_probe`, fully
    reorthogonalized, until the Ritz residual is at most `LANCZOS_TOL` of the largest
    |Ritz value|, on an invariant subspace, or at the step cap (with a warning); nan
    once the operator returns a non-finite value."""
    steps = min(n, LANCZOS_MAX_STEPS)
    V = np.empty((steps + 1, n))  # the Lanczos basis by rows; only rows written are resident
    V[0] = _probe(n)
    V[0] /= np.linalg.norm(V[0])
    alpha, beta = [], []
    for j in range(steps):
        w, a = op_matvec(V[j]), 0.0
        for _ in range(2):  # classical Gram-Schmidt, twice
            h = V[:j + 1] @ w
            w -= h @ V[:j + 1]
            a += h[-1]
        alpha.append(a)
        beta.append(np.linalg.norm(w))
        if not np.isfinite(beta[-1]):
            return float("nan")
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
        k = np.argmax(np.abs(theta))
        if beta[-1] * abs(s[-1, k]) <= LANCZOS_TOL * abs(theta[k]) or beta[-1] == 0:
            return float(abs(theta[k]))
        V[j + 1] = w / beta[-1]
    logger.warning("Lanczos for the largest |eigenvalue| of %s stopped at %d steps with "
                   "relative Ritz residual %.2e", name, len(alpha),
                   beta[-1] * abs(s[-1, k]) / abs(theta[k]))
    return float(abs(theta[k]))


def estimate_condition(system: BlockSystem, lu) -> float:
    """Spectral condition number estimate: |λ|max(A)·|λ|max(A⁻¹), each from below and
    within about 2·`LANCZOS_TOL` (the residual test cannot part eigenvalues that close).

    `lu` is the factor of the transposed `system.matrix` that `solve` kept in
    its report (`SolveReport._lu`), so it has passed the residual check.
    """
    a = system.matrix
    n = a.shape[0]
    sigma_max = _extremal_magnitude(lambda v: a @ v, n, "A")
    inv_max = _extremal_magnitude(lambda v: lu.solve(v, trans="T"), n, "A^-1")
    if not np.isfinite(inv_max) or inv_max <= 0:
        raise SolverError("condition estimate failed: inverse iteration broke down")
    return sigma_max * inv_max

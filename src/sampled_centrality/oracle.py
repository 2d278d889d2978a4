"""Ground-truth references: the subgraph diagonal, sparse exp and Katz row
sums, Perron.

``subgraph_diag`` gets diag exp(gamma*A) by Taylor scaling and squaring of
the sparse matrix, one route for directed and undirected graphs, with the
Taylor degree and the number of squarings chosen by a fixed cost model
(``taylor_plan``), and refuses above ``DENSE_CAP`` before it builds its
n x n iterate.  Its Horner
recurrence runs in column panels, one worker thread per available CPU; the
output does not depend on the number of workers.  ``expm_rowsum`` gives
communicability row sums at any size from the action of the sparse
exponential on the ones vector, and ``katz_rowsum`` gives Katz row sums at
any size from one sparse solve that certifies its own admissibility and
error; neither forms a dense matrix.  An inf or nan score raises
``EvaluationError``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import SparseGraph
from .matfun import DENSE_CAP, EvaluationError, _require_finite, _stop_at_overflow
from .perron import PerronConfig, PerronResult, power_iteration

# theta_m for each Taylor degree m the subgraph reference may run: the largest
# norm bound with a backward error below the unit roundoff in double precision
# (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011, Table 3.1; the values
# in scipy's private expm_multiply table)
TAYLOR_THETA = {
    20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64,
    27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2,
    50: 8.5, 55: 9.9,
}  # fmt: skip
# R: one dense n x n squaring costs R * n^3 in units of one multiply-add of a
# sparse-by-dense product (see ``taylor_plan``)
SQUARING_COST = 0.1
# columns of the subgraph reference's Horner panel: 64 keep an n x 64 panel
# in cache (1 MB at n = 2000) through every product
_PANEL_COLUMNS = 64
# a certified Katz solve has |x - x*| <= this * x* entrywise
KATZ_RESIDUAL_TOL = 1e-12
# GMRES: stopping rule (2-norm residual relative to |1|_2), restart length
# and step budget of the Katz solve
_KATZ_RTOL = 1e-15
_KATZ_RESTART = 20
_KATZ_MAX_STEPS = 2_000
# restart cycles in a row that fail to halve |r|_inf before the solve gives up
_KATZ_STALL_CYCLES = 10


def taylor_plan(g: SparseGraph, gamma: float) -> tuple[int, int, float]:
    """Taylor degree m, squarings s and norm bound alpha_m of the subgraph
    reference at gamma.

    B = gamma*A is entrywise nonnegative, so |B^p|_1 = max(1^T B^p) exactly
    and p products with B^T give d_p = |B^p|_1^(1/p) with no estimate.  For
    each degree m of ``TAYLOR_THETA``, alpha_m = min over 2 <= p,
    p(p - 1) <= m + 1, of max(d_p, d_{p+1}) bounds the Taylor remainder, and
    s_m is the fewest halvings with alpha_m / 2^s <= theta_m (Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33(2), 2011, Sec. 3).  The plan is the
    (m, s_m) of least cost (m - 1)*nnz*n + R*max(s_m - 1, 0)*n^3, the m - 1
    sparse Horner products on all n columns plus the full dense squarings,
    with R = ``SQUARING_COST``; ties go to the smaller m.  R was measured
    on a 2-core Intel Xeon with one OpenBLAS thread: one GEMM of order 2000
    took 0.278 s, as long as 19 of this kernel's sparse products of 2000
    columns at nnz = 19,935 on two panel workers (0.0148 s each), so
    R = 19*nnz/n^2 = 0.09.  The plan depends on A and gamma alone, never on
    a timing or the number of workers, so reports stay reproducible.
    """
    if not (gamma > 0 and np.isfinite(gamma)):
        raise ValueError("gamma must be positive and finite")
    bt = gamma * g.csc.T
    m_max = max(TAYLOR_THETA)
    p_max = max(p for p in range(2, m_max) if p * (p - 1) <= m_max + 1)
    v = np.ones(g.n)
    d = [0.0]  # d[p] = |B^p|_1^(1/p); d[0] is unused
    for p in range(1, p_max + 2):
        v = bt @ v
        d.append(float(np.max(v, initial=0.0)) ** (1.0 / p))
    plans = []
    for m, theta in TAYLOR_THETA.items():
        alpha = min(max(d[p], d[p + 1]) for p in range(2, m) if p * (p - 1) <= m + 1)
        if alpha == np.inf:
            raise EvaluationError(f"the norm bound of gamma*A overflows at gamma={gamma:g}")
        s = max(0, math.ceil(math.log2(alpha / theta))) if alpha > 0 else 0
        cost = (m - 1) * g.csr.nnz * g.n + SQUARING_COST * max(s - 1, 0) * g.n**3
        plans.append((cost, m, s, alpha))
    _, degree, squarings, alpha = min(plans)
    return degree, squarings, alpha


@dataclass(frozen=True)
class SubgraphDiag:
    """diag exp(gamma*A) - I with the Taylor plan that produced it."""

    scores: np.ndarray
    degree: int
    squarings: int
    norm_bound: float

    def metadata(self) -> dict:
        return {
            "method": "taylor_squaring",
            "degree": self.degree,
            "squarings": self.squarings,
            "norm_bound": self.norm_bound,
        }


def subgraph_diag(g: SparseGraph, gamma: float) -> SubgraphDiag:
    """Diagonal of exp(gamma*A) - I by Taylor scaling and squaring.

    With (m, s, alpha) from ``taylor_plan``, alpha / 2^s <= theta_m makes
    T_m(2^-s * gamma*A)^(2^s) the exponential of gamma*A plus a backward
    error below the unit roundoff relative to its norm (Al-Mohy and Higham,
    SIAM J. Sci. Comput. 33(2), 2011, Sec. 3); because A >= 0, no term
    cancels (Shao, Gao and Xue, Math. Comp. 83, 2014).
    Y = T_m(C) - I, C = 2^-s * gamma*A, comes by Horner from Y = C/m as
    Y <- (C/k)(I + Y) for k = m - 1, ..., 1, one sparse-by-dense product per
    degree; each C/k shares the index arrays of C, with its entries divided
    by k once per call.
    Each squaring maps Y to 2Y + Y^2, and the last one forms only its
    diagonal, 2 Y_ii + sum_j Y_ij Y_ji.  Every step sums products of
    nonnegative numbers, and working with Y rather than T_m(C) also spares
    the final subtraction of the identity.  Refused above ``DENSE_CAP``
    before any n x n array is built; the squarings stop at their first
    overflow, with no RuntimeWarning.  The result carries m, s and alpha
    with the scores.

    The columns of Y do not depend on each other, so the Horner recurrence
    runs in panels of ``_PANEL_COLUMNS`` columns that stay in cache through
    all its products, one worker thread per CPU the process may run on.  The
    sparse product sums each entry in the same order whatever the panel, so
    the result does not depend on the number of workers.  The squarings are
    single dense products in the calling thread.
    """
    if g.n > DENSE_CAP:
        raise EvaluationError(
            f"no exact subgraph reference for n={g.n} above the dense cap {DENSE_CAP}"
        )
    degree, squarings, norm_bound = taylor_plan(g, gamma)
    c = math.ldexp(gamma, -squarings) * g.csr
    # steps[k - 1] = C/k
    steps = [
        sp.csr_matrix((c.data / k, c.indices, c.indptr), shape=c.shape)
        for k in range(1, degree + 1)
    ]
    y = steps[-1].toarray()
    # imported here: the thread pool module adds 10 ms to importing the package
    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, g.n, _PANEL_COLUMNS)
    with ThreadPoolExecutor(max_workers=min(_available_cpus(), len(starts))) as pool:
        # list() waits for every panel and re-raises a worker's exception here
        list(pool.map(lambda start: _horner_panel(steps, y, start), starts))
    with _stop_at_overflow("subgraph_diag", gamma):
        for _ in range(squarings - 1):
            square = y @ y
            square += y
            square += y
            y = square
        if squarings == 0:
            diag = np.diagonal(y).copy()
        else:
            diag = np.einsum("ij,ji->i", y, y) + 2.0 * np.diagonal(y)
    _require_finite(diag, "subgraph_diag", gamma)
    return SubgraphDiag(scores=diag, degree=degree, squarings=squarings, norm_bound=norm_bound)


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _horner_panel(steps: list[sp.csr_matrix], y: np.ndarray, start: int) -> None:
    """Y[:, start:stop] <- T_m(C) - I on one column panel, in place.

    ``steps[k - 1]`` is C/k for k = 1, ..., m.  On entry the panel holds
    C/m, the first Horner step; column j of I is the unit vector at row
    start + j.  Runs on a worker thread, so it calls only numpy and scipy:
    wrappers around the package's public functions then see the calling
    thread alone.
    """
    panel = y[:, start : start + _PANEL_COLUMNS].copy()
    width = panel.shape[1]
    unit = (np.arange(start, start + width), np.arange(width))
    for step in reversed(steps[:-1]):
        panel[unit] += 1.0
        panel = step @ panel
    y[:, start : start + width] = panel


def expm_rowsum(g: SparseGraph, gamma: float) -> np.ndarray:
    """Row sums of exp(gamma*A) - I, i.e. exp(gamma*A) @ 1 - 1.

    The action of the sparse exponential on the ones vector (Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33(2), 2011) is accurate to working
    precision and needs O(nnz) memory.  It is deterministic: the randomized
    1-norm estimates that pick its step count are exact for a nonnegative A.
    """
    # imported here: scipy.sparse.linalg adds 15-40 ms to importing the package
    from scipy.sparse.linalg import expm_multiply

    ones = np.ones(g.n)
    rowsum = expm_multiply(gamma * g.csc, ones) - ones
    _require_finite(rowsum, "expm_rowsum", gamma)
    return rowsum


@dataclass(frozen=True)
class KatzRowsum:
    """Certified row sums of (I - gamma*A)^-1 - I.

    ``gamma_rho_bound`` is a proven upper bound on gamma*rho(A), below 1.
    Every score s_i is within ``relative_error_bound * (1 + s_i)`` of the
    exact one.
    """

    scores: np.ndarray
    gamma_rho_bound: float
    residual_inf: float
    relative_error_bound: float
    iterations: int

    def metadata(self) -> dict:
        return {
            "method": "certified_gmres",
            "gamma_rho_bound": float(self.gamma_rho_bound),
            "residual_inf": float(self.residual_inf),
            "relative_error_bound": float(self.relative_error_bound),
            "iterations": int(self.iterations),
        }


def katz_rowsum(g: SparseGraph, gamma: float) -> KatzRowsum:
    """Katz row sums x - 1 from one certified sparse solve of (I - gamma*A) x = 1.

    GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7(3), 1986) solves
    on the CSR matrix; the residual r = (I - gamma*A) x - 1 is recomputed
    and the solution is accepted only with two certificates:

    - x > 0 and 1 + r > 0.  Then gamma*(A x)_i / x_i = 1 - (1 + r_i)/x_i < 1,
      and for A >= 0 the Collatz-Wielandt bound rho(A) <= max_i (A x)_i / x_i
      (Meyer, Matrix Analysis and Applied Linear Algebra, SIAM 2000, 8.3)
      proves gamma*rho(A) < 1: the Katz series converges.
    - |r|_inf <= ``KATZ_RESIDUAL_TOL``.  (I - gamma*A)^-1 >= 0 then gives
      |x - x*| <= |r|_inf * x* entrywise for the exact solution x*.

    Anything else raises ``EvaluationError``; no eigenvalue, dense matrix
    or factorization is formed.
    """
    # imported here: scipy.sparse.linalg adds 15-40 ms to importing the package
    from scipy.sparse.linalg import gmres

    if not gamma > 0:
        raise ValueError("gamma must be positive")
    shifted = sp.identity(g.n, format="csr") - gamma * g.csr
    ones = np.ones(g.n)
    steps = 0

    def count(_):
        nonlocal steps
        steps += 1

    # restart cycles run one at a time so the solve can stop where rounding
    # stalls it (certified, and the last cycle did not halve |r|_inf) or
    # where it makes no progress (_KATZ_STALL_CYCLES cycles in a row without
    # halving the |r|_inf of the last cycle that did)
    x = np.zeros(g.n)
    residual = halved = np.inf
    stalled = 0
    for _ in range(_KATZ_MAX_STEPS // _KATZ_RESTART):
        x, info = gmres(
            shifted, ones, x0=x, rtol=_KATZ_RTOL, atol=0.0, restart=_KATZ_RESTART,
            maxiter=1, callback=count, callback_type="pr_norm",
        )  # fmt: skip
        image = shifted @ x  # 1 + r
        last, residual = residual, float(np.max(np.abs(image - ones), initial=0.0))
        if info == 0 or KATZ_RESIDUAL_TOL >= residual > 0.5 * last:
            break
        if residual <= 0.5 * halved:
            halved, stalled = residual, 0
        else:
            stalled += 1
            if stalled == _KATZ_STALL_CYCLES:
                break
    solve = f"|r|_inf = {residual:.3e} after {steps} GMRES steps"
    if not np.all(x > 0):
        raise EvaluationError(
            f"uncertified Katz reference: x > 0 fails (min x = {np.min(x):.6g}; {solve}), "
            "so gamma*rho(A) < 1 is not shown"
        )
    if not np.all(image > 0):
        raise EvaluationError(
            f"uncertified Katz reference: 1 + r > 0 fails (min {np.min(image):.6g}; {solve}), "
            "so gamma*rho(A) < 1 is not shown"
        )
    if not residual <= KATZ_RESIDUAL_TOL:
        raise EvaluationError(
            f"uncertified Katz reference: {solve}, above {KATZ_RESIDUAL_TOL:.0e}"
        )
    return KatzRowsum(
        scores=x - ones,
        gamma_rho_bound=float(np.max(1.0 - image / x, initial=0.0)),
        residual_inf=residual,
        relative_error_bound=residual / (1.0 - residual),
        iterations=steps,
    )


def dense_left_perron(g: SparseGraph, tol: float = 1e-10) -> PerronResult:
    """Left Perron vector of A by power iteration on A^T + I, uniform start.

    The shift makes imprimitive spectra, such as the dominant +/- pair of a
    bipartite graph, converge to the +lambda eigenvector; ``tol`` bounds the
    relative eigen-residual of the result.
    """
    if g.n < 1:
        raise ValueError("graph is empty")
    at = g.csc.T
    return power_iteration(lambda v: at @ v, g.n, PerronConfig(tol=tol))

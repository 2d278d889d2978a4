"""Ground-truth references: the subgraph diagonal, sparse exp and Katz row
sums, Perron.

``subgraph_diag`` gets diag exp(gamma*A) from the package's one exponential
kernel, ``matfun.taylor_exp`` (Taylor scaling and squaring of the sparse
matrix, whose output does not depend on its number of worker threads), one
route for directed and undirected graphs, and refuses above ``DENSE_CAP``
before the kernel builds its n x n iterate.  ``expm_rowsum`` gives
communicability row sums at any size from the action of the sparse
exponential on the ones vector, and ``katz_rowsum`` gives Katz row sums at
any size from one sparse solve that certifies its own admissibility and
error; neither forms a dense matrix.  Each builds the ``ScalarFunction``
it evaluates, so a gamma that is not positive and finite raises its
``ValueError``.  An inf or nan score raises ``EvaluationError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import SparseGraph
from .matfun import (
    DENSE_CAP,
    EvaluationError,
    _augmented,
    _require_finite,
    _stop_at_overflow,
    exp_minus_one,
    resolvent_minus_one,
    taylor_exp,
)
from .perron import PerronConfig, PerronResult, power_iteration

# a certified Katz solve has |s - s*| <= this * s* for each score
KATZ_RESIDUAL_TOL = 1e-12
# GMRES: stopping rule (2-norm residual relative to |1|_2), restart length
# and step budget of the Katz solve
_KATZ_RTOL = 1e-15
_KATZ_RESTART = 20
_KATZ_MAX_STEPS = 2_000
# restart cycles in a row that fail to halve |r|_inf before the solve gives up
_KATZ_STALL_CYCLES = 10


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
    """Diagonal of exp(gamma*A) - I from ``matfun.taylor_exp``, with its plan;
    refused above ``DENSE_CAP`` before any n x n array is built."""
    f = exp_minus_one(gamma)
    if g.n > DENSE_CAP:
        raise EvaluationError(
            f"no exact subgraph reference for n={g.n} above the dense cap {DENSE_CAP}"
        )
    with _stop_at_overflow("subgraph_diag", f.gamma):
        (degree, squarings, norm_bound), diag, _ = taylor_exp(f.gamma * g.csr, np.zeros((g.n, 0)))
    _require_finite(diag, "subgraph_diag", f.gamma)
    return SubgraphDiag(scores=diag, degree=degree, squarings=squarings, norm_bound=norm_bound)


def expm_rowsum(g: SparseGraph, gamma: float) -> np.ndarray:
    """Row sums of exp(gamma*A) - I, with no subtraction of 1.

    exp([[gamma*A, c*1], [0, 0]]) has last column [c*phi1(gamma*A)*1; 1],
    phi1(z) = (e^z - 1)/z, and exp(gamma*A) - I = gamma*A*phi1(gamma*A), so
    the scores are (gamma/c)*A times the top of that column: sums of
    nonnegative products, accurate relative to each score however small.
    ``matfun._augmented`` picks c = 2^-ceil(log2 n), which keeps the added
    column's 1-norm at most 1, so it does not raise the step count.  The
    column is the action of the sparse exponential on the last unit vector
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011), in O(nnz)
    memory.  It is deterministic: the randomized 1-norm estimates that pick
    its step count are exact for a nonnegative matrix.
    """
    # imported here: scipy.sparse.linalg adds 15-40 ms to importing the package
    from scipy.sparse.linalg import expm_multiply

    f = exp_minus_one(gamma)
    n = g.n
    b, c = _augmented(g.csr, f.gamma)
    last = np.zeros(n + 1)
    last[n] = 1.0
    top = expm_multiply(b, last)[:n]
    rowsum = (f.gamma / c) * (g.csr @ top)
    _require_finite(rowsum, "expm_rowsum", f.gamma)
    return rowsum


@dataclass(frozen=True)
class KatzRowsum:
    """Certified row sums of (I - gamma*A)^-1 - I.

    ``gamma_rho_bound`` is a proven upper bound on gamma*rho(A), below 1.
    Each score s_i is within ``relative_error_bound * s_i`` of the exact one.
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
    """Katz row sums gamma*A x from one certified sparse solve of (I - gamma*A) x = 1.

    GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7(3), 1986) solves
    on the CSR matrix; the residual r = (I - gamma*A) x - 1 is recomputed
    and the solution is accepted only with two certificates:

    - x > 0 and 1 + r > 0.  Then gamma*(A x)_i / x_i = 1 - (1 + r_i)/x_i < 1,
      and for A >= 0 the Collatz-Wielandt bound rho(A) <= max_i (A x)_i / x_i
      (Meyer, Matrix Analysis and Applied Linear Algebra, SIAM 2000, 8.3)
      proves gamma*rho(A) < 1: the Katz series converges.
    - |r|_inf <= ``KATZ_RESIDUAL_TOL``.  (I - gamma*A)^-1 >= 0 then gives
      |x - x*| <= |r|_inf * x* for the exact solution x*, and so
      |s - s*| <= |r|_inf * s* for each score s = x - 1 = gamma*A x.

    Anything else raises ``EvaluationError``; no eigenvalue, dense matrix
    or factorization is formed, and no 1 is subtracted: a sink scores 0.
    """
    # imported here: scipy.sparse.linalg adds 15-40 ms to importing the package
    from scipy.sparse.linalg import gmres

    f = resolvent_minus_one(gamma)
    shifted = sp.identity(g.n, format="csr") - f.gamma * g.csr
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
    scores = f.gamma * (g.csr @ x)
    # r and s as computed miss at most ku/(1 - ku) (1 + x + s) in a row with k - 2 entries
    # of I - gamma*A (Higham, Accuracy and Stability, SIAM 2002, 3.1), so with err the
    # largest |r_i| plus that, |s - s*| <= err (2 + err) s*
    ku = (np.diff(shifted.indptr) + 2) * np.finfo(float).eps / 2
    err = float(np.max(np.abs(image - ones) + ku / (1 - ku) * (1.0 + x + scores)))
    return KatzRowsum(
        scores=scores,
        gamma_rho_bound=float(np.max(1.0 - image / x, initial=0.0)),
        residual_inf=residual,
        relative_error_bound=err * (2 + err) / (1 - err * (2 + err)),
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

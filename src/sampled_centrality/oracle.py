"""Ground-truth references: dense f(A), the subgraph diagonal, sparse exp and
Katz row sums, Perron.

``dense_matfun`` is exact at desk scale; dense matrices are plain numpy
arrays (row-major, square) and ``DENSE_CAP`` keeps huge inputs out.
``subgraph_diag`` gets diag exp(gamma*A) by Taylor scaling and squaring of
the sparse matrix, one route for directed and undirected graphs, and refuses
above the cap before it builds its n x n iterate.  ``expm_rowsum`` gives
communicability row sums at any size from the action of the sparse
exponential on the ones vector, and ``katz_rowsum`` gives Katz row sums at
any size from one sparse solve that certifies its own admissibility and
error; neither forms a dense matrix.  An inf or nan score raises
``EvaluationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import SparseGraph
from .matfun import (
    DENSE_CAP,
    EXP_MINUS_ONE,
    EvaluationError,
    ScalarFunction,
    _require_finite,
)
from .perron import PerronConfig, PerronResult, power_iteration

# Taylor degree of the subgraph reference, and theta_m for it in double
# precision (Higham and Al-Mohy, Acta Numerica 19, 2010, Table A.3; the value
# in scipy's expm_multiply table)
TAYLOR_DEGREE = 30
TAYLOR_THETA = 3.54
# a certified Katz solve has |x - x*| <= this * x* entrywise
KATZ_RESIDUAL_TOL = 1e-12
# GMRES: stopping rule (2-norm residual relative to |1|_2), restart length
# and step budget of the Katz solve
_KATZ_RTOL = 1e-15
_KATZ_RESTART = 20
_KATZ_MAX_STEPS = 2_000
# restart cycles in a row that fail to halve |r|_inf before the solve gives up
_KATZ_STALL_CYCLES = 10


def dense_matfun(a: np.ndarray, f: ScalarFunction) -> np.ndarray:
    """f evaluated at a dense square matrix.

    The exponential uses scaling-and-squaring with the degree-13 Pade
    approximant (scipy.linalg.expm); the resolvent is an LU solve of
    (I - gamma*A) X = I.  Both subtract the identity afterwards.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if a.shape[0] > DENSE_CAP:
        raise EvaluationError(f"dense evaluation capped at n={DENSE_CAP}")
    if f.kind != EXP_MINUS_ONE:
        if a.shape[0]:
            eigs = (
                np.linalg.eigvalsh(a)
                if np.array_equal(a, a.T)
                else np.linalg.eigvals(a)
            )
            rho = float(np.max(np.abs(eigs)))
            if f.gamma * rho >= 1.0:
                raise EvaluationError(
                    f"resolvent series diverges: gamma*rho = {f.gamma * rho:.6g} >= 1"
                )
    return f.matrix_value(a)


def taylor_scaling(g: SparseGraph, gamma: float) -> tuple[int, float]:
    """Squarings s and norm bound alpha of the subgraph reference at gamma.

    B = gamma*A is entrywise nonnegative, so |B^p|_1 = max(1^T B^p) exactly
    and p products with B^T give d_p = |B^p|_1^(1/p) with no estimate.
    alpha = min over 2 <= p, p(p - 1) <= m + 1, of max(d_p, d_{p+1}) bounds
    the Taylor remainder of degree m = ``TAYLOR_DEGREE`` (Al-Mohy and Higham,
    SIAM J. Sci. Comput. 33(2), 2011, Sec. 3), and s is the fewest halvings
    with alpha / 2^s <= theta_m = ``TAYLOR_THETA``.
    """
    if not (gamma > 0 and np.isfinite(gamma)):
        raise ValueError("gamma must be positive and finite")
    bt = gamma * g.csc.T
    p_max = max(p for p in range(2, TAYLOR_DEGREE) if p * (p - 1) <= TAYLOR_DEGREE + 1)
    v = np.ones(g.n)
    d = {}
    for p in range(1, p_max + 2):
        v = bt @ v
        d[p] = float(np.max(v, initial=0.0)) ** (1.0 / p)
    alpha = min(max(d[p], d[p + 1]) for p in range(2, p_max + 1))
    if alpha == np.inf:
        raise EvaluationError(f"the norm bound of gamma*A overflows at gamma={gamma:g}")
    squarings = max(0, math.ceil(math.log2(alpha / TAYLOR_THETA))) if alpha > 0 else 0
    return squarings, alpha


def subgraph_diag(g: SparseGraph, gamma: float) -> np.ndarray:
    """Diagonal of exp(gamma*A) - I by Taylor scaling and squaring.

    With (s, alpha) from ``taylor_scaling``, alpha / 2^s <= theta_30 = 3.54
    makes T_30(2^-s * gamma*A)^(2^s) the exponential of gamma*A plus a
    backward error below the unit roundoff relative to its norm (Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33(2), 2011, Sec. 3); because A >= 0, no
    term cancels (Shao, Gao and Xue, Math. Comp. 83, 2014).
    Y = T_30(C) - I, C = 2^-s * gamma*A, comes by Horner from Y = 0 as
    Y <- C (I + Y) / k, one sparse-by-dense product per degree; each
    squaring maps Y to 2Y + Y^2, and the last one forms only its diagonal,
    2 Y_ii + sum_j Y_ij Y_ji.  Every step sums products of nonnegative
    numbers, and working with Y rather than T_30(C) also spares the final
    subtraction of the identity.  Refused above ``DENSE_CAP`` before any
    n x n array is built.
    """
    if g.n > DENSE_CAP:
        raise EvaluationError(
            f"no exact subgraph reference for n={g.n} above the dense cap {DENSE_CAP}"
        )
    squarings, _ = taylor_scaling(g, gamma)
    c = (gamma / 2.0**squarings) * g.csr
    y = c.toarray()
    y /= TAYLOR_DEGREE
    for k in range(TAYLOR_DEGREE - 1, 0, -1):
        y.flat[:: g.n + 1] += 1.0
        y = c @ y
        y /= k
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
    return diag


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

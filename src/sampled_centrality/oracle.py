"""Ground-truth references: dense f(A), sparse exp row sums, dense Perron.

``dense_matfun`` is exact at desk scale; dense matrices are plain numpy
arrays (row-major, square) and the size cap keeps accidental huge inputs out.
``expm_rowsum`` gives communicability row sums at any size from the action
of the sparse exponential on the ones vector, with no dense matrix.
"""

from __future__ import annotations

import numpy as np

from .graph import SparseGraph
from .matfun import EXP_MINUS_ONE, EvaluationError, ScalarFunction
from .perron import PerronConfig, PerronResult, power_iteration

DENSE_CAP = 4000


def dense_matfun(a: np.ndarray, f: ScalarFunction, dense_cap: int = DENSE_CAP) -> np.ndarray:
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
    if a.shape[0] > dense_cap:
        raise EvaluationError(f"dense evaluation capped at n={dense_cap}")
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
    return expm_multiply(gamma * g.csc, ones) - ones


def dense_left_perron(g: SparseGraph, tol: float = 1e-10) -> PerronResult:
    """Left Perron vector of A by power iteration on A^T, uniform start.

    Bipartite-type spectra (dominant +/- pair) make plain power iteration
    cycle with period 2; that cycle is detected and the +lambda eigenvector
    on the span of the two iterates is returned with ``converged=False``.
    """
    if g.n < 1:
        raise ValueError("graph is empty")
    at = g.csc.T
    return power_iteration(lambda v: at @ v, g.n, PerronConfig(tol=tol))

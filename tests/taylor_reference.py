"""The exponential kernel's Horner recurrence on the whole n x n iterate.

This is ``matfun.taylor_exp`` without its column panels and worker threads:
the same plan from ``matfun.taylor_plan`` and the same 1/k-scaled copies of
C, one sparse-by-dense product per degree on all n columns at once, in the
calling thread.  No pipeline route runs it.  The tests import it from here
to check that the panelled kernel gives the same diagonal and action bit
for bit, on a whole graph (the subgraph reference) and on the column core.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from sampled_centrality import EvaluationError, SparseGraph
from sampled_centrality.matfun import DENSE_CAP, _require_finite, taylor_plan


def whole_matrix_taylor_exp(b: sp.csr_matrix, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """diag(exp(B) - I) and (exp(B) - I) @ vectors by Taylor scaling and squaring."""
    n = b.shape[0]
    degree, squarings, _ = taylor_plan(b)
    c = math.ldexp(1.0, -squarings) * b

    def over(k: int) -> sp.csr_matrix:
        return sp.csr_matrix((c.data / k, c.indices, c.indptr), shape=c.shape)

    y = over(degree).toarray()
    for k in range(degree - 1, 0, -1):
        y.flat[:: n + 1] += 1.0
        y = over(k) @ y
    for _ in range(squarings - 1):
        square = y @ y
        square += y
        square += y
        y = square
    if squarings == 0:
        return np.diagonal(y).copy(), y @ vectors
    action = y @ vectors
    return np.einsum("ij,ji->i", y, y) + 2.0 * np.diagonal(y), y @ action + 2.0 * action


def whole_matrix_subgraph_diag(g: SparseGraph, gamma: float) -> np.ndarray:
    """Diagonal of exp(gamma*A) - I by Taylor scaling and squaring."""
    if g.n > DENSE_CAP:
        raise EvaluationError(
            f"no exact subgraph reference for n={g.n} above the dense cap {DENSE_CAP}"
        )
    diag, _ = whole_matrix_taylor_exp(gamma * g.csr, np.zeros((g.n, 0)))
    _require_finite(diag, "subgraph_diag", gamma)
    return diag

"""The subgraph reference's Horner recurrence on the whole n x n iterate.

This is ``oracle.subgraph_diag`` without its column panels and worker
threads: the same plan from ``oracle.taylor_plan`` and the same 1/k-scaled
copies of C, one sparse-by-dense product per degree on all n columns at
once, in the calling thread.  No pipeline route runs it.  The tests import
it from here to check that the panelled kernel gives the same diagonal bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from sampled_centrality import EvaluationError, SparseGraph
from sampled_centrality.matfun import DENSE_CAP, _require_finite
from sampled_centrality.oracle import taylor_plan


def whole_matrix_subgraph_diag(g: SparseGraph, gamma: float) -> np.ndarray:
    """Diagonal of exp(gamma*A) - I by Taylor scaling and squaring."""
    if g.n > DENSE_CAP:
        raise EvaluationError(
            f"no exact subgraph reference for n={g.n} above the dense cap {DENSE_CAP}"
        )
    degree, squarings, _ = taylor_plan(g, gamma)
    c = math.ldexp(gamma, -squarings) * g.csr

    def over(k: int) -> sp.csr_matrix:
        return sp.csr_matrix((c.data / k, c.indices, c.indptr), shape=c.shape)

    y = over(degree).toarray()
    for k in range(degree - 1, 0, -1):
        y.flat[:: g.n + 1] += 1.0
        y = over(k) @ y
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

"""f(A) of a small dense matrix: the tests' exact oracle at desk scale.

No pipeline route forms f(A) of the whole graph; the tests import it from
here to check the core evaluations, the references and the CLI's rankings
against it.  Dense matrices are plain numpy arrays (row-major, square) and
``DENSE_CAP`` keeps huge inputs out.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from sampled_centrality import EvaluationError, ScalarFunction
from sampled_centrality.matfun import DENSE_CAP, EXP_MINUS_ONE


def matrix_value(f: ScalarFunction, a: np.ndarray) -> np.ndarray:
    """f evaluated at a small dense matrix."""
    a = np.asarray(a, dtype=np.float64)
    m = a.shape[0]
    if f.kind == EXP_MINUS_ONE:
        return sla.expm(f.gamma * a) - np.eye(m)
    return f._resolvent(a) - np.eye(m)


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
    return matrix_value(f, a)

"""Ground-truth references: dense f(A), full-matrix Krylov diag, dense Perron.

These exist for validation at desk scale.  Dense matrices are plain numpy
arrays (row-major, square); the size cap keeps accidental huge inputs out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph
from .matfun import EXP_MINUS_ONE, EvaluationError, ScalarFunction, _krylov
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


@dataclass(frozen=True)
class KrylovReference:
    """diag (and rowsum) of V_k f(H_k) V_k^T from full-matrix Arnoldi."""

    diag: np.ndarray
    rowsum: np.ndarray
    steps: int
    breakdown: bool


def krylov_full_matfun(
    g: SparseGraph, k: int, f: ScalarFunction, seed: int = 0, tol: float = 1e-12
) -> KrylovReference:
    """k-step Arnoldi approximation of f(A) on the full matrix.

    Early breakdown truncates to the exact invariant subspace and is noted
    in the returned record.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} outside [1, {g.n}]")
    rng = np.random.default_rng(seed)
    v1 = rng.standard_normal(g.n)
    v1 /= np.linalg.norm(v1)
    csc = g.csc

    out = _krylov(lambda x: csc @ x, v1, k, tol)
    if out is None:
        raise EvaluationError("start vector is annihilated by the adjacency matrix")
    V, H, breakdown, _ = out
    FH = f.matrix_value(H)
    VF = V @ FH
    diag = np.einsum("ij,ij->i", VF, V)
    rowsum = VF @ (V.T @ np.ones(g.n))
    return KrylovReference(diag=diag, rowsum=rowsum, steps=V.shape[1], breakdown=breakdown)


def dense_left_perron(
    g: SparseGraph,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    seed: int = 0,
    start: str = "uniform",
) -> PerronResult:
    """Left Perron vector of A by power iteration on A^T, uniform start.

    Bipartite-type spectra (dominant +/- pair) make plain power iteration
    cycle with period 2; that cycle is detected and the normalized average
    of the two iterates is returned with ``converged=False``.
    """
    if g.n < 1:
        raise ValueError("graph is empty")
    if start not in ("uniform", "random"):
        raise ValueError("start must be 'uniform' or 'random'")
    at = g.csc.T.tocsr()
    cfg = PerronConfig(epsilon=0.0, tol=tol, max_iter=max_iter, seed=seed)
    start_vec = None
    if start == "random":
        rng = np.random.default_rng(seed)
        start_vec = rng.random(g.n) + 1e-12
    return power_iteration(
        lambda v: at @ v, g.n, cfg, detect_oscillation=True, start=start_vec
    )

"""Arnoldi spectral reconstruction of f on the column mask: the independent
second method that cross-checks the column-mask exp of ``evaluate_masked_function``.

No pipeline route runs it.  The tests import it from here to check that two
unrelated methods, Ritz pairs of the column-masked operator and one dense
function of the sampled core, give the same diagonal and row sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from sampled_centrality import SampleSet, SparseGraph
from sampled_centrality.matfun import (
    RESOLVENT_MINUS_ONE,
    ZERO_EIG_TOL,
    EvaluationError,
    ScalarFunction,
)

# numerical thresholds of the reconstruction
BREAKDOWN_TOL = 1e-12   # Arnoldi breakdown, times the norm of the first Krylov image
COND_THRESHOLD = 1e8    # eigenbasis / core-solve conditioning gate
IMAG_TOL = 1e-8         # times max(1, |result|_inf) on residual imaginary parts


class ColumnMaskedOperator:
    """Applies y = A_mask @ x where all columns outside the mask are zeroed.

    Accumulation runs over masked columns in ascending index order, then
    ascending row within each column, so results are bitwise reproducible.
    """

    def __init__(self, g: SparseGraph, indices: np.ndarray):
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= g.n):
            raise ValueError("mask index out of range")
        self.n = g.n
        self.indices = np.unique(idx)
        self._sub = g.csc[:, self.indices]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"vector has shape {x.shape}, expected ({self.n},)")
        if self.indices.size == 0:
            return np.zeros(self.n, dtype=x.dtype)
        return self._sub @ x[self.indices]


@dataclass(frozen=True)
class KrylovDecomposition:
    """Orthonormal basis and square Hessenberg matrix from Arnoldi.

    At breakdown the relation ``A_masked @ basis == basis @ small_matrix``
    holds to rounding; ``residual_norm`` is the magnitude of the final
    subdiagonal coefficient.
    """

    basis: np.ndarray
    small_matrix: np.ndarray
    steps: int
    breakdown: bool
    residual_norm: float

    def invariance_residual(self, op: Callable[[np.ndarray], np.ndarray]) -> float:
        image = np.column_stack([op(v) for v in self.basis.T])
        return float(np.linalg.norm(image - self.basis @ self.small_matrix))


@dataclass(frozen=True)
class SpectralData:
    """Eigenpairs of the small matrix, sorted by nonincreasing modulus."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    condition_estimate: float


def arnoldi(
    g: SparseGraph,
    mask: SampleSet,
    seed: int = 0,
    v1: np.ndarray | None = None,
) -> KrylovDecomposition:
    """Arnoldi with full reorthogonalization on the column-masked operator.

    Starts from a seeded random vector (``v1`` overrides it, for closed-form
    tests).  Iteration stops at breakdown, a subdiagonal below BREAKDOWN_TOL
    times the norm of the first image, which is dropped, or after
    min(ell + 1, n) steps, where the Krylov space of the rank-ell operator is
    necessarily exhausted.
    """
    if mask.kind != "column":
        raise ValueError("arnoldi expects a column mask")
    if v1 is None:
        v1 = np.random.default_rng(seed).standard_normal(g.n)
        v1 /= np.linalg.norm(v1)
    op = ColumnMaskedOperator(g, mask.indices)
    max_steps = min(len(mask) + 1, g.n)
    w = op(v1)
    scale = float(np.linalg.norm(w))
    if scale <= 1e-13:
        raise EvaluationError("the masked operator annihilates the start vector")
    threshold = BREAKDOWN_TOL * scale

    V = [v1]
    cols: list[np.ndarray] = []
    breakdown = False
    while True:
        k = len(V) - 1
        h = np.zeros(k + 2)
        for _ in range(2):  # the second pass keeps orthogonality at eps
            for i, vi in enumerate(V):
                c = vi @ w
                w = w - c * vi
                h[i] += c
        beta = float(np.linalg.norm(w))
        h[k + 1] = beta
        cols.append(h)
        if beta <= threshold:
            breakdown = True
            break
        if k + 1 >= max_steps:
            break
        V.append(w / beta)
        w = op(V[-1])

    m = len(V)
    H = np.zeros((m, m))
    for c, h in enumerate(cols):
        top = min(c + 2, m)
        H[:top, c] = h[:top]
    return KrylovDecomposition(np.column_stack(V), H, m, breakdown, beta)


def spectral_factorize(d: KrylovDecomposition) -> SpectralData:
    """Eigenpairs of the small matrix, nonincreasing modulus, stable ties."""
    if not d.breakdown:
        raise EvaluationError(
            "spectral factorization requires a breakdown (invariant) decomposition"
        )
    try:
        lam, S = np.linalg.eig(d.small_matrix)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"eigen-solver failure: {exc}") from exc
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = float(np.linalg.cond(S))
    if np.isnan(cond):
        cond = np.inf
    order = np.lexsort((np.arange(lam.size), -np.abs(lam)))
    return SpectralData(lam[order], S[:, order], cond)


def estimate_spectral_radius(sd: SpectralData) -> float:
    """Largest Ritz modulus of the masked operator."""
    if sd.eigenvalues.size == 0:
        raise ValueError("empty spectral data")
    return float(np.abs(sd.eigenvalues[0]))


def _realize(values: np.ndarray) -> np.ndarray:
    real = values.real
    worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
    limit = IMAG_TOL * max(1.0, float(np.max(np.abs(real))) if real.size else 0.0)
    if worst > limit:
        raise EvaluationError(
            f"imaginary residue {worst:.3e} exceeds tolerance {limit:.3e}; "
            "complex Ritz pairs did not cancel"
        )
    return np.ascontiguousarray(real)


@dataclass(frozen=True)
class KrylovResult:
    """diag and rowsum of f on the column mask, with the spectral radius of
    the Ritz values and the worse of the eigenbasis and sampled-row
    condition numbers."""

    diag: np.ndarray
    rowsum: np.ndarray
    spectral_radius_estimate: float
    condition_estimate: float


def krylov_spectral_evaluation(
    g: SparseGraph,
    mask: SampleSet,
    f: ScalarFunction,
    seed: int = 0,
) -> KrylovResult:
    """diag and rowsum of f on the column mask by Arnoldi spectral reconstruction.

    An independent cross-check of the column-mask exp: once the
    Arnoldi basis of the column-masked operator breaks down, the Ritz pairs
    reconstruct the nonzero columns of f(A_masked) through a solve against
    the sampled rows of the eigenvector block.  Raises EvaluationError when
    that is unusable (no breakdown, defective or ill-conditioned eigenbasis,
    rank-deficient core), and for the resolvent when gamma times the largest
    Ritz modulus is at least 1.
    """
    ell = len(mask)
    d = arnoldi(g, mask, seed)
    sd = spectral_factorize(d)
    rho = estimate_spectral_radius(sd)
    if f.kind == RESOLVENT_MINUS_ONE and f.gamma * rho >= 1.0:
        raise EvaluationError(f"resolvent series diverges: gamma*rho = {f.gamma * rho:.6g} >= 1")
    if sd.condition_estimate > COND_THRESHOLD:
        raise EvaluationError(
            f"ill-conditioned eigenbasis of the small matrix ({sd.condition_estimate:.3e})"
        )

    keep = np.abs(sd.eigenvalues) > ZERO_EIG_TOL * max(1.0, rho)
    kept = int(np.count_nonzero(keep))
    if kept != ell:
        raise EvaluationError(f"{kept} nonvanishing Ritz values for {ell} sampled columns")

    W = d.basis.astype(complex) @ sd.eigenvectors[:, keep]
    WJ = W[mask.indices, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond_wj = float(np.linalg.cond(WJ))
    if not np.isfinite(cond_wj) or cond_wj > COND_THRESHOLD:
        raise EvaluationError("sampled rows of the eigenvector block are singular")

    lam = sd.eigenvalues[keep]
    flam = f.value(lam)
    lu = sla.lu_factor(WJ)

    # rowsum = W f(L) WJ^{-1} 1 (columns outside J vanish, f(0)=0)
    u = sla.lu_solve(lu, np.ones(ell, dtype=complex))
    rowsum_c = (W * flam[np.newaxis, :]) @ u

    # diag over J is the diagonal of (WJ f(L)) WJ^{-1}
    M = WJ * flam[np.newaxis, :]
    X = sla.lu_solve(lu, M.T, trans=1)
    diag_c = np.zeros(g.n, dtype=complex)
    diag_c[mask.indices] = np.diagonal(X)

    return KrylovResult(
        diag=_realize(diag_c),
        rowsum=_realize(rowsum_c),
        spectral_radius_estimate=rho,
        condition_estimate=max(sd.condition_estimate, cond_wj),
    )

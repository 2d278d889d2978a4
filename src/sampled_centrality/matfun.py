"""Diagonal and row sums of f(A_masked) from exact small-core computations.

Two scalar functions are supported, both with f(0) = 0:

    exp_minus_one:       f(t) = exp(gamma * t) - 1
    resolvent_minus_one: f(t) = 1 / (1 - gamma * t) - 1

Directed graphs use the column mask (``direct_core_evaluation``), undirected
graphs the "arrow" mask that keeps entries with a sampled row or column
(``arrow_core_evaluation``).  Each reduces f(A_masked) to one dense
computation on a core of order at most 2*ell plus sparse products, with no
iteration.  The Arnoldi spectral reconstruction
(``krylov_spectral_evaluation``) is an independent second method kept for
cross-checks.

The permutation that would move sampled columns first is never materialized:
everything is indexed in original node order, with the selection order of J
defining the leading block.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .graph import ColumnMaskedOperator, SparseGraph, transpose
from .sampling import SampleSet

EXP_MINUS_ONE = "exp_minus_one"
RESOLVENT_MINUS_ONE = "resolvent_minus_one"

# entries of the dense row block of A21 @ K held at once in the arrow diagonal
_ROW_BLOCK_ENTRIES = 1 << 22

# numerical thresholds of the evaluation routes
BREAKDOWN_TOL = 1e-12   # Arnoldi breakdown, times the norm of the first Krylov image
ZERO_EIG_TOL = 1e-10    # relative level of vanishing Ritz values and Gram eigenvalues
COND_THRESHOLD = 1e8    # eigenbasis / core-solve conditioning gate
IMAG_TOL = 1e-8         # times max(1, |result|_inf) on residual imaginary parts
KATZ_SAFETY = 0.95      # require gamma * rho_hat <= this for the resolvent


class EvaluationError(RuntimeError):
    """A matrix-function evaluation could not be completed."""


@dataclass(frozen=True)
class ScalarFunction:
    """One of the two admissible scalar functions, with its scaling gamma."""

    kind: str
    gamma: float

    def __post_init__(self):
        if self.kind not in (EXP_MINUS_ONE, RESOLVENT_MINUS_ONE):
            raise ValueError(f"unknown function kind {self.kind!r}")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    def value(self, z):
        """f(z), elementwise; complex inputs allowed."""
        w = self.gamma * np.asarray(z)
        if self.kind == EXP_MINUS_ONE:
            return np.expm1(w)
        return w / (1.0 - w)

    def quotient(self, z):
        """g(z) = f(z)/z with the removable singularity patched at 0."""
        z = np.asarray(z, dtype=complex)
        w = self.gamma * z
        if self.kind == EXP_MINUS_ONE:
            small = np.abs(w) < 1e-6
            ws = np.where(small, 0.0, w)
            out = np.where(small, 1.0 + w / 2 + w * w / 6, np.expm1(ws) / np.where(small, 1.0, ws))
            return self.gamma * out
        return self.gamma / (1.0 - w)

    def matrix_value(self, a: np.ndarray) -> np.ndarray:
        """f evaluated at a small dense matrix."""
        a = np.asarray(a, dtype=np.float64)
        m = a.shape[0]
        if self.kind == EXP_MINUS_ONE:
            return sla.expm(self.gamma * a) - np.eye(m)
        return self._resolvent(a) - np.eye(m)

    def matrix_quotient(self, a: np.ndarray) -> np.ndarray:
        """g(t) = f(t)/t evaluated at a small dense matrix (exact at 0)."""
        a = np.asarray(a, dtype=np.float64)
        m = a.shape[0]
        if self.kind == EXP_MINUS_ONE:
            # phi1 block of the augmented exponential handles singular cores
            aug = np.zeros((2 * m, 2 * m))
            aug[:m, :m] = self.gamma * a
            aug[:m, m:] = np.eye(m)
            return self.gamma * sla.expm(aug)[:m, m:]
        return self.gamma * self._resolvent(a)

    def matrix_value_and_quotient_sum(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f(A) and g(A) @ 1 of a small dense matrix from one factorization.

        For exp both come from one augmented exponential of order m + 1,
        expm([[gamma*A, c*1], [0, 0]]) = [[exp(gamma*A), c*phi1(gamma*A) @ 1], [0, 1]]
        (Higham, Functions of Matrices, SIAM 2008), exact for singular A;
        c = 1/m keeps the added column's 1-norm at 1.  For the resolvent both
        come from one LU solve with I - gamma*A.
        """
        a = np.asarray(a, dtype=np.float64)
        m = a.shape[0]
        if self.kind == EXP_MINUS_ONE:
            c = 1.0 / max(m, 1)
            aug = np.zeros((m + 1, m + 1))
            aug[:m, :m] = self.gamma * a
            aug[:m, m] = c
            e = sla.expm(aug)
            return e[:m, :m] - np.eye(m), (self.gamma / c) * e[:m, m]
        x = self._resolvent(a)
        return x - np.eye(m), self.gamma * x.sum(axis=1)

    def _resolvent(self, a: np.ndarray) -> np.ndarray:
        shifted = np.eye(a.shape[0]) - self.gamma * a
        if shifted.size and not np.linalg.cond(shifted) <= 1e14:
            raise EvaluationError("resolvent pole: I - gamma*A is singular to working precision")
        return sla.solve(shifted, np.eye(a.shape[0]))


def exp_minus_one(gamma: float = 1.0) -> ScalarFunction:
    return ScalarFunction(EXP_MINUS_ONE, gamma)


def resolvent_minus_one(gamma: float) -> ScalarFunction:
    return ScalarFunction(RESOLVENT_MINUS_ONE, gamma)


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


@dataclass(frozen=True)
class MatfunResult:
    """Per-node diagonal entries and row sums of f(A_masked)."""

    diag: np.ndarray
    rowsum: np.ndarray
    method: str
    spectral_radius_estimate: float
    ell: int
    gamma: float
    function: str
    seed: int | None = None
    steps: int | None = None
    condition_estimate: float | None = None
    fallback_reason: str | None = None

    def metadata(self) -> dict:
        return {
            "method": self.method,
            "ell": int(self.ell),
            "gamma": float(self.gamma),
            "function": self.function,
            "seed": None if self.seed is None else int(self.seed),
            "steps": None if self.steps is None else int(self.steps),
            "spectral_radius_estimate": float(self.spectral_radius_estimate),
            "condition_estimate": None
            if self.condition_estimate is None or not np.isfinite(self.condition_estimate)
            else float(self.condition_estimate),
            "fallback_reason": self.fallback_reason,
        }


def _check_katz_bound(f: ScalarFunction, rho: float) -> None:
    if f.kind == RESOLVENT_MINUS_ONE and f.gamma * rho > KATZ_SAFETY:
        raise EvaluationError(
            f"resolvent parameter inadmissible: gamma*rho_hat = {f.gamma * rho:.6g} "
            f"> {KATZ_SAFETY}"
        )


# -- exact small-core evaluation ----------------------------------------------


def evaluate_masked_function(
    g: SparseGraph,
    mask: SampleSet,
    f: ScalarFunction,
    seed: int = 0,
    dense_cap: int = 4000,
) -> MatfunResult:
    """diag and rowsum of f(A_masked) from the sampled columns.

    Directed graphs use the column mask (``direct_core_evaluation``) and
    undirected graphs the arrow mask (``arrow_core_evaluation``).  Both are
    exact and deterministic; ``seed`` is only recorded in the metadata.
    """
    core = direct_core_evaluation if g.directed else arrow_core_evaluation
    return dataclasses.replace(core(g, mask, f, dense_cap), seed=seed)


def _core_blocks(g: SparseGraph, mask: SampleSet, dense_cap: float = np.inf):
    """Dense leading core A[J, J] and the sparse trailing block A[rest, J]."""
    if mask.kind != "column":
        raise ValueError("masked evaluation expects a column mask")
    if len(mask) > dense_cap:
        raise EvaluationError(f"core size {len(mask)} exceeds the dense cap {dense_cap}")
    J = np.asarray(mask.indices, dtype=np.int64)
    rest = np.setdiff1d(np.arange(g.n), J, assume_unique=False)
    cols = g.csc[:, J].tocsr()
    a11 = cols[J, :].toarray()
    a21 = cols[rest, :]
    return J, rest, a11, a21


def direct_core_evaluation(
    g: SparseGraph,
    mask: SampleSet,
    f: ScalarFunction,
    dense_cap: int = 4000,
) -> MatfunResult:
    """Exact dense evaluation of the column mask.

    Only the sampled columns of f(A_masked) are nonzero, and in the leading
    block they equal f(A11) stacked on A21 @ g(A11) with g(t) = f(t)/t, so
    f(A11) and g(A11) @ 1 from one factorization of the ell-by-ell core give
    diag and rowsum exactly (up to the dense kernel), defective cores included.
    """
    J, rest, a11, a21 = _core_blocks(g, mask, dense_cap)
    ell = len(mask)
    f11, g1 = f.matrix_value_and_quotient_sum(a11)

    diag = np.zeros(g.n)
    diag[J] = np.diagonal(f11)
    rowsum = np.zeros(g.n)
    rowsum[J] = f11.sum(axis=1)
    rowsum[rest] = a21 @ g1

    # A_masked is block lower triangular, so its spectrum is that of A11
    rho = float(np.max(np.abs(np.linalg.eigvals(a11)))) if ell else 0.0
    _check_katz_bound(f, rho)
    return MatfunResult(
        diag=diag,
        rowsum=rowsum,
        method="direct_core",
        spectral_radius_estimate=rho,
        ell=ell,
        gamma=f.gamma,
        function=f.kind,
    )


def arrow_core_evaluation(
    g: SparseGraph,
    mask: SampleSet,
    f: ScalarFunction,
    dense_cap: int = 4000,
) -> MatfunResult:
    """Exact evaluation of the arrow mask of an undirected graph.

    The Gram matrix A21^T A21 = V S^2 V^T, restricted to its r nonzero
    eigenvalues, gives A21 = Q R with R = S V^T and orthonormal
    Q = A21 V S^{-1}.  Then A_arrow = U C U^T with U = [E_J, E_rest Q] and
    C = [[A11, R^T], [R, 0]], and since f(0) = 0, f(A_arrow) = U f(C) U^T.
    One symmetric eigendecomposition of C (order ell + r <= 2*ell) and
    sparse products with A21 give every diagonal entry and row sum; Q is
    never formed.
    """
    if g.directed:
        raise ValueError("arrow_core_evaluation requires an undirected graph")
    J, rest, a11, a21 = _core_blocks(g, mask, dense_cap)
    ell = len(mask)

    s2, V = np.linalg.eigh((a21.T @ a21).toarray())
    keep = s2 > ZERO_EIG_TOL * max(1.0, np.max(s2, initial=0.0))
    s = np.sqrt(s2[keep])
    P = V[:, keep] / s  # Q = A21 @ P
    R = s[:, np.newaxis] * V[:, keep].T
    core = np.block([[a11, R.T], [R, np.zeros((s.size, s.size))]])
    mu, W = np.linalg.eigh(core)
    rho = float(np.max(np.abs(mu), initial=0.0))
    _check_katz_bound(f, rho)
    fmu = f.value(mu)

    # U^T 1 = [1_J; Q^T 1_rest], and U maps the core back to node order
    z = np.concatenate([np.ones(ell), P.T @ np.asarray(a21.sum(axis=0)).ravel()])
    fz = W @ (fmu * (W.T @ z))
    rowsum = np.empty(g.n)
    rowsum[J] = fz[:ell]
    rowsum[rest] = a21 @ (P @ fz[ell:])

    # diag over rest is a_i^T K a_i with K = P F22 P^T, F22 = f(C)[ell:, ell:]
    PW2 = P @ W[ell:]
    K = (PW2 * fmu) @ PW2.T
    diag = np.empty(g.n)
    diag[J] = (W[:ell] ** 2) @ fmu
    diag[rest] = _row_quadratic_forms(a21, K)
    return MatfunResult(
        diag=diag,
        rowsum=rowsum,
        method="arrow_core",
        spectral_radius_estimate=rho,
        ell=ell,
        gamma=f.gamma,
        function=f.kind,
        condition_estimate=1.0,
    )


def _row_quadratic_forms(a: sp.csr_matrix, K: np.ndarray) -> np.ndarray:
    """a_i^T K a_i for every row a_i of a, in row blocks of bounded size."""
    out = np.empty(a.shape[0])
    step = max(1, _ROW_BLOCK_ENTRIES // max(1, K.shape[0]))
    for start in range(0, a.shape[0], step):
        block = a[start : start + step]
        out[start : start + step] = np.asarray(block.multiply(block @ K).sum(axis=1)).ravel()
    return out


def _masked_function_columns(
    g: SparseGraph, mask: SampleSet, f: ScalarFunction
) -> np.ndarray:
    """Dense n-by-ell block of the nonzero columns of f(A_masked).

    Diagnostic helper for structure checks; memory is n * ell.
    """
    J, rest, a11, a21 = _core_blocks(g, mask)
    f11 = f.matrix_value(a11)
    g11 = f.matrix_quotient(a11).real
    out = np.zeros((g.n, len(mask)))
    out[J, :] = f11
    out[rest, :] = a21 @ g11
    return out


def transpose_measures(
    g: SparseGraph,
    rows: SampleSet,
    f: ScalarFunction,
    seed: int = 0,
    dense_cap: int = 4000,
) -> MatfunResult:
    """diag and rowsum of f(A^T) computed from sampled rows of A."""
    if rows.kind != "row":
        raise ValueError("transpose_measures expects a row mask")
    as_columns = dataclasses.replace(rows, kind="column")
    return evaluate_masked_function(transpose(g), as_columns, f, seed, dense_cap)


# -- Arnoldi spectral reconstruction (cross-check) ----------------------------


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


def krylov_spectral_evaluation(
    g: SparseGraph,
    mask: SampleSet,
    f: ScalarFunction,
    seed: int = 0,
) -> MatfunResult:
    """diag and rowsum of f on the column mask by Arnoldi spectral reconstruction.

    An independent cross-check of ``direct_core_evaluation``: once the
    Arnoldi basis of the column-masked operator breaks down, the Ritz pairs
    reconstruct the nonzero columns of f(A_masked) through a solve against
    the sampled rows of the eigenvector block.  Raises EvaluationError when
    that is unusable (no breakdown, defective or ill-conditioned eigenbasis,
    rank-deficient core).
    """
    ell = len(mask)
    d = arnoldi(g, mask, seed)
    sd = spectral_factorize(d)
    rho = estimate_spectral_radius(sd)
    _check_katz_bound(f, rho)
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

    return MatfunResult(
        diag=_realize(diag_c),
        rowsum=_realize(rowsum_c),
        method="krylov_spectral",
        spectral_radius_estimate=rho,
        ell=ell,
        gamma=f.gamma,
        function=f.kind,
        seed=seed,
        steps=d.steps,
        condition_estimate=max(sd.condition_estimate, cond_wj),
    )

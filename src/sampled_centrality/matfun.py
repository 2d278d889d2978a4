"""Diagonal and row sums of f(A_masked) from exact small-core computations.

Two scalar functions are supported, both with f(0) = 0:

    exp_minus_one:       f(t) = exp(gamma * t) - 1
    resolvent_minus_one: f(t) = 1 / (1 - gamma * t) - 1

Directed graphs use the column mask (``direct_core_evaluation``), undirected
graphs the "arrow" mask that keeps entries with a sampled row or column
(``arrow_core_evaluation``).  Each reduces f(A_masked) to one dense
computation on a core of order at most 2*ell plus sparse products, with no
iteration; that is the one route for each mask.  A result with an inf or
nan entry raises ``EvaluationError`` where it is computed: each core's dense
kernel stops at its first overflow or invalid value, with no RuntimeWarning.

Neither the permutation that would move sampled columns first nor the
complement of J is materialized: both routes work on all n rows of A[:, J] in
node order, the trailing block included, and write the J entries last, so an
evaluation costs O(nnz(A[:, J]) + n) plus the dense core.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .graph import SparseGraph
from .sampling import SampleSet

EXP_MINUS_ONE = "exp_minus_one"
RESOLVENT_MINUS_ONE = "resolvent_minus_one"

# largest dense order: the sampled core, and the graph of a dense reference
DENSE_CAP = 4000
# entries of the dense row block of A[:, J] @ K held at once in the arrow diagonal
_ROW_BLOCK_ENTRIES = 1 << 22

# numerical thresholds of the evaluation routes
ZERO_EIG_TOL = 1e-10    # relative level of vanishing Gram eigenvalues
KATZ_SAFETY = 0.95      # bound on gamma * rho for the resolvent


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
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValueError("gamma must be positive and finite")

    def value(self, z):
        """f(z), elementwise; complex inputs allowed."""
        w = self.gamma * np.asarray(z)
        if self.kind == EXP_MINUS_ONE:
            return np.expm1(w)
        return w / (1.0 - w)

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
        """(I - gamma*A)^-1 from one LU factorization, refused when LAPACK's
        1-norm condition estimate from those factors exceeds 1e14."""
        m = a.shape[0]
        if not m:
            return np.zeros((0, 0))
        shifted = np.eye(m) - self.gamma * a
        anorm = np.linalg.norm(shifted, 1)
        lu, piv, _ = sla.lapack.dgetrf(shifted, overwrite_a=True)
        rcond, _ = sla.lapack.dgecon(lu, anorm, norm="1")
        if not rcond >= 1e-14:
            raise EvaluationError("resolvent pole: I - gamma*A is singular to working precision")
        return sla.lu_solve((lu, piv), np.eye(m), check_finite=False)


def exp_minus_one(gamma: float = 1.0) -> ScalarFunction:
    return ScalarFunction(EXP_MINUS_ONE, gamma)


def resolvent_minus_one(gamma: float) -> ScalarFunction:
    return ScalarFunction(RESOLVENT_MINUS_ONE, gamma)


@dataclass(frozen=True)
class MatfunResult:
    """Per-node diagonal entries and row sums of f(A_masked).

    ``spectral_radius_estimate`` is None on the column mask, whose Katz
    gate needs no eigenvalue; the arrow mask gives the exact one.
    """

    diag: np.ndarray
    rowsum: np.ndarray
    method: str
    spectral_radius_estimate: float | None
    ell: int
    gamma: float
    function: str
    seed: int | None = None
    condition_estimate: float | None = None
    fallback_reason: str | None = None

    def metadata(self) -> dict:
        return {
            "method": self.method,
            "ell": int(self.ell),
            "gamma": float(self.gamma),
            "function": self.function,
            "seed": None if self.seed is None else int(self.seed),
            "spectral_radius_estimate": None
            if self.spectral_radius_estimate is None
            else float(self.spectral_radius_estimate),
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


def _check_katz_m_matrix(f: ScalarFunction, a11: np.ndarray) -> None:
    """Refuse gamma*rho(A11) >= ``KATZ_SAFETY`` without an eigenvalue.

    A_masked is block lower triangular, so its spectrum is that of A11.  For
    A11 >= 0, Z = I - (gamma/KATZ_SAFETY)*A11 is a nonsingular M-matrix, that
    is gamma*rho(A11) < KATZ_SAFETY, exactly when some y > 0 has Z y > 0
    (Berman and Plemmons, Nonnegative Matrices in the Mathematical Sciences,
    SIAM 1994, Ch. 6), and then y = Z^-1 1 is one: one LU factorization of Z
    decides the gate.
    """
    z = np.eye(a11.shape[0]) - (f.gamma / KATZ_SAFETY) * a11
    lu, piv, info = sla.lapack.dgetrf(z)
    if info == 0:
        # a nearly singular Z may overflow y or Z y; inf and nan fail the test
        with np.errstate(over="ignore", invalid="ignore"):
            y = sla.lu_solve((lu, piv), np.ones(z.shape[0]), check_finite=False)
            if np.all(y > 0) and np.all(z @ y > 0):
                return
    raise EvaluationError(
        f"resolvent parameter inadmissible: I - gamma/{KATZ_SAFETY}*A11 is not a "
        f"nonsingular M-matrix, so gamma*rho(A11) >= {KATZ_SAFETY} at gamma={f.gamma:g}"
    )


# -- exact small-core evaluation ----------------------------------------------


def evaluate_masked_function(
    g: SparseGraph,
    mask: SampleSet,
    f: ScalarFunction,
    seed: int = 0,
) -> MatfunResult:
    """diag and rowsum of f(A_masked) from the sampled columns.

    Directed graphs use the column mask (``direct_core_evaluation``) and
    undirected graphs the arrow mask (``arrow_core_evaluation``).  Both are
    exact and deterministic; ``seed`` is only recorded in the metadata.
    """
    core = direct_core_evaluation if g.directed else arrow_core_evaluation
    result = core(g, mask, f)
    for values in (result.diag, result.rowsum):
        _require_finite(values, result.method, f.gamma)
    return dataclasses.replace(result, seed=seed)


def _require_finite(values: np.ndarray, route: str, gamma: float) -> None:
    """Raise ``EvaluationError`` naming the route and gamma if any entry is inf or nan."""
    if not np.all(np.isfinite(values)):
        raise _non_finite(route, gamma)


def _non_finite(route: str, gamma: float) -> EvaluationError:
    return EvaluationError(f"{route} returned inf or nan scores at gamma={gamma:g}")


@contextlib.contextmanager
def _stop_at_overflow(route: str, gamma: float):
    """Run a dense kernel so its first overflow or invalid value raises
    ``EvaluationError`` instead of a RuntimeWarning and inf or nan scores."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise _non_finite(route, gamma) from exc


def _core_blocks(g: SparseGraph, mask: SampleSet):
    """J, A[:, J] as CSR in node order (its rows outside J are the trailing
    block A[rest, J]), and the core A[J, J] as CSR and dense."""
    if mask.kind != "column":
        raise ValueError("masked evaluation expects a column mask")
    if mask.n != g.n:
        raise ValueError("sample dimension does not match the graph")
    if len(mask) > DENSE_CAP:
        raise EvaluationError(f"core size {len(mask)} exceeds the dense cap {DENSE_CAP}")
    cols = g.csc[:, mask.indices].tocsr()
    c11 = cols[mask.indices]
    return mask.indices, cols, c11, c11.toarray()


def direct_core_evaluation(g: SparseGraph, mask: SampleSet, f: ScalarFunction) -> MatfunResult:
    """Exact dense evaluation of the column mask.

    Only the sampled columns of f(A_masked) are nonzero, and in the leading
    block they equal f(A11) stacked on A21 @ g(A11) with g(t) = f(t)/t, so
    f(A11) and g(A11) @ 1 from one factorization of the ell-by-ell core give
    diag and rowsum exactly (up to the dense kernel), defective cores included.
    The resolvent's admissibility gate is one more LU factorization of the
    core (``_check_katz_m_matrix``), so no eigenvalue is computed.
    """
    J, cols, _, a11 = _core_blocks(g, mask)
    ell = len(mask)
    with _stop_at_overflow("direct_core", f.gamma):
        f11, g1 = f.matrix_value_and_quotient_sum(a11)

        diag = np.zeros(g.n)
        diag[J] = np.diagonal(f11)
        rowsum = cols @ g1
        rowsum[J] = f11.sum(axis=1)

    if f.kind == RESOLVENT_MINUS_ONE and ell:
        _check_katz_m_matrix(f, a11)
    return MatfunResult(
        diag=diag,
        rowsum=rowsum,
        method="direct_core",
        spectral_radius_estimate=None,
        ell=ell,
        gamma=f.gamma,
        function=f.kind,
    )


def arrow_core_evaluation(g: SparseGraph, mask: SampleSet, f: ScalarFunction) -> MatfunResult:
    """Exact evaluation of the arrow mask of an undirected graph.

    The Gram matrix A21^T A21 = V S^2 V^T, restricted to its r nonzero
    eigenvalues, gives A21 = Q R with R = S V^T and orthonormal
    Q = A21 V S^{-1}.  Then A_arrow = U C U^T with U = [E_J, E_rest Q] and
    C = [[A11, R^T], [R, 0]], and since f(0) = 0, f(A_arrow) = U f(C) U^T.
    One symmetric eigendecomposition of C (order ell + r <= 2*ell) and
    sparse products with the sampled columns give every diagonal entry and
    row sum, those of J written last; Q is never formed.
    """
    if g.directed:
        raise ValueError("arrow_core_evaluation requires an undirected graph")
    J, cols, c11, a11 = _core_blocks(g, mask)
    ell = len(mask)

    # A21 is cols without its J rows; the 0/1 entries make these differences exact
    s2, V = np.linalg.eigh((cols.T @ cols - c11.T @ c11).toarray())
    keep = s2 > ZERO_EIG_TOL * max(1.0, np.max(s2, initial=0.0))
    s = np.sqrt(s2[keep])
    P = V[:, keep] / s  # Q = A21 @ P
    R = s[:, np.newaxis] * V[:, keep].T
    core = np.block([[a11, R.T], [R, np.zeros((s.size, s.size))]])
    mu, W = np.linalg.eigh(core)
    rho = float(np.max(np.abs(mu), initial=0.0))
    _check_katz_bound(f, rho)
    with _stop_at_overflow("arrow_core", f.gamma):
        fmu = f.value(mu)

        # U^T 1 = [1_J; Q^T 1_rest], and U maps the core back to node order
        colsum = np.asarray(cols.sum(axis=0) - c11.sum(axis=0)).ravel()
        z = np.concatenate([np.ones(ell), P.T @ colsum])
        fz = W @ (fmu * (W.T @ z))
        rowsum = cols @ (P @ fz[ell:])
        rowsum[J] = fz[:ell]

        # diag over rest is a_i^T K a_i with K = P F22 P^T, F22 = f(C)[ell:, ell:]
        PW2 = P @ W[ell:]
        K = (PW2 * fmu) @ PW2.T
        diag = _row_quadratic_forms(cols, K)
        diag[J] = (W[:ell] ** 2) @ fmu
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


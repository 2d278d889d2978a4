"""Diagonal and row sums of f(A_masked) from exact small-core computations.

Two scalar functions are supported, both with f(0) = 0:

    exp_minus_one:       f(t) = exp(gamma * t) - 1
    resolvent_minus_one: f(t) = 1 / (1 - gamma * t) - 1

Directed graphs use the column mask (``direct_core_evaluation``), undirected
graphs the "arrow" mask that keeps entries with a sampled row or column
(``arrow_core_evaluation``).  Each reduces f(A_masked) to one computation on
a core of order at most 2*ell plus sparse products, with no iteration; that
is the one route for each mask.  ``taylor_exp`` is the package's one
exponential of a sparse nonnegative matrix, run by the column core and the
subgraph reference.  A result with an inf or nan entry raises
``EvaluationError`` where it is computed: each core's kernel stops at its
first overflow or invalid value, with no RuntimeWarning.

Both routes take the resolvent exactly when gamma*rho(A_masked) < 1, the
rule ``oracle.katz_rowsum`` certifies for A, read off the factorization each
already computes: the column core's LU of I - gamma*A11 and the arrow core's
eigenvalues.  Both refuse a pole, I - gamma*A with a reciprocal condition
number below ``MIN_RCOND``.  Since 0 <= A_masked <= A gives
rho(A_masked) <= rho(A), a gamma with a certified reference is admissible
for every mask, short of gamma*rho within rounding of 1.

Neither the permutation that would move sampled columns first nor the
complement of J is materialized: both routes work on all n rows of A[:, J] in
node order, the trailing block included, and only the arrow route writes the
J entries last, so an evaluation costs O(nnz(A[:, J]) + n) plus the core.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .graph import SparseGraph
from .sampling import SampleSet

EXP_MINUS_ONE = "exp_minus_one"
RESOLVENT_MINUS_ONE = "resolvent_minus_one"

# largest dense order: a sampled core (its taylor_exp iterate has one more) and a subgraph graph
DENSE_CAP = 4000
# entries of the dense row block of A[:, J] @ K held at once in the arrow diagonal
_ROW_BLOCK_ENTRIES = 1 << 22

# numerical thresholds of the evaluation routes
ZERO_EIG_TOL = 1e-10    # relative level of vanishing Gram eigenvalues
MIN_RCOND = 1e-14       # least reciprocal condition number of I - gamma*A the resolvent takes

# theta_m for each Taylor degree m ``taylor_exp`` may run: the largest norm
# bound with a backward error below the unit roundoff in double precision
# (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011, Table 3.1; the values
# in scipy's private expm_multiply table)
TAYLOR_THETA = {
    20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64,
    27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2,
    50: 8.5, 55: 9.9,
}  # fmt: skip
# R: one dense n x n squaring costs R * n^3 in units of one multiply-add of a
# sparse-by-dense product (see ``taylor_plan``)
SQUARING_COST = 0.1
# entries of one Horner panel: 2^17 doubles (1 MB, 65 columns at n = 2000)
# stay in cache through every product
_PANEL_ENTRIES = 1 << 17


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

    def _resolvent(self, a: np.ndarray) -> np.ndarray:
        """(I - gamma*A)^-1 from one LU factorization, refused as a pole when
        LAPACK's 1-norm reciprocal condition estimate from those factors is
        below ``MIN_RCOND``."""
        m = a.shape[0]
        if not m:
            return np.zeros((0, 0))
        shifted = np.eye(m) - self.gamma * a
        anorm = np.linalg.norm(shifted, 1)
        lu, piv, _ = sla.lapack.dgetrf(shifted, overwrite_a=True)
        rcond, _ = sla.lapack.dgecon(lu, anorm, norm="1")
        if not rcond >= MIN_RCOND:
            raise EvaluationError("resolvent pole: I - gamma*A is singular to working precision")
        return sla.lu_solve((lu, piv), np.eye(m), check_finite=False)


def exp_minus_one(gamma: float = 1.0) -> ScalarFunction:
    return ScalarFunction(EXP_MINUS_ONE, gamma)


def resolvent_minus_one(gamma: float) -> ScalarFunction:
    return ScalarFunction(RESOLVENT_MINUS_ONE, gamma)


@dataclass(frozen=True)
class MatfunResult:
    """Per-node diagonal entries and row sums of f(A_masked).

    ``metadata()`` is what a report row says about the route: ``method``
    and ``spectral_radius_estimate``, None on the column mask, whose Katz
    rule (gamma*rho < 1) comes from its LU factors with no eigenvalue; the
    arrow mask gives the exact one from its eigenvalues.  Both routes are
    exact, so ``fallback_reason`` is always None.
    """

    diag: np.ndarray
    rowsum: np.ndarray
    method: str
    spectral_radius_estimate: float | None
    fallback_reason: str | None = None

    def metadata(self) -> dict:
        return {"method": self.method, "spectral_radius_estimate": self.spectral_radius_estimate}


def taylor_plan(b: sp.csr_matrix) -> tuple[int, int, float]:
    """Taylor degree m, squarings s and norm bound alpha_m of ``taylor_exp``
    for a sparse B >= 0 of order n.

    |B^p|_1 = max(1^T B^p) exactly, so p products with B^T give
    d_p = |B^p|_1^(1/p) with no estimate.  For each degree m of
    ``TAYLOR_THETA``, alpha_m = min over 2 <= p, p(p - 1) <= m + 1, of
    max(d_p, d_{p+1}) bounds the Taylor remainder, and s_m is the fewest
    halvings with alpha_m / 2^s <= theta_m (Al-Mohy and Higham, SIAM J. Sci.
    Comput. 33(2), 2011, Sec. 3).  The plan is the (m, s_m) of least cost
    (m - 1)*nnz*n + R*max(s_m - 1, 0)*n^3, the m - 1 sparse Horner products
    on all n columns plus the full dense squarings, with
    R = ``SQUARING_COST``; ties go to the smaller m.  R was measured on a
    2-core Intel Xeon with one OpenBLAS thread: one GEMM of order 2000 took
    0.278 s, as long as 19 of this kernel's sparse products of 2000 columns
    at nnz = 19,935 on two panel workers (0.0148 s each), so
    R = 19*nnz/n^2 = 0.09.  The plan depends on B alone, never on a timing
    or the number of workers, so reports stay reproducible.
    """
    n = b.shape[0]
    bt = b.T
    m_max = max(TAYLOR_THETA)
    p_max = max(p for p in range(2, m_max) if p * (p - 1) <= m_max + 1)
    v = np.ones(n)
    d = [0.0]  # d[p] = |B^p|_1^(1/p); d[0] is unused
    for p in range(1, p_max + 2):
        v = bt @ v
        d.append(float(np.max(v, initial=0.0)) ** (1.0 / p))
    plans = []
    for m, theta in TAYLOR_THETA.items():
        alpha = min(max(d[p], d[p + 1]) for p in range(2, m) if p * (p - 1) <= m + 1)
        if alpha == np.inf:
            raise EvaluationError("the norm bound of gamma*A overflows")
        s = max(0, math.ceil(math.log2(alpha / theta))) if alpha > 0 else 0
        cost = (m - 1) * b.nnz * n + SQUARING_COST * max(s - 1, 0) * n**3
        plans.append((cost, m, s, alpha))
    _, degree, squarings, alpha = min(plans)
    return degree, squarings, alpha


def taylor_exp(b: sp.csr_matrix, vectors: np.ndarray):
    """(m, s, alpha), diag(E - I) and (E - I) @ vectors for E = exp(B) of a
    sparse B >= 0, by Taylor scaling and squaring.

    With (m, s, alpha) from ``taylor_plan``, alpha / 2^s <= theta_m makes
    T_m(2^-s * B)^(2^s) the exponential of B plus a backward error below the
    unit roundoff relative to its norm (Al-Mohy and Higham, SIAM J. Sci.
    Comput. 33(2), 2011, Sec. 3); because B >= 0, no term cancels (Shao, Gao
    and Xue, Math. Comp. 83, 2014).  Y = T_m(C) - I, C = 2^-s * B, comes by
    Horner from Y = C/m as Y <- (C/k)(I + Y) for k = m - 1, ..., 1, one
    sparse-by-dense product per degree.  Each squaring maps Y to 2Y + Y^2,
    and the last is never formed: E - I = 2Y + Y^2 gives the diagonal
    2 Y_ii + sum_j Y_ij Y_ji and the action 2 Y V + Y (Y V).  Every step
    sums products of nonnegative numbers, and working with Y rather than
    T_m(C) also spares the final subtraction of the identity.  Callers
    check the order against ``DENSE_CAP`` and run the kernel under
    ``_stop_at_overflow``.

    The columns of Y do not depend on each other, so the Horner recurrence
    runs in panels of at most ``_PANEL_ENTRIES`` entries that stay in cache
    through all its products, one worker thread per CPU the process may run
    on (the calling thread alone for one panel or one CPU).  The sparse
    product sums each entry in the same order whatever the panel, so the
    result does not depend on the panels or the workers.
    """
    n = b.shape[0]
    degree, squarings, norm_bound = taylor_plan(b)
    c = math.ldexp(1.0, -squarings) * b
    y = sp.csr_matrix((c.data / degree, c.indices, c.indptr), shape=c.shape).toarray()

    def horner(cols: slice) -> None:
        # Y[:, cols] <- T_m(C) - I on a panel holding C/m; column j of I is the
        # unit vector at row cols.start + j.  Worker threads run this, so it calls
        # only numpy and scipy: wrapped public functions see the calling thread alone.
        step = sp.csr_matrix((c.data.copy(), c.indices, c.indptr), shape=c.shape)
        panel = y[:, cols].copy()
        unit = (np.arange(n)[cols], np.arange(panel.shape[1]))
        for k in range(degree - 1, 0, -1):
            panel[unit] += 1.0
            np.divide(c.data, k, out=step.data)
            panel = step @ panel
        y[:, cols] = panel

    width = max(1, _PANEL_ENTRIES // n)
    panels = [slice(start, start + width) for start in range(0, n, width)]
    workers = min(_available_cpus(), len(panels))
    if workers <= 1:
        list(map(horner, panels))
    else:
        # imported here: the thread pool module adds 10 ms to importing the package
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            # list() waits for every panel and re-raises a worker's exception here
            list(pool.map(horner, panels))
    for _ in range(squarings - 1):
        square = y @ y
        square += y
        square += y
        y = square
    if squarings == 0:
        return (degree, squarings, norm_bound), np.diagonal(y).copy(), y @ vectors
    action = y @ vectors
    diag = np.einsum("ij,ji->i", y, y) + 2.0 * np.diagonal(y)
    return (degree, squarings, norm_bound), diag, y @ action + 2.0 * action


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    exact and deterministic, so ``seed`` is read by nothing; it is kept only
    because ``bench/workloads.py`` still passes it.
    """
    core = direct_core_evaluation if g.directed else arrow_core_evaluation
    result = core(g, mask, f)
    for values in (result.diag, result.rowsum):
        _require_finite(values, result.method, f.gamma)
    return result


def _require_finite(values: np.ndarray, route: str, gamma: float) -> None:
    """Raise ``EvaluationError`` naming the route and gamma if any entry is inf or nan."""
    if not np.all(np.isfinite(values)):
        raise _non_finite(route, gamma)


def _non_finite(route: str, gamma: float) -> EvaluationError:
    return EvaluationError(f"{route} returned inf or nan scores at gamma={gamma:g}")


@contextlib.contextmanager
def _stop_at_overflow(route: str, gamma: float):
    """Run a kernel so its first overflow or invalid value raises
    ``EvaluationError`` instead of a RuntimeWarning and inf or nan scores."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise _non_finite(route, gamma) from exc


def _core_blocks(g: SparseGraph, mask: SampleSet):
    """J, A[:, J] as CSR in node order (its rows outside J are the trailing
    block A[rest, J]), and the core A[J, J] as CSR."""
    if mask.kind != "column":
        raise ValueError("masked evaluation expects a column mask")
    if mask.n != g.n:
        raise ValueError("sample dimension does not match the graph")
    if len(mask) > DENSE_CAP:
        raise EvaluationError(f"core size {len(mask)} exceeds the dense cap {DENSE_CAP}")
    cols = g.csc[:, mask.indices].tocsr()
    return mask.indices, cols, cols[mask.indices]


def _augmented(a: sp.csr_matrix, gamma: float, c: float) -> sp.csr_matrix:
    """[[gamma*A, c*1], [0, 0]] as CSR, for a square CSR matrix A."""
    m = a.shape[0]
    # each row of gamma*A ends with the entry c in column m; row m is empty
    ends = a.indptr[1:]
    data, indices = np.insert(gamma * a.data, ends, c), np.insert(a.indices, ends, m)
    indptr = np.append(a.indptr + np.arange(m + 1), a.nnz + m)
    return sp.csr_matrix((data, indices, indptr), shape=(m + 1, m + 1))


def core_diag_and_sums(f: ScalarFunction, a11: sp.csr_matrix):
    """diag f(A11) and g(A11) @ 1, g(t) = f(t)/t, of a sparse core A11 >= 0.

    Both are sums of nonnegative products, with no identity subtracted.  For
    exp they come from one ``taylor_exp`` of B = [[gamma*A11, c*1], [0, 0]],
    whose exponential is [[exp(gamma*A11), c*phi1(gamma*A11) @ 1], [0, 1]]
    (Higham, Functions of Matrices, SIAM 2008), exact for singular A11: its
    diagonal and its action on the last unit vector, c = 1/m keeping the
    added column's 1-norm at 1.  For the resolvent, X = (I - gamma*A11)^-1
    from one LU gives g(A11) @ 1 = gamma * X @ 1 and, as f(A11) =
    gamma*A11 @ X, diag f(A11)_i = gamma * sum_j A11[i, j] X[j, i].  X also
    decides admissibility with no eigenvalue: for A11 >= 0, I - gamma*A11
    is a nonsingular M-matrix, that is gamma*rho(A11) < 1, exactly when
    some y > 0 has y - gamma*A11 y > 0 (Berman and Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, SIAM 1994, Ch. 6), and then
    y = X 1 is one.  These are the two inequalities, x > 0 and 1 + r > 0,
    that certify ``oracle.katz_rowsum``.
    """
    m = a11.shape[0]
    if f.kind == RESOLVENT_MINUS_ONE:
        x = f._resolvent(a11.toarray())
        y = x.sum(axis=1)
        if not (np.all(y > 0) and np.all(y - f.gamma * (a11 @ y) > 0)):
            raise EvaluationError(
                "resolvent parameter inadmissible: I - gamma*A11 is not a nonsingular "
                f"M-matrix, so gamma*rho(A11) >= 1 at gamma={f.gamma:g}"
            )
        rows = np.repeat(np.arange(m), np.diff(a11.indptr))
        products = a11.data * x[a11.indices, rows]
        return f.gamma * np.bincount(rows, weights=products, minlength=m), f.gamma * y
    c = 1.0 / max(m, 1)
    b = _augmented(a11, f.gamma, c)
    _, diag, action = taylor_exp(b, np.eye(m + 1, 1, -m))  # on the last unit vector
    return diag[:m], (f.gamma / c) * action[:m, 0]


def direct_core_evaluation(g: SparseGraph, mask: SampleSet, f: ScalarFunction) -> MatfunResult:
    """Exact evaluation of the column mask.

    Only the sampled columns of f(A_masked) are nonzero, and they equal
    A[:, J] @ g(A11), g(t) = f(t)/t, as A[J, J] = A11 and f(A11) =
    A11 @ g(A11).  So diag f(A11) and g(A11) @ 1 from the ell-by-ell core
    (``core_diag_and_sums``) give diag and rowsum = A[:, J] @ g(A11) @ 1
    exactly (up to the kernel), defective cores included.
    """
    J, cols, c11 = _core_blocks(g, mask)
    with _stop_at_overflow("direct_core", f.gamma):
        d11, g1 = core_diag_and_sums(f, c11)
        diag = np.zeros(g.n)
        diag[J] = d11
        rowsum = cols @ g1
    return MatfunResult(diag, rowsum, method="direct_core", spectral_radius_estimate=None)


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
    J, cols, c11 = _core_blocks(g, mask)
    ell = len(mask)

    # A21 is cols without its J rows; the 0/1 entries make these differences exact
    s2, V = np.linalg.eigh((cols.T @ cols - c11.T @ c11).toarray())
    keep = s2 > ZERO_EIG_TOL * max(1.0, np.max(s2, initial=0.0))
    s = np.sqrt(s2[keep])
    P = V[:, keep] / s  # Q = A21 @ P
    R = s[:, np.newaxis] * V[:, keep].T
    core = np.block([[c11.toarray(), R.T], [R, np.zeros((s.size, s.size))]])
    mu, W = np.linalg.eigh(core)
    rho = float(np.max(np.abs(mu), initial=0.0))
    if f.kind == RESOLVENT_MINUS_ONE and mu.size:
        # the eigenvalues of I - gamma*C, descending; their extreme ratio is its 2-norm rcond
        shift = 1.0 - f.gamma * mu
        if not shift[-1] > 0:
            raise EvaluationError(
                f"resolvent parameter inadmissible: 1 - gamma*rho = {shift[-1]:.3g} <= 0 "
                f"at gamma={f.gamma:g}"
            )
        if shift[-1] < MIN_RCOND * shift[0]:
            raise EvaluationError("resolvent pole: I - gamma*A is singular to working precision")
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
    )


def _row_quadratic_forms(a: sp.csr_matrix, K: np.ndarray) -> np.ndarray:
    """a_i^T K a_i for every row a_i of a: 0 on the empty rows, the others in
    row blocks of bounded size."""
    out = np.zeros(a.shape[0])
    rows = np.flatnonzero(np.diff(a.indptr))
    step = max(1, _ROW_BLOCK_ENTRIES // max(1, K.shape[0]))
    for start in range(0, rows.size, step):
        block = a[rows[start : start + step]]
        out[rows[start : start + step]] = np.asarray(block.multiply(block @ K).sum(axis=1)).ravel()
    return out

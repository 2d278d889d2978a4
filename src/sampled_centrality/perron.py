"""Left Perron vector approximation by power iteration on implicit products.

The product M = A_cols(J) @ A_rows(I) approximates A^2 and is never formed:
each transposed application costs two restricted sparse matrix-vector
products.  The optional rank-one perturbation epsilon * ones * ones^T keeps
the iteration away from non-unique dominant eigenvectors and is likewise
applied implicitly.

``power_iteration`` is the one iteration behind every Perron route.  It
iterates P + I from the uniform vector: the shift by the identity makes an
irreducible nonnegative P primitive without changing its Perron vector
(Perron-Frobenius), so imprimitive spectra, whose dominant eigenvalues are
lambda times the h-th roots of unity, converge like any other.  It stops on
the relative eigen-residual |P v - lambda v| / lambda that every result
carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import SparseGraph
from .sampling import SampleSet


MAX_ITER = 100_000


class RankDeficientProductError(RuntimeError):
    """The implicit product maps the uniform start to zero in some power."""


@dataclass(frozen=True)
class PerronConfig:
    """Perturbation and stopping tolerance of the power iteration.

    ``tol`` is the relative eigen-residual |P v - lambda v| / lambda at which
    the iteration stops.  ``seed`` is read by nothing: the iteration always
    starts from the uniform vector.  It is kept only because
    ``bench/workloads.py`` still passes it.
    """

    epsilon: float = 0.0
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if not (self.epsilon >= 0 and np.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite and nonnegative")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class PerronResult:
    """Unit-norm nonnegative score vector with convergence diagnostics.

    ``residual`` is |P v - lambda v| / lambda for the returned vector v and
    lambda = v^T P v (infinite when lambda is not positive).
    """

    vector: np.ndarray
    eigenvalue_estimate: float
    iterations: int
    converged: bool
    residual: float
    note: str | None = None

    def metadata(self) -> dict:
        return {
            "method": "power_iteration",
            "eigenvalue_estimate": float(self.eigenvalue_estimate),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "residual": float(self.residual) if np.isfinite(self.residual) else None,
            "note": self.note,
        }


def product_transpose_apply(
    g: SparseGraph, J: SampleSet, I: SampleSet, epsilon: float = 0.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Returns v -> (M + E)^T v for M = A_cols(J) @ A_rows(I), never forming M.

    M sums A[:, k] A[k, :] over k in K = J & I, so M = A[:, K] @ A[K, :] has
    rank at most |K| and M^T v = A[K, :]^T (A[:, K]^T v).
    """
    K = np.intersect1d(J.indices, I.indices)
    # transposed once here: a scipy .T view costs more than the product itself
    cols_t = g.csc[:, K].T
    rows_t = g.csr[K, :].T

    def apply(v: np.ndarray) -> np.ndarray:
        w = rows_t @ (cols_t @ v)
        if epsilon > 0:
            w = w + epsilon * float(v.sum())
        return w

    return apply


def power_iteration(
    apply: Callable[[np.ndarray], np.ndarray], n: int, cfg: PerronConfig
) -> PerronResult:
    """Normalized power iteration on P + I from the uniform start.

    Each step forms w = P v and lambda = v^T w, and stops once
    |w - lambda v| <= ``cfg.tol`` * lambda; otherwise v <- (w + v) / |w + v|.
    Every P iterated here is entrywise nonnegative.  For an irreducible P the
    shifted operator is primitive with the same Perron vector, so the
    iteration converges whatever the period of P's spectrum.

    Shifted iterates never vanish, so rank deficiency is read off the
    supports s_k = supp(P^k 1), which only shrink: an empty s_k means P^k
    maps the uniform start to zero and raises ``RankDeficientProductError``
    at iterate k.  The test ends once a support repeats, which with
    epsilon > 0 is after the first step.
    """
    v = np.full(n, 1.0 / np.sqrt(n))
    # s_k for the current k, None once it has repeated
    support = np.ones(n, dtype=bool)
    for iterations in range(1, MAX_ITER + 1):
        w = apply(v)
        if support is not None:
            # the uniform v has the support of 1, so its image gives s_1 free
            image = w if iterations == 1 else apply(support.astype(np.float64))
            nonzero = image > 0
            if not nonzero.any():
                raise RankDeficientProductError(
                    f"rank-deficient product: iterate {iterations} collapsed to zero; "
                    "epsilon > 0 prevents it in a sampled product; A itself collapses iff acyclic"
                )
            support = None if np.array_equal(nonzero, support) else nonzero
        eigenvalue = float(v @ w)
        gap = float(np.linalg.norm(w - eigenvalue * v))
        converged = gap <= cfg.tol * eigenvalue
        if converged or iterations == MAX_ITER:
            break
        v = v + w
        v /= np.linalg.norm(v)

    note = None
    if not converged:
        note = f"no convergence within {MAX_ITER} iterations"
    elif iterations == 1 and cfg.epsilon == 0.0:
        note = (
            "start vector is an exact fixed point; the dominant "
            "eigenvalue may be non-simple and the result start-dependent"
        )
    return PerronResult(
        vector=v,
        eigenvalue_estimate=eigenvalue,
        iterations=iterations,
        converged=converged,
        residual=gap / eigenvalue if eigenvalue > 0 else np.inf,
        note=note,
    )


def left_perron(
    g: SparseGraph, J: SampleSet, I: SampleSet, cfg: PerronConfig = PerronConfig()
) -> PerronResult:
    """Left Perron vector of A_cols(J) @ A_rows(I) by implicit power iteration."""
    if J.kind != "column":
        raise ValueError("J must be a column sample")
    if I.kind != "row":
        raise ValueError("I must be a row sample")
    if J.n != g.n or I.n != g.n:
        raise ValueError("sample dimension does not match the graph")
    return power_iteration(product_transpose_apply(g, J, I, cfg.epsilon), g.n, cfg)


def symmetric_perron(
    g: SparseGraph, J: SampleSet, cfg: PerronConfig = PerronConfig()
) -> PerronResult:
    """Perron vector of the symmetric product A_cols(J) @ A_cols(J)^T."""
    if g.directed:
        raise ValueError("symmetric_perron requires an undirected graph")
    if J.kind != "column":
        raise ValueError("J must be a column sample")
    if J.n != g.n:
        raise ValueError("sample dimension does not match the graph")
    # A is symmetric, so A_cols(J)^T = A_rows(J) and the product is its own transpose
    return power_iteration(product_transpose_apply(g, J, J, cfg.epsilon), g.n, cfg)

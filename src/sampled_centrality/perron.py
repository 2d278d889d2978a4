"""Left Perron vector approximation by power iteration on implicit products.

The product M = A_cols(J) @ A_rows(I) approximates A^2 and is never formed:
each transposed application costs two restricted sparse matrix-vector
products.  The optional rank-one perturbation epsilon * ones * ones^T keeps
the iteration away from non-unique dominant eigenvectors and is likewise
applied implicitly.
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

    ``seed`` is read by nothing: the iteration always starts from the uniform
    vector.  It is kept only because ``bench/workloads.py`` still passes it.
    """

    epsilon: float = 0.0
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class PerronResult:
    """Unit-norm nonnegative score vector with convergence diagnostics."""

    vector: np.ndarray
    eigenvalue_estimate: float
    iterations: int
    converged: bool
    note: str | None = None

    def metadata(self) -> dict:
        return {
            "eigenvalue_estimate": float(self.eigenvalue_estimate),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "note": self.note,
        }


def product_transpose_apply(
    g: SparseGraph, J: SampleSet, I: SampleSet, epsilon: float = 0.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Returns v -> (M + E)^T v for M = A_cols(J) @ A_rows(I), never forming M."""
    Js = np.unique(np.asarray(J.indices, dtype=np.int64))
    Is = np.unique(np.asarray(I.indices, dtype=np.int64))
    cols = g.csc[:, Js]
    rows = g.csr[Is, :]
    n = g.n

    def apply(v: np.ndarray) -> np.ndarray:
        t = np.zeros(n)
        t[Js] = cols.T @ v
        w = rows.T @ t[Is]
        if epsilon > 0:
            w = w + epsilon * float(v.sum())
        return w

    return apply


def symmetric_product_apply(
    g: SparseGraph, J: SampleSet, epsilon: float = 0.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Returns v -> (M + E) v for the symmetric M = A_cols(J) @ A_cols(J)^T."""
    Js = np.unique(np.asarray(J.indices, dtype=np.int64))
    cols = g.csc[:, Js]

    def apply(v: np.ndarray) -> np.ndarray:
        w = cols @ (cols.T @ v)
        if epsilon > 0:
            w = w + epsilon * float(v.sum())
        return w

    return apply


def power_iteration(
    apply: Callable[[np.ndarray], np.ndarray], n: int, cfg: PerronConfig
) -> PerronResult:
    """Normalized power iteration from the uniform start.

    Every operator iterated here is entrywise nonnegative, so the iterates
    stay nonnegative and a zero iterate would recur from any positive start:
    it raises ``RankDeficientProductError``.  Convergence is a 2-norm
    difference of successive iterates below ``cfg.tol``.  A period-2 cycle
    (each iterate within ``cfg.tol`` of the one two steps back, while
    successive iterates stay more than sqrt(``cfg.tol``) apart) returns the
    +lambda eigenvector on the span of the last two iterates with
    ``converged=False``.
    """
    v = np.full(n, 1.0 / np.sqrt(n))
    prev, prev_norm = None, 0.0
    note = None
    converged = False
    iterations = 0

    while iterations < MAX_ITER:
        iterations += 1
        w = apply(v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise RankDeficientProductError(
                f"rank-deficient product: iterate {iterations} collapsed to zero"
            )
        v_new = w / norm
        step = float(np.linalg.norm(v_new - v))
        if step <= cfg.tol:
            converged = True
            if iterations == 1 and cfg.epsilon == 0.0:
                note = (
                    "start vector is an exact fixed point; the dominant "
                    "eigenvalue may be non-simple and the result start-dependent"
                )
            v = v_new
            break
        # a decaying negative subdominant eigenvalue also brings v_new close
        # to prev; only a one-step difference far above tol is a cycle
        if (
            prev is not None
            and step > np.sqrt(cfg.tol)
            and float(np.linalg.norm(v_new - prev)) <= cfg.tol
        ):
            # P maps prev to prev_norm * v and v to norm * v_new = norm * prev,
            # so the eigenvalue is sqrt(prev_norm * norm) with this eigenvector
            pair = np.sqrt(prev_norm) * v + np.sqrt(norm) * v_new
            v = pair / np.linalg.norm(pair)
            note = "period-2 oscillation detected; returning the +lambda eigenvector of the cycle"
            break
        prev, prev_norm = v, norm
        v = v_new
    else:
        note = f"no convergence within {MAX_ITER} iterations"

    extra = apply(v)
    eigenvalue = float(v @ extra)
    return PerronResult(
        vector=v,
        eigenvalue_estimate=eigenvalue,
        iterations=iterations,
        converged=converged,
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
    return power_iteration(symmetric_product_apply(g, J, cfg.epsilon), g.n, cfg)

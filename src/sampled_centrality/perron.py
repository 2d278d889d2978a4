"""Left Perron vector approximation by power iteration on implicit products.

The product M = A_cols(J) @ A_rows(I) approximates A^2 and is never formed:
each transposed application costs two restricted sparse matrix-vector
products.  The optional rank-one perturbation epsilon * ones * ones^T keeps
the iteration away from non-unique dominant eigenvectors and is likewise
applied implicitly.

``power_iteration`` is the one iteration behind every Perron route.  It
starts from the uniform vector and stops on convergence or on a cycle of
period h <= ``MAX_PERIOD``, the case of an imprimitive operator whose
dominant eigenvalues are lambda times the h-th roots of unity; there it
returns the exact +lambda eigenvector of the span of the cycling iterates.
Every result carries its relative eigen-residual |P v - lambda v| / lambda,
which exposes a vector that is no eigenvector (a longer cycle, or an
iteration that ran out of steps) whatever the stopping rule said.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import SparseGraph
from .sampling import SampleSet


MAX_ITER = 100_000
# longest cycle of iterates recognised as a periodic (imprimitive) spectrum
MAX_PERIOD = 8


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
            "eigenvalue_estimate": float(self.eigenvalue_estimate),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "residual": float(self.residual) if np.isfinite(self.residual) else None,
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
    difference of successive iterates below ``cfg.tol``.  A period-h cycle,
    2 <= h <= ``MAX_PERIOD`` (an iterate within ``cfg.tol`` of the one h
    steps back, while successive iterates stay more than sqrt(``cfg.tol``)
    apart), returns the +lambda eigenvector on the span of the last h
    iterates with ``converged=False``.
    """
    v = np.full(n, 1.0 / np.sqrt(n))
    # the last MAX_PERIOD iterates v_j, newest last, each with the norm c_j
    # of P v_{j-1} that produced it (none for the start) and its entry sum
    history: deque = deque([(v, None, float(v.sum()))], maxlen=MAX_PERIOD)
    sum_gap = np.sqrt(n) * cfg.tol
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
        # a decaying subdominant eigenvalue also brings v_new close to an
        # earlier iterate; only a one-step difference far above tol is a cycle.
        # |sum(a - b)| <= sqrt(n) |a - b| screens the candidates cheaply.
        total = float(v_new.sum())
        period = None
        if step > np.sqrt(cfg.tol):
            period = next(
                (
                    h
                    for h in range(2, len(history) + 1)
                    if abs(total - history[-h][2]) <= sum_gap
                    and float(np.linalg.norm(v_new - history[-h][0])) <= cfg.tol
                ),
                None,
            )
        history.append((v_new, norm, total))
        if period:
            v = _cycle_eigenvector(list(history)[-period:])
            note = (
                f"period-{period} oscillation detected; "
                "returning the +lambda eigenvector of the cycle"
            )
            break
        v = v_new
    else:
        note = f"no convergence within {MAX_ITER} iterations"

    image = apply(v)
    eigenvalue = float(v @ image)
    gap = float(np.linalg.norm(image - eigenvalue * v))
    return PerronResult(
        vector=v,
        eigenvalue_estimate=eigenvalue,
        iterations=iterations,
        converged=converged,
        residual=gap / eigenvalue if eigenvalue > 0 else np.inf,
        note=note,
    )


def _cycle_eigenvector(cycle: list[tuple[np.ndarray, float, float]]) -> np.ndarray:
    """+lambda eigenvector of P on the span of a cycle of iterates.

    ``cycle`` holds v_1 .. v_h with P v_j = c_{j+1} v_{j+1} and P v_h = c_1 v_1,
    so lambda = (c_1 ... c_h)^(1/h) and x = sum_j w_j v_j with w_1 = 1 and
    w_{j+1} = w_j c_{j+1} / lambda satisfies P x = lambda x.
    """
    norms = np.array([c for _, c, _ in cycle])
    lam = float(np.prod(norms)) ** (1.0 / len(cycle))
    weights = np.cumprod(np.concatenate([[1.0], norms[1:] / lam]))
    x = sum(wj * vj for wj, (vj, _, _) in zip(weights, cycle))
    return x / np.linalg.norm(x)


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

"""Left Perron vector approximation by power iteration on implicit products.

The product M = A_cols(J) @ A_rows(I) approximates A^2 and is never formed:
each transposed application costs two restricted sparse matrix-vector
products.  The optional rank-one perturbation epsilon * ones * ones^T keeps
the iteration away from non-unique dominant eigenvectors and is likewise
applied implicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .graph import SparseGraph
from .sampling import SampleSet


class RankDeficientProductError(RuntimeError):
    """The implicit product annihilates every start vector tried."""


@dataclass(frozen=True)
class PerronConfig:
    epsilon: float = 0.0
    tol: float = 1e-10
    max_iter: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


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

    def to_json(self, labels: np.ndarray | None = None) -> str:
        ids = np.arange(self.vector.size) if labels is None else labels
        return json.dumps(
            {
                "metadata": self.metadata(),
                "scores": [
                    {"node": int(ids[i]), "score": float(self.vector[i])}
                    for i in range(self.vector.size)
                ],
            },
            sort_keys=True,
        )

    def write_csv(self, stream: TextIO, labels: np.ndarray | None = None) -> None:
        ids = np.arange(self.vector.size) if labels is None else labels
        stream.write("node,score\n")
        for i in range(self.vector.size):
            stream.write(f"{int(ids[i])},{self.vector[i]!r}\n")


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
    apply: Callable[[np.ndarray], np.ndarray],
    n: int,
    cfg: PerronConfig,
    detect_oscillation: bool = False,
    start: np.ndarray | None = None,
) -> PerronResult:
    """Normalized power iteration with restart-on-collapse.

    Convergence is a 2-norm difference of successive sign-normalized
    iterates below ``cfg.tol``.  With ``detect_oscillation`` a period-2
    cycle (bipartite-type spectrum: each iterate within ``cfg.tol`` of the
    one two steps back, while successive iterates stay more than
    sqrt(``cfg.tol``) apart) returns the normalized average of the last two
    iterates with ``converged=False``.
    """
    rng = np.random.default_rng(cfg.seed)
    v = np.full(n, 1.0 / np.sqrt(n)) if start is None else start / np.linalg.norm(start)
    prev = None
    restarts = 0
    note = None
    converged = False
    iterations = 0

    while iterations < cfg.max_iter:
        iterations += 1
        w = apply(v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            if restarts >= 3:
                raise RankDeficientProductError(
                    "rank-deficient product: iterate collapsed to zero repeatedly"
                )
            restarts += 1
            v = rng.random(n) + 1e-12
            v /= np.linalg.norm(v)
            prev = None
            continue
        v_new = w / norm
        if v_new[int(np.argmax(np.abs(v_new)))] < 0:
            v_new = -v_new
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
            detect_oscillation
            and prev is not None
            and step > np.sqrt(cfg.tol)
            and float(np.linalg.norm(v_new - prev)) <= cfg.tol
        ):
            avg = v + v_new
            v = avg / np.linalg.norm(avg)
            note = "period-2 oscillation detected; returning the averaged iterate"
            break
        prev = v
        v = v_new

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

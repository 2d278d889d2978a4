"""Connectivity-guided and uniform samplers for adjacency columns and rows.

Randomness comes from ``numpy.random.default_rng`` (PCG64), seeded per run,
so a (graph, ell, seed, strategy) tuple always reproduces the same sample.
Column and row samplers never share generator state; callers that need both
should use distinct seeds (the CLI uses ``seed`` and ``seed + 1``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph, transpose

GUIDED = "guided"
RANDOM = "random"


@dataclass(frozen=True)
class SampleSet:
    """Ordered distinct indices of sampled columns (or rows).

    ``fallback_draws`` counts selections made by the uniform fallback that
    fires when every remaining eligible column has zero accumulated weight.
    """

    indices: np.ndarray
    kind: str
    strategy: str
    seed: int
    n: int
    fallback_draws: int = 0

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        idx.flags.writeable = False
        if self.kind not in ("column", "row"):
            raise ValueError(f"kind must be 'column' or 'row', got {self.kind!r}")
        if idx.size != np.unique(idx).size:
            raise ValueError("sample indices must be distinct")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("sample index out of range")

    def __len__(self) -> int:
        return int(self.indices.size)


def draw_categorical(weights: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn with probability weights[i] / sum(weights).

    Inverse-CDF over the running prefix sum; O(n) per draw and reproducible
    for a given generator state.  Zero-weight indices are never returned.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    cum = np.cumsum(w)
    total = cum[-1] if cum.size else 0.0
    if total <= 0:
        raise ValueError("weights sum to zero")
    u = rng.random() * total
    return int(np.searchsorted(cum, u, side="right"))


def sample_columns(
    g: SparseGraph, ell: int, seed: int, strategy: str = GUIDED
) -> SampleSet:
    """Select ``ell`` distinct nonzero columns of the adjacency matrix.

    Guided strategy: the first column is uniform over nonzero columns; each
    later draw is categorical with probability proportional to the number of
    edges from a candidate node into the already-sampled set.  Draws hitting
    chosen or zero columns are discarded and redrawn.  If all remaining
    eligible columns carry zero weight the draw falls back to uniform over
    them (counted in ``fallback_draws``).
    """
    nz = g.nonzero_columns()
    if not 1 <= ell <= nz.size:
        raise ValueError(f"ell={ell} outside [1, {nz.size}] (nonzero columns)")
    rng = np.random.default_rng(seed)

    if strategy == RANDOM:
        chosen = nz[rng.choice(nz.size, size=ell, replace=False)]
        return SampleSet(chosen, "column", strategy, seed, g.n)

    if strategy != GUIDED:
        raise ValueError(f"unknown strategy {strategy!r}")

    eligible = np.zeros(g.n, dtype=bool)
    eligible[nz] = True
    chosen: list[int] = []
    # accumulated sum of the selected columns; drives the guided draw
    weights = np.zeros(g.n)
    fallback = 0

    first = int(nz[rng.integers(nz.size)])
    chosen.append(first)
    eligible[first] = False
    weights[g.column(first)] += 1.0

    while len(chosen) < ell:
        if weights[eligible].sum() == 0.0:
            pool = np.flatnonzero(eligible)
            j = int(pool[rng.integers(pool.size)])
            fallback += 1
        else:
            while True:
                j = draw_categorical(weights, rng)
                if eligible[j]:
                    break
        chosen.append(j)
        eligible[j] = False
        weights[g.column(j)] += 1.0

    return SampleSet(
        np.asarray(chosen, dtype=np.int64), "column", strategy, seed, g.n, fallback
    )


def sample_rows(
    g: SparseGraph, ell: int, seed: int, strategy: str = GUIDED
) -> SampleSet:
    """Select rows of A by sampling columns of A^T."""
    cols = sample_columns(transpose(g), ell, seed, strategy)
    return dataclasses.replace(cols, kind="row")

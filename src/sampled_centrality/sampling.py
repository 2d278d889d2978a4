"""Connectivity-guided and uniform samplers for adjacency columns and rows.

Randomness comes from ``numpy.random.default_rng`` (PCG64), seeded per run,
so a (graph, ell, seed, strategy) tuple always reproduces the same sample.
A guided sample draws entries of its chosen columns from one flat buffer of
their rows, which sheds spent entries so that a pick's tries stay bounded.
It reads ``default_rng(seed)`` for its draws and ``default_rng([seed, 1])``
for its first pick and fallbacks; a random one reads ``default_rng(seed)``
alone.  Column and row samplers never share generator state; callers that
need both should use distinct seeds (the CLI uses ``seed`` and ``seed + 1``).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
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


def _uniforms(rng: np.random.Generator, chunk: int) -> Iterator[float]:
    """The stream of ``rng.random()``, drawn ``chunk`` values at a time."""
    while True:
        yield from rng.random(chunk).tolist()


def sample_columns(
    g: SparseGraph, ell: int, seed: int, strategy: str = GUIDED
) -> SampleSet:
    """Select ``ell`` distinct nonzero columns of the adjacency matrix.

    Guided strategy: the first column is uniform over nonzero columns; each
    later draw picks a node with probability proportional to the number of
    edges from it into the already-sampled set.  Draws hitting chosen or
    zero columns are discarded and redrawn.  If all remaining eligible
    columns carry zero weight the draw falls back to uniform over them
    (counted in ``fallback_draws``).

    A draw is a uniform pick from the entries of the chosen columns, which
    is that law: a node's chance is its edges into the sample over their
    total.  The entries' rows sit in one flat buffer in the order chosen,
    and a draw reads entry floor(u * total).  Before a pick whose eligible
    entries are under half the buffer, the spent ones are dropped in order,
    so a pick takes at most 2 tries on average and all drops together cost
    O(nnz(A[:, J])).  A chosen column costs O(degree), after an O(n) set-up.
    The uniforms come from ``default_rng(seed)`` in chunks of ell; the first
    pick and each fallback take an ``integers`` call on a second stream,
    ``default_rng([seed, 1])``, into a swap-remove pool of the eligible ones.
    """
    nz = g.nonzero_columns()
    if not 1 <= ell <= nz.size:
        raise ValueError(f"ell={ell} outside [1, {nz.size}] (nonzero columns)")
    rng = np.random.default_rng(seed)

    if strategy == RANDOM:
        chosen = nz[rng.choice(nz.size, size=ell, replace=False)]
        return SampleSet(chosen, "column", strategy, g.n)

    if strategy != GUIDED:
        raise ValueError(f"unknown strategy {strategy!r}")

    uniform = _uniforms(rng, ell).__next__
    picks = np.random.default_rng([seed, 1])
    # the eligible columns (nonzero, not chosen) are pool[:size]; where[j] is
    # the position of j in the pool, -1 once j is not eligible
    pool = nz.astype(np.int64)
    size = pool.size
    where = np.full(g.n, -1, dtype=np.int64)
    where[pool] = np.arange(size)
    weights = np.zeros(g.n, dtype=np.int64)  # edges from each node into the sample
    eligible_weight = 0  # weights summed over eligible columns
    indptr, indices = g.csc.indptr, g.csc.indices
    # rows[:total]: the chosen columns' entry rows in the order chosen, less the
    # spent ones dropped; intp, as int32 takes numpy's slower fancy-indexing path
    rows, total = np.empty(indices.size, dtype=np.intp), 0
    chosen: list[int] = []
    fallback = 0

    j = int(pool[picks.integers(size)])
    while True:
        chosen.append(j)
        size -= 1
        last = pool[size]
        pool[where[j]] = last
        where[last] = where[j]
        where[j] = -1
        eligible_weight -= int(weights[j])
        start, stop = int(indptr[j]), int(indptr[j + 1])
        added = rows[total : total + stop - start]
        added[:] = indices[start:stop]
        weights[added] += 1
        eligible_weight += int(np.count_nonzero(where[added] >= 0))
        total += added.size
        if len(chosen) == ell:
            break
        if eligible_weight == 0:
            j = int(pool[picks.integers(size)])
            fallback += 1
            continue
        if 2 * eligible_weight < total:
            # a spent row never becomes eligible again, so the law holds
            rows[:eligible_weight] = rows[:total][where[rows[:total]] >= 0]
            total = eligible_weight
        while True:
            # u < 1 and total < 2**53, so the entry is below total
            j = int(rows[int(uniform() * total)])
            if where[j] >= 0:
                break

    return SampleSet(np.asarray(chosen, dtype=np.int64), "column", strategy, g.n, fallback)


def sample_rows(
    g: SparseGraph, ell: int, seed: int, strategy: str = GUIDED
) -> SampleSet:
    """Select rows of A by sampling columns of A^T."""
    nz = np.count_nonzero(g.row_degrees)
    if not 1 <= ell <= nz:
        raise ValueError(f"ell={ell} outside [1, {nz}] (nonzero rows)")
    cols = sample_columns(transpose(g), ell, seed, strategy)
    return dataclasses.replace(cols, kind="row")

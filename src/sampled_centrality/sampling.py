"""Connectivity-guided and uniform samplers for adjacency columns and rows.

Randomness comes from ``numpy.random.default_rng`` (PCG64), seeded per run,
so a (graph, ell, seed, strategy) tuple always reproduces the same sample.
Column and row samplers never share generator state; callers that need both
should use distinct seeds (the CLI uses ``seed`` and ``seed + 1``).
"""

from __future__ import annotations

import dataclasses
import math
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


class _BlockSums:
    """n integer counts, starting at 0, in blocks of isqrt(n) with their sums.

    ``find(u)`` equals ``searchsorted(cumsum(values), u, "right")`` in
    O(sqrt(n)): the block comes from the prefix sum of the block sums, the
    index from ``base + cumsum(block)``.  Every partial sum is an integer
    below 2**53, so exact in float64, and that comparison is the same test as
    the full prefix sum's.  (``u - base`` is never formed: it can round.)
    """

    def __init__(self, n: int):
        self.values = np.zeros(n)
        self.width = math.isqrt(n)
        self.block_sums = np.zeros(-(-n // self.width))
        self._prefix: np.ndarray | None = None

    def increment(self, idx: np.ndarray) -> None:
        """Add 1 at each of the distinct indices ``idx``."""
        self.values[idx] += 1.0
        self.block_sums += np.bincount(idx // self.width, minlength=self.block_sums.size)
        self._prefix = None

    def clear(self, j: int) -> None:
        self.block_sums[j // self.width] -= self.values[j]
        self.values[j] = 0.0
        self._prefix = None

    def prefix(self) -> np.ndarray:
        if self._prefix is None:
            self._prefix = self.block_sums.cumsum()
        return self._prefix

    def find(self, u: float) -> int:
        prefix = self.prefix()
        block = int(prefix.searchsorted(u, side="right"))
        lo = block * self.width
        within = self.values[lo : lo + self.width].cumsum()
        if block:
            within += prefix[block - 1]
        return lo + int(within.searchsorted(u, side="right"))


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

    A draw costs O(sqrt(n) + degree), not O(n): weights and eligible columns
    live in ``_BlockSums``, and the eligible weight is an exact integer.  The
    generator calls, and so the samples, are those of an O(n) loop that
    draws by inverse CDF over the running prefix sum of the weights:
    ``rng.integers`` for the first pick and for each fallback, one
    ``rng.random()`` per categorical draw.
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

    # 1 on the nonzero columns not yet chosen; the k-th of them is find(k)
    eligible = _BlockSums(g.n)
    eligible.increment(nz)
    # accumulated sum of the selected columns; drives the guided draw
    weights = _BlockSums(g.n)
    eligible_weight = 0  # weights summed over eligible columns, exactly
    chosen: list[int] = []
    fallback = 0

    j = int(nz[rng.integers(nz.size)])
    while True:
        chosen.append(j)
        eligible_weight -= int(weights.values[j])
        eligible.clear(j)
        # the store's int32 indices take numpy's slower fancy-indexing path
        rows = g.column(j).astype(np.intp)
        weights.increment(rows)
        eligible_weight += np.count_nonzero(eligible.values[rows])
        if len(chosen) == ell:
            break
        if eligible_weight == 0:
            # uniform over the nz.size - len(chosen) eligible columns
            j = eligible.find(rng.integers(nz.size - len(chosen)))
            fallback += 1
        else:
            total = weights.prefix()[-1]
            while True:
                j = weights.find(rng.random() * total)
                if eligible.values[j]:
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

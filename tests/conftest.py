"""Shared fixtures and comparison helpers."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from sampled_centrality import SampleSet, SparseGraph


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-12) -> float:
    """Worst componentwise relative error over entries above the floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mag = np.maximum(np.abs(a), np.abs(b))
    mask = mag > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a - b)[mask] / mag[mask]))


def full_column_sample(g: SparseGraph, strategy: str = "random") -> SampleSet:
    """All nonzero columns: the masked matrix then equals A itself."""
    return SampleSet(g.nonzero_columns(), "column", strategy, g.n)


def full_row_sample(g: SparseGraph, strategy: str = "random") -> SampleSet:
    return SampleSet(np.flatnonzero(g.row_degrees), "row", strategy, g.n)


def entries(g: SparseGraph) -> set[tuple[int, int]]:
    """The (i, j) pairs with a[i, j] = 1."""
    coo = g.csr.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


def edge_list_text(edges: np.ndarray) -> str:
    """Edge-list text with one ``src dst`` line per row of ``edges``."""
    return "".join(f"{i} {j}\n" for i, j in np.asarray(edges).tolist())


def refuse_dense_copies(monkeypatch, n: int) -> None:
    """Fail the test on any n x n ``toarray`` of a CSR or CSC matrix."""
    for cls in (sp.csr_matrix, sp.csc_matrix):

        def guarded(self, *args, _toarray=cls.toarray, **kwargs):
            if self.shape == (n, n):
                raise AssertionError("dense copy of the n x n adjacency matrix")
            return _toarray(self, *args, **kwargs)

        monkeypatch.setattr(cls, "toarray", guarded)


def undirected_edge() -> SparseGraph:
    """The 2-cycle: one undirected edge between nodes 0 and 1."""
    return SparseGraph.from_edges(2, np.array([[0, 1]]), directed=False)


def directed_edge() -> SparseGraph:
    return SparseGraph.from_edges(2, np.array([[0, 1]]), directed=True)


def triangle() -> SparseGraph:
    return SparseGraph.from_edges(3, np.array([[0, 1], [1, 2], [2, 0]]), directed=False)


def star(leaves: int = 3) -> SparseGraph:
    edges = np.column_stack([np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)])
    return SparseGraph.from_edges(leaves + 1, edges, directed=False)


def path3() -> SparseGraph:
    return SparseGraph.from_edges(3, np.array([[0, 1], [1, 2]]), directed=False)


def directed_path(n: int) -> SparseGraph:
    idx = np.arange(n - 1, dtype=np.int64)
    return SparseGraph.from_edges(n, np.column_stack([idx, idx + 1]), directed=True)


def directed_two_cycle() -> SparseGraph:
    return SparseGraph.from_edges(2, np.array([[0, 1], [1, 0]]), directed=True)


def dataset_dir() -> Path | None:
    """Directory with the published reference datasets, when supplied."""
    for candidate in (os.environ.get("SAMPLED_CENTRALITY_DATA"), "tests/data", "data"):
        if candidate and Path(candidate).is_dir():
            return Path(candidate)
    return None


requires_datasets = pytest.mark.skipif(
    dataset_dir() is None, reason="reference datasets not supplied"
)

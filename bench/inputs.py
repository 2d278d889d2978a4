"""Seeded synthetic graphs built by the benchmark itself.

The program's own generators (``cli.generate``) are not used for workload
inputs, so a change to their random streams changes no workload.  Every
graph is returned as a sorted, duplicate-free (m, 2) int64 array of
(src, dst) pairs: each directed edge once, each undirected edge once with
src < dst.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp


def directed_er(n: int, mean_degree: float, seed: int) -> np.ndarray:
    """Directed ER-like digraph: n*mean_degree uniform (src, dst) draws,
    self-loops dropped and duplicates collapsed."""
    rng = np.random.default_rng([seed, 1])
    m = int(round(n * mean_degree))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    return _unique_pairs(src[keep], dst[keep], n)


def preferential_attachment(n: int, m: int, seed: int) -> np.ndarray:
    """Undirected preferential attachment: each new node joins m distinct
    earlier nodes chosen with probability proportional to degree."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = np.random.default_rng([seed, 2])
    # endpoint list: every node appears once per incident edge end, so a
    # uniform pick from it is a degree-proportional pick
    ends = np.empty(2 * m * n, dtype=np.int64)
    ends[:m] = np.arange(m)
    size = m
    src = np.empty(m * (n - m), dtype=np.int64)
    dst = np.empty(m * (n - m), dtype=np.int64)
    u = rng.random(m * (n - m))
    k = 0
    for node in range(m, n):
        picked: set[int] = set()
        for _ in range(m):
            t = int(ends[int(u[k] * size)])
            while t in picked:
                t = int(ends[int(rng.random() * size)])
            picked.add(t)
            src[k] = t
            dst[k] = node
            k += 1
        ends[size : size + m] = src[k - m : k]
        ends[size + m : size + 2 * m] = node
        size += 2 * m
    return _unique_pairs(src, dst, n)


def _unique_pairs(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    keys = np.unique(src.astype(np.int64) * n + dst)
    return np.column_stack([keys // n, keys % n])


def write_edge_list(path: Path, edges: np.ndarray, chunk: int = 1 << 16) -> None:
    """One 'src dst' line per edge, in the order given; written in chunks so
    the text never sits in memory whole."""
    with path.open("w") as handle:
        for lo in range(0, len(edges), chunk):
            part = edges[lo : lo + chunk]
            handle.write(("%d %d\n" * len(part)) % tuple(part.ravel().tolist()))


def adjacency(n: int, edges: np.ndarray, directed: bool) -> sp.csr_matrix:
    """0/1 CSR adjacency with a[i, j] = 1 for an edge i -> j."""
    src, dst = edges[:, 0], edges[:, 1]
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    a = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    a.sum_duplicates()
    a.data[:] = 1.0
    return a

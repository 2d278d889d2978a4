"""Sparse adjacency matrices with column, row, and masked matrix-vector access.

The convention throughout: ``a[i, j] = 1`` iff there is an edge from node ``i``
to node ``j``, so column ``j`` holds the in-neighbours of ``j`` and row ``i``
holds the out-neighbours of ``i``.  Graphs are simple and unweighted; all
stored entries equal 1.  Instances are immutable after construction and safe
to share between concurrent computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, TextIO

import numpy as np
import scipy.sparse as sp


class GraphParseError(ValueError):
    """Malformed graph input.  Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class SparseGraph:
    """Immutable 0/1 adjacency matrix in paired CSC/CSR form.

    ``col_ptr``/``col_rows`` list, for each column j, the sorted row indices i
    with a[i, j] = 1; ``row_ptr``/``row_cols`` hold the transposed layout.
    Both describe the same entry set.  ``labels`` maps internal 0-based ids to
    the raw ids of the input data (identity when None).
    """

    n: int
    directed: bool
    col_ptr: np.ndarray
    col_rows: np.ndarray
    row_ptr: np.ndarray
    row_cols: np.ndarray
    labels: np.ndarray | None = None
    duplicates_collapsed: int = 0

    def __post_init__(self):
        for name in ("col_ptr", "col_rows", "row_ptr", "row_cols", "labels"):
            arr = getattr(self, name)
            if arr is not None:
                arr.flags.writeable = False

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: np.ndarray,
        directed: bool,
        labels: np.ndarray | None = None,
    ) -> "SparseGraph":
        """Build from an (m, 2) array of (src, dst) pairs.

        Duplicate pairs are collapsed (the count is recorded); undirected
        graphs store each edge symmetrically.  Self-loops are kept.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        if not directed and edges.size:
            edges = np.vstack([edges, edges[:, ::-1]])
        keys = edges[:, 0] * np.int64(n) + edges[:, 1]
        uniq = np.unique(keys)
        if directed:
            dup = int(keys.size - uniq.size)
        else:
            # input edges were doubled; each off-diagonal entry pair and each
            # doubled diagonal key stands for one stored input edge
            n_diag = int(np.count_nonzero(uniq // n == uniq % n))
            dup = (int(keys.size) - int(uniq.size) - n_diag) // 2
        src = uniq // n
        dst = uniq % n

        # uniq is sorted by (src, dst) already: that is the row-major layout
        row_cols = dst
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=row_ptr[1:])

        col_order = np.lexsort((src, dst))
        col_rows = src[col_order]
        col_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=col_ptr[1:])

        return cls(
            n=n,
            directed=directed,
            col_ptr=col_ptr,
            col_rows=col_rows,
            row_ptr=row_ptr,
            row_cols=row_cols,
            labels=None if labels is None else np.asarray(labels, dtype=np.int64),
            duplicates_collapsed=dup,
        )

    # -- accessors ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """Number of stored nonzeros (undirected edges count twice)."""
        return int(self.col_rows.size)

    def column(self, j: int) -> np.ndarray:
        """Sorted row indices i with a[i, j] = 1."""
        return self.col_rows[self.col_ptr[j] : self.col_ptr[j + 1]]

    def row(self, i: int) -> np.ndarray:
        """Sorted column indices j with a[i, j] = 1."""
        return self.row_cols[self.row_ptr[i] : self.row_ptr[i + 1]]

    @property
    def col_degrees(self) -> np.ndarray:
        return np.diff(self.col_ptr)

    @property
    def row_degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def nonzero_columns(self) -> np.ndarray:
        return np.flatnonzero(self.col_degrees > 0)

    def nonzero_rows(self) -> np.ndarray:
        return np.flatnonzero(self.row_degrees > 0)

    def label_of(self, i: int) -> int:
        return int(self.labels[i]) if self.labels is not None else int(i)

    @cached_property
    def csc(self) -> sp.csc_matrix:
        data = np.ones(self.col_rows.size)
        return sp.csc_matrix((data, self.col_rows, self.col_ptr), shape=(self.n, self.n))

    @cached_property
    def csr(self) -> sp.csr_matrix:
        data = np.ones(self.row_cols.size)
        return sp.csr_matrix((data, self.row_cols, self.row_ptr), shape=(self.n, self.n))

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), self.row_degrees)
        out[rows, self.row_cols] = 1.0
        return out

    def entry_set(self) -> set[tuple[int, int]]:
        rows = np.repeat(np.arange(self.n), self.row_degrees)
        return set(zip(rows.tolist(), self.row_cols.tolist()))


def parse_edge_list(
    source: Iterable[str] | TextIO,
    format: str = "edge-list",
    directed: bool = True,
) -> SparseGraph:
    """Parse a text stream into a SparseGraph.

    ``format`` is ``"edge-list"`` (one ``src dst`` pair per line, '#'/'%'
    comments, 0-based ids, n = 1 + max id) or ``"matrix-market"``
    (coordinate pattern/integer/real, values coerced to 1, 1-based indices,
    symmetric/general headers honoured, n = declared dimension).
    """
    fmt = format.lower()
    if fmt in ("edge-list", "edgelist", "edges"):
        return _parse_plain_edges(source, directed)
    if fmt in ("matrix-market", "matrix-market-pattern", "mtx", "mm"):
        return _parse_matrix_market(source, directed)
    raise ValueError(f"unknown graph format {format!r}")


def _parse_plain_edges(source, directed: bool) -> SparseGraph:
    srcs: list[int] = []
    dsts: list[int] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("expected 'src dst'", line=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("node ids must be integers", line=lineno) from None
        if i < 0 or j < 0:
            raise GraphParseError("node ids must be nonnegative", line=lineno)
        srcs.append(i)
        dsts.append(j)
    if not srcs:
        raise GraphParseError("graph has no edges")
    edges = np.column_stack([np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64)])
    n = int(edges.max()) + 1
    return SparseGraph.from_edges(n, edges, directed=directed)


def _parse_matrix_market(source, directed: bool) -> SparseGraph:
    lines = iter(enumerate(source, start=1))
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise GraphParseError("empty Matrix Market input") from None
    tokens = header.strip().lower().split()
    if len(tokens) < 5 or tokens[0] != "%%matrixmarket":
        raise GraphParseError("missing %%MatrixMarket header", line=lineno)
    _, obj, layout, fld, symmetry = tokens[:5]
    if obj != "matrix" or layout != "coordinate":
        raise GraphParseError("only 'matrix coordinate' files are supported", line=lineno)
    if fld not in ("pattern", "integer", "real"):
        raise GraphParseError(f"unsupported field type {fld!r}", line=lineno)
    if symmetry not in ("general", "symmetric"):
        raise GraphParseError(f"unsupported symmetry {symmetry!r}", line=lineno)
    want = 2 if fld == "pattern" else 3

    size = None
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphParseError("expected 'rows cols nnz' size line", line=lineno)
        try:
            nrows, ncols, nnz = (int(p) for p in parts)
        except ValueError:
            raise GraphParseError("size line must be integers", line=lineno) from None
        size = (nrows, ncols, nnz)
        break
    if size is None:
        raise GraphParseError("missing size line")
    nrows, ncols, nnz = size
    if nrows != ncols:
        raise GraphParseError(f"matrix is not square ({nrows}x{ncols})")
    if nnz == 0:
        raise GraphParseError("graph has no edges")

    srcs = np.empty(nnz, dtype=np.int64)
    dsts = np.empty(nnz, dtype=np.int64)
    count = 0
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if count >= nnz:
            raise GraphParseError("more entries than declared", line=lineno)
        parts = line.split()
        if len(parts) != want:
            raise GraphParseError(f"expected {want} fields per entry", line=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("entry indices must be integers", line=lineno) from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise GraphParseError("entry index out of range", line=lineno)
        srcs[count] = i - 1
        dsts[count] = j - 1
        count += 1
    if count != nnz:
        raise GraphParseError(f"expected {nnz} entries, found {count}")

    edges = np.column_stack([srcs, dsts])
    symmetric = symmetry == "symmetric"
    if symmetric:
        off = edges[:, 0] != edges[:, 1]
        edges = np.vstack([edges, edges[off][:, ::-1]])
    final_directed = False if symmetric else directed
    labels = np.arange(1, nrows + 1, dtype=np.int64)
    return SparseGraph.from_edges(nrows, edges, directed=final_directed, labels=labels)


def remove_self_loops(g: SparseGraph) -> tuple[SparseGraph, int]:
    """Drop all (i, i) entries; returns the new graph and the removed count."""
    rows = np.repeat(np.arange(g.n), g.row_degrees)
    keep = rows != g.row_cols
    removed = int(np.count_nonzero(~keep))
    if removed == 0:
        return g, 0
    edges = np.column_stack([rows[keep], g.row_cols[keep]])
    # entry set already symmetric for undirected graphs; rebuild as directed
    # storage and restore the flag to avoid double-counting duplicates
    out = SparseGraph.from_edges(g.n, edges, directed=True, labels=g.labels)
    return SparseGraph(
        n=out.n,
        directed=g.directed,
        col_ptr=out.col_ptr,
        col_rows=out.col_rows,
        row_ptr=out.row_ptr,
        row_cols=out.row_cols,
        labels=g.labels,
        duplicates_collapsed=g.duplicates_collapsed,
    ), removed


def transpose(g: SparseGraph) -> SparseGraph:
    """Swap the column and row stores: the graph of A^T."""
    return SparseGraph(
        n=g.n,
        directed=g.directed,
        col_ptr=g.row_ptr,
        col_rows=g.row_cols,
        row_ptr=g.col_ptr,
        row_cols=g.col_rows,
        labels=g.labels,
        duplicates_collapsed=g.duplicates_collapsed,
    )


class ColumnMaskedOperator:
    """Applies y = A_mask @ x where all columns outside the mask are zeroed.

    Accumulation runs over masked columns in ascending index order, then
    ascending row within each column, so results are bitwise reproducible.
    """

    def __init__(self, g: SparseGraph, indices: np.ndarray):
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= g.n):
            raise ValueError("mask index out of range")
        self.n = g.n
        self.indices = np.unique(idx)
        self._sub = g.csc[:, self.indices]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"vector has shape {x.shape}, expected ({self.n},)")
        if self.indices.size == 0:
            return np.zeros(self.n, dtype=x.dtype)
        return self._sub @ x[self.indices]


class ArrowMaskedOperator:
    """Applies y = A_arrow @ x keeping entries (i, j) with i or j in the mask."""

    def __init__(self, g: SparseGraph, indices: np.ndarray):
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= g.n):
            raise ValueError("mask index out of range")
        self.n = g.n
        marker = np.zeros(g.n, dtype=bool)
        marker[idx] = True
        rows = np.repeat(np.arange(g.n), g.row_degrees)
        keep = marker[rows] | marker[g.row_cols]
        self._sub = sp.csr_matrix(
            (np.ones(int(keep.sum())), (rows[keep], g.row_cols[keep])),
            shape=(g.n, g.n),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"vector has shape {x.shape}, expected ({self.n},)")
        return self._sub @ x


def write_edge_list(g: SparseGraph, stream: TextIO) -> None:
    """Serialize back to edge-list text (each undirected edge written once)."""
    rows = np.repeat(np.arange(g.n), g.row_degrees)
    cols = g.row_cols
    if not g.directed:
        keep = rows <= cols
        rows, cols = rows[keep], cols[keep]
    for i, j in zip(rows.tolist(), cols.tolist()):
        stream.write(f"{i} {j}\n")

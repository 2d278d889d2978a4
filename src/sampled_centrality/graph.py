"""Sparse adjacency matrices with column and row access, and their text formats.

The convention throughout: ``a[i, j] = 1`` iff there is an edge from node ``i``
to node ``j``, so column ``j`` holds the in-neighbours of ``j`` and row ``i``
holds the out-neighbours of ``i``.  Graphs are simple and unweighted; all
stored entries equal 1.  A ``SparseGraph`` holds A once, as one canonical
scipy CSR matrix and its CSC transpose-layout copy; every route (samplers,
core evaluations, Perron, references) reads those two.  Their arrays are
read-only, so instances are immutable and safe to share between concurrent
computations.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NoReturn, TextIO

import numpy as np
import scipy.sparse as sp


# the largest node id the int64 store takes, since n = 1 + max id
MAX_NODE_ID = 2**63 - 2
# characters (file) or lines (other iterables) per parsed block: bounds the
# per-byte arrays of one vectorised pass
_BLOCK_CHARS = 1 << 20
_BLOCK_LINES = 1 << 16


class GraphParseError(ValueError):
    """Malformed graph input.  Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class SparseGraph:
    """Immutable 0/1 adjacency matrix as a canonical scipy CSR/CSC pair.

    ``csr`` and ``csc`` are the same matrix in row and column layout, with
    sorted indices, no duplicates and every stored value 1.  ``labels`` maps
    internal 0-based ids to the raw ids of the input data (identity when
    None).
    """

    directed: bool
    csr: sp.csr_matrix
    csc: sp.csc_matrix
    labels: np.ndarray | None = None
    duplicates_collapsed: int = 0

    def __post_init__(self):
        for m in (self.csr, self.csc):
            for arr in (m.data, m.indices, m.indptr):
                arr.flags.writeable = False
        if self.labels is not None:
            self.labels.flags.writeable = False

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
        src, dst = edges[:, 0], edges[:, 1]
        if not directed:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        a = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
        a.sum_duplicates()
        a.data[:] = 1.0
        if directed:
            dup = len(edges) - a.nnz
        else:
            # input edges were doubled; each off-diagonal entry pair and each
            # diagonal entry stands for one stored input edge
            dup = len(edges) - (a.nnz + int(np.count_nonzero(a.diagonal()))) // 2
        return cls._of(a, directed, labels, dup)

    @classmethod
    def _of(
        cls, a: sp.csr_matrix, directed: bool, labels: np.ndarray | None, dup: int
    ) -> "SparseGraph":
        """Wrap a canonical 0/1 CSR matrix; the CSC layout is its conversion."""
        return cls(
            directed=directed,
            csr=a,
            csc=a.tocsc(),
            labels=None if labels is None else np.asarray(labels, dtype=np.int64),
            duplicates_collapsed=dup,
        )

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def row_ptr(self) -> np.ndarray:
        return self.csr.indptr

    @property
    def row_cols(self) -> np.ndarray:
        return self.csr.indices

    @property
    def edge_count(self) -> int:
        """Number of stored nonzeros (undirected edges count twice)."""
        return int(self.csr.nnz)

    def column(self, j: int) -> np.ndarray:
        """Sorted row indices i with a[i, j] = 1."""
        ptr = self.csc.indptr
        return self.csc.indices[ptr[j] : ptr[j + 1]]

    @property
    def col_degrees(self) -> np.ndarray:
        return np.diff(self.csc.indptr)

    @property
    def row_degrees(self) -> np.ndarray:
        return np.diff(self.csr.indptr)

    def nonzero_columns(self) -> np.ndarray:
        return np.flatnonzero(self.col_degrees > 0)

    def nonzero_rows(self) -> np.ndarray:
        return np.flatnonzero(self.row_degrees > 0)

    def label_of(self, i: int) -> int:
        return int(self.labels[i]) if self.labels is not None else int(i)

    def dense(self) -> np.ndarray:
        return self.csr.toarray()

    def entry_set(self) -> set[tuple[int, int]]:
        coo = self.csr.tocoo()
        return set(zip(coo.row.tolist(), coo.col.tolist()))


def parse_edge_list(
    source: Iterable[str] | TextIO,
    format: str = "edge-list",
    directed: bool = True,
) -> SparseGraph:
    """Parse a text stream into a SparseGraph.

    ``format`` is ``"edge-list"`` (one ``src dst`` pair per line, '#'/'%'
    comments, 0-based ids, n = 1 + max id) or ``"matrix-market"``
    (coordinate pattern/integer/real, values coerced to 1, 1-based indices,
    symmetric/general headers honoured, n = declared dimension; ``source``
    must then be a seekable text stream).
    """
    if format == "edge-list":
        return _parse_plain_edges(source, directed)
    if format == "matrix-market":
        return _parse_matrix_market(source, directed)
    raise ValueError(f"unknown graph format {format!r}")


def _parse_plain_edges(source, directed: bool) -> SparseGraph:
    """One vectorised pass per block of whole lines.

    The grammar is that of ``_edge_line_problem``: ASCII whitespace separates
    tokens, a line whose first token starts with '#' or '%' is a comment, and
    every other nonblank line holds two ids of ASCII digits.
    """
    ids = []
    first_line = 1
    for block in _line_blocks(source):
        values, lines = _parse_block(block.encode(), first_line)
        ids.append(values)
        first_line += lines
    edges = np.concatenate(ids).reshape(-1, 2) if ids else np.empty((0, 2), dtype=np.int64)
    if not edges.size:
        raise GraphParseError("graph has no edges")
    n = int(edges.max()) + 1
    return SparseGraph.from_edges(n, edges, directed=directed)


def _line_blocks(source) -> Iterator[str]:
    """The text of ``source`` in blocks of whole lines, each ending in a newline.

    A file is read in chunks; any other iterable gives one line per item, in
    which a newline is only whitespace.
    """
    read = getattr(source, "read", None)
    if read is not None:
        while block := read(_BLOCK_CHARS):
            if not block.endswith("\n"):
                block += source.readline()
            yield block if block.endswith("\n") else block + "\n"
        return
    items = iter(source)
    while chunk := list(islice(items, _BLOCK_LINES)):
        yield "".join(line.replace("\n", " ") + "\n" for line in chunk)


def _parse_block(data: bytes, first_line: int) -> tuple[np.ndarray, int]:
    """The ids of one block of lines, whose first is line ``first_line``, and
    its line count.  Raises the error of its first bad line."""
    a = np.frombuffer(data, dtype=np.uint8)
    space = (a == 32) | ((a >= 9) & (a <= 13))
    step = np.diff((~space).view(np.int8), prepend=np.int8(0))
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
    newlines = np.flatnonzero(a == 10)
    before = np.searchsorted(starts, newlines)  # tokens before each line end
    per_line = np.diff(before, prepend=0)
    # a line is a comment when its first token starts with '#' or '%'; every
    # other byte that is neither space nor digit makes its line bad
    odd = np.flatnonzero(~space & ((a < ord("0")) | (a > ord("9"))))
    odd_line = np.searchsorted(newlines, odd)
    lead = (a[odd] == ord("#")) | (a[odd] == ord("%"))
    lead_line = odd_line[lead]
    first_token = np.concatenate([[0], before[:-1]])[lead_line]
    comment = np.zeros(newlines.size, dtype=bool)
    comment[lead_line[starts[first_token] == odd[lead]]] = True
    long = np.flatnonzero(ends - starts >= len(str(MAX_NODE_ID)))
    long = long[~comment[np.searchsorted(newlines, starts[long])]]
    if (
        np.any((per_line != 0) & (per_line != 2) & ~comment)
        or not comment[odd_line].all()
        or any(int(data[starts[k] : ends[k]]) > MAX_NODE_ID for k in long)
    ):
        _raise_first_bad_line(data, first_line)
    if not per_line[~comment].any():
        return np.empty(0, dtype=np.int64), newlines.size
    if comment.any():
        # blank the comment lines, which are disjoint spans [lo, hi)
        hi = newlines[comment]
        lo = np.concatenate([[0], newlines[:-1] + 1])[comment]
        inside = np.zeros(a.size + 1, dtype=np.int8)
        inside[lo] = 1
        inside[hi] = -1
        text = a.copy()
        text[np.cumsum(inside[:-1], dtype=np.int8).view(bool)] = ord(" ")
        data = text.tobytes()
    return np.fromstring(data, dtype=np.int64, sep=" "), newlines.size


def _edge_line_problem(raw: bytes) -> str | None:
    """Why one edge-list line is rejected, or None if it is a comment, blank
    or a valid ``src dst`` pair."""
    line = raw.strip()
    if not line or line[:1] in (b"#", b"%"):
        return None
    parts = line.split()
    if len(parts) != 2:
        return "expected 'src dst'"
    if not all(p.isdigit() or (p[:1] == b"-" and p[1:].isdigit()) for p in parts):
        return "node ids must be integers"
    if not all(p.isdigit() for p in parts):
        return "node ids must be nonnegative"
    if any(int(p) > MAX_NODE_ID for p in parts):
        return f"node ids must be at most {MAX_NODE_ID}"
    return None


def _raise_first_bad_line(data: bytes, first_line: int) -> NoReturn:
    for offset, raw in enumerate(data.split(b"\n")):
        problem = _edge_line_problem(raw)
        if problem is not None:
            raise GraphParseError(problem, line=first_line + offset)
    raise AssertionError("the vectorised edge-list check rejected a valid block")


def _parse_matrix_market(source, directed: bool) -> SparseGraph:
    """The header by ``scipy.io.mminfo``, then the entries by ``scipy.io.mmread``.

    ``source`` must be a seekable text stream: it is read twice.  scipy's
    reader counts and range-checks the entries; its errors are raised as
    ``GraphParseError`` with their line number.
    """
    if not hasattr(source, "seek"):
        raise TypeError(
            "Matrix Market input must be a seekable text stream, such as an open "
            f"file or io.StringIO, not {type(source).__name__}"
        )
    # deferred: at module level scipy.io would add to every import of the package
    import scipy.io

    nrows, ncols, nnz, layout, fld, symmetry = _read_mm(scipy.io.mminfo, source)
    if layout != "coordinate":
        raise GraphParseError("only 'matrix coordinate' files are supported", line=1)
    if fld not in ("pattern", "integer", "real"):
        raise GraphParseError(f"unsupported field type {fld!r}", line=1)
    if symmetry not in ("general", "symmetric"):
        raise GraphParseError(f"unsupported symmetry {symmetry!r}", line=1)
    if nrows != ncols:
        raise GraphParseError(f"matrix is not square ({nrows}x{ncols})")
    if nnz == 0:
        raise GraphParseError("graph has no edges")
    source.seek(0)
    coo = _read_mm(scipy.io.mmread, source)
    edges = np.column_stack([coo.row, coo.col])
    if symmetry == "symmetric":
        # mmread mirrors each off-diagonal entry; keep one copy of each
        edges = edges[coo.row >= coo.col]
    labels = np.arange(1, nrows + 1, dtype=np.int64)
    return SparseGraph.from_edges(
        nrows, edges, directed=directed and symmetry == "general", labels=labels
    )


def _read_mm(read, source):
    """``read(source)``, with scipy's "Line N: ..." errors as ``GraphParseError``."""
    try:
        return read(source)
    except (ValueError, OverflowError) as exc:
        found = re.fullmatch(r"Line (\d+): (.*)", str(exc), re.DOTALL)
        if found is None:
            raise GraphParseError(str(exc)) from exc
        raise GraphParseError(found[2], line=int(found[1])) from exc


def remove_self_loops(g: SparseGraph) -> tuple[SparseGraph, int]:
    """Drop all (i, i) entries; returns the new graph and the removed count."""
    loops = g.csr.diagonal()
    removed = int(np.count_nonzero(loops))
    if removed == 0:
        return g, 0
    # the difference drops the cancelled entries and keeps the layout canonical
    a = g.csr - sp.diags(loops, format="csr")
    return SparseGraph._of(a, g.directed, g.labels, g.duplicates_collapsed), removed


def transpose(g: SparseGraph) -> SparseGraph:
    """The graph of A^T: the CSR and CSC layouts swap, as views with no copy."""
    return dataclasses.replace(g, csr=g.csc.T, csc=g.csr.T)


def write_edge_list(g: SparseGraph, stream: TextIO) -> None:
    """Serialize back to edge-list text (each undirected edge written once)."""
    coo = g.csr.tocoo()
    rows, cols = coo.row, coo.col
    if not g.directed:
        keep = rows <= cols
        rows, cols = rows[keep], cols[keep]
    for i, j in zip(rows.tolist(), cols.tolist()):
        stream.write(f"{i} {j}\n")

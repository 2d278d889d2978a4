"""Sparse adjacency matrices with column and row access, and their text formats.

The convention throughout: ``a[i, j] = 1`` iff there is an edge from node ``i``
to node ``j``, so column ``j`` holds the in-neighbours of ``j`` and row ``i``
holds the out-neighbours of ``i``.  Graphs are simple and unweighted; all
stored entries equal 1.  A ``SparseGraph`` holds A once, as one canonical
scipy CSR matrix and its CSC transpose-layout copy; an undirected graph's
A = A^T, so there the two matrices share one set of arrays.  Every route
(samplers, core evaluations, Perron, references) reads those two.  Their
arrays are read-only, so instances are immutable and safe to share between
concurrent computations.  The CSR arrays are built from sorted int64 keys
src * n + dst, with no COO matrix in between, so a graph has at most
``MAX_NODES`` nodes.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NoReturn, TextIO

import numpy as np
import scipy.sparse as sp


# the largest node id the int64 store takes, since n = 1 + max id
MAX_NODE_ID = 2**63 - 2
# the most nodes a graph may have: its largest key n * n - 1 fits int64
MAX_NODES = math.isqrt(2**63)
# a parsed graph may have at most 2 * edges + NODE_SLACK nodes: the store and
# its build cost up to 36 bytes per node, so one stray large id must not size it
NODE_SLACK = 2**20
# characters (file) or lines (other iterables) per parsed block: bounds the
# per-byte arrays of one vectorised pass
_BLOCK_CHARS = 1 << 20
_BLOCK_LINES = 1 << 16
# a comment line, up to its newline: optional whitespace, then '#' or '%'
_COMMENT_LINE = re.compile(rb"^[ \t\v\f\r]*[#%][^\n]*", re.MULTILINE)
# the bytes left once comments are gone: digits and ASCII whitespace
_DIGITS_AND_SPACE = b"0123456789 \t\n\v\f\r"


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
    sorted indices, no duplicates and every stored value 1.  Node i has the
    label i + ``first_id`` in the input data: 1 for Matrix Market files,
    which number nodes from 1, and 0 otherwise.
    """

    directed: bool
    csr: sp.csr_matrix
    csc: sp.csc_matrix
    first_id: int = 0
    duplicates_collapsed: int = 0

    def __post_init__(self):
        for m in (self.csr, self.csc):
            for arr in (m.data, m.indices, m.indptr):
                arr.flags.writeable = False

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: np.ndarray,
        directed: bool,
        first_id: int = 0,
    ) -> "SparseGraph":
        """Build from an (m, 2) array of (src, dst) pairs.

        Duplicate pairs are collapsed (the count is recorded); undirected
        graphs store each edge symmetrically, and their CSC matrix is built
        on the CSR arrays.  Self-loops are kept.  n may be at most
        ``MAX_NODES``, so that every key src * n + dst fits int64.

        The CSR arrays come from one int64 key src * n + dst per entry (both
        directions for undirected graphs), sorted in place with repeats
        dropped: ``indptr`` by binary search for each row's first key,
        ``indices`` as key mod n.  Beyond the store and the input, the build
        holds about one key per entry at its peak.
        """
        if n < 1:
            raise ValueError("graph needs at least one node")
        if n > MAX_NODES:
            raise ValueError(
                f"{n} nodes are more than {MAX_NODES}, the most whose keys "
                "src * n + dst fit int64"
            )
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        m = len(edges)
        key = np.empty(m if directed else 2 * m, dtype=np.int64)
        np.multiply(edges[:, 0], n, out=key[:m])
        key[:m] += edges[:, 1]
        if not directed:
            np.multiply(edges[:, 1], n, out=key[m:])
            key[m:] += edges[:, 0]
        key.sort()
        keep = np.empty(key.size, dtype=bool)
        keep[:1] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        if not keep.all():
            key = key[keep]
        del keep
        # the index dtype the csr_matrix constructor picks for these sizes:
        # handing it that dtype spares it a copy
        index = np.int32 if max(n, key.size) <= np.iinfo(np.int32).max else np.int64
        bounds = np.arange(n + 1, dtype=np.int64)
        bounds *= n
        indptr = np.searchsorted(key, bounds).astype(index, copy=False)
        del bounds
        np.remainder(key, n, out=key)
        indices = key.astype(index)
        del key
        a = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
        a.has_canonical_format = True
        if directed:
            dup = m - a.nnz
        else:
            # input edges were doubled; each off-diagonal entry pair and each
            # diagonal entry stands for one stored input edge
            dup = m - (a.nnz + int(np.count_nonzero(a.diagonal()))) // 2
        # a directed CSC by tocsc() beat a second sort on dst * n + src;
        # an undirected A = A^T has CSC arrays equal to its CSR arrays
        csc = a.tocsc() if directed else sp.csc_matrix((a.data, a.indices, a.indptr), shape=(n, n))
        return cls(
            directed=directed,
            csr=a,
            csc=csc,
            first_id=first_id,
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

    def label_of(self, i: int) -> int:
        return int(i) + self.first_id


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
    must then be a seekable text stream).  Either way n may be at most
    2 * edges + ``NODE_SLACK``, where edges counts the edge lines or the
    declared entries; a larger n raises ``GraphParseError``.
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
    # the blocks' ids are copied into edges: do not hold them through the build
    ids.clear()
    if not edges.size:
        raise GraphParseError("graph has no edges")
    top = int(edges.max())
    _check_node_count(top + 1, len(edges), f"node id {top}")
    return SparseGraph.from_edges(top + 1, edges, directed=directed)


def _check_node_count(n: int, edges: int, what: str) -> None:
    """Refuse ``n`` nodes for ``edges`` edges above 2 * edges + ``NODE_SLACK``."""
    bound = 2 * edges + NODE_SLACK
    if n > bound:
        raise GraphParseError(
            f"{what} makes {n} nodes for {edges} edges, above the bound "
            f"2 * edges + {NODE_SLACK} = {bound}"
        )


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
    text = _COMMENT_LINE.sub(b"", data) if b"#" in data or b"%" in data else data
    a = np.frombuffer(text, dtype=np.uint8)
    step = np.diff((a >= ord("0")).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
    newlines = np.flatnonzero(a == 10)
    per_line = np.diff(np.searchsorted(starts, newlines), prepend=0)
    long = np.flatnonzero(ends - starts >= len(str(MAX_NODE_ID)))
    if (
        text.translate(None, _DIGITS_AND_SPACE)
        or np.any((per_line != 0) & (per_line != 2))
        or any(int(text[starts[k] : ends[k]]) > MAX_NODE_ID for k in long)
    ):
        _raise_first_bad_line(data, first_line)
    if not starts.size:
        return np.empty(0, dtype=np.int64), newlines.size
    return np.fromstring(text, dtype=np.int64, sep=" "), newlines.size


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
    _check_node_count(nrows, nnz, f"dimension {nrows}")
    source.seek(0)
    coo = _read_mm(scipy.io.mmread, source)
    edges = np.column_stack([coo.row, coo.col])
    if symmetry == "symmetric":
        # mmread mirrors each off-diagonal entry; keep one copy of each
        edges = edges[coo.row >= coo.col]
    # the entries are copied into edges: do not hold scipy's arrays through the build
    del coo
    return SparseGraph.from_edges(
        nrows, edges, directed=directed and symmetry == "general", first_id=1
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


def transpose(g: SparseGraph) -> SparseGraph:
    """The graph of A^T: the CSR and CSC layouts swap, as views with no copy."""
    return dataclasses.replace(g, csr=g.csc.T, csc=g.csr.T)


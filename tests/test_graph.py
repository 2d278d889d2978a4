"""Graph ingestion, masking, and serialization round-trips."""

from __future__ import annotations

import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from sampled_centrality import (
    GraphParseError,
    SampleSet,
    SparseGraph,
    parse_edge_list,
    sample_rows,
    transpose,
)
from sampled_centrality import graph as graph_module
from conftest import (
    dataset_dir,
    directed_edge,
    edge_list_text,
    entries,
    requires_datasets,
    undirected_edge,
)
from krylov_reference import ColumnMaskedOperator


def test_parse_edge_list_directed():
    g = parse_edge_list(["0 1", "1 2"], directed=True)
    assert g.n == 3
    assert g.edge_count == 2
    assert g.column(1).tolist() == [0]
    assert g.column(2).tolist() == [1]
    assert g.column(0).tolist() == []


def test_parse_edge_list_symmetrizes_undirected():
    g = parse_edge_list(["0 1", "1 2"], directed=False)
    assert g.edge_count == 4
    assert g.column(1).tolist() == [0, 2]


def test_parse_skips_comments_and_blank_lines():
    g = parse_edge_list(["# header", "", "% more", "0 1"], directed=True)
    assert g.edge_count == 1


def test_parse_collapses_duplicates():
    g = parse_edge_list(["0 1", "0 1", "1 2"], directed=True)
    assert g.edge_count == 2
    assert g.duplicates_collapsed == 1
    u = parse_edge_list(["0 1", "1 0", "0 1"], directed=False)
    assert u.edge_count == 2  # one undirected edge, stored both ways
    assert u.duplicates_collapsed == 2


def test_parse_keeps_self_loops():
    g = parse_edge_list(["0 0", "0 1"], directed=True)
    assert g.edge_count == 2
    assert g.column(0).tolist() == [0]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list(["0 1", "0 1 2"], directed=True)
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list(["a b"], directed=True)
    with pytest.raises(GraphParseError, match="no edges"):
        parse_edge_list(["# nothing"], directed=True)


def _line_loop_parse(source, directed: bool) -> SparseGraph:
    """The line-by-line edge-list parser that the vectorised one replaced: the
    reference for every input both grammars share."""
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
    return SparseGraph.from_edges(int(edges.max()) + 1, edges, directed=directed)


def _same_graph(a: SparseGraph, b: SparseGraph) -> bool:
    return (
        a.directed == b.directed
        and a.duplicates_collapsed == b.duplicates_collapsed
        and np.array_equal(a.csr.indptr, b.csr.indptr)
        and np.array_equal(a.csr.indices, b.csr.indices)
    )


def _parse_outcome(parse, text: str, as_file: bool, directed: bool = True):
    source = io.StringIO(text) if as_file else text.split("\n")
    try:
        return parse(source, directed=directed)
    except GraphParseError as exc:
        return str(exc), exc.line


VALID_EDGE_LISTS = [
    "0 1\n1 2\n",
    "# header\n\n% more\n0 1\n   # indented comment 9 9 9\n\n2 3\n",
    "0 1\r\n1 2\r\n\r\n3 0\r\n",
    "0\t1\n1 \t 2\n",
    "0 1   \n  1 2\t \n",
    "0 1\n1 2",
    "% only a header\n5 5\n5 6\n5 6\n007 0010\n",
    "#0 1 2\n%x\n1 0\n",
    "0\v1\n1\f2\n\v\f\n\f3 \v0\n",
    "# 12345678901234567890 n\u00e9\u0153ud \u2192\n0 1\n",
]

INVALID_EDGE_LISTS = [
    ("0 1\n1 2 3\n", 2, "expected 'src dst'"),
    ("0 1\n\n5\n", 3, "expected 'src dst'"),
    ("a b\n", 1, "node ids must be integers"),
    ("0 1\n-1 2\n", 2, "node ids must be nonnegative"),
    ("0 1\n1 2 # c\n", 2, "expected 'src dst'"),
    ("0 1\n1 2#\n", 2, "node ids must be integers"),
    ("0 1\n-1 x\n", 2, "node ids must be integers"),
    ("# one\n% two\n\n", None, "graph has no edges"),
    ("", None, "graph has no edges"),
]


@pytest.mark.parametrize("text", VALID_EDGE_LISTS)
def test_parse_matches_the_line_loop_on_valid_input(text):
    for as_file in (True, False):
        for directed in (True, False):
            got = _parse_outcome(parse_edge_list, text, as_file, directed)
            want = _parse_outcome(_line_loop_parse, text, as_file, directed)
            assert isinstance(got, SparseGraph) and _same_graph(got, want)


@pytest.mark.parametrize("text,line,message", INVALID_EDGE_LISTS)
def test_parse_matches_the_line_loop_on_invalid_input(text, line, message):
    for as_file in (True, False):
        got = _parse_outcome(parse_edge_list, text, as_file)
        assert got == _parse_outcome(_line_loop_parse, text, as_file)
        assert got[1] == line and got[0].endswith(message)


def test_parse_random_text_matches_the_line_loop():
    # random lines of small tokens, on which both grammars agree
    rng = np.random.default_rng(11)
    tokens = ["0", "1", "2", "7", "12", "007", "x", "1x", "#", "%", "#3", "-1", "3%"]
    spaces = [" ", " ", "\t", "  ", " \t", "\v", "\f"]
    for _ in range(300):
        lines = []
        for _ in range(int(rng.integers(0, 6))):
            words = rng.choice(tokens, size=int(rng.choice([0, 1, 2, 2, 2, 3])))
            gaps = rng.choice(spaces, size=words.size + 1)
            line = "".join(g + w for g, w in zip(gaps, words)) + gaps[-1] * int(rng.integers(2))
            lines.append(line + rng.choice(["", "\r"]))
        text = "\n".join(lines) + rng.choice(["", "\n"])
        for as_file in (True, False):
            got = _parse_outcome(parse_edge_list, text, as_file)
            want = _parse_outcome(_line_loop_parse, text, as_file)
            if isinstance(want, SparseGraph):
                assert isinstance(got, SparseGraph) and _same_graph(got, want), repr(text)
            else:
                assert got == want, repr(text)


def test_parse_finds_the_bad_line_past_the_first_block(monkeypatch):
    monkeypatch.setattr(graph_module, "_BLOCK_CHARS", 16)
    monkeypatch.setattr(graph_module, "_BLOCK_LINES", 3)
    lines = [f"{i} {i + 1}" for i in range(40)]
    lines[26] = "# comment"
    text = "\n".join(lines) + "\n"
    for as_file in (True, False):
        got = _parse_outcome(parse_edge_list, text, as_file)
        assert _same_graph(got, _line_loop_parse(text.split("\n"), directed=True))
    lines[31] = "31 x"
    text = "\n".join(lines) + "\n"
    for as_file in (True, False):
        assert _parse_outcome(parse_edge_list, text, as_file) == (
            "line 32: node ids must be integers",
            32,
        )


def test_parse_ids_are_ascii_digits():
    # forms that int() and str.split() accept but the edge-list grammar does not
    for line, message in (
        ("+1 2", "node ids must be integers"),
        ("1_0 2", "node ids must be integers"),
        ("\u0661 2", "node ids must be integers"),
        ("-0 2", "node ids must be nonnegative"),
        ("1\u00a02", "expected 'src dst'"),
        ("1\x1c2", "expected 'src dst'"),
    ):
        with pytest.raises(GraphParseError, match=f"line 2: {message}"):
            parse_edge_list(["0 1", line])


def test_parse_rejects_ids_beyond_int64_with_a_line_number():
    for ids in ("99999999999999999999 1", "0 9223372036854775807"):
        with pytest.raises(GraphParseError, match="line 2: node ids must be at most") as info:
            parse_edge_list(["0 1", ids])
        assert info.value.line == 2
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list(io.StringIO(f"0 1\n{ids}\n"))
    # leading zeros make a long token, not a large id
    g = parse_edge_list(["0 1", "00000000000000000000002 1"])
    assert g.n == 3 and entries(g) == {(0, 1), (2, 1)}


def test_parse_refuses_ids_far_beyond_the_edge_count():
    # n = 1 + max id, and the store costs 16 bytes per node: this id would
    # ask for over a TiB of index arrays
    message = "node id 81111927405 makes 81111927406 nodes for 2 edges"
    for source in (["0 1", "0 81111927405"], io.StringIO("0 1\n0 81111927405\n")):
        with pytest.raises(GraphParseError, match=message):
            parse_edge_list(source)


def test_parse_accepts_ids_up_to_the_node_bound():
    bound = 2 * 2 + graph_module.NODE_SLACK
    g = parse_edge_list(["0 1", f"0 {bound - 1}"])
    assert g.n == bound and g.edge_count == 2
    with pytest.raises(GraphParseError, match=rf"above the bound 2 \* edges \+ \d+ = {bound}$"):
        parse_edge_list(["0 1", f"0 {bound}"])


def test_edge_list_round_trip_at_scale():
    rng = np.random.default_rng(12)
    for directed in (True, False):
        edges = rng.integers(0, 3000, size=(10_000, 2))
        g = SparseGraph.from_edges(3000, edges, directed=directed)
        h = parse_edge_list(io.StringIO(edge_list_text(edges)), directed=directed)
        assert np.array_equal(h.csr.indptr, g.csr.indptr)
        assert np.array_equal(h.csr.indices, g.csr.indices)


MM_GENERAL = """%%MatrixMarket matrix coordinate pattern general
% comment
3 3 2
1 2
2 3
"""

MM_SYMMETRIC = """%%MatrixMarket matrix coordinate integer symmetric
4 4 4
2 1 1
3 1 1
4 1 1
2 2 7
"""


def test_parse_matrix_market_general():
    g = parse_edge_list(io.StringIO(MM_GENERAL), format="matrix-market", directed=True)
    assert g.n == 3
    assert g.edge_count == 2
    assert g.column(1).tolist() == [0]
    assert g.first_id == 1
    assert [g.label_of(i) for i in range(g.n)] == [1, 2, 3]


def test_parse_matrix_market_needs_a_seekable_stream():
    with pytest.raises(TypeError, match="seekable text stream.*io.StringIO.*not list"):
        parse_edge_list(MM_GENERAL.splitlines(), format="matrix-market")


def test_parse_matrix_market_symmetric_expands():
    g = parse_edge_list(io.StringIO(MM_SYMMETRIC), format="matrix-market", directed=True)
    assert not g.directed  # symmetric header wins
    # three off-diagonal pairs stored twice plus one kept diagonal entry
    assert g.edge_count == 7
    assert g.duplicates_collapsed == 0
    assert g.column(0).tolist() == [1, 2, 3]


def test_parse_matrix_market_rejects_nonsquare():
    text = "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n"
    with pytest.raises(GraphParseError, match="not square"):
        parse_edge_list(io.StringIO(text), format="matrix-market")


def test_parse_matrix_market_coerces_values_to_one():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n"
    g = parse_edge_list(io.StringIO(text), format="matrix-market")
    assert g.csr.toarray()[0, 1] == 1.0


# (text, n, directed, csr.indptr, csr.indices); node ids always start at 1
MM_FIXTURES = {
    "pattern-general-comment": (MM_GENERAL, 3, True, [0, 1, 2, 2], [1, 2]),
    "integer-symmetric-diagonal": (
        MM_SYMMETRIC, 4, False, [0, 3, 5, 6, 7], [1, 2, 3, 0, 1, 0, 0]
    ),
    "real-general": (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n",
        2, True, [0, 1, 1], [1],
    ),
    "real-symmetric-crlf": (
        "%%MatrixMarket matrix coordinate real symmetric\r\n% a\r\n%b\r\n5 5 5\r\n"
        "1 1 2.0\r\n3 1 1e3\r\n5 2 -1\r\n4 4 0\r\n5 3 0.5\r\n",
        5, False, [0, 2, 3, 5, 6, 8], [0, 2, 4, 0, 4, 3, 1, 2],
    ),
    "integer-general-diagonal-blank-line": (
        "%%MatrixMarket matrix coordinate integer general\n% c1\n\n4 4 6\n"
        "1 1 1\n2 1 5\n1 2 5\n2 1 5\n4 4 1\n3 4 2\n",
        4, True, [0, 2, 3, 4, 5], [0, 1, 0, 3, 3],
    ),
    "pattern-symmetric-upper": (
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n3 1\n",
        3, False, [0, 2, 3, 4], [1, 2, 0, 0],
    ),
}


@pytest.mark.parametrize("name", sorted(MM_FIXTURES))
def test_parse_matrix_market_fixture_graphs(name):
    text, n, directed, indptr, indices = MM_FIXTURES[name]
    g = parse_edge_list(io.StringIO(text), format="matrix-market", directed=True)
    assert (g.n, g.directed) == (n, directed)
    assert g.first_id == 1
    assert g.csr.indptr.tolist() == indptr
    assert g.csr.indices.tolist() == indices


def test_parse_matrix_market_symmetric_counts_only_repeated_entries():
    g = parse_edge_list(io.StringIO(MM_SYMMETRIC), format="matrix-market")
    assert g.duplicates_collapsed == 0
    # (1, 2) and (2, 1) name the same undirected edge
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 2\n3 1\n2 1\n"
    g = parse_edge_list(io.StringIO(text), format="matrix-market")
    assert g.duplicates_collapsed == 1
    assert g.edge_count == 4


MM_HEAD = "%%MatrixMarket matrix coordinate pattern general\n"


@pytest.mark.parametrize(
    "text, match, line",
    [
        ("", "banner", 1),
        ("3 3 2\n1 2\n2 3\n", "banner", 1),
        ("%%MatrixMarket foo coordinate real general\n2 2 1\n1 2 3\n", "foo", 1),
        ("%%MatrixMarket vector coordinate real general\n1 1\n1 3\n", "Vector", None),
        ("%%MatrixMarket matrix array real general\n1 1\n1\n", "matrix coordinate", 1),
        ("%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 3 4\n", "field", 1),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3\n", "symmetry", 1),
        ("%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n2 1 3\n", "symmetry", 1),
        (MM_HEAD + "2 3 1\n1 2\n", "not square", None),
        (MM_HEAD + "2 2 0\n", "no edges", None),
        (MM_HEAD + "% only a comment\n", "EOF", 3),
        (MM_HEAD + "2 2 1\n1 3\n", "out of bounds", 3),
        (MM_HEAD + "2 2 1\n0 1\n", "out of bounds", 3),
        (MM_HEAD + "2 2 1\n-1 1\n", "out of bounds", 3),
        (MM_HEAD + "2 2 1\n1.5 1\n", "integer", 3),
        (MM_HEAD + "2 2 1\n99999999999999999999 1\n", "out of range", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n", "value", 3),
        (MM_HEAD + "2 2 1\n1 2\n2 1\n", "Too many", 4),
        (MM_HEAD + "2 2 3\n1 2\n2 1\n", "Truncated", None),
    ],
)
def test_parse_matrix_market_refusals(text, match, line):
    with pytest.raises(GraphParseError, match=match) as exc:
        parse_edge_list(io.StringIO(text), format="matrix-market")
    assert exc.value.line == line


# three outcomes that changed with scipy's reader


def test_parse_matrix_market_lowercase_banner_is_refused():
    text = "%%matrixmarket matrix coordinate pattern general\n2 2 1\n1 2\n"
    with pytest.raises(GraphParseError, match="banner") as exc:
        parse_edge_list(io.StringIO(text), format="matrix-market")
    assert exc.value.line == 1


def test_parse_matrix_market_comment_between_entries_is_refused():
    text = MM_HEAD + "2 2 2\n1 2\n% between entries\n2 1\n"
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list(io.StringIO(text), format="matrix-market")
    assert exc.value.line == 4


def test_parse_matrix_market_tokens_after_the_last_field_are_accepted():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5 9\n"
    g = parse_edge_list(io.StringIO(text), format="matrix-market")
    assert entries(g) == {(0, 1)}


def test_parse_matrix_market_refuses_a_dimension_far_beyond_its_entries(monkeypatch):
    def never(source):
        raise AssertionError("entries read after a refused header")

    monkeypatch.setattr("scipy.io.mmread", never)
    text = MM_HEAD + "100000000000 100000000000 1\n1 2\n"
    with pytest.raises(GraphParseError, match="dimension 100000000000 makes"):
        parse_edge_list(io.StringIO(text), format="matrix-market")


def test_parse_matrix_market_accepts_a_dimension_at_the_node_bound():
    bound = 2 * 1 + graph_module.NODE_SLACK
    text = MM_HEAD + f"{bound} {bound} 1\n1 {bound}\n"
    g = parse_edge_list(io.StringIO(text), format="matrix-market")
    assert g.n == bound and entries(g) == {(0, bound - 1)}
    text = MM_HEAD + f"{bound + 1} {bound + 1} 1\n1 2\n"
    with pytest.raises(GraphParseError, match=f"dimension {bound + 1} makes"):
        parse_edge_list(io.StringIO(text), format="matrix-market")


@pytest.mark.parametrize("alias", ["edgelist", "edges", "mtx", "mm", "matrix-market-pattern"])
def test_parse_accepts_only_the_two_format_names(alias):
    with pytest.raises(ValueError, match="unknown graph format"):
        parse_edge_list(["0 1"], format=alias)


def test_transpose_single_edge():
    g = directed_edge()
    t = transpose(g)
    assert entries(t) == {(1, 0)}
    assert entries(transpose(t)) == entries(g)


def test_transpose_undirected_identity():
    g = undirected_edge()
    assert entries(transpose(g)) == entries(g)


def test_transpose_directed_cycle():
    g = SparseGraph.from_edges(3, np.array([[0, 1], [1, 2], [2, 0]]), directed=True)
    t = transpose(g)
    assert entries(t) == {(1, 0), (2, 1), (0, 2)}


def test_row_column_stores_consistent():
    rng = np.random.default_rng(7)
    edges = rng.integers(0, 25, size=(80, 2))
    g = SparseGraph.from_edges(25, edges, directed=True)
    from_rows = entries(g)
    from_cols = set()
    for j in range(g.n):
        for i in g.column(j):
            from_cols.add((int(i), int(j)))
    assert from_rows == from_cols


def test_masked_matvec_empty_mask_gives_zero():
    g = directed_edge()
    y = ColumnMaskedOperator(g, np.array([], dtype=np.int64))(np.ones(2))
    assert np.array_equal(y, np.zeros(2))


def test_masked_matvec_single_column():
    g = directed_edge()
    mask = SampleSet(np.array([1]), "column", "random", 2)
    y = ColumnMaskedOperator(g, mask.indices)(np.array([0.0, 1.0]))
    assert np.array_equal(y, np.array([1.0, 0.0]))


def test_masked_matvec_full_mask_matches_dense():
    rng = np.random.default_rng(11)
    edges = rng.integers(0, 30, size=(140, 2))
    g = SparseGraph.from_edges(30, edges, directed=True)
    x_int = rng.integers(-5, 6, size=30).astype(np.float64)
    full = SampleSet(np.arange(30), "column", "random", 30)
    op = ColumnMaskedOperator(g, full.indices)
    assert np.array_equal(op(x_int), g.csr.toarray() @ x_int)
    x = rng.standard_normal(30)
    assert np.allclose(op(x), g.csr.toarray() @ x, rtol=1e-13, atol=1e-13)


def test_masked_matvec_dimension_mismatch():
    g = directed_edge()
    with pytest.raises(ValueError, match="shape"):
        ColumnMaskedOperator(g, np.array([0]))(np.ones(3))


def test_from_edges_refusals():
    with pytest.raises(ValueError, match="graph needs at least one node"):
        SparseGraph.from_edges(0, np.zeros((0, 2)), directed=True)
    for edge in ([0, 3], [-1, 0]):
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            SparseGraph.from_edges(3, np.array([edge]), directed=False)


def test_edge_list_round_trip():
    rng = np.random.default_rng(3)
    for directed in (True, False):
        edges = rng.integers(0, 15, size=(40, 2))
        g = SparseGraph.from_edges(15, edges, directed=directed)
        g2 = parse_edge_list(io.StringIO(edge_list_text(edges)), directed=directed)
        assert entries(g2) == entries(g)


def test_graph_arrays_immutable():
    g = directed_edge()
    with pytest.raises(ValueError):
        g.csc.indices[0] = 5
    loops = SparseGraph.from_edges(3, np.array([[0, 0], [0, 1], [2, 1]]), directed=False)
    for h in (g, transpose(g), loops):
        for arr in (h.csr.data, h.csr.indices, h.csr.indptr, h.csc.data, h.csc.indices, h.csc.indptr):
            with pytest.raises(ValueError):
                arr[0] = 5


def test_transpose_shares_memory():
    rng = np.random.default_rng(4)
    g = SparseGraph.from_edges(20, rng.integers(0, 20, size=(60, 2)), directed=True)
    t = transpose(g)
    for a, b in ((t.csr, g.csc), (t.csc, g.csr)):
        assert np.shares_memory(a.indices, b.indices)
        assert np.shares_memory(a.indptr, b.indptr)
        assert np.shares_memory(a.data, b.data)
    assert entries(t) == {(j, i) for i, j in entries(g)}


def test_undirected_graphs_share_one_array_set():
    # A = A^T, so the CSC arrays are the CSR arrays; a self-loop and a
    # duplicate edge (both orientations) must not break that
    edges = np.array([[0, 1], [1, 2], [2, 2], [3, 0], [1, 0], [2, 1], [4, 3]])
    for g in (
        SparseGraph.from_edges(5, edges, directed=False),
        parse_edge_list(io.StringIO(edge_list_text(edges)), directed=False),
    ):
        want = g.csr.tocsc()
        assert np.array_equal(g.csc.indices, want.indices)
        assert np.array_equal(g.csc.indptr, want.indptr)
        assert np.array_equal(g.csc.data, want.data)
        assert g.csc.has_sorted_indices
        assert all(np.all(np.diff(g.column(j)) > 0) for j in range(g.n))
        assert np.shares_memory(g.csc.indices, g.csr.indices)
        assert entries(transpose(g)) == entries(g)
        rows = sample_rows(g, 3, seed=1)
        assert rows.kind == "row" and len(rows) == 3


def _coo_store(n: int, edges: np.ndarray, directed: bool) -> sp.csr_matrix:
    """The store's CSR matrix by scipy's COO path: doubled edges for an
    undirected graph, float ones, then duplicates summed and reset to 1."""
    src, dst = edges[:, 0], edges[:, 1]
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    a = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    a.sum_duplicates()
    a.data[:] = 1.0
    return a


def test_from_edges_matches_set_reference():
    rng = np.random.default_rng(9)
    inputs = []
    for trial in range(30):
        n = int(rng.integers(1, 25))
        inputs.append((n, rng.integers(0, n, size=(int(rng.integers(0, 90)), 2))))
    # hub-heavy: most edges touch node 0 or 1, many repeat, some are loops
    hub = rng.integers(0, 40, size=(400, 2))
    hub[::2, 0] = 0
    hub[1::3, 1] = 1
    hub[::7, 1] = hub[::7, 0]
    inputs.append((40, np.concatenate([hub, hub[::5]])))
    for n, edges in inputs:
        for directed in (True, False):
            g = SparseGraph.from_edges(n, edges, directed=directed)
            pairs = {(int(i), int(j)) for i, j in edges}
            if directed:
                expected, distinct = pairs, len(pairs)
            else:
                expected = pairs | {(j, i) for i, j in pairs}
                distinct = len({frozenset(p) for p in pairs})
            assert g.n == n
            assert entries(g) == expected
            assert g.edge_count == len(expected)
            assert g.duplicates_collapsed == len(edges) - distinct
            for j in range(n):
                assert g.column(j).tolist() == sorted(i for i, jj in expected if jj == j)
            assert np.all(g.csr.data == 1.0) and np.all(g.csc.data == 1.0)
            for m in (g.csr, g.csc):
                assert m.has_canonical_format and m.has_sorted_indices
                assert m.indices.dtype == m.indptr.dtype == np.int32
            # the same arrays and dtypes as scipy's COO build of the store
            ref = _coo_store(n, edges, directed)
            for got, want in ((g.csr, ref), (g.csc, ref.tocsc())):
                for x, y in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
                    assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("repeats", [False, True])
def test_from_edges_peak_is_the_store_plus_one_key_per_entry(directed, repeats):
    import tracemalloc

    from sampled_centrality.cli import generate

    # the benchmark's 10^5-node PA graph, each edge once, and with a tenth of
    # its edges given twice
    pa = sp.triu(generate("pa:n=100000,m=5,seed=1").csr).tocoo()
    n, edges = pa.shape[0], np.column_stack([pa.row, pa.col]).astype(np.int64)
    twice = edges[::10] if repeats else edges[:0]
    edges = np.concatenate([edges, twice])
    del pa
    keys = len(edges) if directed else 2 * len(edges)
    tracemalloc.start()
    try:
        g = SparseGraph.from_edges(n, edges, directed=directed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = {a.ctypes.data: a for m in (g.csr, g.csc) for a in (m.data, m.indices, m.indptr)}
    store = sum(a.nbytes for a in arrays.values())
    assert g.duplicates_collapsed == len(twice)
    assert peak < store + 8 * keys


@pytest.mark.parametrize("directed", [False, True])
def test_matrix_market_peak_holds_no_scipy_arrays_through_the_build(directed):
    import tracemalloc

    from sampled_centrality.cli import generate

    # the benchmark's 10^5-node PA graph as a general Matrix Market file
    pa = sp.triu(generate("pa:n=100000,m=5,seed=1").csr).tocoo()
    n, m = pa.shape[0], pa.nnz
    entries = "".join(f"{r} {c}\n" for r, c in zip(pa.row + 1, pa.col + 1))
    source = io.StringIO(f"{MM_HEAD}{n} {n} {m}\n{entries}")
    del pa, entries
    keys = m if directed else 2 * m
    tracemalloc.start()
    try:
        g = parse_edge_list(source, format="matrix-market", directed=directed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = {a.ctypes.data: a for c in (g.csr, g.csc) for a in (c.data, c.indices, c.indptr)}
    store = sum(a.nbytes for a in arrays.values())
    # the store, one key per entry, and the (src, dst) pairs as read and as
    # int64: scipy's coordinate arrays, 16 more bytes per entry, are gone
    assert peak < store + 8 * keys + 24 * m


def test_from_edges_refuses_keys_beyond_int64_before_allocating():
    import tracemalloc

    assert graph_module.MAX_NODES == 3_037_000_499
    assert graph_module.MAX_NODES**2 - 1 < 2**63 <= (graph_module.MAX_NODES + 1) ** 2 - 1
    edge = np.array([[0, 1]])
    for directed in (True, False):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="3037000499"):
                SparseGraph.from_edges(3_037_000_500, edge, directed=directed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_benchmark_parse_check_reads_the_store():
    # the benchmark's ingest check reads the graph's row layout directly
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 1], [0, 1]])
    for directed in (True, False):
        text = "".join(f"{i} {j}\n" for i, j in edges)
        g = parse_edge_list(io.StringIO(text), directed=directed)
        assert checks.check_parsed(g, 4, edges, directed) == []
        short = SparseGraph.from_edges(4, edges[1:-1], directed=directed)
        assert checks.check_parsed(short, 4, edges, directed) != []


@requires_datasets
def test_paper_dataset_enron_counts():
    path = dataset_dir() / "enron-edges.txt"
    if not path.exists():
        pytest.skip("enron-edges.txt not present")
    with path.open() as handle:
        g = parse_edge_list(handle, directed=True)
    assert g.n == 69_244
    assert g.edge_count == 276_143
    assert np.count_nonzero(g.csr.diagonal()) == 1_535


@requires_datasets
def test_paper_dataset_ca_condmat_counts():
    path = dataset_dir() / "ca-CondMat.mtx"
    if not path.exists():
        pytest.skip("ca-CondMat.mtx not present")
    with path.open() as handle:
        g = parse_edge_list(handle, format="matrix-market")
    assert g.n == 23_133
    assert g.edge_count == 186_936
    assert np.count_nonzero(g.csr.diagonal()) == 58

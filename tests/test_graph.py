"""Graph ingestion, masking, and serialization round-trips."""

from __future__ import annotations

import io

import numpy as np
import pytest

from sampled_centrality import (
    ColumnMaskedOperator,
    GraphParseError,
    SampleSet,
    SparseGraph,
    parse_edge_list,
    remove_self_loops,
    transpose,
    write_edge_list,
)
from conftest import dataset_dir, directed_edge, requires_datasets, undirected_edge


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
    assert g.labels.tolist() == [1, 2, 3]


def test_parse_matrix_market_symmetric_expands():
    g = parse_edge_list(io.StringIO(MM_SYMMETRIC), format="matrix-market", directed=True)
    assert not g.directed  # symmetric header wins
    # three off-diagonal pairs stored twice plus one kept diagonal entry
    assert g.edge_count == 7
    assert g.column(0).tolist() == [1, 2, 3]


def test_parse_matrix_market_rejects_nonsquare():
    text = "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n"
    with pytest.raises(GraphParseError, match="not square"):
        parse_edge_list(io.StringIO(text), format="matrix-market")


def test_parse_matrix_market_coerces_values_to_one():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n"
    g = parse_edge_list(io.StringIO(text), format="matrix-market")
    assert g.dense()[0, 1] == 1.0


def test_remove_self_loops():
    g = parse_edge_list(["0 0", "0 1", "1 1"], directed=True)
    clean, removed = remove_self_loops(g)
    assert removed == 2
    assert clean.edge_count == 1
    assert clean.column(0).tolist() == []
    again, removed2 = remove_self_loops(clean)
    assert removed2 == 0
    assert again.entry_set() == clean.entry_set()


def test_remove_self_loops_keeps_undirected_flag():
    g = parse_edge_list(["0 0", "0 1"], directed=False)
    clean, removed = remove_self_loops(g)
    assert removed == 1
    assert not clean.directed
    assert clean.entry_set() == {(0, 1), (1, 0)}


def test_transpose_single_edge():
    g = directed_edge()
    t = transpose(g)
    assert t.entry_set() == {(1, 0)}
    assert transpose(t).entry_set() == g.entry_set()


def test_transpose_undirected_identity():
    g = undirected_edge()
    assert transpose(g).entry_set() == g.entry_set()


def test_transpose_directed_cycle():
    g = SparseGraph.from_edges(3, np.array([[0, 1], [1, 2], [2, 0]]), directed=True)
    t = transpose(g)
    assert t.entry_set() == {(1, 0), (2, 1), (0, 2)}


def test_row_column_stores_consistent():
    rng = np.random.default_rng(7)
    edges = rng.integers(0, 25, size=(80, 2))
    g = SparseGraph.from_edges(25, edges, directed=True)
    from_rows = g.entry_set()
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
    mask = SampleSet(np.array([1]), "column", "random", 0, 2)
    y = ColumnMaskedOperator(g, mask.indices)(np.array([0.0, 1.0]))
    assert np.array_equal(y, np.array([1.0, 0.0]))


def test_masked_matvec_full_mask_matches_dense():
    rng = np.random.default_rng(11)
    edges = rng.integers(0, 30, size=(140, 2))
    g = SparseGraph.from_edges(30, edges, directed=True)
    x_int = rng.integers(-5, 6, size=30).astype(np.float64)
    full = SampleSet(np.arange(30), "column", "random", 0, 30)
    op = ColumnMaskedOperator(g, full.indices)
    assert np.array_equal(op(x_int), g.dense() @ x_int)
    x = rng.standard_normal(30)
    assert np.allclose(op(x), g.dense() @ x, rtol=1e-13, atol=1e-13)


def test_masked_matvec_dimension_mismatch():
    g = directed_edge()
    with pytest.raises(ValueError, match="shape"):
        ColumnMaskedOperator(g, np.array([0]))(np.ones(3))


def test_edge_list_round_trip():
    rng = np.random.default_rng(3)
    for directed in (True, False):
        edges = rng.integers(0, 15, size=(40, 2))
        g = SparseGraph.from_edges(15, edges, directed=directed)
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        g2 = parse_edge_list(buf, directed=directed)
        assert g2.entry_set() == g.entry_set()


def test_graph_arrays_immutable():
    g = directed_edge()
    with pytest.raises(ValueError):
        g.col_rows[0] = 5


@requires_datasets
def test_paper_dataset_enron_counts():
    path = dataset_dir() / "enron-edges.txt"
    if not path.exists():
        pytest.skip("enron-edges.txt not present")
    with path.open() as handle:
        g = parse_edge_list(handle, directed=True)
    assert g.n == 69_244
    assert g.edge_count == 276_143
    clean, removed = remove_self_loops(g)
    assert removed == 1_535


@requires_datasets
def test_paper_dataset_ca_condmat_counts():
    path = dataset_dir() / "ca-CondMat.mtx"
    if not path.exists():
        pytest.skip("ca-CondMat.mtx not present")
    with path.open() as handle:
        g = parse_edge_list(handle, format="matrix-market")
    assert g.n == 23_133
    assert g.edge_count == 186_936
    clean, removed = remove_self_loops(g)
    assert removed == 58

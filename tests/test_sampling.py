"""Sampler determinism, the guided chain law, and its statistical behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from sampled_centrality import (
    SampleSet,
    SparseGraph,
    WeightVector,
    draw_categorical,
    sample_columns,
    sample_rows,
    transpose,
)
from conftest import dataset_dir, directed_edge, requires_datasets, star


def _random_graph(n=30, m=120, seed=5, directed=True):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    return SparseGraph.from_edges(n, edges, directed=directed)


def test_single_nonzero_column_always_selected():
    g = SparseGraph.from_edges(6, np.array([[0, 4], [2, 4]]), directed=True)
    for seed in range(10):
        s = sample_columns(g, 1, seed=seed)
        assert s.indices.tolist() == [4]


def test_determinism():
    g = _random_graph()
    for strategy in ("guided", "random"):
        a = sample_columns(g, 8, seed=42, strategy=strategy)
        b = sample_columns(g, 8, seed=42, strategy=strategy)
        assert a.indices.tolist() == b.indices.tolist()
        c = sample_columns(g, 8, seed=43, strategy=strategy)
        assert a.indices.tolist() != c.indices.tolist()


def test_indices_distinct_and_nonzero():
    g = _random_graph(seed=9)
    nz = set(g.nonzero_columns().tolist())
    for strategy in ("guided", "random"):
        s = sample_columns(g, 10, seed=3, strategy=strategy)
        assert len(set(s.indices.tolist())) == 10
        assert set(s.indices.tolist()) <= nz


def test_star_second_draw_is_center():
    # after a leaf is drawn the weight vector is e_center, so the center
    # must follow with probability 1
    g = star(3)
    seen_leaf_first = 0
    for seed in range(40):
        s = sample_columns(g, 2, seed=seed)
        if s.indices[0] != 0:
            seen_leaf_first += 1
            assert s.indices[1] == 0
    assert seen_leaf_first > 0


def test_frozen_weight_categorical_law():
    weights = np.array([2.0, 1.0, 1.0, 0.0])
    rng = np.random.default_rng(123)
    draws = np.array([draw_categorical(weights, rng) for _ in range(100_000)])
    freqs = np.bincount(draws, minlength=4) / draws.size
    assert abs(freqs[0] - 0.5) < 0.01
    assert abs(freqs[1] - 0.25) < 0.01
    assert abs(freqs[2] - 0.25) < 0.01
    assert freqs[3] == 0.0


def test_categorical_three_sigma_binomial():
    weights = np.array([5.0, 3.0, 0.0, 2.0])
    probs = weights / weights.sum()
    rng = np.random.default_rng(7)
    trials = 20_000
    draws = np.array([draw_categorical(weights, rng) for _ in range(trials)])
    freqs = np.bincount(draws, minlength=4) / trials
    for i, p in enumerate(probs):
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(freqs[i] - p) <= max(3 * sigma, 1e-12)


def test_categorical_rejects_bad_weights():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="zero"):
        draw_categorical(np.zeros(3), rng)
    with pytest.raises(ValueError, match="nonnegative"):
        draw_categorical(np.array([1.0, -1.0]), rng)


def test_guided_chain_weight_recomputation():
    g = _random_graph(seed=21)
    s = sample_columns(g, 12, seed=4)
    w = WeightVector.zeros(g.n)
    for j in s.indices:
        w.add_column(g, int(j))
    expected = np.zeros(g.n)
    for j in s.indices:
        expected[g.column(int(j))] += 1.0
    assert np.array_equal(w.weights, expected)
    # after every prefix the weight mass equals the total edges into the set
    assert w.total == sum(g.column(int(j)).size for j in s.indices)


def test_zero_weight_fallback_flagged():
    # two disjoint directed edges: after the first column the weight vector
    # has no mass on the other eligible column
    g = SparseGraph.from_edges(4, np.array([[0, 1], [2, 3]]), directed=True)
    s = sample_columns(g, 2, seed=0)
    assert set(s.indices.tolist()) == {1, 3}
    assert s.fallback_draws == 1


def test_ell_bounds_checked():
    g = directed_edge()  # a single nonzero column
    with pytest.raises(ValueError, match="ell"):
        sample_columns(g, 2, seed=0)
    with pytest.raises(ValueError, match="ell"):
        sample_columns(g, 0, seed=0)


def test_sample_rows_matches_transposed_columns():
    g = _random_graph(seed=33)
    rows = sample_rows(g, 6, seed=11)
    cols = sample_columns(transpose(g), 6, seed=11)
    assert rows.kind == "row"
    assert rows.indices.tolist() == cols.indices.tolist()


def test_sample_rows_single_nonzero_row():
    g = directed_edge()
    s = sample_rows(g, 1, seed=5)
    assert s.indices.tolist() == [0]


def test_symmetric_rows_equal_columns_law():
    g = _random_graph(seed=2, directed=False)
    for seed in range(5):
        rows = sample_rows(g, 7, seed=seed)
        cols = sample_columns(g, 7, seed=seed)
        assert rows.indices.tolist() == cols.indices.tolist()


def test_sampleset_validation():
    with pytest.raises(ValueError, match="distinct"):
        SampleSet(np.array([1, 1]), "column", "guided", 0, 5)
    with pytest.raises(ValueError, match="range"):
        SampleSet(np.array([7]), "column", "guided", 0, 5)
    with pytest.raises(ValueError, match="kind"):
        SampleSet(np.array([1]), "diagonal", "guided", 0, 5)


@requires_datasets
def test_paper_protocol_enron_row_sampling():
    from sampled_centrality import parse_edge_list, remove_self_loops

    path = dataset_dir() / "enron-edges.txt"
    if not path.exists():
        pytest.skip("enron-edges.txt not present")
    with path.open() as handle:
        g, _ = remove_self_loops(parse_edge_list(handle, directed=True))
    s = sample_rows(g, 3000, seed=0)
    assert len(set(s.indices.tolist())) == 3000
    assert np.all(g.row_degrees[s.indices] > 0)

"""Sampler determinism, the guided chain law, and its statistical behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from sampled_centrality import (
    SampleSet,
    SparseGraph,
    sample_columns,
    sample_rows,
    sampling,
    transpose,
)
from sampled_centrality.cli import generate
from conftest import dataset_dir, directed_edge, requires_datasets, star
from sampling_reference import draw_categorical


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


def test_categorical_rejects_non_finite_weights():
    # NaN and inf used to pass the sign check and return index n
    rng = np.random.default_rng(0)
    for bad in ([1.0, np.nan, 1.0], [1.0, np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            draw_categorical(np.array(bad), rng)


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


def test_sample_rows_refusal_counts_nonzero_rows():
    # one nonzero row against three nonzero columns
    g = SparseGraph.from_edges(4, np.array([[0, 1], [0, 2], [0, 3]]), directed=True)
    with pytest.raises(ValueError, match=r"^ell=2 outside \[1, 1\] \(nonzero rows\)$"):
        sample_rows(g, 2, seed=0)
    with pytest.raises(ValueError, match=r"^ell=0 outside \[1, 1\] \(nonzero rows\)$"):
        sample_rows(g, 0, seed=0)
    assert sample_columns(g, 3, seed=0).indices.size == 3


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
        SampleSet(np.array([1, 1]), "column", "guided", 5)
    with pytest.raises(ValueError, match="range"):
        SampleSet(np.array([7]), "column", "guided", 5)
    with pytest.raises(ValueError, match="kind"):
        SampleSet(np.array([1]), "diagonal", "guided", 5)


@requires_datasets
def test_paper_protocol_enron_row_sampling():
    from sampled_centrality import parse_edge_list

    path = dataset_dir() / "enron-edges.txt"
    if not path.exists():
        pytest.skip("enron-edges.txt not present")
    with path.open() as handle:
        g = parse_edge_list(handle, directed=True)
    s = sample_rows(g, 3000, seed=0)
    assert len(set(s.indices.tolist())) == 3000
    assert np.all(g.row_degrees[s.indices] > 0)


def _reference_guided(g, ell, seed):
    """The O(n)-per-draw guided loop over ``draw_categorical``, as it stood
    before the blocked search: (indices, fallback_draws)."""
    nz = g.nonzero_columns()
    rng = np.random.default_rng(seed)
    eligible = np.zeros(g.n, dtype=bool)
    eligible[nz] = True
    weights = np.zeros(g.n)
    fallback = 0
    j = int(nz[rng.integers(nz.size)])
    chosen = []
    while True:
        chosen.append(j)
        eligible[j] = False
        weights[g.column(j)] += 1.0
        if len(chosen) == ell:
            return chosen, fallback
        if weights[eligible].sum() == 0.0:
            pool = np.flatnonzero(eligible)
            j = int(pool[rng.integers(pool.size)])
            fallback += 1
        else:
            while True:
                j = draw_categorical(weights, rng)
                if eligible[j]:
                    break


class _BoundedRng:
    """A generator that fails after ``limit`` uniforms, so a rejection loop
    that never ends fails the test instead of hanging it."""

    def __init__(self, rng, limit=100_000):
        self._rng = rng
        self.left = limit

    def random(self):
        self.left -= 1
        if self.left < 0:
            raise AssertionError("guided sampler drew too many uniforms")
        return self._rng.random()

    def integers(self, high):
        return self._rng.integers(high)


def _equivalence_cases():
    """(label, graph, ell, seed, transposed) for the sampler equivalence test."""
    rng = np.random.default_rng(17)
    cases = []
    for n, m in ((30, 120), (200, 900), (1500, 6000)):
        g = _random_graph(n=n, m=m, seed=n)
        nz = g.nonzero_columns().size
        for seed in range(3):
            cases.append((f"directed n={n}", g, min(n // 3, nz), seed, False))
            rows = np.count_nonzero(g.row_degrees)
            cases.append((f"rows n={n}", g, min(n // 3, rows), seed, True))
        cases.append((f"directed n={n} ell=nz", g, nz, 7, False))
    for seed in range(4):
        g = generate(f"pa:n={300 + 100 * seed},m=3,seed={seed}")
        cases.append((f"pa seed={seed}", g, 60, seed, False))
    g = generate("pa:n=150,m=2,seed=9")
    cases.append(("pa ell=nz", g, g.nonzero_columns().size, 1, False))
    # weight on never-eligible zero columns: the source nodes 0..99 point
    # into 100..199, so draws on them are rejected
    src = rng.integers(0, 200, size=800)
    dst = rng.integers(100, 200, size=800)
    sources = SparseGraph.from_edges(200, np.column_stack([src, dst]), directed=True)
    for seed in range(3):
        cases.append(("zero-column weight", sources, 40, seed, False))
    cases.append(("zero-column weight ell=nz", sources, sources.nonzero_columns().size, 3, False))
    pairs = SparseGraph.from_edges(4, np.array([[0, 1], [2, 3]]), directed=True)
    cases.append(("two disjoint edges", pairs, 2, 0, False))
    # 60 disjoint triangles and 40 disjoint directed edges: many fallbacks
    tri = np.arange(180).reshape(60, 3)
    edges = np.vstack(
        [tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]], 180 + np.arange(80).reshape(40, 2)]
    )
    parts = SparseGraph.from_edges(260, edges, directed=True)
    for seed in range(3):
        cases.append(("components", parts, 100, seed, False))
        cases.append(("components rows", parts, 100, seed, True))
    cases.append(("components ell=nz", parts, parts.nonzero_columns().size, 4, False))
    # self-loops on every fifth node
    diagonal = np.repeat(np.arange(0, 100, 5), 2).reshape(-1, 2)
    loops = np.vstack([rng.integers(0, 100, size=(300, 2)), diagonal])
    looped = SparseGraph.from_edges(100, loops, directed=True)
    for seed in range(3):
        cases.append(("self-loops", looped, 30, seed, False))
    cases.append(("self-loops ell=nz", looped, looped.nonzero_columns().size, 5, False))
    return cases


def test_guided_sampler_matches_the_o_n_loop(monkeypatch):
    cases = _equivalence_cases()
    assert len(cases) >= 30
    real_rng = np.random.default_rng
    monkeypatch.setattr(sampling.np.random, "default_rng", lambda s: _BoundedRng(real_rng(s)))
    fallbacks = 0
    for label, g, ell, seed, rows in cases:
        target = transpose(g) if rows else g
        expected, expected_fallback = _reference_guided(target, ell, seed)
        s = (sample_rows if rows else sample_columns)(g, ell, seed)
        assert s.indices.tolist() == expected, label
        assert s.fallback_draws == expected_fallback, label
        fallbacks += s.fallback_draws
    assert fallbacks > 0


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
from sampling_reference import guided_reference, next_pick_law


def _random_graph(n=30, m=120, seed=5, directed=True):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    return SparseGraph.from_edges(n, edges, directed=directed)


def _clique_with_path(k, length):
    """The clique K_k with a path of ``length`` more nodes hung from node 0.

    Once the sample holds the clique, nearly every entry of its columns
    points back into it, so the guided sampler has to drop spent entries.
    """
    clique = np.argwhere(np.triu(np.ones((k, k), dtype=bool), 1))
    path = np.column_stack([np.r_[0, np.arange(k, k + length - 1)], np.arange(k, k + length)])
    return SparseGraph.from_edges(k + length, np.vstack([clique, path]), directed=False)


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


def _assert_last_pick_law(g, ell, runs):
    """Check the last pick of ``runs`` guided samples of ``ell`` columns
    against ``next_pick_law`` of the picks before it, within 5 sigma; return
    the counts of each last pick, keyed by those earlier picks."""
    counts = {}
    for seed in range(runs):
        *prefix, last = sample_columns(g, ell, seed).indices.tolist()
        counts.setdefault(tuple(prefix), np.zeros(g.n))[last] += 1
    for prefix, seen in counts.items():
        law = next_pick_law(g, prefix)
        trials = seen.sum()
        sigma = np.sqrt(trials * law * (1 - law))
        assert np.all(np.abs(seen - trials * law) <= 5.0 * sigma), prefix
    return counts


def test_second_pick_law():
    # node 5 is a zero column and node 2 has a self-loop, so draws onto the
    # first pick itself or onto 5 are redrawn; column 4 is empty but for an
    # edge from 5, so after it the pick falls back to uniform
    edges = np.array(
        [[1, 0], [2, 0], [3, 0], [5, 0], [0, 1], [2, 1], [2, 2], [3, 2], [0, 3], [5, 4]]
    )
    g = SparseGraph.from_edges(6, edges, directed=True)
    nz = g.nonzero_columns()
    runs = 12_000
    counts = _assert_last_pick_law(g, 2, runs)
    firsts = np.array([counts[(j,)].sum() for j in nz])
    p = 1.0 / nz.size
    assert np.all(np.abs(firsts - runs * p) <= 5.0 * np.sqrt(runs * p * (1 - p)))
    assert next_pick_law(g, [4]).tolist() == [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]


def test_third_pick_law_after_compaction():
    # nodes 6..9 are zero columns pointing into 0 and 1, so after the picks
    # 0 then 1 most of their entries are spent and the buffer is compacted
    # before the second and the third pick; node 2 then has weight 2 against
    # 1 for nodes 3 and 4, so the law is not uniform over the kept rows
    sources = [[s, t] for s in range(6, 10) for t in (0, 1)]
    edges = np.array(
        sources + [[2, 0], [3, 0], [1, 0], [2, 1], [4, 1], [0, 1], [0, 2], [1, 3], [5, 4], [3, 5]]
    )
    g = SparseGraph.from_edges(10, edges, directed=True)
    assert next_pick_law(g, [0, 1]).tolist()[2:5] == [0.5, 0.25, 0.25]
    assert [guided_reference(g, 3, seed)[2] for seed in range(60)].count(2) > 0
    assert _assert_last_pick_law(g, 3, 12_000)[0, 1].sum() > 300


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


def test_unknown_strategy_is_refused():
    with pytest.raises(ValueError, match="unknown strategy 'greedy'"):
        sample_columns(_random_graph(), 4, seed=0, strategy="greedy")


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


class _BoundedRng:
    """A generator that fails after ``limit`` uniforms, so a rejection loop
    that never ends fails the test instead of hanging it.  ``drawn`` counts
    the uniforms handed out, one per value."""

    def __init__(self, rng, limit=100_000):
        self._rng = rng
        self.drawn = 0
        self.limit = limit

    def random(self, size=None):
        self.drawn += 1 if size is None else size
        if self.drawn > self.limit:
            raise AssertionError("guided sampler drew too many uniforms")
        return self._rng.random(size)

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
    # past the clique, most entries are spent and the buffer is compacted
    hung = _clique_with_path(40, 10)
    for seed in range(3):
        cases.append(("clique and path", hung, 45, seed, False))
    return cases


def test_guided_sampler_matches_the_o_n_loop(monkeypatch):
    # the reference makes one scalar random() per draw and the sampler draws
    # them ell at a time, so this also checks that random(size) gives the
    # values of that many scalar calls
    cases = _equivalence_cases()
    assert len(cases) >= 30
    expected = [
        guided_reference(transpose(g) if rows else g, ell, seed) for _, g, ell, seed, rows in cases
    ]
    made = []
    real_rng = np.random.default_rng

    def bounded(seed):
        made.append(_BoundedRng(real_rng(seed)))
        return made[-1]

    monkeypatch.setattr(sampling.np.random, "default_rng", bounded)
    fallbacks = 0
    past_one_chunk = 0
    for (label, g, ell, seed, rows), (indices, fallback, _) in zip(cases, expected):
        made.clear()
        s = (sample_rows if rows else sample_columns)(g, ell, seed)
        assert s.indices.tolist() == indices, label
        assert s.fallback_draws == fallback, label
        fallbacks += s.fallback_draws
        past_one_chunk += sum(rng.drawn for rng in made) > ell
    assert fallbacks > 0
    assert past_one_chunk > 0
    assert sum(compactions for _, _, compactions in expected) > 0


def test_guided_tries_stay_bounded_past_a_dense_region(monkeypatch):
    # once the sample holds K_1000, about one entry in 10^6 of its columns
    # has an eligible row; dropping spent entries keeps a pick to at most 2
    # tries on average, so ell 1100 needs a few chunks of ell uniforms
    g = _clique_with_path(1000, 100)
    ell = 1100
    real_rng = np.random.default_rng
    bounded = lambda seed: _BoundedRng(real_rng(seed), limit=4 * ell)
    monkeypatch.setattr(sampling.np.random, "default_rng", bounded)
    s = sample_columns(g, ell, 1)
    assert sorted(s.indices.tolist()) == list(range(g.n))
    assert s.fallback_draws == 0

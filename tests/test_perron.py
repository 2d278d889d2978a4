"""Implicit-product power iteration and its contracts."""

from __future__ import annotations

import numpy as np
import pytest

from sampled_centrality import (
    PerronConfig,
    RankDeficientProductError,
    SampleSet,
    SparseGraph,
    dense_left_perron,
    left_perron,
    sample_columns,
    sample_rows,
    symmetric_perron,
)
from sampled_centrality.perron import (
    power_iteration,
    product_transpose_apply,
)
from conftest import (
    directed_path,
    directed_two_cycle,
    full_column_sample,
    full_row_sample,
    path3,
    star,
    triangle,
)


def _strongly_connected_digraph(n, p, seed):
    import scipy.sparse.csgraph as csgraph

    for attempt in range(60):
        rng = np.random.default_rng(seed * 97 + attempt)
        block = rng.random((n, n)) < p
        np.fill_diagonal(block, False)
        rows, cols = np.nonzero(block)
        g = SparseGraph.from_edges(n, np.column_stack([rows, cols]), directed=True)
        ncomp, _ = csgraph.connected_components(g.csr, directed=True, connection="strong")
        if ncomp == 1:
            return g
    raise AssertionError("could not generate a strongly connected digraph")


def test_left_perron_triangle_full_sampling():
    g = triangle()
    res = left_perron(g, full_column_sample(g), full_row_sample(g))
    assert np.allclose(res.vector, np.ones(3) / np.sqrt(3), atol=1e-10)
    assert res.eigenvalue_estimate == pytest.approx(4.0, abs=1e-8)
    assert res.converged
    assert res.residual <= 1e-8


def test_left_perron_two_cycle_with_epsilon():
    g = directed_two_cycle()
    cfg = PerronConfig(epsilon=1e-6)
    res = left_perron(g, full_column_sample(g), full_row_sample(g), cfg)
    assert np.allclose(res.vector, np.ones(2) / np.sqrt(2), atol=1e-10)
    assert res.eigenvalue_estimate == pytest.approx(1.0 + 2e-6, abs=1e-9)
    assert res.converged
    assert res.residual <= 1e-8


def test_left_perron_two_cycle_without_epsilon_stagnates():
    # the implicit product is the identity: the start vector is an exact
    # fixed point and the note flags the possible non-simple eigenvalue
    g = directed_two_cycle()
    res = left_perron(g, full_column_sample(g), full_row_sample(g))
    assert res.converged
    assert res.iterations == 1
    assert res.note is not None
    assert np.allclose(res.vector, np.ones(2) / np.sqrt(2))
    assert res.residual <= 1e-8


def test_left_perron_period_two_exit_is_exact_eigenvector():
    # from the uniform start, M^T = (A^2)^T alternates between two directions
    # with unequal gains (0.853 and 1.173, product 1); the shifted iteration
    # converges to the lambda = 1 eigenvector all the same
    edges = np.array([(0, 4), (1, 3), (3, 0), (3, 2), (4, 5), (5, 3)])
    g = SparseGraph.from_edges(6, edges, directed=True)
    J = full_column_sample(g)
    I = full_row_sample(g)
    assert left_perron(g, J, I).converged
    res = left_perron(g, J, I, PerronConfig(tol=1e-12))
    assert res.converged
    assert res.note is None
    assert res.eigenvalue_estimate == pytest.approx(1.0, abs=1e-12)
    apply = product_transpose_apply(g, J, I)
    residual = apply(res.vector) - res.eigenvalue_estimate * res.vector
    assert np.linalg.norm(residual) <= 1e-12
    assert np.all(res.vector >= 0.0)
    assert res.residual <= 1e-8


def _dense_stream_er(n: int, p: float, seed: int) -> SparseGraph:
    """The digraph that ``er:`` specs gave before the generator became O(n + m):
    entry (i, j), i != j, wherever the uniform of slot i*n + j is below p."""
    rng = np.random.default_rng(seed)
    edges = []
    rows_per_block = max(1, 2_000_000 // n)
    for start in range(0, n, rows_per_block):
        rows, cols = np.nonzero(rng.random((min(rows_per_block, n - start), n)) < p)
        rows += start
        keep = rows != cols
        edges.append(np.column_stack([rows[keep], cols[keep]]))
    return SparseGraph.from_edges(n, np.vstack(edges), directed=True)


def test_left_perron_guided_er_cycle_exits_early():
    # a guided 300-node product of a sparse ER digraph whose unshifted
    # uniform-start iterates alternate forever
    g = _dense_stream_er(5000, 0.002, seed=1)
    J = sample_columns(g, 300, 17, "guided")
    I = sample_rows(g, 300, 18, "guided")
    apply = product_transpose_apply(g, J, I)
    # the premise: after 100 unshifted steps the iterates alternate with period 2
    iterates = [np.full(g.n, 1.0 / np.sqrt(g.n))]
    for _ in range(102):
        w = apply(iterates[-1])
        iterates.append(w / np.linalg.norm(w))
    assert np.linalg.norm(iterates[102] - iterates[100]) <= 1e-12
    assert np.linalg.norm(iterates[101] - iterates[100]) >= 0.1
    assert left_perron(g, J, I).converged
    res = left_perron(g, J, I, PerronConfig(tol=1e-12))
    assert res.converged
    assert res.note is None
    lam = res.eigenvalue_estimate
    assert np.linalg.norm(apply(res.vector) - lam * res.vector) <= 1e-12 * lam
    assert res.residual <= 1e-8


def test_power_iteration_longer_cycles_exit_exactly():
    # complete bipartite links between successive layers of a ring of h
    # layers of unequal sizes: every cycle length is a multiple of h, and the
    # unshifted uniform start cycles through h directions with unequal gains
    for sizes in ((1, 2, 3, 1), (2, 1, 3, 1, 2), (1, 2, 1, 3, 1, 2, 1, 2)):
        h = len(sizes)
        first = np.cumsum((0,) + sizes)
        layers = [np.arange(first[k], first[k + 1]) for k in range(h)]
        edges = [(i, j) for k in range(h) for i in layers[k] for j in layers[(k + 1) % h]]
        g = SparseGraph.from_edges(int(first[-1]), np.array(edges), directed=True)
        at = g.csr.T.toarray()
        assert power_iteration(lambda v: at @ v, g.n, PerronConfig()).converged
        res = power_iteration(lambda v: at @ v, g.n, PerronConfig(tol=1e-12))
        assert res.converged
        assert res.note is None
        rho = float(np.max(np.abs(np.linalg.eigvals(at))))
        lam = res.eigenvalue_estimate
        assert abs(lam - rho) <= 1e-12 * rho
        assert np.linalg.norm(at @ res.vector - lam * res.vector) <= 1e-12 * lam
        assert res.residual <= 1e-8


def test_power_iteration_records_the_residual_of_an_undetected_cycle():
    # a ring of nine layers: the unshifted iterates cycle with period 9, the
    # shifted ones converge, and the recorded residual is that of the vector
    sizes = (1, 2, 1, 2, 1, 2, 1, 2, 1)
    h = len(sizes)
    first = np.cumsum((0,) + sizes)
    layers = [np.arange(first[k], first[k + 1]) for k in range(h)]
    edges = [(i, j) for k in range(h) for i in layers[k] for j in layers[(k + 1) % h]]
    g = SparseGraph.from_edges(int(first[-1]), np.array(edges), directed=True)
    assert dense_left_perron(g).converged
    res = dense_left_perron(g, tol=1e-12)
    assert res.converged
    assert res.note is None
    at = g.csr.T.toarray()
    rho = float(np.max(np.abs(np.linalg.eigvals(at))))
    lam = res.eigenvalue_estimate
    assert abs(lam - rho) <= 1e-12 * rho
    gap = np.linalg.norm(at @ res.vector - lam * res.vector) / lam
    assert res.residual == pytest.approx(gap, rel=1e-12)
    assert res.residual <= 1e-12
    assert res.metadata()["residual"] == res.residual


def test_symmetric_perron_triangle():
    g = triangle()
    res = symmetric_perron(g, full_column_sample(g))
    assert np.allclose(res.vector, np.ones(3) / np.sqrt(3), atol=1e-8)
    assert res.eigenvalue_estimate == pytest.approx(4.0, abs=1e-8)
    assert res.residual <= 1e-8


def test_symmetric_perron_star_degenerate_product():
    # the squared star has a two-dimensional dominant eigenspace; the
    # uniform start is already one of its eigenvectors, with eigenvalue 3
    g = star(3)
    res = symmetric_perron(g, full_column_sample(g))
    assert res.converged
    assert res.eigenvalue_estimate == pytest.approx(3.0, abs=1e-8)
    J = full_column_sample(g)
    apply = product_transpose_apply(g, J, J)
    residual = apply(res.vector) - res.eigenvalue_estimate * res.vector
    assert np.linalg.norm(residual) <= 1e-8
    assert res.residual <= 1e-8


def test_symmetric_perron_path_degenerate_product():
    g = path3()
    res = symmetric_perron(g, full_column_sample(g))
    assert res.eigenvalue_estimate == pytest.approx(2.0, abs=1e-8)
    J = full_column_sample(g)
    apply = product_transpose_apply(g, J, J)
    residual = apply(res.vector) - res.eigenvalue_estimate * res.vector
    assert np.linalg.norm(residual) <= 1e-8
    assert res.residual <= 1e-8


def test_symmetric_perron_rejects_directed():
    g = directed_two_cycle()
    with pytest.raises(ValueError, match="undirected"):
        symmetric_perron(g, full_column_sample(g))


def test_kind_validation():
    g = triangle()
    J = full_column_sample(g)
    I = full_row_sample(g)
    with pytest.raises(ValueError, match="row"):
        left_perron(g, J, J)
    with pytest.raises(ValueError, match="column"):
        left_perron(g, I, I)
    with pytest.raises(ValueError, match="column"):
        symmetric_perron(g, I)
    other = SampleSet(np.array([0]), "column", "guided", g.n + 1)
    with pytest.raises(ValueError, match="sample dimension does not match the graph"):
        left_perron(g, other, I)
    with pytest.raises(ValueError, match="sample dimension does not match the graph"):
        symmetric_perron(g, other)


def test_unit_norm_and_nonnegative():
    for seed in range(3):
        g = _strongly_connected_digraph(40, 0.12, seed)
        res = left_perron(g, full_column_sample(g), full_row_sample(g))
        assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12
        assert np.all(res.vector >= 0.0)


def test_residual_invariant_implicit_product():
    g = _strongly_connected_digraph(60, 0.1, seed=5)
    J = full_column_sample(g)
    I = full_row_sample(g)
    cfg = PerronConfig(epsilon=1e-8, tol=1e-11)
    res = left_perron(g, J, I, cfg)
    assert res.converged
    apply = product_transpose_apply(g, J, I, cfg.epsilon)
    residual = np.linalg.norm(apply(res.vector) - res.eigenvalue_estimate * res.vector)
    assert residual <= cfg.tol * max(res.eigenvalue_estimate, 1.0)
    assert res.residual <= 1e-8


def test_full_sampling_matches_dense_oracle():
    for seed in range(5):
        g = _strongly_connected_digraph(50, 0.12, seed)
        res = left_perron(g, full_column_sample(g), full_row_sample(g), PerronConfig(tol=1e-12))
        oracle = dense_left_perron(g, tol=1e-12)
        assert oracle.converged
        assert res.residual <= 1e-8 and oracle.residual <= 1e-8
        cosine = float(res.vector @ oracle.vector)
        assert cosine >= 1.0 - 1e-8


def test_ranking_invariance_under_epsilon():
    for seed in range(3):
        g = _strongly_connected_digraph(30, 0.15, seed)
        J = full_column_sample(g)
        I = full_row_sample(g)
        base = left_perron(g, J, I, PerronConfig(epsilon=0.0, tol=1e-12))
        perturbed = left_perron(g, J, I, PerronConfig(epsilon=1e-8, tol=1e-12))
        assert np.array_equal(np.argsort(-base.vector), np.argsort(-perturbed.vector))


def test_rank_deficient_product_raises():
    # M = A_cols({1}) @ A_rows({0}) vanishes for the single directed edge
    g = SparseGraph.from_edges(2, np.array([[0, 1]]), directed=True)
    J = SampleSet(np.array([1]), "column", "guided", 2)
    I = SampleSet(np.array([0]), "row", "guided", 2)
    with pytest.raises(RankDeficientProductError, match=r"iterate 1 collapsed .* epsilon > 0"):
        left_perron(g, J, I)
    assert left_perron(g, J, I, PerronConfig(epsilon=1e-3)).converged


def test_nilpotent_product_raises_where_its_power_vanishes():
    # on the path 0 -> 1 -> 2 -> 3, J = I = {1, 2} gives M = e0 e2^T + e1 e3^T:
    # M is nonzero but M^2 = 0, and A^4 = 0 while A^3 is not
    g = directed_path(4)
    J = SampleSet(np.array([1, 2]), "column", "guided", 4)
    I = SampleSet(np.array([1, 2]), "row", "guided", 4)
    with pytest.raises(RankDeficientProductError, match="iterate 2 collapsed"):
        left_perron(g, J, I)
    with pytest.raises(RankDeficientProductError, match="iterate 4 collapsed"):
        dense_left_perron(g)


def test_perturbed_product_needs_no_extra_applications():
    # with epsilon > 0 the support test settles on the first image
    g = _strongly_connected_digraph(40, 0.12, seed=2)
    J = sample_columns(g, 10, 1, "guided")
    I = sample_rows(g, 10, 2, "guided")
    apply = product_transpose_apply(g, J, I, 1e-3)
    calls = []

    def counted(v):
        calls.append(1)
        return apply(v)

    res = power_iteration(counted, g.n, PerronConfig(epsilon=1e-3))
    assert res.converged
    assert len(calls) <= res.iterations + 1


def test_implicit_product_matches_dense_product():
    g = _strongly_connected_digraph(25, 0.2, seed=9)
    rng = np.random.default_rng(4)
    Jidx = np.sort(rng.choice(g.nonzero_columns(), size=8, replace=False))
    Iidx = np.sort(rng.choice(np.flatnonzero(g.row_degrees), size=8, replace=False))
    J = SampleSet(Jidx, "column", "random", g.n)
    I = SampleSet(Iidx, "row", "random", g.n)
    a = g.csr.toarray()
    keep_j = np.zeros(g.n)
    keep_j[Jidx] = 1.0
    keep_i = np.zeros(g.n)
    keep_i[Iidx] = 1.0
    m = (a * keep_j[np.newaxis, :]) @ (a * keep_i[:, np.newaxis])
    epsilon = 1e-5
    apply = product_transpose_apply(g, J, I, epsilon)
    v = rng.random(g.n)
    expected = (m + epsilon * np.ones((g.n, g.n))).T @ v
    assert np.allclose(apply(v), expected, atol=1e-12)


def test_perron_result_serialization():
    import json

    g = triangle()
    res = symmetric_perron(g, full_column_sample(g))
    record = json.loads(json.dumps(res.metadata()))
    assert record["converged"] is True
    assert record["iterations"] == res.iterations
    assert record["residual"] == res.residual <= 1e-8
    assert res.vector.shape == (3,)


def test_config_validation():
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="epsilon"):
            PerronConfig(epsilon=bad)
    with pytest.raises(ValueError):
        PerronConfig(tol=0.0)

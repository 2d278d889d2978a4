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
from sampled_centrality.cli import generate
from sampled_centrality.perron import product_transpose_apply, symmetric_product_apply
from conftest import (
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


def test_left_perron_two_cycle_with_epsilon():
    g = directed_two_cycle()
    cfg = PerronConfig(epsilon=1e-6)
    res = left_perron(g, full_column_sample(g), full_row_sample(g), cfg)
    assert np.allclose(res.vector, np.ones(2) / np.sqrt(2), atol=1e-10)
    assert res.eigenvalue_estimate == pytest.approx(1.0 + 2e-6, abs=1e-9)
    assert res.converged


def test_left_perron_two_cycle_without_epsilon_stagnates():
    # the implicit product is the identity: the start vector is an exact
    # fixed point and the note flags the possible non-simple eigenvalue
    g = directed_two_cycle()
    res = left_perron(g, full_column_sample(g), full_row_sample(g))
    assert res.converged
    assert res.iterations == 1
    assert res.note is not None
    assert np.allclose(res.vector, np.ones(2) / np.sqrt(2))


def test_left_perron_period_two_exit_is_exact_eigenvector():
    # from the uniform start, M^T = (A^2)^T alternates between two directions
    # with unequal gains (0.853 and 1.173, product 1): the exit must weigh
    # them by the square roots of the gains to hit the lambda = 1 eigenvector
    edges = np.array([(0, 4), (1, 3), (3, 0), (3, 2), (4, 5), (5, 3)])
    g = SparseGraph.from_edges(6, edges, directed=True)
    J = full_column_sample(g)
    I = full_row_sample(g)
    res = left_perron(g, J, I, PerronConfig(epsilon=0.0))
    assert res.iterations <= 10
    assert not res.converged
    assert "oscillation" in res.note
    assert res.eigenvalue_estimate == pytest.approx(1.0, abs=1e-12)
    apply = product_transpose_apply(g, J, I)
    residual = apply(res.vector) - res.eigenvalue_estimate * res.vector
    assert np.linalg.norm(residual) <= 1e-12
    assert np.all(res.vector >= 0.0)


def test_left_perron_guided_er_cycle_exits_early():
    # a guided 300-node product of a sparse ER digraph whose uniform-start
    # iterates alternate forever; the exit stops within a few iterations
    g = generate("er:n=5000,p=0.002,seed=1")
    J = sample_columns(g, 300, 3, "guided")
    I = sample_rows(g, 300, 4, "guided")
    res = left_perron(g, J, I, PerronConfig(epsilon=0.0))
    assert res.iterations <= 20
    assert not res.converged
    assert "oscillation" in res.note
    apply = product_transpose_apply(g, J, I)
    lam = res.eigenvalue_estimate
    assert np.linalg.norm(apply(res.vector) - lam * res.vector) <= 1e-12 * lam


def test_symmetric_perron_triangle():
    g = triangle()
    res = symmetric_perron(g, full_column_sample(g))
    assert np.allclose(res.vector, np.ones(3) / np.sqrt(3), atol=1e-8)
    assert res.eigenvalue_estimate == pytest.approx(4.0, abs=1e-8)


def test_symmetric_perron_star_degenerate_product():
    # the squared star has a two-dimensional dominant eigenspace; the
    # uniform start is already one of its eigenvectors, with eigenvalue 3
    g = star(3)
    res = symmetric_perron(g, full_column_sample(g))
    assert res.converged
    assert res.eigenvalue_estimate == pytest.approx(3.0, abs=1e-8)
    apply = symmetric_product_apply(g, full_column_sample(g))
    residual = apply(res.vector) - res.eigenvalue_estimate * res.vector
    assert np.linalg.norm(residual) <= 1e-8


def test_symmetric_perron_path_degenerate_product():
    g = path3()
    res = symmetric_perron(g, full_column_sample(g))
    assert res.eigenvalue_estimate == pytest.approx(2.0, abs=1e-8)
    apply = symmetric_product_apply(g, full_column_sample(g))
    residual = apply(res.vector) - res.eigenvalue_estimate * res.vector
    assert np.linalg.norm(residual) <= 1e-8


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


def test_full_sampling_matches_dense_oracle():
    for seed in range(5):
        g = _strongly_connected_digraph(50, 0.12, seed)
        res = left_perron(g, full_column_sample(g), full_row_sample(g), PerronConfig(tol=1e-12))
        oracle = dense_left_perron(g, tol=1e-12)
        assert oracle.converged
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
    J = SampleSet(np.array([1]), "column", "guided", 0, 2)
    I = SampleSet(np.array([0]), "row", "guided", 0, 2)
    with pytest.raises(RankDeficientProductError):
        left_perron(g, J, I)


def test_implicit_product_matches_dense_product():
    g = _strongly_connected_digraph(25, 0.2, seed=9)
    rng = np.random.default_rng(4)
    Jidx = np.sort(rng.choice(g.nonzero_columns(), size=8, replace=False))
    Iidx = np.sort(rng.choice(g.nonzero_rows(), size=8, replace=False))
    J = SampleSet(Jidx, "column", "random", 0, g.n)
    I = SampleSet(Iidx, "row", "random", 0, g.n)
    a = g.dense()
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
    assert res.vector.shape == (3,)


def test_config_validation():
    with pytest.raises(ValueError):
        PerronConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        PerronConfig(tol=0.0)

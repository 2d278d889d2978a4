"""Dense and full-Krylov reference computations."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from sampled_centrality import (
    EvaluationError,
    SparseGraph,
    dense_left_perron,
    dense_matfun,
    exp_minus_one,
    krylov_full_matfun,
    resolvent_minus_one,
)
from conftest import (
    directed_path,
    directed_two_cycle,
    path3,
    rel_err,
    star,
    triangle,
    undirected_edge,
)


def _random_symmetric_graph(n, seed, m=None):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m or 4 * n, 2))
    return SparseGraph.from_edges(n, edges, directed=False)


def test_dense_matfun_zero_matrix():
    out = dense_matfun(np.zeros((1, 1)), exp_minus_one(1.0))
    assert out.tolist() == [[0.0]]


def test_dense_matfun_two_cycle_closed_form():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = dense_matfun(a, exp_minus_one(1.0))
    c, s = np.cosh(1.0) - 1.0, np.sinh(1.0)
    assert np.allclose(out, [[c, s], [s, c]], atol=1e-14)


def test_dense_matfun_nilpotent_terminates():
    g = directed_path(3)
    a = g.dense()
    out = dense_matfun(a, exp_minus_one(1.0))
    assert np.allclose(out, a + a @ a / 2.0, atol=1e-15)


def test_dense_matfun_resolvent_requires_convergent_gamma():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])  # rho = 1
    with pytest.raises(EvaluationError, match="diverges"):
        dense_matfun(a, resolvent_minus_one(1.0))
    out = dense_matfun(a, resolvent_minus_one(0.5))
    assert np.allclose(out, [[1.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]], atol=1e-14)


def test_dense_matfun_cap():
    with pytest.raises(EvaluationError, match="capped"):
        dense_matfun(np.zeros((11, 11)), exp_minus_one(1.0), dense_cap=10)


def test_dense_exponential_semigroup_property():
    rng = np.random.default_rng(15)
    for seed in range(3):
        n = int(rng.integers(10, 50))
        a = (rng.random((n, n)) < 0.2).astype(float)
        np.fill_diagonal(a, 0.0)
        forward = dense_matfun(a, exp_minus_one(1.0)) + np.eye(n)
        backward = sla.expm(-a)
        assert np.max(np.abs(forward @ backward - np.eye(n))) <= 1e-8


def test_dense_resolvent_identity():
    rng = np.random.default_rng(31)
    n = 30
    a = (rng.random((n, n)) < 0.15).astype(float)
    np.fill_diagonal(a, 0.0)
    rho = np.max(np.abs(np.linalg.eigvals(a)))
    gamma = 0.5 / max(rho, 1.0)
    r = dense_matfun(a, resolvent_minus_one(gamma))
    assert np.max(np.abs((np.eye(n) - gamma * a) @ (r + np.eye(n)) - np.eye(n))) <= 1e-10


def test_krylov_full_two_cycle_exact_at_two_steps():
    g = undirected_edge()
    ref = krylov_full_matfun(g, 2, exp_minus_one(1.0), seed=3)
    c = np.cosh(1.0) - 1.0
    assert np.allclose(ref.diag, [c, c], atol=1e-10)


def test_krylov_full_exact_at_full_dimension():
    # P3 has three distinct eigenvalues, so k = n spans everything
    g = path3()
    ref = krylov_full_matfun(g, 3, exp_minus_one(1.0), seed=1)
    exact = np.diagonal(dense_matfun(g.dense(), exp_minus_one(1.0)))
    assert ref.steps == 3
    assert rel_err(ref.diag, exact) <= 1e-8


def test_krylov_full_truncates_at_early_breakdown():
    # the triangle Krylov space is exhausted after two steps (minimal
    # polynomial degree 2); the truncation is reported
    g = triangle()
    ref = krylov_full_matfun(g, 3, exp_minus_one(1.0), seed=1)
    assert ref.breakdown
    assert ref.steps == 2


def test_krylov_full_diag_converges_with_k():
    f = exp_minus_one(1.0)
    better = 0
    for seed in range(10):
        g = _random_symmetric_graph(100, seed=seed + 50)
        exact = np.diagonal(dense_matfun(g.dense(), f))
        e80 = np.max(np.abs(krylov_full_matfun(g, 80, f, seed=seed).diag - exact))
        e100 = np.max(np.abs(krylov_full_matfun(g, 100, f, seed=seed).diag - exact))
        if e100 <= e80:
            better += 1
    assert better >= 8


def test_krylov_full_k_bounds():
    g = triangle()
    with pytest.raises(ValueError):
        krylov_full_matfun(g, 0, exp_minus_one(1.0))
    with pytest.raises(ValueError):
        krylov_full_matfun(g, 4, exp_minus_one(1.0))


def test_dense_left_perron_triangle():
    res = dense_left_perron(triangle())
    assert np.allclose(res.vector, np.ones(3) / np.sqrt(3), atol=1e-10)
    assert res.eigenvalue_estimate == pytest.approx(2.0, abs=1e-10)
    assert res.converged


def test_dense_left_perron_star_bipartite_average():
    res = dense_left_perron(star(3))
    expected = np.array([np.sqrt(3.0), 1.0, 1.0, 1.0]) / np.sqrt(6.0)
    assert np.allclose(res.vector, expected, atol=1e-8)
    assert res.eigenvalue_estimate == pytest.approx(np.sqrt(3.0), abs=1e-8)
    assert not res.converged
    assert "oscillation" in res.note


def test_dense_left_perron_path_bipartite_average():
    res = dense_left_perron(path3())
    expected = np.array([1.0, np.sqrt(2.0), 1.0]) / 2.0
    assert np.allclose(res.vector, expected, atol=1e-8)
    assert res.eigenvalue_estimate == pytest.approx(np.sqrt(2.0), abs=1e-8)


def test_dense_left_perron_two_cycle_random_start_oscillates():
    # from a generic start the iterates alternate (dominant +/- 1 pair); the
    # uniform start would be an exact fixed point instead
    res = dense_left_perron(directed_two_cycle(), start="random", seed=11)
    assert not res.converged
    assert "oscillation" in res.note
    assert np.allclose(res.vector, np.ones(2) / np.sqrt(2), atol=1e-8)
    uniform = dense_left_perron(directed_two_cycle())
    assert uniform.converged
    assert uniform.eigenvalue_estimate == pytest.approx(1.0)


def test_dense_left_perron_decaying_negative_eigenvalue_is_not_a_cycle():
    # not bipartite (lambda_min -15.4, lambda_max 24.6): the decaying negative
    # subdominant mode brings each iterate close to the one two steps back
    # before successive iterates agree, which is no period-2 cycle
    import scipy.sparse.linalg as spla

    from sampled_centrality.cli import generate

    g = generate("pa:n=5000,m=5,seed=1")
    res = dense_left_perron(g)
    assert res.converged
    assert res.note is None
    _, vecs = spla.eigsh(g.csr.astype(np.float64), k=1, which="LA", tol=1e-14)
    expected = np.abs(vecs[:, 0])
    assert np.max(np.abs(res.vector - expected)) <= 1e-9

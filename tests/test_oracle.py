"""Dense, sparse-exponential and Perron reference computations."""

from __future__ import annotations

import re

import numpy as np
import pytest
import scipy.linalg as sla

from sampled_centrality import (
    EvaluationError,
    SparseGraph,
    dense_left_perron,
    dense_matfun,
    exp_minus_one,
    expm_rowsum,
    katz_rowsum,
    resolvent_minus_one,
)
from sampled_centrality import oracle
from sampled_centrality.cli import generate
from conftest import (
    directed_edge,
    directed_path,
    directed_two_cycle,
    path3,
    rel_err,
    star,
    triangle,
)


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


def test_dense_matfun_cap(monkeypatch):
    monkeypatch.setattr(oracle, "DENSE_CAP", 10)
    with pytest.raises(EvaluationError, match="capped"):
        dense_matfun(np.zeros((11, 11)), exp_minus_one(1.0))


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


SUBGRAPH_CASES = [
    ("er:n=300,p=0.02,seed=5", 1.0),
    ("er:n=300,p=0.02,seed=5", 0.1),
    ("pa:n=300,m=4,seed=3", 0.5),
    ("pa:n=300,m=4,seed=3", 1.0),
    ("star:leaves=500", 2.0),
    ("path:n=50", 2.0),
]


def floored_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Worst |a - b| / max(|a|, |b|, 1) over all entries."""
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)))


@pytest.mark.parametrize("spec, gamma", SUBGRAPH_CASES)
def test_subgraph_diag_matches_dense(spec, gamma):
    g = generate(spec)
    exact = np.diagonal(dense_matfun(g.dense(), exp_minus_one(gamma)))
    assert floored_rel_err(oracle.subgraph_diag(g, gamma), exact) <= 1e-12


def test_subgraph_diag_scaling_meets_theta():
    squarings_seen = set()
    for spec, gamma in SUBGRAPH_CASES:
        squarings, alpha = oracle.taylor_scaling(generate(spec), gamma)
        squarings_seen.add(squarings)
        assert alpha / 2.0**squarings <= oracle.TAYLOR_THETA
        # the fewest squarings that meet the bound
        assert squarings == 0 or alpha / 2.0 ** (squarings - 1) > oracle.TAYLOR_THETA
    # no squaring, the diagonal-only squaring, and full squarings before it
    assert {0, 1} < squarings_seen


def test_subgraph_diag_norm_bound_is_exact_for_nonnegative_powers():
    g = generate("er:n=300,p=0.02,seed=5")
    b = 0.7 * g.dense()
    d = [np.linalg.norm(np.linalg.matrix_power(b, p), 1) ** (1.0 / p) for p in range(2, 8)]
    alpha = min(max(d[i], d[i + 1]) for i in range(5))
    assert oracle.taylor_scaling(g, 0.7)[1] == pytest.approx(alpha, rel=1e-13)


def test_subgraph_diag_dag_is_exactly_zero():
    rng = np.random.default_rng(8)
    pairs = rng.integers(0, 200, size=(2000, 2))
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    dag = SparseGraph.from_edges(200, pairs, directed=True)
    assert oracle.taylor_scaling(dag, 3.0)[0] >= 2  # full squarings run
    for g in (dag, directed_path(30)):
        assert oracle.subgraph_diag(g, 3.0).tolist() == [0.0] * g.n


def test_subgraph_diag_no_edges():
    g = SparseGraph.from_edges(5, np.empty((0, 2), dtype=np.int64), directed=True)
    assert oracle.taylor_scaling(g, 1.0) == (0, 0.0)
    assert oracle.subgraph_diag(g, 1.0).tolist() == [0.0] * 5


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
def test_subgraph_diag_refuses_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        oracle.subgraph_diag(triangle(), gamma)


def test_subgraph_diag_refuses_an_overflowing_norm_bound():
    with pytest.raises(EvaluationError, match="overflows"):
        oracle.subgraph_diag(generate("er:n=50,p=0.1,seed=1"), 1e300)


@pytest.mark.parametrize("spec", ["er:n=50,p=0.1,seed=1", "pa:n=60,m=3,seed=1"])
def test_overflowed_references_are_refused(spec):
    # exp(1000 A) overflows in double precision, though the norm bound does not
    g = generate(spec)
    with np.errstate(all="ignore"):
        for route, reference in (
            ("subgraph_diag", oracle.subgraph_diag),
            ("expm_rowsum", oracle.expm_rowsum),
        ):
            message = f"{route} returned inf or nan scores at gamma=1000"
            with pytest.raises(EvaluationError, match=message):
                reference(g, 1000.0)


def test_subgraph_diag_cap_refuses_before_dense_allocation(monkeypatch):
    import tracemalloc

    g = generate("er:n=2000,p=0.001,seed=1")
    monkeypatch.setattr(oracle, "DENSE_CAP", 10)

    def no_dense(self):
        raise AssertionError("dense copy built above the cap")

    monkeypatch.setattr(SparseGraph, "dense", no_dense)
    tracemalloc.start()
    try:
        with pytest.raises(EvaluationError, match="dense cap 10"):
            oracle.subgraph_diag(g, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n * 8  # not even one row of an n x n float array


@pytest.mark.parametrize(
    "spec, gamma",
    [("er:n=300,p=0.02,seed=5", 1.0), ("pa:n=300,m=4,seed=3", 0.5)],
)
def test_expm_rowsum_matches_dense(spec, gamma):
    g = generate(spec)
    f = exp_minus_one(gamma)
    exact = dense_matfun(g.dense(), f).sum(axis=1)
    assert rel_err(expm_rowsum(g, gamma), exact) <= 1e-12


def test_expm_rowsum_nilpotent_edge():
    # exp(gamma*A) = I + gamma*A for the single directed edge 0 -> 1
    g = directed_edge()
    got = expm_rowsum(g, 0.7)
    assert np.allclose(got, [0.7, 0.0], rtol=1e-14, atol=1e-15)
    exact = dense_matfun(g.dense(), exp_minus_one(0.7)).sum(axis=1)
    assert rel_err(got, exact) <= 1e-12


@pytest.mark.parametrize(
    "spec, gamma",
    [("er:n=300,p=0.02,seed=5", 0.1), ("pa:n=300,m=4,seed=3", 0.05), ("path:n=6", 0.5)],
)
def test_katz_rowsum_matches_dense(spec, gamma):
    g = generate(spec)
    ref = katz_rowsum(g, gamma)
    exact = dense_matfun(g.dense(), resolvent_minus_one(gamma)).sum(axis=1)
    assert rel_err(ref.scores, exact) <= 1e-12
    assert ref.residual_inf <= oracle.KATZ_RESIDUAL_TOL
    # |x - x*| <= bound * x entrywise, with x = 1 + scores
    assert np.all(np.abs(ref.scores - exact) <= ref.relative_error_bound * (1.0 + ref.scores))


def test_katz_rowsum_certifies_gamma_rho():
    # Collatz-Wielandt: the certified bound is at least gamma*rho and below 1
    period3 = SparseGraph.from_edges(4, np.array([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]), True)
    non_normal = SparseGraph.from_edges(
        4, np.array([(0, 3), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1)]), True
    )
    for g in (period3, non_normal, generate("er:n=60,p=0.1,seed=1")):
        rho = float(np.max(np.abs(np.linalg.eigvals(g.dense()))))
        for gamma in (0.5 / rho, 0.9 / rho, 0.99 / rho):
            bound = katz_rowsum(g, gamma).gamma_rho_bound
            assert gamma * rho * (1 - 1e-12) <= bound < 1


def test_katz_rowsum_refuses_an_unfinished_solve(monkeypatch):
    # a solve stopped after one short restart cycle leaves a large residual
    g = generate("er:n=60,p=0.1,seed=1")
    rho = float(np.max(np.abs(np.linalg.eigvals(g.dense()))))
    monkeypatch.setattr(oracle, "_KATZ_MAX_STEPS", 4)
    monkeypatch.setattr(oracle, "_KATZ_RESTART", 4)
    with pytest.raises(EvaluationError, match=r"\|r\|_inf = .* after 4 GMRES steps, above"):
        katz_rowsum(g, 0.9 / rho)


def test_katz_rowsum_refuses_a_stagnant_solve_early():
    # gamma*rho is far above 1: restarted GMRES makes no progress on the
    # indefinite I - gamma*A, and the solve stops after ten cycles without
    # halving |r|_inf instead of spending its 2000-step budget
    g = generate("er:n=2000,p=0.005,seed=1")
    with pytest.raises(EvaluationError, match="x > 0 fails") as exc:
        katz_rowsum(g, 1.0)
    steps = int(re.search(r"after (\d+) GMRES steps", str(exc.value)).group(1))
    assert steps <= 400


def test_dense_left_perron_triangle():
    res = dense_left_perron(triangle())
    assert np.allclose(res.vector, np.ones(3) / np.sqrt(3), atol=1e-10)
    assert res.eigenvalue_estimate == pytest.approx(2.0, abs=1e-10)
    assert res.converged
    assert res.residual <= 1e-8


def test_dense_left_perron_star_bipartite_average():
    assert dense_left_perron(star(3)).converged
    res = dense_left_perron(star(3), tol=1e-12)
    expected = np.array([np.sqrt(3.0), 1.0, 1.0, 1.0]) / np.sqrt(6.0)
    assert np.allclose(res.vector, expected, atol=1e-8)
    assert res.eigenvalue_estimate == pytest.approx(np.sqrt(3.0), abs=1e-8)
    assert res.converged
    assert res.note is None
    assert res.residual <= 1e-8


def test_dense_left_perron_path_bipartite_average():
    res = dense_left_perron(path3())
    expected = np.array([1.0, np.sqrt(2.0), 1.0]) / 2.0
    assert np.allclose(res.vector, expected, atol=1e-8)
    assert res.eigenvalue_estimate == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert res.residual <= 1e-8


def test_dense_left_perron_two_cycle_random_start_oscillates():
    # the dominant +/- 1 pair would make a generic start alternate; the
    # uniform start, the only start there is, is an exact fixed point
    uniform = dense_left_perron(directed_two_cycle())
    assert uniform.converged
    assert uniform.eigenvalue_estimate == pytest.approx(1.0)
    assert uniform.residual <= 1e-8


def test_dense_left_perron_non_normal_cycle_exact_eigenvector():
    # A^T maps span{e0+e1, e2+e3} into itself with gains 1 and 2, so the
    # unshifted uniform start alternates; the +sqrt(2) eigenvector weighs the
    # two directions by the square roots of the gains, not equally
    edges = np.array([(0, 3), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1)])
    g = SparseGraph.from_edges(4, edges, directed=True)
    assert dense_left_perron(g).converged
    res = dense_left_perron(g, tol=1e-12)
    expected = np.array([1.0, 1.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]) / np.sqrt(3.0)
    assert np.max(np.abs(res.vector - expected)) <= 1e-12
    assert res.eigenvalue_estimate == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert res.converged
    assert res.note is None
    assert res.residual <= 1e-8


def test_dense_left_perron_period_three_exact_eigenvector():
    # every cycle has length 3 (0 -> {1, 2} -> 3 -> 0), so the unshifted
    # uniform start cycles through three directions; rho = 2^(1/3)
    edges = np.array([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    g = SparseGraph.from_edges(4, edges, directed=True)
    assert dense_left_perron(g).converged
    res = dense_left_perron(g, tol=1e-12)
    assert res.converged
    assert res.note is None
    lam = res.eigenvalue_estimate
    assert abs(lam - 2.0 ** (1.0 / 3.0)) <= 1e-12
    assert np.linalg.norm(g.dense().T @ res.vector - lam * res.vector) <= 1e-12
    assert np.all(res.vector >= 0.0)
    assert res.residual <= 1e-8


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
    assert res.residual <= 1e-8
    _, vecs = spla.eigsh(g.csr.astype(np.float64), k=1, which="LA", tol=1e-14)
    expected = np.abs(vecs[:, 0])
    assert np.max(np.abs(res.vector - expected)) <= 1e-9

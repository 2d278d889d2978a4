"""Exact small-core evaluation and the Arnoldi spectral cross-check."""

from __future__ import annotations

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from sampled_centrality import (
    EvaluationError,
    SampleSet,
    SparseGraph,
    evaluate_masked_function,
    exp_minus_one,
    resolvent_minus_one,
    sample_columns,
    transpose,
)
from sampled_centrality import matfun
from sampled_centrality.cli import generate
from sampled_centrality.matfun import ScalarFunction
from conftest import (
    directed_edge,
    directed_two_cycle,
    full_column_sample,
    full_row_sample,
    rel_err,
    star,
    triangle,
    undirected_edge,
)
from dense_reference import dense_matfun, matrix_value
from krylov_reference import (
    ColumnMaskedOperator,
    KrylovDecomposition,
    arnoldi,
    estimate_spectral_radius,
    krylov_spectral_evaluation,
    spectral_factorize,
)


def _er_digraph(n, p, seed):
    rng = np.random.default_rng(seed)
    block = rng.random((n, n)) < p
    np.fill_diagonal(block, False)
    rows, cols = np.nonzero(block)
    return SparseGraph.from_edges(n, np.column_stack([rows, cols]), directed=True)


def _masked_dense(g, mask):
    a = g.csr.toarray()
    keep = np.zeros(g.n)
    keep[mask.indices] = 1.0
    return a * keep[np.newaxis, :]


def _column_mask(n, indices):
    return SampleSet(np.asarray(indices), "column", "guided", n)


def _arrow_dense(g, mask):
    """The dense arrow mask: entries whose row or column is sampled."""
    keep = np.zeros(g.n, dtype=bool)
    keep[mask.indices] = True
    return g.csr.toarray() * (keep[:, None] | keep[None, :])


def _assert_arrow_matches_dense(g, mask, f):
    """diag and rowsum on every node against dense f of the arrow-masked matrix."""
    exact = dense_matfun(_arrow_dense(g, mask), f)
    res = evaluate_masked_function(g, mask, f)
    assert res.method == "arrow_core"
    assert rel_err(res.diag, np.diagonal(exact)) <= 1e-10
    assert rel_err(res.rowsum, exact @ np.ones(g.n)) <= 1e-10
    return res


# -- scalar functions ---------------------------------------------------------


def test_scalar_function_values():
    f = exp_minus_one(2.0)
    assert np.isclose(f.value(1.0), np.expm1(2.0))
    r = resolvent_minus_one(0.25)
    assert np.isclose(r.value(2.0), 1.0 / (1 - 0.5) - 1.0)


def test_scalar_function_validation():
    with pytest.raises(ValueError):
        ScalarFunction("log", 1.0)
    for gamma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma"):
            exp_minus_one(gamma)
        with pytest.raises(ValueError, match="gamma"):
            resolvent_minus_one(gamma)


def core_diag_and_sums(gamma, a11):
    """diag f(A11) and g(A11) @ 1 from the column kernel, given A[:, J] = I:
    its row sums A[:, J] @ g(A11) @ 1 are then g(A11) @ 1 itself."""
    m = a11.shape[0]
    return matfun.column_exp_core(np.arange(m), sp.identity(m, format="csr"), a11, gamma)


def test_quotient_sum_handles_singular_core():
    f = exp_minus_one(1.0)
    _, g1 = core_diag_and_sums(f.gamma, sp.csr_matrix(np.zeros((1, 1))))
    assert np.allclose(g1, [1.0])
    # agreement with eigenvalue evaluation on a diagonalizable core
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam, q = np.linalg.eigh(a)
    expected = q @ ((np.expm1(lam) / lam) * (q.T @ np.ones(2)))
    _, g1 = core_diag_and_sums(f.gamma, sp.csr_matrix(a))
    assert np.allclose(g1, expected, atol=1e-13)


def _phi1_rowsum(a, gamma):
    """gamma * phi1(gamma*A) @ 1 from the phi1 block of the 2m-order augmented
    exponential expm([[gamma*A, I], [0, 0]]), exact for singular A."""
    m = a.shape[0]
    aug = np.zeros((2 * m, 2 * m))
    aug[:m, :m] = gamma * a
    aug[:m, m:] = np.eye(m)
    return gamma * sla.expm(aug)[:m, m:] @ np.ones(m)


def test_augmented_exponential_matches_matrix_quotient():
    nilpotent = np.triu(np.ones((6, 6)), k=1)
    rng = np.random.default_rng(5)
    dense_random = (rng.random((30, 30)) < 0.2).astype(np.float64)
    for a in (nilpotent, dense_random):
        for gamma in (1.0, 0.3):
            f = exp_minus_one(gamma)
            d11, g1 = core_diag_and_sums(f.gamma, sp.csr_matrix(a))
            f11 = matrix_value(f, a)
            assert rel_err(d11, np.diagonal(f11)) <= 1e-12
            assert rel_err(a @ g1, f11.sum(axis=1)) <= 1e-12
            assert rel_err(g1, _phi1_rowsum(a, gamma)) <= 1e-12
    # the nilpotent series terminates: g(A) 1 = sum_k A^k 1 / (k + 1)!
    _, g1 = core_diag_and_sums(1.0, sp.csr_matrix(nilpotent))
    series = np.zeros(6)
    power = np.ones(6)
    factorial = 1.0
    for k in range(6):
        factorial *= k + 1
        series += power / factorial
        power = nilpotent @ power
    assert np.max(np.abs(g1 - series)) <= 1e-13
    # Katz on the column mask that samples every node: diag f(A) and
    # f(A) @ 1 = gamma*A @ (I - gamma*A)^-1 @ 1
    r = resolvent_minus_one(0.02)
    g = SparseGraph.from_edges(30, np.argwhere(dense_random), directed=True)
    katz = evaluate_masked_function(g, _column_mask(30, np.arange(30)), r)
    f11 = matrix_value(r, dense_random)
    # diag f(A) from the Katz series sum_k (gamma*A)^k, nonnegative terms only:
    # X - I loses the digits of a diagonal entry far below 1
    series, power = np.zeros((30, 30)), np.eye(30)
    for _ in range(40):
        power = 0.02 * dense_random @ power
        series += power
    assert rel_err(katz.diag, np.diagonal(series)) <= 1e-12
    assert rel_err(katz.rowsum, f11.sum(axis=1)) <= 1e-12
    x = np.linalg.solve(np.eye(30) - 0.02 * dense_random, np.ones(30))
    assert rel_err(katz.rowsum, 0.02 * dense_random @ x) <= 1e-12


def test_column_core_subtracts_no_identity_on_the_directed_cycle():
    # every column of the directed 12-cycle: the only closed walks have
    # length 12k, so diag f(A) lies far below the unit roundoff of 1
    n, gamma = 12, 0.05
    g = SparseGraph.from_edges(n, np.column_stack([np.arange(n), (np.arange(n) + 1) % n]), True)
    katz = evaluate_masked_function(g, full_column_sample(g), resolvent_minus_one(gamma))
    assert np.all(np.abs(katz.diag / (gamma**12 / (1 - gamma**12)) - 1) <= 1e-14)
    assert np.all(np.abs(katz.rowsum / (gamma / (1 - gamma)) - 1) <= 1e-14)
    closed_walks = sum(1 / math.factorial(12 * k) for k in range(1, 5))
    exp = evaluate_masked_function(g, full_column_sample(g), exp_minus_one(1.0))
    assert np.all(np.abs(exp.diag / closed_walks - 1) <= 1e-14)


@pytest.mark.parametrize("directed", [1, 0])
def test_empty_mask_scores_zero(directed):
    g = generate(f"er:n=30,p=0.1,seed=1,directed={directed}")
    mask = _column_mask(g.n, np.zeros(0, dtype=np.int64))
    for f in (exp_minus_one(1.0), resolvent_minus_one(0.5)):
        res = evaluate_masked_function(g, mask, f)
        assert res.diag.tolist() == res.rowsum.tolist() == [0.0] * g.n


def test_column_core_exp_matches_blocked_expm_multiply():
    from scipy.sparse.linalg import expm_multiply

    g = generate("er:n=600,p=0.05,seed=1")
    mask = sample_columns(g, 200, seed=1, strategy="guided")
    J, gamma = mask.indices, 3.0
    res = evaluate_masked_function(g, mask, exp_minus_one(gamma))
    keep = np.zeros(g.n)
    keep[J] = 1.0
    masked = (g.csr @ sp.diags(keep)).tocsc()
    # exp(gamma*A_masked) on the unit vectors of J and on the ones vector
    block = np.zeros((g.n, len(J) + 1))
    block[J, np.arange(len(J))] = 1.0
    block[:, -1] = 1.0
    e = expm_multiply(gamma * masked, block)
    exact_diag = e[J, np.arange(len(J))] - 1.0
    exact_rowsum = e[:, -1] - 1.0

    def err(x, y):
        return np.max(np.abs(x - y)) / max(1.0, np.max(np.abs(y)))

    assert err(res.diag[J], exact_diag) <= 1e-14
    assert err(res.rowsum, exact_rowsum) <= 1e-14


# -- the Arnoldi reference of tests/krylov_reference.py ------------------------


def test_arnoldi_reference_recovers_the_two_cycle():
    g = undirected_edge()
    mask = full_column_sample(g)
    d = arnoldi(g, mask, v1=np.array([1.0, 0.0]))
    assert d.breakdown
    assert d.steps == 2
    assert np.allclose(d.basis, np.eye(2))
    assert np.allclose(d.small_matrix, [[0.0, 1.0], [1.0, 0.0]])


def test_arnoldi_nilpotent_masked_edge():
    g = directed_edge()
    mask = SampleSet(np.array([1]), "column", "guided", 2)
    d = arnoldi(g, mask, seed=0)
    assert d.breakdown
    assert d.steps <= 2
    # H is nilpotent to machine precision; its computed eigenvalues scatter
    # at the sqrt(eps) scale typical of defective matrices, so the nonzero
    # classification rejects the spectral route for this mask
    assert np.max(np.abs(d.small_matrix @ d.small_matrix)) <= 1e-12
    sd = spectral_factorize(d)
    assert np.all(np.abs(sd.eigenvalues) <= 1e-7)
    res = evaluate_masked_function(g, mask, exp_minus_one(1.0), seed=0)
    assert res.method == "direct_core"
    with pytest.raises(EvaluationError):
        krylov_spectral_evaluation(g, mask, exp_minus_one(1.0), seed=0)


def test_arnoldi_er_digraph_breakdown_and_invariance():
    g = _er_digraph(60, 0.1, seed=17)
    mask = sample_columns(g, 20, seed=3)
    d = arnoldi(g, mask, seed=5)
    assert d.breakdown
    assert d.steps <= 21
    op = ColumnMaskedOperator(g, mask.indices)
    assert d.invariance_residual(op) <= 1e-10
    orth = np.max(np.abs(d.basis.T @ d.basis - np.eye(d.steps)))
    assert orth <= 1e-10


def test_arnoldi_requires_column_mask():
    g = directed_edge()
    rows = SampleSet(np.array([0]), "row", "guided", 2)
    with pytest.raises(ValueError, match="column"):
        arnoldi(g, rows)


# -- arrow core ---------------------------------------------------------------


def test_arrow_core_two_cycle():
    g = undirected_edge()
    c = np.cosh(1.0) - 1.0
    s_ = np.sinh(1.0)
    for indices in ([0, 1], [0], [1]):
        res = _assert_arrow_matches_dense(g, _column_mask(2, indices), exp_minus_one(1.0))
        assert np.allclose(res.diag, [c, c], atol=1e-14)
        assert np.allclose(res.rowsum, [c + s_, c + s_], atol=1e-14)
        assert res.spectral_radius_estimate == pytest.approx(1.0, abs=1e-14)
    _assert_arrow_matches_dense(g, _column_mask(2, [1]), resolvent_minus_one(0.5))


def test_arrow_core_star_masks():
    g = star(3)
    rho = np.sqrt(3.0)
    for indices in ([0], [1], [2, 3]):
        mask = _column_mask(4, indices)
        _assert_arrow_matches_dense(g, mask, exp_minus_one(1.0))
        _assert_arrow_matches_dense(g, mask, resolvent_minus_one(0.5 / rho))
    # the centre alone keeps every edge
    res = evaluate_masked_function(g, _column_mask(4, [0]), exp_minus_one(1.0), seed=2)
    exact = dense_matfun(g.csr.toarray(), exp_minus_one(1.0))
    assert rel_err(res.diag, np.diagonal(exact)) <= 1e-10
    assert rel_err(res.rowsum, exact @ np.ones(4)) <= 1e-10


def test_arrow_core_triangle():
    g = triangle()
    for indices in ([0], [2, 0], [0, 1, 2]):
        mask = _column_mask(3, indices)
        _assert_arrow_matches_dense(g, mask, exp_minus_one(1.0))
        _assert_arrow_matches_dense(g, mask, resolvent_minus_one(0.2))
    res = evaluate_masked_function(g, full_column_sample(g), exp_minus_one(1.0))
    assert res.spectral_radius_estimate == pytest.approx(2.0, abs=1e-12)


def test_arrow_core_random_graphs_match_dense():
    rng = np.random.default_rng(8)
    edges = rng.integers(0, 40, size=(150, 2))
    g = SparseGraph.from_edges(40, edges, directed=False)
    for ell, seed in ((10, 2), (1, 0), (25, 4)):
        mask = sample_columns(g, ell, seed=seed)
        rho = float(np.max(np.abs(np.linalg.eigvalsh(_arrow_dense(g, mask)))))
        _assert_arrow_matches_dense(g, mask, exp_minus_one(1.0))
        _assert_arrow_matches_dense(g, mask, resolvent_minus_one(0.5 / rho))


def _rank_deficient_arrows():
    """(graph, J) pairs whose trailing block A[rest, J] has rank below ell."""
    # triangle 0-1-2 with the tail 2-3-4: nodes 0 and 1 have every neighbour
    # inside J = {0, 1, 2}, so A[rest, J] has two zero columns
    tail = SparseGraph.from_edges(
        5, np.array([[0, 1], [1, 2], [2, 0], [2, 3], [3, 4]]), directed=False
    )
    # nodes 0 and 1 share the neighbourhood {2, 3} outside J = {0, 1, 4}
    twins = SparseGraph.from_edges(
        6, np.array([[0, 2], [0, 3], [1, 2], [1, 3], [2, 4], [4, 5], [3, 5]]), directed=False
    )
    return [(tail, [0, 1, 2]), (tail, [1, 0]), (twins, [0, 1, 4]), (twins, [1, 0])]


def test_arrow_core_rank_deficient_trailing_block():
    for g, indices in _rank_deficient_arrows():
        mask = _column_mask(g.n, indices)
        rest = np.setdiff1d(np.arange(g.n), mask.indices)
        assert np.linalg.matrix_rank(g.csr.toarray()[np.ix_(rest, mask.indices)]) < len(indices)
        rho = float(np.max(np.abs(np.linalg.eigvalsh(_arrow_dense(g, mask)))))
        _assert_arrow_matches_dense(g, mask, exp_minus_one(1.0))
        _assert_arrow_matches_dense(g, mask, resolvent_minus_one(0.5 / rho))


# -- Katz core ----------------------------------------------------------------


def _assert_katz_matches_dense(g, indices, ratio=0.5):
    """Katz at gamma = ratio / rho(A_masked) on every node, each entry above
    1e-12 within 1e-12 relative of gamma*A_masked @ (I - gamma*A_masked)^-1
    from the tests' own dense solve."""
    mask = _column_mask(g.n, np.asarray(indices, dtype=np.int64))
    dense = _masked_dense(g, mask) if g.directed else _arrow_dense(g, mask)
    rho = float(np.max(np.abs(np.linalg.eigvals(dense)), initial=0.0))
    f = resolvent_minus_one(ratio / rho if rho > 0 else 1.0)
    exact = matrix_value(f, dense)
    res = evaluate_masked_function(g, mask, f)
    assert res.method == ("direct_core" if g.directed else "arrow_core")
    assert res.spectral_radius_estimate is None
    assert rel_err(res.diag, np.diagonal(exact)) <= 1e-12
    assert rel_err(res.rowsum, exact.sum(axis=1)) <= 1e-12
    return res


@pytest.mark.parametrize("directed", [0, 1])
def test_katz_core_matches_the_dense_solve_on_random_graphs(directed):
    rng = np.random.default_rng(12)
    for seed in range(12):
        n = int(rng.integers(5, 40))
        g = generate(f"er:n={n},p={rng.uniform(0.05, 0.3)},seed={seed},directed={directed}")
        J = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        for ratio in (0.5, 0.95):
            _assert_katz_matches_dense(g, J, ratio)


def test_katz_core_on_rank_deficient_trailing_blocks():
    for g, indices in _rank_deficient_arrows():
        _assert_katz_matches_dense(g, indices)
        _assert_katz_matches_dense(g, indices, ratio=0.95)


@pytest.mark.parametrize("directed", [False, True])
def test_katz_core_edge_cases(directed):
    # a path 0-1-2-3-4 with self-loops on 1 (sampled) and 3 (not sampled,
    # so the mask drops it) and node 5 alone
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [1, 1], [3, 3]])
    g = SparseGraph.from_edges(6, edges, directed=directed)
    _assert_katz_matches_dense(g, [1, 4])
    # J = {0, 1, 5}: node 0 has no neighbour outside J, node 5 none at all
    res = _assert_katz_matches_dense(g, [0, 1, 5])
    assert res.diag[5] == res.rowsum[5] == 0.0
    # every node sampled: the rest is empty and A_masked = A
    _assert_katz_matches_dense(g, np.arange(6))
    # the empty mask scores zero
    res = _assert_katz_matches_dense(g, [])
    assert res.diag.tolist() == res.rowsum.tolist() == [0.0] * 6


def test_katz_pole_counts_the_columns_outside_j():
    # J the four leaves of star(4): I - gamma*M = I - gamma^2 11^T, and near
    # gamma = 1/2 the centre's column of I - gamma*A (norm 1 + 4 gamma) sets
    # |I - gamma*A|_1, twice the leaves' (1 + gamma): |X|_1 is about 5e13
    mask = _column_mask(5, [1, 2, 3, 4])
    with pytest.raises(EvaluationError, match="resolvent pole"):
        evaluate_masked_function(star(4), mask, resolvent_minus_one((1 - 1e-14) / 2))
    _assert_katz_matches_dense(star(4), [1, 2, 3, 4], ratio=0.95)


@pytest.mark.parametrize("directed", [1, 0])
def test_katz_is_one_lu_of_order_ell(monkeypatch, directed):
    g = generate(f"er:n=60,p=0.1,seed=3,directed={directed}")
    mask = sample_columns(g, 12, seed=2)
    shapes = []
    dgetrf = sla.lapack.dgetrf

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return dgetrf(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("Katz computed an eigenvalue or a condition estimate")

    monkeypatch.setattr(sla.lapack, "dgetrf", counted)
    monkeypatch.setattr(sla.lapack, "dgecon", refused)
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refused)
        monkeypatch.setattr(sla, name, refused)
    evaluate_masked_function(g, mask, resolvent_minus_one(0.05))
    assert shapes == [(12, 12)]


def test_katz_admissibility_is_certified_whatever_the_inverse(monkeypatch):
    # y - gamma*M y > 0 is recomputed from M, so it proves gamma*rho(M) < 1 by
    # the Collatz-Wielandt bound even when X is not the inverse.  On the arrow
    # mask of star(4) at its centre (rho = 2), gamma = 0.6 gives
    # I - gamma*M = 1 - 1.44: the absolute value of its inverse has
    # y = X 1 > 0, and only the image (1 - 1.44) y refuses it
    dgetri = sla.lapack.dgetri

    def absolute(*args, **kwargs):
        x, info = dgetri(*args, **kwargs)
        return np.abs(x), info

    monkeypatch.setattr(sla.lapack, "dgetri", absolute)
    mask = _column_mask(5, [0])
    with pytest.raises(EvaluationError, match="not a nonsingular M-matrix"):
        evaluate_masked_function(star(4), mask, resolvent_minus_one(0.6))
    # at gamma*rho < 1 the inverse is positive already, and nothing changes
    _assert_katz_matches_dense(star(4), [0], ratio=0.95)


# -- spectral factorization ---------------------------------------------------


def test_spectral_factorize_tie_order():
    g = undirected_edge()
    d = arnoldi(g, full_column_sample(g), v1=np.array([1.0, 0.0]))
    sd = spectral_factorize(d)
    assert np.allclose(sd.eigenvalues, [1.0, -1.0])
    assert sd.condition_estimate < 1.0 + 1e-8
    assert estimate_spectral_radius(sd) == pytest.approx(1.0)


def test_spectral_factorize_defective_flags_condition():
    d = KrylovDecomposition(
        basis=np.eye(2),
        small_matrix=np.array([[0.0, 0.0], [1.0, 0.0]]),
        steps=2,
        breakdown=True,
        residual_norm=0.0,
    )
    sd = spectral_factorize(d)
    assert sd.condition_estimate > 1e8


def test_spectral_factorize_requires_breakdown():
    d = KrylovDecomposition(
        basis=np.eye(2),
        small_matrix=np.eye(2),
        steps=2,
        breakdown=False,
        residual_norm=0.5,
    )
    with pytest.raises(EvaluationError, match="breakdown"):
        spectral_factorize(d)


def test_estimate_spectral_radius_fixtures():
    for g, expected in ((star(3), np.sqrt(3)), (triangle(), 2.0)):
        d = arnoldi(g, full_column_sample(g), seed=3)
        sd = spectral_factorize(d)
        assert estimate_spectral_radius(sd) == pytest.approx(expected, abs=1e-10)
        res = evaluate_masked_function(g, full_column_sample(g), exp_minus_one(1.0))
        assert res.spectral_radius_estimate == pytest.approx(expected, abs=1e-10)


# -- evaluation ---------------------------------------------------------------


def test_evaluate_two_cycle_exponential():
    g = undirected_edge()
    res = evaluate_masked_function(g, full_column_sample(g), exp_minus_one(1.0), seed=0)
    c = np.cosh(1.0) - 1.0
    s = np.sinh(1.0)
    assert np.allclose(res.diag, [c, c], atol=1e-10)
    assert np.allclose(res.rowsum, [c + s, c + s], atol=1e-10)


def test_evaluate_nilpotent_masked_edge():
    g = directed_edge()
    mask = SampleSet(np.array([1]), "column", "guided", 2)
    res = evaluate_masked_function(g, mask, exp_minus_one(1.0), seed=0)
    assert res.diag.tolist() == [0.0, 0.0]
    assert res.rowsum.tolist() == [1.0, 0.0]
    assert res.method == "direct_core"


def test_evaluate_two_cycle_resolvent():
    g = undirected_edge()
    res = evaluate_masked_function(g, full_column_sample(g), resolvent_minus_one(0.5), seed=0)
    assert np.allclose(res.diag, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert np.allclose(res.rowsum, [1.0, 1.0], atol=1e-12)


def test_evaluate_rejects_inadmissible_katz_gamma():
    g = undirected_edge()  # rho = 1
    for gamma in (1.01, 1.0):
        with pytest.raises(EvaluationError, match="inadmissible|pole"):
            evaluate_masked_function(g, full_column_sample(g), resolvent_minus_one(gamma), seed=0)
    f = resolvent_minus_one(0.99)
    res = evaluate_masked_function(g, full_column_sample(g), f, seed=0)
    exact = dense_matfun(g.csr.toarray(), f)
    assert rel_err(res.diag, np.diagonal(exact)) <= 1e-12
    assert rel_err(res.rowsum, exact.sum(axis=1)) <= 1e-12
    # the centre of a 4-leaf star keeps every edge of the arrow: rho = 2
    with pytest.raises(EvaluationError, match="inadmissible"):
        evaluate_masked_function(star(4), _column_mask(5, [0]), resolvent_minus_one(0.51))
    f = resolvent_minus_one(0.49)
    res = evaluate_masked_function(star(4), _column_mask(5, [0]), f)
    assert res.spectral_radius_estimate is None
    exact = dense_matfun(star(4).csr.toarray(), f)
    assert rel_err(res.diag, np.diagonal(exact)) <= 1e-12
    assert rel_err(res.rowsum, exact.sum(axis=1)) <= 1e-12


def test_direct_core_spectral_radius_only_for_katz():
    # exp on the column mask has no admissibility rule, so no spectral radius
    g = _er_digraph(40, 0.15, seed=6)
    mask = sample_columns(g, 12, seed=1)
    res = evaluate_masked_function(g, mask, exp_minus_one(1.0))
    assert res.spectral_radius_estimate is None
    assert res.metadata()["spectral_radius_estimate"] is None
    # the directed Katz rule needs none either: the two-cycle has rho = 1
    two_cycle = directed_two_cycle()
    mask = full_column_sample(two_cycle)
    with pytest.raises(EvaluationError, match="inadmissible"):
        evaluate_masked_function(two_cycle, mask, resolvent_minus_one(1.01))
    res = evaluate_masked_function(two_cycle, mask, resolvent_minus_one(0.99))
    assert res.spectral_radius_estimate is None


def _katz_gate_sweep(directed):
    """gamma*rho(A_masked) within 20 % of 1 on each side: refused above 1 and
    taken below, rho from eigvals of A11 (column mask) or eigvalsh of the
    arrow matrix."""
    rng = np.random.default_rng(44)
    refused = 0
    for seed in range(300):
        n = int(rng.integers(2, 41))
        p = float(rng.uniform(0.05, 0.4))
        J = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        if directed:
            g = _er_digraph(n, p, seed)
            rho = float(np.max(np.abs(np.linalg.eigvals(g.csr.toarray()[np.ix_(J, J)]))))
        else:
            g = generate(f"er:n={n},p={p},seed={seed},directed=0")
            rho = float(np.max(np.abs(np.linalg.eigvalsh(_arrow_dense(g, _column_mask(n, J))))))
        ratio = float(rng.uniform(0.8, 1.2))
        if rho < 1e-12 or abs(ratio - 1.0) < 1e-9:
            continue
        f = resolvent_minus_one(ratio / rho)
        if ratio > 1.0:
            refused += 1
            with pytest.raises(EvaluationError, match="inadmissible"):
                evaluate_masked_function(g, _column_mask(n, J), f)
        else:
            evaluate_masked_function(g, _column_mask(n, J), f)
    assert 50 <= refused <= 200


def test_direct_core_katz_gate_matches_the_spectral_radius():
    _katz_gate_sweep(directed=True)
    # on the boundary I - A is singular (its LU has a zero pivot): a pole
    two_cycle = directed_two_cycle()
    with pytest.raises(EvaluationError, match="resolvent pole"):
        evaluate_masked_function(two_cycle, full_column_sample(two_cycle), resolvent_minus_one(1.0))


def test_arrow_core_katz_gate_matches_the_spectral_radius():
    _katz_gate_sweep(directed=False)
    # the centre of a 4-leaf star keeps every edge of the arrow: rho = 2, and
    # just below 1/rho |I - gamma*A|_1 |X|_1 is above 1 / MIN_RCOND
    mask = _column_mask(5, [0])
    with pytest.raises(EvaluationError, match="resolvent pole"):
        evaluate_masked_function(star(4), mask, resolvent_minus_one((1 - 4e-15) / 2))
    with pytest.raises(EvaluationError, match="inadmissible"):
        evaluate_masked_function(star(4), mask, resolvent_minus_one(0.5))


def test_evaluate_diag_zero_outside_mask():
    g = _er_digraph(50, 0.15, seed=4)
    mask = sample_columns(g, 12, seed=6)
    res = evaluate_masked_function(g, mask, exp_minus_one(1.0), seed=1)
    outside = np.setdiff1d(np.arange(g.n), mask.indices)
    assert np.all(res.diag[outside] == 0.0)


def test_evaluate_full_sampling_exactness_directed():
    f = exp_minus_one(1.0)
    for seed in range(4):
        g = _er_digraph(40, 0.12, seed=seed)
        mask = full_column_sample(g)
        res = evaluate_masked_function(g, mask, f, seed=seed)
        exact = dense_matfun(g.csr.toarray(), f)
        assert rel_err(res.diag, np.diagonal(exact)) <= 1e-6
        assert rel_err(res.rowsum, exact @ np.ones(g.n)) <= 1e-6


def test_evaluate_full_sampling_exactness_symmetric():
    # every nonzero column sampled: A[rest, J] is empty or zero (r = 0), and
    # the arrow core is A itself, repeated eigenvalues included
    f = exp_minus_one(1.0)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 24, size=(60, 2))
        g = SparseGraph.from_edges(24, edges, directed=False)
        res = evaluate_masked_function(g, full_column_sample(g), f, seed=seed)
        exact = dense_matfun(g.csr.toarray(), f)
        assert rel_err(res.diag, np.diagonal(exact)) <= 1e-10
        assert rel_err(res.rowsum, exact @ np.ones(g.n)) <= 1e-10


def test_method_equivalence_on_random_instances():
    rng = np.random.default_rng(99)
    compared = 0
    for trial in range(25):
        n = int(rng.integers(20, 80))
        g = _er_digraph(n, float(rng.uniform(0.15, 0.3)), seed=trial + 100)
        nz = g.nonzero_columns()
        if nz.size < 4:
            continue
        ell = int(rng.integers(4, min(25, nz.size + 1)))
        mask = sample_columns(g, ell, seed=trial)
        f = exp_minus_one(1.0)
        try:
            res = krylov_spectral_evaluation(g, mask, f, seed=trial)
        except EvaluationError:
            continue
        if res.condition_estimate > 1e6:
            continue
        core = evaluate_masked_function(g, mask, f)
        assert rel_err(res.diag, core.diag) <= 1e-8
        assert rel_err(res.rowsum, core.rowsum) <= 1e-8
        compared += 1
    assert compared >= 13


# -- direct core --------------------------------------------------------------


def test_direct_core_nilpotent_edge():
    g = directed_edge()
    mask = SampleSet(np.array([1]), "column", "guided", 2)
    res = evaluate_masked_function(g, mask, exp_minus_one(1.0))
    assert res.diag.tolist() == [0.0, 0.0]
    assert res.rowsum.tolist() == [1.0, 0.0]


def test_direct_core_small_gamma_first_order():
    g = _er_digraph(30, 0.2, seed=12)
    mask = sample_columns(g, 8, seed=1)
    gamma = 1e-8
    res = evaluate_masked_function(g, mask, exp_minus_one(gamma))
    keep = np.zeros(g.n)
    keep[mask.indices] = 1.0
    degrees_into_mask = g.csr.toarray() @ keep
    assert np.max(np.abs(res.diag)) <= 1e-12
    assert np.allclose(res.rowsum / gamma, degrees_into_mask, atol=1e-6)


def test_direct_core_agrees_with_dense_masked_function():
    f = exp_minus_one(0.7)
    g = _er_digraph(40, 0.18, seed=3)
    mask = sample_columns(g, 15, seed=2)
    res = evaluate_masked_function(g, mask, f)
    exact = sla.expm(0.7 * _masked_dense(g, mask)) - np.eye(g.n)
    assert rel_err(res.diag, np.diagonal(exact)) <= 1e-10
    assert rel_err(res.rowsum, exact @ np.ones(g.n)) <= 1e-10


def test_direct_core_resolvent_pole_detected():
    g = directed_two_cycle()
    mask = full_column_sample(g)
    with pytest.raises(EvaluationError, match="pole"):
        evaluate_masked_function(g, mask, resolvent_minus_one(1.0))


@pytest.mark.parametrize(
    "spec, route", [("er:n=200,p=0.05,seed=1", "direct_core"), ("pa:n=200,m=3,seed=1", "arrow_core")]
)
def test_core_routes_stop_at_the_first_overflow(spec, route, monkeypatch):
    # exp(1000 A11) overflows: the kernel raises at once, with no RuntimeWarning;
    # on the arrow mask its two eigh calls run under the same guard
    g = generate(spec)
    mask = sample_columns(g, 20, seed=1, strategy="guided")
    guarded = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        guarded.append(np.geterr()["over"] == np.geterr()["invalid"] == "raise")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    message = f"{route} returned inf or nan scores at gamma=1000"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=message) as info:
            evaluate_masked_function(g, mask, exp_minus_one(1000.0))
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert guarded == ([] if g.directed else [True, True])


def test_direct_core_respects_cap(monkeypatch):
    g = _er_digraph(30, 0.2, seed=1)
    mask = sample_columns(g, 10, seed=0)
    monkeypatch.setattr(matfun, "DENSE_CAP", 5)
    with pytest.raises(EvaluationError, match="cap"):
        evaluate_masked_function(g, mask, exp_minus_one(1.0))


def test_row_quadratic_forms_over_several_row_blocks(monkeypatch):
    g = generate("pa:n=400,m=3,seed=2")
    mask = sample_columns(g, 12, seed=1)
    f = exp_minus_one(0.5)
    single = evaluate_masked_function(g, mask, f)
    # a row block holds _ROW_BLOCK_ENTRIES // ell of the rows of A[:, J] @ K,
    # taken over the rows of A[:, J] with a stored entry
    stored = np.count_nonzero(np.diff(g.csc[:, mask.indices].tocsr().indptr))
    monkeypatch.setattr(matfun, "_ROW_BLOCK_ENTRIES", len(mask) * (stored // 3 - 1))
    step = matfun._ROW_BLOCK_ENTRIES // len(mask)
    assert -(-stored // step) >= 3
    blocked = evaluate_masked_function(g, mask, f)
    assert rel_err(blocked.diag, single.diag) <= 1e-14


def test_row_quadratic_forms_skip_the_empty_rows_bitwise():
    # edges among 300 of 20000 nodes: nearly every row of A[:, J] is empty
    small = generate("pa:n=300,m=3,seed=1")
    g = SparseGraph.from_edges(20_000, np.column_stack(small.csr.nonzero()), directed=False)
    mask = sample_columns(g, 20, seed=1)
    cols = g.csc[:, mask.indices].tocsr()
    assert np.count_nonzero(np.diff(cols.indptr)) < g.n // 50
    K = np.random.default_rng(0).random((len(mask), len(mask)))
    K += K.T
    every_row = np.asarray(cols.multiply(cols @ K).sum(axis=1)).ravel()
    assert np.array_equal(matfun._row_quadratic_forms(cols, K), every_row)


@pytest.mark.parametrize("directed", [1, 0])
@pytest.mark.parametrize("mask_n, graph_n", [(50, 80), (80, 50)])
def test_masked_evaluation_refuses_a_mask_of_another_size(directed, mask_n, graph_n):
    other = generate(f"er:n={mask_n},p=0.1,seed=1,directed={directed}")
    g = generate(f"er:n={graph_n},p=0.1,seed=2,directed={directed}")
    mask = sample_columns(other, 5, seed=1)
    with pytest.raises(ValueError, match="sample dimension does not match the graph"):
        evaluate_masked_function(g, mask, exp_minus_one(1.0))


@pytest.mark.parametrize("directed", [True, False])
def test_masked_evaluation_scales_with_the_sampled_columns(directed):
    # 2*10^6 nodes, edges among 300 of them: an evaluation costs O(nnz(A[:, J]) + n)
    # plus the ell-order core, so no step may sort or gather the n rows
    small = generate(f"er:n=300,p=0.05,seed=1,directed={int(directed)}")
    g = SparseGraph.from_edges(2_000_000, np.column_stack(small.csr.nonzero()), directed)
    mask = sample_columns(g, 20, seed=1)
    start = time.perf_counter()
    res = evaluate_masked_function(g, mask, exp_minus_one(1.0))
    assert time.perf_counter() - start < 0.5
    assert res.method == ("direct_core" if directed else "arrow_core")


@pytest.mark.parametrize("directed", [True, False])
def test_core_blocks_refuse_above_the_dense_cap(directed):
    import tracemalloc

    n = matfun.DENSE_CAP + 1
    idx = np.arange(n - 1, dtype=np.int64)
    g = SparseGraph.from_edges(n, np.column_stack([idx, idx + 1]), directed=directed)
    mask = _column_mask(n, np.arange(n))
    tracemalloc.start()
    try:
        with pytest.raises(EvaluationError, match=f"core size {n} exceeds the dense cap"):
            evaluate_masked_function(g, mask, exp_minus_one(1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 8  # not even one row of the ell x ell core


# -- structural invariants ----------------------------------------------------


def test_resolvent_identity_on_reconstructed_columns():
    # the Katz row sums x = 1 + rowsum solve (I - gamma*A_mask) x = 1
    g = _er_digraph(35, 0.2, seed=8)
    mask = sample_columns(g, 10, seed=5)
    masked = _masked_dense(g, mask)
    rho = np.max(np.abs(np.linalg.eigvals(masked)))
    gamma = 0.5 / max(rho, 1.0)
    res = evaluate_masked_function(g, mask, resolvent_minus_one(gamma))
    x = 1.0 + res.rowsum
    assert np.max(np.abs(x - gamma * (masked @ x) - 1.0)) <= 1e-8


def test_nilpotent_series_termination():
    # any DAG adjacency stays nilpotent under masking; the exponential equals
    # the terminating series
    rng = np.random.default_rng(44)
    n = 12
    upper = np.triu(rng.random((n, n)) < 0.4, k=1)
    rows, cols = np.nonzero(upper)
    g = SparseGraph.from_edges(n, np.column_stack([rows, cols]), directed=True)
    mask = sample_columns(g, 6, seed=3)
    res = evaluate_masked_function(g, mask, exp_minus_one(1.0), seed=0)
    masked = _masked_dense(g, mask)
    series = np.zeros((n, n))
    power = np.eye(n)
    factorial = 1.0
    for k in range(1, n):
        power = power @ masked
        factorial *= k
        series += power / factorial
    assert np.max(np.abs(res.diag - np.diagonal(series))) <= 1e-12
    assert np.max(np.abs(res.rowsum - series @ np.ones(n))) <= 1e-12


# -- row sampling: f(A^T) from sampled rows of A ------------------------------


def _from_rows(g, rows, f, seed):
    """README's row-sampling recipe: the rows of A are the columns of A^T."""
    return evaluate_masked_function(
        transpose(g), dataclasses.replace(rows, kind="column"), f, seed=seed
    )


def test_row_recipe_undirected_equals_direct():
    g = triangle()
    rows = full_row_sample(g)
    cols = full_column_sample(g)
    f = exp_minus_one(1.0)
    a = _from_rows(g, rows, f, seed=3)
    b = evaluate_masked_function(g, cols, f, seed=3)
    assert np.allclose(a.diag, b.diag, atol=1e-10)
    assert np.allclose(a.rowsum, b.rowsum, atol=1e-10)


def test_row_recipe_nilpotent_edge():
    g = directed_edge()
    rows = SampleSet(np.array([0]), "row", "guided", 2)
    res = _from_rows(g, rows, exp_minus_one(1.0), seed=0)
    assert res.diag.tolist() == [0.0, 0.0]
    assert res.rowsum.tolist() == [0.0, 1.0]


def test_row_recipe_diag_identity_full_sampling():
    g = _er_digraph(40, 0.15, seed=21)
    f = exp_minus_one(1.0)
    rows = full_row_sample(g)
    res_t = _from_rows(g, rows, f, seed=2)
    res = evaluate_masked_function(g, full_column_sample(g), f, seed=2)
    assert rel_err(res_t.diag, res.diag) <= 1e-8


# -- serialization ------------------------------------------------------------


def test_matfun_result_serialization():
    import json

    g = undirected_edge()
    res = evaluate_masked_function(g, full_column_sample(g), exp_minus_one(1.0), seed=0)
    record = json.loads(json.dumps(res.metadata()))
    assert record["method"] == "arrow_core"
    assert res.diag.shape == res.rowsum.shape == (2,)

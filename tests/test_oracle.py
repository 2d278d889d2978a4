"""Dense, sparse-exponential and Perron reference computations."""

from __future__ import annotations

import os
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from sampled_centrality import (
    EvaluationError,
    SparseGraph,
    dense_left_perron,
    exp_minus_one,
    expm_rowsum,
    katz_rowsum,
    resolvent_minus_one,
    sample_columns,
)
from sampled_centrality import matfun, oracle
from sampled_centrality.matfun import direct_core_evaluation
from sampled_centrality.cli import generate
from conftest import (
    directed_edge,
    directed_path,
    directed_two_cycle,
    path3,
    refuse_dense_copies,
    rel_err,
    star,
    triangle,
)
import dense_reference
from dense_reference import dense_matfun
from taylor_reference import whole_matrix_subgraph_diag, whole_matrix_taylor_exp


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
    a = g.csr.toarray()
    out = dense_matfun(a, exp_minus_one(1.0))
    assert np.allclose(out, a + a @ a / 2.0, atol=1e-15)


def test_dense_matfun_resolvent_requires_convergent_gamma():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])  # rho = 1
    with pytest.raises(EvaluationError, match="diverges"):
        dense_matfun(a, resolvent_minus_one(1.0))
    out = dense_matfun(a, resolvent_minus_one(0.5))
    assert np.allclose(out, [[1.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]], atol=1e-14)


def test_dense_matfun_cap(monkeypatch):
    monkeypatch.setattr(dense_reference, "DENSE_CAP", 10)
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
    ("er:n=300,p=0.02,seed=5", 0.3),
]


def floored_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Worst |a - b| / max(|a|, |b|, 1) over all entries."""
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)))


def random_dag(n: int = 200) -> SparseGraph:
    rng = np.random.default_rng(8)
    pairs = rng.integers(0, n, size=(10 * n, 2))
    return SparseGraph.from_edges(n, pairs[pairs[:, 0] < pairs[:, 1]], directed=True)


@pytest.mark.parametrize("spec, gamma", SUBGRAPH_CASES)
def test_subgraph_diag_matches_dense(spec, gamma):
    g = generate(spec)
    exact = np.diagonal(dense_matfun(g.csr.toarray(), exp_minus_one(gamma)))
    assert floored_rel_err(oracle.subgraph_diag(g, gamma).scores, exact) <= 1e-12


def _plan(g: SparseGraph, gamma: float) -> tuple[int, int, float]:
    """The exponential kernel's plan for exp(gamma*A)."""
    return matfun.taylor_plan(gamma * g.csr)


def dense_norm_bounds(g: SparseGraph, gamma: float) -> dict[int, float]:
    """alpha_m of every degree in the theta table, from dense powers of gamma*A."""
    b = gamma * g.csr.toarray()
    power, d = np.eye(g.n), [0.0]
    for p in range(1, 10):
        power = power @ b
        d.append(np.linalg.norm(power, 1) ** (1.0 / p))
    return {
        m: min(max(d[p], d[p + 1]) for p in range(2, m) if p * (p - 1) <= m + 1)
        for m in matfun.TAYLOR_THETA
    }


def test_subgraph_diag_scaling_meets_theta():
    squarings_seen = set()
    for spec, gamma in SUBGRAPH_CASES:
        g = generate(spec)
        degree, squarings, alpha = _plan(g, gamma)
        squarings_seen.add(squarings)
        theta = matfun.TAYLOR_THETA[degree]
        assert alpha / 2.0**squarings <= theta
        # the fewest squarings that meet the bound
        assert squarings == 0 or alpha / 2.0 ** (squarings - 1) > theta

        def cost(m: int, alpha_m: float) -> float:
            s = 0
            while alpha_m / 2.0**s > matfun.TAYLOR_THETA[m]:
                s += 1
            return (m - 1) * g.csr.nnz * g.n + matfun.SQUARING_COST * max(s - 1, 0) * g.n**3

        # no degree of the table costs less
        alphas = dense_norm_bounds(g, gamma)
        assert alpha == pytest.approx(alphas[degree], rel=1e-13)
        assert cost(degree, alpha) <= min(cost(m, alphas[m]) for m in alphas)
    # no squaring, the diagonal-only squaring, and full squarings before it
    assert {0, 1, 2} <= squarings_seen


def test_subgraph_diag_norm_bound_is_exact_for_nonnegative_powers():
    g = generate("er:n=300,p=0.02,seed=5")
    degree, _, alpha = _plan(g, 0.7)
    assert alpha == pytest.approx(dense_norm_bounds(g, 0.7)[degree], rel=1e-13)


def test_subgraph_diag_dag_is_exactly_zero():
    dag = random_dag()
    assert _plan(dag, 3.0)[1] >= 2  # full squarings run
    for g in (dag, directed_path(30)):
        assert oracle.subgraph_diag(g, 3.0).scores.tolist() == [0.0] * g.n


def test_subgraph_diag_no_edges():
    g = SparseGraph.from_edges(5, np.empty((0, 2), dtype=np.int64), directed=True)
    assert _plan(g, 1.0) == (min(matfun.TAYLOR_THETA), 0, 0.0)
    assert oracle.subgraph_diag(g, 1.0).scores.tolist() == [0.0] * 5


def test_subgraph_diag_matches_blocked_expm_multiply():
    from scipy.sparse.linalg import expm_multiply

    g = generate("er:n=2000,p=0.005,seed=1")
    assert _plan(g, 1.0)[:2] == (40, 1)  # a plan with no full squaring
    nodes = np.random.default_rng(0).choice(g.n, size=200, replace=False)
    units = np.zeros((g.n, nodes.size))
    units[nodes, np.arange(nodes.size)] = 1.0
    exact = expm_multiply(g.csc, units)[nodes, np.arange(nodes.size)] - 1.0
    scores = oracle.subgraph_diag(g, 1.0).scores[nodes]
    assert np.max(np.abs(scores - exact)) <= 1e-14 * np.max(np.abs(exact))


# (graph, gammas giving 0, 1 and >= 2 squarings): with panels of
# ``PANEL_COLUMNS`` columns, n = 130, 150 and 200 are not multiples of the
# panel width, n = 40 is below one panel (so two workers get one panel), and
# the single node carries a self-loop so its diagonal is not zero; the
# column core of ell = min(n, 100) sampled columns has order ell + 1
PANEL_PARITY_GRAPHS = {
    "directed": (lambda: generate("er:n=130,p=0.05,seed=2"), (0.1, 0.3, 2.0)),
    "undirected": (lambda: generate("pa:n=150,m=3,seed=1"), (0.1, 0.2, 2.0)),
    "dag": (random_dag, (0.1, 1.0, 3.0)),
    "below-one-panel": (lambda: generate("er:n=40,p=0.1,seed=1"), (0.25, 0.5, 2.0)),
    "one-node": (
        lambda: SparseGraph.from_edges(1, np.array([[0, 0]]), directed=True),
        (1.0, 2.5, 20.0),
    ),
}
PANEL_COLUMNS = 64


def whole_matrix_column_core(g: SparseGraph, mask, gamma: float):
    """diag and rowsum of exp(gamma*A_masked) - I on the column mask from
    the whole-matrix Horner of the augmented core [[gamma*A11, 1/ell], [0, 0]]."""
    J, ell = mask.indices, len(mask)
    cols = g.csc[:, J].tocsr()
    aug = np.zeros((ell + 1, ell + 1))
    aug[:ell, :ell] = gamma * cols[J].toarray()
    aug[:ell, ell] = 1.0 / ell
    unit = np.zeros((ell + 1, 1))
    unit[ell] = 1.0
    core_diag, action = whole_matrix_taylor_exp(sp.csr_matrix(aug), unit)
    diag = np.zeros(g.n)
    diag[J] = core_diag[:ell]
    return diag, cols @ ((gamma / (1.0 / ell)) * action[:ell, 0])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(PANEL_PARITY_GRAPHS))
def test_subgraph_diag_panels_match_the_whole_matrix_bitwise(name, workers, monkeypatch):
    monkeypatch.setattr(matfun, "_available_cpus", lambda: workers)
    build, gammas = PANEL_PARITY_GRAPHS[name]
    g = build()
    mask = sample_columns(g, min(g.n, 100), seed=1)
    assert g.n % PANEL_COLUMNS and (len(mask) + 1) % PANEL_COLUMNS
    squarings = []
    for gamma in gammas:
        monkeypatch.setattr(matfun, "_PANEL_ENTRIES", PANEL_COLUMNS * g.n)
        result = oracle.subgraph_diag(g, gamma)
        assert np.array_equal(result.scores, whole_matrix_subgraph_diag(g, gamma))
        plan = (result.degree, result.squarings, result.norm_bound)
        assert plan == _plan(g, gamma)
        squarings.append(result.squarings)
        # the column core's exponential runs the same kernel
        monkeypatch.setattr(matfun, "_PANEL_ENTRIES", PANEL_COLUMNS * (len(mask) + 1))
        core = direct_core_evaluation(g, mask, exp_minus_one(gamma))
        diag, rowsum = whole_matrix_column_core(g, mask, gamma)
        assert np.array_equal(core.diag, diag) and np.array_equal(core.rowsum, rowsum)
    assert squarings[:2] == [0, 1] and squarings[2] >= 2
    # a DAG has no closed walks; every other graph has some
    assert result.scores.any() == (name != "dag")


def test_available_cpus_counts_the_affinity_mask():
    cpus = matfun._available_cpus()
    assert cpus >= 1
    if hasattr(os, "sched_getaffinity"):
        assert cpus == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
def test_subgraph_diag_refuses_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        oracle.subgraph_diag(triangle(), gamma)


@pytest.mark.parametrize("gamma", [0.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("reference", [oracle.subgraph_diag, expm_rowsum, katz_rowsum])
def test_references_refuse_gamma_by_the_scalar_function_rule(reference, gamma):
    # each reference builds the ScalarFunction it evaluates, so a gamma that
    # is not positive and finite is refused before any arithmetic, unwarned
    g = generate("er:n=50,p=0.1,seed=1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^gamma must be positive and finite$"):
            reference(g, gamma)


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


def test_subgraph_diag_stops_at_the_first_overflow():
    # no errstate here: a RuntimeWarning from the squarings fails the suite
    g = generate("er:n=50,p=0.1,seed=1")
    assert _plan(g, 1000.0)[1] >= 2
    with pytest.raises(EvaluationError, match="subgraph_diag returned inf or nan scores"):
        oracle.subgraph_diag(g, 1000.0)


def test_subgraph_diag_cap_refuses_before_dense_allocation(monkeypatch):
    import tracemalloc

    g = generate("er:n=2000,p=0.001,seed=1")
    monkeypatch.setattr(oracle, "DENSE_CAP", 10)
    refuse_dense_copies(monkeypatch, g.n)
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
    exact = dense_matfun(g.csr.toarray(), f).sum(axis=1)
    assert rel_err(expm_rowsum(g, gamma), exact) <= 1e-12


def test_expm_rowsum_nilpotent_edge():
    # exp(gamma*A) = I + gamma*A for the single directed edge 0 -> 1
    g = directed_edge()
    got = expm_rowsum(g, 0.7)
    assert np.allclose(got, [0.7, 0.0], rtol=1e-14, atol=1e-15)
    exact = dense_matfun(g.csr.toarray(), exp_minus_one(0.7)).sum(axis=1)
    assert rel_err(got, exact) <= 1e-12


def test_expm_rowsum_scores_subtract_no_one():
    # 0 -> 1 -> 2: the scores are gamma + gamma^2/2, gamma and the sink's 0;
    # exp(gamma*A)*1 - 1 lost 3.8e-11 and 8.2e-11 of them at gamma = 1e-6
    g = directed_path(3)
    for gamma in (1e-6, 1.0):
        scores = expm_rowsum(g, gamma)
        exact = [Fraction(gamma) + Fraction(gamma) ** 2 / 2, Fraction(gamma), Fraction(0)]
        assert scores[2] == 0.0
        for score, want in zip(scores.tolist(), exact):
            assert abs(Fraction(score) - want) <= Fraction(1e-15) * want


@pytest.mark.parametrize(
    "spec, gamma",
    [("er:n=300,p=0.02,seed=5", 0.1), ("pa:n=300,m=4,seed=3", 0.05), ("path:n=6", 0.5)],
)
def test_katz_rowsum_matches_dense(spec, gamma):
    g = generate(spec)
    ref = katz_rowsum(g, gamma)
    exact = dense_matfun(g.csr.toarray(), resolvent_minus_one(gamma)).sum(axis=1)
    assert rel_err(ref.scores, exact) <= 1e-12
    assert ref.residual_inf <= oracle.KATZ_RESIDUAL_TOL
    # |x - x*| <= bound * x entrywise, with x = 1 + scores
    assert np.all(np.abs(ref.scores - exact) <= ref.relative_error_bound * (1.0 + ref.scores))


def test_katz_rowsum_scores_subtract_no_one():
    # 0 -> 1 -> 2: the scores are gamma + gamma^2, gamma and the sink's 0, each
    # within the certified bound of its exact rational value
    g = directed_path(3)
    gamma = 1e-6
    ref = katz_rowsum(g, gamma)
    exact = [Fraction(gamma) + Fraction(gamma) ** 2, Fraction(gamma), Fraction(0)]
    assert ref.scores[2] == 0.0
    for score, want in zip(ref.scores.tolist(), exact):
        assert abs(Fraction(score) - want) <= Fraction(1e-14) * want
        assert abs(Fraction(score) - want) <= Fraction(ref.relative_error_bound) * want


def test_katz_rowsum_certifies_gamma_rho():
    # Collatz-Wielandt: the certified bound is at least gamma*rho and below 1
    period3 = SparseGraph.from_edges(4, np.array([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]), True)
    non_normal = SparseGraph.from_edges(
        4, np.array([(0, 3), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1)]), True
    )
    for g in (period3, non_normal, generate("er:n=60,p=0.1,seed=1")):
        rho = float(np.max(np.abs(np.linalg.eigvals(g.csr.toarray()))))
        for gamma in (0.5 / rho, 0.9 / rho, 0.99 / rho):
            bound = katz_rowsum(g, gamma).gamma_rho_bound
            assert gamma * rho * (1 - 1e-12) <= bound < 1


def test_katz_rowsum_refuses_an_unfinished_solve(monkeypatch):
    # a solve stopped after one short restart cycle leaves a large residual
    g = generate("er:n=60,p=0.1,seed=1")
    rho = float(np.max(np.abs(np.linalg.eigvals(g.csr.toarray()))))
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
    assert np.linalg.norm(g.csr.toarray().T @ res.vector - lam * res.vector) <= 1e-12
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

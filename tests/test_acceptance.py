"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
status lines.
"""

from __future__ import annotations

import json
import time

import numpy as np
import scipy.sparse.csgraph as csgraph

from sampled_centrality import (
    EvaluationError,
    PerronConfig,
    SampleSet,
    SparseGraph,
    dense_left_perron,
    evaluate_masked_function,
    exp_minus_one,
    left_perron,
    rank_nodes,
    resolvent_minus_one,
    sample_columns,
    symmetric_perron,
    topk_overlap,
)
from sampled_centrality.cli import TIMING_KEYS, ExperimentConfig, generate, run
from sampled_centrality.matfun import direct_core_evaluation
from sampled_centrality.oracle import subgraph_diag
from conftest import (
    directed_edge,
    directed_path,
    full_column_sample,
    full_row_sample,
    path3,
    rel_err,
    star,
    triangle,
    undirected_edge,
)
from dense_reference import dense_matfun
from krylov_reference import ColumnMaskedOperator, arnoldi, krylov_spectral_evaluation
from sampling_reference import next_pick_law


def _report(name: str, passed: bool) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}")


def _er_digraph(n, p, seed):
    rng = np.random.default_rng(seed)
    block = rng.random((n, n)) < p
    np.fill_diagonal(block, False)
    rows, cols = np.nonzero(block)
    return SparseGraph.from_edges(n, np.column_stack([rows, cols]), directed=True)


def _strongly_connected_digraph(n, p, seed):
    for attempt in range(80):
        g = _er_digraph(n, p, seed * 613 + attempt)
        ncomp, _ = csgraph.connected_components(g.csr, directed=True, connection="strong")
        if ncomp == 1:
            return g
    raise AssertionError("no strongly connected digraph found")


def test_criterion_1_full_sampling_exactness_subgraph():
    f = exp_minus_one(1.0)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        g = _er_digraph(60, 0.1, seed=seed)
        mask = full_column_sample(g)
        res = evaluate_masked_function(g, mask, f, seed=seed)
        exact = np.diagonal(dense_matfun(g.csr.toarray(), f))
        worst = max(worst, rel_err(res.diag, exact))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-6 and elapsed < 5.0
    _report(
        f"1 full-sampling exactness, subgraph (worst rel {worst:.2e}, {elapsed:.2f}s)",
        passed,
    )
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_full_sampling_exactness_katz():
    worst = 0.0
    for seed in range(20):
        g = _er_digraph(60, 0.1, seed=seed)
        a = g.csr.toarray()
        rho = float(np.max(np.abs(np.linalg.eigvals(a))))
        assert rho > 0
        f = resolvent_minus_one(0.5 / rho)
        mask = full_column_sample(g)
        res = evaluate_masked_function(g, mask, f, seed=seed)
        exact = dense_matfun(a, f) @ np.ones(g.n)
        worst = max(worst, rel_err(res.rowsum, exact))
    passed = worst <= 1e-6
    _report(f"2 full-sampling exactness, Katz (worst rel {worst:.2e})", passed)
    assert passed


def test_criterion_3_closed_form_fixtures():
    g = undirected_edge()
    res = evaluate_masked_function(g, full_column_sample(g), exp_minus_one(1.0), seed=0)
    c = np.cosh(1.0) - 1.0
    diag_err = float(np.max(np.abs(res.diag - c)))

    gp = directed_path(5)
    mask = full_column_sample(gp)
    resp = evaluate_masked_function(gp, mask, exp_minus_one(1.0), seed=0)
    a = gp.csr.toarray()
    series = np.zeros((5, 5))
    power = np.eye(5)
    factorial = 1.0
    for k in range(1, 5):
        power = power @ a
        factorial *= k
        series += power / factorial
    series_err = max(
        float(np.max(np.abs(resp.diag - np.diagonal(series)))),
        float(np.max(np.abs(resp.rowsum - series @ np.ones(5)))),
    )
    passed = diag_err <= 1e-10 and series_err <= 1e-12
    _report(
        f"3 closed-form fixtures (2-cycle {diag_err:.2e}, nilpotent {series_err:.2e})",
        passed,
    )
    assert diag_err <= 1e-10
    assert series_err <= 1e-12


def test_criterion_4_method_cross_validation():
    rng = np.random.default_rng(2024)
    f = exp_minus_one(1.0)
    compared = 0
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(20, 101))
        p = float(rng.uniform(0.1, 0.35))
        g = _er_digraph(n, p, seed=trial)
        nz = g.nonzero_columns()
        if nz.size < 3:
            continue
        ell = int(rng.integers(3, min(31, nz.size + 1)))
        mask = sample_columns(g, ell, seed=trial * 7 + 1)
        try:
            res = krylov_spectral_evaluation(g, mask, f, seed=trial)
        except EvaluationError:
            continue
        if res.condition_estimate > 1e6:
            continue
        core = direct_core_evaluation(g, mask, f)
        worst = max(worst, rel_err(res.diag, core.diag), rel_err(res.rowsum, core.rowsum))
        compared += 1

    gd = directed_edge()
    mask = SampleSet(np.array([1]), "column", "guided", 2)
    fixture = evaluate_masked_function(gd, mask, exp_minus_one(1.0), seed=0)
    fixture_ok = fixture.method == "direct_core" and fixture.rowsum.tolist() == [1.0, 0.0]
    try:
        krylov_spectral_evaluation(gd, mask, exp_minus_one(1.0), seed=0)
        fixture_ok = False  # the spectral route must refuse the defective core
    except EvaluationError:
        pass

    passed = worst <= 1e-8 and compared >= 20 and fixture_ok
    _report(
        f"4 method cross-validation ({compared} spectral-path instances, worst rel "
        f"{worst:.2e}; defective fixture routed={fixture_ok})",
        passed,
    )
    assert worst <= 1e-8
    assert compared >= 20
    assert fixture_ok


def test_criterion_5_perron_full_sampling_consistency():
    rng = np.random.default_rng(77)
    worst_cosine = 1.0
    for seed in range(20):
        n = int(rng.integers(30, 201))
        g = _strongly_connected_digraph(n, max(0.08, 3.0 / n), seed)
        res = left_perron(
            g, full_column_sample(g), full_row_sample(g), PerronConfig(tol=1e-12)
        )
        oracle = dense_left_perron(g, tol=1e-12)
        assert oracle.converged
        worst_cosine = min(worst_cosine, float(res.vector @ oracle.vector))

    tri = triangle()
    res_tri = symmetric_perron(tri, full_column_sample(tri))
    tri_vec_err = float(np.max(np.abs(res_tri.vector - np.ones(3) / np.sqrt(3))))
    tri_ok = tri_vec_err <= 1e-8 and abs(res_tri.eigenvalue_estimate - 4.0) <= 1e-8

    # star and path have bipartite (+/- paired) spectra: their squared
    # products carry degenerate dominant eigenspaces, so the derived vectors
    # are pinned on the dense oracle while the implicit-product result is
    # held to its eigenpair contract (eigenvalue of the squared operator
    # plus residual)
    st = star(3)
    oracle_star = dense_left_perron(st)
    star_expected = np.array([np.sqrt(3.0), 1.0, 1.0, 1.0]) / np.sqrt(6.0)
    star_vec_err = float(np.max(np.abs(oracle_star.vector - star_expected)))
    res_star = symmetric_perron(st, full_column_sample(st))
    from sampled_centrality.perron import product_transpose_apply

    J_star = full_column_sample(st)
    star_residual = float(
        np.linalg.norm(
            product_transpose_apply(st, J_star, J_star)(res_star.vector)
            - res_star.eigenvalue_estimate * res_star.vector
        )
    )
    star_ok = (
        star_vec_err <= 1e-8
        and abs(res_star.eigenvalue_estimate - 3.0) <= 1e-8
        and star_residual <= 1e-8
    )

    pg = path3()
    oracle_path = dense_left_perron(pg)
    path_expected = np.array([1.0, np.sqrt(2.0), 1.0]) / 2.0
    path_vec_err = float(np.max(np.abs(oracle_path.vector - path_expected)))
    res_path = symmetric_perron(pg, full_column_sample(pg))
    path_ok = path_vec_err <= 1e-8 and abs(res_path.eigenvalue_estimate - 2.0) <= 1e-8

    passed = worst_cosine >= 1.0 - 1e-8 and tri_ok and star_ok and path_ok
    _report(
        f"5 Perron full-sampling consistency (worst cosine 1-{1.0 - worst_cosine:.2e}; "
        f"fixtures tri={tri_ok} star={star_ok} path={path_ok})",
        passed,
    )
    assert worst_cosine >= 1.0 - 1e-8
    assert tri_ok and star_ok and path_ok


def test_criterion_6_guided_beats_random():
    f = exp_minus_one(1.0)
    k = 20
    ell = 200
    guided_overlaps = []
    random_overlaps = []
    for seed in range(20):
        g = generate(f"pa:n=2000,m=5,seed={seed}")
        exact = subgraph_diag(g, 1.0).scores
        exact_ranking = rank_nodes(exact, k)
        for strategy, bucket in (("guided", guided_overlaps), ("random", random_overlaps)):
            mask = sample_columns(g, ell, seed=seed, strategy=strategy)
            res = evaluate_masked_function(g, mask, f, seed=seed)
            bucket.append(topk_overlap(exact_ranking, rank_nodes(res.diag, k), k))
    mean_guided = float(np.mean(guided_overlaps))
    mean_random = float(np.mean(random_overlaps))
    passed = mean_guided >= mean_random
    _report(
        f"6 guided beats random (mean overlap@20 guided {mean_guided:.2f} vs random "
        f"{mean_random:.2f} over 20 seeds)",
        passed,
    )
    assert passed


def test_criterion_7_sampler_statistical_law():
    # after columns 0 and 1 the eligible nodes 2, 3, 4 weigh 2, 1, 1, and
    # node 5 is a zero column, so a draw onto it is redrawn
    edges = np.array([[1, 0], [2, 0], [3, 0], [0, 1], [2, 1], [4, 1], [3, 2], [4, 3], [5, 4]])
    g = SparseGraph.from_edges(6, edges, directed=True)
    runs = 20_000
    thirds: dict[tuple[int, int], np.ndarray] = {}
    for seed in range(runs):
        first, second, third = sample_columns(g, 3, seed).indices.tolist()
        thirds.setdefault((first, second), np.zeros(g.n))[third] += 1
    worst = 0.0
    for pair, counts in thirds.items():
        law = next_pick_law(g, pair)
        trials = counts.sum()
        excess = np.abs(counts - trials * law)
        sigma = np.sqrt(trials * law * (1 - law))
        z = np.divide(excess, sigma, out=np.where(excess > 0, np.inf, 0.0), where=sigma > 0)
        worst = max(worst, float(z.max()))
    frozen = next_pick_law(g, [0, 1]).tolist() == [0.0, 0.0, 0.5, 0.25, 0.25, 0.0]
    passed = worst <= 5.0 and frozen
    _report(
        f"7 sampler statistical law (worst |z| {worst:.2f} over {len(thirds)} first pairs)",
        passed,
    )
    assert passed


def test_criterion_8_property_suites(tmp_path):
    checks: dict[str, bool] = {}

    # orthonormality and invariance residual at breakdown
    g = _er_digraph(80, 0.08, seed=31)
    mask = sample_columns(g, 25, seed=3)
    d = arnoldi(g, mask, seed=11)
    orth = float(np.max(np.abs(d.basis.T @ d.basis - np.eye(d.steps))))
    checks["orthonormality<=1e-10"] = orth <= 1e-10
    op = ColumnMaskedOperator(g, mask.indices)
    rho = max(1.0, float(np.max(np.abs(np.linalg.eigvals(d.small_matrix)))))
    checks["invariance<=1e-8"] = d.breakdown and d.invariance_residual(op) <= 1e-8 * rho

    # diagonal vanishes outside the sampled columns
    res = evaluate_masked_function(g, mask, exp_minus_one(1.0), seed=5)
    outside = np.setdiff1d(np.arange(g.n), mask.indices)
    checks["diag-zero-outside-J"] = bool(np.all(res.diag[outside] == 0.0))

    # resolvent identity on the Katz row sums: (I - gamma*A_mask)(1 + rowsum) = 1
    gr = _er_digraph(40, 0.15, seed=13)
    mr = sample_columns(gr, 10, seed=2)
    keep = np.zeros(gr.n)
    keep[mr.indices] = 1.0
    masked = gr.csr.toarray() * keep[np.newaxis, :]
    rho_mask = float(np.max(np.abs(np.linalg.eigvals(masked))))
    gamma = 0.5 / max(rho_mask, 1.0)
    x = 1.0 + evaluate_masked_function(gr, mr, resolvent_minus_one(gamma)).rowsum
    worst_res = float(np.max(np.abs(x - gamma * (masked @ x) - 1.0)))
    checks["resolvent-identity<=1e-8"] = worst_res <= 1e-8

    # argsort invariance of rankings under strictly increasing transforms
    rng = np.random.default_rng(8)
    scores = rng.random(60)
    base = rank_nodes(scores, 20).ordered_nodes
    checks["argsort-invariance"] = all(
        np.array_equal(rank_nodes(t(scores), 20).ordered_nodes, base)
        for t in (lambda s: 10 * s + 3, np.exp, lambda s: s**3 + 2 * s)
    )

    # end-to-end CLI determinism, timing excluded
    def one(path):
        cfg = ExperimentConfig(
            generate="pa:n=150,m=3,seed=9",
            measure="subgraph",
            ell_list=[15, 30],
            seed=6,
            trials=2,
            out=str(path),
            write_csv=True,
        )
        assert run(cfg) == 0
        rep = json.loads(path.with_suffix(".json").read_text())
        for key in TIMING_KEYS:
            del rep[key]
        return json.dumps(rep, sort_keys=True).encode(), path.with_suffix(".csv").read_bytes()

    checks["cli-determinism"] = one(tmp_path / "r1") == one(tmp_path / "r2")

    passed = all(checks.values())
    detail = ", ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks.items())
    _report(f"8 property suites ({detail})", passed)
    assert passed, detail

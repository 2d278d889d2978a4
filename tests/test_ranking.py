"""Ranking construction, top-k agreement statistics, and the CLI report built from them."""

from __future__ import annotations

import json

import numpy as np
import pytest

from sampled_centrality import (
    EvaluationError,
    evaluate_masked_function,
    exact_matches,
    exp_minus_one,
    rank_nodes,
    sample_columns,
    topk_overlap,
)
from sampled_centrality.cli import generate, main
from sampled_centrality.oracle import subgraph_diag
from conftest import edge_list_text


def test_rank_nodes_tie_break_by_id():
    r = rank_nodes(np.array([0.5, 0.9, 0.5]), k=3)
    assert r.ordered_nodes.tolist() == [1, 0, 2]
    assert r.scores.tolist() == [0.9, 0.5, 0.5]


def test_rank_nodes_orders_scores_one_ulp_apart_by_value():
    # only bitwise-equal scores are ties: one ulp outranks a smaller id
    low = 0.5
    high = np.nextafter(low, 1.0)
    assert rank_nodes(np.array([low, high]), k=2).ordered_nodes.tolist() == [1, 0]
    assert rank_nodes(np.array([high, low]), k=2).ordered_nodes.tolist() == [0, 1]


def test_rank_nodes_all_equal():
    r = rank_nodes(np.zeros(5), k=5)
    assert r.ordered_nodes.tolist() == [0, 1, 2, 3, 4]


def test_rank_nodes_top_defaults_to_the_report_depth():
    r = rank_nodes(np.array([3.0, 1.0, 2.0]), k=2)
    assert r.ordered_nodes.tolist()[:2] == [0, 2]
    assert r.top().tolist() == [0, 2]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rank_nodes_refuses_non_finite_scores(bad):
    with pytest.raises(ValueError, match="1 of 3 scores are not finite"):
        rank_nodes(np.array([1.0, bad, 2.0]), k=2)


@pytest.mark.parametrize(
    "spec, route",
    [("er:n=50,p=0.1,seed=1", "direct_core"), ("pa:n=60,m=3,seed=1", "arrow_core")],
)
def test_overflowed_core_estimates_are_refused(spec, route):
    # at gamma = 1000 exp(gamma * A11) overflows on the column core (directed)
    # and the arrow core (undirected): the evaluation itself refuses
    g = generate(spec)
    J = sample_columns(g, 10, 1, "guided")
    with np.errstate(all="ignore"), pytest.raises(
        EvaluationError, match=f"{route} returned inf or nan scores at gamma=1000"
    ):
        evaluate_masked_function(g, J, exp_minus_one(1000.0))


def test_rank_nodes_k_bounds():
    with pytest.raises(ValueError):
        rank_nodes(np.ones(3), k=4)
    with pytest.raises(ValueError):
        rank_nodes(np.ones(3), k=0)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    scores = rng.random(40)
    base = rank_nodes(scores, k=10)
    for transform in (lambda s: 3 * s + 1, np.exp, lambda s: s**3 + s):
        assert np.array_equal(rank_nodes(transform(scores), k=10).ordered_nodes, base.ordered_nodes)


def test_overlap_identical_and_disjoint():
    a = rank_nodes(np.arange(40, dtype=float), k=20)
    assert topk_overlap(a, a, 20) == 20
    scores_b = np.arange(40, dtype=float)
    scores_b[:20] += 100  # flip which half is on top
    b = rank_nodes(scores_b, k=20)
    assert topk_overlap(a, b, 20) == 0


def test_exact_matches_identical_and_reversed():
    a = rank_nodes(np.arange(6, dtype=float), k=6)
    assert exact_matches(a, a, 6) == 6
    b = rank_nodes(-np.arange(6, dtype=float), k=6)
    assert exact_matches(a, b, 6) == 0


def test_overlap_and_exact_symmetry():
    rng = np.random.default_rng(5)
    a = rank_nodes(rng.random(30), k=10)
    b = rank_nodes(rng.random(30), k=10)
    assert topk_overlap(a, b, 10) == topk_overlap(b, a, 10)
    assert exact_matches(a, b, 10) == exact_matches(b, a, 10)
    assert exact_matches(a, b, 10) <= topk_overlap(a, b, 10)


def test_depth_validation():
    a = rank_nodes(np.ones(5), k=5)
    b = rank_nodes(np.ones(4), k=4)
    with pytest.raises(ValueError):
        topk_overlap(a, b, 5)
    with pytest.raises(ValueError, match="k exceeds a ranking depth"):
        exact_matches(a, b, 5)


def _cli_report(tmp_path, argv, name="report"):
    """The JSON report and the CSV cells of one CLI run."""
    out = tmp_path / name
    assert main([*argv, "--csv", "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    cells = [line.split(",") for line in out.with_suffix(".csv").read_text().splitlines()]
    return report, cells


@pytest.mark.parametrize(
    "spec, measure",
    [
        ("er:n=80,p=0.08,seed=2", "perron"),
        ("pa:n=120,m=3,seed=4", "katz"),
        ("er:n=80,p=0.08,seed=2", "communicability"),
    ],
)
def test_report_statistics_and_invariant(tmp_path, spec, measure):
    k = 20
    argv = ["--generate", spec, "--measure", measure, "--gamma", "0.05", "--epsilon", "1e-3"]
    report, _ = _cli_report(tmp_path, [*argv, "--ell", "5,10,40", "--trials", "2", "--k", str(k)])
    rows = report["results"] + report["report"]["candidates"]
    assert len(rows) == 6 + 3
    for row in rows:
        assert 0 <= row["exact_at_k"] <= row["overlap_at_k"] <= k


def test_report_serialization(tmp_path):
    spec, k, seed = "er:n=80,p=0.08,seed=2", 10, 5
    argv = ["--generate", spec, "--ell", "30,60", "--trials", "2", "--seed", str(seed)]
    report, cells = _cli_report(tmp_path, [*argv, "--k", str(k)])
    table = report["report"]
    assert table["k"] == k
    assert table["tie_break"] == "ascending node id"

    # the reference is the exact subgraph diagonal, ranked
    g = generate(spec)
    ref = rank_nodes(subgraph_diag(g, 1.0).scores, k)
    assert table["reference"]["top"] == ref.top().tolist()
    assert table["reference"]["scores"] == ref.scores.tolist()

    # each ell's candidate is its first run, ranked from an estimate made here
    assert [c["label"] for c in table["candidates"]] == ["l=30", "l=60"]
    first_runs = [row for row in report["results"] if row["seed"] == seed]
    assert [row["ell"] for row in first_runs] == [30, 60]
    for cand, row in zip(table["candidates"], first_runs):
        for key in ("top", "overlap_at_k", "exact_at_k"):
            assert cand[key] == row[key], key
        J = sample_columns(g, row["ell"], seed)
        estimate = rank_nodes(evaluate_masked_function(g, J, exp_minus_one(1.0)).diag, k)
        assert cand["top"] == estimate.top().tolist()
        assert cand["scores"] == estimate.scores.tolist()
        assert cand["overlap_at_k"] == topk_overlap(ref, estimate, k)
        assert cand["exact_at_k"] == exact_matches(ref, estimate, k)
        assert 0 < cand["overlap_at_k"] < k

    # the CSV is the JSON table: a header, ranks 1..k, then the two statistics
    columns = [table["reference"]] + table["candidates"]
    assert len(cells) == k + 3
    assert cells[0] == ["rank", "reference", "l=30", "l=60"]
    for pos, line in enumerate(cells[1 : k + 1]):
        assert line == [str(pos + 1)] + [str(c["top"][pos]) for c in columns]
    assert cells[k + 1] == ["overlap@k", ""] + [str(c["overlap_at_k"]) for c in columns[1:]]
    assert cells[k + 2] == ["exact@k", ""] + [str(c["exact_at_k"]) for c in columns[1:]]


def test_report_respects_labels(tmp_path):
    # a .mtx file numbers nodes from 1: the report writes those labels where
    # the same graph read as a 0-based edge list writes the ids
    g = generate("er:n=60,p=0.1,seed=1")
    a = g.csr.tocoo()
    mtx = tmp_path / "graph.mtx"
    header = f"%%MatrixMarket matrix coordinate pattern general\n{g.n} {g.n} {a.nnz}\n"
    mtx.write_text(header + "".join(f"{i + 1} {j + 1}\n" for i, j in zip(a.row, a.col)))
    plain = tmp_path / "graph.txt"
    plain.write_text(edge_list_text(np.column_stack([a.row, a.col])))
    argv = ["--measure", "communicability", "--ell", "10,20", "--trials", "2", "--k", "8"]
    labelled, labelled_cells = _cli_report(tmp_path, ["--input", str(mtx), *argv], "mtx")
    ids, id_cells = _cli_report(tmp_path, ["--input", str(plain), *argv], "txt")

    def shifted(top):
        return [i + 1 for i in top]

    assert labelled["report"]["reference"]["top"] == shifted(ids["report"]["reference"]["top"])
    pairs = list(zip(labelled["report"]["candidates"], ids["report"]["candidates"]))
    pairs += list(zip(labelled["results"], ids["results"]))
    assert len(pairs) == 2 + 4
    for with_labels, with_ids in pairs:
        assert with_labels["top"] == shifted(with_ids["top"])
        for key in ("overlap_at_k", "exact_at_k"):
            assert with_labels[key] == with_ids[key]
    assert labelled_cells[0] == id_cells[0] and labelled_cells[-2:] == id_cells[-2:]
    for with_labels, with_ids in zip(labelled_cells[1:-2], id_cells[1:-2]):
        assert with_labels == with_ids[:1] + [str(int(i) + 1) for i in with_ids[1:]]

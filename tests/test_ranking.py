"""Ranking construction and top-k agreement statistics."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from sampled_centrality import (
    EvaluationError,
    RankingReport,
    evaluate_masked_function,
    exact_matches,
    exp_minus_one,
    rank_nodes,
    sample_columns,
    topk_overlap,
)
from sampled_centrality.cli import generate


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


def test_report_statistics_and_invariant():
    rng = np.random.default_rng(9)
    ref = rank_nodes(rng.random(50), k=20)
    candidates = [(f"l={ell}", rank_nodes(rng.random(50), k=20)) for ell in (5, 10)]
    report = RankingReport(ref, candidates, k=20)
    overlaps = report.overlap_at_k()
    exacts = report.exact_at_k()
    for label in overlaps:
        assert 0 <= exacts[label] <= overlaps[label] <= 20


def test_report_serialization():
    ref = rank_nodes(np.array([3.0, 2.0, 1.0]), k=2)
    cand = rank_nodes(np.array([1.0, 2.0, 3.0]), k=2)
    report = RankingReport(ref, [("l=1", cand)], k=2)
    record = json.loads(json.dumps(report.to_record()))
    assert record["k"] == 2
    assert record["reference"]["top"] == [0, 1]
    assert record["candidates"][0]["top"] == [2, 1]
    assert record["candidates"][0]["overlap_at_k"] == 1

    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "rank,reference,l=1"
    assert lines[1] == "1,0,2"
    assert lines[-2].startswith("overlap@k")


def test_report_respects_labels():
    labels = np.array([10, 20, 30])
    ref = rank_nodes(np.array([3.0, 2.0, 1.0]), k=2)
    report = RankingReport(ref, [], k=2)
    record = report.to_record(labels)
    assert record["reference"]["top"] == [10, 20]

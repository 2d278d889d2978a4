"""Generators and the end-to-end experiment driver."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sampled_centrality import (
    EvaluationError,
    PerronConfig,
    SparseGraph,
    evaluate_masked_function,
    exp_minus_one,
    left_perron,
    parse_edge_list,
    rank_nodes,
    resolvent_minus_one,
    sample_columns,
    sample_rows,
    symmetric_perron,
)
from sampled_centrality import cli, matfun, oracle
from sampled_centrality.cli import (
    ExperimentConfig,
    build_parser,
    config_from_args,
    generate,
    main,
    run,
    TIMING_KEYS,
    _parse_ell,
)
from conftest import edge_list_text, entries, refuse_dense_copies, rel_err
from dense_reference import dense_matfun


def test_generate_star():
    g = generate("star:leaves=3")
    assert g.n == 4
    assert g.edge_count == 6  # three undirected edges
    assert not g.directed
    assert g.column(0).tolist() == [1, 2, 3]


def test_generate_cycle_is_triangle():
    g = generate("cycle:n=3")
    assert g.n == 3
    assert g.edge_count == 6
    assert g.column(0).tolist() == [1, 2]


def test_generate_path():
    g = generate("path:n=4")
    assert g.edge_count == 6
    assert g.column(1).tolist() == [0, 2]


def test_generate_er_deterministic_and_simple():
    a = generate("er:n=50,p=0.1,seed=3")
    b = generate("er:n=50,p=0.1,seed=3")
    assert entries(a) == entries(b)
    assert a.directed
    assert all(i != j for i, j in entries(a))
    c = generate("er:n=50,p=0.1,seed=4")
    assert entries(a) != entries(c)


def test_generate_er_undirected():
    g = generate("er:n=40,p=0.15,seed=1,directed=0")
    assert not g.directed
    pairs = entries(g)
    assert all((j, i) in pairs for i, j in pairs)


def test_generate_preferential_attachment():
    n, m = 200, 5
    g = generate(f"pa:n={n},m={m},seed=2")
    assert g.n == n
    assert not g.directed
    assert g.edge_count == 2 * m * (n - m)
    degrees = g.col_degrees
    # every new node brings m edges; the initial nodes are sure only of the
    # edge from node m
    assert degrees[m:].min() >= m
    assert degrees[:m].min() >= 1
    assert degrees.max() > 20  # hubs emerge


def _scalar_loop_pa(n: int, m: int, seed: int) -> SparseGraph:
    """Preferential attachment with one generator call per pick: the first m
    picks of each round from ``default_rng(seed)``, the top-ups from
    ``default_rng([seed, 1])``.  The reference that ``pa:`` specs must keep."""
    first = np.random.default_rng(seed)
    topups = np.random.default_rng([seed, 1])
    targets = list(range(m))
    repeated: list[int] = []
    edges: list[tuple[int, int]] = []
    for source in range(m, n):
        edges.extend((source, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
        picked = {repeated[int(first.integers(len(repeated)))] for _ in range(m)}
        while len(picked) < m:
            picked.add(repeated[int(topups.integers(len(repeated)))])
        targets = sorted(picked)
    return SparseGraph.from_edges(n, np.asarray(edges, dtype=np.int64), directed=False)


@pytest.mark.parametrize(
    "n,m,seed",
    [
        (2, 1, 0), (50, 1, 3), (150, 2, 9), (120, 3, 4), (200, 3, 1),
        (200, 5, 2), (300, 4, 3), (2000, 5, 0), (2000, 5, 7), (5000, 5, 1),
        (5000, 50, 1), (2000, 100, 2), (60, 25, 1), (30000, 1, 4), (10000, 5, 3),
        (30000, 5, 2),
    ],
)
def test_generate_pa_keeps_the_scalar_stream(n, m, seed):
    g = generate(f"pa:n={n},m={m},seed={seed}")
    ref = _scalar_loop_pa(n, m, seed)
    assert np.array_equal(g.csr.indices, ref.csr.indices)
    assert np.array_equal(g.csr.indptr, ref.csr.indptr)
    # the law: m distinct targets per new node, no self-loops, symmetric
    assert g.edge_count == 2 * m * (n - m)
    assert np.count_nonzero(g.csr.diagonal()) == 0
    assert (g.csr != g.csr.T).nnz == 0
    assert g.col_degrees[m:].min() >= m


# shapes that draw top-ups after their first chunk at chunk lengths 1 and 7
_PA_CHUNK_SHAPES = [(150, 2, 9), (300, 4, 3), (2000, 5, 7), (2000, 100, 2)]


@pytest.mark.parametrize("chunk_picks", [1, 7, None])
@pytest.mark.parametrize("n,m,seed", _PA_CHUNK_SHAPES)
def test_generate_pa_is_the_same_at_any_chunk_length(monkeypatch, n, m, seed, chunk_picks):
    # None: one chunk of all n - m rounds
    monkeypatch.setattr(cli, "_PA_CHUNK_PICKS", chunk_picks or (n - m + 1) * m)
    test_generate_pa_keeps_the_scalar_stream(n, m, seed)


@pytest.mark.parametrize("chunk_picks", [7, cli._PA_CHUNK_PICKS])
def test_generate_pa_takes_each_scalar_branch(monkeypatch, chunk_picks):
    # some redone round reads a row written inside its own chunk, some is
    # redone only for a repeated node, and some round after the first chunk
    # tops up; a redone round gets exactly the picks that read a row inside
    # its chunk marked -1, and every other pick already resolved
    monkeypatch.setattr(cli, "_PA_CHUNK_PICKS", chunk_picks)
    scalar_round = cli._pa_scalar_round
    inside, late_topups = [], []

    def counting(targets, k, picks, nodes, topups):
        m = targets.shape[1]
        step = max(1, chunk_picks // m)
        q, o = np.divmod(np.asarray(picks), 2 * m)
        late = (q > k - k % step) & (o < m)
        assert np.array_equal(np.asarray(nodes) == -1, late)
        resolved = np.where(o >= m, q + m, targets[q, np.minimum(o, m - 1)])
        assert np.array_equal(np.asarray(nodes)[~late], resolved[~late])
        inside.append(bool(late.any()))
        before = topups.bit_generator.state
        scalar_round(targets, k, picks, nodes, topups)
        late_topups.append(k >= step and topups.bit_generator.state != before)

    monkeypatch.setattr(cli, "_pa_scalar_round", counting)
    for n, m, seed in _PA_CHUNK_SHAPES:
        generate(f"pa:n={n},m={m},seed={seed}")
    assert any(inside) and not all(inside) and any(late_topups)


def _one_stream_pa(n: int, m: int, seed: int) -> SparseGraph:
    """The earlier reference: every pick, top-ups too, from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    targets = list(range(m))
    repeated: list[int] = []
    edges: list[tuple[int, int]] = []
    for source in range(m, n):
        edges.extend((source, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
        picked: set[int] = set()
        while len(picked) < m:
            picked.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(picked)
    return SparseGraph.from_edges(n, np.asarray(edges, dtype=np.int64), directed=False)


@pytest.mark.parametrize("n,seed", [(2, 0), (50, 3), (9000, 4)])
def test_generate_pa_single_target_graphs_are_unchanged(n, seed):
    # a round with one pick never repeats a node, so m = 1 graphs never draw a
    # top-up and equal those of the one-stream generator
    g = generate(f"pa:n={n},m=1,seed={seed}")
    ref = _one_stream_pa(n, 1, seed)
    assert np.array_equal(g.csr.indices, ref.csr.indices)
    assert np.array_equal(g.csr.indptr, ref.csr.indptr)


def test_generate_pa_bounded_draws_batch_in_any_split():
    # the pa generator relies on integers(bounds), whole or split over several
    # calls, giving the values of one call per bound in turn
    bounds = np.array([7, 100, 2**20, 3, 2**31 + 5, 10**9, 2**40, 2] * 4)
    scalar = np.random.default_rng(11)
    scalar.integers(5, size=3)
    expected = [int(scalar.integers(b)) for b in bounds]

    whole = np.random.default_rng(11)
    whole.integers(5, size=3)
    assert whole.integers(bounds).tolist() == expected
    split = np.random.default_rng(11)
    split.integers(5, size=3)
    assert split.integers(bounds[:13]).tolist() == expected[:13]
    assert split.integers(bounds[13:]).tolist() == expected[13:]


def test_generate_er_edge_cases():
    assert generate("er:n=30,p=0,seed=1").edge_count == 0
    full = generate("er:n=30,p=1,seed=1")
    assert full.edge_count == 30 * 29
    assert np.array_equal(full.csr.toarray(), 1.0 - np.eye(30))
    assert generate("er:n=30,p=1,seed=1,directed=0").edge_count == 30 * 29
    for directed in (0, 1):
        one = generate(f"er:n=1,p=1,seed=0,directed={directed}")
        assert one.n == 1 and one.edge_count == 0
        two = generate(f"er:n=2,p=1,seed=0,directed={directed}")
        assert entries(two) == {(0, 1), (1, 0)}
    assert generate("er:n=2,p=0.5,seed=3").n == 2
    with pytest.raises(ValueError):
        generate("er:n=0,p=0.5")
    with pytest.raises(ValueError):
        generate("er:n=5,p=1.5")


def test_generate_er_is_simple_and_symmetric_when_undirected():
    for seed in range(5):
        d = generate(f"er:n=300,p=0.05,seed={seed}")
        assert np.count_nonzero(d.csr.diagonal()) == 0
        u = generate(f"er:n=300,p=0.05,seed={seed},directed=0")
        assert np.count_nonzero(u.csr.diagonal()) == 0
        assert (u.csr != u.csr.T).nnz == 0


def test_generate_er_edge_count_law():
    n, p = 10_000, 5e-4
    trials = n * (n - 1)
    for seed in range(3):
        count = generate(f"er:n={n},p={p},seed={seed}").edge_count
        assert abs(count - trials * p) <= 6.0 * np.sqrt(trials * p * (1 - p))


@pytest.mark.parametrize("directed", [1, 0])
@pytest.mark.parametrize("n", [6, 2])
def test_generate_er_entry_frequencies(n, directed):
    # every off-diagonal entry appears with probability p, independently of
    # its slot; the diagonal never does.  At n = 2 a first skip past the
    # last slot is likely, and it must leave the graph empty
    p, runs = 0.3, 400
    counts = sum(
        generate(f"er:n={n},p={p},seed={seed},directed={directed}").csr.toarray()
        for seed in range(runs)
    )
    assert np.all(np.diagonal(counts) == 0)
    off = counts[~np.eye(n, dtype=bool)]
    assert np.all(np.abs(off - runs * p) <= 5.0 * np.sqrt(runs * p * (1 - p)))


def test_generate_two_cluster_bridge():
    g = generate("two-cluster-bridge:n=100,intra_p=0.3,seed=5")
    half = 50
    cross = [(i, j) for i, j in entries(g) if (i < half) != (j < half)]
    assert len(cross) == 2  # one undirected bridge, stored both ways


def test_generate_two_cluster_bridge_entry_frequencies():
    # each pair inside a half appears with probability intra_p, independently
    # of its slot and half; across the halves only the bridge (0, half) does
    n, p, runs, half = 9, 0.3, 400, 4
    counts = sum(
        generate(f"two-cluster-bridge:n={n},intra_p={p},seed={seed}").csr.toarray()
        for seed in range(runs)
    )
    assert np.array_equal(counts, counts.T)
    assert np.all(np.diagonal(counts) == 0)
    low = np.arange(n) < half
    same_half = np.equal.outer(low, low)
    inside = counts[same_half & ~np.eye(n, dtype=bool)]
    assert np.all(np.abs(inside - runs * p) <= 5.0 * np.sqrt(runs * p * (1 - p)))
    bridge = np.zeros((n, n))
    bridge[0, half] = bridge[half, 0] = runs
    assert np.array_equal(np.where(same_half, 0.0, counts), bridge)


def test_generate_two_cluster_bridge_is_linear_time():
    n, p = 100_000, 1e-4
    start = time.perf_counter()
    g = generate(f"two-cluster-bridge:n={n},intra_p={p},seed=1")
    assert time.perf_counter() - start < 1.0
    pairs = 2 * (n // 2) * (n // 2 - 1) // 2
    inside = g.edge_count // 2 - 1
    assert abs(inside - pairs * p) <= 6.0 * np.sqrt(pairs * p * (1 - p))


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError):
        generate("er:n=10")  # missing p
    with pytest.raises(ValueError):
        generate("hypercube:n=8")
    with pytest.raises(ValueError):
        generate("er:n=10,p")
    with pytest.raises(ValueError, match="'M'.*allowed: n, m, seed"):
        generate("pa:n=50,M=3,seed=1")
    with pytest.raises(ValueError, match="'leaves'.*allowed: n$"):
        generate("cycle:n=5,leaves=2")
    with pytest.raises(ValueError, match="'directed' must be 0 or 1"):
        generate("er:n=10,p=0.1,directed=2")
    with pytest.raises(ValueError, match="intra_p must be in"):
        generate("two-cluster-bridge:n=100,intra_p=1.5")
    with pytest.raises(ValueError, match="intra_p must be in"):
        generate("two-cluster-bridge:n=100,intra_p=-0.1")


# one complete spec per kind, and the keys it cannot leave out
_FULL_SPECS = {
    "er": ("n=20,p=0.1,seed=0,directed=1", ("n", "p")),
    "pa": ("n=50,m=5,seed=0", ("n",)),
    "star": ("leaves=3", ("leaves",)),
    "path": ("n=4", ("n",)),
    "cycle": ("n=5", ("n",)),
    "two-cluster-bridge": ("n=20,intra_p=0.3,seed=0", ("n",)),
}


def _same_graph(a: SparseGraph, b: SparseGraph) -> bool:
    return (a.n, a.directed) == (b.n, b.directed) and all(
        np.array_equal(x, y)
        for x, y in zip(
            (a.csr.indptr, a.csr.indices, a.csr.data), (b.csr.indptr, b.csr.indices, b.csr.data)
        )
    )


def test_generate_names_each_missing_parameter():
    for kind, (full, required) in _FULL_SPECS.items():
        items = full.split(",")
        generate(f"{kind}:{full}")
        for key in required:
            rest = ",".join(item for item in items if item.split("=")[0] != key)
            message = re.escape(f"generator '{kind}' is missing parameter '{key}'")
            with pytest.raises(ValueError, match=message):
                generate(f"{kind}:{rest}")


def test_generate_defaults_match_the_spelled_out_specs():
    assert _same_graph(generate("pa:n=50"), generate("pa:n=50,m=5,seed=0"))
    assert _same_graph(generate("er:n=20,p=0.1"), generate("er:n=20,p=0.1,seed=0,directed=1"))
    assert _same_graph(
        generate("two-cluster-bridge:n=20"), generate("two-cluster-bridge:n=20,intra_p=0.3,seed=0")
    )


def test_generate_reads_directed_as_an_integer():
    assert _same_graph(generate("er:n=30,p=0.2,directed=01"), generate("er:n=30,p=0.2"))
    assert not generate("er:n=30,p=0.2,directed=00").directed
    with pytest.raises(ValueError, match="er parameter 'directed' must be 0 or 1, got 2"):
        generate("er:n=30,p=0.2,directed=2")
    with pytest.raises(ValueError, match=re.escape("invalid literal for int() with base 10: '1.0'")):
        generate("er:n=30,p=0.2,directed=1.0")


def test_parse_ell_forms():
    assert _parse_ell("20") == [20]
    assert _parse_ell("5,10,15") == [5, 10, 15]
    assert _parse_ell("500..3000") == [500, 1000, 1500, 2000, 2500, 3000]
    assert _parse_ell("10..50..20") == [10, 30, 50]
    assert _parse_ell("100..100") == [100]
    with pytest.raises(ValueError, match=re.escape("ell range '500..300' ends below its start")):
        _parse_ell("100,500..300")


@pytest.mark.parametrize(
    "ell", ["", " , ", "100,500..300", "50,50", "50,50..100", "1..2..3..4", "10..50..0"]
)
def test_bad_ell_lists_are_usage_errors(tmp_path, capsys, ell):
    # refused before any graph is loaded: the input file does not exist
    argv = ["--input", str(tmp_path / "absent.txt"), "--ell", ell, "--out", str(tmp_path / "r")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_run_full_sampling_is_exact(tmp_path):
    out = tmp_path / "exact"
    status = main(
        [
            "--generate", "er:n=60,p=0.1,seed=1",
            "--measure", "subgraph",
            "--gamma", "1",
            "--ell", "60",
            "--strategy", "guided",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert status == 0
    report = json.loads((tmp_path / "exact.json").read_text())
    assert report["results"][0]["overlap_at_k"] == 20
    assert report["results"][0]["exact_at_k"] == 20


def test_run_star_perron_top_node_is_center(tmp_path):
    out = tmp_path / "star"
    cfg = ExperimentConfig(
        generate="star:leaves=3",
        measure="perron",
        ell_list=[4],
        seed=3,
        k=4,
        out=str(out),
    )
    assert run(cfg) == 0
    report = json.loads((tmp_path / "star.json").read_text())
    assert report["results"][0]["top"][0] == 0


def _report_twice(tmp_path, **config):
    """The JSON report without its timing keys, and the CSV, of two runs."""

    def one(path):
        cfg = ExperimentConfig(**config, out=str(path), write_csv=True)
        assert run(cfg) == 0
        report = json.loads(path.with_suffix(".json").read_text())
        for key in TIMING_KEYS:
            del report[key]
        return (
            json.dumps(report, sort_keys=True),
            path.with_suffix(".csv").read_bytes(),
        )

    return one(tmp_path / "a"), one(tmp_path / "b")


def test_run_deterministic_reports(tmp_path):
    first, second = _report_twice(
        tmp_path,
        generate="pa:n=120,m=3,seed=4",
        measure="communicability",
        ell_list=[10, 20],
        strategy="guided",
        seed=5,
        trials=2,
    )
    assert first == second


def test_run_deterministic_katz_reports(tmp_path):
    # the certified solve's step count and bounds are part of the report
    first, second = _report_twice(
        tmp_path,
        generate="er:n=150,p=0.05,seed=4",
        measure="katz",
        gamma=0.05,
        ell_list=[10, 20],
        strategy="guided",
        seed=5,
        trials=2,
    )
    assert first == second
    assert json.loads(first[0])["reference"]["method"] == "certified_gmres"


def test_run_katz_measure(tmp_path):
    out = tmp_path / "katz"
    cfg = ExperimentConfig(
        generate="er:n=50,p=0.1,seed=9",
        measure="katz",
        gamma=0.05,
        ell_list=[10],
        seed=2,
        out=str(out),
    )
    assert run(cfg) == 0
    report = json.loads((tmp_path / "katz.json").read_text())
    assert "failed" not in report
    assert set(report["timing"][0]) == {
        "ell", "mean", "max", "min", "runs", "sample_mean", "score_mean"
    }
    assert report["timing"][0]["runs"] == 1


def test_report_times_each_stage(tmp_path):
    out = tmp_path / "timed"
    cfg = ExperimentConfig(
        generate="er:n=80,p=0.08,seed=2", ell_list=[10, 20], trials=3, out=str(out)
    )
    assert run(cfg) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert report["load_s"] > 0 and report["reference_s"] > 0 and report["rank_s"] > 0
    for entry in report["timing"]:
        assert entry["sample_mean"] > 0 and entry["score_mean"] > 0
        # each run's time is its sampling plus its scoring
        assert entry["sample_mean"] + entry["score_mean"] == pytest.approx(entry["mean"])
        assert entry["min"] <= entry["mean"] <= entry["max"]


def test_run_failure_writes_partial_report(tmp_path):
    out = tmp_path / "bad"
    cfg = ExperimentConfig(
        generate="er:n=20,p=0.1,seed=1",
        measure="subgraph",
        ell_list=[10_000],  # exceeds the nonzero column count
        seed=1,
        out=str(out),
    )
    assert run(cfg) == 1
    report = json.loads((tmp_path / "bad.json").read_text())
    assert "failed" in report


def test_run_reads_edge_list_file(tmp_path):
    graph_file = tmp_path / "tiny.txt"
    graph_file.write_text("0 1\n1 2\n2 0\n")
    out = tmp_path / "tiny"
    cfg = ExperimentConfig(
        input=str(graph_file),
        measure="subgraph",
        ell_list=[3],
        seed=1,
        k=3,
        out=str(out),
    )
    assert run(cfg) == 0
    report = json.loads((tmp_path / "tiny.json").read_text())
    assert report["config_echo"]["measure"] == "subgraph"


def test_report_describes_the_loaded_graph(tmp_path):
    graph_file = tmp_path / "repeated.txt"
    graph_file.write_text("# a header\n0 1\n1 2\n0 1\n2 0\n")
    for undirected, entries in ((False, 3), (True, 6)):
        out = tmp_path / f"repeated-{undirected}"
        cfg = ExperimentConfig(
            input=str(graph_file), undirected=undirected, ell_list=[3], k=3, out=str(out)
        )
        assert run(cfg) == 0
        report = json.loads(out.with_suffix(".json").read_text())
        assert report["graph"] == {
            "n": 3,
            "directed": not undirected,
            "entries": entries,
            "duplicates_collapsed": 1,
        }


def test_main_cli_round_trip(tmp_path):
    out = tmp_path / "cli"
    status = main(
        [
            "--generate",
            "cycle:n=10",
            "--measure",
            "subgraph",
            "--ell",
            "5",
            "--seed",
            "3",
            "--k",
            "5",
            "--out",
            str(out),
        ]
    )
    assert status == 0
    assert (tmp_path / "cli.json").exists()


def test_seed_environment_variable_is_ignored(tmp_path, monkeypatch):
    # only --seed sets the seed: SAMPLED_CENTRALITY_SEED is not a run setting
    monkeypatch.setenv("SAMPLED_CENTRALITY_SEED", "99")
    parser = build_parser()
    args = parser.parse_args(["--generate", "cycle:n=5", "--out", str(tmp_path / "x")])
    assert config_from_args(args).seed == 0
    args = parser.parse_args(["--generate", "cycle:n=5", "--seed", "7", "--trials", "3"])
    cfg = config_from_args(args)
    assert (cfg.seed, cfg.trials) == (7, 3)


@pytest.mark.parametrize(
    "flag", [["--dense-cap", "40"], ["--seeds", "1,2"], ["--format", "edge-list"]]
)
def test_removed_flags_are_usage_errors(flag):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--generate", "cycle:n=5", *flag])
    assert exc.value.code == 2


def test_config_echo_holds_every_run_setting(tmp_path):
    out = tmp_path / "echo"
    assert main(["--generate", "cycle:n=5", "--ell", "2", "--k", "3", "--out", str(out)]) == 0
    echo = json.loads(out.with_suffix(".json").read_text())["config_echo"]
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(echo) == names - {"out", "write_json", "write_csv"}
    assert echo["seed"] == 0 and echo["ell_list"] == [2] and echo["gamma"] == 1.0

    # numpy scalars from a library caller are echoed as plain numbers
    cfg = ExperimentConfig(
        generate="cycle:n=5", ell_list=[np.int64(2)], seed=np.int64(3), k=3, out=str(out)
    )
    assert run(cfg) == 0
    echo = json.loads(out.with_suffix(".json").read_text())["config_echo"]
    assert (echo["seed"], echo["ell_list"]) == (3, [2])


def test_json_flag_is_gone():
    # JSON output is always on from the command line; the old no-op flag
    # is now a usage error
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--json"])
    assert exc.value.code == 2
    cfg = config_from_args(build_parser().parse_args(["--generate", "cycle:n=5"]))
    assert cfg.write_json


def test_import_loads_neither_scipy_io_nor_sparse_linalg():
    # both load where first used; at import they would add to every run's start-up
    code = (
        "import sys, sampled_centrality, sampled_centrality.cli; "
        "print([m for m in ('scipy.io', 'scipy.sparse.linalg') if m in sys.modules])"
    )
    src = Path(matfun.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=os.environ | {"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


PUBLIC_NAMES = [
    "__version__",
    "EvaluationError",
    "GraphParseError",
    "MatfunResult",
    "PerronConfig",
    "PerronResult",
    "RankDeficientProductError",
    "Ranking",
    "SampleSet",
    "ScalarFunction",
    "SparseGraph",
    "dense_left_perron",
    "evaluate_masked_function",
    "exact_matches",
    "exp_minus_one",
    "expm_rowsum",
    "katz_rowsum",
    "left_perron",
    "parse_edge_list",
    "rank_nodes",
    "resolvent_minus_one",
    "sample_columns",
    "sample_rows",
    "symmetric_perron",
    "topk_overlap",
    "transpose",
]
# (owner, name) pairs that left the package: the tests' dense and sampling
# oracles moved to tests/, the rest had no pipeline caller
REMOVED = [
    ("graph", "remove_self_loops"),
    ("graph", "write_edge_list"),
    ("graph.SparseGraph", "dense"),
    ("graph.SparseGraph", "entry_set"),
    ("graph.SparseGraph", "nonzero_rows"),
    ("matfun", "transpose_measures"),
    ("matfun.ScalarFunction", "matrix_value"),
    ("oracle", "dense_matfun"),
    ("ranking", "CentralityVector"),
    ("ranking", "RankingReport"),
    ("sampling", "draw_categorical"),
]


def test_public_surface_is_the_pipeline():
    import sampled_centrality

    assert sampled_centrality.__all__ == PUBLIC_NAMES
    assert all(hasattr(sampled_centrality, name) for name in PUBLIC_NAMES)
    for path, name in REMOVED:
        module, _, cls = path.partition(".")
        owner = importlib.import_module(f"sampled_centrality.{module}")
        if cls:
            owner = getattr(owner, cls)
        assert not hasattr(owner, name), f"{path}.{name}"
        assert not hasattr(sampled_centrality, name), name
    # the two core routes stay in matfun, where evaluate_masked_function picks one
    for name in ("direct_core_evaluation", "arrow_core_evaluation"):
        assert not hasattr(sampled_centrality, name)
        assert callable(getattr(matfun, name))


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # a symmetric digraph on 2000 nodes: every column and row is nonzero,
    # enough for the example's ell = 500
    a = generate("pa:n=2000,m=5,seed=0").csr.tocoo()
    (tmp_path / "graph.txt").write_text(edge_list_text(np.column_stack([a.row, a.col])))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["g"].n == 2000 and len(namespace["top"]) == 20
    assert namespace["res"].method == "direct_core" and len(namespace["J"]) == 500
    # A is symmetric, so the rows I of A give what the columns I give
    g, rows = namespace["g"], namespace["I"]
    columns = dataclasses.replace(rows, kind="column")
    direct = evaluate_masked_function(g, columns, exp_minus_one(1.0))
    assert rel_err(namespace["res_t"].diag, direct.diag) <= 1e-12
    assert rel_err(namespace["res_t"].rowsum, direct.rowsum) <= 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(measure="degree")
    with pytest.raises(ValueError):
        ExperimentConfig(ell_list=[0])
    with pytest.raises(ValueError, match="empty ell list"):
        ExperimentConfig(ell_list=[])
    with pytest.raises(ValueError, match="ell values must be distinct"):
        ExperimentConfig(ell_list=[50, 20, 50])
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    for bad in (0.0, -1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma"):
            ExperimentConfig(gamma=bad)
    for bad in (-1e-3, np.inf, np.nan):
        with pytest.raises(ValueError, match="epsilon"):
            ExperimentConfig(epsilon=bad)
    with pytest.raises(ValueError, match="k must"):
        ExperimentConfig(k=0)


def test_unknown_strategy_is_refused_before_any_load(monkeypatch):
    def no_load(cfg):
        raise AssertionError("the graph was loaded")

    monkeypatch.setattr(cli, "_load_graph", no_load)
    with pytest.raises(ValueError, match="strategy must be one of"):
        run(ExperimentConfig(generate="er:n=3000,p=0.003,seed=1", strategy="bogus"))


@pytest.mark.parametrize(
    "edges, flags, library, says",
    [
        # more than n nodes to rank
        (
            "0 1\n1 2\n2 0\n",
            ["--k", "4"],
            lambda g: rank_nodes(np.ones(g.n), 4),
            "k=4 outside [1, 3]",
        ),
        # the second ell exceeds the nonzero columns
        (
            "0 1\n0 2\n0 3\n",
            ["--ell", "2,4"],
            lambda g: sample_columns(g, 4, 0),
            "ell=4 outside [1, 3] (nonzero columns)",
        ),
        # directed Perron samples rows too: one nonzero row of three columns
        (
            "0 1\n0 2\n0 3\n",
            ["--measure", "perron", "--ell", "2"],
            lambda g: sample_rows(g, 2, 1),
            "ell=2 outside [1, 1] (nonzero rows)",
        ),
        # a Katz core above the dense cap, lowered to 3 in the test
        (
            "0 1\n0 2\n0 3\n0 4\n",
            ["--measure", "katz", "--gamma", "0.1", "--ell", "2,4"],
            lambda g: evaluate_masked_function(
                g, sample_columns(g, 4, 0), resolvent_minus_one(0.1)
            ),
            "core size 4 exceeds the dense cap 3",
        ),
    ],
)
def test_sizes_are_refused_before_the_reference(
    tmp_path, monkeypatch, edges, flags, library, says
):
    def no_reference(g, cfg):
        raise AssertionError("the reference was computed")

    monkeypatch.setattr(cli, "_reference_scores", no_reference)
    monkeypatch.setattr(matfun, "DENSE_CAP", 3)
    path = tmp_path / "graph.txt"
    path.write_text(edges)
    out = tmp_path / "r"
    assert main(["--input", str(path), "--k", "3", *flags, "--out", str(out)]) == 1
    report = json.loads(out.with_suffix(".json").read_text())
    # the error the library call would give after the reference
    with pytest.raises((ValueError, EvaluationError)) as refused:
        library(parse_edge_list(edges.splitlines()))
    assert report["failed"] == f"{refused.type.__name__}: {refused.value}"
    assert says in report["failed"]
    assert "reference" not in report and "report" not in report


@pytest.mark.parametrize(
    "flags",
    [
        ["--measure", "perron", "--epsilon", "nan"],
        ["--measure", "perron", "--epsilon", "-1"],
        ["--measure", "communicability", "--gamma", "inf"],
        ["--measure", "katz", "--gamma", "inf"],
        ["--gamma", "nan"],
        ["--gamma", "0"],
        ["--k", "0"],
    ],
)
def test_non_finite_parameters_are_usage_errors(tmp_path, capsys, flags):
    # refused before any graph is loaded: the input file does not exist
    argv = ["--input", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "r"), *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_run_rows_carry_estimate_metadata(tmp_path):
    cfg = ExperimentConfig(
        generate="pa:n=200,m=3,seed=1",
        measure="katz",
        gamma=0.02,
        ell_list=[10, 20],
        seed=3,
        out=str(tmp_path / "arrow"),
    )
    assert run(cfg) == 0
    rows = json.loads((tmp_path / "arrow.json").read_text())["results"]
    assert len(rows) == 2
    for row in rows:
        assert row["method"] == "arrow_core"
        assert 0 < row["spectral_radius_estimate"] * 0.02 <= 0.95

    cfg = ExperimentConfig(
        generate="pa:n=200,m=3,seed=1",
        measure="perron",
        epsilon=1e-3,
        ell_list=[20],
        seed=3,
        out=str(tmp_path / "perron"),
    )
    assert run(cfg) == 0
    (row,) = json.loads((tmp_path / "perron.json").read_text())["results"]
    assert row["converged"] is True
    assert row["iterations"] >= 1
    assert row["note"] is None


@pytest.mark.parametrize(
    "spec, ell, route",
    [
        ("pa:n=300,m=3,seed=1", "200,280", "arrow_core"),
        ("er:n=300,p=0.03,seed=1", "250,290", "direct_core"),
    ],
)
def test_katz_candidates_take_every_gamma_the_reference_certifies(tmp_path, spec, ell, route):
    # gamma*rho(A) = 0.97 and 0 <= A_mask <= A, so gamma*rho(A_mask) < 1 on
    # every mask: no candidate is refused after the certified reference
    rho = float(np.max(np.abs(np.linalg.eigvals(generate(spec).csr.toarray()))))
    out = tmp_path / "katz"
    argv = ["--generate", spec, "--measure", "katz", "--gamma", repr(0.97 / rho)]
    assert main(argv + ["--ell", ell, "--trials", "3", "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert "failed" not in report
    assert report["reference"]["gamma_rho_bound"] < 1
    assert len(report["results"]) == 6
    assert {row["method"] for row in report["results"]} == {route}


def test_reference_above_dense_cap(tmp_path, monkeypatch):
    # a sparse digraph above the cap: subgraph has no exact reference there
    # and must fail; communicability and Katz stay exact
    spec = "er:n=300,p=0.01,seed=2"
    g = generate(spec)
    a = g.csr.toarray()
    exact_exp = np.sort(dense_matfun(a, exp_minus_one(1.0)).sum(axis=1))[::-1]
    exact_katz = np.sort(dense_matfun(a, resolvent_minus_one(0.05)).sum(axis=1))[::-1]
    monkeypatch.setattr(oracle, "DENSE_CAP", 40)
    monkeypatch.setattr(matfun, "DENSE_CAP", 40)
    argv = ["--generate", spec, "--ell", "20"]
    out = tmp_path / "subgraph"
    assert main(argv + ["--measure", "subgraph", "--out", str(out)]) == 1
    report = json.loads(out.with_suffix(".json").read_text())
    assert "dense cap 40" in report["failed"]
    assert "n=300" in report["failed"]
    assert "subgraph" in report["failed"]
    assert "report" not in report

    out = tmp_path / "communicability"
    assert main(argv + ["--measure", "communicability", "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert "failed" not in report
    scores = np.array(report["report"]["reference"]["scores"])
    assert scores.size == 300
    assert rel_err(scores, exact_exp) <= 1e-12

    # the certified sparse solve has no cap; the dense oracle ran before the
    # cap was lowered
    out = tmp_path / "katz"
    assert main(argv + ["--measure", "katz", "--gamma", "0.05", "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert "failed" not in report
    assert report["reference"]["method"] == "certified_gmres"
    scores = np.array(report["report"]["reference"]["scores"])
    assert scores.size == 300
    assert rel_err(scores, exact_katz) <= 1e-12


def test_report_records_reference_provenance(tmp_path):
    def reference(measure, *extra):
        out = tmp_path / measure
        argv = ["--generate", "er:n=80,p=0.08,seed=3", "--measure", measure, *extra]
        assert main(argv + ["--ell", "10", "--k", "5", "--out", str(out)]) == 0
        return json.loads(out.with_suffix(".json").read_text())

    degree, squarings, norm_bound = matfun.taylor_plan(generate("er:n=80,p=0.08,seed=3").csr)
    assert reference("subgraph")["reference"] == {
        "method": "taylor_squaring",
        "degree": degree,
        "squarings": squarings,
        "norm_bound": norm_bound,
    }
    assert reference("communicability")["reference"] == {"method": "expm_multiply"}

    report = reference("perron", "--epsilon", "1e-3")
    ref = report["reference"]
    assert ref["method"] == "power_iteration"
    assert set(ref) == {"method", "eigenvalue_estimate", "iterations", "converged", "note", "residual"}
    assert ref["residual"] <= 1e-8
    assert all(row["residual"] <= 1e-8 for row in report["results"])

    ref = reference("katz", "--gamma", "0.05")["reference"]
    assert ref["method"] == "certified_gmres"
    assert 0 < ref["gamma_rho_bound"] < 1
    assert ref["residual_inf"] <= 1e-12
    assert ref["relative_error_bound"] <= 1e-12
    assert ref["iterations"] >= 1


def test_katz_reference_never_densifies(tmp_path, monkeypatch):
    refuse_dense_copies(monkeypatch, 300)
    out = tmp_path / "katz"
    argv = ["--generate", "er:n=300,p=0.01,seed=2", "--measure", "katz", "--gamma", "0.05"]
    assert main(argv + ["--ell", "20", "--out", str(out)]) == 0
    assert "failed" not in json.loads(out.with_suffix(".json").read_text())


def test_katz_reference_refuses_an_uncertified_solution(tmp_path):
    # the cycle is undirected and 2-regular, so (I - 2A) x = 1 has the
    # exact solution x = -1/3: gamma*rho = 4 and the Katz series diverges
    out = tmp_path / "divergent"
    argv = ["--generate", "cycle:n=5", "--measure", "katz", "--gamma", "2"]
    assert main(argv + ["--ell", "3", "--k", "5", "--out", str(out)]) == 1
    report = json.loads(out.with_suffix(".json").read_text())
    assert "x > 0 fails" in report["failed"]
    assert "reference" not in report
    assert "report" not in report


@pytest.mark.parametrize("spec", ["er:n=50,p=0.1,seed=1", "pa:n=60,m=3,seed=1"])
@pytest.mark.parametrize("measure", ["subgraph", "communicability"])
def test_overflowed_scores_fail_the_run(tmp_path, spec, measure):
    # exp(1000 A) overflows in double precision: the reference that computes
    # the inf scores fails the run instead of ranking them
    out = tmp_path / "overflow"
    argv = ["--generate", spec, "--measure", measure, "--gamma", "1000", "--ell", "10"]
    with np.errstate(all="ignore"):
        assert main(argv + ["--out", str(out)]) == 1
    report = json.loads(out.with_suffix(".json").read_text())
    assert report["failed"].startswith("EvaluationError")
    assert "inf or nan scores at gamma=1000" in report["failed"]
    assert "report" not in report


def test_undirected_edge_list_takes_the_arrow_route(tmp_path):
    path = tmp_path / "pa.txt"
    a = generate("pa:n=200,m=3,seed=1").csr.tocoo()
    once = a.row <= a.col  # each undirected edge on one line
    path.write_text(edge_list_text(np.column_stack([a.row[once], a.col[once]])))
    argv = ["--input", str(path), "--measure", "katz", "--gamma", "0.02", "--ell", "10,20"]

    out = tmp_path / "undirected"
    assert main(argv + ["--undirected", "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert report["config_echo"]["undirected"] is True
    assert [row["method"] for row in report["results"]] == ["arrow_core", "arrow_core"]
    with path.open() as handle:
        g = parse_edge_list(handle, directed=False)
    exact = np.sort(dense_matfun(g.csr.toarray(), resolvent_minus_one(0.02)).sum(axis=1))[::-1]
    assert rel_err(np.array(report["report"]["reference"]["scores"]), exact) <= 1e-12

    # without the flag an edge list stays directed, as before
    out = tmp_path / "directed"
    assert main(argv + ["--out", str(out)]) == 0
    rows = json.loads(out.with_suffix(".json").read_text())["results"]
    assert [row["method"] for row in rows] == ["direct_core", "direct_core"]


@pytest.mark.parametrize("measure, extra", [("subgraph", []), ("perron", ["--epsilon", "1e-3"])])
def test_rows_count_sampler_fallback_draws(tmp_path, measure, extra):
    # five disjoint 2-cycles: once a pair is sampled, every eligible column
    # and row carries zero weight, so the guided samplers must fall back
    path = tmp_path / "pairs.txt"
    pairs = [(i, i ^ 1) for i in range(10)]
    path.write_text("".join(f"{i} {j}\n" for i, j in pairs))
    out = tmp_path / measure
    argv = ["--input", str(path), "--measure", measure, *extra, "--ell", "4,5", "--trials", "2"]
    assert main(argv + ["--k", "5", "--seed", "3", "--out", str(out)]) == 0
    rows = json.loads(out.with_suffix(".json").read_text())["results"]
    g = parse_edge_list(path.read_text().splitlines())
    for row in rows:
        ell, seed = row["ell"], row["seed"]
        draws = sample_columns(g, ell, seed).fallback_draws
        if measure == "perron":
            draws += sample_rows(g, ell, seed + 1).fallback_draws
        assert draws > 0
        assert row["fallback_draws"] == draws


def test_perron_rows_record_the_sample_overlap(tmp_path):
    # |J & I| bounds the rank of the directed product; undirected rows have no I
    spec = "er:n=300,p=0.03,seed=2"
    argv = ["--measure", "perron", "--epsilon", "1e-3", "--ell", "40,80", "--trials", "3"]
    assert main(["--generate", spec, *argv, "--seed", "5", "--out", str(tmp_path / "d")]) == 0
    rows = json.loads((tmp_path / "d.json").read_text())["results"]
    g = generate(spec)
    overlaps = []
    for row in rows:
        ell, seed, strategy = row["ell"], row["seed"], row["strategy"]
        J = sample_columns(g, ell, seed, strategy)
        I = sample_rows(g, ell, seed + 1, strategy)
        overlaps.append(len(set(J.indices.tolist()) & set(I.indices.tolist())))
    assert [row["sample_overlap"] for row in rows] == overlaps
    assert max(overlaps) > 0

    spec = "pa:n=100,m=3,seed=1"
    assert main(["--generate", spec, *argv, "--seed", "5", "--out", str(tmp_path / "u")]) == 0
    rows = json.loads((tmp_path / "u.json").read_text())["results"]
    assert [row["sample_overlap"] for row in rows] == [None] * 6


@pytest.mark.parametrize("spec", ["er:n=80,p=0.08,seed=2", "pa:n=120,m=3,seed=4"])
def test_results_rows_are_the_estimates_own_records(tmp_path, spec):
    # a row is the run's base keys, the sampler's fallback draws, |J & I| for
    # Perron, and the estimate's metadata() whole, for every measure
    g = generate(spec)
    base = {"ell", "seed", "strategy", "top", "overlap_at_k", "exact_at_k", "fallback_draws"}
    functions = {
        "subgraph": exp_minus_one(1.0),
        "communicability": exp_minus_one(1.0),
        "katz": resolvent_minus_one(0.05),
    }
    for measure in cli.MEASURES:
        out = tmp_path / measure
        gamma, epsilon = (0.05, 0.0) if measure == "katz" else (1.0, 1e-3)
        cfg = ExperimentConfig(
            generate=spec, measure=measure, gamma=gamma, epsilon=epsilon,
            ell_list=[20, 40], trials=2, seed=3, out=str(out),
        )  # fmt: skip
        assert run(cfg) == 0
        rows = json.loads(out.with_suffix(".json").read_text())["results"]
        assert len(rows) == 4
        for row in rows:
            J = sample_columns(g, row["ell"], row["seed"])
            keys = base
            if measure != "perron":
                estimate = evaluate_masked_function(g, J, functions[measure])
            elif g.directed:
                I = sample_rows(g, row["ell"], row["seed"] + 1)
                estimate = left_perron(g, J, I, PerronConfig(epsilon=epsilon))
                keys = base | {"sample_overlap"}
            else:
                estimate = symmetric_perron(g, J, PerronConfig(epsilon=epsilon))
                keys = base | {"sample_overlap"}
            record = json.loads(json.dumps(estimate.metadata()))
            assert set(row) == keys | set(record)
            assert {key: row[key] for key in record} == record


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    path = BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _workload_names():
    # the benchmark's declared workloads, read without importing bench/, so a
    # broken benchmark fails these tests rather than this module's collection
    text = (BENCH.parent / "BENCHMARK.json").read_text()
    return [w["name"] for w in json.loads(text)["workloads"]]


@pytest.mark.parametrize("name", _workload_names())
def test_benchmark_workload_passes_its_checks(tmp_path, monkeypatch, name):
    # every benchmark workload at its toy size, through its own command lines
    # and calls into the program, judged by its own checks
    monkeypatch.syspath_prepend(str(BENCH))
    workload = _bench_module("workloads").WORKLOADS[name](tmp_path, seed=3, toy=True)
    workload.setup()
    assert workload.setup_problems() == []
    for op in workload.operations():
        assert op.check(op.run()) == [], op.name

"""Generators and the end-to-end experiment driver."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sampled_centrality import (
    SparseGraph,
    dense_matfun,
    exp_minus_one,
    parse_edge_list,
    resolvent_minus_one,
    sample_columns,
    sample_rows,
    write_edge_list,
)
from sampled_centrality import matfun, oracle
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
from conftest import rel_err


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
    assert a.entry_set() == b.entry_set()
    assert a.directed
    assert all(i != j for i, j in a.entry_set())
    c = generate("er:n=50,p=0.1,seed=4")
    assert a.entry_set() != c.entry_set()


def test_generate_er_undirected():
    g = generate("er:n=40,p=0.15,seed=1,directed=0")
    assert not g.directed
    entries = g.entry_set()
    assert all((j, i) in entries for i, j in entries)


def test_generate_preferential_attachment():
    g = generate("pa:n=200,m=5,seed=2")
    assert g.n == 200
    assert not g.directed
    degrees = g.col_degrees
    assert degrees.min() >= 5  # every new node brings m edges
    assert degrees.max() > 20  # hubs emerge


def _scalar_loop_pa(n: int, m: int, seed: int) -> SparseGraph:
    """Preferential attachment with one generator call per pick: the reference
    stream that ``pa:`` specs must keep."""
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


@pytest.mark.parametrize(
    "n,m,seed",
    [
        (2, 1, 0), (50, 1, 3), (150, 2, 9), (120, 3, 4), (200, 3, 1),
        (200, 5, 2), (300, 4, 3), (2000, 5, 0), (2000, 5, 7), (5000, 5, 1),
    ],
)
def test_generate_pa_keeps_the_scalar_stream(n, m, seed):
    g = generate(f"pa:n={n},m={m},seed={seed}")
    ref = _scalar_loop_pa(n, m, seed)
    assert np.array_equal(g.csr.indices, ref.csr.indices)
    assert np.array_equal(g.csr.indptr, ref.csr.indptr)


def test_generate_er_edge_cases():
    assert generate("er:n=30,p=0,seed=1").edge_count == 0
    full = generate("er:n=30,p=1,seed=1")
    assert full.edge_count == 30 * 29
    assert np.array_equal(full.dense(), 1.0 - np.eye(30))
    assert generate("er:n=30,p=1,seed=1,directed=0").edge_count == 30 * 29
    for directed in (0, 1):
        one = generate(f"er:n=1,p=1,seed=0,directed={directed}")
        assert one.n == 1 and one.edge_count == 0
        two = generate(f"er:n=2,p=1,seed=0,directed={directed}")
        assert two.entry_set() == {(0, 1), (1, 0)}
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


def test_generate_er_entry_frequencies():
    # every off-diagonal entry appears with probability p, independently of
    # its slot; the diagonal never does
    n, p, runs = 6, 0.3, 400
    counts = sum(generate(f"er:n={n},p={p},seed={seed}").dense() for seed in range(runs))
    assert np.all(np.diagonal(counts) == 0)
    off = counts[~np.eye(n, dtype=bool)]
    assert np.all(np.abs(off - runs * p) <= 5.0 * np.sqrt(runs * p * (1 - p)))


def test_generate_two_cluster_bridge():
    g = generate("two-cluster-bridge:n=100,intra_p=0.3,seed=5")
    half = 50
    cross = [(i, j) for i, j in g.entry_set() if (i < half) != (j < half)]
    assert len(cross) == 2  # one undirected bridge, stored both ways


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError):
        generate("er:n=10")  # missing p
    with pytest.raises(ValueError):
        generate("hypercube:n=8")
    with pytest.raises(ValueError):
        generate("er:n=10,p")


def test_parse_ell_forms():
    assert _parse_ell("20") == [20]
    assert _parse_ell("5,10,15") == [5, 10, 15]
    assert _parse_ell("500..3000") == [500, 1000, 1500, 2000, 2500, 3000]
    assert _parse_ell("10..50..20") == [10, 30, 50]
    with pytest.raises(ValueError):
        _parse_ell("")


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
    assert report["load_s"] > 0 and report["reference_s"] > 0
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


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(measure="degree")
    with pytest.raises(ValueError):
        ExperimentConfig(ell_list=[0])
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
        assert row["condition_estimate"] == 1.0
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


def test_reference_above_dense_cap(tmp_path, monkeypatch):
    # a sparse digraph above the cap: subgraph has no exact reference there
    # and must fail; communicability and Katz stay exact
    spec = "er:n=300,p=0.01,seed=2"
    g = generate(spec)
    exact_exp = np.sort(dense_matfun(g.dense(), exp_minus_one(1.0)).sum(axis=1))[::-1]
    exact_katz = np.sort(dense_matfun(g.dense(), resolvent_minus_one(0.05)).sum(axis=1))[::-1]
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

    squarings, norm_bound = oracle.taylor_scaling(generate("er:n=80,p=0.08,seed=3"), 1.0)
    assert reference("subgraph")["reference"] == {
        "method": "taylor_squaring",
        "degree": 30,
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
    def refuse(self):
        raise AssertionError("dense copy of the adjacency matrix")

    monkeypatch.setattr(SparseGraph, "dense", refuse)
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
    with path.open("w") as handle:
        write_edge_list(generate("pa:n=200,m=3,seed=1"), handle)
    argv = ["--input", str(path), "--measure", "katz", "--gamma", "0.02", "--ell", "10,20"]

    out = tmp_path / "undirected"
    assert main(argv + ["--undirected", "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert report["config_echo"]["undirected"] is True
    assert [row["method"] for row in report["results"]] == ["arrow_core", "arrow_core"]
    with path.open() as handle:
        g = parse_edge_list(handle, directed=False)
    exact = np.sort(dense_matfun(g.dense(), resolvent_minus_one(0.02)).sum(axis=1))[::-1]
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

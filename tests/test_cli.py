"""Generators and the end-to-end experiment driver."""

from __future__ import annotations

import json

import pytest

from sampled_centrality.cli import (
    ExperimentConfig,
    build_parser,
    config_from_args,
    generate,
    main,
    run,
    _parse_ell,
)


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
        seeds=[3],
        k=4,
        out=str(out),
    )
    assert run(cfg) == 0
    report = json.loads((tmp_path / "star.json").read_text())
    assert report["results"][0]["top"][0] == 0


def test_run_deterministic_reports(tmp_path):
    def one(path):
        cfg = ExperimentConfig(
            generate="pa:n=120,m=3,seed=4",
            measure="communicability",
            ell_list=[10, 20],
            strategy="guided",
            seeds=[5],
            trials=2,
            out=str(path),
            write_csv=True,
        )
        assert run(cfg) == 0
        report = json.loads(path.with_suffix(".json").read_text())
        del report["timing"]
        return (
            json.dumps(report, sort_keys=True),
            path.with_suffix(".csv").read_bytes(),
        )

    first = one(tmp_path / "a")
    second = one(tmp_path / "b")
    assert first == second


def test_run_katz_measure(tmp_path):
    out = tmp_path / "katz"
    cfg = ExperimentConfig(
        generate="er:n=50,p=0.1,seed=9",
        measure="katz",
        gamma=0.05,
        ell_list=[10],
        seeds=[2],
        out=str(out),
    )
    assert run(cfg) == 0
    report = json.loads((tmp_path / "katz.json").read_text())
    assert "failed" not in report
    assert set(report["timing"][0]) == {"ell", "mean", "max", "min", "runs"}
    assert report["timing"][0]["runs"] == 1


def test_run_failure_writes_partial_report(tmp_path):
    out = tmp_path / "bad"
    cfg = ExperimentConfig(
        generate="er:n=20,p=0.1,seed=1",
        measure="subgraph",
        ell_list=[10_000],  # exceeds the nonzero column count
        seeds=[1],
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
        seeds=[1],
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


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SAMPLED_CENTRALITY_SEED", "99")
    parser = build_parser()
    args = parser.parse_args(["--generate", "cycle:n=5", "--out", str(tmp_path / "x")])
    cfg = config_from_args(args)
    assert cfg.seeds == [99]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(measure="degree")
    with pytest.raises(ValueError):
        ExperimentConfig(ell_list=[0])
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=[])


def test_run_rows_carry_estimate_metadata(tmp_path):
    cfg = ExperimentConfig(
        generate="pa:n=200,m=3,seed=1",
        measure="katz",
        gamma=0.02,
        ell_list=[10, 20],
        seeds=[3],
        out=str(tmp_path / "arrow"),
    )
    assert run(cfg) == 0
    rows = json.loads((tmp_path / "arrow.json").read_text())["results"]
    assert len(rows) == 2
    for row in rows:
        assert row["method"] == "arrow_core"
        assert row["fallback_reason"] is None
        assert row["condition_estimate"] == 1.0
        assert 0 < row["spectral_radius_estimate"] * 0.02 <= 0.95

    cfg = ExperimentConfig(
        generate="pa:n=200,m=3,seed=1",
        measure="perron",
        epsilon=1e-3,
        ell_list=[20],
        seeds=[3],
        out=str(tmp_path / "perron"),
    )
    assert run(cfg) == 0
    (row,) = json.loads((tmp_path / "perron.json").read_text())["results"]
    assert row["converged"] is True
    assert row["iterations"] >= 1
    assert row["note"] is None

"""Command-line experiment driver: ingest or generate a graph, sample, score,
rank, and compare against a reference ranking, with seeded reproducibility.

Synthetic generators live here as dataset-free fixtures.  Each measure has
one exact reference at every size: Perron uses the sparse power iteration,
communicability the sparse ``expm_multiply`` row sums, and subgraph and Katz
the dense oracle, which the run refuses above the dense cap rather than
rank against an approximation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .graph import SparseGraph, parse_edge_list
from .matfun import (
    EXP_MINUS_ONE,
    RESOLVENT_MINUS_ONE,
    EvaluationError,
    ScalarFunction,
    evaluate_masked_function,
)
from .oracle import DENSE_CAP, dense_left_perron, dense_matfun, expm_rowsum
from .perron import PerronConfig, left_perron, symmetric_perron
from .ranking import (
    CentralityVector,
    Ranking,
    RankingReport,
    exact_matches,
    rank_nodes,
    topk_overlap,
)
from .sampling import sample_columns, sample_rows

MEASURES = ("subgraph", "communicability", "katz", "perron")
SEED_ENV = "SAMPLED_CENTRALITY_SEED"
# estimate metadata copied into each report["results"] row
PERRON_ROW_KEYS = ("iterations", "converged", "note")
MATFUN_ROW_KEYS = ("method", "fallback_reason", "condition_estimate", "spectral_radius_estimate")


@dataclass
class ExperimentConfig:
    input: str | None = None
    format: str | None = None
    generate: str | None = None
    measure: str = "subgraph"
    ell_list: list[int] = field(default_factory=lambda: [20])
    strategy: str = "guided"
    gamma: float = 1.0
    epsilon: float = 0.0
    seeds: list[int] = field(default_factory=lambda: [0])
    trials: int = 1
    k: int = 20
    dense_cap: int = DENSE_CAP
    out: str | None = None
    write_json: bool = True
    write_csv: bool = False

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}")
        if any(ell < 1 for ell in self.ell_list):
            raise ValueError("ell values must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.seeds:
            raise ValueError("at least one seed is required")


# -- synthetic generators -----------------------------------------------------


def generate(spec: str) -> SparseGraph:
    """Build a synthetic graph from a spec like ``er:n=60,p=0.1,seed=1``.

    Kinds: er (directed by default; directed=0 for undirected), pa
    (preferential attachment, undirected, m edges per new node), star, path,
    cycle, two-cluster-bridge (two intra-dense halves joined by one edge).
    """
    name, _, rest = spec.partition(":")
    params: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not key or not value:
                raise ValueError(f"bad generator parameter {item!r} in {spec!r}")
            params[key.strip()] = value.strip()
    try:
        if name == "er":
            return _gen_erdos_renyi(
                n=int(params["n"]),
                p=float(params["p"]),
                seed=int(params.get("seed", 0)),
                directed=bool(int(params.get("directed", 1))),
            )
        if name == "pa":
            return _gen_preferential_attachment(
                n=int(params["n"]),
                m=int(params.get("m", 5)),
                seed=int(params.get("seed", 0)),
            )
        if name == "star":
            return _gen_star(int(params["leaves"]))
        if name == "path":
            return _gen_path(int(params["n"]))
        if name == "cycle":
            return _gen_cycle(int(params["n"]))
        if name == "two-cluster-bridge":
            return _gen_two_cluster_bridge(
                n=int(params["n"]),
                intra_p=float(params.get("intra_p", 0.3)),
                seed=int(params.get("seed", 0)),
            )
    except KeyError as exc:
        raise ValueError(f"generator {name!r} is missing parameter {exc}") from None
    raise ValueError(f"unknown generator {name!r}")


def _gen_erdos_renyi(n: int, p: float, seed: int, directed: bool = True) -> SparseGraph:
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and p in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = []
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = rng.random((stop - start, n)) < p
        rows, cols = np.nonzero(block)
        rows = rows + start
        keep = rows != cols
        edges.append(np.column_stack([rows[keep], cols[keep]]))
    all_edges = np.vstack(edges) if edges else np.empty((0, 2), dtype=np.int64)
    if not directed:
        all_edges = all_edges[all_edges[:, 0] < all_edges[:, 1]]
    return SparseGraph.from_edges(n, all_edges, directed=directed)


def _gen_preferential_attachment(n: int, m: int, seed: int) -> SparseGraph:
    """Barabasi-Albert growth: each new node attaches to m distinct existing
    nodes with probability proportional to degree (repeated-endpoint trick)."""
    if n <= m or m < 1:
        raise ValueError("need n > m >= 1")
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


def _gen_star(leaves: int) -> SparseGraph:
    if leaves < 1:
        raise ValueError("need at least one leaf")
    edges = np.column_stack([np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)])
    return SparseGraph.from_edges(leaves + 1, edges, directed=False)


def _gen_path(n: int) -> SparseGraph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    idx = np.arange(n - 1, dtype=np.int64)
    return SparseGraph.from_edges(n, np.column_stack([idx, idx + 1]), directed=False)


def _gen_cycle(n: int) -> SparseGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    idx = np.arange(n, dtype=np.int64)
    return SparseGraph.from_edges(n, np.column_stack([idx, (idx + 1) % n]), directed=False)


def _gen_two_cluster_bridge(n: int, intra_p: float, seed: int) -> SparseGraph:
    if n < 4:
        raise ValueError("two-cluster-bridge needs n >= 4")
    rng = np.random.default_rng(seed)
    half = n // 2
    edges = []
    for lo, hi in ((0, half), (half, n)):
        size = hi - lo
        block = rng.random((size, size)) < intra_p
        rows, cols = np.nonzero(np.triu(block, k=1))
        edges.append(np.column_stack([rows + lo, cols + lo]))
    edges.append(np.array([[0, half]], dtype=np.int64))
    return SparseGraph.from_edges(n, np.vstack(edges), directed=False)


# -- experiment driver --------------------------------------------------------


def _load_graph(cfg: ExperimentConfig) -> SparseGraph:
    if (cfg.input is None) == (cfg.generate is None):
        raise ValueError("exactly one of --input and --generate is required")
    if cfg.generate is not None:
        return generate(cfg.generate)
    path = Path(cfg.input)
    fmt = cfg.format
    if fmt is None:
        fmt = "matrix-market" if path.suffix.lower() == ".mtx" else "edge-list"
    directed = True
    with path.open() as handle:
        return parse_edge_list(handle, format=fmt, directed=directed)


def _scalar_function(cfg: ExperimentConfig) -> ScalarFunction:
    kind = RESOLVENT_MINUS_ONE if cfg.measure == "katz" else EXP_MINUS_ONE
    return ScalarFunction(kind, cfg.gamma)


def _measure_scores(
    g: SparseGraph, cfg: ExperimentConfig, ell: int, seed: int
) -> CentralityVector:
    params = {"ell": ell, "seed": seed, "strategy": cfg.strategy}
    if cfg.measure == "perron":
        pcfg = PerronConfig(epsilon=cfg.epsilon)
        if g.directed:
            J = sample_columns(g, ell, seed, cfg.strategy)
            I = sample_rows(g, ell, seed + 1, cfg.strategy)
            result = left_perron(g, J, I, pcfg)
        else:
            J = sample_columns(g, ell, seed, cfg.strategy)
            result = symmetric_perron(g, J, pcfg)
        return CentralityVector(result.vector, cfg.measure, params | result.metadata())

    f = _scalar_function(cfg)
    J = sample_columns(g, ell, seed, cfg.strategy)
    result = evaluate_masked_function(g, J, f, seed=seed, dense_cap=cfg.dense_cap)
    scores = result.diag if cfg.measure == "subgraph" else result.rowsum
    return CentralityVector(scores, cfg.measure, params | result.metadata())


def _reference_scores(g: SparseGraph, cfg: ExperimentConfig) -> CentralityVector:
    if cfg.measure == "perron":
        ref = dense_left_perron(g)
        return CentralityVector(ref.vector, cfg.measure, {"method": "oracle"} | ref.metadata())
    if cfg.measure == "communicability":
        return CentralityVector(
            expm_rowsum(g, cfg.gamma), cfg.measure, {"method": "expm_multiply"}
        )
    if g.n > cfg.dense_cap:
        raise EvaluationError(
            f"no exact {cfg.measure} reference for n={g.n} above the dense cap "
            f"{cfg.dense_cap} (--dense-cap)"
        )
    fa = dense_matfun(g.dense(), _scalar_function(cfg), dense_cap=cfg.dense_cap)
    scores = np.diagonal(fa) if cfg.measure == "subgraph" else fa @ np.ones(g.n)
    return CentralityVector(np.ascontiguousarray(scores), cfg.measure, {"method": "oracle"})


def _expand_seeds(seeds: list[int], trials: int) -> list[int]:
    runs = list(seeds)
    while len(runs) < trials:
        runs.append(runs[-1] + 1)
    return runs


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "input": cfg.input,
        "format": cfg.format,
        "generate": cfg.generate,
        "measure": cfg.measure,
        "ell_list": [int(v) for v in cfg.ell_list],
        "strategy": cfg.strategy,
        "gamma": float(cfg.gamma),
        "epsilon": float(cfg.epsilon),
        "seeds": [int(s) for s in cfg.seeds],
        "trials": int(cfg.trials),
        "k": int(cfg.k),
        "dense_cap": int(cfg.dense_cap),
    }


def run(cfg: ExperimentConfig) -> int:
    """Execute every (ell, seed) run and write the report files.

    Returns 0 when all runs completed; on failure a partial report carrying
    a failure marker is flushed and the exit status is nonzero.
    """
    out_base = Path(cfg.out) if cfg.out else Path("report")
    report: dict = {
        "tool_version": __version__,
        "config_echo": _config_echo(cfg),
        "results": [],
        "timing": [],
    }
    labels = None
    try:
        g = _load_graph(cfg)
        labels = g.labels
        reference = _reference_scores(g, cfg)
        ref_ranking = rank_nodes(reference, cfg.k)
        candidates: list[tuple[str, Ranking]] = []
        seeds = _expand_seeds(cfg.seeds, cfg.trials)
        row_keys = PERRON_ROW_KEYS if cfg.measure == "perron" else MATFUN_ROW_KEYS
        for ell in cfg.ell_list:
            times = []
            for run_index, seed in enumerate(seeds):
                t0 = time.perf_counter()
                scores = _measure_scores(g, cfg, ell, seed)
                times.append(time.perf_counter() - t0)
                ranking = rank_nodes(scores, cfg.k)
                if run_index == 0:
                    candidates.append((f"l={ell}", ranking))
                report["results"].append(
                    {
                        "ell": int(ell),
                        "seed": int(seed),
                        "strategy": cfg.strategy,
                        "top": [g.label_of(i) for i in ranking.top(cfg.k)],
                        "overlap_at_k": topk_overlap(ref_ranking, ranking, cfg.k),
                        "exact_at_k": exact_matches(ref_ranking, ranking, cfg.k),
                    }
                    | {key: scores.params[key] for key in row_keys}
                )
            report["timing"].append(
                {
                    "ell": int(ell),
                    "mean": float(np.mean(times)),
                    "max": float(np.max(times)),
                    "min": float(np.min(times)),
                    "runs": len(times),
                }
            )
        full = RankingReport(ref_ranking, candidates, k=cfg.k)
        report["report"] = full.to_record(labels)
        _write_outputs(report, full, out_base, cfg, labels)
        return 0
    except Exception as exc:  # single diagnostic surface: flush partial, exit 1
        report["failed"] = f"{type(exc).__name__}: {exc}"
        try:
            _write_json(report, out_base)
        except OSError:
            pass
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _write_json(report: dict, out_base: Path) -> None:
    path = out_base.with_suffix(".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _write_outputs(report, full, out_base, cfg, labels) -> None:
    if cfg.write_json:
        _write_json(report, out_base)
    if cfg.write_csv:
        path = out_base.with_suffix(".csv")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            full.write_csv(handle, labels)


def _parse_ell(text: str) -> list[int]:
    """Comma list with 'a..b' and 'a..b..step' ranges (default step = a)."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            pieces = part.split("..")
            if len(pieces) == 2:
                a, b = int(pieces[0]), int(pieces[1])
                step = a
            elif len(pieces) == 3:
                a, b = int(pieces[0]), int(pieces[1])
                step = int(pieces[2])
            else:
                raise ValueError(f"bad ell range {part!r}")
            if step < 1:
                raise ValueError("range step must be positive")
            values.extend(range(a, b + 1, step))
        elif part:
            values.append(int(part))
    if not values:
        raise ValueError("empty ell list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sampled-centrality",
        description="Approximate spectral node centralities from sampled "
        "adjacency columns/rows and compare rankings against a reference.",
    )
    parser.add_argument("--input", help="graph file (edge list or Matrix Market)")
    parser.add_argument(
        "--format", choices=["edge-list", "matrix-market"], help="input format (default: by suffix)"
    )
    parser.add_argument("--generate", help="synthetic graph spec, e.g. er:n=60,p=0.1,seed=1")
    parser.add_argument("--measure", choices=MEASURES, default="subgraph")
    parser.add_argument("--gamma", type=float, default=1.0, help="function scaling parameter")
    parser.add_argument("--epsilon", type=float, default=0.0, help="Perron perturbation")
    parser.add_argument("--ell", default="20", help="sample sizes: '200', '500,1000', '500..3000'")
    parser.add_argument("--strategy", choices=["guided", "random"], default="guided")
    parser.add_argument("--seed", type=int, default=None, help=f"base seed (default ${SEED_ENV} or 0)")
    parser.add_argument("--seeds", default=None, help="explicit comma-separated seed list")
    parser.add_argument("--trials", type=int, default=1, help="runs per ell (timing statistics)")
    parser.add_argument("--k", type=int, default=20, help="report depth")
    parser.add_argument(
        "--dense-cap", type=int, default=DENSE_CAP,
        help="largest dense order: sampled core, and graph for the subgraph/Katz reference",
    )
    parser.add_argument("--out", default="report", help="output path base (.json/.csv appended)")
    parser.add_argument("--csv", dest="write_csv", action="store_true", default=False)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.seeds is not None:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    else:
        base = args.seed
        if base is None:
            base = int(os.environ.get(SEED_ENV, "0"))
        seeds = [base]
    return ExperimentConfig(
        input=args.input,
        format=args.format,
        generate=args.generate,
        measure=args.measure,
        ell_list=_parse_ell(args.ell),
        strategy=args.strategy,
        gamma=args.gamma,
        epsilon=args.epsilon,
        seeds=seeds,
        trials=args.trials,
        k=args.k,
        dense_cap=args.dense_cap,
        out=args.out,
        write_csv=args.write_csv,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())

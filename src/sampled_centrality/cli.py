"""Command-line experiment driver: ingest or generate a graph, sample, score,
rank, and compare against a reference ranking, with seeded reproducibility.

Each run setting is one ``ExperimentConfig`` field, and each flag stores
straight into the field of its name.  Run t of every ell uses seed
``seed + t``.  An input ending in ``.mtx`` is read as Matrix Market, any
other as an edge list.

Synthetic generators live here as dataset-free fixtures.  Each measure has
one exact reference: Perron uses the sparse power iteration, communicability
the sparse ``expm_multiply`` row sums and Katz one certified sparse solve,
all at every size; subgraph uses Taylor scaling and squaring of the sparse
matrix, whose n x n iterate makes it refuse graphs above
``matfun.DENSE_CAP`` nodes rather than rank against an approximation.
The method behind the reference and its certificate go into
``report["reference"]``.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .graph import SparseGraph, parse_edge_list
from .matfun import ScalarFunction, evaluate_masked_function, exp_minus_one, resolvent_minus_one
from .oracle import dense_left_perron, expm_rowsum, katz_rowsum, subgraph_diag
from .perron import PerronConfig, left_perron, symmetric_perron
from .ranking import Ranking, RankingReport, exact_matches, rank_nodes, topk_overlap
from .sampling import GUIDED, RANDOM, sample_columns, sample_rows

MEASURES = ("subgraph", "communicability", "katz", "perron")
STRATEGIES = (GUIDED, RANDOM)
# config fields that choose where and how the report is written, not echoed
OUTPUT_FIELDS = ("out", "write_json", "write_csv")
# the report keys that hold wall-clock seconds; the rest is deterministic
TIMING_KEYS = ("timing", "load_s", "reference_s", "rank_s")


@dataclass
class ExperimentConfig:
    input: str | None = None
    undirected: bool = False
    generate: str | None = None
    measure: str = "subgraph"
    ell_list: list[int] = field(default_factory=lambda: [20])
    strategy: str = GUIDED
    gamma: float = 1.0
    epsilon: float = 0.0
    seed: int = 0
    trials: int = 1
    k: int = 20
    out: str = "report"
    write_json: bool = True
    write_csv: bool = False

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if any(ell < 1 for ell in self.ell_list):
            raise ValueError("ell values must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        # the two parameter types refuse a gamma or epsilon they cannot use
        exp_minus_one(self.gamma)
        PerronConfig(epsilon=self.epsilon)


# -- synthetic generators -----------------------------------------------------


# the most rounds of preferential attachment drawn in one generator call
_PA_MAX_RUN = 4096


def generate(spec: str) -> SparseGraph:
    """Build a synthetic graph from a spec like ``er:n=60,p=0.1,seed=1``.

    ``_GENERATORS`` maps each kind to its function and the type of each key
    it takes; a key left out takes the function's default.  Kinds: er
    (directed by default; directed=0 for undirected; O(n + m)), pa
    (preferential attachment, undirected, m edges per new node), star, path,
    cycle, two-cluster-bridge (two halves, each an undirected er graph of
    p = intra_p, joined by one edge; O(n + m)).  A key the kind does not
    take, a key without a default left out, ``directed`` other than 0 or 1,
    or ``intra_p`` outside [0, 1] raises ``ValueError``.  The same spec
    always gives the same graph.
    """
    name, _, rest = spec.partition(":")
    if name not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    build, types = _GENERATORS[name]
    params: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ValueError(f"bad generator parameter {item!r} in {spec!r}")
            if key not in types:
                raise ValueError(
                    f"generator {name!r} takes no parameter {key!r}; allowed: {', '.join(types)}"
                )
            params[key] = value
    for key, parameter in inspect.signature(build).parameters.items():
        if parameter.default is parameter.empty and key not in params:
            raise ValueError(f"generator {name!r} is missing parameter {key!r}")
    return build(**{key: types[key](value) for key, value in params.items()})


def _er_pairs(
    rng: np.random.Generator, n: int, p: float, directed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The (row, col) pairs of an er graph: each of the n(n - 1) off-diagonal
    slots independently with probability p, in row-major order; undirected
    graphs keep the slots with i < j.

    Geometric skip sampling (Batagelj & Brandes, Phys. Rev. E 71, 036113,
    2005) jumps from one edge to the next over the slots, so the cost is
    O(n + m) rather than O(n^2).  The batch sizes only bound memory: the
    draws, and so the pairs, depend on (n, p) and the stream of ``rng`` alone.
    """
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and p in [0, 1]")
    slots = n * (n - 1)
    found = []
    last = -1
    # a skip of `slots` already ends the stream; capping the skips there keeps
    # last + cumsum below 2^63
    cap = max(1, 2**62 // max(slots, 1))
    while p > 0.0 and last < slots - 1:
        expected = (slots - 1 - last) * p
        size = min(cap, 1 << 20, int(expected + 6.0 * np.sqrt(expected)) + 64)
        skips = np.minimum(rng.geometric(p, size=size), slots)
        positions = last + np.cumsum(skips)
        found.append(positions[: np.searchsorted(positions, slots)])
        last = int(positions[-1])
    t = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
    rows, cols = np.divmod(t, max(n - 1, 1))
    cols += cols >= rows
    if directed:
        return rows, cols
    keep = rows < cols
    return rows[keep], cols[keep]


def _gen_erdos_renyi(n: int, p: float, seed: int = 0, directed: bool = True) -> SparseGraph:
    rows, cols = _er_pairs(np.random.default_rng(seed), n, p, directed)
    return SparseGraph.from_edges(n, np.column_stack([rows, cols]), directed=directed)


def _gen_preferential_attachment(n: int, m: int = 5, seed: int = 0) -> SparseGraph:
    """Barabasi-Albert growth: each new node attaches to m distinct existing
    nodes with probability proportional to degree, by the repeated-endpoint
    construction of Batagelj & Brandes (Phys. Rev. E 71, 036113, 2005).

    ``repeated`` is the flat list of (targets, m copies of source) blocks, one
    per new node, so the round of node s picks from its first 2m(s - m + 1)
    entries.  Those bounds are known before any pick is made, so one
    ``integers`` call with an array of bounds draws the first m picks of a
    whole run of rounds: the values of one call per bound in turn.  A round
    whose picks repeat a node tops up with the stream's next draws, so the
    run ends there; unless it was the run's last round, the generator goes
    back to the run's saved state and redraws the rounds up to it.  The graph
    is therefore that of one ``integers(size)`` call per pick, whatever the
    run lengths, which set the speed only: a round runs alone until four
    rounds in a row had no repeat, then a run is twice that clean streak, up
    to ``_PA_MAX_RUN``.  Large m repeats often, and stays near one call per
    round.
    """
    if n <= m or m < 1:
        raise ValueError("need n > m >= 1")
    rng = np.random.default_rng(seed)
    integers = rng.integers
    targets = list(range(m))
    repeated: list[int] = []
    source, streak = m, 0
    while source < n - 1:  # the last node's round draws nothing
        run = min(2 * streak if streak >= 4 else 1, _PA_MAX_RUN, n - 1 - source)
        if run == 1:
            picks = integers(2 * m * (source - m + 1), size=m).tolist()
        else:
            listed = np.arange(source - m + 1, source - m + 1 + run, dtype=np.int64)
            bounds = listed.repeat(m) * (2 * m)  # 2m entries per listed block
            start = rng.bit_generator.state
            picks = integers(bounds).tolist()
        for k in range(run):
            repeated += targets
            repeated += [source + k] * m
            picked = set(map(repeated.__getitem__, picks[k * m : (k + 1) * m]))
            if len(picked) < m:
                break
            targets = sorted(picked)
        else:  # no round repeated: the stream already stands after the run
            source += run
            streak += run
            continue
        # round k repeated a node: the draws after its picks are its top-ups
        if k < run - 1:
            rng.bit_generator.state = start
            integers(bounds[: (k + 1) * m])
        size = len(repeated)
        while len(picked) < m - 1:
            picked.update(map(repeated.__getitem__, integers(size, size=m - len(picked)).tolist()))
        # one pick short: a scalar draw is the same value at a fifth of the cost
        while len(picked) < m:
            picked.add(repeated[integers(size)])
        targets = sorted(picked)
        source += k + 1
        streak = 0
    repeated += targets
    repeated += [n - 1] * m
    blocks = np.asarray(repeated, dtype=np.int64).reshape(-1, 2, m)
    edges = np.column_stack([blocks[:, 1].ravel(), blocks[:, 0].ravel()])
    return SparseGraph.from_edges(n, edges, directed=False)


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


def _gen_two_cluster_bridge(n: int, intra_p: float = 0.3, seed: int = 0) -> SparseGraph:
    """Halves [0, n // 2) and [n // 2, n), each with every pair i < j an edge
    independently with probability intra_p, joined by the one edge
    (0, n // 2).  Both halves draw from one generator, one after the other,
    with the er skip sampler (``_er_pairs``), so the cost is O(n + m)."""
    if n < 4:
        raise ValueError("two-cluster-bridge needs n >= 4")
    if not 0.0 <= intra_p <= 1.0:
        raise ValueError(f"two-cluster-bridge intra_p must be in [0, 1], got {intra_p}")
    rng = np.random.default_rng(seed)
    half = n // 2
    edges = []
    for lo, hi in ((0, half), (half, n)):
        rows, cols = _er_pairs(rng, hi - lo, intra_p, directed=False)
        edges.append(np.column_stack([rows + lo, cols + lo]))
    edges.append(np.array([[0, half]], dtype=np.int64))
    return SparseGraph.from_edges(n, np.vstack(edges), directed=False)


def _zero_or_one(text: str) -> bool:
    value = int(text)
    if value not in (0, 1):
        raise ValueError(f"er parameter 'directed' must be 0 or 1, got {value}")
    return bool(value)


# each generator kind: its function and the type of each key it takes
_GENERATORS = {
    "er": (_gen_erdos_renyi, {"n": int, "p": float, "seed": int, "directed": _zero_or_one}),
    "pa": (_gen_preferential_attachment, {"n": int, "m": int, "seed": int}),
    "star": (_gen_star, {"leaves": int}),
    "path": (_gen_path, {"n": int}),
    "cycle": (_gen_cycle, {"n": int}),
    "two-cluster-bridge": (_gen_two_cluster_bridge, {"n": int, "intra_p": float, "seed": int}),
}


# -- experiment driver --------------------------------------------------------


def _load_graph(cfg: ExperimentConfig) -> SparseGraph:
    if (cfg.input is None) == (cfg.generate is None):
        raise ValueError("exactly one of --input and --generate is required")
    if cfg.generate is not None:
        return generate(cfg.generate)
    path = Path(cfg.input)
    fmt = "matrix-market" if path.suffix.lower() == ".mtx" else "edge-list"
    with path.open() as handle:
        return parse_edge_list(handle, format=fmt, directed=not cfg.undirected)


def _scalar_function(cfg: ExperimentConfig) -> ScalarFunction:
    return (resolvent_minus_one if cfg.measure == "katz" else exp_minus_one)(cfg.gamma)


def _measure_scores(
    g: SparseGraph, cfg: ExperimentConfig, ell: int, seed: int
) -> tuple[np.ndarray, dict, float, float]:
    """The scores of one run's estimate, what its report row says about the
    run (the sampler's fallback draws, |J & I| for Perron, and the estimate's
    ``metadata()``), and its sampling and scoring seconds."""
    t0 = time.perf_counter()
    J = sample_columns(g, ell, seed, cfg.strategy)
    draws = J.fallback_draws
    overlap = None
    if cfg.measure == "perron" and g.directed:
        I = sample_rows(g, ell, seed + 1, cfg.strategy)
        draws += I.fallback_draws
        # A_cols(J) @ A_rows(I) has rank at most |J & I|, and is zero without it
        overlap = int(np.intersect1d(J.indices, I.indices).size)
    t1 = time.perf_counter()
    row = {"fallback_draws": draws}
    if cfg.measure == "perron":
        pcfg = PerronConfig(epsilon=cfg.epsilon)
        result = left_perron(g, J, I, pcfg) if g.directed else symmetric_perron(g, J, pcfg)
        scores = result.vector
        row["sample_overlap"] = overlap
    else:
        result = evaluate_masked_function(g, J, _scalar_function(cfg))
        scores = result.diag if cfg.measure == "subgraph" else result.rowsum
    t2 = time.perf_counter()
    return scores, row | result.metadata(), t1 - t0, t2 - t1


def _reference_scores(g: SparseGraph, cfg: ExperimentConfig) -> tuple[np.ndarray, dict]:
    """The reference scores and how they were computed."""
    if cfg.measure == "perron":
        ref = dense_left_perron(g)
        return ref.vector, ref.metadata()
    if cfg.measure == "communicability":
        return expm_rowsum(g, cfg.gamma), {"method": "expm_multiply"}
    ref = katz_rowsum(g, cfg.gamma) if cfg.measure == "katz" else subgraph_diag(g, cfg.gamma)
    return ref.scores, ref.metadata()


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {k: v for k, v in dataclasses.asdict(cfg).items() if k not in OUTPUT_FIELDS}


def run(cfg: ExperimentConfig) -> int:
    """Execute every (ell, seed) run and write the report files.

    Returns 0 when all runs completed; on failure a partial report carrying
    a failure marker is flushed and the exit status is nonzero.
    """
    out_base = Path(cfg.out)
    report: dict = {
        "tool_version": __version__,
        "config_echo": _config_echo(cfg),
        "results": [],
        "timing": [],
    }
    labels = None
    try:
        t0 = time.perf_counter()
        g = _load_graph(cfg)
        report["load_s"] = time.perf_counter() - t0
        labels = g.labels
        t0 = time.perf_counter()
        reference, report["reference"] = _reference_scores(g, cfg)
        report["reference_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref_ranking = rank_nodes(reference, cfg.k)
        rank_s = time.perf_counter() - t0
        candidates: list[tuple[str, Ranking]] = []
        seeds = range(cfg.seed, cfg.seed + cfg.trials)
        for ell in cfg.ell_list:
            sample_times, score_times = [], []
            for run_index, seed in enumerate(seeds):
                scores, row, sample_s, score_s = _measure_scores(g, cfg, ell, seed)
                sample_times.append(sample_s)
                score_times.append(score_s)
                t0 = time.perf_counter()
                ranking = rank_nodes(scores, cfg.k)
                rank_s += time.perf_counter() - t0
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
                    | row
                )
            times = np.add(sample_times, score_times)
            report["timing"].append(
                {
                    "ell": int(ell),
                    "mean": float(np.mean(times)),
                    "max": float(np.max(times)),
                    "min": float(np.min(times)),
                    "runs": len(times),
                    "sample_mean": float(np.mean(sample_times)),
                    "score_mean": float(np.mean(score_times)),
                }
            )
        report["rank_s"] = rank_s
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
        # config fields a library caller set to numpy scalars are written as numbers
        json.dump(report, handle, sort_keys=True, indent=2, default=np.generic.item)
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
    """Flags without defaults: an absent flag leaves its ``ExperimentConfig``
    field at the dataclass default, the one place each default is declared."""
    parser = argparse.ArgumentParser(
        prog="sampled-centrality",
        description="Approximate spectral node centralities from sampled "
        "adjacency columns/rows and compare rankings against a reference.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--input", help="graph file: Matrix Market if named *.mtx, else edge list")
    parser.add_argument(
        "--undirected", action="store_true",
        help="read an edge list as undirected (symmetric .mtx files always are)",
    )
    parser.add_argument("--generate", help="synthetic graph spec, e.g. er:n=60,p=0.1,seed=1")
    parser.add_argument("--measure", choices=MEASURES)
    parser.add_argument("--gamma", type=float, help="function scaling parameter")
    parser.add_argument("--epsilon", type=float, help="Perron perturbation")
    parser.add_argument(
        "--ell", dest="ell_list", help="sample sizes: '200', '500,1000', '500..3000'"
    )
    parser.add_argument("--strategy", choices=STRATEGIES)
    parser.add_argument("--seed", type=int, help="seed of the first run of each ell")
    parser.add_argument("--trials", type=int, help="runs per ell: seed, seed+1, ...")
    parser.add_argument("--k", type=int, help="report depth")
    parser.add_argument("--out", help="output path base (.json/.csv appended)")
    parser.add_argument("--csv", dest="write_csv", action="store_true")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values = vars(args)
    if "ell_list" in values:
        values = values | {"ell_list": _parse_ell(values["ell_list"])}
    return ExperimentConfig(**values)


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

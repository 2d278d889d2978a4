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

from . import __version__, matfun
from .graph import SparseGraph, parse_edge_list
from .matfun import ScalarFunction, evaluate_masked_function, exp_minus_one, resolvent_minus_one
from .oracle import dense_left_perron, expm_rowsum, katz_rowsum, subgraph_diag
from .perron import PerronConfig, left_perron, symmetric_perron
from .ranking import exact_matches, rank_nodes, topk_overlap
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
        if not self.ell_list:
            raise ValueError("empty ell list")
        if any(ell < 1 for ell in self.ell_list):
            raise ValueError("ell values must be at least 1")
        if len(set(self.ell_list)) < len(self.ell_list):
            raise ValueError("ell values must be distinct")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        # the two parameter types refuse a gamma or epsilon they cannot use
        exp_minus_one(self.gamma)
        PerronConfig(epsilon=self.epsilon)


# -- synthetic generators -----------------------------------------------------

# first picks per chunk of pa rounds; bounds memory, the graph does not depend on it
_PA_CHUNK_PICKS = 4096


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
    graphs walk only the n(n - 1)/2 slots with i < j.

    Geometric skip sampling (Batagelj & Brandes, Phys. Rev. E 71, 036113,
    2005) jumps from one edge to the next over the slots, so the cost is
    O(n + m) rather than O(n^2).  The batch sizes only bound memory: the
    draws, and so the pairs, depend on (n, p) and the stream of ``rng`` alone.
    """
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and p in [0, 1]")
    slots = n * (n - 1) if directed else n * (n - 1) // 2
    found = []
    last = -1
    # a skip of slots + 1 ends the stream even from last = -1; capping the
    # skips there keeps last + cumsum below 2^63
    cap = max(1, 2**62 // (slots + 1))
    while p > 0.0 and last < slots - 1:
        expected = (slots - 1 - last) * p
        size = min(cap, 1 << 20, int(expected + 6.0 * np.sqrt(expected)) + 64)
        skips = np.minimum(rng.geometric(p, size=size), slots + 1)
        positions = last + np.cumsum(skips)
        found.append(positions[: np.searchsorted(positions, slots)])
        last = int(positions[-1])
    t = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
    if directed:
        rows, cols = np.divmod(t, max(n - 1, 1))
        cols += cols >= rows
        return rows, cols
    # row i holds the slots (i, i + 1) .. (i, n - 1), from i(n - 1) - i(i - 1)/2 on
    i = np.arange(n, dtype=np.int64)
    offsets = i * (n - 1) - i * (i - 1) // 2
    rows = np.searchsorted(offsets, t, side="right") - 1
    return rows, rows + 1 + (t - offsets[rows])


def _gen_erdos_renyi(n: int, p: float, seed: int = 0, directed: bool = True) -> SparseGraph:
    edges = np.column_stack(_er_pairs(np.random.default_rng(seed), n, p, directed))
    return SparseGraph.from_edges(n, edges, directed=directed)


def _gen_preferential_attachment(n: int, m: int = 5, seed: int = 0) -> SparseGraph:
    """Barabasi-Albert growth: each new node attaches to m distinct existing
    nodes with probability proportional to degree, by the repeated-endpoint
    construction of Batagelj & Brandes (Phys. Rev. E 71, 036113, 2005).

    The repeated-endpoint list is the flat list of (targets, m copies of
    source) blocks, one per node from m on; block b is row b of ``targets``
    followed by m copies of b + m, so its entry p is node q + m when
    o >= m and ``targets[q, o]`` otherwise, with (q, o) = divmod(p, 2m).
    Round k (node k + m) picks the targets of node k + m + 1, row k + 1,
    from the list's first 2m(k + 1) entries.  Those bounds depend on no pick,
    so the m first picks of every round come from ``default_rng(seed)`` in
    ``integers(bounds)`` calls of about ``_PA_CHUNK_PICKS`` picks; they are
    the values of one call per bound, so the chunk size bounds memory only.
    A chunk of rounds [a, b) resolves all its picks by one gather on rows
    0..a and sorts them by row.  A round that reads a row after a, or whose
    sorted row repeats a node, is then redone by ``_pa_scalar_round`` in
    round order: it resolves again only the picks that read a row after a,
    and tops up from a second stream, ``default_rng([seed, 1])``, one pick
    at a time.  (The last round's picks are drawn and unused.)
    """
    if n <= m or m < 1:
        raise ValueError("need n > m >= 1")
    first = np.random.default_rng(seed)
    topups = np.random.default_rng([seed, 1])
    targets = np.empty((n - m + 1, m), dtype=np.int64)
    targets[0] = np.arange(m)
    step = max(1, _PA_CHUNK_PICKS // m)
    for a in range(0, n - m, step):
        b = min(a + step, n - m)
        bounds = np.arange(a + 1, b + 1, dtype=np.int64).repeat(m) * (2 * m)
        picks = first.integers(bounds).reshape(-1, m)
        q, o = np.divmod(picks, 2 * m)
        listed = o >= m
        # rows after a are not final yet: mark their picks -1, and redo below
        late = (q > a) & ~listed
        nodes = np.where(listed, q + m, targets[np.minimum(q, a), np.where(listed, 0, o)])
        nodes[late] = -1
        rows = np.sort(nodes, axis=1)
        targets[a + 1 : b + 1] = rows
        redo = late.any(axis=1) | (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        for k in np.flatnonzero(redo).tolist():
            _pa_scalar_round(targets, a + k, picks[k].tolist(), nodes[k].tolist(), topups)
    edges = np.column_stack([np.arange(m, n).repeat(m), targets[:-1].ravel()])
    del targets
    return SparseGraph.from_edges(n, edges, directed=False)


def _pa_scalar_round(
    targets: np.ndarray,
    k: int,
    picks: list[int],
    nodes: list[int],
    topups: np.random.Generator,
) -> None:
    """Round k one pick at a time: take the nodes of ``picks`` from
    ``nodes``, resolving against rows 0..k of ``targets`` only those marked
    -1, top up from ``topups`` until m nodes are distinct, and write them
    sorted to row k + 1."""
    m = targets.shape[1]

    def node(p: int) -> int:
        q, o = divmod(p, 2 * m)
        return q + m if o >= m else int(targets[q, o])

    picked = {v if v >= 0 else node(p) for p, v in zip(picks, nodes)}
    while len(picked) < m:
        picked.add(node(int(topups.integers(2 * m * (k + 1)))))
    targets[k + 1] = sorted(picked)


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


def _check_sizes(g: SparseGraph, cfg: ExperimentConfig) -> None:
    """Refuse a report depth or sample size the graph cannot give before the
    reference is computed, with the messages of ``rank_nodes``,
    ``sample_columns``, (directed Perron) ``sample_rows`` and (communicability
    and Katz) the masked evaluation's dense cap.  Subgraph needs no cap
    check: its reference refuses n above the cap, and ell <= n."""
    if cfg.k > g.n:
        raise ValueError(f"k={cfg.k} outside [1, {g.n}]")
    sides = {"columns": np.count_nonzero(g.col_degrees)}
    if cfg.measure == "perron" and g.directed:
        sides["rows"] = np.count_nonzero(g.row_degrees)
    for ell in cfg.ell_list:
        for side, nz in sides.items():
            if ell > nz:
                raise ValueError(f"ell={ell} outside [1, {nz}] (nonzero {side})")
        cap = matfun.DENSE_CAP
        if cfg.measure in ("communicability", "katz") and ell > cap:
            raise matfun.EvaluationError(f"core size {ell} exceeds the dense cap {cap}")


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
    try:
        t0 = time.perf_counter()
        g = _load_graph(cfg)
        report["load_s"] = time.perf_counter() - t0
        report["graph"] = {
            "n": g.n,
            "directed": g.directed,
            "entries": g.edge_count,
            "duplicates_collapsed": g.duplicates_collapsed,
        }
        _check_sizes(g, cfg)
        t0 = time.perf_counter()
        reference, report["reference"] = _reference_scores(g, cfg)
        report["reference_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref_ranking = rank_nodes(reference, cfg.k)
        rank_s = time.perf_counter() - t0
        # the reference against the first run of each ell: the CSV's columns
        table: dict = {
            "k": cfg.k,
            "tie_break": "ascending node id",
            "reference": {
                "top": [g.label_of(i) for i in ref_ranking.top()],
                "scores": ref_ranking.scores.tolist(),
            },
            "candidates": [],
        }
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
                stats = {
                    "top": [g.label_of(i) for i in ranking.top()],
                    "overlap_at_k": topk_overlap(ref_ranking, ranking, cfg.k),
                    "exact_at_k": exact_matches(ref_ranking, ranking, cfg.k),
                }
                if run_index == 0:
                    table["candidates"].append(
                        {"label": f"l={ell}", "scores": ranking.scores.tolist()} | stats
                    )
                report["results"].append(
                    {"ell": int(ell), "seed": int(seed), "strategy": cfg.strategy} | stats | row
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
        report["report"] = table
        _write_outputs(report, table, out_base, cfg)
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


def _write_outputs(report, table, out_base, cfg) -> None:
    """The JSON report, and the figure-style CSV of its ``table``: one column
    per configuration, one row per rank, then the overlap and exact rows."""
    if cfg.write_json:
        _write_json(report, out_base)
    if cfg.write_csv:
        candidates = table["candidates"]
        columns = [("reference", table["reference"])] + [(c["label"], c) for c in candidates]
        rows = [["rank"] + [label for label, _ in columns]]
        rows += [[pos + 1] + [c["top"][pos] for _, c in columns] for pos in range(table["k"])]
        rows.append(["overlap@k", ""] + [c["overlap_at_k"] for c in candidates])
        rows.append(["exact@k", ""] + [c["exact_at_k"] for c in candidates])
        path = out_base.with_suffix(".csv")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))


def _parse_ell(text: str) -> list[int]:
    """Comma list with 'a..b' and 'a..b..step' ranges (default step = a)."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            pieces = [int(piece) for piece in part.split("..")]
            if len(pieces) > 3:
                raise ValueError(f"bad ell range {part!r}")
            a, b, step = pieces if len(pieces) == 3 else (*pieces, pieces[0])
            if step < 1:
                raise ValueError("range step must be positive")
            if b < a:
                raise ValueError(f"ell range {part!r} ends below its start")
            values.extend(range(a, b + 1, step))
        elif part:
            values.append(int(part))
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

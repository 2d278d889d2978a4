"""The benchmark's four workloads.

An operation is one timed call sequence into the program's public API
(sample, then score, then rank; one CLI invocation; one parse, sample,
Perron solve or generator call) with an untimed check of its output.  Every
pass runs the same operations in the same order.

All program calls go through module attributes (``sc.sample_columns``,
``cli.generate``) looked up at call time, so the tracer's wrappers see them.
``checks`` is imported only where checks run, keeping its imports out of the
set-up time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import sampled_centrality as sc
from sampled_centrality import cli

K = 20              # ranking depth
EPSILON = 1e-3      # Perron perturbation, as in the paper's experiments
EXTRA_NODES = 50    # fixed random nodes whose diagonal is checked too


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # fails its check today because of a fault named in bench/README.md
    known_fault: bool = False


class Workload:
    name = ""
    # sizes: full scale and the self-test's toy scale
    FULL: dict = {}
    TOY: dict = {}

    def __init__(self, workdir: Path, seed: int, toy: bool = False):
        self.dir = workdir
        self.seed = seed
        self.size = self.TOY if toy else self.FULL
        self._refs: dict = {}

    def sample_seeds(self) -> tuple[int, int]:
        return 1000 * self.seed + 1, 1000 * self.seed + 2

    def setup(self) -> None:
        """Build and write the inputs, parse what set-up parses, warm up."""
        raise NotImplementedError

    def setup_problems(self) -> list[str]:
        """Build what the checks need and check the set-up's parsed inputs.

        Runs once, after the first pass's timed region."""
        raise NotImplementedError

    def operations(self) -> list[Op]:
        raise NotImplementedError

    def _cached(self, key, build):
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]


def _parse(path: Path, directed: bool):
    with path.open() as handle:
        return sc.parse_edge_list(handle, directed=directed)


def _extra_nodes(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 3]).choice(n, size=min(EXTRA_NODES, n), replace=False)


def warm_up(workdir: Path) -> None:
    """One call into every layer on toy graphs.

    Lazy first-call costs (scipy submodule loading, LAPACK set-up) land in
    set-up instead of the first timed operation.
    """
    d_edges = inputs.directed_er(40, 4, 0)
    u_edges = inputs.preferential_attachment(40, 2, 0)
    d_path, u_path = workdir / "warm_directed.txt", workdir / "warm_undirected.txt"
    inputs.write_edge_list(d_path, d_edges)
    inputs.write_edge_list(u_path, u_edges)
    gd, gu = _parse(d_path, True), _parse(u_path, False)
    J = sc.sample_columns(gd, 8, 0)
    I = sc.sample_rows(gd, 8, 1)
    sc.sample_columns(gu, 8, 0, "random")
    for f in (sc.exp_minus_one(1.0), sc.resolvent_minus_one(0.05)):
        r = sc.evaluate_masked_function(gd, J, f, seed=0)
    sc.rank_nodes(r.rowsum, 5)
    sc.evaluate_masked_function(gu, sc.sample_columns(gu, 8, 0), sc.exp_minus_one(1.0), seed=0)
    sc.left_perron(gd, J, I, sc.PerronConfig(epsilon=EPSILON))
    sc.symmetric_perron(gu, sc.sample_columns(gu, 8, 0), sc.PerronConfig(epsilon=EPSILON))
    sc.dense_left_perron(gd)
    cli.generate("er:n=30,p=0.1,seed=0")
    cli.generate("pa:n=30,m=2,seed=0")
    argv = ["--input", str(d_path), "--ell", "8", "--k", "5", "--csv"]
    if cli.main(argv + ["--out", str(workdir / "warm")]) != 0:
        raise RuntimeError("warm-up CLI run failed")


def _masked_op(w: Workload, g, adjacency, mask: str, kind: str, gamma: float, ell: int, s: int):
    """Guided column sample, f(A_mask) with f = exp or Katz, rankings of the
    diagonal and the row sums; checked against the benchmark's own ``mask``
    ("column" or "arrow") of ``adjacency()``, which exists once checks run."""

    def run():
        J = sc.sample_columns(g, ell, s)
        f = sc.exp_minus_one(gamma) if kind == "exp" else sc.resolvent_minus_one(gamma)
        r = sc.evaluate_masked_function(g, J, f, seed=s)
        return J, r, sc.rank_nodes(r.diag, K), sc.rank_nodes(r.rowsum, K)

    def check(out):
        import checks

        J, r, by_diag, by_rowsum = out
        a = adjacency()
        problems = checks.check_sample(J, a, ell, "column", "guided")
        if problems:
            return problems

        def build():
            mask_of = checks.column_mask if mask == "column" else checks.arrow_mask
            return checks.MatfunReference(mask_of(a, J.indices), kind, gamma)

        ref = w._cached((mask, kind, np.asarray(J.indices).tobytes()), build)
        problems += checks.check_masked_result(r, ref, J.indices, mask == "column", w.extra, K)
        problems += checks.check_ranking(by_diag, r.diag, K)
        return problems + checks.check_ranking(by_rowsum, r.rowsum, K)

    return Op(f"{kind}/ell={ell}/seed={s}", run, check)


# -- directed-core ---------------------------------------------------------------


class DirectedCore(Workload):
    """Guided column samples of a directed ER-like digraph scored by exp,
    Katz and the perturbed left Perron vector: masked evaluation (Arnoldi,
    then the dense-core fallback) does nearly all the work."""

    name = "directed-core"
    # mean degree 100 (p = 0.02): at degree 10 the guided cores are nearly
    # acyclic and Arnoldi's breakdown step ranged from 12 to 346 with the
    # seed, so the work per pass, not the program, set the spread
    FULL = {"n": 5000, "degree": 100, "ells": (100, 200)}
    TOY = {"n": 300, "degree": 20, "ells": (20, 40)}
    KATZ_GAMMA = 0.05

    def setup(self):
        self.edges = inputs.directed_er(self.size["n"], self.size["degree"], self.seed)
        self.n = int(self.edges.max()) + 1
        path = self.dir / "directed.txt"
        inputs.write_edge_list(path, self.edges)
        self.g = _parse(path, directed=True)
        warm_up(self.dir)

    def setup_problems(self):
        import checks

        self.a = inputs.adjacency(self.n, self.edges, directed=True)
        self.at = self.a.T.tocsr()
        self.extra = _extra_nodes(self.n, self.seed)
        return checks.check_parsed(self.g, self.n, self.edges, directed=True)

    def operations(self):
        ops = []
        for ell in self.size["ells"]:
            for s in self.sample_seeds():
                for kind, gamma in (("exp", 1.0), ("katz", self.KATZ_GAMMA)):
                    adjacency = lambda: self.a  # built once checks run
                    ops.append(_masked_op(self, self.g, adjacency, "column", kind, gamma, ell, s))
                ops.append(self._perron_op(ell, s))
        return ops

    def _perron_op(self, ell, s):
        g = self.g

        def run():
            J = sc.sample_columns(g, ell, s)
            I = sc.sample_rows(g, ell, s + 500)
            res = sc.left_perron(g, J, I, sc.PerronConfig(epsilon=EPSILON, seed=s))
            return J, I, res, sc.rank_nodes(res.vector, K)

        def check(out):
            import checks

            J, I, res, ranking = out
            problems = checks.check_sample(J, self.a, ell, "column", "guided")
            problems += checks.check_sample(I, self.at, ell, "row", "guided")
            if problems:
                return problems
            apply = checks.product_transpose(self.a, J.indices, I.indices, EPSILON)
            problems += checks.check_perron(res, apply, self.n)
            return problems + checks.check_ranking(ranking, res.vector, K)

        return Op(f"perron/ell={ell}/seed={s}", run, check)


# -- undirected-arrow ------------------------------------------------------------


class UndirectedArrow(Workload):
    """Undirected preferential-attachment graphs: exp and Katz on the arrow
    mask (the Lanczos route) and the symmetric Perron product.

    The exp and Katz operations fail their check every time (see
    bench/README.md), so they run on inputs that do not depend on the seed:
    a fixed graph and fixed sample seeds.  The Perron operations use a
    graph and samples drawn from the seed.
    """

    name = "undirected-arrow"
    FULL = {"n": 5000, "m": 5, "ells": (100, 200)}
    TOY = {"n": 300, "m": 3, "ells": (10, 20)}
    FIXED_GRAPH_SEED = 7
    FIXED_SAMPLE_SEEDS = (1, 2)
    KATZ_GAMMA = 0.02

    def setup(self):
        n, m = self.size["n"], self.size["m"]
        self.fixed_edges = inputs.preferential_attachment(n, m, self.FIXED_GRAPH_SEED)
        self.edges = inputs.preferential_attachment(n, m, self.seed)
        self.n = n
        inputs.write_edge_list(self.dir / "arrow_fixed.txt", self.fixed_edges)
        inputs.write_edge_list(self.dir / "arrow_seeded.txt", self.edges)
        self.fixed_g = _parse(self.dir / "arrow_fixed.txt", directed=False)
        self.g = _parse(self.dir / "arrow_seeded.txt", directed=False)
        warm_up(self.dir)

    def setup_problems(self):
        import checks

        self.fixed_a = inputs.adjacency(self.n, self.fixed_edges, directed=False)
        self.a = inputs.adjacency(self.n, self.edges, directed=False)
        self.extra = _extra_nodes(self.n, self.FIXED_GRAPH_SEED)
        return checks.check_parsed(
            self.fixed_g, self.n, self.fixed_edges, directed=False
        ) + checks.check_parsed(self.g, self.n, self.edges, directed=False)

    def operations(self):
        ops = []
        for ell in self.size["ells"]:
            for s in self.FIXED_SAMPLE_SEEDS:
                for kind, gamma in (("exp", 1.0), ("katz", self.KATZ_GAMMA)):
                    adjacency = lambda: self.fixed_a  # built once checks run
                    op = _masked_op(self, self.fixed_g, adjacency, "arrow", kind, gamma, ell, s)
                    op.known_fault = True
                    ops.append(op)
        for ell in self.size["ells"]:
            for s in self.sample_seeds():
                ops.append(self._perron_op(ell, s))
        return ops

    def _perron_op(self, ell, s):
        g = self.g

        def run():
            J = sc.sample_columns(g, ell, s)
            res = sc.symmetric_perron(g, J, sc.PerronConfig(epsilon=EPSILON, seed=s))
            return J, res, sc.rank_nodes(res.vector, K)

        def check(out):
            import checks

            J, res, ranking = out
            problems = checks.check_sample(J, self.a, ell, "column", "guided")
            if problems:
                return problems
            apply = checks.symmetric_product(self.a, J.indices, EPSILON)
            problems += checks.check_perron(res, apply, self.n)
            return problems + checks.check_ranking(ranking, res.vector, K)

        return Op(f"symmetric_perron/ell={ell}/seed={s}", run, check)


# -- cli-validation --------------------------------------------------------------


class CliValidation(Workload):
    """The paper's validation experiment through ``cli.main`` on a directed
    edge list: dense reference, guided estimates, ranking and report files."""

    name = "cli-validation"
    FULL = {"n": 2000, "degree": 10, "ells": (50, 100), "trials": 2}
    TOY = {"n": 200, "degree": 6, "ells": (10, 20), "trials": 2}
    MEASURES = (
        ("subgraph", ()),
        ("katz", ("--gamma", "0.05")),
        ("perron", ("--epsilon", repr(EPSILON))),
    )

    def setup(self):
        self.edges = inputs.directed_er(self.size["n"], self.size["degree"], self.seed)
        self.n = int(self.edges.max()) + 1
        self.path = self.dir / "cli_input.txt"
        inputs.write_edge_list(self.path, self.edges)
        warm_up(self.dir)

    def setup_problems(self):
        import checks

        self.a = inputs.adjacency(self.n, self.edges, directed=True)
        self.at = self.a.T.tocsr()
        self.g = _parse(self.path, directed=True)
        return checks.check_parsed(self.g, self.n, self.edges, directed=True)

    def operations(self):
        return [self._invocation(measure, extra) for measure, extra in self.MEASURES]

    def _invocation(self, measure, extra):
        out_base = self.dir / f"cli_{measure}"
        ells = self.size["ells"]
        seed = self.sample_seeds()[0]
        argv = [
            "--input", str(self.path), "--measure", measure, *extra,
            "--ell", ",".join(str(e) for e in ells), "--trials", str(self.size["trials"]),
            "--k", str(K), "--csv", "--seed", str(seed), "--out", str(out_base),
        ]  # fmt: skip

        def run():
            return cli.main(argv)

        def check(status):
            import checks

            if status != 0:
                return [f"cli: exit status {status}"]
            report = json.loads(out_base.with_suffix(".json").read_text())
            csv_text = out_base.with_suffix(".csv").read_text()
            seeds = [seed + t for t in range(self.size["trials"])]
            ref_values, run_values, problems = self._cached(
                measure, lambda: self._independent(measure, ells, seeds)
            )
            if measure == "perron":  # a unit vector: relative to its largest entry
                tol, floor = checks.PERRON_VECTOR_TOL, 0.0
            else:
                tol, floor = checks.REL_TOL, 1.0
            return problems + checks.check_cli_report(
                report, csv_text, K, ref_values, run_values, seed, tol, floor
            )

        return Op(f"cli/{measure}", run, check)

    def _independent(self, measure, ells, seeds):
        """Exact scores of the full graph and of every (ell, seed) estimate,
        with the samples the CLI draws for them checked on the way."""
        import checks

        problems = []
        if measure == "perron":
            ref = checks.perron_vector(lambda v: self.at @ v, self.n)
        elif measure == "katz":
            ref = checks.MatfunReference(self.a, "katz", 0.05).rowsum
        else:
            ref = checks.MatfunReference(self.a, "exp", 1.0).full_diag()
        runs = {}
        for ell in ells:
            for s in seeds:
                J = sc.sample_columns(self.g, ell, s)
                problems += checks.check_sample(J, self.a, ell, "column", "guided")
                if measure == "perron":
                    I = sc.sample_rows(self.g, ell, s + 1)
                    problems += checks.check_sample(I, self.at, ell, "row", "guided")
                    apply = checks.product_transpose(self.a, J.indices, I.indices, EPSILON)
                    runs[(ell, s)] = checks.perron_vector(apply, self.n)
                    continue
                kind, gamma = ("katz", 0.05) if measure == "katz" else ("exp", 1.0)
                masked = checks.MatfunReference(checks.column_mask(self.a, J.indices), kind, gamma)
                if measure == "katz":
                    runs[(ell, s)] = masked.rowsum
                else:
                    diag = np.zeros(self.n)
                    diag[J.indices] = masked.diag(J.indices)
                    runs[(ell, s)] = diag
        return ref, runs, problems


# -- ingest-sample-large ---------------------------------------------------------


class IngestSampleLarge(Workload):
    """Parsing two 10^5-node edge lists, guided samples at ell = 4000, a
    random sample, one symmetric Perron solve and the program's generators:
    ingest, the O(n*ell) guided sampler and the O(n^2) ER generator."""

    name = "ingest-sample-large"
    FULL = {"n": 100_000, "m": 5, "degree": 5, "ell": 4000, "pa_n": 100_000, "er_n": 20_000}
    TOY = {"n": 2000, "m": 3, "degree": 4, "ell": 100, "pa_n": 2000, "er_n": 500}
    ER_DEGREE = 5.0

    def setup(self):
        n = self.size["n"]
        self.u_edges = inputs.preferential_attachment(n, self.size["m"], self.seed)
        self.d_edges = inputs.directed_er(n, self.size["degree"], self.seed)
        self.u_path = self.dir / "large_undirected.txt"
        self.d_path = self.dir / "large_directed.txt"
        inputs.write_edge_list(self.u_path, self.u_edges)
        inputs.write_edge_list(self.d_path, self.d_edges)
        warm_up(self.dir)

    def setup_problems(self):
        self.u_n = int(self.u_edges.max()) + 1
        self.d_n = int(self.d_edges.max()) + 1
        self.a_u = inputs.adjacency(self.u_n, self.u_edges, directed=False)
        self.a_dt = inputs.adjacency(self.d_n, self.d_edges, directed=True).T.tocsr()
        return []

    def operations(self):
        import checks

        ell = self.size["ell"]
        s1, s2 = self.sample_seeds()
        pa_n, er_n = self.size["pa_n"], self.size["er_n"]
        er_p = self.ER_DEGREE / er_n
        state = {}

        def step(name, fn, check):
            def run():
                state[name] = fn()
                return state[name]

            return Op(name, run, check)

        return [
            step(
                "parse/undirected",
                lambda: _parse(self.u_path, directed=False),
                lambda g: checks.check_parsed(g, self.u_n, self.u_edges, directed=False),
            ),
            step(
                "parse/directed",
                lambda: _parse(self.d_path, directed=True),
                lambda g: checks.check_parsed(g, self.d_n, self.d_edges, directed=True),
            ),
            step(
                "sample/guided-columns",
                lambda: sc.sample_columns(state["parse/undirected"], ell, s1),
                lambda J: checks.check_sample(J, self.a_u, ell, "column", "guided"),
            ),
            step(
                "sample/guided-rows",
                lambda: sc.sample_rows(state["parse/directed"], ell, s2),
                lambda I: checks.check_sample(I, self.a_dt, ell, "row", "guided"),
            ),
            step(
                "sample/random-columns",
                lambda: sc.sample_columns(state["parse/undirected"], ell, s1 + 2, "random"),
                lambda R: checks.check_sample(R, self.a_u, ell, "column", "random"),
            ),
            step(
                "symmetric_perron",
                lambda: sc.symmetric_perron(
                    state["parse/undirected"],
                    state["sample/guided-columns"],
                    sc.PerronConfig(epsilon=EPSILON, seed=s1),
                ),
                lambda res: checks.check_perron(
                    res,
                    checks.symmetric_product(
                        self.a_u, state["sample/guided-columns"].indices, EPSILON
                    ),
                    self.u_n,
                ),
            ),
            step(
                "generate/pa",
                lambda: cli.generate(f"pa:n={pa_n},m={self.size['m']},seed={self.seed}"),
                lambda g: checks.check_generated_pa(g, pa_n, self.size["m"]),
            ),
            step(
                "generate/er",
                lambda: cli.generate(f"er:n={er_n},p={er_p!r},seed={self.seed}"),
                lambda g: checks.check_generated_er(g, er_n, er_p),
            ),
        ]


WORKLOADS = {w.name: w for w in (DirectedCore, UndirectedArrow, CliValidation, IngestSampleLarge)}

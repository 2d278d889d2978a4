"""Benchmark of sampled-centrality: one workload per invocation.

    python3 bench/run.py --workload directed-core --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``.  With ``--trace 0`` it sets up three times (this process and two
child processes, each importing the package afresh) and reports the median
as ``setup_s``, then repeats whole passes of the workload's operations until
their timed total reaches ``--seconds``, checking every output after each
pass outside the timed region.  With ``--trace 1`` it traces set-up and one
pass through wrappers installed on the program's modules, runs untraced
passes for the overhead baseline, writes the spans to
``bench/.traces/<workload>-seed<seed>.json`` and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("directed-core", "undirected-arrow", "cli-validation", "ingest-sample-large")
# one BLAS thread (nproc is 2 on the reference box): with two, OpenBLAS's
# threading on ell-sized matrices made the same core evaluation take 0.05 to
# 0.4 s from one call to the next
BLAS_THREADS = "1"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="self-test sizes")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> int:
    """Child process: time package import plus one workload set-up."""
    t0 = time.perf_counter()
    import workloads

    workdir = Path(args.setup_probe)
    workloads.WORKLOADS[args.workload](workdir, args.seed, toy=args.toy).setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def probe_setup_times(args, workdir: Path) -> list[float]:
    times = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    argv += ["--setup-probe", str(workdir)]
    if args.toy:
        argv.append("--toy")
    for _ in range(SETUP_REPEATS - 1):
        workdir.mkdir(parents=True, exist_ok=True)
        done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Passes:
    """Runs whole passes and checks them; keeps timings and failure counts."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None  # set for the traced pass
        self.pass_s: list[float] = []
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: dict[str, str] = {}
        self.peak_rss_mb = 0.0
        self.setup_problems: list[str] = []

    def time_one(self):
        """One pass, timed; returns the operations, their results and the time."""
        ops = self.workload.operations()
        results = []
        start = time.perf_counter()
        for op in ops:
            if self.tracer is not None:
                self.tracer.op = f"pass{len(self.pass_s)}:{op.name}"
            t = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # an operation that raises is a failed operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            self.op_s.append(time.perf_counter() - t)
            results.append((out, error))
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.op = None
        if not self.pass_s:
            # read before any check runs, so the reference computations and
            # what they leave in the allocator never count
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.pass_s.append(elapsed)
        return ops, results, elapsed

    def check(self, ops, results) -> None:
        if self.attempted == 0:
            self.setup_problems = self.workload.setup_problems()
        for op, (out, error) in zip(ops, results):
            self._check(op, out, error)

    def run_one(self) -> float:
        ops, results, elapsed = self.time_one()
        self.check(ops, results)
        return elapsed

    def _check(self, op, out, error) -> None:
        if error is None:
            try:
                problems = op.check(out)
            except Exception as exc:  # a check that cannot run counts against the output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if op.known_fault:
            self.known.setdefault(op.name, problems[0])
        else:
            self.unexpected.append(f"{op.name}: {'; '.join(problems)}")

    def run_for(self, seconds: float) -> None:
        """Whole passes until their timed total reaches ``seconds``."""
        total = self.run_one()
        while total < seconds:
            total += self.run_one()

    def report(self) -> None:
        for name, problem in sorted(self.known.items()):
            print(f"known fault, {name}: {problem}", file=sys.stderr)
        for line in self.unexpected:
            print(f"FAILED {line}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sampled_centrality" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    workdir = BENCH / ".run" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    tracer = None
    t0 = time.perf_counter()
    if args.trace:
        import sampled_centrality
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(sampled_centrality)
    import workloads

    workload = workloads.WORKLOADS[args.workload](workdir, args.seed, toy=args.toy)
    workload.setup()
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    else:
        setup_times = [setup_s] + probe_setup_times(args, workdir / "probe")

    passes = Passes(workload)
    if tracer is None:
        passes.run_for(args.seconds)
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "run_s": metric(statistics.median(passes.pass_s), "s"),
            "op_p50_s": metric(statistics.median(passes.op_s), "s"),
            "peak_rss_mb": metric(passes.peak_rss_mb, "MB"),
        }
    else:
        passes.run_for(args.seconds / 2)
        untraced = statistics.median(passes.pass_s)
        tracer.install(sys.modules["sampled_centrality"])
        passes.tracer = tracer
        try:
            ops, results, traced = passes.time_one()
        finally:
            tracer.uninstall()
            passes.tracer = None
        passes.check(ops, results)
        tracer.write(BENCH / ".traces" / f"{args.workload}-seed{args.seed}.json")
        metrics = {name: metric(v, unit) for name, (v, unit) in tracer.layer_metrics().items()}
        metrics["trace.overhead_s"] = metric(traced - untraced, "s")

    passes.report()
    problems = passes.setup_problems
    for line in problems:
        print(f"FAILED set-up: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems and not passes.unexpected,
                "attempted": passes.attempted,
                "failed": passes.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast self-test of the benchmark (about half a minute).

    python3 bench/selftest.py

1. Runs every workload at toy size through ``run.py`` with tracing off and
   on, and checks the result line: correct, every metric BENCHMARK.json
   names present with its unit, and a trace file written.
2. Plants errors in real program outputs (a score perturbed by 1e-6, a
   repeated sample index, a miscounted fallback draw, a wrong CLI report
   entry, ...) and checks that the matching check reports each one.

Exits 0 when everything holds; otherwise lists what did not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def caught(problems: list[str], what: str) -> None:
    expect(bool(problems), f"planted error caught: {what}")


def passed(problems: list[str], what: str) -> None:
    expect(not problems, f"clean output passes: {what}" + (f" ({problems})" if problems else ""))


def fake_sample(sample, **changes) -> SimpleNamespace:
    """A SampleSet look-alike that skips SampleSet's own validation."""
    return SimpleNamespace(**{f.name: getattr(sample, f.name) for f in fields(sample)} | changes)


def bump_top(v):
    """A unit vector with its largest entry times (1 + 1e-6), renormalised."""
    v = v.copy()
    v[v.argmax()] *= 1 + 1e-6
    return v / (v @ v) ** 0.5


# -- 1. toy runs through run.py ----------------------------------------------------


def toy_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", "3"]
            argv += ["--seconds", "0", "--trace", str(trace), "--toy"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            what = f"{w['name']} toy run, trace {trace}"
            if done.returncode != 0:
                expect(False, f"{what}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and result["attempted"] >= 1,
                f"{what}: correct, with {result['attempted']} operations attempted",
            )
            units = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{what}: reports exactly the listed metrics and units")
        trace_file = BENCH / ".traces" / f"{w['name']}-seed3.json"
        expect(trace_file.is_file(), f"{w['name']}: trace file written")


# -- 2. planted errors ---------------------------------------------------------------


def planted_errors(workdir: Path) -> None:
    import numpy as np

    import sampled_centrality as sc
    import workloads

    # directed-core: masked exp/Katz, samples, rankings, left Perron
    w = workloads.DirectedCore(workdir, seed=3, toy=True)
    w.setup()
    passed(w.setup_problems(), "directed-core parse")
    ops = {op.name.split("/")[0]: op for op in reversed(w.operations())}
    exp_op, katz_op, perron_op = ops["exp"], ops["katz"], ops["perron"]
    out = exp_op.run()
    J, r, by_diag, by_rowsum = out
    passed(exp_op.check(out), "directed exp estimate")

    def exp_check(**changes):
        return exp_op.check((J, replace(r, **changes), by_diag, by_rowsum))

    bumped = r.rowsum.copy()
    bumped[int(np.argmax(np.abs(bumped)))] *= 1 + 1e-6
    caught(exp_check(rowsum=bumped), "rowsum * (1 + 1e-6)")
    diag = r.diag.copy()
    diag[J.indices[0]] *= 1 + 1e-6
    caught(exp_check(diag=diag), "diag on J * (1 + 1e-6)")
    diag = r.diag.copy()
    diag[np.setdiff1d(np.arange(diag.size), J.indices)[0]] = 1e-300
    caught(exp_check(diag=diag), "nonzero diag off J")
    swapped = by_diag.ordered_nodes.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    bad_rank = replace(by_diag, ordered_nodes=swapped, scores=r.diag[swapped])
    caught(exp_op.check((J, r, bad_rank, by_rowsum)), "ranking with its top two swapped")
    dup = fake_sample(J, indices=np.concatenate([J.indices[:-1], J.indices[:1]]))
    caught(exp_op.check((dup, r, by_diag, by_rowsum)), "repeated sample index")
    miscounted = fake_sample(J, fallback_draws=J.fallback_draws + 1)
    caught(exp_op.check((miscounted, r, by_diag, by_rowsum)), "fallback_draws off by one")

    out = katz_op.run()
    J, r, by_diag, by_rowsum = out
    passed(katz_op.check(out), "directed Katz estimate")
    bumped = replace(r, rowsum=r.rowsum * (1 + 1e-6))
    caught(katz_op.check((J, bumped, by_diag, by_rowsum)), "Katz rowsum * (1 + 1e-6)")

    out = perron_op.run()
    passed(perron_op.check(out), "left Perron vector")
    J, I, res, ranking = out
    bumped = replace(res, vector=bump_top(res.vector))
    caught(perron_op.check((J, I, bumped, ranking)), "Perron entry * (1 + 1e-6)")
    unconverged = replace(res, converged=False)
    caught(perron_op.check((J, I, unconverged, ranking)), "Perron not converged")

    # undirected-arrow: the arrow-mask reference and the symmetric Perron product
    u = workloads.UndirectedArrow(workdir, seed=3, toy=True)
    u.setup()
    passed(u.setup_problems(), "undirected-arrow parse")
    ops = {op.name.split("/")[0]: op for op in reversed(u.operations())}
    out = ops["exp"].run()
    # at toy size Lanczos breaks down, so the known fault does not show
    passed(ops["exp"].check(out), "arrow-mask exp estimate at toy size")
    J, r, by_diag, by_rowsum = out
    diag = r.diag.copy()
    diag[J.indices[0]] *= 1 + 1e-6
    bumped = replace(r, diag=diag)
    caught(ops["exp"].check((J, bumped, by_diag, by_rowsum)), "arrow diag on J * (1 + 1e-6)")
    out = ops["symmetric_perron"].run()
    passed(ops["symmetric_perron"].check(out), "symmetric Perron vector")
    J, res, ranking = out
    bumped = replace(res, vector=bump_top(res.vector))
    caught(ops["symmetric_perron"].check((J, bumped, ranking)), "symmetric Perron * (1 + 1e-6)")

    # ingest-sample-large: parse, samples, generators
    g_big = workloads.IngestSampleLarge(workdir, seed=3, toy=True)
    g_big.setup()
    g_big.setup_problems()
    outs = {}
    for op in g_big.operations():
        outs[op.name] = (op, op.run())
        passed(op.check(outs[op.name][1]), f"ingest {op.name}")
    op, g = outs["parse/undirected"]
    short = sc.SparseGraph.from_edges(g.n, g_big.u_edges[1:], directed=False)
    caught(op.check(short), "parsed graph missing one edge")
    op, sample = outs["sample/guided-rows"]
    miscounted = fake_sample(sample, fallback_draws=sample.fallback_draws + 1)
    caught(op.check(miscounted), "row sample fallback count")
    caught(op.check(fake_sample(sample, indices=sample.indices[:-1])), "row sample one index short")
    op, pa = outs["generate/pa"]
    rows = np.repeat(np.arange(pa.n), pa.row_degrees)
    loop = np.vstack([np.column_stack([rows, pa.row_cols])[1:], [[0, 0]]])
    looped = sc.SparseGraph.from_edges(pa.n, loop, directed=False)
    caught(op.check(looped), "generated graph with a self-loop")
    op, er = outs["generate/er"]
    one_edge = sc.SparseGraph.from_edges(er.n, np.array([[0, 1]]), directed=True)
    caught(op.check(one_edge), "ER edge count far off")

    # cli-validation: reports
    c = workloads.CliValidation(workdir, seed=3, toy=True)
    c.setup()
    passed(c.setup_problems(), "cli-validation parse")
    for op in c.operations():
        status = op.run()
        passed(op.check(status), f"{op.name} report")
        base = workdir / f"cli_{op.name.split('/')[1]}"
        report_text = base.with_suffix(".json").read_text()
        csv_text = base.with_suffix(".csv").read_text()

        def tampered(edit, what, csv=False):
            if csv:
                base.with_suffix(".csv").write_text(edit(csv_text))
            else:
                report = json.loads(report_text)
                edit(report)
                base.with_suffix(".json").write_text(json.dumps(report))
            caught(op.check(status), f"{op.name}: {what}")
            base.with_suffix(".json").write_text(report_text)
            base.with_suffix(".csv").write_text(csv_text)

        def bump_reference(rep):
            rep["report"]["reference"]["scores"][0] *= 1 + 1e-6

        def bump_overlap(rep):
            rep["results"][-1]["overlap_at_k"] += 1

        def mark_failed(rep):
            rep["failed"] = "RuntimeError: planted"

        def swap_csv(text):
            lines = text.splitlines()
            lines[1], lines[2] = lines[2].replace("2,", "1,", 1), lines[1].replace("1,", "2,", 1)
            return "\n".join(lines) + "\n"

        tampered(bump_reference, "reference score * (1 + 1e-6)")
        tampered(bump_overlap, "overlap_at_k off by one")
        tampered(mark_failed, "failure marker")
        tampered(swap_csv, "CSV ranks 1 and 2 swapped", csv=True)
        caught(op.check(1), "nonzero exit status")


def main() -> int:
    import run

    for var in run.BLAS_VARS:
        os.environ[var] = run.BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    toy_runs()
    (BENCH / ".run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".run") as tmp:
        planted_errors(Path(tmp))
    print(f"{len(failures)} failure(s)" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

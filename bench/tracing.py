"""In-memory span tracer installed from outside the program.

``Tracer.install`` replaces, as module attributes, every public function of
the package's modules (and of the package namespace), including the names a
module imported from another one: ``cli.evaluate_masked_function`` and
``matfun.evaluate_masked_function`` get the same wrapper, so a call is traced
whichever name it goes through.  ``cli._write_outputs`` is the one private
name wrapped, because it is the report-write stage.  ``uninstall`` restores
the originals.

A span is (name, start, end, parent, op, info): ``name`` is the canonical
``module.function``, ``parent`` the index of the enclosing span, ``op`` the
operation id the benchmark set, and ``info`` the counts read off the result.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from pathlib import Path

MODULES = ("graph", "sampling", "matfun", "perron", "oracle", "ranking", "cli")
PRIVATE = {"cli": ("_write_outputs",)}
# called once per guided draw; counted instead of spanned
COUNTED = {"sampling.draw_categorical"}

LAYERS = {
    "graph.parse": ("graph.parse_edge_list",),
    "sampling.sample": ("sampling.sample_columns", "sampling.sample_rows"),
    "matfun.evaluate": ("matfun.evaluate_masked_function", "matfun.transpose_measures"),
    "matfun.arnoldi": ("matfun.arnoldi",),
    "matfun.lanczos": ("matfun.lanczos",),
    "matfun.direct_core": ("matfun.direct_core_evaluation",),
    "perron.solve": ("perron.left_perron", "perron.symmetric_perron"),
    "oracle.reference": (
        "oracle.dense_matfun",
        "oracle.dense_left_perron",
        "oracle.krylov_full_matfun",
    ),
    "ranking.rank": ("ranking.rank_nodes", "ranking.topk_overlap", "ranking.exact_matches"),
    "cli.write": ("cli._write_outputs",),
    "cli.generate": ("cli.generate",),
}


def _info(name: str, args: tuple, result) -> dict | None:
    """Counts read off a traced call's arguments and result."""
    if name == "cli._write_outputs":
        _report, _full, out_base, cfg = args[:4]
        written = [".json"] * cfg.write_json + [".csv"] * cfg.write_csv
        return {"bytes": sum(out_base.with_suffix(x).stat().st_size for x in written)}
    if name in ("graph.parse_edge_list", "cli.generate"):
        return {"nnz": int(result.edge_count)}
    if name in ("sampling.sample_columns", "sampling.sample_rows"):
        return {
            "ell": len(result),
            "strategy": result.strategy,
            "fallback_draws": int(result.fallback_draws),
        }
    if name in ("matfun.arnoldi", "matfun.lanczos"):
        return {"steps": int(result.steps)}
    if name in ("matfun.evaluate_masked_function", "matfun.transpose_measures"):
        return {"fallback": result.fallback_reason}
    if name in ("perron.left_perron", "perron.symmetric_perron"):
        return {"iterations": int(result.iterations)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name in COUNTED:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] = self.counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            span[5] = _info(name, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [(package.__name__.split(".")[-1], package)]
        modules += [(m, importlib.import_module(f"{package.__name__}.{m}")) for m in MODULES]
        wrappers: dict[int, object] = {}
        for short, module in modules:
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(package.__name__):
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                if id(obj) not in wrappers:
                    canonical = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(canonical, obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "info")
        with path.open("w") as handle:
            json.dump(
                {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": self.counts},
                handle,
            )

    def _outermost(self, names) -> list[list]:
        """Spans of ``names`` with no enclosing span of the same layer."""
        names = set(names)
        out = []
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent is None:
                out.append(span)
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        layer = {key: self._outermost(names) for key, names in LAYERS.items()}
        busy = {key: sum(s[2] - s[1] for s in spans) for key, spans in layer.items()}

        def per_s(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        # info is None for a call that raised
        info = {key: [s[5] for s in spans if s[5] is not None] for key, spans in layer.items()}
        parsed = sum(i["nnz"] for i in info["graph.parse"])
        generated = sum(i["nnz"] for i in info["cli.generate"])
        guided = [i for i in info["sampling.sample"] if i["strategy"] == "guided"]
        accepted = sum(i["ell"] - 1 - i["fallback_draws"] for i in guided)
        draws = self.counts.get("sampling.draw_categorical", 0)
        steps = sum(i["steps"] for i in info["matfun.arnoldi"] + info["matfun.lanczos"])
        evaluations = len(layer["matfun.evaluate"])
        clean = sum(1 for i in info["matfun.evaluate"] if i["fallback"] is None)

        metrics = {f"{key}_s": (busy[key], "s") for key in LAYERS}
        metrics.update(
            {
                "graph.parse_edges_per_s": (per_s(parsed, busy["graph.parse"]), "edges/s"),
                "sampling.draw_calls": (draws, "count"),
                "sampling.draw_accept_ratio": (ratio(accepted, draws), "ratio"),
                "matfun.krylov_steps": (steps, "count"),
                "matfun.no_fallback_ratio": (ratio(clean, evaluations), "ratio"),
                "perron.iterations": (sum(i["iterations"] for i in info["perron.solve"]), "count"),
                "cli.report_bytes": (sum(i["bytes"] for i in info["cli.write"]), "bytes"),
                "cli.generate_edges_per_s": (per_s(generated, busy["cli.generate"]), "edges/s"),
            }
        )
        return metrics

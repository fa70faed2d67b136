"""Per-layer timing wrappers installed around spinecycles' public entry points.

The program is not changed: `install` replaces module attributes with
wrappers that record a span (name, start, end, parent, phase) per call, or
only bump a counter where a call is too cheap to time.  Because spinecycles
looks these names up through module globals at call time, internal calls
(build_graph -> find_supersingular_j, form_order -> compose, ...) are traced
too.  A span's self time is its duration minus that of its child spans, so
the layers add up instead of double counting.

Per-layer values cover one census invocation: the set-up phase plus one sweep
over the workload's prime range (the median over the sweeps of the run).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (phase, name) -> count
        self.maxima: Counter = Counter()  # name -> largest value seen
        self.cells: dict[str, list[int]] = {}  # name -> calls in the current phase
        self.phase = "setup"

    def timed(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.phase])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if on_result is not None:
                on_result(result, *args)
            return result

        return wrapper

    def counted(self, name, fn):
        """Count calls without a span; `enter` books the count to its phase."""
        cell = self.cells.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def enter(self, phase):
        for name, cell in self.cells.items():
            self.counts[(self.phase, name)] += cell[0]
            cell[0] = 0
        self.phase = phase

    def add(self, name, amount):
        self.counts[(self.phase, name)] += amount

    def calls(self) -> Counter:
        """(phase, span name) -> number of spans."""
        return Counter((phase, name) for name, _, _, _, phase in self.spans)

    def self_times(self) -> dict[tuple[str, str], float]:
        """(phase, span name) -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            out[(phase, name)] += end - start - child[i]
        return out

    def write(self, path):
        self.enter(self.phase)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": [[*k, v] for k, v in self.counts.items()]}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each spinecycles module."""
    from spinecycles import _kernel, arith, cli, cycles, predictor, quadforms, ssgraph

    def on_seed(j, p, *_):
        tracer.add("seed_j_candidates", j if p % 12 == 1 else 0)

    def on_graph(graph, *_):
        tracer.add("vertices", graph.vertex_count)

    def on_walks(walks, *_):
        tracer.add("walks", len(walks))

    def on_census(cen, *_):
        tracer.add("cycles", cen.n_t_graph)

    seen_exact: set[tuple[int, int]] = set()

    def on_exact(discs, ell, r):
        if (ell, r) not in seen_exact:
            seen_exact.add((ell, r))
            tracer.add("discs_exact", len(discs))

    seen_d: set[int] = set()

    def on_class_number(h, d):
        d = int(d)
        if d not in seen_d:
            seen_d.add(d)
            tracer.add("class_numbers", 1)
            tracer.maxima["max_abs_d"] = max(tracer.maxima["max_abs_d"], -d)

    ssgraph.build_graph = tracer.timed("build_graph", ssgraph.build_graph, on_graph)
    ssgraph.find_supersingular_j = tracer.timed(
        "find_supersingular_j", ssgraph.find_supersingular_j, on_seed
    )

    phimod = _kernel.PhiMod
    roots_span = tracer.timed("roots", lambda inner, *a: inner.roots(*a))

    class TracedPhiMod:
        def __init__(self, *args):
            self.inner = phimod(*args)

        def roots(self, *args):
            return roots_span(self.inner, *args)

    _kernel.PhiMod = TracedPhiMod
    _kernel.closed_walks = tracer.timed("closed_walks", _kernel.closed_walks, on_walks)
    cycles.census = tracer.timed("census", cycles.census, on_census)

    predictor.predict = tracer.timed("predict", predictor.predict)
    for name in ("disc_set_dividing", "average_limit"):
        setattr(predictor, name, tracer.timed("families", getattr(predictor, name)))
    predictor.disc_set_exact = tracer.timed("families", predictor.disc_set_exact, on_exact)
    predictor.kaneko_bound = tracer.timed("kaneko_bound", predictor.kaneko_bound)

    quadforms.class_number = tracer.timed("class_number", quadforms.class_number, on_class_number)
    quadforms.form_order = tracer.timed("form_order", quadforms.form_order)
    quadforms.compose = tracer.counted("compositions", quadforms.compose)

    kronecker = tracer.counted("kronecker_calls", arith.kronecker)
    for module in (arith, predictor, quadforms):
        module.kronecker = kronecker

    cli.write_census_csv = tracer.timed("write_census_csv", cli.write_census_csv)


def layer_metrics(tracer: Tracer, rounds: list[str]) -> dict[str, float]:
    """Per-layer metrics: set-up phase plus the median sweep."""
    times = tracer.self_times()

    def one(table, name):
        sweep = statistics.median(table.get((ph, name), 0) for ph in rounds)
        return table.get(("setup", name), 0) + sweep

    def t(name):
        return one(times, name)

    def c(name):
        return int(one(tracer.counts, name))  # counts repeat exactly in every sweep

    calls = tracer.calls()
    vertices, roots_calls = c("vertices"), int(one(calls, "roots"))
    walks, found = c("walks"), c("cycles")
    return {
        "ssgraph.build_s": t("build_graph"),
        "ssgraph.seed_j_s": t("find_supersingular_j"),
        "ssgraph.seed_j_candidates": c("seed_j_candidates"),
        "ssgraph.vertices": vertices,
        "kernel.roots_s": t("roots"),
        "kernel.roots_calls": roots_calls,
        "kernel.roots_per_vertex": roots_calls / vertices if vertices else 0.0,
        "kernel.walks_s": t("closed_walks"),
        "kernel.walks": walks,
        "cycles.census_s": t("census"),
        "cycles.cycles": found,
        "cycles.cycles_per_walk": found / walks if walks else 0.0,
        "predictor.predict_s": t("predict"),
        "predictor.predict_calls": int(one(calls, "predict")),
        "predictor.families_s": t("families"),
        "predictor.kaneko_s": t("kaneko_bound"),
        "predictor.discs_exact": c("discs_exact"),
        "quadforms.class_number_s": t("class_number"),
        "quadforms.class_numbers": c("class_numbers"),
        "quadforms.max_abs_d": tracer.maxima["max_abs_d"],
        "quadforms.form_order_s": t("form_order"),
        "quadforms.compositions": c("compositions"),
        "arith.kronecker_calls": c("kronecker_calls"),
        "cli.csv_s": t("write_census_csv"),
    }


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_per_" in name:
        return "ratio"
    return "abs_D" if name.endswith("max_abs_d") else "count"

"""Span recording around the package's public functions, and the per-layer
metrics derived from the spans.

Spans are recorded from outside the program: `install` replaces each
traced public function with a wrapper in every module namespace of the
package that binds it (``algorithms.algorithm1`` and ``cli.algorithm1`` are
separate bindings of one function). A name that no longer exists is
skipped and its metrics are reported as absent. Spans are plain tuples
kept in memory by the job process and handed to the benchmark when the
job ends.

Spans inside ``sweep --jobs`` pool workers are out of scope: the workers
are separate processes whose spans are never collected, so their time
shows up as self time of ``experiments.run_sweep``.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

PACKAGE = "factional_belief"
LAYERS = ("cli", "fileio", "experiments", "algorithms", "model", "netgen",
          "bounds", "oracle", "epistemic")

# Public entry points per layer. Hot inner helpers (belief_operator,
# format_decimal, context tables) are deliberately left out: a span per
# call would swamp the work being measured.
TRACED = {
    "fileio": ["load_prior", "load_degree_sequence", "load_edge_list",
               "load_epistemic_model", "write_report"],
    "experiments": ["run_sweep", "run_promise_map", "run_validate",
                    "sample_type_assignment", "prop1_battery"],
    "algorithms": ["algorithm1", "algorithm1_auto", "algorithm1_general",
                   "algorithm1_multistate", "multistate_fixpoint",
                   "smallest_revolt", "algorithm3", "equilibria_map",
                   "crucial_thresholds", "revolting_contexts",
                   "expected_context_fraction"],
    "model": ["ConcreteGraph", "validate_degree_sequence"],
    "netgen": ["generate_sequence", "generate_graph", "is_graphical",
               "torus_grid", "realize_graph"],
    "bounds": ["dependency_chi_star_bound", "chernoff_envelope",
               "dependent_chernoff"],
    "oracle": ["revolt_decision", "clique_reduction", "clique_exists"],
    "epistemic": ["check_fixpoint_search_agreement", "common_belief_fixpoint",
                  "common_belief_by_search", "is_evident_belief"],
}
ROOT_SPAN = "cli.main"


class Recorder:
    """Spans of one job: (name, parent index, start, end), in start order."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            parent = stack[-2] if len(stack) > 1 else -1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, start, end)

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every traced function in every namespace that binds it.
    Returns the names that were not found."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    missing = []
    for layer, names in TRACED.items():
        home = sys.modules.get(f"{PACKAGE}.{layer}")
        for name in names:
            original = getattr(home, name, None)
            span = f"{layer}.{name}"
            if original is None:
                missing.append(span)
                continue
            if isinstance(original, type):
                # Classes stay classes (isinstance checks); time construction.
                original.__init__ = recorder.wrap(span, original.__init__)
                continue
            wrapper = recorder.wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    return missing


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children
    (spans nest, since a job is single-threaded)."""
    own = [end - start for _n, _p, start, end in spans]
    for _name, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(batch) -> dict:
    """Per-layer metrics of one traced batch.

    `batch` is a list of (job, result) where result has .seconds, .spans and
    .code. Returns metric name -> (value, unit).
    """
    by_name: dict[str, list[float]] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    gen_seq_with_check = 0
    graphical_checks = 0
    algorithms_rows_self = 0.0
    table_rows = 0
    for job, res in batch:
        spans = res.spans
        own = self_times(spans)
        job_alg_self = 0.0
        for (name, parent, start, end), self_s in zip(spans, own):
            by_name.setdefault(name, []).append(end - start)
            layer = name.split(".", 1)[0]
            self_by_layer[layer] += self_s
            if layer == "algorithms":
                job_alg_self += self_s
        checks = [p for n, p, _s, _e in spans
                  if n == "netgen.is_graphical" and p >= 0
                  and spans[p][0] == "netgen.generate_sequence"]
        gen_seq_with_check += len(set(checks))
        graphical_checks += len(checks)
        if job.table_rows:
            table_rows += job.table_rows
            algorithms_rows_self += job_alg_self

    def total(name):
        return sum(by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    m["algorithms.table_rows"] = (table_rows, "count")
    m["algorithms.us_per_table_row"] = (
        algorithms_rows_self / table_rows * 1e6 if table_rows else 0.0, "us/row")
    m["algorithms.multistate_fixpoint.s"] = (total("algorithms.multistate_fixpoint"), "s")
    for fn in ("algorithm1", "algorithm1_auto"):
        name = f"algorithms.{fn}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s_p50"] = (_p50(by_name.get(name, [])), "s")
    m["algorithms.equilibria_map.s"] = (total("algorithms.equilibria_map"), "s")
    for name in ("netgen.generate_sequence", "netgen.is_graphical"):
        m[f"{name}.calls"] = (calls(name), "count")
    m["netgen.generate_sequence.s_p50"] = (_p50(by_name.get("netgen.generate_sequence", [])), "s")
    m["netgen.graphical_yield"] = (
        gen_seq_with_check / graphical_checks if graphical_checks else 0.0, "ratio")
    m["netgen.generate_graph.s"] = (total("netgen.generate_graph"), "s")
    for fn in ("run_sweep", "run_validate", "sample_type_assignment", "prop1_battery"):
        m[f"experiments.{fn}.s"] = (total(f"experiments.{fn}"), "s")
    vertex_trials = sum(job.vertex_trials for job, _ in batch
                        if job.kind == "validate")
    m["experiments.run_validate.ns_per_vertex_trial"] = (
        total("experiments.run_validate") / vertex_trials * 1e9 if vertex_trials else 0.0,
        "ns/vertex-trial")
    m["oracle.revolt_decision.calls"] = (calls("oracle.revolt_decision"), "count")
    m["oracle.revolt_decision.s_p50"] = (_p50(by_name.get("oracle.revolt_decision", [])), "s")
    assignments = sum(job.assignments for job, res in batch if res.code == 0)
    m["oracle.assignments"] = (assignments, "count")
    m["oracle.ns_per_assignment"] = (
        self_by_layer["oracle"] / assignments * 1e9 if assignments else 0.0, "ns")
    m["oracle.budget_exceeded"] = (
        sum(1 for job, res in batch if job.kind == "oracle" and res.code == 3), "count")
    m["epistemic.common_belief_fixpoint.calls"] = (calls("epistemic.common_belief_fixpoint"), "count")
    m["epistemic.common_belief_fixpoint.s_p50"] = (
        _p50(by_name.get("epistemic.common_belief_fixpoint", [])), "s")
    m["epistemic.check_fixpoint_search_agreement.s"] = (
        total("epistemic.check_fixpoint_search_agreement"), "s")
    m["model.ConcreteGraph.s"] = (total("model.ConcreteGraph"), "s")
    m["fileio.load_degree_sequence.s"] = (total("fileio.load_degree_sequence"), "s")
    return m


def absent_metrics(metric_names, missing: list[str]) -> dict:
    """metric -> reason, for metrics whose traced function is missing. A
    metric named <layer>.<function>.<stat> needs span <layer>.<function>."""
    gone = set(missing)
    absent = {}
    for metric in metric_names:
        span = metric.rsplit(".", 1)[0]
        if metric == "netgen.graphical_yield":
            span = "netgen.is_graphical"
        if span in gone:
            absent[metric] = f"{span} is not defined in this version of the package"
    return absent

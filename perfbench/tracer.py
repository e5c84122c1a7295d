"""Spans and counters recorded by wrapping public functions of beideals.

Each wrapper replaces a function at the module binding where its caller
looks it up (``beideals.classify.betti_tables`` is what ``classify_graph``
calls), so nothing under src/ changes.  Spans (name, start, end, parent)
are kept in memory; self time is a span's duration minus its children's.
Wrappers are installed only for the traced repetition and removed before
outputs are checked.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

LAYERS = ("graphs", "edgeideals", "groebner", "simplicial", "betti", "classify")


def _field_tag(fld) -> str:
    return "qq" if fld.char == 0 else f"f{fld.char}"


def _appearing_subsets(mingens) -> int:
    """2^(variables dividing some generator): the subsets Hochster's loop visits."""
    appearing = 0
    for m in mingens:
        for v, e in enumerate(m):
            if e:
                appearing |= 1 << v
    return 1 << bin(appearing).count("1")


# (module binding, attribute, span name or function of the call's arguments).
# A binding is listed once per caller module that looks the function up.
SPANS = [
    ("graphs", "enumerate_connected_graphs", "graphs.enumerate_connected_graphs"),
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("classify", "canonical_form", "graphs.canonical_form"),
    ("graphs", "find_closed_labeling", "graphs.find_closed_labeling"),
    ("classify", "find_closed_labeling", "graphs.find_closed_labeling"),
    ("graphs", "admissible_paths", "graphs.admissible_paths"),
    ("edgeideals", "admissible_paths", "graphs.admissible_paths"),
    ("classify", "classify_graph", "classify.classify_graph"),
    ("classify", "graph_id", "classify.graph_id"),
    ("classify", "rows_to_csv", "classify.render"),
    ("classify", "rows_to_json", "classify.render"),
    ("classify", "initial_ideal_generators", "edgeideals.initial_ideal_generators"),
    ("classify", "fpt_squarefree", "betti.fpt_squarefree"),
    ("classify", "stanley_reisner", "simplicial.stanley_reisner"),
    ("classify", "betti_tables", "betti.betti_tables"),
    ("betti", "restriction_faces", "simplicial.restriction_faces"),
    ("betti", "chain_data", "simplicial.chain_data"),
    ("simplicial", "matrix_rank", lambda a, k: f"simplicial.matrix_rank_{_field_tag(a[1])}"),
    ("edgeideals", "admissible_groebner_basis", "edgeideals.admissible_groebner_basis"),
    ("edgeideals", "fedder_check", lambda a, k: f"edgeideals.fedder_check_p{a[1]}"),
    # The harness calls groebner.buchberger on edge ideals; fedder_check calls
    # edgeideals.buchberger on bracket powers.
    ("groebner", "buchberger", lambda a, k: f"groebner.buchberger_edge_{_field_tag(a[0].ctx.field)}"),
    ("edgeideals", "buchberger", "groebner.buchberger_bracket"),
]

# Counted but not timed: these run too often for a span each to be cheap.
COUNTED = [
    ("graphs", "is_closed_with_labeling", "graphs.is_closed_with_labeling"),
    ("graphs", "is_admissible_path", "graphs.is_admissible_path"),
    ("groebner", "s_polynomial", "groebner.s_polynomial"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("edgeideals", "normal_form", "groebner.normal_form"),
]


class Tracer:
    """Installs the wrappers, records spans and counts, and summarises them."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._saved: list = []
        self.missing: list = []  # bindings a refactor removed; their metrics read 0

    def _timed(self, fn, name):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            counts[label + "_calls"] += 1
            if label == "betti.betti_tables":
                counts["betti.subsets_scanned"] += _appearing_subsets(args[0])
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if label == "graphs.admissible_paths":
                counts["graphs.admissible_paths_found"] += len(result)
            elif label.startswith("groebner.buchberger"):
                counts["groebner.gb_elements"] += len(result)
            return result

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name + "_calls"] += 1
            if name == "graphs.is_closed_with_labeling":
                counts["graphs.closed_labelings_found"] += bool(result)
            elif name == "groebner.normal_form":
                counts["groebner.normal_form_zero"] += result.is_zero()
            return result

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self._timed), (COUNTED, self._counted)):
            for mod_name, attr, name in table:
                mod = importlib.import_module(f"beideals.{mod_name}")
                original = getattr(mod, attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._saved.append((mod, attr, original))
                setattr(mod, attr, make(original, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def self_times(self) -> tuple:
        """Self time per span name, and the total of the top-level spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        top = 0.0
        for k, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child[k]
            if parent < 0:
                top += end - start
        return dict(out), top


# Per-layer metrics of the traced run.  Every "_s" metric is a self time, so
# they and harness.self_s partition the traced wall time of the timed phase.
TIMED_METRICS = [
    "graphs.enumerate_connected_graphs",
    "graphs.canonical_form",
    "graphs.find_closed_labeling",
    "graphs.admissible_paths",
    "edgeideals.initial_ideal_generators",
    "edgeideals.admissible_groebner_basis",
    "edgeideals.fedder_check_p2",
    "edgeideals.fedder_check_p3",
    "edgeideals.fedder_check_p5",
    "groebner.buchberger_edge_qq",
    "groebner.buchberger_edge_f2",
    "groebner.buchberger_bracket",
    "simplicial.stanley_reisner",
    "simplicial.restriction_faces",
    "simplicial.chain_data",
    "simplicial.matrix_rank_qq",
    "simplicial.matrix_rank_f2",
    "betti.betti_tables",
    "betti.fpt_squarefree",
    "classify.classify_graph",
    "classify.graph_id",
    "classify.render",
]
COUNT_METRICS = [
    "graphs.canonical_form_calls",
    "graphs.is_closed_with_labeling_calls",
    "graphs.admissible_paths_found",
    "graphs.is_admissible_path_calls",
    "simplicial.restriction_faces_calls",
    "simplicial.matrix_rank_qq_calls",
    "simplicial.matrix_rank_f2_calls",
    "groebner.s_polynomial_calls",
    "groebner.normal_form_calls",
    "groebner.gb_elements",
]
# ratio -> (numerator count, denominator count); 0 when the layer did no work.
RATIO_METRICS = {
    "graphs.closed_hit_ratio": ("graphs.closed_labelings_found", "graphs.is_closed_with_labeling_calls"),
    "graphs.admissible_accept_ratio": ("graphs.admissible_paths_found", "graphs.is_admissible_path_calls"),
    "betti.restriction_ratio": ("simplicial.restriction_faces_calls", "betti.subsets_scanned"),
    "groebner.normal_form_zero_ratio": ("groebner.normal_form_zero", "groebner.normal_form_calls"),
}


def per_layer_units() -> dict:
    units = {f"{name}_s": "s" for name in TIMED_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["betti.subsets_scanned"] = "computed-count"
    units.update({name: "ratio" for name in RATIO_METRICS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "harness.self_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


def per_layer_metrics(layers: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Metric values from one traced repetition's summary (see worker.py)."""
    self_s, counts = layers["self_s"], layers["counts"]
    values = {f"{name}_s": self_s.get(name, 0.0) for name in TIMED_METRICS}
    values.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    values["betti.subsets_scanned"] = counts.get("betti.subsets_scanned", 0)
    for name, (num, den) in RATIO_METRICS.items():
        values[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            t for name, t in self_s.items() if name.startswith(layer + ".")
        )
    values.update({
        "harness.self_s": layers["unattributed_s"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": layers["spans"],
    })
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}

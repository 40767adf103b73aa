"""Spans and counters around the library's layers, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``thermoorder`` module namespace that holds it, so calls through names other
modules imported (``catalysis`` calling ``thermomajorizes``) are seen too;
methods are replaced on their class. A span records its name, its parent
span, the operation it belongs to, and its start and end. Aggregates (calls,
inclusive and self time) cover every span; raw spans are kept in memory up
to MAX_SPANS and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

MAX_SPANS = 50_000

# (module, attribute) of every traced callable; "Class.method" names a
# method. The module is the layer.
TRACED = (
    ("states", "validate_distribution"),
    ("states", "BlockState.__post_init__"),
    ("states", "gibbs_state"),
    ("states", "tensor"),
    ("states", "marginal"),
    ("states", "load_json"),
    ("states", "load_state"),
    ("states", "save_json"),
    ("modes", "all_exact"),
    ("modes", "exact_sum"),
    ("entropies", "renyi_divergence"),
    ("entropies", "renyi_entropy"),
    ("entropies", "total_correlation"),
    ("entropies", "delta_f_sweep"),
    ("majorization", "beta_order"),
    ("majorization", "thermal_lorenz"),
    ("majorization", "compare"),
    ("catalysis", "catalytic_possible"),
    ("catalysis", "correlating_catalytic_possible"),
    ("catalysis", "verify_correlating_transition"),
    ("catalysis", "search_correlating_catalyst"),
    ("witness", "find_witness"),
    ("witness", "_find_witness_exact"),
    ("witness", "_find_witness_float"),
    ("witness", "StochasticWitness.__post_init__"),
)
IO_SPANS = ("states.load_json", "states.load_state", "states.save_json")
SEARCH = "catalysis.search_correlating_catalyst"


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [name, span id, child seconds]
        self.agg = {}            # name -> [calls, inclusive s, self s]
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = None
        self.counts = {"breakpoints": 0, "cells_visited": 0, "cells_compared": 0, "certified": 0}
        self.first_witness_s = None

    # -- spans -----------------------------------------------------------------

    def _open(self, name):
        self.next_id += 1
        self.stack.append([name, self.next_id, 0.0])
        return perf_counter()

    def _close(self, start):
        end = perf_counter()
        name, span_id, child = self.stack.pop()
        took = end - start
        rec = self.agg.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += took
        rec[2] += took - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += took
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent[1] if parent else None, name, self.op_id, start, end))
        else:
            self.dropped += 1
        return took

    def op(self, op_id, label, fn):
        """Run one benchmark operation as a root span."""
        self.op_id = op_id
        start = self._open(label)
        try:
            return fn()
        finally:
            self._close(start)

    def in_search(self):
        return any(frame[0] == SEARCH for frame in self.stack)

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            hook = HOOKS.get(name)
            if hook is not None:
                hook(tracer, args, kwargs)
            start = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                took = tracer._close(start)
                if name == "witness.find_witness" and tracer.first_witness_s is None:
                    tracer.first_witness_s = took
                if name == SEARCH and result is not None and result.cells_evaluated > 0:
                    tracer.counts["certified"] += 1

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "thermoorder" or n.startswith("thermoorder.")]
        for module, attr in TRACED:
            mod = sys.modules.get(f"thermoorder.{module}")
            owner_name, _, method = attr.partition(".")
            name = f"{module}.{attr}"
            if method:
                cls = getattr(mod, owner_name, None)
                if cls is not None and method in vars(cls):
                    setattr(cls, method, self.wrap(name, vars(cls)[method]))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def reset(self):
        """Forget everything recorded so far (the untimed warm-up round)."""
        self.agg.clear()
        self.spans.clear()
        self.dropped = 0
        for key in self.counts:
            self.counts[key] = 0

    # -- results -------------------------------------------------------------------

    def calls(self, name):
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def incl_ms(self, name):
        return 1e3 * self.agg.get(name, [0, 0.0, 0.0])[1]

    def self_ms(self, name):
        return 1e3 * self.agg.get(name, [0, 0.0, 0.0])[2]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "op", "start", "end"],
                "dropped": self.dropped,
                "aggregates": {k: {"calls": c, "incl_s": i, "self_s": s} for k, (c, i, s) in self.agg.items()},
                "spans": self.spans,
            }, fh)


def _count_breakpoints(tracer, args, kwargs):
    curves = list(args[:2]) + [kwargs[k] for k in ("candidate_above", "candidate_below") if k in kwargs]
    xs = {x for curve in curves for x, _ in curve.points}
    tracer.counts["breakpoints"] += max(0, len(xs) - 2)


def _count_cell(tracer, args, kwargs):
    if tracer.in_search():
        tracer.counts["cells_visited"] += 1


def _count_compared(tracer, args, kwargs):
    if tracer.in_search():
        tracer.counts["cells_compared"] += 1


HOOKS = {
    "majorization.compare": _count_breakpoints,
    "entropies.total_correlation": _count_cell,
    "catalysis.verify_correlating_transition": _count_compared,
}


def layer_metrics(tracer, rounds):
    """Per-layer metrics of a traced run, per round where they are totals."""
    r = max(rounds, 1)
    t = tracer
    search_s = t.incl_ms(SEARCH) / 1e3
    visited = t.counts["cells_visited"]
    compared = t.counts["cells_compared"]
    per_round = {
        "states.blockstate_calls": t.calls("states.BlockState.__post_init__"),
        "states.validate_calls": t.calls("states.validate_distribution"),
        "states.gibbs_state_calls": t.calls("states.gibbs_state"),
        "states.validate_self_ms": t.self_ms("states.validate_distribution"),
        "states.tensor_self_ms": t.self_ms("states.tensor"),
        "states.marginal_self_ms": t.self_ms("states.marginal"),
        "states.io_self_ms": sum(t.self_ms(n) for n in IO_SPANS),
        "modes.all_exact_calls": t.calls("modes.all_exact"),
        "modes.all_exact_self_ms": t.self_ms("modes.all_exact"),
        "modes.exact_sum_self_ms": t.self_ms("modes.exact_sum"),
        "entropies.renyi_divergence_calls": t.calls("entropies.renyi_divergence"),
        "entropies.total_correlation_calls": t.calls("entropies.total_correlation"),
        "entropies.renyi_divergence_self_ms": t.self_ms("entropies.renyi_divergence"),
        "entropies.delta_f_sweep_ms": t.incl_ms("entropies.delta_f_sweep"),
        "entropies.total_correlation_self_ms": t.self_ms("entropies.total_correlation"),
        "majorization.thermal_lorenz_calls": t.calls("majorization.thermal_lorenz"),
        "majorization.compare_calls": t.calls("majorization.compare"),
        "majorization.breakpoints_compared": t.counts["breakpoints"],
        "majorization.beta_order_self_ms": t.self_ms("majorization.beta_order"),
        "majorization.thermal_lorenz_self_ms": t.self_ms("majorization.thermal_lorenz"),
        "majorization.compare_self_ms": t.self_ms("majorization.compare"),
        "catalysis.catalytic_possible_ms": t.incl_ms("catalysis.catalytic_possible"),
        "catalysis.verify_self_ms": t.self_ms("catalysis.verify_correlating_transition"),
        "catalysis.search_self_ms": t.self_ms(SEARCH),
        "catalysis.search_cells_visited": visited,
        "catalysis.search_cells_compared": compared,
        "catalysis.search_cells_skipped": visited - compared,
        "witness.calls": t.calls("witness.find_witness"),
        "witness.exact_path_ms": t.incl_ms("witness._find_witness_exact"),
        "witness.float_path_ms": t.incl_ms("witness._find_witness_float"),
        "witness.validate_self_ms": t.self_ms("witness.StochasticWitness.__post_init__"),
    }
    out = {k: v / r for k, v in per_round.items()}
    out["catalysis.search_cells_per_s"] = visited / search_s if search_s > 0 else 0.0
    out["catalysis.search_certified_per_compared"] = t.counts["certified"] / compared if compared else 0.0
    out["witness.first_call_ms"] = 1e3 * (t.first_witness_s or 0.0)
    return out

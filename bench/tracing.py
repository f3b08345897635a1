"""Spans and counts around cfmcheck's public functions, kept in memory.

The tracer replaces each named function in every cfmcheck module that
binds it (build_net, for one, is looked up in net, security, typesystem
and cli), so calls between modules are caught as well as calls from the
benchmark.  Each call records a span (name, start, end, parent index);
a few functions also add counts taken from their arguments or result.
The recursive helpers show, dec and lts_step stay unwrapped.
"""

import sys
import time
from collections import defaultdict

TRACED = (
    "cli.main",
    "syntax.parse_spec", "syntax.restrict_syntactic",
    "net.build_net", "net.restrict_net", "net.reach_graph", "net.build_lts",
    "equiv.branching_bisim", "equiv.rooted_partition", "equiv.terms_equiv",
    "equiv.strong_partition",
    "security.dni_definitional", "security.dni_structural",
    "security.dni_compositional", "security.rooted_dni",
    "security.sbndc_interleaving",
    "typesystem.type_check", "typesystem.decide_equational",
    "typesystem.is_deadlock_place",
)

# name -> (metric suffix, count taken from (args, result))
COUNTS = {
    "net.build_net": ("places", lambda args, net: len(net.names)),
    "net.reach_graph": ("markings", lambda args, result: len(result[0])),
    "net.build_lts": ("states", lambda args, lts: len(lts.states)),
    "equiv.branching_bisim": ("classes", lambda args, part: len(part)),
}

# name -> the net whose repetition within one operation is wasted work
DISTINCT = {
    "net.build_net": lambda args, net: hash(net),
    "equiv.branching_bisim": lambda args, part: hash(args[0]),
}

# metrics the benchmark reports, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("cli.main.self_s", "s"),
    ("syntax.parse_spec.s", "s"),
    ("syntax.restrict_syntactic.s", "s"),
    ("syntax.restrict_syntactic.calls", "count"),
    ("net.build_net.s", "s"),
    ("net.build_net.calls", "count"),
    ("net.build_net.places", "count"),
    ("net.build_net.distinct_ratio", "ratio"),
    ("net.restrict_net.s", "s"),
    ("net.reach_graph.s", "s"),
    ("net.reach_graph.markings", "count"),
    ("net.reach_graph.markings_per_s", "1/s"),
    ("net.build_lts.s", "s"),
    ("net.build_lts.states", "count"),
    ("net.build_lts.states_per_s", "1/s"),
    ("equiv.branching_bisim.s", "s"),
    ("equiv.branching_bisim.calls", "count"),
    ("equiv.branching_bisim.distinct_ratio", "ratio"),
    ("equiv.branching_bisim.classes", "count"),
    ("equiv.rooted_partition.s", "s"),
    ("equiv.terms_equiv.s", "s"),
    ("equiv.terms_equiv.calls", "count"),
    ("equiv.strong_partition.s", "s"),
    ("security.dni_definitional.self_s", "s"),
    ("security.dni_structural.self_s", "s"),
    ("security.dni_compositional.self_s", "s"),
    ("security.rooted_dni.self_s", "s"),
    ("security.sbndc_interleaving.self_s", "s"),
    ("typesystem.type_check.self_s", "s"),
    ("typesystem.decide_equational.s", "s"),
    ("typesystem.decide_equational.calls", "count"),
    ("typesystem.is_deadlock_place.calls", "count"),
)


class Tracer:
    """Collects the spans of one round; `round_metrics` folds them up."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.seen = defaultdict(set)
        self.distinct = defaultdict(int)

    def install(self):
        """Wrap every traced function wherever a cfmcheck module binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and
                   (name == "cfmcheck" or name.startswith("cfmcheck."))]
        for qualname in TRACED:
            home, attr = qualname.split(".")
            original = getattr(sys.modules[f"cfmcheck.{home}"], attr)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        distinct = DISTINCT.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            outer = self.active[name] == 0
            self.spans.append(None)
            self.stack.append(index)
            self.active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.active[name] -= 1
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, outer)
            if count is not None:
                self.counts[f"{name}.{count[0]}"] += count[1](args, result)
            if distinct is not None:
                self.seen[name].add(distinct(args, result))
            return result

        return traced

    def end_operation(self):
        """Close one user-facing check: repeats are counted within it."""
        for name, keys in self.seen.items():
            self.distinct[name] += len(keys)
        self.seen.clear()

    def round_metrics(self):
        """Per-layer metrics of the spans recorded since the last call.

        `.s` sums a function's outermost spans, `.self_s` subtracts the
        time its direct child spans cover, `.calls` counts spans.  The
        round's spans are returned too, for writing out at the end.
        """
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, outer in self.spans:
            duration = end - start
            calls[name] += 1
            own[name] += duration
            if outer:
                total[name] += duration
            if parent >= 0:
                own[self.spans[parent][0]] -= duration
        metrics = {}
        for name in TRACED:
            metrics[f"{name}.s"] = total[name]
            metrics[f"{name}.self_s"] = own[name]
            metrics[f"{name}.calls"] = calls[name]
        for key, value in self.counts.items():
            metrics[key] = value
        for name in DISTINCT:
            metrics[f"{name}.distinct_ratio"] = (
                self.distinct[name] / calls[name] if calls[name] else 0.0)
        for name, count in (("net.reach_graph", "markings"),
                            ("net.build_lts", "states")):
            seconds = total[name]
            metrics[f"{name}.{count}_per_s"] = (
                metrics.get(f"{name}.{count}", 0) / seconds if seconds else 0.0)
        spans = self.spans
        self.spans = []
        self.counts = defaultdict(int)
        self.distinct = defaultdict(int)
        return metrics, spans

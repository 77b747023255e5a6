"""Traced mode: spans and counters around every public call into chameleon.

``Tracer.install`` wraps each public function and public method of the
layer modules and rebinds the wrappers in every ``chameleon`` module
namespace that holds the original, so calls between modules are seen as
well as calls from the benchmark.  Each call becomes a span (id, name,
start, end, parent id, op id) kept in memory up to a cap; per-name call
counts, inclusive times and per-layer self times are aggregated for every
call.  A few hooks read work counts off return values.  ``metrics`` turns
the aggregates into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("exact", "maps", "interpolate", "markov", "conjugacy", "breaks", "blocks", "golden")

# Constructors are traced only where a hook needs them: wrapping every
# dataclass constructor would swamp the trace.
TRACED_INITS = {"maps.PLLineMap.__init__"}

# Spans kept for the spans file; later ones are counted, not kept.  A
# traced run makes one to two million spans, which as Python tuples would
# take hundreds of MB, so the file covers the first ops of the traced half
# and the aggregates, which count every call, cover all of it.
MAX_SPANS = 100_000


def _orbit(t, args, kwargs, result):
    t.counters["maps.orbit.steps"] += len(result.prefix) + len(result.cycle)


def _line_map(t, args, kwargs, result):
    pieces = args[2] if len(args) > 2 else kwargs["pieces"]
    t.counters["maps.line_map.pieces_in"] += len(pieces)
    t.counters["maps.line_map.pieces_out"] += len(args[0].pieces)


def _derive(t, args, kwargs, result):
    t.counters["markov.derive.vertices"] += len(result)
    t.maxima["markov.derive.max_level"] = max(t.maxima.get("markov.derive.max_level", 0),
                                              result.level)


def _query(t, args, kwargs, result):
    t.counters["conjugacy.queries"] += 1


def _enclosure(t, args, kwargs, result):
    _query(t, args, kwargs, result)
    t.maxima["conjugacy.enclosure.depth"] = max(t.maxima.get("conjugacy.enclosure.depth", 0),
                                                result.depth)


def _scan(t, args, kwargs, result):
    t.counters["blocks.sequences_checked"] += result.checked
    t.counters["blocks.violations"] += len(result.violations)


def _example(t, args, kwargs, result):
    t.counters["golden.checks"] += len(result.checks)
    t.counters["golden.mismatches"] += sum(not c.ok for c in result.checks)


HOOKS = {
    "maps.orbit": _orbit,
    "maps.PLLineMap.__init__": _line_map,
    "markov.derive": _derive,
    "conjugacy.Conjugator.evaluate": _query,
    "conjugacy.Conjugator.inverse_value": _query,
    "conjugacy.Conjugator.enclosure": _enclosure,
    "blocks.exhaustive_scan": _scan,
    "golden.run_example": _example,
}


class Tracer:
    """Span and counter recorder; ``on`` is set only while an op's calls run."""

    def __init__(self):
        self.on = False
        self.op = None
        self.spans: list = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.refusals: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict = {}
        self._active: Counter = Counter()
        self._stack: list = []
        self._next_id = 0
        self._restore: list = []

    def _wrap(self, name: str, layer: str, fn):
        t = self
        hook = HOOKS.get(name)
        refusal = sys.modules["chameleon.errors"].RefusalError

        def traced(*args, **kwargs):
            if not t.on:
                return fn(*args, **kwargs)
            stack = t._stack
            parent = stack[-1] if stack else None
            frame = [t._next_id, layer, 0]
            t._next_id += 1
            stack.append(frame)
            t._active[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except refusal:
                if parent is None or parent[1] != layer:
                    t.refusals[layer] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                t.calls[name] += 1
                t._active[name] -= 1
                if not t._active[name]:
                    t.inclusive_ns[name] += duration
                t.self_ns[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(t.spans) < MAX_SPANS:
                    t.spans.append((frame[0], name, start, end,
                                    parent[0] if parent else None, t.op))
                else:
                    t.dropped += 1
            if hook is not None:
                hook(t, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "chameleon" or key.startswith("chameleon."))]
        for layer in LAYERS:
            module = sys.modules[f"chameleon.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                    for ns in namespaces:
                        if vars(ns).get(attr) is obj:
                            self._restore.append((ns, attr, obj))
                            setattr(ns, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") and name not in TRACED_INITS:
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(name, layer, obj.__func__))
            elif inspect.isfunction(obj):
                wrapped = self._wrap(name, layer, obj)
            else:
                continue
            self._restore.append((cls, attr, obj))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of aggregates."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for sid, name, start, end, parent, op in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent, "op": op}) + "\n")
            out.write(json.dumps({"calls": self.calls, "inclusive_ns": self.inclusive_ns,
                                  "self_ns": self.self_ns, "refusals": self.refusals,
                                  "counters": self.counters, "maxima": self.maxima,
                                  "dropped_spans": self.dropped}) + "\n")

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics: name -> (value, unit).  Times and counts are
        per traced op, so they compare across runs that complete different
        numbers of ops; ratios, levels and depths are as measured."""
        def s(*names):
            return sum(self.inclusive_ns[n] for n in names) / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        c, k = self.calls, self.counters
        totals = {
            "exact.to_nadic.calls": (c["exact.to_nadic"], "count"),
            "exact.power_exponent.calls": (c["exact.power_exponent"], "count"),
            "exact.self_s": (self.self_ns["exact"] / 1e9, "s"),
            "maps.evaluate.calls": (c["maps.PLCircleMap.evaluate"], "count"),
            "maps.evaluate.s": (s("maps.PLCircleMap.evaluate"), "s"),
            "maps.compose.s": (s("maps.PLCircleMap.compose", "maps.PLLineMap.compose"), "s"),
            "maps.invert.s": (s("maps.PLCircleMap.invert", "maps.PLLineMap.invert"), "s"),
            "maps.orbit.calls": (c["maps.orbit"], "count"),
            "maps.orbit.steps": (k["maps.orbit.steps"], "count"),
            "maps.break_value.calls": (c["maps.break_value"], "count"),
            "maps.line_map.pieces_in": (k["maps.line_map.pieces_in"], "count"),
            "maps.line_map.pieces_out": (k["maps.line_map.pieces_out"], "count"),
            "maps.self_s": (self.self_ns["maps"] / 1e9, "s"),
            "interpolate.interpolate_line.s": (s("interpolate.interpolate_line"), "s"),
            "interpolate.match_on_interval.s": (s("interpolate.match_on_interval"), "s"),
            "interpolate.random_dyadic_homeomorphism.s":
                (s("interpolate.random_dyadic_homeomorphism"), "s"),
            "interpolate.piece_keep_ratio":
                (ratio(k["maps.line_map.pieces_out"], k["maps.line_map.pieces_in"]), "1"),
            "interpolate.self_s": (self.self_ns["interpolate"] / 1e9, "s"),
            "markov.build_expanding_map.s": (s("markov.build_expanding_map"), "s"),
            "markov.derive.calls": (c["markov.derive"], "count"),
            "markov.derive.s": (s("markov.derive"), "s"),
            "markov.derive.vertices": (k["markov.derive.vertices"], "count"),
            "markov.derive.max_level": (self.maxima.get("markov.derive.max_level", 0), "level"),
            "markov.vertex_value.calls": (c["markov.vertex_value"], "count"),
            "markov.self_s": (self.self_ns["markov"] / 1e9, "s"),
            "conjugacy.evaluate.s": (s("conjugacy.Conjugator.evaluate"), "s"),
            "conjugacy.inverse_value.s": (s("conjugacy.Conjugator.inverse_value"), "s"),
            "conjugacy.enclosure.s": (s("conjugacy.Conjugator.enclosure"), "s"),
            "conjugacy.enclosure.depth": (self.maxima.get("conjugacy.enclosure.depth", 0), "level"),
            "conjugacy.check.s": (s("conjugacy.Conjugator.check"), "s"),
            "conjugacy.nadic_image_status.s": (s("conjugacy.nadic_image_status"), "s"),
            "conjugacy.partition_from_expanding_map.s":
                (s("conjugacy.partition_from_expanding_map"), "s"),
            "conjugacy.queries": (k["conjugacy.queries"], "count"),
            "conjugacy.vertices_per_query":
                (ratio(k["markov.derive.vertices"], k["conjugacy.queries"]), "vertex/query"),
            "conjugacy.refusals": (self.refusals["conjugacy"], "count"),
            "conjugacy.self_s": (self.self_ns["conjugacy"] / 1e9, "s"),
            "breaks.pl_criterion.s": (s("breaks.pl_criterion"), "s"),
            "breaks.break_sum_table.s": (s("breaks.break_sum_table"), "s"),
            "breaks.iterated_break_sum.calls": (c["breaks.iterated_break_sum"], "count"),
            "breaks.iterated_break_sum.s": (s("breaks.iterated_break_sum"), "s"),
            "breaks.orbit_steps_per_sum":
                (ratio(k["maps.orbit.steps"], c["breaks.iterated_break_sum"]), "step/sum"),
            "breaks.orbit_merge_violations.s": (s("breaks.orbit_merge_violations"), "s"),
            "breaks.refusals": (self.refusals["breaks"], "count"),
            "breaks.self_s": (self.self_ns["breaks"] / 1e9, "s"),
            "blocks.exhaustive_scan.s": (s("blocks.exhaustive_scan"), "s"),
            "blocks.sequences_checked": (k["blocks.sequences_checked"], "count"),
            "blocks.sequences_per_s":
                (ratio(k["blocks.sequences_checked"], s("blocks.exhaustive_scan")), "1/s"),
            "blocks.violations": (k["blocks.violations"], "count"),
            "blocks.self_s": (self.self_ns["blocks"] / 1e9, "s"),
            "golden.run_example.s": (s("golden.run_example"), "s"),
            "golden.checks": (k["golden.checks"], "count"),
            "golden.mismatches": (k["golden.mismatches"], "count"),
            "golden.self_s": (self.self_ns["golden"] / 1e9, "s"),
        }
        return {name: ((value / ops, f"{unit}/op") if unit in ("s", "count") else (value, unit))
                for name, (value, unit) in totals.items()}

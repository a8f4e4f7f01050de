"""Spans around calls into chasegraph's public functions, from outside.

The tracer replaces each traced function at every module attribute that
binds it (``find_homomorphisms`` is bound in ``homs``, ``chase``,
``analysis`` and the package), so calls between modules are seen too.
Calls a module makes to a nested or private helper are not spans; their
time lands in the caller's self time.

A span is (id, parent id, op id, name, start, end).  Spans stay in memory
until the run writes them out.  For a generator function, such as
``enumerate_derivations``, one span covers each ``next`` call, so the
consumer's work between items is not counted against the generator.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs; the span name is "module.function".
TRACED = (
    ("homs", "find_homomorphisms"),
    ("homs", "isomorphic_mod_nulls"),
    ("chase", "triggers"),
    ("chase", "apply_rule"),
    ("chase", "enumerate_derivations"),
    ("analysis", "find_greedy_rederivation"),
    ("analysis", "is_greedy"),
    ("classify", "classify"),
    ("derivgraph", "build_derivation_graph"),
    ("derivgraph", "check_decomposition_properties"),
    ("derivgraph", "check_generative_paths"),
    ("reduction", "reduce_graph"),
    ("reduction", "check_prefix_invariants"),
    ("treedecomp", "extract_tree_decomposition"),
    ("treedecomp", "validate_tree_decomposition"),
    ("docparse", "parse_document"),
    ("render", "verdict_json"),
)

def _observe(name: str, result, counts: dict[str, float]) -> None:
    """Counts read off a traced call's result."""
    if name == "homs.isomorphic_mod_nulls":
        counts["homs.isomorphic_mod_nulls.hits"] += result is not None
    elif name == "classify.classify":
        counts["classify.classify.unknown"] += result.result == "unknown"
        if isinstance(result.certificate, tuple):
            counts["classify.classify.witnesses"] += len(result.certificate)
    elif name.startswith("reduction.reduce_graph."):
        if result is not None:
            counts[name + ".complete"] += 1
            counts["reduction.trace_steps"] += len(result.steps)
    elif name == "treedecomp.extract_tree_decomposition":
        bag = max(len(b) for b in result.bags)
        counts["treedecomp.max_bag"] = max(counts["treedecomp.max_bag"], bag)


class Tracer:
    """Records spans while ``recording`` is set; installed wrappers call
    straight through otherwise.

    Spans are kept column-wise in arrays; a span's id is its index.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.recording = False
        self.op_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.parent = array("i")
        self.op = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.start)

    def spans(self, first: int = 0):
        """Yield (id, parent, op, name, start, end) for each span from ``first`` on."""
        for sid in range(first, len(self.start)):
            yield (sid, self.parent[sid], self.op[sid], self.names[self.name[sid]],
                   self.start[sid], self.end[sid])

    # -- installation --------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for mod, fn in TRACED:
            original = getattr(sys.modules[f"chasegraph.{mod}"], fn)
            wrappers[id(original)] = self._wrap(f"{mod}.{fn}", original)
        for name, module in list(sys.modules.items()):
            if module is None or name.partition(".")[0] != "chasegraph":
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        def open_span(span_name: str) -> int:
            sid = len(tracer.start)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.name.append(tracer._name_id(span_name))
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(clock())
            return sid

        def close_span(sid: int) -> None:
            tracer.end[sid] = clock()
            stack.pop()

        if name == "chase.enumerate_derivations":
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.recording:
                    yield from inner
                    return
                tracer.counts["chase.enumerate_derivations.calls"] += 1
                while True:
                    sid = open_span(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(sid)
                    tracer.counts["chase.enumerate_derivations.derivations"] += 1
                    yield item
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_name = name
            if name == "reduction.reduce_graph":  # one span name per strategy
                strategy = kwargs.get("strategy", args[1] if len(args) > 1 else "cr-only")
                span_name = f"{name}.{strategy}"
            sid = open_span(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(sid)
            _observe(span_name, result, tracer.counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        """Write the spans, gzipped, as tab-separated lines: id, parent, op,
        name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\top\tname\tstart\tend\n")
            for sid, parent, op, name, start, end in self.spans():
                out.write(f"{sid}\t{parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\n")


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self time in seconds).

    ``spans`` holds (id, parent, op, name, start, end) tuples; a root's
    parent is -1 or an id outside ``spans``.  Self time is a span's duration
    minus the part of its interval its child spans cover.  Children of one
    parent never overlap (calls nest on one thread), so that part is the sum
    of the children's durations, each clipped to the parent.
    """
    interval = {s[0]: (s[4], s[5]) for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for _sid, parent, _op, _name, start, end in spans:
        if parent in interval:
            p_start, p_end = interval[parent]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, _parent, _op, name, start, end in spans:
        entry = out[name]
        entry[0] += 1
        entry[1] += max(0.0, (end - start) - covered[sid])
    return {name: (calls, total) for name, (calls, total) in out.items()}


# Per-layer metrics of one traced round, with their units.  "calls" count
# spans (for enumerate_derivations: enumerations started); "self_s" sums
# self time.
LAYER_METRICS = (
    ("homs.find_homomorphisms.calls", "count"),
    ("homs.find_homomorphisms.self_s", "s"),
    ("chase.triggers.calls", "count"),
    ("chase.apply_rule.calls", "count"),
    ("chase.apply_rule.self_s", "s"),
    ("chase.enumerate_derivations.calls", "count"),
    ("chase.enumerate_derivations.derivations", "count"),
    ("chase.enumerate_derivations.self_s", "s"),
    ("homs.isomorphic_mod_nulls.calls", "count"),
    ("homs.isomorphic_mod_nulls.self_s", "s"),
    ("homs.isomorphic_mod_nulls.hit_ratio", "ratio"),
    ("analysis.find_greedy_rederivation.calls", "count"),
    ("analysis.find_greedy_rederivation.self_s", "s"),
    ("analysis.is_greedy.calls", "count"),
    ("analysis.is_greedy.self_s", "s"),
    ("classify.classify.calls", "count"),
    ("classify.classify.self_s", "s"),
    ("classify.classify.unknown", "count"),
    ("classify.classify.witnesses", "count"),
    ("derivgraph.build_derivation_graph.calls", "count"),
    ("derivgraph.build_derivation_graph.self_s", "s"),
    ("derivgraph.check_decomposition_properties.self_s", "s"),
    ("derivgraph.check_generative_paths.self_s", "s"),
    ("reduction.reduce_graph.cr-only.self_s", "s"),
    ("reduction.reduce_graph.full.self_s", "s"),
    ("reduction.reduce_graph.full.complete_ratio", "ratio"),
    ("reduction.trace_steps", "count"),
    ("reduction.check_prefix_invariants.self_s", "s"),
    ("treedecomp.extract_tree_decomposition.self_s", "s"),
    ("treedecomp.validate_tree_decomposition.self_s", "s"),
    ("treedecomp.max_bag", "count"),
    ("docparse.parse_document.calls", "count"),
    ("docparse.parse_document.self_s", "s"),
    ("render.verdict_json.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


# Metrics read off call results by ``_observe`` rather than off spans.
_COUNTED = {
    "chase.enumerate_derivations.calls",
    "chase.enumerate_derivations.derivations",
    "classify.classify.unknown",
    "classify.classify.witnesses",
    "reduction.trace_steps",
    "treedecomp.max_bag",
}
_RATIO_OF = {"hit_ratio": "hits", "complete_ratio": "complete"}


def layer_metrics(spans, counts: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced round, all but
    ``trace.overhead_ratio``, which compares rounds."""
    per_name = self_times(spans)
    values: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        name, _, stat = metric.rpartition(".")
        calls, self_s = per_name.get(name, (0, 0.0))
        if metric in _COUNTED:
            values[metric] = counts.get(metric, 0)
        elif stat == "calls":
            values[metric] = calls
        elif stat == "self_s":
            values[metric] = self_s
        elif stat in _RATIO_OF:
            values[metric] = counts.get(f"{name}.{_RATIO_OF[stat]}", 0) / calls if calls else 0.0
    return values

"""Span tracing from outside the package: wrap, record, summarise.

`Tracer.install` replaces every public function, public method and cached
property of the traced modules with a wrapper that records one span
(name, start, end, parent span, job id, tag) per call.  A function imported
by name into another module (`from .berge import find_berge_cycle`) is
replaced there too, so every call site is seen exactly once.  Spans stay in
memory; `write` dumps them and `layer_metrics` reduces them.  `uninstall`
puts the originals back, so untraced batches run the unmodified code.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
import time
from array import array
from functools import cached_property
from typing import Any, Callable

PACKAGE = "bergefree"
LAYERS = ("cli", "core", "berge", "patterns", "embedding", "constructions",
          "search", "generators")

# Outcome recorded with a span, for the ratios that need more than a count.
TAGS: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "berge.find_berge_cycle":
        lambda args, kwargs, result: (args[1] if len(args) > 1 else kwargs["k"],
                                      result is not None),
    "berge.distinct_representatives": lambda args, kwargs, result: result is not None,
    "search.incremental_c4_check": lambda args, kwargs, result: bool(result),
    "search.max_weight_exact": lambda args, kwargs, result: result.nodes_explored,
}


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, tag_of = self.spans, self._stack, TAGS.get(name)
        name_id = spans.name_id(name)
        names, starts, ends, parents, jobs, tags = (
            spans.names, spans.starts, spans.ends, spans.parents, spans.jobs, spans.tags)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
                if tag_of is not None:
                    tags[index] = tag_of(args, kwargs, result)
                return result
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        namespaces = [sys.modules[PACKAGE], *modules.values()]
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        if getattr(ns, attr, None) is obj:
                            self._replace(ns, attr, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for attr, member in sorted(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, cached_property):
                prop = cached_property(self._wrap(name, member.func))
                prop.__set_name__(cls, attr)
                self._replace(cls, attr, prop)
            elif isinstance(member, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._replace(cls, attr, self._wrap(name, member))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump spans as gzipped tab-separated rows, times from the first span."""
        spans = self.spans
        origin = spans.starts[0] if len(spans) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tjob\ttag\n")
            for i in range(len(spans)):
                tag = spans.tags.get(i, "")
                fh.write(f"{i}\t{spans.labels[spans.names[i]]}\t{spans.starts[i] - origin:.9f}"
                         f"\t{spans.ends[i] - origin:.9f}\t{spans.parents[i]}"
                         f"\t{spans.jobs[i]}\t{tag}\n")


def span_cost() -> float:
    """Seconds the wrapper adds to one call: the median over 5 rounds of
    (time of 20000 wrapped calls - time of as many plain calls) / 20000."""
    def noop(*args, **kwargs):
        return None

    clock, calls = time.perf_counter, 20000
    costs = []
    for _ in range(5):
        wrapped = Tracer()._wrap("noop", noop)
        start = clock()
        for _ in range(calls):
            noop(1, k=2)
        plain = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped(1, k=2)
        costs.append((clock() - start - plain) / calls)
    return statistics.median(costs)


class Spans:
    """Column store of spans; a span's index is its position in call order,
    so a parent always precedes its children."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.names = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.jobs = array("l")
        self.tags: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self.names)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.labels)
            self.labels.append(name)
        return self._ids[name]


def layer_metrics(spans: Spans, batches: int) -> dict[str, float]:
    """Per-layer metrics per batch from the spans of `batches` traced batches.

    busy = time inside an outermost span of the function (or layer), so a
    nested call of the same function or layer is not counted twice;
    self = span duration minus the duration of its direct child spans.
    """
    labels = spans.labels
    layer_of = [label.split(".", 1)[0] for label in labels]
    names, parents, tags = spans.names, spans.parents, spans.tags
    count = len(spans)
    duration = [spans.ends[i] - spans.starts[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        if parents[i] >= 0:
            child[parents[i]] += duration[i]

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i in range(count):
        name = labels[names[i]]
        layer = layer_of[names[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + duration[i] - child[i]
        outer_name = outer_layer = True
        parent = parents[i]
        while parent >= 0 and (outer_name or outer_layer):
            if names[parent] == names[i]:
                outer_name = False
            if layer_of[names[parent]] == layer:
                outer_layer = False
            parent = parents[parent]
        if outer_name:
            busy[name] = busy.get(name, 0.0) + duration[i]
        if outer_layer:
            busy[layer] = busy.get(layer, 0.0) + duration[i]

    def spans_of(name: str) -> list[int]:
        return [i for i in range(count) if labels[names[i]] == name]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    cycle = spans_of("berge.find_berge_cycle")
    sdr = spans_of("berge.distinct_representatives")
    check = spans_of("search.incremental_c4_check")
    suite = set(spans_of("embedding.verify_lemma_suite"))
    suite_busy = busy.get("embedding.verify_lemma_suite", 0.0)

    per_batch: dict[str, float] = {
        "berge.find_berge_cycle.calls": len(cycle),
        "berge.find_berge_cycle.k4_free_s":
            sum(duration[i] for i in cycle if tags.get(i) == (4, False)),
        "berge.find_berge_cycle.other_k_s":
            sum(duration[i] for i in cycle if i in tags and tags[i][0] != 4),
        "berge.distinct_representatives.calls": len(sdr),
        "embedding.verify_lemma_suite.self_s": sum(duration[i] - child[i] for i in suite),
        "search.nodes": sum(tags.get(i, 0) for i in spans_of("search.max_weight_exact")),
        "search.incremental_c4_check.calls": len(check),
    }
    for name in ("patterns.contains_kst", "embedding.build_aux_bundle",
                 "search.SearchState.push"):
        per_batch[f"{name}.calls"] = calls.get(name, 0)
    for name in ("berge.find_berge_cycle", "berge.find_c4_in_graph", "berge.find_triangle",
                 "patterns.contains_kst", "embedding.verify_lemma_suite",
                 "embedding.build_aux_bundle", "embedding.build_embedded_graph",
                 "embedding.verify_observation1",
                 "constructions.projective_plane_incidence", "constructions.blow_up",
                 "constructions.certify_blowup_free",
                 "constructions.lower_bound_construction",
                 "search.max_weight_exact", "search.incremental_c4_check",
                 "generators.random_greedy_hypergraph",
                 "core.load_hypergraph", "core.save_hypergraph", "core.dumps_canonical",
                 "core.shadow"):
        per_batch[f"{name}.busy_s"] = busy.get(name, 0.0)
    per_batch["core.pair_cover.busy_s"] = busy.get("core.Hypergraph.pair_cover", 0.0)
    for layer in LAYERS:
        per_batch[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        per_batch[f"{layer}.busy_s"] = busy.get(layer, 0.0)

    out = {name: value / batches for name, value in per_batch.items()}
    out["berge.find_berge_cycle.found_ratio"] = ratio(
        sum(1 for i in cycle if tags.get(i, (0, False))[1]), len(cycle))
    out["berge.distinct_representatives.success_ratio"] = ratio(
        sum(1 for i in sdr if tags.get(i)), len(sdr))
    out["search.incremental_c4_check.reject_ratio"] = ratio(
        sum(1 for i in check if tags.get(i)), len(check))
    out["embedding.precondition_share"] = ratio(
        sum(duration[i] for i in cycle if parents[i] in suite), suite_busy)
    return out

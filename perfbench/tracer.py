"""Span tracing from outside the package.

`Installation` wraps every public function of the traced modules, at every
module binding of it (so `approx.rr_numbering` is traced as well as
`stnum.rr_numbering`), plus `RootedDigraph` construction.  Each call
records a span: name, start, end, parent span and instance id.  Spans stay
in memory; `summarize` turns them into per-name calls, inclusive time and
self time (duration minus the time covered by child spans).
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

TRACED_MODULES = ("cli", "graphio", "digraph", "reduce", "stnum", "bounds",
                  "approx", "exact", "gen")

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, INSTANCE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self.counts = Counter()   # counts observed from arguments and results

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.instance]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced


# -- observers: counts read from arguments and results ---------------------


def _observe_reduce_indegrees(counts, args, result):
    counts["stnum.arcs_deleted"] += args[0].m - result.m


def _observe_approximate(counts, args, result):
    counts[f"approx.chosen_{result[1].chosen}"] += 1


def _observe_exact(counts, args, result):
    counts["exact.explored"] += result.explored


OBSERVERS = {
    "stnum.reduce_indegrees": _observe_reduce_indegrees,
    "approx.approximate": _observe_approximate,
    "exact.maxleaf_exact": _observe_exact,
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "maxleaf" or name.startswith("maxleaf."))]


def traced_functions():
    """(span name, function) for every public function of the traced modules."""
    out = []
    for short in TRACED_MODULES:
        mod = sys.modules[f"maxleaf.{short}"]
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj):
                continue  # re-exports are handled at their home; generators
                          # are consumed inside a traced `find_*` caller
            out.append((f"{short}.{attr}", obj))
    return out


class Installation:
    """Wrappers installed on every binding; `remove` restores the originals."""

    def __init__(self, tracer):
        self.patches = []
        self.originals = []
        modules = _package_modules()
        for name, fn in traced_functions():
            wrapper = tracer.wrap(name, fn, OBSERVERS.get(name))
            self.originals.append(fn)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self.patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        digraph = sys.modules["maxleaf.digraph"]
        init = digraph.RootedDigraph.__init__
        self.patches.append((digraph.RootedDigraph, "__init__", init))
        digraph.RootedDigraph.__init__ = tracer.wrap("digraph.RootedDigraph", init)

    def stale_bindings(self):
        """Module bindings that still point at an unwrapped original."""
        originals = {id(fn) for fn in self.originals}
        return [f"{mod.__name__}.{attr}" for mod in _package_modules()
                for attr, obj in vars(mod).items() if id(obj) in originals]

    def remove(self):
        for obj, attr, original in reversed(self.patches):
            setattr(obj, attr, original)
        self.patches = []


def summarize(spans):
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so recursion is not double counted) and self seconds."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    calls = Counter()
    inclusive = Counter()
    self_s = Counter()
    for i, span in enumerate(spans):
        name = span[NAME]
        dur = span[END] - span[START]
        calls[name] += 1
        self_s[name] += dur - child_time[i]
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            inclusive[name] += dur
    return {name: {"calls": calls[name], "inclusive_s": inclusive[name], "self_s": self_s[name]}
            for name in calls}


def has_ancestor(spans, i, names):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def count_under(spans, name, ancestors):
    return sum(1 for i, s in enumerate(spans)
               if s[NAME] == name and has_ancestor(spans, i, ancestors))


def time_not_under(spans, name, ancestors):
    """Inclusive time of outermost `name` spans without an ancestor in `ancestors`."""
    total = 0.0
    for i, s in enumerate(spans):
        if s[NAME] == name and not has_ancestor(spans, i, ancestors | {name}):
            total += s[END] - s[START]
    return total

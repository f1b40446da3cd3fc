"""Spans around the calls into each termalg layer, recorded from outside.

``install`` rebinds each layer's public functions in every ``termalg``
module namespace (``from .terms import positions`` copies the binding, so
patching the defining module alone would miss most callers) and wraps the
``Theory`` methods on their classes.  Each call becomes a span: name, start,
end, parent span and op id, stored in flat arrays and summarised when the
run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# functions whose calls become spans: (termalg module, attribute, span name)
FUNCTIONS = (
    *(("terms", name, "terms") for name in (
        "positions", "variables", "var_set", "subterm_at", "replace_at", "substitute",
        "rename_canonical", "subterm_set", "enumerate_terms",
    )),
    ("algebras", "distinguish_over_models", "algebras.distinguish"),
    ("essentiality", "essentiality_report", "essentiality.report"),
    ("compose", "star_compose", "compose.star"),
    ("compose", "sigma_compose", "compose.sigma"),
    ("compose", "sigma_match_positions", "compose.match"),
    ("reduction", "reducible_pairs", "reduction.rd"),
    ("reduction", "removable_positions", "reduction.rm"),
    ("reduction", "step_S", "reduction.step"),
    ("reduction", "step_E", "reduction.step"),
)
# generator functions: the wrapper runs them to completion inside the span
GENERATORS = {"enumerate_terms"}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = -1  # -1 marks set-up
        self.counts = Counter()

    def name_id(self, name):
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, nid):
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.stack.pop()
        self.end[idx] = time.perf_counter()

    def wrap(self, fn, name, eager=False, observe=None):
        """fn inside a span; eager runs a generator to completion in the span,
        observe(result) runs after the span closes."""
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = iter(list(result))
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def spans(self):
        return self.start, self.end, self.name, self.parent, self.op


def install(tracer):
    """Wrap every traced callable of the loaded termalg modules."""
    from termalg import terms, theories

    modules = [m for key, m in sys.modules.items() if key == "termalg" or key.startswith("termalg.")]
    for module_name, attr, span_name in FUNCTIONS:
        original = getattr(sys.modules["termalg." + module_name], attr)
        wrapper = tracer.wrap(original, span_name, eager=attr in GENERATORS)
        _rebind(modules, attr, original, wrapper)

    def count_identities(result):
        tracer.counts["deduction.closure.identities"] += len(result)

    closure = sys.modules["termalg.deduction"].bounded_closure
    _rebind(modules, "bounded_closure", closure,
            tracer.wrap(closure, "deduction.closure", observe=count_identities))

    node_init = terms.Node.__init__

    def counting_init(self, left, right):
        tracer.counts["terms.node_new"] += 1
        node_init(self, left, right)

    terms.Node.__init__ = counting_init

    base = theories.Theory
    exact_id = tracer.name_id("theories.equal")
    bounded_id = tracer.name_id("theories.equal_bounded")
    equal = base.equal

    def traced_equal(self, t, s):
        idx = tracer.open(exact_id if self.exact else bounded_id)
        try:
            answer = equal(self, t, s)
        finally:
            tracer.close(idx)
        if answer is None:
            tracer.counts["theories.equal_bounded.unknown"] += 1
        return answer

    def count_found(found):
        tracer.counts["theories.refute.found"] += found is not None

    base.equal = traced_equal
    base.refute = tracer.wrap(base.refute, "theories.refute", observe=count_found)
    base.decide = tracer.wrap(base.decide, "theories.decide")

    def count_models(models):
        tracer.counts["theories.models.count"] += len(models)

    base.models = tracer.wrap(base.models, "theories.models", observe=count_models)
    base._cached_key = tracer.wrap(base._cached_key, "theories.key.lookup")
    for cls in vars(theories).values():
        if isinstance(cls, type) and issubclass(cls, base) and "canonical_key" in vars(cls):
            cls.canonical_key = tracer.wrap(cls.canonical_key, "theories.key.compute")


def _rebind(modules, attr, original, wrapper):
    for module in modules:
        if module.__dict__.get(attr) is original:
            setattr(module, attr, wrapper)


def self_times(start, end, parent):
    """Per-span self time: duration minus the durations of its child spans.

    Spans nest (one thread), so the children of a span cover disjoint parts
    of it and their durations add up to the time they cover.
    """
    n = len(start)
    own = array("d", (end[i] - start[i] for i in range(n)))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def summarize(tracer):
    """({span name: (calls, self seconds)}, number of ``theories.equal*``
    spans that ran beneath an ``essentiality.report`` span)."""
    start, end, name, parent, _op = tracer.spans()
    own = self_times(start, end, parent)
    calls = Counter()
    self_s = Counter()
    for i in range(len(start)):
        calls[name[i]] += 1
        self_s[name[i]] += own[i]
    report_id = tracer.name_id("essentiality.report")
    equal_ids = {tracer.name_id("theories.equal"), tracer.name_id("theories.equal_bounded")}
    under_report = array("b", bytes(len(start)))
    queries_in_reports = 0
    for i in range(len(start)):
        p = parent[i]
        if p >= 0 and (under_report[p] or name[p] == report_id):
            under_report[i] = 1
            if name[i] in equal_ids:
                queries_in_reports += 1
    by_name = {tracer.names[k]: (calls[k], self_s[k]) for k in calls}
    return by_name, queries_in_reports


def write_spans(tracer, path):
    """Dump the raw spans as a compressed numpy archive."""
    import numpy as np

    start, end, name, parent, op = tracer.spans()
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        start=np.frombuffer(start, dtype=np.float64),
        end=np.frombuffer(end, dtype=np.float64),
        name=np.frombuffer(name, dtype=np.uint16),
        parent=np.frombuffer(parent, dtype=np.int64),
        op=np.frombuffer(op, dtype=np.int64),
    )

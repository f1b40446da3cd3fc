"""Independent checks of the certificates termalg attaches to its verdicts.

Nothing here calls a decider (``Theory.equal``, ``decide``, ``refute``,
``models`` or a canonical key).  A counter-model is checked by exhaustive
evaluation with ``eval_term``, the scalar reference evaluator; a rewrite path
is checked step by step with this module's own matcher; a reduction trace is
checked structurally and, step by step, in small models of the theory that
this module finds itself.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from termalg.algebras import eval_term
from termalg.terms import Node, Var, parse_term
from termalg.theories import CounterModel, Derivation


def match(pattern, term, binding):
    """Extend ``binding`` (var index -> term) so that pattern instantiates to term.

    Returns the extended binding, or None when no extension exists.  The
    input binding is never modified.
    """
    binding = dict(binding)
    stack = [(pattern, term)]
    while stack:
        p, t = stack.pop()
        if isinstance(p, Var):
            bound = binding.get(p.index)
            if bound is None:
                binding[p.index] = t
            elif bound != t:
                return None
        elif isinstance(t, Node):
            stack.append((p.right, t.right))
            stack.append((p.left, t.left))
        else:
            return None
    return binding


def instantiate(pattern, binding):
    if isinstance(pattern, Var):
        return binding[pattern.index]
    return Node(instantiate(pattern.left, binding), instantiate(pattern.right, binding))


def term_vars(t):
    out = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.add(u.index)
        else:
            stack.extend((u.left, u.right))
    return out


def _holds_everywhere(algebra, lhs, rhs):
    vs = sorted(term_vars(lhs) | term_vars(rhs))
    for values in itertools.product(range(algebra.size), repeat=len(vs)):
        assignment = dict(zip(vs, values))
        if eval_term(algebra, lhs, assignment) != eval_term(algebra, rhs, assignment):
            return False
    return True


def check_counter_model(cert, axioms, left, right):
    """None when cert is a valid counter-model for left = right, else the reason."""
    if not isinstance(cert, CounterModel):
        return f"not a counter-model: {type(cert).__name__}"
    algebra = cert.algebra
    table = algebra.table
    if len(table) != algebra.size or any(
        len(row) != algebra.size or any(not 0 <= x < algebra.size for x in row)
        for row in table
    ):
        return "Cayley table is not a total operation on the carrier"
    assignment = dict(cert.assignment)
    if not term_vars(left) | term_vars(right) <= assignment.keys():
        return "assignment does not cover the variables of both terms"
    if any(not 0 <= x < algebra.size for x in assignment.values()):
        return "assignment leaves the carrier"
    for ax in axioms:
        if not _holds_everywhere(algebra, ax.lhs, ax.rhs):
            return f"model violates the axiom {ax.text()}"
    if eval_term(algebra, left, assignment) == eval_term(algebra, right, assignment):
        return "model does not separate the two terms"
    return None


def _one_axiom_step(a, b, axioms):
    """True when b is a with one axiom instance (either direction) applied at one position."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        for ax in axioms:
            for src, dst in ((ax.lhs, ax.rhs), (ax.rhs, ax.lhs)):
                binding = match(src, x, {})
                if binding is not None and match(dst, y, binding) is not None:
                    return True
        # descend only where the rest of the two terms agrees
        if isinstance(x, Node) and isinstance(y, Node):
            if x.right == y.right:
                todo.append((x.left, y.left))
            if x.left == y.left:
                todo.append((x.right, y.right))
    return False


def check_rewrite_path(cert, axioms, left, right):
    """None when cert is a rewrite path from left to right (or reflexivity of
    identical terms), else the reason."""
    if isinstance(cert, Derivation) and cert.method == "reflexivity" and left == right:
        return None
    if not isinstance(cert, Derivation) or cert.method != "rewrite-path":
        return f"not a rewrite path: {cert!r}"
    steps = [parse_term(text) for text in cert.steps]
    if not steps:
        return "empty rewrite path"
    if {steps[0], steps[-1]} != {left, right}:
        return "rewrite path does not connect the two terms"
    for a, b in zip(steps, steps[1:]):
        if not _one_axiom_step(a, b, axioms):
            return f"{a} -> {b} is not one axiom instance at one position"
    return None


def subterm(t, p):
    for d in p:
        t = t.left if d == 1 else t.right
    return t


def replaced(t, p, s):
    if not p:
        return s
    if p[0] == 1:
        return Node(replaced(t.left, p[1:], s), t.right)
    return Node(t.left, replaced(t.right, p[1:], s))


# --- small models ------------------------------------------------------------

SIZE3_SAMPLE = 16


class Evaluation:
    """Values of terms in models under every assignment of ``variables``.

    ``models`` is a list of (size, tables) with tables an array of Cayley
    tables of that size.  A term's values form one (models, assignments)
    array per size; assignments run in row-major order over ``variables``,
    so the last variable varies fastest.  Values are memoised per subterm.
    """

    def __init__(self, models, variables):
        self.parts = []
        for n, tables in models:
            grids = np.meshgrid(*([np.arange(n)] * len(variables)), indexing="ij")
            cols = {x: g.reshape(-1) for x, g in zip(variables, grids)}
            self.parts.append((n, tables, np.arange(len(tables))[:, None], cols, {}))

    def values(self, t):
        return [self._eval(t, *part) for part in self.parts]

    def _eval(self, u, n, tables, rows, cols, memo):
        got = memo.get(u)
        if got is None:
            if isinstance(u, Var):
                got = np.broadcast_to(cols[u.index], (len(tables), n ** len(cols)))
            else:
                left = self._eval(u.left, n, tables, rows, cols, memo)
                right = self._eval(u.right, n, tables, rows, cols, memo)
                got = tables[rows, left, right]
            memo[u] = got
        return got

    def equal(self, s, t):
        """False when some model and assignment separate s and t."""
        return all(np.array_equal(a, b) for a, b in zip(self.values(s), self.values(t)))

    def ignores_last(self, t):
        """False when t's value depends on the last variable in some model."""
        for (n, *_), v in zip(self.parts, self.values(t)):
            v = v.reshape(len(v), -1, n)
            if not (v == v[:, :, :1]).all():
                return False
        return True


def small_models(axioms):
    """[(size, tables)]: every model of the axioms on two elements and a fixed
    sample of at most SIZE3_SAMPLE of those on three, found by evaluating the
    axioms in every Cayley table of that size."""
    out = []
    for n in (2, 3):
        tables = np.array(list(itertools.product(range(n), repeat=n * n))).reshape(-1, n, n)
        ok = np.ones(len(tables), dtype=bool)
        for ax in axioms:
            ev = Evaluation([(n, tables)], sorted(term_vars(ax.lhs) | term_vars(ax.rhs)))
            (lhs,), (rhs,) = ev.values(ax.lhs), ev.values(ax.rhs)
            ok &= (lhs == rhs).all(axis=1)
        found = tables[ok]
        if n == 3 and len(found) > SIZE3_SAMPLE:
            found = found[sorted(random.Random(0).sample(range(len(found)), SIZE3_SAMPLE))]
        out.append((n, found))
    return out


def check_reduction_trace(trace, models):
    """None when every step of a normal_form trace is well formed, else the reason.

    An S-step (p, q) must replace the subterm at p by the one at a proper
    extension q; an E-step at x must replace the parent of x by x's sibling;
    every step must strictly decrease Len.  In every one of ``models`` (from
    ``small_models``) the two subterms of an S-step must be equal, and an
    E-step's position must be fictive: the term with a fresh variable at x
    must not depend on that variable.
    """
    fresh = Var(max(term_vars(trace.start)) + 1)
    ev = Evaluation(models, sorted(term_vars(trace.start)) + [fresh.index])
    current = trace.start
    for kind, datum, result in trace.steps:
        if kind == "S":
            p, q = tuple(datum.p), tuple(datum.q)
            if not (len(p) < len(q) and q[: len(p)] == p):
                return f"S-step ({p}, {q}) is not a nested pair"
            expected = replaced(current, p, subterm(current, q))
            if not ev.equal(subterm(current, p), subterm(current, q)):
                return f"S-step ({p}, {q}): a model of the theory separates the two subterms"
        elif kind == "E":
            x = tuple(datum)
            if not x:
                return "E-step at the root"
            expected = replaced(current, x[:-1], subterm(current, x[:-1] + (3 - x[-1],)))
            if not ev.ignores_last(replaced(current, x, fresh)):
                return f"E-step at {x}: the position is essential in a model of the theory"
        else:
            return f"unknown step kind {kind!r}"
        if result != expected:
            return f"{kind}-step result {result} differs from {expected}"
        if result.length >= current.length:
            return f"{kind}-step does not decrease Len ({current.length} -> {result.length})"
        current = result
    return None

"""Finite algebras with one binary operation: Cayley tables, satisfaction, enumeration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import MissingAssignmentError
from .terms import Term, Var, fold_term, var_set


@dataclass(frozen=True)
class FiniteAlgebra:
    """A carrier {0, ..., size-1} and a total binary operation table.

    ``table[a][b]`` is the value of f(a, b); rows and entries are tuples so
    algebras are hashable.
    """

    size: int
    table: tuple

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("carrier must be non-empty")
        if len(self.table) != self.size or any(len(row) != self.size for row in self.table):
            raise ValueError("table must be size x size")
        for row in self.table:
            for x in row:
                if not 0 <= x < self.size:
                    raise ValueError(f"table entry {x} outside the carrier")

    def apply(self, a: int, b: int) -> int:
        return self.table[a][b]

    @classmethod
    def from_rows(cls, rows) -> "FiniteAlgebra":
        rows = tuple(tuple(r) for r in rows)
        return cls(len(rows), rows)

    @classmethod
    def from_flat(cls, size: int, flat) -> "FiniteAlgebra":
        """Build from a row-major flat list, the JSON file layout."""
        flat = tuple(flat)
        if len(flat) != size * size:
            raise ValueError(f"expected {size * size} entries, got {len(flat)}")
        return cls(size, tuple(flat[i * size : (i + 1) * size] for i in range(size)))

    def to_flat(self):
        return [x for row in self.table for x in row]


def eval_term(algebra: FiniteAlgebra, t: Term, assignment) -> int:
    """Evaluate t bottom-up through the Cayley table.

    assignment maps variable indexes to carrier elements and must cover var(t).
    """
    if isinstance(t, Var):
        try:
            return assignment[t.index]
        except KeyError:
            raise MissingAssignmentError(f"no value assigned to x{t.index}") from None
    return algebra.table[eval_term(algebra, t.left, assignment)][
        eval_term(algebra, t.right, assignment)
    ]


def satisfies(algebra: FiniteAlgebra, lhs: Term, rhs: Term) -> bool:
    """True iff lhs == rhs under every assignment into the carrier (exhaustive)."""
    vs = sorted(var_set(lhs) | var_set(rhs))
    carrier = range(algebra.size)
    for values in itertools.product(carrier, repeat=len(vs)):
        assignment = dict(zip(vs, values))
        if eval_term(algebra, lhs, assignment) != eval_term(algebra, rhs, assignment):
            return False
    return True


def distinguishing_assignment(algebra: FiniteAlgebra, lhs: Term, rhs: Term):
    """An assignment where lhs and rhs evaluate differently, or None."""
    vs = sorted(var_set(lhs) | var_set(rhs))
    carrier = range(algebra.size)
    for values in itertools.product(carrier, repeat=len(vs)):
        assignment = dict(zip(vs, values))
        if eval_term(algebra, lhs, assignment) != eval_term(algebra, rhs, assignment):
            return assignment
    return None


def distinguish_over_models(models, lhs: Term, rhs: Term):
    """First (model, assignment) among same-size models where lhs != rhs, or None.

    Vectorized over models x assignments; the scan order matches looping over
    the models in the given order with assignments in row-major order.
    """
    import numpy as np

    if not models:
        return None
    n = models[0].size
    tables = np.asarray([m.table for m in models])
    vs = sorted(var_set(lhs) | var_set(rhs))
    k = len(vs)
    grids = np.meshgrid(*([np.arange(n)] * k), indexing="ij") if k else []
    cols = {x: g.reshape(-1) for x, g in zip(vs, grids)}
    count, na = len(models), n**k
    rows = np.arange(count)[:, None]
    memo = {}

    def leaf(x):
        return np.broadcast_to(cols[x.index], (count, na))

    def node(left, right):
        return tables[rows, left, right]

    diff = np.argwhere(fold_term(lhs, leaf, node, memo) != fold_term(rhs, leaf, node, memo))
    if diff.size == 0:
        return None
    mi, ai = diff[0]
    return models[mi], {x: int(cols[x][ai]) for x in vs}


def enumerate_tables(axioms, size: int):
    """Every Cayley table of the given size satisfying all axioms.

    axioms is a sequence of (lhs, rhs) term pairs.  Tables are yielded in
    row-major order over their flat encoding, so the stream is deterministic
    regardless of how it is later partitioned.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    n2 = size * size
    for flat in itertools.product(range(size), repeat=n2):
        algebra = FiniteAlgebra.from_flat(size, flat)
        if all(satisfies(algebra, lhs, rhs) for lhs, rhs in axioms):
            yield algebra


def _term_depends_on(algebra: FiniteAlgebra, t: Term, var_index: int) -> bool:
    """True iff the induced term operation depends on x_var_index."""
    vs = sorted(var_set(t))
    if var_index not in vs:
        return False
    i = vs.index(var_index)
    carrier = range(algebra.size)
    for values in itertools.product(carrier, repeat=len(vs)):
        assignment = dict(zip(vs, values))
        base = eval_term(algebra, t, assignment)
        for b in carrier:
            if b == values[i]:
                continue
            assignment[var_index] = b
            if eval_term(algebra, t, assignment) != base:
                return True
            assignment[var_index] = values[i]
    return False


def essential_vars_alg(t: Term, algebra: FiniteAlgebra):
    """Ess(t, A): variables of t whose value can change the term operation."""
    return {i for i in var_set(t) if _term_depends_on(algebra, t, i)}


def eval_vector(algebra: FiniteAlgebra, t: Term, vs, cache=None):
    """Values of t over all assignments of vs (row-major), as a tuple.

    vs must cover var(t).  cache, when given, memoizes per (term) within
    this algebra/variable-list context.
    """
    import numpy as np

    n = algebra.size
    k = len(vs)
    pos = {x: i for i, x in enumerate(vs)}
    grids = np.meshgrid(*([np.arange(n)] * k), indexing="ij") if k else []
    flat = [g.reshape(-1) for g in grids]
    table = np.asarray(algebra.table)

    def rec(u):
        if cache is not None and u in cache:
            return cache[u]
        if isinstance(u, Var):
            out = flat[pos[u.index]]
        else:
            out = table[rec(u.left), rec(u.right)]
        if cache is not None:
            cache[u] = out
        return out

    return rec(t)

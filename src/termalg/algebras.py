"""Finite algebras with one binary operation: Cayley tables, one vectorised
evaluator over packed stacks of them, satisfaction and enumeration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import MissingAssignmentError
from .terms import Term, fold_term, var_set


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

    @cached_property
    def _stack(self) -> "ModelStack":
        """This algebra alone, packed for the evaluator (built on first use)."""
        return ModelStack(self.size, self.table)


def eval_term(algebra: FiniteAlgebra, t: Term, assignment) -> int:
    """Evaluate t bottom-up through the Cayley table: the scalar reference.

    assignment maps variable indexes to carrier elements and must cover var(t).
    """

    def leaf(x):
        try:
            return assignment[x.index]
        except KeyError:
            raise MissingAssignmentError(f"no value assigned to x{x.index}") from None

    return fold_term(t, leaf, lambda a, b: algebra.table[a][b], {})


class ModelStack:
    """Same-size algebras packed for the vectorised evaluator.

    ``flat`` holds every Cayley table row-major, one after another, as one
    intp array, and ``offs`` the start of each table as a (count, 1) column,
    so f(a, b) in model m is ``flat[offs[m] + a*size + b]``.  The algebras
    themselves are built on first use.
    """

    def __init__(self, size: int, tables):
        import numpy as np

        self.size = size
        self.flat = np.asarray(tables, dtype=np.intp).reshape(-1)
        self.offs = np.arange(0, self.flat.size, size * size, dtype=np.intp)[:, None]

    def __len__(self):
        return len(self.offs)

    @cached_property
    def algebras(self):
        n = self.size
        return [FiniteAlgebra.from_flat(n, row) for row in self.flat.reshape(-1, n * n).tolist()]

    @cached_property
    def classes(self) -> "ModelStack":
        """The first model of each isomorphism class, in stack order (built on
        first use).

        A model's canonical code is the least, over every permutation p of
        the carrier, of the base-size encoding of its relabelled table
        p[T[p⁻¹][:, p⁻¹]]; models with one code are isomorphic.
        """
        import numpy as np

        n = self.size
        if len(self) < 2:
            return self
        tables = self.flat.reshape(-1, n, n)
        weights = n ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
        code = None
        for p in itertools.permutations(range(n)):
            p = np.array(p, dtype=np.intp)
            inv = np.argsort(p)
            relabelled = p[tables[:, inv][:, :, inv]].reshape(len(self), n * n) @ weights
            code = relabelled if code is None else np.minimum(code, relabelled)
        _, first = np.unique(code, return_index=True)
        return ModelStack(n, tables[np.sort(first)])


@lru_cache(maxsize=64)
def _assignments(n: int, k: int):
    """Every assignment of k variables into n elements, row-major: a read-only
    (k, n**k) array whose column j is the j-th assignment."""
    import numpy as np

    grid = np.indices((n,) * k, dtype=np.intp).reshape(k, n**k)
    grid.flags.writeable = False
    return grid


def term_values(stack: ModelStack, t: Term, vs, memo):
    """Values of t in every model of stack under every assignment of vs.

    The result has shape (len(stack), size**len(vs)); assignments run in
    row-major order over vs, which must cover var(t).  memo maps terms to
    their values for this stack and vs, so shared subterms, and terms
    evaluated before with the same memo, cost nothing.  Variables are kept
    as (1, size**len(vs)) rows that broadcast against the models.
    """
    n, flat, offs = stack.size, stack.flat, stack.offs

    def leaf(x):
        j = vs.index(x.index)
        return _assignments(n, len(vs))[j : j + 1]

    def node(left, right):
        return flat[left * n + right + offs]

    return fold_term(t, leaf, node, memo)


def _first_difference(stack: ModelStack, lhs: Term, rhs: Term):
    """(model index, assignment) of the first place lhs and rhs differ, models
    in stack order and assignments row-major, or None."""
    vs = sorted(var_set(lhs) | var_set(rhs))
    memo = {}
    differ = (term_values(stack, lhs, vs, memo) != term_values(stack, rhs, vs, memo)).ravel()
    first = int(differ.argmax())
    if not differ[first]:
        return None
    model, column = divmod(first, stack.size ** len(vs))
    grid = _assignments(stack.size, len(vs))
    return model, {x: int(grid[j, column]) for j, x in enumerate(vs)}


def satisfies(algebra: FiniteAlgebra, lhs: Term, rhs: Term) -> bool:
    """True iff lhs == rhs under every assignment into the carrier (exhaustive)."""
    return _first_difference(algebra._stack, lhs, rhs) is None


def distinguish_over_models(models: ModelStack, lhs: Term, rhs: Term):
    """First (model, assignment) in the stack where lhs != rhs, or None.

    The scan order matches looping over the models in stack order with
    assignments in row-major order.
    """
    if not len(models):
        return None
    found = _first_difference(models, lhs, rhs)
    if found is None:
        return None
    model, assignment = found
    return models.algebras[model], assignment


def enumerate_tables(axioms, size: int):
    """Every Cayley table of the given size satisfying all axioms.

    axioms is a sequence of (lhs, rhs) term pairs.  Tables are yielded in
    row-major order over their flat encoding, so the stream is deterministic
    regardless of how it is later partitioned.  This scans the tables one at
    a time; it is the reference for the vectorised model search.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    n2 = size * size
    for flat in itertools.product(range(size), repeat=n2):
        algebra = FiniteAlgebra.from_flat(size, flat)
        if all(satisfies(algebra, lhs, rhs) for lhs, rhs in axioms):
            yield algebra

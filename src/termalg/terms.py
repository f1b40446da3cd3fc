"""Terms over a single binary operation symbol, positions, and valuations.

A term is either a variable leaf ``x_i`` (``Var``) or an application of the
one binary symbol ``f`` to two terms (``Node``).  Positions are tuples over
{1, 2} addressing nodes of the term tree; the empty tuple is the root.
Everything here is immutable and pure.

Terms are hash-consed: constructing a term equal to one still alive returns
that same object, so equality and hashing are by identity (Filliâtre &
Conchon, "Type-Safe Modular Hash-Consing", 2006).  The intern tables hold
their terms weakly and forget a term when it dies.  A hash is an address,
so the iteration order of a set of terms differs between runs; no result
may depend on it.  ``variables`` is computed once per term, when first
asked.  ``preorder`` lists a term's subterms in ``positions`` order; the
library addresses a subterm by its index there, and subtree blocks, flat
codes, the splice and the array decoding read that one layout.  Every
traversal here runs without recursion, so deep terms do not exhaust the
interpreter stack.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from weakref import KeyedRef

from .errors import (
    InvalidPositionError,
    MalformedArraysError,
    ParseError,
)

Position = tuple  # tuple of ints over {1, 2}; () is the root
ROOT: Position = ()

_set = object.__setattr__


def _weak_table():
    """An intern table: key -> KeyedRef, whose entry leaves when the term dies."""
    table = {}

    def evict(ref):
        if table.get(ref.key) is ref:
            del table[ref.key]

    return table, evict


_VARS, _evict_var = _weak_table()  # index -> Var
_NODES, _evict_node = _weak_table()  # (id(left), id(right)), packed -> Node


def _intern(table, evict, key, term):
    """Enter term under key, or return the live term another caller entered first."""
    ref = KeyedRef(term, evict, key)
    old = table.setdefault(key, ref)
    if old is not ref:
        other = old()
        if other is not None:
            return other
        table[key] = ref
    return term


class Term:
    """Base class; instances are Var or Node.

    Equality and hashing are by identity (terms are interned); ``_vars``
    holds ``variables`` once computed.
    """

    __slots__ = ("_vars", "__weakref__")

    # populated by subclasses
    length: int
    size: int
    depth: int

    def __repr__(self):
        return f"Term({term_to_text(self)!r})"

    def __str__(self):
        return term_to_text(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Var(Term):
    """A variable leaf x_i with index i >= 1."""

    __slots__ = ("index",)

    length = 1
    size = 0
    depth = 0

    def __new__(cls, index: int):
        if not isinstance(index, int) or index < 1:
            raise ValueError(f"variable index must be a positive integer, got {index!r}")
        ref = _VARS.get(index)
        if ref is not None:
            var = ref()
            if var is not None:
                return var
        index = int(index)
        var = object.__new__(cls)
        _set(var, "index", index)
        _set(var, "_vars", (index,))
        return _intern(_VARS, _evict_var, index, var)


class Node(Term):
    """An application f(left, right); valuations are computed at construction."""

    __slots__ = ("left", "right", "length", "size", "depth")

    def __new__(cls, left: Term, right: Term):
        # the pair (id(left), id(right)) packed into one int, which takes
        # less memory than a tuple (ids are addresses, below 2**64); keys
        # hold the ids of live terms only, so a hit needs no type check
        key = id(left) << 64 | id(right)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if not isinstance(left, Term) or not isinstance(right, Term):
            raise TypeError("Node children must be terms")
        node = object.__new__(cls)
        _set(node, "left", left)
        _set(node, "right", right)
        _set(node, "length", left.length + right.length)
        _set(node, "size", left.size + right.size + 1)
        _set(node, "depth", max(left.depth, right.depth) + 1)
        _set(node, "_vars", None)
        return _intern(_NODES, _evict_node, key, node)

    def __init__(self, left: Term, right: Term):
        """A no-op (``__new__`` builds the node) that bench/tracing.py wraps."""


# ---------------------------------------------------------------------------
# positions and orders


def positions(t: Term):
    """All positions of t, sorted by the padded-lexicographic order, uncached.

    For positions over {1, 2} that order coincides with plain tuple
    comparison (a proper prefix sorts before its extensions), which is the
    left-first preorder the walk below emits.
    """
    out = []
    stack = [(t, ROOT)]
    while stack:
        u, p = stack.pop()
        out.append(p)
        if type(u) is Node:
            stack.append((u.right, p + (2,)))
            stack.append((u.left, p + (1,)))
    return tuple(out)


def subterm_at(t: Term, p: Position) -> Term:
    """The subterm of t rooted at position p."""
    u = t
    for d in p:
        if not isinstance(u, Node) or d not in (1, 2):
            raise InvalidPositionError(
                f"position {position_to_text(p)} is not valid for {term_to_text(t)}"
            )
        u = u.left if d == 1 else u.right
    return u


def replace_at(t: Term, p: Position, s: Term) -> Term:
    """t with the subterm at position p replaced by s (single position)."""
    path = []
    u = t
    for d in p:
        if not isinstance(u, Node):
            raise InvalidPositionError(
                f"position {position_to_text(p)} is not valid for {term_to_text(t)}"
            )
        if d not in (1, 2):
            raise InvalidPositionError(f"bad digit {d} in position")
        path.append(u)
        u = u.left if d == 1 else u.right
    return plant(path, p, s)


def plant(path, digits, s: Term) -> Term:
    """s at position digits, whose ancestors are path; only they are rebuilt."""
    for u, d in zip(reversed(path), reversed(digits)):
        s = Node(s, u.right) if d == 1 else Node(u.left, s)
    return s


def prefix_leq(p: Position, q: Position) -> bool:
    """True iff p is a prefix of q (including p == q)."""
    return len(p) <= len(q) and q[: len(p)] == p


def proper_prefix(p: Position, q: Position) -> bool:
    return len(p) < len(q) and q[: len(p)] == p


def preorder(t: Term) -> list:
    """The subterms of t, one per position, in positions(t) order.  A subtree
    is one contiguous block of it, 2*Siz + 1 long; nothing is cached."""
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        # down the left spine; each right child waits on the stack
        while type(u) is Node:
            out.append(u)
            stack.append(u.right)
            u = u.left
        out.append(u)
    return out


def outermost(subterms, flags) -> list:
    """The flagged indexes of subterms == preorder(t) in no other flagged
    one's block, ascending: the prefix-minimal flagged positions."""
    kept, i = [], 0
    try:
        while True:
            i = flags.index(True, i)
            kept.append(i)
            i += 2 * subterms[i].size + 1
    except ValueError:
        return kept


def splice(subterms, starts, u: Term) -> Term:
    """t, whose preorder is subterms, with u at the ascending, disjoint starts.
    Only the ancestors of a start are built; the subtrees beside them stay."""
    items, i, n = [], 0, len(subterms)
    for s in [*starts, n]:
        while i < s:  # each ancestor of s is built anew, each subtree before s kept
            end = i + 2 * subterms[i].size + 1
            items.append(None if end > s else subterms[i])
            i = i + 1 if end > s else end
        if s < n:
            items.append(u)
            i = s + 2 * subterms[s].size + 1
    return _build(items)


def _build(items) -> Term:
    # right to left, each f (a None) finds its left child on top of the stack
    stack = []
    for c in reversed(items):
        stack.append(Node(stack.pop(), stack.pop()) if c is None else c)
    return stack[0]


# ---------------------------------------------------------------------------
# valuations and variables


def valuations(t: Term):
    """(Len, Siz, Depth) of t."""
    return (t.length, t.size, t.depth)


def variables(t: Term):
    """Variable indexes at the leaves of t, in left-to-right order."""
    got = t._vars
    if got is None:
        out = []
        stack = [t]
        while stack:
            u = stack.pop()
            if u._vars is not None:
                out.extend(u._vars)
            else:
                stack.append(u.right)
                stack.append(u.left)
        got = tuple(out)
        _set(t, "_vars", got)
    return got


def var_set(t: Term):
    """Set of variable indexes occurring in t."""
    return set(variables(t))


def max_var_index(*terms: Term) -> int:
    """Largest variable index occurring in any of the terms (0 if none given)."""
    return max((max(variables(t)) for t in terms), default=0)


def subterm_set(t: Term):
    """Sub(t): the set of distinct subterms of t.

    Its iteration order is arbitrary and differs between runs (terms hash
    by identity), so callers sort it or only test membership.
    """
    return set(preorder(t))


def substitute(t: Term, mapping) -> Term:
    """Replace each variable x_i with mapping[i] (variables not in mapping stay).

    Walks like fold_term but keeps no memo: for the small patterns most
    callers substitute into, hashing each subterm costs more than it saves.
    """
    stack = []
    while True:
        while type(t) is Node:
            stack.append(t)
            t = t.left
        value = mapping.get(t.index, t)
        while stack:
            u = stack.pop()
            if type(u) is tuple:
                value = Node(u[0], value)
            else:
                stack.append((value,))
                t = u.right
                break
        else:
            return value


def fold_term(t: Term, leaf, node, memo):
    """Bottom-up value of t: leaf(x) at a variable, node(left, right) above.

    memo maps terms to values (never None) and keeps every value computed,
    so shared subterms are folded once; a term already in memo is returned
    without a walk.  The walk goes down left spines; a node waits on the
    stack for its left value, then, paired with that value, for its right.
    """
    stack = []
    while True:
        value = memo.get(t)
        while value is None:
            if type(t) is Var:
                value = memo[t] = leaf(t)
                break
            stack.append(t)
            t = t.left
            value = memo.get(t)
        while stack:
            u = stack.pop()
            if type(u) is tuple:
                value = memo[u[0]] = node(u[1], value)
            else:
                stack.append((u, value))
                t = u.right
                break
        else:
            return value


def rename_canonical(t: Term) -> Term:
    """Rename variables to x1, x2, ... by first left-to-right occurrence."""
    seen = {}
    for i in variables(t):
        if i not in seen:
            seen[i] = len(seen) + 1
    return substitute(t, {i: Var(j) for i, j in seen.items()})


# ---------------------------------------------------------------------------
# flat codes and the array encoding
#
# A term's flat code is its preorder as a tuple: 0 for each f and i for each
# x_i.  Codes are equal iff the terms are, and the subterm at each position
# is one contiguous slice, so a term can be rewritten by splicing slices
# without building or interning terms (Christian, "Flatterms, discrimination
# nets, and fast term rewriting", J. Automated Reasoning 10, 1993).


def flat_code(t: Term) -> tuple:
    return tuple(0 if type(u) is Node else u.index for u in preorder(t))


def from_flat_code(code) -> Term:
    return _build([Var(c) if c else None for c in code])


def code_ends(code) -> list:
    """end[k]: the index just past the subterm that starts at k.  A node's
    right child starts where its left child, at k + 1, ends."""
    end = [0] * len(code)
    for k in range(len(code) - 1, -1, -1):
        end[k] = k + 1 if code[k] else end[end[k + 1]]
    return end


@dataclass(frozen=True)
class TermArrays:
    """A term as its sorted position list plus its leaf variable indexes."""

    positions: tuple
    var_indexes: tuple


def to_arrays(t: Term) -> TermArrays:
    return TermArrays(positions(t), variables(t))


def from_arrays(a: TermArrays) -> Term:
    """Rebuild a term from its arrays; raises MalformedArraysError on bad input.

    The positions must be the left-first preorder of a tree: each is the one
    the walk expects next, and it is a node when its left child follows it.
    """
    pos = tuple(a.positions)
    is_node = []
    expected = [ROOT]  # the positions the walk still owes, the next on top
    for i, p in enumerate(pos):
        if not expected or expected.pop() != p:
            raise MalformedArraysError(
                f"positions are not the left-first preorder of a tree from entry {i + 1} on"
            )
        is_node.append(pos[i + 1 : i + 2] == (p + (1,),))
        if is_node[-1]:
            expected += (p + (2,), p + (1,))
    if expected:
        raise MalformedArraysError(f"position list ends before {position_to_text(expected[-1])}")
    if is_node.count(False) != len(a.var_indexes):
        raise MalformedArraysError(
            f"{is_node.count(False)} leaves but {len(a.var_indexes)} variable indexes"
        )
    for i in a.var_indexes:  # a flat code reads 0 as an f
        if not isinstance(i, int) or i < 1:
            raise MalformedArraysError(f"variable indexes are integers from 1 on, got {i!r}")
    indexes = iter(a.var_indexes)
    return from_flat_code([0 if node else next(indexes) for node in is_node])


# ---------------------------------------------------------------------------
# text syntax: f(A,B) nodes, x<digits> leaves; positions as digit strings, e = root


def term_to_text(t: Term) -> str:
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, Var):
            out.append(f"x{u.index}")
        else:
            out.append("f(")
            stack += (")", u.right, ",", u.left)
    return "".join(out)


_VAR_TOKEN = re.compile(r"x([0-9]+)")


def parse_term(text: str) -> Term:
    """Parse f(A,B) / x<digits> syntax in one left-to-right scan."""
    s = "".join(text.split())
    i = 0
    # one entry per open f( : None until its left argument is parsed
    pending = []
    while True:
        if s.startswith("f(", i):
            pending.append(None)
            i += 2
            continue
        m = _VAR_TOKEN.match(s, i)
        if m is None:
            if s.startswith("x", i):
                raise ParseError(f"expected digits after 'x' at {s[i:]!r}")
            raise ParseError(f"expected term at {s[i:]!r}")
        index = int(m.group(1))
        if index < 1:
            raise ParseError(f"variable indexes start at 1, got {m.group()!r}")
        term = Var(index)
        i = m.end()
        # close every f( whose right argument just ended
        while pending and pending[-1] is not None:
            if not s.startswith(")", i):
                raise ParseError(f"expected ')' at {s[i:]!r}")
            term = Node(pending.pop(), term)
            i += 1
        if not pending:
            break
        if not s.startswith(",", i):
            raise ParseError(f"expected ',' at {s[i:]!r}")
        pending[-1] = term
        i += 1
    if i < len(s):
        raise ParseError(f"trailing input {s[i:]!r} after term")
    return term


# the digit bytes of a position (1 and 2 as bytes 1 and 2) to their text
_DIGIT_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")


def position_to_text(p: Position) -> str:
    return "e" if not p else bytes(p).translate(_DIGIT_TEXT).decode()


def parse_position(text: str) -> Position:
    s = text.strip()
    if s == "e" or s == "":
        return ()
    if not all(c in "12" for c in s):
        raise ParseError(f"position must be over digits 1/2 or 'e', got {text!r}")
    return tuple(int(c) for c in s)


# ---------------------------------------------------------------------------
# enumeration and random generation helpers


def enumerate_terms(max_depth: int, num_vars: int):
    """All terms of depth <= max_depth over variables x1..x_num_vars."""
    by_depth = [tuple(Var(i) for i in range(1, num_vars + 1))]
    yield from by_depth[0]
    for d in range(1, max_depth + 1):
        upto_prev = tuple(itertools.chain.from_iterable(by_depth))
        exact_prev = by_depth[d - 1]
        level = []
        # at least one child must have depth exactly d-1
        for a in exact_prev:
            for b in upto_prev:
                level.append(Node(a, b))
        for a in upto_prev:
            if a.depth < d - 1:
                for b in exact_prev:
                    level.append(Node(a, b))
        by_depth.append(tuple(level))
        yield from level


def enumerate_terms_by_length(max_length: int, num_vars: int):
    """All terms with Len <= max_length over x1..x_num_vars."""
    by_len = {1: tuple(Var(i) for i in range(1, num_vars + 1))}
    yield from by_len[1]
    for n in range(2, max_length + 1):
        level = []
        for k in range(1, n):
            for a in by_len[k]:
                for b in by_len[n - k]:
                    level.append(Node(a, b))
        by_len[n] = tuple(level)
        yield from level


def random_term(rng: random.Random, max_depth: int, num_vars: int, leaf_prob: float = 0.4) -> Term:
    """A random term of depth <= max_depth; leaves drawn uniformly."""
    if max_depth == 0 or rng.random() < leaf_prob:
        return Var(rng.randint(1, num_vars))
    return Node(
        random_term(rng, max_depth - 1, num_vars, leaf_prob),
        random_term(rng, max_depth - 1, num_vars, leaf_prob),
    )

"""Equational theories and the three-valued equivalence oracle.

Each built-in theory ships an exact decider (a canonical key such that two
terms are equal in the theory iff their keys coincide).  Arbitrary axiom
sets degrade to a bounded oracle: refutation by finite counter-model search,
proof by bounded bidirectional rewriting, Unknown otherwise.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .algebras import FiniteAlgebra, ModelStack, distinguish_over_models, term_values
from .errors import (
    BoundsError,
    ModelSearchLimitError,
    NonOrientableError,
    ParseError,
    UndecidedError,
)
from .terms import (
    Node,
    Term,
    Var,
    enumerate_terms_by_length,
    fold_term,
    fresh_var_index,
    max_var_index,
    parse_term,
    positions,
    rename_canonical,
    replace_at,
    subterm_at,
    subterm_set,
    substitute,
    term_to_text,
    var_set,
    variables,
)

PROVED = "proved"
REFUTED = "refuted"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Identity:
    """An identity lhs ~ rhs between two terms."""

    lhs: Term
    rhs: Term

    def flipped(self):
        return Identity(self.rhs, self.lhs)

    def text(self):
        return f"{term_to_text(self.lhs)} = {term_to_text(self.rhs)}"

    @classmethod
    def parse(cls, text: str) -> "Identity":
        for sep in ("=", "~"):
            if sep in text:
                l, r = text.split(sep, 1)
                return cls(parse_term(l), parse_term(r))
        raise ParseError(f"identity must be written lhs=rhs, got {text!r}")


@dataclass(frozen=True)
class OracleConfig:
    max_model_size: int = 3
    max_deduction_term_size: int = 12
    max_deduction_steps: int = 100_000

    def __post_init__(self):
        if min(self.max_model_size, self.max_deduction_term_size, self.max_deduction_steps) < 1:
            raise BoundsError("oracle bounds must be positive")


# --- verdict certificates ---------------------------------------------------


@dataclass(frozen=True)
class Derivation:
    """Why an identity is proved: a method tag plus a chain of term texts."""

    method: str
    steps: tuple


@dataclass(frozen=True)
class CounterModel:
    """A finite algebra plus an assignment on which the two terms differ."""

    algebra: FiniteAlgebra
    assignment: tuple  # sorted (var_index, value) pairs


@dataclass(frozen=True)
class DistinctCanonicalKeys:
    """Refutation by an exact decider when no small counter-model was found."""

    left_key: str
    right_key: str


@dataclass(frozen=True)
class ExhaustedBounds:
    max_model_size: int
    max_deduction_term_size: int
    max_deduction_steps: int


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: object = None

    @property
    def proved(self):
        return self.outcome == PROVED

    @property
    def refuted(self):
        return self.outcome == REFUTED

    @property
    def unknown(self):
        return self.outcome == UNKNOWN


# --- pattern matching, substitution, unification ----------------------------


def match_pattern(pattern: Term, term: Term):
    """Match pattern against term: {var_index: Term}, bound in the order the
    variables occur in the pattern, or None."""
    binding = {}
    stack = []
    while True:
        if type(pattern) is Var:
            if binding.setdefault(pattern.index, term) is not term:
                return None
            if not stack:
                return binding
            pattern, term = stack.pop()
        elif type(term) is Node:
            stack.append((pattern.right, term.right))
            pattern, term = pattern.left, term.left
        else:
            return None


def _walk(t: Term, sub) -> Term:
    while isinstance(t, Var) and t.index in sub:
        t = sub[t.index]
    return t


def unify(a: Term, b: Term):
    """Most general unifier of a and b as {var_index: Term}, or None; a bound
    term may hold variables bound later (Baader & Nipkow, ch. 4)."""
    sub = {}
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        a, b = _walk(a, sub), _walk(b, sub)
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a
        if isinstance(a, Var):
            if a is b:
                continue
            if a.index in var_set(resolve(b, sub)):
                return None  # occurs check
            sub[a.index] = b
        else:
            stack += ((a.right, b.right), (a.left, b.left))
    return sub


def resolve(t: Term, sub) -> Term:
    """Apply a unifier in full; its chains of bindings end by the occurs check."""
    while not sub.keys().isdisjoint(variables(t)):
        t = substitute(t, sub)
    return t


# --- single-rule rewriting ---------------------------------------------------


def rule_orientable(rule: Identity) -> bool:
    return rule.lhs.size > rule.rhs.size and var_set(rule.rhs) <= var_set(rule.lhs)


def _multiplicities(t: Term):
    out = {}
    for i in variables(t):
        out[i] = out.get(i, 0) + 1
    return out


def rule_size_decreasing(rule: Identity) -> bool:
    """True when every rewrite instance strictly shrinks the term."""
    if not rule_orientable(rule):
        return False
    ml, mr = _multiplicities(rule.lhs), _multiplicities(rule.rhs)
    return all(mr.get(i, 0) <= ml.get(i, 0) for i in ml)


def rewrite_nf(t: Term, lhs: Term, rhs: Term, memo=None) -> Term:
    """Innermost normal form of t under the single rule lhs -> rhs.

    memo maps composite terms to their normal forms (a variable is its own).
    An explicit stack replaces recursion, so deep terms are safe: a node
    waits on it for its children, and a redex, as a (redex, contractum)
    pair, for the normal form of its contractum.
    """
    if memo is None:
        memo = {}
    got = memo.get(t)
    if got is not None or isinstance(t, Var):
        return t if got is None else got
    stack = [t]
    while stack:
        u = stack.pop()
        if type(u) is tuple:
            redex, contractum = u
            memo[redex] = memo[contractum]
            continue
        l, r = u.left, u.right
        left = l if isinstance(l, Var) else memo.get(l)
        right = r if isinstance(r, Var) else memo.get(r)
        if left is None or right is None:
            stack.append(u)
            if right is None:
                stack.append(r)
            if left is None:
                stack.append(l)
        elif u not in memo:
            nf = Node(left, right)
            binding = match_pattern(lhs, nf)
            if binding is None:
                memo[u] = nf
            else:
                contractum = substitute(rhs, binding)
                if isinstance(contractum, Var):
                    memo[u] = contractum
                else:
                    stack += ((u, contractum), contractum)
    return memo[t]


def critical_pair_check(rule: Identity) -> bool:
    """Whether every self-overlap of an oriented rule joins."""
    if not rule_orientable(rule):
        raise NonOrientableError(
            f"rule {rule.text()} is not orientable (need Siz(lhs) > Siz(rhs) "
            "and var(rhs) within var(lhs))"
        )
    lhs, rhs = rule.lhs, rule.rhs
    offset = max_var_index(lhs, rhs)
    shift = {i: Var(i + offset) for i in range(1, offset + 1)}
    lhs2, rhs2 = substitute(lhs, shift), substitute(rhs, shift)
    memo = {}
    for p in positions(lhs):
        if p == ():
            continue  # root self-overlap is the trivially joinable renaming
        sub = subterm_at(lhs, p)
        if isinstance(sub, Var):
            continue
        mgu = unify(sub, lhs2)
        if mgu is None:
            continue
        peak = resolve(lhs, mgu)
        inner = replace_at(peak, p, resolve(rhs2, mgu))
        outer = resolve(rhs, mgu)
        if rewrite_nf(inner, lhs, rhs, memo) != rewrite_nf(outer, lhs, rhs, memo):
            return False
    return True


# --- word machinery for semigroup + absorption theories ----------------------


def _word_reduce(word: tuple, i: int, j: int) -> tuple:
    """Shrink a word to length <= 2 with front instances of x1x2x3 -> xi xj."""
    w = list(word)
    while len(w) > 2:
        triple = (w[0], w[1], w[2])
        w[0:3] = [triple[i - 1], triple[j - 1]]
    return tuple(w)


@lru_cache(maxsize=None)
def _two_letter_patterns(i: int, j: int):
    """Equivalence patterns between two-letter words under assoc + absorption.

    Computed once per (i, j) by a bounded congruence closure over words of
    length <= 6 over a 5-letter alphabet; returns the set of first-occurrence
    patterns (a, b, c, d) for which the words ab and cd are equal in the
    theory.  Validated against the bounded deduction oracle in the tests.

    A move rewrites a factor w[start:end] of a word of length n, split into
    three nonempty blocks at c1 < c2, to block i followed by block j; it is
    used when the result has length 2..6.  The result's letters are a fixed
    selection of the word's letters, so one move maps every word of length n
    at once.  Words of each length are numbered by their base-5 code after
    the shorter ones; a move is one int32 array from the codes of its length
    to the numbers of the rewrites.  Classes come from min-label propagation
    along every move plus pointer jumping, until a full pass changes nothing.
    """
    import numpy as np

    letters, max_len = 5, 6
    offset, total = {}, 0
    for n in range(2, max_len + 1):
        offset[n] = total
        total += letters**n
    moves = []  # (number of the first word of length n, rewrite numbers)
    for n in range(3, max_len + 1):
        digits = np.indices((letters,) * n, dtype=np.int32).reshape(n, -1)
        for start in range(n):
            for end in range(start + 3, n + 1):
                for c1 in range(start + 1, end - 1):
                    for c2 in range(c1 + 1, end):
                        blocks = (range(start, c1), range(c1, c2), range(c2, end))
                        picked = [*range(start), *blocks[i - 1], *blocks[j - 1], *range(end, n)]
                        if not 2 <= len(picked) <= max_len:
                            continue
                        code = np.full(letters**n, offset[len(picked)], dtype=np.int32)
                        weight = 1
                        for c in reversed(picked):
                            code += weight * digits[c]
                            weight *= letters
                        moves.append((offset[n], code))
    label = np.arange(total, dtype=np.int32)
    changed = True
    while changed:
        before = label.copy()
        for lo, dst in moves:
            low = np.minimum(label[lo : lo + len(dst)], label[dst])
            label[lo : lo + len(dst)] = low
            np.minimum.at(label, dst, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        changed = not np.array_equal(before, label)

    def number(a, b):
        return offset[2] + a * letters + b

    patterns = set()
    for a, b, c, d in itertools.product(range(letters), repeat=4):
        if label[number(a, b)] == label[number(c, d)]:
            patterns.add(_occurrence_pattern((a, b, c, d)))
    return frozenset(patterns)


def _occurrence_pattern(seq):
    seen = {}
    out = []
    for x in seq:
        if x not in seen:
            seen[x] = len(seen)
        out.append(seen[x])
    return tuple(out)


# --- theories ----------------------------------------------------------------

def _ground_collapse_proved(rule: Identity) -> bool:
    """Bounded proof that a rule merges all composite terms into one class.

    Runs congruence closure over every term of size <= 4 built from four
    leaf symbols and asks whether f(a,b) and f(c,d) with four distinct
    leaves end up identified.  Sound: every union is a rule instance or a
    congruence step; the leaves act as free variables.

    The seeds are the rule's instances at the root: each universe term sub
    that matches one side is united with the other side under the binding
    (unbound variables range over the leaves), when that instance inst is
    in the universe.  Its Len is read off the binding before it is built.
    This gives the same partition as seeding with every instance in every
    context, C[sub] ~ C[inst], for all C with both terms in the universe:
    the universe is closed under subterms, so sub, inst and each
    intermediate C'[sub] and C'[inst] lie in it, and congruence re-derives
    C[sub] ~ C[inst] from sub ~ inst one context level at a time.
    Conversely each root seed is such a seed with the empty context.
    """
    leaves = [Var(i) for i in range(1, 5)]
    max_len = 5
    universe = list(enumerate_terms_by_length(max_len, 4))
    index = {t: k for k, t in enumerate(universe)}
    parent = list(range(len(universe)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    directions = [
        (src, dst, variables(dst)) for src, dst in ((rule.lhs, rule.rhs), (rule.rhs, rule.lhs))
    ]
    for k, sub in enumerate(universe):
        for src, dst, dst_vars in directions:
            binding = match_pattern(src, sub)
            if binding is None:
                continue
            # Len of the instance; an unbound variable takes a leaf
            if sum(binding[i].length if i in binding else 1 for i in dst_vars) > max_len:
                continue
            missing = sorted(set(dst_vars) - binding.keys())
            for combo in itertools.product(leaves, repeat=len(missing)):
                binding.update(zip(missing, combo))
                union(k, index[substitute(dst, binding)])

    # congruence: nodes whose children share classes share a class
    nodes = [
        (k, index[t.left], index[t.right]) for k, t in enumerate(universe) if isinstance(t, Node)
    ]
    changed = True
    while changed:
        changed = False
        root = [find(k) for k in range(len(universe))]
        sig = {}
        for k, l, r in nodes:
            first = sig.setdefault((root[l], root[r]), k)
            if find(first) != find(k):
                union(first, k)
                changed = True
    return find(index[Node(leaves[0], leaves[1])]) == find(index[Node(leaves[2], leaves[3])])


_X1, _X2, _X3 = Var(1), Var(2), Var(3)
ASSOC = Identity(Node(Node(_X1, _X2), _X3), Node(_X1, Node(_X2, _X3)))
IDEMPOTENT_AXIOM = Identity(Node(_X1, _X1), _X1)
COMMUTATIVE_AXIOM = Identity(Node(_X1, _X2), Node(_X2, _X1))


def absorption_axiom(i: int, j: int) -> Identity:
    return Identity(Node(Node(_X1, _X2), _X3), Node(Var(i), Var(j)))


class Theory:
    """Base class: named axioms plus an equivalence-decision strategy."""

    name = "theory"
    exact = False  # exact deciders never answer Unknown

    def __init__(self, config: OracleConfig | None = None):
        self.config = config or OracleConfig()
        # every memo kept for this theory, by this class and by the modules
        # built on it (essentiality, reduction); none attaches its own
        self._key_cache = {}  # term -> canonical key; the normal form's memo
        self._key_vectors = {}  # t -> key_vector(t), exact theories only
        self._equal_cache = {}  # (t, s) -> (bounded answer, proof path)
        self._refute_cache = {}  # (t, s) -> (counter-model or None,)
        self._models_by_size = {}  # size -> ModelStack of all models
        self._essentiality_cache = {}  # rename_canonical(t) -> its position report
        self._essentiality_by_term = {}  # t -> the same report object, shared by renaming
        self._rd_cache = {}  # t -> reduction.reducible_pairs(t)
        self._rm_cache = {}  # t -> reduction.removable_positions(t)

    @property
    def axioms(self):
        raise NotImplementedError

    def canonical_key(self, t: Term):
        """Hashable key with key(t) == key(s) iff the theory proves t = s.

        None when the theory has no exact decider.
        """
        return None

    # -- equality -------------------------------------------------------------

    def equal(self, t: Term, s: Term):
        """Three-valued equality: True, False, or None (undecided)."""
        if t == s:
            return True
        if self.exact:
            return self._cached_key(t) == self._cached_key(s)
        got = self._equal_cache.get((t, s))
        if got is not None:
            return got[0]
        answer, path = self._equal_bounded(t, s)
        self._equal_cache[(t, s)] = (answer, path)
        # the proof of s = t walks the same path backwards
        self._equal_cache[(s, t)] = (answer, None if path is None else path[::-1])
        return answer

    def holds(self, t: Term, s: Term) -> bool:
        """equal(t, s) for a caller that needs an answer: raises
        UndecidedError, naming both terms, when the oracle has none."""
        answer = self.equal(t, s)
        if answer is None:
            raise UndecidedError(f"equivalence of {t} and {s} undecided", query=(t, s))
        return answer

    def _cached_key(self, t: Term):
        key = self._key_cache.get(t)
        if key is None:
            key = self.canonical_key(t)
            self._key_cache[t] = key
        return key

    def key_vector(self, t: Term) -> tuple:
        """The canonical keys of t's subterms, in positions(t) order (exact
        theories only).

        In that left-first preorder the subtree of the i-th position holds
        the positions i .. i + 2*Siz + 1 (excluded) of its subterm, so a
        prefix test becomes an index range.
        """
        got = self._key_vectors.get(t)
        if got is None:
            key = self._cached_key
            out = []
            stack = [t]
            while stack:
                u = stack.pop()
                out.append(key(u))
                if type(u) is Node:
                    stack += (u.right, u.left)
            got = self._key_vectors[t] = tuple(out)
        return got

    def _equal_bounded(self, t, s):
        raise NotImplementedError

    def decide(self, t: Term, s: Term) -> Verdict:
        """Full verdict with a certificate attached."""
        answer = self.equal(t, s)
        if answer is True:
            return Verdict(PROVED, self._proof_certificate(t, s))
        if answer is False:
            found = self.refute(t, s)
            if found is not None:
                algebra, assignment = found
                return Verdict(
                    REFUTED, CounterModel(algebra, tuple(sorted(assignment.items())))
                )
            return Verdict(
                REFUTED,
                DistinctCanonicalKeys(repr(self._cached_key(t)), repr(self._cached_key(s))),
            )
        return Verdict(
            UNKNOWN,
            ExhaustedBounds(
                self.config.max_model_size,
                self.config.max_deduction_term_size,
                self.config.max_deduction_steps,
            ),
        )

    def _proof_certificate(self, t, s):
        if t == s:
            return Derivation("reflexivity", (term_to_text(t),))
        if self.exact:
            key = self._cached_key(t)
            key_text = term_to_text(key) if isinstance(key, Term) else repr(key)
            return Derivation("canonical-form", (term_to_text(t), key_text, term_to_text(s)))
        payload = self._equal_cache.get((t, s), (None, None))[1]
        steps = tuple(term_to_text(u) for u in payload) if payload else ()
        return Derivation("rewrite-path", steps)

    # -- finite models ----------------------------------------------------------

    def axiom_pairs(self):
        return tuple((ax.lhs, ax.rhs) for ax in self.axioms)

    def models(self, max_size: int | None = None):
        """All models of the axioms with carrier size <= max_size (cached)."""
        if max_size is None:
            max_size = self.config.max_model_size
        return [m for size in range(1, max_size + 1) for m in self._model_stack(size).algebras]

    def _model_stack(self, size: int) -> ModelStack:
        stack = self._models_by_size.get(size)
        if stack is None:
            stack = self._models_by_size[size] = _models_vectorized(self.axiom_pairs(), size)
        return stack

    def refute(self, t: Term, s: Term):
        """(model, assignment) distinguishing t and s, or None."""
        got = self._refute_cache.get((t, s))
        if got is not None:
            return got[0]
        found = None
        for size in range(2, self.config.max_model_size + 1):
            found = distinguish_over_models(self._model_stack(size), t, s)
            if found is not None:
                break
        self._refute_cache[(t, s)] = (found,)
        return found

    # -- misc -------------------------------------------------------------------

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"

    def _ident(self):
        return (type(self).__name__, self.name, self.config)

    def __eq__(self, other):
        return isinstance(other, Theory) and other._ident() == self._ident()

    def __hash__(self):
        return hash(self._ident())


_MAX_SCANNED_TABLES = 4_000_000  # 3**9 tables fit; 4**16 never finishes
# tables evaluated at once: bounds the memo of subterm values to a few MiB
_TABLES_PER_SLICE = 3**7


def _models_vectorized(axiom_pairs, size) -> ModelStack:
    """All satisfying tables of one size, in the order of their flat encoding:
    every axiom is evaluated over stacks of all size**(size*size) tables."""
    import numpy as np

    cells = size * size
    count = size**cells
    if count > _MAX_SCANNED_TABLES:
        raise ModelSearchLimitError(
            f"model search at size {size} would scan {count} Cayley tables; "
            f"at most {_MAX_SCANNED_TABLES} are scanned (sizes up to 3)"
        )
    tables = np.indices((size,) * cells, dtype=np.intp).reshape(cells, count).T
    axioms = [(lhs, rhs, sorted(var_set(lhs) | var_set(rhs))) for lhs, rhs in axiom_pairs]
    keep = np.ones(count, dtype=bool)
    for start in range(0, count, _TABLES_PER_SLICE):
        part = slice(start, start + _TABLES_PER_SLICE)
        stack = ModelStack(size, tables[part])
        for lhs, rhs, vs in axioms:
            memo = {}
            lhs_values = term_values(stack, lhs, vs, memo)
            keep[part] &= (lhs_values == term_values(stack, rhs, vs, memo)).all(axis=1)
    return ModelStack(size, tables[keep])


class IdempotentTheory(Theory):
    """f(x1,x1) = x1; decided by the collapse normal form."""

    name = "idempotent"
    exact = True

    @property
    def axioms(self):
        return (IDEMPOTENT_AXIOM,)

    def normal_form(self, t: Term) -> Term:
        return fold_term(t, _leaf_itself, _collapse_pair, self._key_cache)

    def canonical_key(self, t: Term):
        return self.normal_form(t)


def term_sort_key(t: Term):
    """A cheap deterministic total order on terms: (Len, leaves, positions)."""
    return (t.length, variables(t), positions(t))


def _sorts_before(a: Term, b: Term) -> bool:
    """term_sort_key(a) < term_sort_key(b), reading only what decides it."""
    if a.length != b.length:
        return a.length < b.length
    va, vb = variables(a), variables(b)
    if va != vb:
        return va < vb
    return positions(a) < positions(b)


def _leaf_itself(x: Var) -> Term:
    return x


def _collapse_pair(l: Term, r: Term) -> Term:
    return l if l == r else Node(l, r)


def _sorted_pair(l: Term, r: Term) -> Node:
    return Node(r, l) if _sorts_before(r, l) else Node(l, r)


class CommutativeTheory(Theory):
    """f(x1,x2) = f(x2,x1); decided by recursively sorting children."""

    name = "commutative"
    exact = True

    @property
    def axioms(self):
        return (COMMUTATIVE_AXIOM,)

    def normal_form(self, t: Term) -> Term:
        return fold_term(t, _leaf_itself, _sorted_pair, self._key_cache)

    def canonical_key(self, t: Term):
        return self.normal_form(t)


class SemigroupAbsorptionTheory(Theory):
    """Associativity plus f(f(x1,x2),x3) = f(x_i,x_j), i,j in {1,2,3}.

    Terms flatten to words; every word of length >= 3 shrinks to length 2,
    and the residual equivalence on two-letter words is a finite pattern
    table computed by bounded congruence closure.
    """

    exact = True

    def __init__(self, i: int, j: int, config=None):
        if i not in (1, 2, 3) or j not in (1, 2, 3):
            raise BoundsError("absorption indexes must lie in {1,2,3}")
        self.i, self.j = i, j
        self.name = f"sg-abs-{i}-{j}"
        super().__init__(config)

    @property
    def axioms(self):
        return (ASSOC, absorption_axiom(self.i, self.j))

    def canonical_key(self, t: Term):
        word = variables(t)
        if len(word) == 1:
            return ("var", word[0])
        a, b = _word_reduce(word, self.i, self.j)
        patterns = _two_letter_patterns(self.i, self.j)
        # canonical representative of the two-letter class; fresh placeholder
        # letters (None, 1) / (None, 2) sort below concrete variable indexes
        candidates = []
        f1, f2 = max(a, b) + 1, max(a, b) + 2
        for c in (f1, a, b):
            for d in (f1, f2, a, b, c):
                if _occurrence_pattern((a, b, c, d)) in patterns:
                    candidates.append((self._slot(c, a, b, f1, f2), self._slot(d, a, b, f1, f2)))
        return ("word", min(candidates))

    @staticmethod
    def _slot(x, a, b, f1, f2):
        if x == f1:
            return (0, 1)
        if x == f2:
            return (0, 2)
        return (1, x)


class AxiomsTheory(Theory):
    """Arbitrary finite axiom list with the bounded three-valued oracle."""

    def __init__(self, axioms, config=None, name=None):
        axioms = tuple(axioms)
        self._axioms = axioms
        self.name = name or "axioms:" + ";".join(ax.text() for ax in axioms)
        super().__init__(config)
        self._assoc_only = len(axioms) == 1 and _is_associativity(axioms[0])
        self.exact = self._assoc_only
        # each axiom as two rewrite rules over flat codes, for _neighbors
        self._rules = tuple(
            _flat_rule(src, dst)
            for ax in axioms
            for src, dst in ((ax.lhs, ax.rhs), (ax.rhs, ax.lhs))
        )

    @property
    def axioms(self):
        return self._axioms

    def canonical_key(self, t: Term):
        if self._assoc_only:
            return ("word", variables(t))
        return None

    def _equal_bounded(self, t, s):
        if self.refute(t, s) is not None:
            return False, None
        path = self._bfs_prove(t, s)
        if path is not None:
            return True, path
        return None, None

    def _neighbors(self, code):
        """Every term one axiom replacement away from the term with this flat
        code, as codes, in order: positions left-first, then axioms, each
        left-to-right before right-to-left, then pool combinations.

        A right-side variable the left side lacks takes each value of the
        pool: up to three of the term's variables and one fresh one, then
        its three smallest composite subterms.  Among subterms of one size
        the pool keeps subterm_set's iteration order, which follows the
        structural term hashes, so it is the same in every run; the bounded
        search's Unknowns depend on it.  Results larger than
        max_deduction_term_size are dropped.
        """
        out = []
        end = _extents(code)
        n = len(code)
        # the largest replacement that keeps the result within the cap is
        # room = cap - Siz(term) + Siz(subterm); Siz of a code is (len - 1) / 2
        room0 = self.config.max_deduction_term_size - (n - 1 >> 1)
        pool = None
        for k in range(n):
            e = end[k]
            room = room0 + (e - k - 1 >> 1)
            for src, template, dst_vars, dst_size, missing in self._rules:
                # match src against the subterm at k, binding slices
                binding = {}
                i = k
                for p in src:
                    if p:
                        j = end[i]
                        piece = code[i:j]
                        if binding.setdefault(p, piece) != piece:
                            break
                        i = j
                    elif code[i]:
                        break
                    else:
                        i += 1
                else:
                    if missing:
                        if pool is None:
                            pool = _replacement_pool(code)
                        combos = itertools.product(pool, repeat=len(missing))
                    else:
                        combos = ((),)
                    for combo in combos:
                        b = dict(binding)
                        b.update(zip(missing, combo))
                        size = dst_size
                        for v in dst_vars:
                            size += len(b[v]) - 1 >> 1
                        if size <= room:
                            inst = code[:k]
                            for piece in template:
                                inst += b[piece] if type(piece) is int else piece
                            out.append(inst + code[e:])
        return out

    def _bfs_prove(self, t, s):
        """Bidirectional bounded search over single axiom replacements: a
        rewrite path from t to s, or None.

        The search runs on flat codes and rebuilds terms only for the path
        it returns.  A budget of max_deduction_steps = k expands at most
        k - 1 terms: the k-th step ends the search before its expansion, so
        a budget of 1 proves nothing but t = t.
        """
        if t == s:
            return (t,)
        steps = 0
        limit = self.config.max_deduction_steps
        a, b = _flat_code(t), _flat_code(s)
        side_a, side_b = {a: (a,)}, {b: (b,)}
        frontier_a, frontier_b = deque([a]), deque([b])
        while frontier_a and frontier_b and steps < limit:
            # expand the smaller frontier
            if len(frontier_a) <= len(frontier_b):
                frontier, seen, other = frontier_a, side_a, side_b
            else:
                frontier, seen, other = frontier_b, side_b, side_a
            for _ in range(len(frontier)):
                u = frontier.popleft()
                steps += 1
                if steps >= limit:
                    break
                for n in self._neighbors(u):
                    if n in seen:
                        continue
                    seen[n] = seen[u] + (n,)
                    if n in other:
                        path = side_a[n] + side_b[n][-2::-1]
                        return tuple(_from_flat_code(c) for c in path)
                    frontier.append(n)
        return None


class GroupoidSingleRuleTheory(AxiomsTheory):
    """A single size-decreasing rule.

    Exact when the rewrite system is convergent (normal forms decide), or when
    the rule provably collapses all composite terms into one class (the rule's
    own bounded prover derives f(x1,x2) = f(x3,x4), e.g. f(f(x1,x2),x3) =
    f(x2,x1)); otherwise falls back to the bounded three-valued oracle.
    """

    def __init__(self, rule: Identity, config=None):
        self.rule = rule
        super().__init__((rule,), config, name=f"grp-rule:{rule.text()}")
        self.convergent = rule_size_decreasing(rule) and critical_pair_check(rule)
        self.node_collapse = (
            not self.convergent
            and isinstance(rule.lhs, Node)
            and isinstance(rule.rhs, Node)
            and _ground_collapse_proved(rule)
        )
        self.exact = self.convergent or self.node_collapse

    def normal_form(self, t: Term) -> Term:
        """The normal form of t, which is its key, so it shares the key memo."""
        if not self.convergent:
            raise NonOrientableError(f"rewriting with {self.rule.text()} is not convergent")
        return rewrite_nf(t, self.rule.lhs, self.rule.rhs, self._key_cache)

    def canonical_key(self, t: Term):
        if self.convergent:
            return self.normal_form(t)
        if self.node_collapse:
            # any composite term is provably equal to any other; a rule with
            # composite terms on both sides never merges a variable in
            return ("node",) if isinstance(t, Node) else ("var", t.index)
        return None


# --- flat codes for the bounded proof search -----------------------------------
#
# A term's flat code is its left-first preorder as a tuple: 0 for each f and i
# for each x_i.  Codes are equal iff the terms are, and the subterm at each
# position is one contiguous slice, so a neighbour is built by splicing one
# slice without building or interning terms (Christian, "Flatterms,
# discrimination nets, and fast term rewriting", J. Automated Reasoning 10,
# 1993).


def _flat_code(t: Term) -> tuple:
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if type(u) is Node:
            out.append(0)
            stack += (u.right, u.left)
        else:
            out.append(u.index)
    return tuple(out)


def _from_flat_code(code) -> Term:
    # right to left, each f finds its left child on top of the stack
    stack = []
    for c in reversed(code):
        stack.append(Var(c) if c else Node(stack.pop(), stack.pop()))
    return stack[0]


def _extents(code) -> list:
    """end[k]: the index just past the subterm that starts at k."""
    end = [0] * len(code)
    # ends of the subterms that start after k, the leftmost on top
    stack = []
    for k in range(len(code) - 1, -1, -1):
        if code[k]:
            stack.append(k + 1)
        else:
            # a node ends where its right child does: drop the left child's end
            stack.pop()
        end[k] = stack[-1]
    return end


def _flat_rule(src: Term, dst: Term):
    """src -> dst compiled for _neighbors: src's code; dst's code as a
    template, with (0,) for each f and a variable index to fill; dst's
    variables with multiplicity; Siz(dst); and dst's variables that src
    lacks, sorted."""
    template = tuple(c or (0,) for c in _flat_code(dst))
    dst_vars = variables(dst)
    missing = tuple(sorted(set(dst_vars) - set(variables(src))))
    return _flat_code(src), template, dst_vars, dst.size, missing


def _replacement_pool(code) -> list:
    """The values, as codes, that _neighbors gives a right-side variable
    the left side lacks."""
    t = _from_flat_code(code)
    pool = [Var(i) for i in sorted(var_set(t))[:3] + [fresh_var_index(t)]]
    # sorted is stable, so subterms of one size keep the set's order
    pool += sorted((u for u in subterm_set(t) if type(u) is Node), key=lambda u: u.size)[:3]
    return [_flat_code(u) for u in pool]


def _is_associativity(ax: Identity) -> bool:
    """Whether ax is associativity, either way round, up to renaming; a
    right-side variable the left side lacks gets its own name, so
    f(f(x4,x5),x6) = f(x4,f(x5,x3)) is not."""
    sides = (rename_canonical(Node(ax.lhs, ax.rhs)), rename_canonical(Node(ax.rhs, ax.lhs)))
    return Node(ASSOC.lhs, ASSOC.rhs) in sides


# --- names and files ------------------------------------------------------------


def theory_from_name(name: str, config: OracleConfig | None = None) -> Theory:
    """Resolve a built-in theory name.

    idempotent | commutative | assoc | sg-abs-I-J | grp-rule:<lhs>=<rhs>
    """
    if name == "idempotent":
        return IdempotentTheory(config)
    if name == "commutative":
        return CommutativeTheory(config)
    if name in ("assoc", "associative"):
        return AxiomsTheory((ASSOC,), config, name="assoc")
    if name.startswith("sg-abs-"):
        parts = name.split("-")
        if len(parts) == 4 and parts[2].isdigit() and parts[3].isdigit():
            return SemigroupAbsorptionTheory(int(parts[2]), int(parts[3]), config)
    if name.startswith("grp-rule:"):
        return GroupoidSingleRuleTheory(Identity.parse(name[len("grp-rule:") :]), config)
    raise ParseError(f"unknown theory name {name!r}")


_ORACLE_FIELDS = {
    "maxModelSize": "max_model_size",
    "maxDeductionTermSize": "max_deduction_term_size",
    "maxDeductionSteps": "max_deduction_steps",
}


_TYPE_NAMES = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _field(obj, key: str, kind, default=None):
    """obj[key], or default when absent, which must be a kind (no boolean is an integer)."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object holding {key!r}, got {obj!r}")
    value = obj.get(key, default)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        got = repr(value) if key in obj else "nothing"
        raise ParseError(f"{key!r} must be {_TYPE_NAMES[kind]}, got {got}")
    return value


def _identity_from_json(obj) -> Identity:
    return Identity(parse_term(_field(obj, "lhs", str)), parse_term(_field(obj, "rhs", str)))


def theory_from_json(obj, max_model_size: int | None = None) -> Theory:
    """Theory from the JSON file schema: {"kind": ..., ...}.

    The optional "oracle" block sets bounds over OracleConfig's defaults;
    max_model_size, when given, overrides that one bound.  A missing or
    mistyped field raises ParseError.
    """
    oracle = _field(obj, "oracle", dict, {})
    unknown = sorted(set(oracle) - set(_ORACLE_FIELDS))
    if unknown:
        raise ParseError(f"unknown oracle bounds {unknown}; known: {sorted(_ORACLE_FIELDS)}")
    bounds = {
        name: _field(oracle, key, int) for key, name in _ORACLE_FIELDS.items() if key in oracle
    }
    if max_model_size is not None:
        bounds["max_model_size"] = max_model_size
    config = OracleConfig(**bounds)
    kind = obj.get("kind")
    if kind == "idempotent":
        return IdempotentTheory(config)
    if kind == "commutative":
        return CommutativeTheory(config)
    if kind == "semigroup-absorption":
        return SemigroupAbsorptionTheory(_field(obj, "i", int), _field(obj, "j", int), config)
    if kind == "groupoid-single-rule":
        return GroupoidSingleRuleTheory(_identity_from_json(_field(obj, "rule", dict)), config)
    if kind == "axioms":
        axioms = _field(obj, "axioms", list)
        return AxiomsTheory(tuple(_identity_from_json(a) for a in axioms), config)
    raise ParseError(f"unknown theory kind {kind!r}")


def load_theory_file(path, max_model_size: int | None = None) -> Theory:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not text, or not JSON
        raise ParseError(f"cannot read theory file {path}: {exc}") from None
    return theory_from_json(obj, max_model_size)

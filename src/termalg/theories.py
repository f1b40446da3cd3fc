"""Equational theories and the three-valued equivalence oracle.

A theory is its axioms plus one decider: an exact key (two terms are equal
in the theory iff their keys coincide), chosen when the theory is built, or
else the bounded oracle: refutation by finite counter-model search, proof
by bounded bidirectional rewriting, Unknown otherwise.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial

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
    code_ends,
    flat_code,
    fold_term,
    from_flat_code,
    max_var_index,
    parse_term,
    positions,
    preorder,
    rename_canonical,
    replace_at,
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
    for p, sub in zip(positions(lhs), preorder(lhs)):
        if not p or isinstance(sub, Var):
            continue  # the root overlap is a mere renaming; a variable overlaps nothing
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


def _numbered_terms(max_len: int, num_leaves: int):
    """The terms with Len <= max_len over x1..x_num_leaves as numbers.

    Ids follow enumerate_terms_by_length: by Len, then by the left child's
    Len, then by left id, then by right id.  So the nodes of Len n whose
    left child has Len k form one block, and their children are a repeat
    and a tile of two contiguous id ranges.  Returns (length, left, right,
    pair): arrays of each id's Len and children (0 for a leaf), and
    pair(a, b), the id of f(a, b) for ids of total Len <= max_len, which is
    first[Len a + Len b, Len a] + rank(a) * count[Len b] + rank(b), where
    rank is an id's place among the terms of its Len.
    """
    import numpy as np

    count, start = [0, num_leaves], [0, 0]
    for n in range(2, max_len + 1):
        count.append(sum(count[k] * count[n - k] for k in range(1, n)))
        start.append(start[n - 1] + count[n - 1])
    first = np.zeros((max_len + 1, max_len + 1), dtype=np.int64)
    leaf_children = np.zeros(num_leaves, dtype=np.int64)
    lefts, rights = [leaf_children], [leaf_children]
    for n in range(2, max_len + 1):
        at = start[n]
        for k in range(1, n):
            first[n, k] = at
            lefts.append(np.repeat(np.arange(start[k], start[k] + count[k]), count[n - k]))
            rights.append(np.tile(np.arange(start[n - k], start[n - k] + count[n - k]), count[k]))
            at += count[k] * count[n - k]
    length = np.repeat(np.arange(max_len + 1), count)
    start, count = np.array(start), np.array(count)

    def pair(a, b):
        la, lb = length[a], length[b]
        return first[la + lb, la] + (a - start[la]) * count[lb] + b - start[lb]

    return length, np.concatenate(lefts), np.concatenate(rights), pair


def _ground_collapse_proved(rule: Identity) -> bool:
    """Bounded proof that a rule merges all composite terms into one class.

    Runs congruence closure over the 15,764 terms of Len <= 5 over four
    leaves and asks whether f(a,b) and f(c,d) with four distinct leaves end
    up identified.  Sound: every union is a rule instance or a congruence
    step; the leaves act as free variables.

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

    The terms are numbers (_numbered_terms) and every step is vectorised
    over them: a side is matched against all ids at once, one leaf choice
    for the unbound variables at a time is merged over all matches, and
    classes are merged by min-label hooking plus pointer jumping.  The
    congruence pass sorts the nodes by the labels of their children and
    merges each run of equal ones, until a pass merges nothing.
    """
    import numpy as np

    max_len, num_leaves = 5, 4
    length, left, right, pair = _numbered_terms(max_len, num_leaves)
    ids = np.arange(len(length))
    label = ids.copy()

    def merge(a, b):
        """Unite the classes of a[k] and b[k] for every k; True if any grew.

        Between calls every label is a root (label[label] == label) and
        label[x] <= x, so hooked roots only point down and jumping ends."""
        merged = False
        while True:
            differ = label[a] != label[b]
            if not differ.any():
                return merged
            merged = True
            a, b = a[differ], b[differ]
            la, lb = label[a], label[b]
            low = np.minimum(la, lb)
            np.minimum.at(label, la, low)
            np.minimum.at(label, lb, low)
            while True:
                jumped = label[label]
                if np.array_equal(jumped, label):
                    break
                label[:] = jumped

    for src, dst in ((rule.lhs, rule.rhs), (rule.rhs, rule.lhs)):
        ok = np.ones(len(ids), dtype=bool)
        binding = {}
        stack = [(src, ids)]
        while stack:
            p, at = stack.pop()
            if type(p) is Var:
                bound = binding.setdefault(p.index, at)
                ok &= bound == at
            else:
                ok &= at >= num_leaves
                stack += [(p.right, right[at]), (p.left, left[at])]
        # Len of the instance; an unbound variable takes a leaf
        dst_vars = variables(dst)
        ok &= sum(length[binding[i]] if i in binding else 1 for i in dst_vars) <= max_len
        sub = ids[ok]
        if not len(sub):  # no instance fits, so no leaf choice seeds anything
            continue
        binding = {i: b[ok] for i, b in binding.items()}
        missing = sorted(set(dst_vars) - binding.keys())
        for combo in itertools.product(range(num_leaves), repeat=len(missing)):
            binding.update((i, np.full(len(sub), leaf)) for i, leaf in zip(missing, combo))
            merge(sub, fold_term(dst, lambda x: binding[x.index], pair, {}))

    # congruence: nodes whose children share classes share a class
    nodes = ids[num_leaves:]
    while True:
        sig = label[left[nodes]] * len(ids) + label[right[nodes]]
        perm = np.argsort(sig)
        same = np.diff(sig[perm]) == 0
        runs = nodes[perm]
        if not merge(runs[1:][same], runs[:-1][same]):
            break
    return bool(label[pair(0, 1)] == label[pair(2, 3)])


_X1, _X2, _X3 = Var(1), Var(2), Var(3)
ASSOC = Identity(Node(Node(_X1, _X2), _X3), Node(_X1, Node(_X2, _X3)))
IDEMPOTENT_AXIOM = Identity(Node(_X1, _X1), _X1)
COMMUTATIVE_AXIOM = Identity(Node(_X1, _X2), Node(_X2, _X1))


def absorption_axiom(i: int, j: int) -> Identity:
    return Identity(Node(Node(_X1, _X2), _X3), Node(Var(i), Var(j)))


class Theory:
    """An equational theory: its axioms, its name, its oracle bounds and one
    decider.  The decider is an exact key function key(t, memo), with memo
    the theory's key cache, or None, and then the bounded oracle answers.

    Given no key, a theory whose one axiom is associativity gets the word key.
    """

    def __init__(self, axioms, config: OracleConfig | None = None, name=None, key=None):
        self.axioms = tuple(axioms)
        self.name = name or "axioms:" + ";".join(ax.text() for ax in self.axioms)
        self.config = config or OracleConfig()
        if key is None and len(self.axioms) == 1 and _is_associativity(self.axioms[0]):
            key = _word_key
        self._key = key
        self.exact = key is not None  # exact deciders never answer Unknown
        # every memo kept for this theory, by this class and by the modules
        # built on it (essentiality, reduction); none attaches its own, and
        # each lives as long as the theory
        self._key_cache = {}  # term -> canonical key; the key function's memo
        self._key_vectors = {}  # t -> key_vector(t), exact theories only
        self._equal_cache = {}  # (t, s), both orders -> (answer, witness); see _witnessed
        self._models_by_size = {}  # size -> ModelStack of all models
        self._essentiality_cache = {}  # rename_canonical(t) -> its (term, verdicts) report
        self._rd_cache = {}  # t -> reduction.reducible_pairs(t), reused by later steps
        self._rm_cache = {}  # t -> reduction.removable_positions(t), reused by later steps
        # each axiom as two rewrite rules over flat codes, for _neighbors
        self._rules = tuple(
            _flat_rule(src, dst)
            for ax in self.axioms
            for src, dst in ((ax.lhs, ax.rhs), (ax.rhs, ax.lhs))
        )

    def canonical_key(self, t: Term):
        """Hashable key with key(t) == key(s) iff the theory proves t = s.

        None when the theory has no exact decider.
        """
        return None if self._key is None else self._key(t, self._key_cache)

    # -- equality -------------------------------------------------------------

    def equal(self, t: Term, s: Term):
        """Three-valued equality: True, False, or None (undecided)."""
        if t == s:
            return True
        if self.exact:
            return self._cached_key(t) == self._cached_key(s)
        return self._witnessed(t, s)[0]

    def _witnessed(self, t: Term, s: Term):
        """(answer, witness) for t != s, memoised under both orders; the only
        writer of _equal_cache.  The witness of False is refute's (model,
        assignment), serving both orders, or None; of True, a rewrite path from
        the left term.  An exact theory is asked only about pairs its keys
        refute, and answers False with no proof search."""
        got = self._equal_cache.get((t, s))
        if got is None:
            found = self.refute(t, s)
            if found is not None or self.exact:
                got = back = (False, found)
            elif (path := self._bfs_prove(t, s)) is not None:
                got, back = (True, path), (True, path[::-1])  # s = t walks it backwards
            else:
                got = back = (None, None)
            self._equal_cache[(t, s)] = got
            self._equal_cache[(s, t)] = back
        return got

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
        """The canonical keys of ``preorder(t)``, in positions(t) order (exact
        theories only), where the subtree at i is the block i .. i + 2*Siz."""
        got = self._key_vectors.get(t)
        if got is None:
            got = self._key_vectors[t] = tuple(map(self._cached_key, preorder(t)))
        return got

    def decide(self, t: Term, s: Term) -> Verdict:
        """Full verdict with a certificate attached."""
        answer = self.equal(t, s)
        if answer is None:
            return Verdict(UNKNOWN, self.config)  # the bounds it exhausted
        if t == s:
            return Verdict(PROVED, Derivation("reflexivity", (term_to_text(t),)))
        if answer and self.exact:
            key = self._cached_key(t)
            key_text = term_to_text(key) if isinstance(key, Term) else repr(key)
            steps = (term_to_text(t), key_text, term_to_text(s))
            return Verdict(PROVED, Derivation("canonical-form", steps))
        witness = self._witnessed(t, s)[1]
        if answer:
            return Verdict(PROVED, Derivation("rewrite-path", tuple(map(term_to_text, witness))))
        if witness is not None:
            algebra, assignment = witness
            return Verdict(REFUTED, CounterModel(algebra, tuple(sorted(assignment.items()))))
        return Verdict(
            REFUTED, DistinctCanonicalKeys(repr(self._cached_key(t)), repr(self._cached_key(s)))
        )

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
        """(model, assignment) distinguishing t and s, or None: the first hit
        over the models of size 2 ... max_model_size, with no memo.

        Each size scans only the first model of each isomorphism class
        (`ModelStack.classes`) and still returns the full scan's first hit.
        A carrier permutation π maps a model M that separates t and s under
        an assignment a to π(M), which separates them under π∘a; so the
        separating models of a stack are a union of classes, and the first
        of them in stack order is the first member of its class.  It is the
        same table, so its first separating assignment, row-major, is the
        same too.
        """
        for size in range(2, self.config.max_model_size + 1):
            found = distinguish_over_models(self._model_stack(size).classes, t, s)
            if found is not None:
                return found
        return None

    # -- the bounded oracle -----------------------------------------------------

    def _neighbors(self, code):
        """Every term one axiom replacement away from the term with this flat
        code, as codes, in order: positions left-first, then axioms, each
        left-to-right before right-to-left, then pool combinations.

        Each rule is compiled once (_flat_rule).  Where its source matches
        at k, the head code[:k] and the tail past the subterm are cut once,
        and the destination's segments are filled from them and the matched
        slices.  A right-side variable the left side lacks takes each value
        of _replacement_pool, read off the code once: with one such
        variable, an instance is value.join(segments).  Results larger than
        max_deduction_term_size, whose codes are longer than 2 * cap + 1,
        are dropped before they are built.
        """
        out = []
        end = code_ends(code)
        longest = 2 * self.config.max_deduction_term_size + 1
        pool = None
        for k in range(len(code)):
            leaf = code[k] != "\0"
            head = None
            for composite, pattern, segments, order, count in self._rules:
                if composite and leaf:
                    continue
                # match the source against the subterm at k, slicing out
                # each variable at its first occurrence
                slices = []
                i = k
                for p in pattern:
                    if not p:
                        if code[i] != "\0":
                            break
                        i += 1
                        continue
                    j = end[i]
                    if p > 0:
                        slices.append(code[i:j])
                    elif code[i:j] != slices[~p]:
                        break
                    i = j
                else:
                    if head is None:
                        head, tail = code[:k], code[end[k] :]
                    if not count:
                        inst = segments[0].format(head, tail, *slices)
                        if len(inst) <= longest:
                            out.append(inst)
                        continue
                    segs = [s.format(head, tail, *slices) for s in segments]
                    fixed = sum(map(len, segs))
                    if pool is None:
                        pool = _replacement_pool(code, end)
                    if count == 1:
                        m = len(order)
                        out += [q.join(segs) for q in pool if fixed + m * len(q) <= longest]
                        continue
                    for combo in itertools.product(pool, repeat=count):
                        values = [combo[o] for o in order]
                        if fixed + sum(map(len, values)) <= longest:
                            out.append("".join(itertools.chain(*zip(segs, values), segs[-1:])))
        return out

    def _bfs_prove(self, t, s):
        """Bidirectional bounded search over single axiom replacements: a
        rewrite path from t to s, or None.

        The search runs on flat codes, strs that cache their hashes for the
        seen and meeting tests, and rebuilds terms only for the path it
        returns.  Each side maps a code to the code it was discovered
        from (None at its root), and the path is read back along both maps
        only when the sides meet.  A budget of max_deduction_steps = k
        expands at most k terms.
        """
        if t == s:
            return (t,)
        steps = 0
        limit = self.config.max_deduction_steps
        a, b = flat_code(t), flat_code(s)
        side_a, side_b = {a: None}, {b: None}
        frontier_a, frontier_b = deque([a]), deque([b])
        while frontier_a and frontier_b and steps < limit:
            # expand the smaller frontier
            if len(frontier_a) <= len(frontier_b):
                frontier, seen, other = frontier_a, side_a, side_b
            else:
                frontier, seen, other = frontier_b, side_b, side_a
            for _ in range(len(frontier)):
                if steps == limit:
                    break
                steps += 1
                u = frontier.popleft()
                for n in self._neighbors(u):
                    if n in seen:
                        continue
                    seen[n] = u
                    if n in other:
                        path = _walk_back(side_a, n)[::-1] + _walk_back(side_b, side_b[n])
                        return tuple(from_flat_code(c) for c in path)
                    frontier.append(n)
        return None

    # -- misc -------------------------------------------------------------------

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


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


def term_sort_key(t: Term):
    """A cheap deterministic total order on terms: (Len, leaves, shape).  The
    shape, the preorder as bytes with 0 per f and 1 per leaf, orders terms of
    one length as their positions do: an f's next position p·1 sorts first."""
    return (t.length, variables(t), _shape(t))


def _shape(t: Term) -> bytes:
    return bytes([type(u) is Var for u in preorder(t)])


def _sorts_before(a: Term, b: Term) -> bool:
    """term_sort_key(a) < term_sort_key(b), reading only what decides it."""
    if a.length != b.length:
        return a.length < b.length
    va, vb = variables(a), variables(b)
    if va != vb:
        return va < vb
    return _shape(a) < _shape(b)


def _leaf_itself(x: Var) -> Term:
    return x


def _collapse_pair(l: Term, r: Term) -> Term:
    return l if l == r else Node(l, r)


def _sorted_pair(l: Term, r: Term) -> Node:
    return Node(r, l) if _sorts_before(r, l) else Node(l, r)


# --- exact keys: key(t, memo) names t's class; memo is the theory's key cache


def _idempotent_key(t: Term, memo) -> Term:
    """f(x1,x1) = x1: the collapse normal form."""
    return fold_term(t, _leaf_itself, _collapse_pair, memo)


def _commutative_key(t: Term, memo) -> Term:
    """f(x1,x2) = f(x2,x1): children sorted, recursively."""
    return fold_term(t, _leaf_itself, _sorted_pair, memo)


def _word_key(t: Term, memo):
    """Associativity: the word of leaves."""
    return ("word", variables(t))


def _absorption_key(i: int, j: int, t: Term, memo):
    """Associativity plus f(f(x1,x2),x3) = f(x_i,x_j), i,j in {1,2,3}.

    Terms flatten to words; every word of length >= 3 shrinks to length 2,
    and the residual equivalence on two-letter words is a finite pattern
    table computed by bounded congruence closure.
    """
    word = variables(t)
    if len(word) == 1:
        return ("var", word[0])
    a, b = _word_reduce(word, i, j)
    patterns = _two_letter_patterns(i, j)
    # canonical representative of the two-letter class; the fresh letters
    # f1, f2 become (0, 1), (0, 2), below every concrete variable (1, x)
    f1, f2 = max(a, b) + 1, max(a, b) + 2
    slot = {f1: (0, 1), f2: (0, 2)}
    candidates = []
    for c in (f1, a, b):
        for d in (f1, f2, a, b, c):
            if _occurrence_pattern((a, b, c, d)) in patterns:
                candidates.append((slot.get(c, (1, c)), slot.get(d, (1, d))))
    return ("word", min(candidates))


def _node_or_var_key(t: Term, memo):
    """A rule that provably merges every composite term: one class of them,
    and each variable alone, as a rule with composite sides merges none."""
    return ("node",) if isinstance(t, Node) else ("var", t.index)


def _single_rule_key(rule: Identity):
    """The exact key for one rule, or None: its normal form when rewriting
    with it is convergent, else one composite class when the rule provably
    collapses them (e.g. f(f(x1,x2),x3) = f(x2,x1))."""
    if rule_size_decreasing(rule) and critical_pair_check(rule):
        lhs, rhs = rule.lhs, rule.rhs
        return lambda t, memo: rewrite_nf(t, lhs, rhs, memo)
    if isinstance(rule.lhs, Node) and isinstance(rule.rhs, Node) and _ground_collapse_proved(rule):
        return _node_or_var_key
    return None


def __getattr__(name):  # Theory's old name AxiomsTheory: importable, but no second entry in vars()
    if name == "AxiomsTheory":
        return Theory
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- flat-code rules for the bounded proof search ----------------------------


def _flat_rule(src: Term, dst: Term):
    """src -> dst compiled for _neighbors: (composite, pattern, segments,
    order, count).

    composite says whether src is an f, which never matches at a leaf.
    pattern is src's preorder: 0 for an f, and for a variable 1 at its first
    occurrence, which fills the next slot, or ~slot at a repeat.  The count
    variables of dst that src lacks, sorted, split dst's preorder into
    segments, one more than their occurrences; order names the variable at
    each split.  A segment is a format string over the head {0}, the tail
    {1} and the slots {2}, {3}, ...: the first starts with the head, the
    last ends with the tail, and its text is otherwise "\0"s, one per f.
    """
    slots = {}
    pattern = []
    for u in preorder(src):
        if type(u) is Node:
            pattern.append(0)
        elif u.index in slots:
            pattern.append(~slots[u.index])
        else:
            slots[u.index] = len(slots)
            pattern.append(1)
    missing = sorted(set(variables(dst)) - slots.keys())
    segments, order, part = [], [], ["{0}"]
    for u in preorder(dst):
        if type(u) is Node:
            part.append("\0")
        elif u.index in slots:
            part.append(f"{{{slots[u.index] + 2}}}")
        else:
            segments.append("".join(part))
            order.append(missing.index(u.index))
            part = []
    segments.append("".join(part) + "{1}")
    return type(src) is Node, tuple(pattern), tuple(segments), tuple(order), len(missing)


def _replacement_pool(code, end) -> list:
    """The values, as codes, that _neighbors gives a right-side variable
    the left side lacks: up to three of the code's variables and one fresh
    one, then its three shortest distinct composite slices, ties going to
    the first start in the code.  A fresh index above sys.maxunicode, which
    no code point can hold, raises BoundsError."""
    indexes = sorted(set(code) - {"\0"})
    fresh = ord(indexes[-1]) + 1
    if fresh > sys.maxunicode:
        raise BoundsError(
            f"flat codes hold variable indexes up to {sys.maxunicode}, got the fresh index {fresh}"
        )
    pool = indexes[:3] + [chr(fresh)]
    composite = []
    # sorted is stable, so slices of one length stay in order of their start
    for k in sorted((k for k, c in enumerate(code) if c == "\0"), key=lambda k: end[k] - k):
        piece = code[k : end[k]]
        if piece not in composite:
            composite.append(piece)
            if len(composite) == 3:
                break
    return pool + composite


def _walk_back(parents, code) -> list:
    """code, the code it was discovered from, and so on up to the root of
    one side of _bfs_prove; [] for None."""
    path = []
    while code is not None:
        path.append(code)
        code = parents[code]
    return path


def _is_associativity(ax: Identity) -> bool:
    """Whether ax is associativity, either way round, up to renaming; a
    right-side variable the left side lacks gets its own name, so
    f(f(x4,x5),x6) = f(x4,f(x5,x3)) is not."""
    sides = (rename_canonical(Node(ax.lhs, ax.rhs)), rename_canonical(Node(ax.rhs, ax.lhs)))
    return Node(ASSOC.lhs, ASSOC.rhs) in sides


# --- names and files ------------------------------------------------------------


# the built-in theories with one fixed axiom and an exact key
_KEYED = {
    "idempotent": (IDEMPOTENT_AXIOM, _idempotent_key),
    "commutative": (COMMUTATIVE_AXIOM, _commutative_key),
}


def _absorption_theory(i: int, j: int, config) -> Theory:
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise BoundsError("absorption indexes must lie in {1,2,3}")
    axioms = (ASSOC, absorption_axiom(i, j))
    return Theory(axioms, config, f"sg-abs-{i}-{j}", partial(_absorption_key, i, j))


def _single_rule_theory(rule: Identity, config) -> Theory:
    return Theory((rule,), config, f"grp-rule:{rule.text()}", _single_rule_key(rule))


def theory_from_name(name: str, config: OracleConfig | None = None) -> Theory:
    """Resolve a built-in theory name.

    idempotent | commutative | assoc | sg-abs-I-J | grp-rule:<lhs>=<rhs>
    """
    if name in _KEYED:
        axiom, key = _KEYED[name]
        return Theory((axiom,), config, name, key)
    if name in ("assoc", "associative"):
        return Theory((ASSOC,), config, "assoc")
    if name.startswith("sg-abs-"):
        parts = name.split("-")
        if len(parts) == 4 and parts[2].isdigit() and parts[3].isdigit():
            return _absorption_theory(int(parts[2]), int(parts[3]), config)
    if name.startswith("grp-rule:"):
        return _single_rule_theory(Identity.parse(name[len("grp-rule:") :]), config)
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
    if kind in ("idempotent", "commutative"):
        return theory_from_name(kind, config)
    if kind == "semigroup-absorption":
        return _absorption_theory(_field(obj, "i", int), _field(obj, "j", int), config)
    if kind == "groupoid-single-rule":
        return _single_rule_theory(_identity_from_json(_field(obj, "rule", dict)), config)
    if kind == "axioms":
        axioms = _field(obj, "axioms", list)
        return Theory(tuple(_identity_from_json(a) for a in axioms), config)
    raise ParseError(f"unknown theory kind {kind!r}")


def load_theory_file(path, max_model_size: int | None = None) -> Theory:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not text, or not JSON
        raise ParseError(f"cannot read theory file {path}: {exc}") from None
    return theory_from_json(obj, max_model_size)

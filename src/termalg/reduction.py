"""The length-reducing abstract reduction system and its normal forms.

Two reductions on terms, both strictly decreasing Len:

* S-steps contract a reducible pair (p, q): nested positions whose subterms
  the theory proves equal, with outermost head p and maximal tail q; the
  subterm at p is replaced by the one at q.
* E-steps remove the parent of a removable (fictive) position, replacing it
  by the sibling subterm.

normal_form drives either reduction with the minimal-redex strategy; the
seeded strategy runner exists to test uniqueness of normal forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import NotReducibleError, NotRemovableError
from .essentiality import decided_report
from .terms import (
    Node,
    Position,
    Term,
    position_to_text,
    positions,
    proper_prefix,
    replace_at,
    subterm_at,
    term_to_text,
)
from .theories import Theory


@dataclass(frozen=True)
class ReduciblePair:
    p: Position
    q: Position

    def __post_init__(self):
        if not proper_prefix(self.p, self.q):
            raise ValueError(
                f"{position_to_text(self.p)} is not a proper prefix of "
                f"{position_to_text(self.q)}"
            )


@dataclass
class ReductionTrace:
    start: Term
    steps: list = field(default_factory=list)  # (kind, datum, result) triples

    def record(self, kind, datum, result):
        self.steps.append((kind, datum, result))

    @property
    def final(self):
        return self.steps[-1][2] if self.steps else self.start

    def to_json(self):
        def datum_text(kind, datum):
            if kind == "S":
                return {
                    "p": position_to_text(datum.p),
                    "q": position_to_text(datum.q),
                }
            return {"position": position_to_text(datum)}

        return {
            "start": term_to_text(self.start),
            "steps": [
                {"kind": kind, **datum_text(kind, datum), "result": term_to_text(result)}
                for kind, datum, result in self.steps
            ],
        }


def reducible_pairs(t: Term, theory: Theory) -> frozenset:
    """Rd(t): all reducible pairs, outermost heads with maximal tails, plus
    the nested pairs obtained by composing through a pair's tail subterm."""
    cache = theory._rd_cache
    got = cache.get(t)
    if got is not None:
        return got

    pairs = _outermost_pairs_by_key(t, theory) if theory.exact else _outermost_pairs(t, theory)

    # nested clause: compose through the tail subterm of every pair
    queue = list(pairs)
    while queue:
        pair = queue.pop()
        for inner in reducible_pairs(subterm_at(t, pair.q), theory):
            composed = ReduciblePair(pair.q + inner.p, pair.q + inner.q)
            if composed not in pairs:
                pairs.add(composed)
                queue.append(composed)

    result = frozenset(pairs)
    cache[t] = result
    return result


def _subtree_ends(t: Term) -> list:
    """For the i-th position of t in positions(t) order, the index just past
    its subtree: i + 2*Siz + 1, since a subtree is one block of that order."""
    ends = []
    stack = [t]
    while stack:
        u = stack.pop()
        ends.append(len(ends) + 2 * u.size + 1)
        if type(u) is Node:
            stack += (u.right, u.left)
    return ends


def _outermost_pairs_by_key(t: Term, theory: Theory) -> set:
    """The outermost heads of t with their maximal tails, read off the key
    vector of an exact theory as index ranges."""
    keys = theory.key_vector(t)
    ends = _subtree_ends(t)
    pos = positions(t)
    pairs = set()
    i = 0
    while i < len(keys):
        key, end = keys[i], ends[i]
        if key not in keys[i + 1 : end]:
            i += 1
            continue
        # an outermost head, since no position above it was one; a tail is
        # maximal when the next equal position is not below it
        tails = [j for j in range(i + 1, end) if keys[j] == key]
        for j, after in zip(tails, tails[1:] + [end]):
            if after >= ends[j]:
                pairs.add(ReduciblePair(pos[i], pos[j]))
        i = end  # the positions below a head are no outermost heads
    return pairs


def _outermost_pairs(t: Term, theory: Theory) -> set:
    """The outermost heads of t with their maximal tails, asking the oracle
    about every nested pair of positions."""
    pos = positions(t)

    def eq(a, b):
        return theory.holds(subterm_at(t, a), subterm_at(t, b))

    heads = set()
    for p in pos:
        if any(proper_prefix(p, q) and eq(p, q) for q in pos):
            heads.add(p)
    minimal_heads = {p for p in heads if not any(proper_prefix(h, p) for h in heads)}

    pairs = set()
    for p in minimal_heads:
        for q in pos:
            if not proper_prefix(p, q) or not eq(p, q):
                continue
            if any(proper_prefix(q, q2) and eq(q2, p) for q2 in pos):
                continue  # tail not maximal
            pairs.add(ReduciblePair(p, q))
    return pairs


def removable_positions(t: Term, theory: Theory) -> frozenset:
    """Rm(t): minimal fictive positions, plus positions reachable through the
    sibling branch of a removable position."""
    cache = theory._rm_cache
    got = cache.get(t)
    if got is not None:
        return got

    fictive = decided_report(t, theory).fictive_positions
    removable = {
        p
        for p in fictive
        if p and not any(proper_prefix(q, p) for q in fictive)
    }

    changed = True
    while changed:
        changed = False
        for x in sorted(removable):
            sibling = x[:-1] + (3 - x[-1],)
            for q2 in removable_positions(subterm_at(t, sibling), theory):
                candidate = sibling + q2
                if candidate not in removable:
                    removable.add(candidate)
                    changed = True

    result = frozenset(removable)
    cache[t] = result
    return result


def step_S(t: Term, pair: ReduciblePair, theory: Theory | None = None) -> Term:
    """One S-step: replace the subterm at pair.p by the one at pair.q."""
    if theory is not None and pair not in reducible_pairs(t, theory):
        raise NotReducibleError(
            f"({position_to_text(pair.p)},{position_to_text(pair.q)}) is not a "
            f"reducible pair of {t}"
        )
    result = replace_at(t, pair.p, subterm_at(t, pair.q))
    assert result.length < t.length
    return result


def step_E(t: Term, removable: Position, theory: Theory | None = None) -> Term:
    """One E-step: replace the parent of a removable position by its sibling."""
    removable = tuple(removable)
    if not removable:
        raise NotRemovableError("the root has no parent to remove")
    if theory is not None and removable not in removable_positions(t, theory):
        raise NotRemovableError(
            f"{position_to_text(removable)} is not removable in {t}"
        )
    parent, alpha = removable[:-1], removable[-1]
    survivor = subterm_at(t, parent + (3 - alpha,))
    result = replace_at(t, parent, survivor)
    assert result.length < t.length
    return result


def _minimal_fictive(t: Term, theory: Theory):
    fictive = [p for p in decided_report(t, theory).fictive_positions if p]
    return min(fictive) if fictive else None


def normal_form(t: Term, theory: Theory, mode: str):
    """(normal form, trace) under the minimal-redex strategy.

    Mode "S" contracts the lexicographically minimal reducible pair; mode "E"
    removes the parent of the minimal fictive position.
    """
    if mode not in ("S", "E"):
        raise ValueError(f"mode must be 'S' or 'E', got {mode!r}")
    trace = ReductionTrace(t)
    current = t
    while True:
        if mode == "S":
            pairs = reducible_pairs(current, theory)
            if not pairs:
                return current, trace
            pair = min(pairs, key=lambda x: (x.p, x.q))
            current = step_S(current, pair)
            trace.record("S", pair, current)
        else:
            p = _minimal_fictive(current, theory)
            if p is None:
                return current, trace
            current = step_E(current, p)
            trace.record("E", p, current)


def sr(t: Term, theory: Theory) -> Term:
    return normal_form(t, theory, "S")[0]


def er(t: Term, theory: Theory) -> Term:
    return normal_form(t, theory, "E")[0]


def reduce_with_strategy(t: Term, theory: Theory, mode: str, seed: int) -> Term:
    """Reduce to a normal form taking seed-chosen steps instead of minimal ones."""
    if mode not in ("S", "E"):
        raise ValueError(f"mode must be 'S' or 'E', got {mode!r}")
    rng = random.Random(seed)
    current = t
    while True:
        if mode == "S":
            choices = sorted(reducible_pairs(current, theory), key=lambda x: (x.p, x.q))
            if not choices:
                return current
            current = step_S(current, rng.choice(choices))
        else:
            choices = sorted(removable_positions(current, theory))
            if not choices:
                return current
            current = step_E(current, rng.choice(choices))

"""The length-reducing abstract reduction system and its normal forms.

Two reductions on terms, both strictly decreasing Len:

* S-steps contract a reducible pair (p, q): nested positions whose subterms
  the theory proves equal, with outermost head p and maximal tail q; the
  subterm at p is replaced by the one at q.
* E-steps remove the parent of a removable (fictive) position, replacing it
  by the sibling subterm.

A strategy picks one redex from the one redex set, Rd(t) or Rm(t), until
the set is empty: normal_form takes its least member, and the seeded
runner, which exists to test uniqueness of normal forms, a random one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import NotReducibleError, NotRemovableError
from .essentiality import decided_report, least_fictive
from .terms import (
    Node,
    Position,
    Term,
    position_to_text,
    positions,
    preorder,
    proper_prefix,
    replace_at,
    subterm_at,
    term_to_text,
)
from .theories import Theory


@dataclass(frozen=True, order=True)  # ordered by (p, q)
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
                return {"p": position_to_text(datum.p), "q": position_to_text(datum.q)}
            return {"position": position_to_text(datum)}

        return {
            "start": term_to_text(self.start),
            "steps": [
                {"kind": kind, **datum_text(kind, datum), "result": term_to_text(result)}
                for kind, datum, result in self.steps
            ],
        }


def _closure(t: Term, theory: Theory, cache: dict, layer) -> frozenset:
    """The closure of t as preorder index pairs, cached per subterm: the
    layer(preorder(u), theory) of each subterm u, plus (b + c, b + d) for
    each (c, d) in the closure of u's subterm at b, for each member (a, b)
    of the layer; a nested member's own closure lies in that one.  Subterms
    are visited as a recursion over each layer from its last member would
    visit them, and a closure is built after those below it."""
    got = cache.get(t)
    stack = [t] if got is None else []
    while stack:
        u = stack.pop()
        if type(u) is tuple:
            u, members, below = u
            closed = set(members)
            for b, v in below:
                closed.update([(b + c, b + d) for c, d in cache[v]])
            cache[u] = got = frozenset(closed)
        elif u not in cache:
            subterms = preorder(u)
            members = list(layer(subterms, theory))
            below = [(b, subterms[b]) for _, b in members]
            stack.append((u, members, below))
            stack += [v for _, v in below]
    return got  # the last closure built is t's


def reducible_pairs(t: Term, theory: Theory) -> frozenset:
    """Rd(t): the outermost heads with their maximal tails, plus q + Rd(t|q)
    for each of their tails q."""
    pairs = _closure(t, theory, theory._rd_cache, _outermost_pairs)
    pos = positions(t) if pairs else ()
    return frozenset(ReduciblePair(pos[a], pos[b]) for a, b in pairs)


def _outermost_pairs(subterms: list, theory: Theory):
    """The outermost heads of t, whose preorder is subterms, with their
    maximal tails, as ascending index pairs.  The tails of a candidate head
    i are the j in its block equal to it: an exact theory reads them off its
    key vector, a bounded one asks holds(t|i, t|j) for each j in the block,
    in order.  A head's pairs are yielded before the next head is sought."""
    keys = theory.key_vector(subterms[0]) if theory.exact else None
    i = 0
    while i < len(subterms):
        end = i + 2 * subterms[i].size + 1
        if keys is None:
            tails = [j for j in range(i + 1, end) if theory.holds(subterms[i], subterms[j])]
        elif keys[i] in keys[i + 1 : end]:
            tails = [j for j in range(i + 1, end) if keys[j] == keys[i]]
        else:
            tails = None
        if not tails:
            i += 1
            continue
        # an outermost head, since no position above it was one; a tail is
        # maximal when the next equal position is not below it
        for j, after in zip(tails, tails[1:] + [end]):
            if after >= j + 2 * subterms[j].size + 1:
                yield i, j
        i = end  # the positions below a head are no outermost heads


def _minimal_fictive_desc(subterms: list, theory: Theory) -> list:
    """Each minimal fictive position of t, whose preorder is subterms, and its
    sibling, as index pairs: the fictive children of essential positions.
    Descending, so that the smallest position's sibling is visited first."""
    verdicts = decided_report(subterms[0], theory).verdicts
    pairs = []
    for i, u in enumerate(subterms):
        if type(u) is Node and not verdicts[i]:
            left, right = i + 1, i + 2 * u.left.size + 2
            pairs += [(x, y) for x, y in ((left, right), (right, left)) if verdicts[x]]
    return sorted(pairs, reverse=True)


def removable_positions(t: Term, theory: Theory) -> frozenset:
    """Rm(t): the minimal fictive positions, plus s + Rm(t|s) for each of
    their siblings s."""
    pairs = _closure(t, theory, theory._rm_cache, _minimal_fictive_desc)
    pos = positions(t) if pairs else ()
    return frozenset(pos[x] for x, _ in pairs)


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
    parent = removable[:-1]
    result = replace_at(t, parent, subterm_at(t, parent + (3 - removable[-1],)))
    assert result.length < t.length
    return result


def _redexes(t: Term, theory: Theory, mode: str) -> frozenset:
    """Rd(t) in mode "S", Rm(t) in mode "E"."""
    if mode not in ("S", "E"):
        raise ValueError(f"mode must be 'S' or 'E', got {mode!r}")
    return (reducible_pairs if mode == "S" else removable_positions)(t, theory)


def _step(t: Term, redex) -> Term:
    return step_S(t, redex) if type(redex) is ReduciblePair else step_E(t, redex)


def _minimal_redex(t: Term, theory: Theory, mode: str):
    """min(_redexes(t, theory, mode)), or None when there is none, read off
    one scan of t that stops at its first redex; neither Rd nor Rm is built.

    Mode "S" takes the first pair of _outermost_pairs: every nested member
    (q + c, q + d) of Rd(t) lies below a tail q, after the first head in
    preorder, so min(Rd(t)) is the first head with its first maximal tail.
    Mode "E" takes the essentiality scan's least fictive position.  A
    position fictive in a subterm t|s is fictive in t, by congruence, so
    below a root that is not fictive it is outermost and lies below every
    member of Rm: it is min(Rm(t)).  A fictive root, (), makes every
    position fictive but none removable, so t is a normal form.
    """
    if mode == "S":
        pair = next(_outermost_pairs(preorder(t), theory), None)
        return pair and ReduciblePair(*map(positions(t).__getitem__, pair))
    if mode == "E":
        return least_fictive(t, theory) or None
    return _redexes(t, theory, mode)  # no such mode: raises ValueError


def normal_form(t: Term, theory: Theory, mode: str):
    """(normal form, trace) under the minimal-redex strategy: each step
    takes the least member of Rd (mode "S") or Rm (mode "E")."""
    trace = ReductionTrace(t)
    while (redex := _minimal_redex(trace.final, theory, mode)) is not None:
        trace.record(mode, redex, _step(trace.final, redex))
    return trace.final, trace


def sr(t: Term, theory: Theory) -> Term:
    return normal_form(t, theory, "S")[0]


def er(t: Term, theory: Theory) -> Term:
    return normal_form(t, theory, "E")[0]


def reduce_with_strategy(t: Term, theory: Theory, mode: str, seed: int) -> Term:
    """Reduce to a normal form taking a seed-chosen member of the same
    redex set at each step, instead of the least one."""
    rng = random.Random(seed)
    while redexes := sorted(_redexes(t, theory, mode)):
        t = _step(t, rng.choice(redexes))
    return t

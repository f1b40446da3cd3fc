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
from operator import attrgetter

from .errors import NotReducibleError, NotRemovableError
from .essentiality import decided_report, least_fictive
from .terms import (
    Position,
    Term,
    outermost,
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

    def __radd__(self, position: Position):
        """position + (p, q) is the pair (position·p, position·q) below position."""
        return ReduciblePair(position + self.p, position + self.q)


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


def _closure(t: Term, theory: Theory, cache: dict, layer, nest) -> frozenset:
    """The closure of t, cached per subterm: the outermost layer
    layer(u, theory) of each subterm u, plus q + c for each c in the closure
    of u|q, where q = nest(m) for each member m of the layer.  A nested
    member adds nothing, as its own closure lies in the one below q.
    Subterms are visited as a recursion over each layer from its last member
    would visit them, and a closure is built after those below it."""
    got = cache.get(t)
    stack = [t] if got is None else []
    while stack:
        u = stack.pop()
        if type(u) is tuple:
            u, members, below = u
            closed = set(members)
            for q, v in below:
                closed.update([q + m for m in cache[v]])
            cache[u] = got = frozenset(closed)
        elif u not in cache:
            members = list(layer(u, theory))
            below = [(q, subterm_at(u, q)) for q in map(nest, members)]
            stack.append((u, members, below))
            stack += [v for _, v in below]
    return got  # the last closure built is t's


_tail = attrgetter("q")


def reducible_pairs(t: Term, theory: Theory) -> frozenset:
    """Rd(t): the outermost heads with their maximal tails, plus q + Rd(t|q)
    for each of their tails q."""
    return _closure(t, theory, theory._rd_cache, _outermost_pairs, _tail)


def _outermost_pairs(t: Term, theory: Theory) -> set:
    """The outermost heads of t with their maximal tails, over preorder
    indexes.  The tails of a candidate head i are the j in its block equal
    to it: an exact theory reads them off its key vector, a bounded one asks
    holds(t|i, t|j) for each j in the block, in order."""
    subterms = preorder(t)
    keys = theory.key_vector(t) if theory.exact else None
    pairs, i = [], 0
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
                pairs.append((i, j))
        i = end  # the positions below a head are no outermost heads
    pos = positions(t) if pairs else ()
    return {ReduciblePair(pos[i], pos[j]) for i, j in pairs}


def _sibling(x: Position) -> Position:
    return x[:-1] + (3 - x[-1],)


def _minimal_fictive_desc(u: Term, theory: Theory) -> list:
    # descending, so that the smallest position's sibling is visited first
    pos, minimal = positions(u), outermost(preorder(u), decided_report(u, theory).verdicts)
    return [pos[i] for i in reversed(minimal) if i]


def removable_positions(t: Term, theory: Theory) -> frozenset:
    """Rm(t): the minimal fictive positions, plus s + Rm(t|s) for each of
    their siblings s."""
    return _closure(t, theory, theory._rm_cache, _minimal_fictive_desc, _sibling)


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
    result = replace_at(t, removable[:-1], subterm_at(t, _sibling(removable)))
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
    """min(_redexes(t, theory, mode)), or None when there is none.

    Mode "E" reads t's essentiality scan only as far as its least fictive
    position, instead of building Rm or t's report.  A position fictive in
    a subterm t|s is fictive in t, by congruence, so below a root that is
    not fictive the least fictive position is outermost and lies below
    every member of Rm: it is min(Rm(t)).  A fictive root (index 0) makes
    every position fictive but none removable, so t is a normal form.
    """
    if mode != "E":
        return min(_redexes(t, theory, mode), default=None)
    i = least_fictive(t, theory)
    return positions(t)[i] if i else None


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

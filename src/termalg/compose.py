"""The four composition operators.

* inductive: t(r1<-s1, ..., rm<-sm), simultaneous replacement of every
  occurrence of each pattern term;
* positional: t(S;T), replacement at an explicit tuple of pairwise
  incomparable positions;
* theory composition: replace at the prefix-minimal positions of subterms
  provably equal to r;
* star (essential) composition: like theory composition, but only at the
  prefix-minimal match positions whose whole subtree consists of essential
  positions.

Replacement position sets are always computed on the input term first and
rewritten in one pass; nothing cascades.  Inside, a position is its index in
the term's preorder, a subtree the block of indexes below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import IncomparablePositionsError, NestedPatternsError
from .essentiality import decided_report
from .terms import (
    Node,
    Term,
    fold_term,
    outermost,
    position_to_text,
    positions,
    prefix_leq,
    preorder,
    replace_at,
    splice,
    subterm_at,
    subterm_set,
)
from .theories import Theory


def inductive_compose(t: Term, pairs) -> Term:
    """Simultaneously replace every occurrence of each r_i in t by s_i.

    Patterns must be distinct and mutually non-nested; occurrences inside the
    substituted terms are not rescanned.
    """
    pairs = list(pairs)
    patterns = [r for r, _ in pairs]
    for i, r in enumerate(patterns):
        for j, r2 in enumerate(patterns):
            if i == j:
                continue
            if r == r2:
                raise NestedPatternsError(f"pattern {r} listed twice")
            if r in subterm_set(r2):
                raise NestedPatternsError(f"pattern {r} is a subterm of pattern {r2}")
    # a walk stops at a term already in the memo, so seeding it with the
    # replacements stops it at each occurrence and never enters a replacement
    return fold_term(t, lambda x: x, Node, dict(pairs))


def check_incomparable(entries) -> tuple:
    """Validate pairwise prefix-incomparability of a position tuple."""
    entries = tuple(tuple(p) for p in entries)
    for i, p in enumerate(entries):
        for q in entries[i + 1 :]:
            if prefix_leq(p, q) or prefix_leq(q, p):
                raise IncomparablePositionsError(
                    f"positions {position_to_text(p)} and {position_to_text(q)} "
                    "are prefix-comparable"
                )
    return entries


def positional_compose(t: Term, s, replacements) -> Term:
    """t with subterm_at(t, p_i) replaced by replacements[i] at each p_i in s."""
    entries = check_incomparable(s)
    replacements = list(replacements)
    if len(entries) != len(replacements):
        raise ValueError(
            f"{len(entries)} positions but {len(replacements)} replacement terms"
        )
    for p in entries:
        subterm_at(t, p)  # raises InvalidPositionError on bad positions
    out = t
    for p, r in zip(entries, replacements):
        out = replace_at(out, p, r)
    return out


@dataclass(frozen=True)
class SigmaPositionSets:
    """Positions of subterms of t equal to r in the theory.

    all_matches is the full set; minimal its prefix-minimal elements;
    essential_minimal the members of minimal all of whose subtree positions
    are essential.  A deeper all-essential match nested inside a rejected
    minimal match does not qualify: the essential filter applies to the
    minimal set, it does not re-minimize.
    """

    all_matches: frozenset
    minimal: frozenset
    essential_minimal: frozenset


def _match_flags(t: Term, r: Term, theory: Theory, subterms) -> list:
    """One flag per subterm of t in preorder: does the theory prove it equal
    to r?  An exact theory reads t's key vector against key(r); a bounded one
    is asked about each subterm in preorder."""
    if theory.exact:
        key = theory._cached_key(r)
        return [k == key for k in theory.key_vector(t)]
    return [theory.holds(u, r) for u in subterms]


def _essential_starts(t: Term, theory: Theory, subterms, starts) -> list:
    """The starts whose block of the preorder holds no fictive position."""
    verdicts = decided_report(t, theory).verdicts
    return [i for i in starts if True not in verdicts[i : i + 2 * subterms[i].size + 1]]


def sigma_match_positions(t: Term, r: Term, theory: Theory) -> frozenset:
    """All positions of subterms of t the theory proves equal to r."""
    return frozenset(compress(positions(t), _match_flags(t, r, theory, preorder(t))))


def sigma_position_sets(t: Term, r: Term, theory: Theory) -> SigmaPositionSets:
    pos, subterms = positions(t), preorder(t)
    flags = _match_flags(t, r, theory, subterms)
    minimal = outermost(subterms, flags)
    essential = _essential_starts(t, theory, subterms, minimal)
    sets = [frozenset(pos[i] for i in indexes) for indexes in (minimal, essential)]
    return SigmaPositionSets(frozenset(compress(pos, flags)), *sets)


def sigma_compose(t: Term, r: Term, u: Term, theory: Theory) -> Term:
    """Replace u at the prefix-minimal positions of subterms equal to r."""
    subterms = preorder(t)
    return splice(subterms, outermost(subterms, _match_flags(t, r, theory, subterms)), u)


def star_compose(t: Term, r: Term, s: Term, theory: Theory) -> Term:
    """Replace s at the essential prefix-minimal match positions of r in t.

    A term provably equal to the whole pattern becomes the replacement even
    when some of its positions are fictive; otherwise an empty essential
    match set leaves the term unchanged.  The precedence matters: the other
    order would let a replacement rewrite one side of a proved identity while
    fixing the other, breaking soundness of star replacement.
    """
    if theory.holds(t, r):
        return s
    subterms = preorder(t)
    minimal = outermost(subterms, _match_flags(t, r, theory, subterms))
    return splice(subterms, _essential_starts(t, theory, subterms, minimal), s)

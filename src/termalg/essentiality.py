"""Essential and fictive positions, variables and subterms of a term.

A position p is fictive in t with respect to a theory when the theory proves
t[p <- x_a] = t[p <- x_b] for two fresh distinct variables.  Fictive positions
are upward-closed under extension, which the computation exploits: descendants
of a fictive position are classified without queries.  A variable x_i is
fictive when t is provably unchanged by renaming x_i to a fresh variable; only
``variable_verdicts`` asks about variables, and it keeps no memo.

An exact theory is asked the one-plant question t[p <- x] = t instead, with x
fresh; it has the same answer.  Let x_a, x_b not occur in t.  If
t[p <- x_a] = t[p <- x_b] is derivable, substituting x_b |-> t|p gives
t[p <- x_a] = t.  If t[p <- x_a] = t is derivable, substituting x_a |-> x_b
gives t[p <- x_b] = t, and transitivity gives the pair.  An exact key names a
congruence class, so the key of t, already cached, answers the question after
one planted term is keyed.  A bounded theory keeps asking the pair: refutation
treats both shapes alike, but the bounded proof search does not.

``_scan`` is the one walk that asks these questions, top-down in preorder,
keeping the current position's ancestors and child digits on a stack
(Knuth, TAOCP Vol. 1, 2.3.1); it builds no position list.  A report reads
all of it; ``least_fictive``, which the minimal E-reduction strategy reads,
stops at the first fictive position.  Reports are stored per variable-renaming
class; an exact theory computes one on the term it is asked about, a bounded
theory on the class's canonical member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UndecidedError
from .terms import (
    Term,
    Var,
    max_var_index,
    plant,
    positions,
    preorder,
    rename_canonical,
    substitute,
    var_set,
)
from .theories import Theory


@dataclass(frozen=True)
class EssentialityReport:
    """The positions of the scanned term, each classified essential, fictive
    or undecided.

    verdicts lists them by preorder index: False for essential, True for
    fictive, None for undecided.  Positions do not change when variables are
    renamed, so one report serves every term in a renaming class.  The
    position sets are built from term and verdicts when read, uncached.
    """

    term: Term
    verdicts: tuple

    def _positions_with(self, verdict) -> frozenset:
        return frozenset(p for p, v in zip(positions(self.term), self.verdicts) if v is verdict)

    @property
    def essential_positions(self) -> frozenset:
        return self._positions_with(False)

    @property
    def fictive_positions(self) -> frozenset:
        return self._positions_with(True)

    @property
    def undecided_positions(self) -> frozenset:
        return self._positions_with(None)

    @property
    def decided(self) -> bool:
        return None not in self.verdicts


def essentiality_report(t: Term, theory: Theory) -> EssentialityReport:
    """Classify every position of t as essential, fictive or undecided.

    Reports are stored once per variable-renaming class (keyed by
    ``rename_canonical``); every member of the class shares that report.
    An exact theory computes it on t itself, a bounded one on
    ``rename_canonical(t)`` (``_scanned_term``).
    """
    cache, canon = theory._essentiality_cache, rename_canonical(t)
    report = cache.get(canon)
    if report is None:
        report = cache[canon] = _compute_report(_scanned_term(t, theory), theory)
    return report


def least_fictive(t: Term, theory: Theory):
    """t's least fictive position, or None when t has none; raises
    UndecidedError at an undecided position met before it.

    The scan goes top-down and stops at the first fictive position, so every
    position before it was asked and found essential: it is the least
    fictive one, and it is outermost.
    """
    for digits, verdict, _ in _scan(_scanned_term(t, theory), theory):
        if verdict is None:
            raise _undecided(t, [tuple(digits)])
        if verdict:
            return tuple(digits)
    return None


def _scanned_term(t: Term, theory: Theory) -> Term:
    """The term scanned for t's positions.  An exact theory scans t itself,
    whose subterm keys are already cached; a renaming is an automorphism of
    the free algebra, so it gives the same verdict at each position.  A
    bounded theory scans rename_canonical(t) and so asks its report's
    questions, in the same order: a bounded proof search need not answer a
    renamed question alike."""
    return t if theory.exact else rename_canonical(t)


def _scan(t: Term, theory: Theory):
    """(digits, verdict, block length) for the positions of t asked about,
    top-down in preorder; digits is the scan's own list, so copy it to keep it.

    Extensions of fictive positions are fictive (monotone structure), so a
    fictive position classifies its whole block of the preorder, 2*Siz + 1
    long, without queries; the scan goes on after the block.
    """
    n = max_var_index(t)
    xa, xb = Var(n + 1), Var(n + 2)
    exact = theory.exact
    u, path, digits = t, [], []  # u's ancestors, and the child taken below each
    while True:
        # an exact theory answers t[p <- xa] = t as it would the pair (above)
        verdict = theory.equal(plant(path, digits, xa), t if exact else plant(path, digits, xb))
        yield digits, verdict, 2 * u.size + 1 if verdict is True else 1
        if verdict is not True and type(u) is not Var:
            path.append(u)
            digits.append(1)
            u = u.left
            continue
        # u's block is done: go on at the right child of the nearest left turn
        while digits and digits[-1] == 2:
            del path[-1], digits[-1]
        if not digits:
            return
        digits[-1] = 2
        u = path[-1].right


def _compute_report(t: Term, theory: Theory) -> EssentialityReport:
    verdicts = []
    for _, verdict, length in _scan(t, theory):
        verdicts += [verdict] * length
    return EssentialityReport(t, tuple(verdicts))


def variable_verdicts(t: Term, theory: Theory):
    """(essential, fictive, undecided) variable indexes of t.

    x_i is fictive when the theory proves t = t[x_i <- fresh], essential when
    it refutes that identity, and undecided otherwise.  Nothing is cached.
    """
    fresh = Var(max_var_index(t) + 1)
    by_verdict = {False: set(), True: set(), None: set()}  # essential, fictive, undecided
    for i in sorted(var_set(t)):
        by_verdict[theory.equal(t, substitute(t, {i: fresh}))].add(i)
    return tuple(map(frozenset, by_verdict.values()))


def decided_report(t: Term, theory: Theory) -> EssentialityReport:
    """essentiality_report(t, theory) for a caller that needs every position
    classified; raises UndecidedError otherwise."""
    report = essentiality_report(t, theory)
    if not report.decided:
        raise _undecided(t, sorted(report.undecided_positions))
    return report


def _undecided(t: Term, undecided: list) -> UndecidedError:
    return UndecidedError(
        f"essentiality undecided at positions {undecided} of {t}", query=(t, undecided)
    )


def essential_positions(t: Term, theory: Theory) -> frozenset:
    return decided_report(t, theory).essential_positions


def essential_subterms(t: Term, theory: Theory) -> set:
    """SEss(t): subterms of t at some essential position, closed under
    theory-equivalence among the subterms of t.

    The questions go in a fixed order, not a set's (terms hash by identity):
    t's distinct subterms in preorder, each against the essential subterms
    in the order of their positions.
    """
    subterms = preorder(t)
    verdicts = decided_report(t, theory).verdicts
    at_essential = dict.fromkeys(u for u, fictive in zip(subterms, verdicts) if not fictive)
    return {
        u
        for u in dict.fromkeys(subterms)
        if u in at_essential or any(theory.holds(u, w) for w in at_essential)
    }


def is_essential_subterm(r: Term, t: Term, theory: Theory) -> bool:
    """Whether r is theory-equivalent to some subterm at an essential position."""
    verdicts = decided_report(t, theory).verdicts
    return any(theory.holds(r, u) for u, fictive in zip(preorder(t), verdicts) if not fictive)

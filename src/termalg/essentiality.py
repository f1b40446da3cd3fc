"""Essential and fictive variables, positions, and subterms of a term.

A position p is fictive in t with respect to a theory when the theory proves
t(p; x_a) = t(p; x_b) for two fresh distinct variables; a variable x_i is
fictive when t is provably unchanged by renaming x_i to a fresh variable.
Fictive positions are upward-closed under extension, which the computation
exploits: descendants of a fictive position are classified without queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UndecidedError
from .terms import (
    Term,
    Var,
    max_var_index,
    positions,
    rename_canonical,
    replace_at,
    substitute,
    subterm_at,
    subterm_set,
    var_set,
    variables,
)
from .theories import Theory


@dataclass(frozen=True)
class EssentialityReport:
    term: Term
    essential_vars: frozenset
    fictive_vars: frozenset
    undecided_vars: frozenset
    essential_positions: frozenset
    fictive_positions: frozenset
    undecided_positions: frozenset

    @property
    def decided(self):
        return not self.undecided_vars and not self.undecided_positions


def essentiality_report(t: Term, theory: Theory) -> EssentialityReport:
    """Classify every variable and position of t as essential/fictive/undecided.

    Reports are computed once per variable-renaming class (keyed by
    ``rename_canonical``) and renamed once per term.
    """
    by_term = theory._essentiality_by_term
    report = by_term.get(t)
    if report is None:
        computed = theory._essentiality_cache
        canon = rename_canonical(t)
        report = computed.get(canon)
        if report is None:
            report = computed[canon] = _compute_report(canon, theory)
        report = by_term[t] = _rename_report(report, t)
    return report


def _rename_report(report: EssentialityReport, t: Term) -> EssentialityReport:
    if report.term == t:
        return report
    # positions are shared; variable verdicts transfer along the renaming
    mapping = dict(zip(variables(report.term), variables(t)))

    def remap(s):
        return frozenset(mapping[i] for i in s)

    return EssentialityReport(
        t,
        remap(report.essential_vars),
        remap(report.fictive_vars),
        remap(report.undecided_vars),
        report.essential_positions,
        report.fictive_positions,
        report.undecided_positions,
    )


def _compute_report(t: Term, theory: Theory) -> EssentialityReport:
    n = max_var_index(t)
    xa, xb = Var(n + 1), Var(n + 2)

    ess_p, fic_p, und_p = set(), set(), set()
    for p in sorted(positions(t)):
        if any(q in fic_p for q in (p[:k] for k in range(len(p)))):
            # extensions of fictive positions are fictive (monotone structure)
            fic_p.add(p)
            continue
        verdict = theory.equal(replace_at(t, p, xa), replace_at(t, p, xb))
        if verdict is True:
            fic_p.add(p)
        elif verdict is False:
            ess_p.add(p)
        else:
            und_p.add(p)

    ess_v, fic_v, und_v = set(), set(), set()
    for i in sorted(var_set(t)):
        verdict = theory.equal(t, substitute(t, {i: xa}))
        if verdict is True:
            fic_v.add(i)
        elif verdict is False:
            ess_v.add(i)
        else:
            und_v.add(i)

    return EssentialityReport(
        t,
        frozenset(ess_v),
        frozenset(fic_v),
        frozenset(und_v),
        frozenset(ess_p),
        frozenset(fic_p),
        frozenset(und_p),
    )


def decided_report(t: Term, theory: Theory) -> EssentialityReport:
    """essentiality_report(t, theory) for a caller that needs every position
    classified; raises UndecidedError otherwise."""
    report = essentiality_report(t, theory)
    if report.undecided_positions:
        undecided = sorted(report.undecided_positions)
        raise UndecidedError(
            f"essentiality undecided at positions {undecided} of {t}", query=(t, undecided)
        )
    return report


def essential_positions(t: Term, theory: Theory) -> frozenset:
    return decided_report(t, theory).essential_positions


def essential_subterms(t: Term, theory: Theory) -> set:
    """SEss(t): subterms of t at some essential position, closed under
    theory-equivalence among the subterms of t."""
    at_essential = {subterm_at(t, p) for p in essential_positions(t, theory)}
    return {
        u
        for u in subterm_set(t)
        if u in at_essential or any(theory.holds(u, w) for w in at_essential)
    }


def is_essential_subterm(r: Term, t: Term, theory: Theory) -> bool:
    """Whether r is theory-equivalent to some subterm at an essential position."""
    return any(theory.holds(r, subterm_at(t, p)) for p in essential_positions(t, theory))

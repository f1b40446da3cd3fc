"""Derivation rules, bounded closure, and the stability sweep checkers."""

import dataclasses
import itertools
import json

import pytest

from termalg.algebras import FiniteAlgebra, eval_term, satisfies
from termalg.compose import sigma_compose, star_compose
from termalg.deduction import (
    ClosureBounds,
    RULE_TAGS,
    StabilityReport,
    SweepBounds,
    Violation,
    apply_rule,
    bounded_closure,
    certificate_to_json,
    check_stability,
    validate_report,
)
from termalg.errors import SideConditionError
from termalg.essentiality import decided_report
from termalg.terms import Var, enumerate_terms, parse_term, preorder, var_set
from termalg.theories import REFUTED, CounterModel, Identity, term_sort_key, theory_from_name

from conftest import shared_theory
from test_key_vectors import EXACT_THEORIES

_ASSOC_REPORT = None


def assoc_sweep_report():
    """The (3,3,1) associativity sweep, shared by the tests that inspect it."""
    global _ASSOC_REPORT
    if _ASSOC_REPORT is None:
        _ASSOC_REPORT = check_stability(
            shared_theory("assoc"), "SigmaR1", SweepBounds(3, 3, 1)
        )
    return _ASSOC_REPORT


class TestApplyRule:
    def test_d1_reflexivity(self):
        t = parse_term("f(x1,x2)")
        assert apply_rule("D1", (), {"term": t}) == Identity(t, t)

    def test_d2_symmetry(self):
        ident = Identity.parse("f(x1,x1)=x1")
        assert apply_rule("D2", (ident,)) == ident.flipped()

    def test_d3_transitivity(self):
        a = Identity.parse("f(f(x1,x1),x1)=f(x1,x1)")
        b = Identity.parse("f(x1,x1)=x1")
        assert apply_rule("D3", (a, b)) == Identity.parse("f(f(x1,x1),x1)=x1")

    def test_d3_middle_mismatch(self):
        a = Identity.parse("f(x1,x1)=x1")
        with pytest.raises(SideConditionError):
            apply_rule("D3", (a, Identity.parse("f(x1,x2)=x2")))

    def test_d4_substitution(self):
        ident = Identity.parse("f(x1,x1)=x1")
        got = apply_rule("D4", (ident,), {"var": 1, "term": parse_term("f(x2,x3)")})
        assert got == Identity.parse("f(f(x2,x3),f(x2,x3))=f(x2,x3)")

    def test_d5_replacement(self):
        ident = Identity.parse("f(x1,x1)=x1")
        context = parse_term("f(f(x1,x1),x2)")
        got = apply_rule("D5", (ident,), {"context": context, "position": (1,)})
        assert got == Identity(parse_term("f(x1,x2)"), context)

    def test_d5_wrong_subterm(self):
        with pytest.raises(SideConditionError):
            apply_rule(
                "D5",
                (Identity.parse("f(x1,x1)=x1"),),
                {"context": parse_term("f(x1,x2)"), "position": (1,)},
            )

    def test_premise_count_enforced(self):
        with pytest.raises(SideConditionError):
            apply_rule("D2", ())
        with pytest.raises(SideConditionError):
            apply_rule("D3", (Identity.parse("x1=x1"),))

    def test_unknown_rule(self):
        with pytest.raises(SideConditionError):
            apply_rule("D9", ())

    def test_sigma_r1(self, idempotent):
        premise = Identity.parse("f(f(x1,x1),x2)=f(x1,x2)")
        got = apply_rule(
            "SigmaR1",
            (premise,),
            {"pattern": Var(1), "replacement": parse_term("f(x3,x3)")},
            idempotent,
        )
        assert got == Identity.parse("f(f(x3,x3),x2)=f(f(x3,x3),x2)")
        assert idempotent.equal(got.lhs, got.rhs) is True

    def test_sigma_r1_needs_theory(self):
        with pytest.raises(SideConditionError):
            apply_rule(
                "SigmaR1",
                (Identity.parse("f(x1,x1)=x1"),),
                {"pattern": Var(1), "replacement": Var(2)},
            )

    def test_sigma_r1_rejects_false_premise(self, idempotent):
        with pytest.raises(SideConditionError):
            apply_rule(
                "SigmaR1",
                (Identity.parse("f(x1,x2)=f(x2,x1)"),),
                {"pattern": Var(1), "replacement": Var(3)},
                idempotent,
            )

    def test_sr1_rejects_inessential_pattern(self):
        sigma2 = shared_theory("grp-rule:f(f(x1,x2),x3)=f(x2,x3)")
        premise = Identity.parse("f(f(x1,x2),x3)=f(x2,x3)")
        with pytest.raises(SideConditionError):
            apply_rule(
                "SR1",
                (premise,),
                {"pattern": parse_term("f(x1,x2)"), "replacement": Var(4)},
                sigma2,
            )


class TestBoundedClosure:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ClosureBounds(max_rounds=0)

    def test_idempotent_consequences_present(self):
        axiom = Identity.parse("f(x1,x1)=x1")
        closure = bounded_closure((axiom,), bounds=ClosureBounds(6, 2, 3))
        closure = set(closure)
        assert axiom in closure
        assert axiom.flipped() in closure
        # D4 instance and a D5 context embedding
        assert Identity.parse("f(f(x2,x2),f(x2,x2))=f(x2,x2)") in closure
        assert any(
            ident.lhs == parse_term("f(x1,x2)") and ident.rhs == parse_term("f(f(x1,x1),x2)")
            for ident in closure
        )

    def test_closure_members_hold(self, idempotent):
        closure = bounded_closure(idempotent.axioms, bounds=ClosureBounds(5, 2, 2))
        for ident in closure:
            assert idempotent.equal(ident.lhs, ident.rhs) is True

    def test_sr1_rule_derives_replacement(self):
        # star replacement is not sound for this theory in general (the
        # acceptance sweep exhibits validated violations), but every premise
        # reachable within these small closure bounds composes soundly
        sigma2 = shared_theory("grp-rule:f(f(x1,x2),x3)=f(x2,x3)")
        closure = bounded_closure(
            sigma2.axioms,
            rules=("D2", "D4", "SR1"),
            bounds=ClosureBounds(6, 3, 2),
            theory=sigma2,
        )
        assert all(sigma2.equal(i.lhs, i.rhs) for i in closure)


class TestSweeps:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            SweepBounds(0, 1, 1)

    def test_idempotent_sweep_clean(self, idempotent):
        report = check_stability(idempotent, "SigmaR1", SweepBounds(2, 2, 1))
        assert report.exhaustive
        assert report.violations == []
        assert report.unknowns == []
        assert validate_report(report)

    def test_associativity_sweep_finds_violations(self, assoc):
        report = assoc_sweep_report()
        assert report.violations
        assert validate_report(report)
        # the recorded pairs really are proved identities with refuted compositions
        sample = report.violations[0]
        assert assoc.equal(sample.t, sample.s) is True
        assert assoc.equal(sample.left, sample.right) is False

    def test_validate_report_rejects_a_counter_model_that_is_no_model(self):
        thy = theory_from_name("grp-rule:f(f(x1,x2),x3)=f(x1,x3)")
        report = check_stability(thy, "SR1", SweepBounds(3, 1, 1))
        assert report.violations and validate_report(report)
        bad = FiniteAlgebra.from_rows([[0, 0], [0, 1]])
        assert not satisfies(bad, thy.axioms[0].lhs, thy.axioms[0].rhs)
        v0 = report.violations[0]
        vs = sorted(var_set(v0.left) | var_set(v0.right))
        for values in itertools.product(range(bad.size), repeat=len(vs)):
            assignment = dict(zip(vs, values))
            if eval_term(bad, v0.left, assignment) != eval_term(bad, v0.right, assignment):
                break  # it separates, so only the axioms can reject it
        else:
            pytest.fail("the table does not separate the violation's two sides")
        report.violations[0] = dataclasses.replace(
            v0, certificate=CounterModel(bad, tuple(sorted(assignment.items())))
        )
        assert not validate_report(report)

    @pytest.mark.parametrize(
        "flaw",
        (
            "unproved premise",
            "r essential in neither side",
            "wrong left",
            "wrong right",
            "compositions proved equal",
            "assignment that does not separate",
        ),
    )
    def test_validate_report_rejects_a_flawed_violation(self, flaw):
        thy = shared_theory("grp-rule:f(f(x1,x2),x3)=f(x1,x3)")
        report = check_stability(thy, "SR1", SweepBounds(3, 1, 1))
        assert report.violations and validate_report(report)
        v = report.violations[0]
        s = parse_term("f(f(x1,x1),x1)")  # proved equal to r, not to v.t
        other = parse_term("f(x2,x1)")  # neither side's composition
        # each record but the last drops the counter-model, so that only the
        # named check fails it; an r essential in neither side composes to
        # the sides themselves, so their proved equality fails it too
        changes = {
            "unproved premise": {"s": s, "right": star_compose(s, v.r, v.u, thy)},
            "r essential in neither side": {"r": Var(2)},
            "wrong left": {"left": other},
            "wrong right": {"right": other},
            "compositions proved equal": {
                "u": v.r,
                "left": star_compose(v.t, v.r, v.r, thy),
                "right": star_compose(v.s, v.r, v.r, thy),
            },
        }.get(flaw)
        if changes is not None:
            changes["certificate"] = None
        else:
            model = v.certificate.algebra
            vs = sorted(var_set(v.left) | var_set(v.right))
            assignments = (
                dict(zip(vs, values))
                for values in itertools.product(range(model.size), repeat=len(vs))
            )
            assignment = next(
                a
                for a in assignments
                if eval_term(model, v.left, a) == eval_term(model, v.right, a)
            )
            changes = {"certificate": CounterModel(model, tuple(sorted(assignment.items())))}
        report.violations[0] = dataclasses.replace(v, **changes)
        assert not validate_report(report)

    def test_bounded_sweep_not_exhaustive(self):
        from termalg.theories import Theory

        thy = Theory((Identity.parse("f(f(x1,x1),x1)=f(x1,x1)"),))
        report = check_stability(thy, "SigmaR1", SweepBounds(2, 2, 1))
        assert not report.exhaustive
        assert report.violations == []
        assert validate_report(report)

    def test_bad_mode(self, idempotent):
        with pytest.raises(ValueError):
            check_stability(idempotent, "R2")

    def test_report_json_schema(self, idempotent):
        report = check_stability(idempotent, "SigmaR1", SweepBounds(2, 2, 1))
        doc = report.to_json()
        assert doc["theory"] == idempotent.name
        assert doc["mode"] == "SigmaR1"
        assert doc["bounds"] == {"maxDepth": 2, "maxVars": 2, "maxReplacementSize": 1}
        assert doc["exhaustive"] is True
        assert doc["violations"] == []
        assert isinstance(doc["candidates"], int)

    def test_violation_json_round_trips(self, assoc):
        doc = assoc_sweep_report().to_json()
        entry = doc["violations"][0]
        for key in ("t", "s", "r", "u", "left", "right", "certificate"):
            assert key in entry
        assert parse_term(entry["left"]) != parse_term(entry["right"])

    def test_certificate_json_kinds(self, commutative):
        verdict = commutative.decide(parse_term("f(x1,x2)"), parse_term("f(x1,x1)"))
        doc = certificate_to_json(verdict.certificate)
        assert doc["kind"] == "counter-model"
        assert doc["size"] >= 2
        proved = commutative.decide(parse_term("f(x1,x2)"), parse_term("f(x2,x1)"))
        assert certificate_to_json(proved.certificate)["kind"] == "derivation"


# --- reference: the exact sweep that composes every member of every bucket ---


def ref_sweep_exact(theory, mode, bounds):
    """check_stability on an exact theory, with every bucket swept on its own."""
    compose = sigma_compose if mode == "SigmaR1" else star_compose
    report = StabilityReport(theory, mode, bounds)
    u = Var(bounds.max_vars + 1)
    ranked = sorted(enumerate_terms(bounds.max_depth, bounds.max_vars), key=term_sort_key)
    rank = {t: i for i, t in enumerate(ranked)}
    buckets = {}
    for t in ranked:
        buckets.setdefault(theory._cached_key(t), []).append(t)
    for members in buckets.values():
        if len(members) < 2:
            continue
        rep_for_class = {}
        classes_of = {}
        for t in members:
            verdicts = decided_report(t, theory).verdicts
            keys = set()
            for sub, sub_key, fictive in zip(preorder(t), theory.key_vector(t), verdicts):
                if fictive:
                    continue
                keys.add(sub_key)
                prior = rep_for_class.get(sub_key)
                if prior is None or rank[sub] < rank[prior]:
                    rep_for_class[sub_key] = sub
            classes_of[t] = keys
        for sub_key in sorted(rep_for_class, key=lambda k: rank[rep_for_class[k]]):
            r = rep_for_class[sub_key]
            group = [t for t in members if sub_key in classes_of[t]]
            if len(group) < 2:
                continue
            report.candidates += len(group)
            composed = {}
            for t in group:
                result = compose(t, r, u, theory)
                composed.setdefault(theory._cached_key(result), (t, result))
            if len(composed) > 1:
                outcomes = sorted(composed.values(), key=lambda pair: term_sort_key(pair[1]))
                (t0, left), rest = outcomes[0], outcomes[1:]
                for s0, right in rest:
                    verdict = theory.decide(left, right)
                    assert verdict.outcome == REFUTED
                    report.violations.append(
                        Violation(t0, s0, r, u, left, right, verdict.certificate)
                    )
    return report


NODE_COLLAPSE = "grp-rule:f(f(x1,x2),x3)=f(x2,x1)"
ORBIT_CASES = (
    [(name, SweepBounds(2, 3, 1)) for name in EXACT_THEORIES]
    + [
        (name, bounds)
        for name in ("commutative", "assoc", NODE_COLLAPSE)
        for bounds in (SweepBounds(3, 1, 1), SweepBounds(3, 2, 1))
    ]
    # many variables: 12,110 terms whose renamings number 10! = 3,628,800,
    # and 420 terms with 20! renamings; the orbit search must not list them
    + [(name, SweepBounds(2, 10, 1)) for name in ("idempotent", "assoc")]
    + [("commutative", SweepBounds(1, 20, 1))]
)


@pytest.mark.parametrize("mode", ("SigmaR1", "SR1"))
@pytest.mark.parametrize(
    "name,bounds",
    ORBIT_CASES,
    ids=[f"{name}-{b.max_depth}{b.max_vars}{b.max_u_size}" for name, b in ORBIT_CASES],
)
def test_orbit_sweep_matches_reference(name, bounds, mode):
    # each side gets its own theory, so neither reads answers the other cached
    got, want = (
        json.dumps(report.to_json(), sort_keys=True)
        for report in (
            check_stability(theory_from_name(name), mode, bounds),
            ref_sweep_exact(theory_from_name(name), mode, bounds),
        )
    )
    # a plain flag: pytest's own diff of two long one-line strings takes minutes
    same = got == want
    first = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
    )
    assert same, f"reports differ from character {first}: {got[max(0, first - 40):first + 80]!r}"

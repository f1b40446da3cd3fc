"""Essential/fictive positions and variables, and essential subterms."""

import random

import pytest

from termalg.essentiality import (
    EssentialityReport,
    _compute_report,
    essential_positions,
    essential_subterms,
    essentiality_report,
    is_essential_subterm,
    variable_verdicts,
)
from termalg.terms import (
    Var,
    max_var_index,
    parse_term,
    positions,
    random_term,
    replace_at,
    var_set,
)
from termalg.theories import Identity, OracleConfig, Theory

from conftest import shared_theory


def sigma2():
    return shared_theory("grp-rule:f(f(x1,x2),x3)=f(x2,x3)")


def ref_compute_report(t, theory):
    """One query per position in sorted order, skipping each position that
    has a fictive proper prefix."""
    n = max_var_index(t)
    xa, xb = Var(n + 1), Var(n + 2)
    ess_p, fic_p = set(), set()
    pos = positions(t)
    for p in sorted(pos):
        if any(p[:k] in fic_p for k in range(len(p))):
            fic_p.add(p)
            continue
        verdict = theory.equal(replace_at(t, p, xa), replace_at(t, p, xb))
        if verdict is True:
            fic_p.add(p)
        elif verdict is False:
            ess_p.add(p)
    verdicts = tuple(True if p in fic_p else False if p in ess_p else None for p in pos)
    return EssentialityReport(t, verdicts)


class CountingTheory(Theory):
    """A bounded theory that records every equality query it is asked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queries = []

    def equal(self, t, s):
        self.queries.append((t, s))
        return super().equal(t, s)


class TestReport:
    def test_left_discard_rule(self):
        # f(f(x1,x2),x3) = f(x2,x3) makes the innermost left leaf irrelevant
        t = parse_term("f(f(x1,x2),x3)")
        rep = essentiality_report(t, sigma2())
        assert variable_verdicts(t, sigma2()) == ({2, 3}, {1}, set())
        assert rep.fictive_positions == {(1, 1)}
        assert rep.essential_positions == {(), (1,), (1, 2), (2,)}
        assert rep.decided

    def test_partition_is_total(self, idempotent):
        rng = random.Random(4)
        for _ in range(20):
            t = random_term(rng, 4, 3)
            rep = essentiality_report(t, idempotent)
            essential, fictive, undecided = variable_verdicts(t, idempotent)
            assert essential | fictive | undecided == var_set(t)
            all_pos = rep.essential_positions | rep.fictive_positions | rep.undecided_positions
            assert all_pos == set(positions(t))

    def test_fictive_positions_upward_closed(self):
        thy = sigma2()
        rng = random.Random(5)
        for _ in range(25):
            t = random_term(rng, 4, 3)
            rep = essentiality_report(t, thy)
            for p in rep.fictive_positions:
                for q in positions(t):
                    if len(q) > len(p) and q[: len(p)] == p:
                        assert q in rep.fictive_positions

    def test_fictive_subtree(self):
        # the whole discarded branch is fictive, including its leaves
        rep = essentiality_report(parse_term("f(f(f(x1,x2),x3),x4)"), sigma2())
        assert {(1, 1), (1, 1, 1), (1, 1, 2)} <= rep.fictive_positions

    def test_variable_fictive_only_if_every_occurrence_is(self):
        # x2 occurs both in the discarded branch and in an essential spot
        essential, _, _ = variable_verdicts(parse_term("f(f(x2,x1),x2)"), sigma2())
        assert 2 in essential

    def test_root_always_essential_in_consistent_theories(self, commutative):
        rep = essentiality_report(parse_term("f(x1,x2)"), commutative)
        assert () in rep.essential_positions

    def test_report_cached_across_renaming(self, idempotent):
        t, renamed = parse_term("f(x1,f(x2,x1))"), parse_term("f(x7,f(x3,x7))")
        assert essentiality_report(renamed, idempotent) is essentiality_report(t, idempotent)
        essential, fictive, undecided = variable_verdicts(renamed, idempotent)
        assert essential == {7, 3} - fictive and not undecided

    def test_no_query_per_variable(self):
        # one query per position outside a fictive subtree, none per variable
        axiom = Identity.parse("f(f(x1,x2),x3)=f(x2,x3)")
        thy = CountingTheory((axiom,), OracleConfig(max_model_size=2, max_deduction_steps=200))
        t = parse_term("f(f(f(x1,x2),x3),x4)")
        rep = essentiality_report(t, thy)
        assert (1, 1) in rep.fictive_positions
        under_fictive = {
            p for p in positions(t) if any(p[:k] in rep.fictive_positions for k in range(len(p)))
        }
        assert len(thy.queries) <= len(positions(t)) - len(under_fictive)
        assert all(t not in query for query in thy.queries)


# each axiom has the same variables on both sides, so a variable planted
# anywhere stays in every equal term: no position is ever fictive
REGULAR_THEORIES = ("idempotent", "commutative", "assoc")
EXACT_THEORIES = (
    *REGULAR_THEORIES,
    *(f"sg-abs-{i}-{j}" for i in (1, 2, 3) for j in (1, 2, 3)),
    "grp-rule:f(f(x1,x2),x3)=f(x2,x3)",  # Σ2
    "grp-rule:f(f(x1,x2),x3)=f(x2,x1)",  # node-collapse
    "grp-rule:f(x1,f(x2,x3))=f(x1,x3)",  # convergent
)


@pytest.mark.parametrize("name", EXACT_THEORIES)
def test_report_matches_the_reference(name):
    # every exact decider's one-plant question against the reference's pair
    thy = shared_theory(name)
    assert thy.exact
    rng = random.Random(6)
    fictive = 0
    for _ in range(40):
        t = random_term(rng, 5, rng.randint(1, 4), leaf_prob=0.2)
        got = _compute_report(t, thy)
        assert got == ref_compute_report(t, thy), t
        fictive += bool(got.fictive_positions)
    assert fictive > 0 or name in REGULAR_THEORIES


@pytest.mark.parametrize("name", (*EXACT_THEORIES, "bounded"))
def test_index_view_matches_the_sets(name):
    """verdicts[i] names the one set that holds the i-th position."""
    if name == "bounded":
        axiom = Identity.parse("f(f(x1,x1),x2)=f(x2,x2)")
        thy = Theory((axiom,), OracleConfig(max_model_size=2, max_deduction_steps=20))
    else:
        thy = shared_theory(name)
    rng = random.Random(7)
    seen = set()
    for _ in range(25 if name == "bounded" else 60):
        t = random_term(rng, 4, rng.randint(1, 3), leaf_prob=0.2)
        rep = essentiality_report(t, thy)
        sets = {False: rep.essential_positions, True: rep.fictive_positions,
                None: rep.undecided_positions}
        pos = positions(t)
        assert len(rep.verdicts) == len(pos) == sum(map(len, sets.values()))
        for p, verdict in zip(pos, rep.verdicts):
            assert p in sets[verdict], (t, p)
            seen.add(verdict)
    assert False in seen
    assert (None in seen) == (name == "bounded")


class TestVariableVerdicts:
    def test_undecided_theory(self):
        # no model of size 1 separates anything, and one BFS step proves
        # nothing but reflexivity
        axiom = Identity.parse("f(f(x1,x1),x2)=f(x2,x2)")
        thy = Theory((axiom,), OracleConfig(max_model_size=1, max_deduction_steps=1))
        assert variable_verdicts(parse_term("f(x1,x2)"), thy) == (set(), set(), {1, 2})


class TestEssentialSubterms:
    T = parse_term("f(f(x3,f(x1,x2)),f(x2,f(x1,x2)))")

    def test_essential_positions_worked_example(self):
        got = essential_positions(self.T, sigma2())
        assert (1, 1) not in got and (1, 2, 1) not in got
        assert {(), (2,), (2, 2)} <= got

    def test_is_essential_subterm(self):
        thy = sigma2()
        assert is_essential_subterm(parse_term("f(x1,x2)"), self.T, thy)
        assert not is_essential_subterm(Var(9), self.T, thy)

    def test_essential_subterms_closed_under_equivalence(self, idempotent):
        t = parse_term("f(f(x1,x1),x2)")
        got = essential_subterms(t, idempotent)
        # f(x1,x1) sits at an essential position and x1 is provably equal to it
        assert parse_term("f(x1,x1)") in got
        assert Var(1) in got

    def test_fictive_branch_excluded(self):
        thy = sigma2()
        t = parse_term("f(f(f(x1,x2),x3),x4)")
        got = essential_subterms(t, thy)
        assert parse_term("f(x1,x2)") not in got
        assert Var(3) in got and Var(4) in got

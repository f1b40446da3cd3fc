"""The four composition operators and their position-set machinery."""

import pytest

from termalg.compose import (
    check_incomparable,
    inductive_compose,
    positional_compose,
    sigma_compose,
    sigma_match_positions,
    sigma_position_sets,
    star_compose,
)
from termalg.errors import (
    IncomparablePositionsError,
    InvalidPositionError,
    NestedPatternsError,
)
from termalg.terms import Var, parse_term

from conftest import shared_theory

R = parse_term("f(x1,x2)")


class TestInductive:
    def test_every_occurrence_replaced(self):
        t = parse_term("f(f(x1,x2),f(x2,f(x1,x2)))")
        out = inductive_compose(t, [(R, Var(3))])
        assert out == parse_term("f(x3,f(x2,x3))")

    def test_simultaneous_patterns(self):
        t = parse_term("f(x1,f(x2,x3))")
        out = inductive_compose(t, [(Var(1), Var(4)), (parse_term("f(x2,x3)"), Var(5))])
        assert out == parse_term("f(x4,x5)")

    def test_no_rescan_of_substituted_terms(self):
        # the pattern occurring inside its own replacement is left alone
        t = parse_term("f(f(x1,x2),x3)")
        out = inductive_compose(t, [(R, parse_term("f(x9,f(x1,x2))"))])
        assert out == parse_term("f(f(x9,f(x1,x2)),x3)")

    def test_deep_chain(self):
        depth = 3000
        t = parse_term("f(" * depth + "x1" + ",x2)" * depth)
        out = inductive_compose(t, [(R, Var(3))])
        assert out is parse_term("f(" * (depth - 1) + "x3" + ",x2)" * (depth - 1))
        assert inductive_compose(t, [(Var(2), R)]) is parse_term(
            "f(" * depth + "x1" + ",f(x1,x2))" * depth
        )

    def test_nested_patterns_rejected(self):
        with pytest.raises(NestedPatternsError):
            inductive_compose(R, [(R, Var(3)), (Var(1), Var(4))])
        with pytest.raises(NestedPatternsError):
            inductive_compose(R, [(R, Var(3)), (R, Var(4))])


class TestPositional:
    def test_golden(self):
        t = parse_term("f(f(x1,x2),f(x3,x4))")
        out = positional_compose(t, [(1,), (2, 2)], [Var(9), Var(8)])
        assert out == parse_term("f(x9,f(x3,x8))")

    def test_empty_is_identity(self):
        assert positional_compose(R, [], []) == R

    def test_comparable_positions_rejected(self):
        with pytest.raises(IncomparablePositionsError):
            positional_compose(parse_term("f(f(x1,x2),x3)"), [(1,), (1, 2)], [Var(4), Var(5)])
        with pytest.raises(IncomparablePositionsError):
            check_incomparable([(), (2,)])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            positional_compose(R, [(1,)], [Var(3), Var(4)])

    def test_invalid_position(self):
        with pytest.raises(InvalidPositionError):
            positional_compose(R, [(1, 1)], [Var(3)])


class TestSigmaPositionSets:
    # worked example under the rewrite rule f(f(x1,x2),x3) = f(x2,x3)
    T = parse_term("f(f(x3,f(x1,x2)),f(x2,f(x1,x2)))")
    S = parse_term("f(x2,f(x2,f(x1,x2)))")

    def test_match_positions(self):
        sigma2 = shared_theory("grp-rule:f(f(x1,x2),x3)=f(x2,x3)")
        assert sigma_match_positions(self.T, R, sigma2) == {(1, 2), (2, 2)}
        assert sigma_match_positions(self.S, R, sigma2) == {(2, 2)}

    def test_minimal_vs_essential_minimal(self):
        sigma2 = shared_theory("grp-rule:f(f(x1,x2),x3)=f(x2,x3)")
        sets = sigma_position_sets(self.T, R, sigma2)
        assert sets.minimal == {(1, 2), (2, 2)}
        # the (1,2) match sits under a fictive branch, so only (2,2) is kept
        assert sets.essential_minimal == {(2, 2)}
        sets_s = sigma_position_sets(self.S, R, sigma2)
        assert sets_s.minimal == sets_s.essential_minimal == {(2, 2)}

    def test_minimal_drops_nested_matches(self):
        idem = shared_theory("idempotent")
        t = parse_term("f(f(x1,x1),f(x1,x1))")
        sets = sigma_position_sets(t, Var(1), idem)
        # every subterm is provably x1; only the root is prefix-minimal
        assert sets.all_matches == frozenset({p for p in [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]})
        assert sets.minimal == {()}


class TestSigmaCompose:
    def test_worked_example(self):
        sigma2 = shared_theory("grp-rule:f(f(x1,x2),x3)=f(x2,x3)")
        t, s = TestSigmaPositionSets.T, TestSigmaPositionSets.S
        assert sigma_compose(t, R, Var(3), sigma2) == parse_term("f(f(x3,x3),f(x2,x3))")
        assert sigma_compose(s, R, Var(3), sigma2) == parse_term("f(x2,f(x2,x3))")

    def test_no_match_is_identity(self, idempotent):
        t = parse_term("f(x1,x2)")
        assert sigma_compose(t, parse_term("f(x3,x3)"), Var(5), idempotent) == t

    def test_equal_patterns_give_identical_results(self, idempotent):
        # match positions depend only on the equivalence class of the pattern
        t = parse_term("f(f(x1,x1),x2)")
        a = sigma_compose(t, Var(1), Var(7), idempotent)
        b = sigma_compose(t, parse_term("f(x1,x1)"), Var(7), idempotent)
        assert a == b


class TestStarCompose:
    def test_replaces_only_essential_matches(self):
        sigma2 = shared_theory("grp-rule:f(f(x1,x2),x3)=f(x2,x3)")
        t = TestSigmaPositionSets.T
        assert star_compose(t, R, Var(4), sigma2) == parse_term("f(f(x3,f(x1,x2)),f(x2,x4))")

    def test_associativity_example(self, assoc):
        t = parse_term("f(f(f(x1,x2),x1),x2)")
        s = parse_term("f(f(x1,x2),f(x1,x2))")
        assert star_compose(t, R, Var(3), assoc) == parse_term("f(f(x3,x1),x2)")
        assert star_compose(s, R, Var(3), assoc) == parse_term("f(x3,x3)")

    def test_whole_term_equal_to_pattern(self, idempotent):
        # when t itself is provably the pattern, the result is the replacement
        assert star_compose(parse_term("f(x1,x1)"), Var(1), parse_term("f(x2,x2)"), idempotent) == parse_term("f(x2,x2)")

    def test_no_essential_match_is_identity(self):
        sigma2 = shared_theory("grp-rule:f(f(x1,x2),x3)=f(x2,x3)")
        # the only match of f(x1,x2) sits under the fictive first branch
        t = parse_term("f(f(f(x1,x2),x3),x4)")
        assert star_compose(t, R, Var(5), sigma2) == t

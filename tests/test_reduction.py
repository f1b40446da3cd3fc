"""Reducible pairs, removable positions, and the two normal forms."""

import random

import pytest

from termalg.errors import NotReducibleError, NotRemovableError
from termalg.essentiality import decided_report, essentiality_report
from termalg.reduction import (
    ReduciblePair,
    er,
    normal_form,
    reduce_with_strategy,
    reducible_pairs,
    removable_positions,
    sr,
    step_E,
    step_S,
)
from termalg.terms import (
    Var,
    parse_term,
    proper_prefix,
    random_term,
    subterm_at,
)

from conftest import shared_theory


def sigma2():
    return shared_theory("grp-rule:f(f(x1,x2),x3)=f(x2,x3)")


def ref_removable_positions(t, theory, memo=None):
    """Rm as a fixpoint: the minimal fictive positions, then, round after
    round, every removable position's sibling with that sibling's Rm below
    it, until a round adds nothing; memo caches Rm per subterm."""
    memo = {} if memo is None else memo
    got = memo.get(t)
    if got is not None:
        return got
    fictive = decided_report(t, theory).fictive_positions
    removable = {p for p in fictive if p and not any(proper_prefix(q, p) for q in fictive)}
    changed = True
    while changed:
        changed = False
        for x in sorted(removable):
            sibling = x[:-1] + (3 - x[-1],)
            for q2 in ref_removable_positions(subterm_at(t, sibling), theory, memo):
                if sibling + q2 not in removable:
                    removable.add(sibling + q2)
                    changed = True
    memo[t] = frozenset(removable)
    return memo[t]


class TestReduciblePairs:
    def test_pair_validation(self):
        with pytest.raises(ValueError):
            ReduciblePair((1,), (2,))
        with pytest.raises(ValueError):
            ReduciblePair((1,), (1,))

    def test_idempotent_golden(self, idempotent):
        # every subterm of f(f(x1,x1),x1) is provably x1; the root is the
        # outermost head and the three leaves are the maximal tails
        t = parse_term("f(f(x1,x1),x1)")
        got = reducible_pairs(t, idempotent)
        assert got == {
            ReduciblePair((), (1, 1)),
            ReduciblePair((), (1, 2)),
            ReduciblePair((), (2,)),
        }

    def test_normal_form_has_no_pairs(self):
        thy = sigma2()
        t = parse_term("f(f(x1,x2),x2)")
        assert reducible_pairs(t, thy) == frozenset()

    def test_nested_clause(self, idempotent):
        # pairs inside the tail subterm are composed through the tail
        t = parse_term("f(x2,f(f(x1,x1),x1))")
        got = reducible_pairs(t, idempotent)
        inner = {((2,) + p.p, (2,) + p.q) for p in reducible_pairs(parse_term("f(f(x1,x1),x1)"), idempotent)}
        assert {(p.p, p.q) for p in got} >= inner


class TestRemovablePositions:
    def test_minimal_fictive_golden(self):
        assert removable_positions(parse_term("f(f(x1,x2),x3)"), sigma2()) == {(1, 1)}

    def test_sibling_cascade(self):
        # removing x1 exposes the sibling branch, whose own removable
        # positions are reachable through it
        t = parse_term("f(f(x1,f(f(x2,x3),x4)),x5)")
        got = removable_positions(t, sigma2())
        assert (1, 1) in got and (1, 2, 1, 1) in got

    def test_no_removals_in_commutative(self, commutative):
        assert removable_positions(parse_term("f(f(x1,x2),x3)"), commutative) == frozenset()

    def test_superset_of_minimal_fictives(self):
        thy = sigma2()
        rng = random.Random(7)
        for _ in range(20):
            t = random_term(rng, 4, 3)
            fictive = {p for p in essentiality_report(t, thy).fictive_positions if p}
            minimal = {
                p for p in fictive if not any(q != p and q == p[: len(q)] for q in fictive)
            }
            assert removable_positions(t, thy) >= minimal

    @pytest.mark.parametrize(
        "name",
        (
            *(f"sg-abs-{i}-{j}" for i in (1, 2, 3) for j in (1, 2, 3)),
            "grp-rule:f(f(x1,x2),x3)=f(x2,x3)",  # Σ2
            "grp-rule:f(f(x1,x2),x3)=f(x2,x1)",  # node-collapse
        ),
    )
    def test_matches_the_reference(self, name):
        thy = shared_theory(name)
        rng = random.Random(8)
        nested = 0
        for _ in range(60):
            t = random_term(rng, 6, rng.randint(1, 4), leaf_prob=0.2)
            got = removable_positions(t, thy)
            assert got == ref_removable_positions(t, thy), t
            fictive = decided_report(t, thy).fictive_positions
            minimal = {p for p in fictive if not any(proper_prefix(q, p) for q in fictive)}
            nested += not got.issubset(minimal)
        assert nested > 0


class TestSteps:
    def test_step_s(self, idempotent):
        t = parse_term("f(f(x1,x1),x1)")
        assert step_S(t, ReduciblePair((), (2,)), idempotent) == Var(1)

    def test_step_s_rejects_non_pair(self, commutative):
        with pytest.raises(NotReducibleError):
            step_S(parse_term("f(x1,x2)"), ReduciblePair((), (1,)), commutative)

    def test_step_e(self):
        t = parse_term("f(f(x1,x2),x3)")
        assert step_E(t, (1, 1), sigma2()) == parse_term("f(x2,x3)")

    def test_step_e_rejects_root_and_non_removable(self, commutative):
        with pytest.raises(NotRemovableError):
            step_E(parse_term("f(x1,x2)"), ())
        with pytest.raises(NotRemovableError):
            step_E(parse_term("f(x1,x2)"), (1,), commutative)


class TestNormalForms:
    def test_sr_golden(self, idempotent):
        assert sr(parse_term("f(f(x1,x1),x1)"), idempotent) == Var(1)
        assert sr(parse_term("f(x1,x2)"), idempotent) == parse_term("f(x1,x2)")

    def test_er_golden(self):
        thy = sigma2()
        assert er(parse_term("f(f(x1,x2),x3)"), thy) == parse_term("f(x2,x3)")
        assert er(parse_term("f(f(f(x1,x2),x3),x4)"), thy) == parse_term("f(x3,x4)")

    def test_bad_mode(self, idempotent):
        with pytest.raises(ValueError):
            normal_form(Var(1), idempotent, "X")

    def test_trace_lengths_strictly_decrease(self, idempotent):
        rng = random.Random(11)
        for _ in range(10):
            t = random_term(rng, 4, 2)
            _, trace = normal_form(t, idempotent, "S")
            lens = [t.length] + [result.length for _, _, result in trace.steps]
            assert all(a > b for a, b in zip(lens, lens[1:]))

    def test_trace_json_shape(self):
        thy = sigma2()
        _, trace = normal_form(parse_term("f(f(x1,x2),x3)"), thy, "E")
        doc = trace.to_json()
        assert doc["start"] == "f(f(x1,x2),x3)"
        assert doc["steps"] == [{"kind": "E", "position": "11", "result": "f(x2,x3)"}]

    def test_sr_preserves_theory_class(self):
        thy = sigma2()
        rng = random.Random(13)
        for _ in range(25):
            t = random_term(rng, 4, 3)
            assert thy.equal(t, sr(t, thy)) is True

    def test_er_preserves_theory_class_for_discard_rule(self):
        thy = sigma2()
        rng = random.Random(17)
        for _ in range(25):
            t = random_term(rng, 4, 3)
            assert thy.equal(t, er(t, thy)) is True

    def test_normal_forms_are_fixpoints(self, idempotent):
        rng = random.Random(19)
        for _ in range(10):
            t = random_term(rng, 4, 2)
            n = sr(t, idempotent)
            assert sr(n, idempotent) == n
            m = er(t, idempotent)
            assert er(m, idempotent) == m

    def test_strategy_runner_reaches_a_normal_form(self, idempotent):
        rng = random.Random(23)
        for seed in range(5):
            t = random_term(rng, 4, 2)
            n = reduce_with_strategy(t, idempotent, "S", seed)
            assert reducible_pairs(n, idempotent) == frozenset()
            assert idempotent.equal(t, n) is True

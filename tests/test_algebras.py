"""Finite algebras: evaluation, satisfaction, model enumeration."""

import itertools
import random

import pytest

from termalg.algebras import (
    FiniteAlgebra,
    ModelStack,
    distinguish_over_models,
    enumerate_tables,
    eval_term,
    satisfies,
    term_values,
)
from termalg.errors import MissingAssignmentError
from termalg.terms import Var, enumerate_terms_by_length, parse_term, var_set
from termalg.theories import Identity, Theory, _models_vectorized, theory_from_name

LEFT_ZERO = FiniteAlgebra.from_rows([[0, 0], [1, 1]])  # f(a,b) = a
XOR = FiniteAlgebra.from_rows([[0, 1], [1, 0]])


def scan_for_difference(algebra, lhs, rhs):
    """The first assignment, row-major, where lhs and rhs differ, or None."""
    vs = sorted(var_set(lhs) | var_set(rhs))
    for values in itertools.product(range(algebra.size), repeat=len(vs)):
        assignment = dict(zip(vs, values))
        if eval_term(algebra, lhs, assignment) != eval_term(algebra, rhs, assignment):
            return assignment
    return None


class TestEvaluation:
    def test_left_projection(self):
        assert eval_term(LEFT_ZERO, parse_term("f(x1,x2)"), {1: 1, 2: 0}) == 1

    def test_leaf(self):
        assert eval_term(LEFT_ZERO, Var(3), {3: 1}) == 1

    def test_xor_hand_evaluation(self):
        # XOR(XOR(1,1),1) = 1
        assert eval_term(XOR, parse_term("f(f(x1,x1),x2)"), {1: 1, 2: 1}) == 1

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignmentError):
            eval_term(XOR, parse_term("f(x1,x2)"), {1: 0})

    def test_deep_chain(self):
        depth = 3000
        chain = parse_term("f(" * depth + "x1" + ",x2)" * depth)
        # XOR adds x2 to x1 depth times
        assert eval_term(XOR, chain, {1: 1, 2: 1}) == (1 + depth) % 2

    def test_term_values_matches_pointwise(self):
        t = parse_term("f(f(x1,x2),f(x2,x3))")
        vs = [1, 2, 3]
        stack = ModelStack(2, [XOR.table, LEFT_ZERO.table])
        values = term_values(stack, t, vs, {})
        assert values.shape == (2, 8)
        for m, algebra in enumerate((XOR, LEFT_ZERO)):
            for k, point in enumerate(itertools.product(range(2), repeat=3)):
                assert values[m, k] == eval_term(algebra, t, dict(zip(vs, point)))


class TestSatisfaction:
    def test_xor_satisfies_cancellation(self):
        assert satisfies(XOR, parse_term("f(f(x1,x1),x2)"), Var(2))

    def test_left_zero_fails_commutativity(self):
        assert not satisfies(LEFT_ZERO, parse_term("f(x1,x2)"), parse_term("f(x2,x1)"))

    def test_distinguishing_assignment(self):
        got = scan_for_difference(LEFT_ZERO, parse_term("f(x1,x2)"), parse_term("f(x2,x1)"))
        assert got is not None
        lhs = eval_term(LEFT_ZERO, parse_term("f(x1,x2)"), got)
        rhs = eval_term(LEFT_ZERO, parse_term("f(x2,x1)"), got)
        assert lhs != rhs

    def test_distinguish_over_models_agrees_with_scan(self):
        models = list(enumerate_tables((), 2))
        lhs, rhs = parse_term("f(x1,x2)"), parse_term("f(x2,x1)")
        batched = distinguish_over_models(ModelStack(2, [m.table for m in models]), lhs, rhs)
        # the first model with any distinguishing assignment, scanned in order
        for m in models:
            single = scan_for_difference(m, lhs, rhs)
            if single is not None:
                assert batched[0] == m
                a = batched[1]
                assert eval_term(m, lhs, a) != eval_term(m, rhs, a)
                break
        else:
            assert batched is None


class TestEnumeration:
    def test_all_size_2_tables(self):
        assert len(list(enumerate_tables((), 2))) == 16

    def test_idempotent_size_2_count(self):
        # f(a,a)=a pins the diagonal; the two off-diagonal cells are free
        axiom = (parse_term("f(x1,x1)"), Var(1))
        assert len(list(enumerate_tables((axiom,), 2))) == 4

    def test_flat_round_trip(self):
        assert FiniteAlgebra.from_flat(2, XOR.to_flat()) == XOR

    def test_bad_tables_rejected(self):
        with pytest.raises(ValueError):
            FiniteAlgebra.from_rows([[0, 2], [1, 1]])
        with pytest.raises(ValueError):
            FiniteAlgebra.from_flat(2, [0, 1, 1])
        with pytest.raises(ValueError, match="non-empty"):
            FiniteAlgebra.from_rows([])
        with pytest.raises(ValueError, match="size x size"):
            FiniteAlgebra.from_rows([[0, 1], [1]])

    def test_no_tables_of_size_zero(self):
        with pytest.raises(ValueError, match="size must be >= 1"):
            next(enumerate_tables((), 0))


AXIOMS = tuple(
    Identity.parse(text)
    for text in (
        "f(f(x1,x2),x3)=f(x1,f(x2,x3))",
        "f(x1,x1)=x1",
        "f(x1,x2)=f(x2,x1)",
        "f(f(x1,x1),x2)=f(x2,x2)",
        "f(f(x1,x2),x3)=f(x2,x3)",
    )
)


def build_theory(spec):
    if spec.startswith("axioms:"):
        return Theory((Identity.parse(spec[len("axioms:") :]),))
    return theory_from_name(spec)


class TestModelEngine:
    """The vectorised evaluator against scalar scans with ``eval_term``."""

    @pytest.mark.parametrize(
        "spec",
        ["assoc", "grp-rule:f(f(x1,x2),x3)=f(x2,x3)", "commutative", "axioms:f(f(x1,x1),x2)=f(x2,x2)"],
    )
    def test_refute_finds_the_first_model_and_assignment_of_a_scan(self, spec):
        thy = build_theory(spec)
        by_size = {n: [m for m in thy.models() if m.size == n] for n in (2, 3)}
        terms = list(enumerate_terms_by_length(5, 4))
        rng = random.Random(spec)
        refuted = 0
        for _ in range(200):
            t, s = rng.choice(terms), rng.choice(terms)
            expected = None
            for n in (2, 3):
                for m in by_size[n]:
                    a = scan_for_difference(m, t, s)
                    if a is not None:
                        expected = (m, a)
                        break
                if expected is not None:
                    break
            assert thy.refute(t, s) == expected, (t, s)
            refuted += expected is not None
        assert refuted > 0

    def test_vectorised_model_search_matches_the_table_scan(self):
        for axiom in AXIOMS:
            pairs = ((axiom.lhs, axiom.rhs),)
            assert _models_vectorized(pairs, 2).algebras == list(enumerate_tables(pairs, 2))

    def test_satisfies_matches_a_scalar_scan_at_size_3(self):
        rng = random.Random(3)
        algebras = [
            FiniteAlgebra.from_flat(3, [rng.randrange(3) for _ in range(9)]) for _ in range(40)
        ]
        algebras += build_theory("assoc").models(3)[-20:]
        algebras += build_theory("commutative").models(3)[-20:]
        outcomes = set()
        for algebra in algebras:
            for axiom in AXIOMS:
                got = satisfies(algebra, axiom.lhs, axiom.rhs)
                assert got == (scan_for_difference(algebra, axiom.lhs, axiom.rhs) is None)
                outcomes.add(got)
        assert outcomes == {True, False}


def scan_for_classes(stack):
    """The stack's models whose canonical form, the least of the tables
    relabelled by every carrier permutation, no earlier model had."""
    n = stack.size
    seen, kept = set(), []
    for m in stack.algebras:
        forms = []
        for p in itertools.permutations(range(n)):
            table = [[None] * n for _ in range(n)]
            for a, b in itertools.product(range(n), repeat=2):
                table[p[a]][p[b]] = p[m.table[a][b]]
            forms.append(tuple(map(tuple, table)))
        form = min(forms)
        if form not in seen:
            seen.add(form)
            kept.append(m)
    return kept


def reversed_stack(stack):
    return ModelStack(stack.size, [m.table for m in reversed(stack.algebras)])


class TestIsomorphismClasses:
    """``ModelStack.classes``: the first model of each isomorphism class."""

    @pytest.mark.parametrize(
        "spec, counts",
        [
            ("assoc", (5, 24)),  # semigroups up to isomorphism, OEIS A027851
            ("commutative", (4, 129)),  # commutative groupoids, OEIS A001425
        ],
    )
    def test_class_counts(self, spec, counts):
        thy = build_theory(spec)
        assert tuple(len(thy._model_stack(n).classes) for n in (2, 3)) == counts

    @pytest.mark.parametrize("spec", ["idempotent", "assoc", "axioms:f(f(x1,x1),x2)=f(x2,x2)"])
    def test_classes_match_a_scalar_scan(self, spec):
        thy = build_theory(spec)
        for n in (2, 3):
            # a model stack lists each class's least encoding first; the
            # reversed stack checks that any order is kept
            for stack in (thy._model_stack(n), reversed_stack(thy._model_stack(n))):
                assert stack.classes.algebras == scan_for_classes(stack)
                assert len(stack.classes) < len(stack)

    def test_stacks_of_fewer_than_two_models_come_back_unchanged(self):
        thy = build_theory("grp-rule:f(x1,x2)=x3")
        for n in (1, 2, 3):
            stack = thy._model_stack(n)
            assert len(stack) == (n == 1)
            assert stack.classes is stack
        one = ModelStack(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])  # Z3
        assert one.classes is one

    @pytest.mark.parametrize(
        "spec",
        [
            "idempotent",
            "commutative",
            "assoc",
            "grp-rule:f(f(x1,x2),x3)=f(x2,x3)",
            "sg-abs-1-2",
            "axioms:f(f(x1,x1),x2)=f(x2,x2)",
            "axioms:f(f(x1,x2),x1)=f(x1,x1)",
        ],
    )
    def test_refutation_over_classes_returns_the_full_scan_witness(self, spec):
        thy = build_theory(spec)
        terms = list(enumerate_terms_by_length(5, 4))
        rng = random.Random(spec)
        pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(150)]
        pairs += [(t, t) for t in rng.sample(terms, 5)]
        outcomes = set()
        for n in (2, 3):
            for stack in (thy._model_stack(n), reversed_stack(thy._model_stack(n))):
                for t, s in pairs:
                    found = distinguish_over_models(stack, t, s)
                    assert distinguish_over_models(stack.classes, t, s) == found, (n, t, s)
                    outcomes.add(found is None)
        assert outcomes == {True, False}

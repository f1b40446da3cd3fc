"""Term core: positions, orders, valuations, arrays, text syntax, enumeration."""

import ast
import gc
import pathlib
import weakref

import pytest
from hypothesis import given, strategies as st

from termalg import terms
from termalg.errors import InvalidPositionError, MalformedArraysError, ParseError
from termalg.terms import (
    Node,
    Var,
    code_ends,
    enumerate_terms,
    enumerate_terms_by_length,
    flat_code,
    fold_term,
    from_arrays,
    from_flat_code,
    max_var_index,
    outermost,
    parse_position,
    parse_term,
    position_to_text,
    positions,
    prefix_leq,
    preorder,
    proper_prefix,
    random_term,
    rename_canonical,
    replace_at,
    splice,
    substitute,
    subterm_at,
    subterm_set,
    term_to_text,
    to_arrays,
    valuations,
    var_set,
    variables,
)

import random


def terms_strategy(max_depth=5, num_vars=4):
    leaf = st.integers(1, num_vars).map(Var)
    return st.recursive(leaf, lambda sub: st.tuples(sub, sub).map(lambda p: Node(*p)), max_leaves=2**max_depth)


SAMPLE = parse_term("f(x3,f(f(x1,x2),x2))")


class TestStructure:
    def test_var_index_validation(self):
        with pytest.raises(ValueError):
            Var(0)
        with pytest.raises(ValueError):
            Var(-3)

    def test_node_children_validation(self):
        with pytest.raises(TypeError):
            Node(Var(1), "x2")

    def test_immutability(self):
        t = Node(Var(1), Var(2))
        with pytest.raises(AttributeError):
            t.left = Var(3)

    def test_structural_equality_and_hash(self):
        a = Node(Var(1), Node(Var(2), Var(1)))
        b = Node(Var(1), Node(Var(2), Var(1)))
        assert a == b and hash(a) == hash(b)
        assert a != Node(Var(1), Node(Var(1), Var(2)))
        # interned terms hash by identity
        assert hash(a) == object.__hash__(a)


class TestInterning:
    def test_equal_terms_are_one_object(self):
        text = "f(x3,f(f(x1,x2),x2))"
        assert parse_term(text) is parse_term(text)
        assert Node(Var(1), Var(2)) is Node(Var(1), Var(2))
        assert Var(7) is Var(7)
        assert replace_at(SAMPLE, (1,), Var(3)) is SAMPLE

    @given(terms_strategy())
    def test_text_round_trip_returns_the_interned_term(self, t):
        assert parse_term(term_to_text(t)) is t

    def test_table_releases_dead_terms(self):
        gc.collect()
        gc.disable()  # no collection of unrelated garbage may move the counts
        try:
            nodes, leaves = len(terms._NODES), len(terms._VARS)
            t = Var(987_654)
            for _ in range(50):
                t = Node(t, Var(1))
            assert len(terms._NODES) == nodes + 50
            assert len(terms._VARS) == leaves + 1
            ref = weakref.ref(t)
            del t
            assert ref() is None
            assert len(terms._NODES) == nodes
            assert len(terms._VARS) == leaves
        finally:
            gc.enable()
        # a rebuilt term is a new, correct object
        assert term_to_text(Node(Var(987_654), Var(1))) == "f(x987654,x1)"

    def test_cached_traversals(self):
        t = parse_term("f(f(x5,x2),f(x2,x9))")
        assert variables(t) is variables(t) == (5, 2, 2, 9)
        assert positions(t) == positions(t)
        assert positions(t) == tuple(sorted(positions(t)))


class TestDeepTerms:
    DEPTH = 3000

    def chain_text(self):
        return "f(" * self.DEPTH + "x1" + ",x2)" * self.DEPTH

    def test_chain_round_trips(self):
        text = self.chain_text()
        t = parse_term(text)
        assert t.depth == self.DEPTH and t.length == self.DEPTH + 1
        assert term_to_text(t) == text
        arrays = to_arrays(t)
        assert arrays.var_indexes == (1,) + (2,) * self.DEPTH
        assert from_arrays(arrays) is t
        deepest = (1,) * self.DEPTH
        assert subterm_at(t, deepest) == Var(1)
        assert replace_at(t, deepest, Var(3)) == substitute(t, {1: Var(3)})
        assert rename_canonical(substitute(t, {1: Var(4), 2: Var(6)})) is t
        assert len(subterm_set(t)) == self.DEPTH + 2

    def test_parse_errors_at_depth(self):
        with pytest.raises(ParseError):
            parse_term(self.chain_text()[:-1])

    def test_fold_visits_each_shared_subterm_once(self):
        calls = []

        def node(left, right):
            calls.append((left, right))
            return left + right

        t = parse_term(self.chain_text())
        memo = {}
        assert fold_term(t, lambda x: x.index, node, memo) == 1 + 2 * self.DEPTH
        assert len(calls) == self.DEPTH and len(memo) == self.DEPTH + 2
        square = Node(t, t)
        assert fold_term(square, lambda x: x.index, node, memo) == 2 + 4 * self.DEPTH
        assert len(calls) == self.DEPTH + 1


# the functions of src/termalg that may still call themselves, and why
RECURSIVE = {
    "random_term": "its depth is its own argument, and no CLI path reaches it",
}


def test_no_other_function_calls_itself():
    found = set()
    for path in pathlib.Path(terms.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(fn):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if (isinstance(f, ast.Name) and f.id == fn.name) or (
                        isinstance(f, ast.Attribute)
                        and f.attr == fn.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id == "self"
                    ):
                        found.add(fn.name)
    assert found == set(RECURSIVE)


class TestPositions:
    def test_positions_sample(self):
        assert positions(SAMPLE) == (
            (),
            (1,),
            (2,),
            (2, 1),
            (2, 1, 1),
            (2, 1, 2),
            (2, 2),
        )

    def test_subterm_at(self):
        assert subterm_at(SAMPLE, ()) == SAMPLE
        assert subterm_at(SAMPLE, (1,)) == Var(3)
        assert subterm_at(SAMPLE, (2, 1)) == parse_term("f(x1,x2)")

    def test_subterm_at_bad_position(self):
        with pytest.raises(InvalidPositionError):
            subterm_at(SAMPLE, (1, 1))

    def test_replace_at(self):
        out = replace_at(SAMPLE, (2, 2), Var(9))
        assert out == parse_term("f(x3,f(f(x1,x2),x9))")
        assert replace_at(SAMPLE, (), Var(1)) == Var(1)

    def test_replace_at_bad_position(self):
        with pytest.raises(InvalidPositionError, match="not valid"):
            replace_at(SAMPLE, (1, 1), Var(9))  # SAMPLE|1 is a leaf
        with pytest.raises(InvalidPositionError, match="bad digit 3"):
            replace_at(SAMPLE, (2, 3), Var(9))

    def test_prefix_predicates(self):
        assert prefix_leq((1,), (1, 2))
        assert prefix_leq((1,), (1,))
        assert not proper_prefix((1,), (1,))
        assert proper_prefix((), (2,))

    @given(terms_strategy())
    def test_subtrees_are_blocks(self, t):
        pos = positions(t)
        for i, u in enumerate(preorder(t)):
            end = i + 2 * u.size + 1
            assert pos[i:end] == tuple(q for q in pos if prefix_leq(pos[i], q))

    @given(terms_strategy(), st.data())
    def test_prefix_minimal(self, t, data):
        pos = positions(t)
        ps = data.draw(st.sets(st.sampled_from(pos)))
        kept = [pos[i] for i in outermost(preorder(t), [p in ps for p in pos])]
        assert kept == sorted(p for p in ps if not any(proper_prefix(q, p) for q in ps))

    def test_splice_matches_replace_at(self):
        """splice against folding replace_at, over seeded terms and random
        sets of incomparable starts, the empty set and the root included."""
        rng = random.Random(17)
        u = Var(9)
        for _ in range(300):
            t = random_term(rng, rng.randint(0, 7), 4, leaf_prob=0.25)
            subterms, pos = preorder(t), positions(t)
            assert splice(subterms, [], u) is t
            assert splice(subterms, [0], u) is u
            picked = [i for i in range(len(pos)) if rng.random() < 0.3]
            starts = outermost(subterms, [i in picked for i in range(len(pos))])
            expected = t
            for i in starts:
                expected = replace_at(expected, pos[i], u)
            assert splice(subterms, starts, u) is expected, (t, starts)

    @given(terms_strategy())
    def test_subterm_composition(self, t):
        for p in positions(t):
            sub = subterm_at(t, p)
            for q in positions(sub):
                assert subterm_at(t, p + q) == subterm_at(sub, q)


class TestValuations:
    def test_counts_relation(self):
        # binary signature: one more leaf than nodes, positions = leaves + nodes
        for t in enumerate_terms(3, 2):
            length, siz, _ = valuations(t)
            assert length == siz + 1
            assert len(positions(t)) == length + siz

    def test_variables_order(self):
        assert variables(SAMPLE) == (3, 1, 2, 2)
        assert max_var_index(SAMPLE) == 3
        assert max_var_index(Var(2), Var(7)) == 7
        assert max_var_index() == 0

    def test_subterm_set(self):
        assert subterm_set(parse_term("f(x1,x1)")) == {parse_term("f(x1,x1)"), Var(1)}
        assert subterm_set(Var(2)) == {Var(2)}
        assert len(subterm_set(SAMPLE)) == 6


class TestSubstitution:
    def test_substitute(self):
        out = substitute(parse_term("f(x1,f(x2,x1))"), {1: parse_term("f(x3,x3)")})
        assert out == parse_term("f(f(x3,x3),f(x2,f(x3,x3)))")

    def test_rename_canonical(self):
        assert rename_canonical(parse_term("f(x7,f(x2,x7))")) == parse_term("f(x1,f(x2,x1))")

    @given(terms_strategy())
    def test_rename_canonical_idempotent(self, t):
        canon = rename_canonical(t)
        assert rename_canonical(canon) == canon
        assert positions(canon) == positions(t)


class TestArrays:
    def test_sample_encoding(self):
        arrays = to_arrays(SAMPLE)
        assert arrays.positions == positions(SAMPLE)
        assert arrays.var_indexes == (3, 1, 2, 2)
        assert from_arrays(arrays) == SAMPLE

    def test_leaf_encoding(self):
        arrays = to_arrays(Var(1))
        assert arrays.positions == ((),)
        assert arrays.var_indexes == (1,)

    def test_exhaustive_round_trip_small(self):
        for t in enumerate_terms(3, 2):
            assert from_arrays(to_arrays(t)) == t

    def test_random_round_trip_deep(self):
        rng = random.Random(8)
        for _ in range(200):
            t = random_term(rng, 8, 4)
            assert from_arrays(to_arrays(t)) == t

    def test_one_child_rejected(self):
        from termalg.terms import TermArrays

        with pytest.raises(MalformedArraysError):
            from_arrays(TermArrays(((), (1,)), (1, 2)))

    def test_missing_root_rejected(self):
        from termalg.terms import TermArrays

        with pytest.raises(MalformedArraysError):
            from_arrays(TermArrays(((1,), (2,)), (1, 2)))

    def test_wrong_leaf_count_rejected(self):
        from termalg.terms import TermArrays

        with pytest.raises(MalformedArraysError):
            from_arrays(TermArrays(((), (1,), (2,)), (1,)))

    @pytest.mark.parametrize("bad", [0, -1, "x1", 1.0])
    def test_zero_index_rejected(self, bad):
        from termalg.terms import TermArrays

        with pytest.raises(MalformedArraysError):
            from_arrays(TermArrays(((), (1,), (2,)), (1, bad)))


def test_one_preorder_layout():
    """preorder, flat codes, subtree ends and the arrays read one layout."""
    rng = random.Random(14)
    depth = TestDeepTerms.DEPTH
    chain = parse_term("f(" * depth + "x1" + ",x2)" * depth)
    for t in [random_term(rng, 6, 4) for _ in range(200)] + [chain]:
        pos, subterms = positions(t), preorder(t)
        assert len(pos) == len(subterms) == 2 * t.size + 1
        assert all(u is subterm_at(t, p) for p, u in zip(pos, subterms))
        code = flat_code(t)
        assert from_flat_code(code) is t
        assert code_ends(code) == [i + 2 * u.size + 1 for i, u in enumerate(subterms)]
        assert from_arrays(to_arrays(t)) is t


class TestTextSyntax:
    def test_parse_print_examples(self):
        assert term_to_text(SAMPLE) == "f(x3,f(f(x1,x2),x2))"
        assert parse_term(" f( x3 , f(f(x1,x2),x2) ) ") == SAMPLE

    def test_parse_errors(self):
        for bad in ("f(x1)", "f(x1,x2", "x", "g(x1,x2)", "f(x1,x2)x", "x0", "f(x1,x00)"):
            with pytest.raises(ParseError):
                parse_term(bad)

    def test_position_syntax(self):
        assert parse_position("e") == ()
        assert parse_position("211") == (2, 1, 1)
        assert position_to_text(()) == "e"
        assert position_to_text((1, 2)) == "12"
        with pytest.raises(ParseError):
            parse_position("13")

    def test_position_text_round_trip(self):
        rng = random.Random(14)
        for length in [0, 1, 2, 3000, *(rng.randint(0, 60) for _ in range(300))]:
            p = tuple(rng.choice((1, 2)) for _ in range(length))
            text = position_to_text(p)
            assert text == ("".join(map(str, p)) or "e")
            assert parse_position(text) == p

    @given(terms_strategy())
    def test_parse_print_round_trip(self, t):
        assert parse_term(term_to_text(t)) == t


class TestEnumeration:
    def test_enumerate_terms_counts(self):
        # depth<=1 over 2 vars: 2 leaves + 4 two-leaf nodes
        assert len(list(enumerate_terms(1, 2))) == 6
        ts = list(enumerate_terms(2, 2))
        assert len(ts) == len(set(ts))
        assert all(t.depth <= 2 and max_var_index(t) <= 2 for t in ts)

    def test_enumerate_by_length_catalan(self):
        # number of terms of Len n over 1 variable is the Catalan number C(n-1)
        from math import comb

        counts = {}
        for t in enumerate_terms_by_length(6, 1):
            counts[t.length] = counts.get(t.length, 0) + 1
        for n in range(1, 7):
            assert counts[n] == comb(2 * (n - 1), n - 1) // n

    def test_random_term_bounds(self):
        rng = random.Random(1)
        for _ in range(100):
            t = random_term(rng, 4, 3)
            assert t.depth <= 4 and max_var_index(t) <= 3

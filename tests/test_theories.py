"""Theory deciders: exact canonical keys, bounded oracles, certificates, files."""

import itertools
import json
import random

import pytest

from termalg import theories
from termalg.algebras import eval_term, satisfies
from termalg.errors import (
    BoundsError,
    ModelSearchLimitError,
    NonOrientableError,
    ParseError,
    TermAlgError,
)
from termalg.terms import (
    Node,
    Var,
    enumerate_terms,
    enumerate_terms_by_length,
    parse_term,
    positions,
    random_term,
    substitute,
    variables,
)
from termalg.theories import (
    ASSOC,
    CounterModel,
    Derivation,
    DistinctCanonicalKeys,
    Identity,
    OracleConfig,
    Theory,
    _ground_collapse_proved,
    _node_or_var_key,
    _numbered_terms,
    _single_rule_key,
    _sorts_before,
    _two_letter_patterns,
    critical_pair_check,
    load_theory_file,
    match_pattern,
    resolve,
    rewrite_nf,
    rule_size_decreasing,
    term_sort_key,
    theory_from_json,
    theory_from_name,
    unify,
)

from conftest import shared_theory


def brute_force_equal(theory, t, s, max_size=3):
    """Model-checking oracle: False iff some small model distinguishes t and s."""
    for model in theory.models(max_size):
        if not satisfies_pair(model, t, s):
            return False
    return None  # models alone can never prove


def satisfies_pair(model, t, s):
    from termalg.terms import var_set

    vs = sorted(var_set(t) | var_set(s))
    for values in itertools.product(range(model.size), repeat=len(vs)):
        a = dict(zip(vs, values))
        if eval_term(model, t, a) != eval_term(model, s, a):
            return False
    return True


class TestIdentity:
    def test_parse_and_text(self):
        ident = Identity.parse("f(x1,x2) = f(x2,x1)")
        assert ident.lhs == parse_term("f(x1,x2)")
        assert ident.text() == "f(x1,x2) = f(x2,x1)"
        assert ident.flipped().lhs == ident.rhs

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            Identity.parse("f(x1,x2)")


class TestExactDeciders:
    def test_idempotent_goldens(self, idempotent):
        assert idempotent.equal(parse_term("f(x1,x1)"), Var(1)) is True
        assert idempotent.equal(parse_term("f(f(x1,x1),x2)"), parse_term("f(x1,x2)")) is True
        assert idempotent.equal(parse_term("f(x1,x2)"), parse_term("f(x2,x1)")) is False

    def test_commutative_goldens(self, commutative):
        assert commutative.equal(parse_term("f(x2,x1)"), parse_term("f(x1,x2)")) is True
        assert (
            commutative.equal(
                parse_term("f(f(x1,x2),x3)"), parse_term("f(x3,f(x2,x1))")
            )
            is True
        )
        assert commutative.equal(parse_term("f(x1,x1)"), Var(1)) is False

    def test_rewrite_rule_goldens(self, sigma2):
        assert sigma2.equal(parse_term("f(f(x1,x2),x3)"), parse_term("f(x2,x3)")) is True
        assert (
            sigma2.equal(
                parse_term("f(f(x3,f(x1,x2)),x4)"), parse_term("f(f(x1,x2),x4)")
            )
            is True
        )
        assert sigma2.equal(parse_term("f(x1,x2)"), parse_term("f(x2,x1)")) is False

    def test_exact_matches_model_refutations(self):
        # whenever a small model separates two terms, the decider must refute
        rng = random.Random(3)
        for name in ("idempotent", "commutative", "grp-rule:f(f(x1,x2),x3)=f(x2,x3)"):
            thy = shared_theory(name)
            for _ in range(30):
                t = random_term(rng, 3, 2)
                s = random_term(rng, 3, 2)
                if brute_force_equal(thy, t, s) is False:
                    assert thy.equal(t, s) is False

    def test_exact_proofs_hold_in_models(self):
        rng = random.Random(9)
        for name in ("idempotent", "commutative", "sg-abs-1-2"):
            thy = shared_theory(name)
            models = thy.models(3)
            for _ in range(30):
                t = random_term(rng, 3, 2)
                s = random_term(rng, 3, 2)
                if thy.equal(t, s) is True:
                    for m in models:
                        assert satisfies_pair(m, t, s)

    def test_sort_order_matches_the_sort_key(self):
        rng = random.Random(3)
        terms = [random_term(rng, 3, 2) for _ in range(60)]
        for t, s in itertools.product(terms, repeat=2):
            assert _sorts_before(t, s) == (term_sort_key(t) < term_sort_key(s))

    def test_sort_key_orders_as_the_position_key(self):
        # every term of depth <= 3 over 3 variables, seeded deep ones, and
        # seeded shapes of 40 leaves x1, which only their shapes tell apart
        rng = random.Random(12)
        terms = list(enumerate_terms(3, 3))
        terms += [random_term(rng, 10, 3, leaf_prob=0.15) for _ in range(100)]
        for _ in range(200):
            forest = [Var(1)] * 40
            while len(forest) > 1:  # join a random pair of neighbours
                k = rng.randrange(len(forest) - 1)
                forest[k : k + 2] = [Node(forest[k], forest[k + 1])]
            terms.append(forest[0])
        reference = sorted(terms, key=lambda t: (t.length, variables(t), positions(t)))
        assert sorted(terms, key=term_sort_key) == reference

    def test_normal_forms_of_a_deep_chain(self, idempotent, commutative):
        depth = 3000
        chain = parse_term("f(" * depth + "x1" + ",x2)" * depth)
        assert idempotent.canonical_key(chain) is chain
        flipped = parse_term("f(x2," * (depth - 1) + "f(x1,x2)" + ")" * (depth - 1))
        assert commutative.canonical_key(chain) is flipped

    def test_single_rule_normal_form_matches_the_recursive_reference(self):
        def reference(t, lhs, rhs):
            if isinstance(t, Var):
                return t
            u = Node(reference(t.left, lhs, rhs), reference(t.right, lhs, rhs))
            binding = match_pattern(lhs, u)
            return u if binding is None else reference(substitute(rhs, binding), lhs, rhs)

        rng = random.Random(11)
        terms = [random_term(rng, 6, 4) for _ in range(300)]
        for text in (
            "f(f(x1,x2),x3)=f(x1,x3)",
            "f(f(x1,x2),x3)=f(x2,x3)",
            "f(x1,f(x2,x3))=f(x1,x2)",
            "f(f(x1,x1),x2)=x2",
        ):
            rule = Identity.parse(text)
            memo = {}
            for t in terms:
                assert rewrite_nf(t, rule.lhs, rule.rhs, memo) is reference(t, rule.lhs, rule.rhs)

    def test_single_rule_normal_form_of_deep_terms(self):
        depth = 3000
        rule = Identity.parse("f(f(x1,x2),x3)=f(x2,x3)")
        # a normal form whose every contractum is a redex again, 3000 times
        comb = parse_term("f(x1," * depth + "x2" + ")" * depth)
        assert rewrite_nf(comb, rule.lhs, rule.rhs) is comb
        assert rewrite_nf(Node(comb, Var(3)), rule.lhs, rule.rhs) is parse_term("f(x2,x3)")
        chain = parse_term("f(" * depth + "x1" + ",x2)" * depth)
        assert rewrite_nf(chain, rule.lhs, rule.rhs) is parse_term("f(x2,x2)")

    def test_a_rule_that_need_not_end_gets_no_exact_key(self):
        thy = theory_from_name("grp-rule:f(x1,x2)=f(x2,x1)")
        assert _single_rule_key(thy.axioms[0]) is None
        assert not thy.exact and thy.canonical_key(parse_term("f(x1,x2)")) is None

    def test_a_rule_that_is_not_confluent_gets_no_exact_key(self):
        # rewriting ends, but two strategies may end at different terms
        rule = Identity.parse("f(f(x1,x2),x1)=f(x1,x1)")
        assert rule_size_decreasing(rule) and not critical_pair_check(rule)
        assert _single_rule_key(rule) is None
        thy = theory_from_name("grp-rule:" + rule.text())
        assert not thy.exact and thy.canonical_key(parse_term("f(f(x1,x2),x1)")) is None

    @pytest.mark.parametrize("text", ("f(x1,x2)=f(x2,x1)", "f(x1,x1)=x2"))
    def test_critical_pairs_need_an_orientable_rule(self, text):
        # the sides keep their size, or the right side has a new variable
        with pytest.raises(NonOrientableError, match="not orientable"):
            critical_pair_check(Identity.parse(text))

    def test_equivalence_relation_sample(self, idempotent):
        terms = list(enumerate_terms(2, 2))
        for t in terms:
            assert idempotent.equal(t, t) is True
        for t, s in itertools.product(terms[:12], repeat=2):
            assert idempotent.equal(t, s) == idempotent.equal(s, t)

    def test_congruence_under_contexts(self, idempotent):
        t, s = parse_term("f(x1,x1)"), Var(1)
        from termalg.terms import Node

        assert idempotent.equal(Node(t, Var(2)), Node(s, Var(2))) is True
        assert idempotent.equal(Node(Var(2), t), Node(Var(2), s)) is True


def ref_match(pattern, term, binding):
    if isinstance(pattern, Var):
        bound = binding.setdefault(pattern.index, term)
        return binding if bound is term else None
    if not isinstance(term, Node):
        return None
    binding = ref_match(pattern.left, term.left, binding)
    return None if binding is None else ref_match(pattern.right, term.right, binding)


def ref_substitute(t, mapping):
    if isinstance(t, Var):
        return mapping.get(t.index, t)
    return Node(ref_substitute(t.left, mapping), ref_substitute(t.right, mapping))


def ref_walk(t, sub):
    while isinstance(t, Var) and t.index in sub:
        t = sub[t.index]
    return t


def ref_resolve(t, sub):
    t = ref_walk(t, sub)
    if isinstance(t, Var):
        return t
    return Node(ref_resolve(t.left, sub), ref_resolve(t.right, sub))


def ref_occurs(i, t, sub):
    t = ref_walk(t, sub)
    if isinstance(t, Var):
        return t.index == i
    return ref_occurs(i, t.left, sub) or ref_occurs(i, t.right, sub)


def ref_unify(a, b, sub):
    a, b = ref_walk(a, sub), ref_walk(b, sub)
    if isinstance(a, Var):
        if a is b:
            return sub
        if ref_occurs(a.index, b, sub):
            return None
        sub[a.index] = b
        return sub
    if isinstance(b, Var):
        return ref_unify(b, a, sub)
    sub = ref_unify(a.left, b.left, sub)
    return None if sub is None else ref_unify(a.right, b.right, sub)


def left_chain(depth, bottom, right):
    return parse_term("f(" * depth + bottom + f",{right})" * depth)


class TestTermWalkers:
    """The iterative walkers against recursive references kept here."""

    def test_match_pattern_binds_like_the_reference(self):
        rng = random.Random(5)
        matched = 0
        for _ in range(400):
            pattern = random_term(rng, 3, 3)
            if rng.random() < 0.5:
                term = random_term(rng, 5, 3)
            else:  # an instance, so that matches succeed as well as fail
                term = ref_substitute(pattern, {i: random_term(rng, 2, 3) for i in (1, 2, 3)})
            got, want = match_pattern(pattern, term), ref_match(pattern, term, {})
            # the same bindings, bound in the same order
            assert (got is None, got and list(got.items())) == (
                want is None,
                want and list(want.items()),
            )
            matched += got is not None
        assert 100 < matched < 400

    def test_substitute_matches_the_reference(self):
        rng = random.Random(6)
        for _ in range(300):
            t = random_term(rng, 5, 4)
            mapping = {i: random_term(rng, 2, 4) for i in range(1, 5) if rng.random() < 0.6}
            assert substitute(t, mapping) is ref_substitute(t, mapping)

    def test_unify_and_resolve_match_the_reference(self):
        rng = random.Random(7)
        unified = failed = 0
        for _ in range(400):
            a = random_term(rng, 3, 3)
            # mostly apart from a's variables, as in a critical pair, sometimes shared
            shift = rng.choice((0, 1, 3))
            b = ref_substitute(random_term(rng, 3, 3), {i: Var(i + shift) for i in (1, 2, 3)})
            got, want = unify(a, b), ref_unify(a, b, {})
            if want is None:
                assert got is None
                failed += 1
                continue
            assert list(got.items()) == list(want.items())
            assert resolve(a, got) is resolve(b, got) is ref_resolve(a, want)
            unified += 1
        assert unified > 100 and failed > 10

    def test_unify_fails_on_a_cycle(self):
        # with one binary symbol every failure is an occurs-check failure;
        # here the cycle only shows through a chain of bindings
        a, b = parse_term("f(x1,x1)"), parse_term("f(x2,f(x2,x3))")
        assert unify(a, b) is None and ref_unify(a, b, {}) is None

    def test_unify_fails_the_occurs_check(self):
        assert unify(Var(1), parse_term("f(x2,x1)")) is None
        assert unify(parse_term("f(x2,x1)"), Var(1)) is None

    def test_deep_terms(self):
        depth = 3000
        chain = left_chain(depth, "x1", "x2")
        assert substitute(chain, {2: Var(3)}) is left_chain(depth, "x1", "x3")
        pair = parse_term("f(x4,x5)")
        binding = match_pattern(chain, left_chain(depth, "f(x4,x5)", "x2"))
        assert binding == {1: pair, 2: Var(2)}
        assert match_pattern(chain, left_chain(depth, "x1", "x3")) == {1: Var(1), 2: Var(3)}
        assert match_pattern(chain, left_chain(depth - 1, "x1", "x2")) is None
        other = left_chain(depth, "x3", "x4")
        mgu = unify(chain, other)
        assert resolve(chain, mgu) is resolve(other, mgu)
        # x2 is bound to x1, which is bound to the whole chain
        mgu = unify(parse_term("f(x1,x2)"), Node(other, Var(1)))
        assert resolve(Var(2), mgu) is other
        assert unify(Var(3), other) is None


class TestSemigroupAbsorption:
    def test_absorption_axiom_holds(self):
        thy = shared_theory("sg-abs-2-3")
        assert thy.equal(parse_term("f(f(x1,x2),x3)"), parse_term("f(x2,x3)")) is True

    def test_associativity_holds(self):
        thy = shared_theory("sg-abs-2-3")
        assert thy.equal(parse_term("f(x1,f(x2,x3))"), parse_term("f(f(x1,x2),x3)")) is True

    def test_agrees_with_bounded_oracle_on_refutations(self):
        thy = shared_theory("sg-abs-1-2")
        rng = random.Random(21)
        for _ in range(25):
            t = random_term(rng, 3, 3)
            s = random_term(rng, 3, 3)
            if brute_force_equal(thy, t, s) is False:
                assert thy.equal(t, s) is False


# The tables and flags below were recorded from the word-by-word closure and
# the every-position collapse proof that the faster closures replaced.
ONLY_EQUAL_WORDS = frozenset({(0, 0, 0, 0), (0, 1, 0, 1)})
ALL_SQUARES_EQUAL = frozenset({(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1)})
ALL_WORDS_EQUAL = frozenset(
    {
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 1, 2),
        (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 0, 2), (0, 1, 1, 0), (0, 1, 1, 1),
        (0, 1, 1, 2), (0, 1, 2, 0), (0, 1, 2, 1), (0, 1, 2, 2), (0, 1, 2, 3),
    }
)  # fmt: skip
TWO_LETTER_PATTERNS = {
    (1, 1): ONLY_EQUAL_WORDS,
    (1, 2): ONLY_EQUAL_WORDS,
    (1, 3): ONLY_EQUAL_WORDS,
    (2, 1): ALL_WORDS_EQUAL,
    (2, 2): ALL_SQUARES_EQUAL,
    (2, 3): ONLY_EQUAL_WORDS,
    (3, 1): ALL_WORDS_EQUAL,
    (3, 2): ALL_WORDS_EQUAL,
    (3, 3): ONLY_EQUAL_WORDS,
}

# rule -> (convergent, node_collapse, exact): the key _single_rule_key picks is
# the rule's normal form, one class of composite terms, or none
SINGLE_RULE_FLAGS = {
    "f(f(x1,x2),x3)=f(x1,x2)": (True, False, True),
    "f(f(x1,x2),x3)=f(x1,x3)": (True, False, True),
    "f(f(x1,x2),x3)=f(x2,x1)": (False, True, True),
    "f(f(x1,x2),x3)=f(x2,x3)": (True, False, True),
    "f(f(x1,x2),x3)=f(x3,x1)": (False, True, True),
    "f(f(x1,x2),x3)=f(x3,x2)": (False, True, True),
    "f(x1,f(x2,x3))=f(x1,x2)": (True, False, True),
    "f(x1,f(x2,x3))=f(x1,x3)": (True, False, True),
    "f(x1,f(x2,x3))=f(x2,x1)": (False, True, True),
    "f(x1,f(x2,x3))=f(x2,x3)": (True, False, True),
    "f(x1,f(x2,x3))=f(x3,x1)": (False, True, True),
    "f(x1,f(x2,x3))=f(x3,x2)": (False, True, True),
    "f(f(x1,x1),x2)=f(x2,x2)": (False, False, False),
    "f(x1,x2)=f(x2,x1)": (False, False, False),
}


def ground_collapse_reference(rule: Identity) -> bool:
    """The ground-collapse proof on interned Nodes, one Python union at a
    time: the reference that _ground_collapse_proved must agree with."""
    leaves = [Var(i) for i in range(1, 5)]
    max_len = 5
    universe = list(enumerate_terms_by_length(max_len, 4))
    index = {t: k for k, t in enumerate(universe)}
    parent = list(range(len(universe)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    directions = [
        (src, dst, variables(dst)) for src, dst in ((rule.lhs, rule.rhs), (rule.rhs, rule.lhs))
    ]
    for k, sub in enumerate(universe):
        for src, dst, dst_vars in directions:
            binding = match_pattern(src, sub)
            if binding is None:
                continue
            # Len of the instance; an unbound variable takes a leaf
            if sum(binding[i].length if i in binding else 1 for i in dst_vars) > max_len:
                continue
            missing = sorted(set(dst_vars) - binding.keys())
            for combo in itertools.product(leaves, repeat=len(missing)):
                binding.update(zip(missing, combo))
                union(k, index[substitute(dst, binding)])

    # congruence: nodes whose children share classes share a class
    nodes = [
        (k, index[t.left], index[t.right]) for k, t in enumerate(universe) if isinstance(t, Node)
    ]
    changed = True
    while changed:
        changed = False
        root = [find(k) for k in range(len(universe))]
        sig = {}
        for k, l, r in nodes:
            first = sig.setdefault((root[l], root[r]), k)
            if find(first) != find(k):
                union(first, k)
                changed = True
    return find(index[Node(leaves[0], leaves[1])]) == find(index[Node(leaves[2], leaves[3])])


# the single-rule rules, plus a nonlinear left side whose right side has two
# variables it lacks, and a rule none of whose instances fits in Len 5
GROUND_COLLAPSE_SAMPLE = sorted(SINGLE_RULE_FLAGS) + [
    "f(x1,x1)=f(x1,f(x2,x3))",
    "f(x1,x2)=f(f(x3,x4),f(f(x5,x6),f(x7,x8)))",
]


class TestSetUpClosures:
    @pytest.mark.parametrize("ij", sorted(TWO_LETTER_PATTERNS))
    def test_two_letter_patterns(self, ij):
        assert _two_letter_patterns(*ij) == TWO_LETTER_PATTERNS[ij]

    @pytest.mark.parametrize("rule", sorted(SINGLE_RULE_FLAGS))
    def test_single_rule_flags(self, rule):
        ident = Identity.parse(rule)
        key = _single_rule_key(ident)
        node_collapse = key is _node_or_var_key
        convergent = key is not None and not node_collapse
        if convergent:
            t = parse_term("f(f(f(x1,x2),x3),f(x1,f(x2,x3)))")
            assert key(t, {}) is rewrite_nf(t, ident.lhs, ident.rhs)
        exact = theory_from_name("grp-rule:" + rule).exact
        assert (convergent, node_collapse, exact) == SINGLE_RULE_FLAGS[rule]

    @pytest.mark.parametrize("rule", GROUND_COLLAPSE_SAMPLE)
    def test_ground_collapse_matches_the_node_reference(self, rule):
        ident = Identity.parse(rule)
        assert _ground_collapse_proved(ident) is ground_collapse_reference(ident)

    def test_ground_collapse_with_two_new_variables_on_each_side(self):
        # f(x1,x2) ~ f(f(x1,x2),x3) ~ f(x3,x4) in one step each way; the
        # reference takes seconds here, as every node seeds 64 instances
        rule = Identity.parse("f(f(x1,x2),x3)=f(x4,x5)")
        assert _ground_collapse_proved(rule) is True

    def test_numbered_terms_follow_the_enumeration(self):
        universe = list(enumerate_terms_by_length(5, 4))
        index = {t: k for k, t in enumerate(universe)}
        length, left, right, pair = _numbered_terms(5, 4)
        assert len(universe) == len(length) == 15764
        assert length.tolist() == [t.length for t in universe]
        nodes = [k for k, t in enumerate(universe) if isinstance(t, Node)]
        assert left[nodes].tolist() == [index[universe[k].left] for k in nodes]
        assert right[nodes].tolist() == [index[universe[k].right] for k in nodes]
        assert pair(left[nodes], right[nodes]).tolist() == nodes


class TestBoundedOracle:
    def test_axioms_theory_proves_consequence(self):
        thy = Theory((Identity.parse("f(x1,x1)=x1"),))
        assert thy.equal(parse_term("f(f(x2,x2),x3)"), parse_term("f(x2,x3)")) is True

    def test_axioms_theory_refutes_via_models(self):
        thy = Theory((Identity.parse("f(x1,x1)=x1"),))
        assert thy.equal(parse_term("f(x1,x2)"), parse_term("f(x2,x1)")) is False

    @pytest.mark.parametrize("first", ["t = s", "s = t"])
    def test_cached_rewrite_path_starts_at_the_left_term(self, first):
        # the second query in either order is answered from the cache
        thy = Theory((Identity.parse("f(x1,x1)=x1"),))
        t, s = parse_term("f(f(x2,x2),x3)"), parse_term("f(x2,x3)")
        queries = [(t, s), (s, t)] if first == "t = s" else [(s, t), (t, s)]
        for left, right in queries:
            verdict = thy.decide(left, right)
            assert verdict.certificate.method == "rewrite-path"
            steps = verdict.certificate.steps
            assert (steps[0], steps[-1]) == (str(left), str(right))

    def test_unknown_on_hard_instance(self):
        # a true identity with no counter-model, but the proof needs more
        # rewrite steps than the tiny budget allows
        thy = Theory(
            (Identity.parse("f(x1,x2)=f(x2,x1)"),),
            OracleConfig(max_model_size=2, max_deduction_term_size=6, max_deduction_steps=2),
        )
        big_l = parse_term("f(f(f(x1,x2),x3),f(x4,x5))")
        big_r = parse_term("f(f(x5,x4),f(x3,f(x2,x1)))")
        verdict = thy.decide(big_l, big_r)
        assert verdict.unknown
        assert verdict.certificate is thy.config

    def test_assoc_word_key_is_exact(self, assoc):
        assert assoc.exact
        assert assoc.equal(parse_term("f(f(x1,x2),x3)"), parse_term("f(x1,f(x2,x3))")) is True
        assert assoc.equal(parse_term("f(x1,x2)"), parse_term("f(x2,x1)")) is False


class TestOneSearchPerPair:
    """A pair's answer and witness serve both orders: deciding the second
    order searches for no model."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = theories.distinguish_over_models

        def counting(models, lhs, rhs):
            calls.append((lhs, rhs))
            return search(models, lhs, rhs)

        monkeypatch.setattr(theories, "distinguish_over_models", counting)
        return calls

    def test_bounded_refuted_pair(self, searches):
        thy = Theory((Identity.parse("f(x1,x1)=x1"),))
        t, s = parse_term("f(x1,x2)"), parse_term("f(x2,x1)")
        first = thy.decide(t, s)
        assert searches
        searched = len(searches)
        second = thy.decide(s, t)
        assert len(searches) == searched
        assert isinstance(first.certificate, CounterModel)
        assert second.certificate == first.certificate

    def test_bounded_proved_pair(self):
        thy = Theory((Identity.parse("f(x1,x1)=x1"),))
        t, s = parse_term("f(f(x2,x2),x3)"), parse_term("f(x2,x3)")
        forth, back = thy.decide(t, s).certificate, thy.decide(s, t).certificate
        assert forth.method == back.method == "rewrite-path"
        assert back.steps == forth.steps[::-1]

    def test_exact_refuted_pair(self, searches):
        thy = theory_from_name("idempotent")
        t, s = parse_term("f(x1,x2)"), parse_term("f(x2,x1)")
        first = thy.decide(t, s)
        searched = len(searches)
        assert searched and first.refuted
        assert thy.decide(s, t).certificate == first.certificate
        assert len(searches) == searched


class TestAssociativityLookAlikes:
    """Each axiom has a right-side variable its left side leaves unbound, so
    neither is associativity; each proves f(x1,f(x2,x3)) = f(x1,f(x2,x4))
    in two steps."""

    @pytest.mark.parametrize("form", ["axioms file", "grp-rule name"])
    @pytest.mark.parametrize(
        "axiom", ["f(f(x4,x5),x6)=f(x4,f(x5,x3))", "f(f(x1,x2),x3)=f(x1,f(x2,x4))"]
    )
    def test_is_not_exact_and_proves(self, tmp_path, form, axiom):
        if form == "axioms file":
            lhs, rhs = axiom.split("=")
            path = tmp_path / "theory.json"
            path.write_text(json.dumps({"kind": "axioms", "axioms": [{"lhs": lhs, "rhs": rhs}]}))
            thy = load_theory_file(path)
        else:
            thy = theory_from_name("grp-rule:" + axiom)
        assert not thy.exact
        verdict = thy.decide(parse_term("f(x1,f(x2,x3))"), parse_term("f(x1,f(x2,x4))"))
        assert verdict.proved
        assert verdict.certificate.method == "rewrite-path"
        steps = verdict.certificate.steps
        assert (steps[0], steps[-1]) == ("f(x1,f(x2,x3))", "f(x1,f(x2,x4))")


class TestCertificates:
    def test_proved_derivation(self, idempotent):
        verdict = idempotent.decide(parse_term("f(x1,x1)"), Var(1))
        assert verdict.proved
        assert isinstance(verdict.certificate, Derivation)

    def test_counter_model_actually_distinguishes(self, commutative):
        t, s = parse_term("f(x1,x2)"), parse_term("f(x1,x1)")
        verdict = commutative.decide(t, s)
        assert verdict.refuted
        cert = verdict.certificate
        assert isinstance(cert, CounterModel)
        a = dict(cert.assignment)
        assert eval_term(cert.algebra, t, a) != eval_term(cert.algebra, s, a)
        # the counter-model really is a model of the axioms
        for lhs, rhs in commutative.axiom_pairs():
            assert satisfies(cert.algebra, lhs, rhs)

    def test_distinct_keys_fallback(self):
        # all models up to size 1 satisfy everything, so refutation must fall
        # back to the canonical keys of the exact decider
        thy = theory_from_name("idempotent", OracleConfig(max_model_size=1))
        verdict = thy.decide(parse_term("f(x1,x2)"), parse_term("f(x2,x1)"))
        assert verdict.refuted
        assert isinstance(verdict.certificate, DistinctCanonicalKeys)


class TestNamesAndFiles:
    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError):
            theory_from_name("boolean")

    def test_from_json_round_trip(self, tmp_path):
        doc = {
            "kind": "groupoid-single-rule",
            "rule": {"lhs": "f(f(x1,x2),x3)", "rhs": "f(x2,x3)"},
            "oracle": {"maxModelSize": 2},
        }
        path = tmp_path / "thy.json"
        path.write_text(json.dumps(doc))
        thy = load_theory_file(path)
        assert thy.config.max_model_size == 2
        assert thy.equal(parse_term("f(f(x1,x2),x3)"), parse_term("f(x2,x3)")) is True

    def test_model_size_override_keeps_the_files_other_bounds(self, tmp_path):
        path = tmp_path / "thy.json"
        path.write_text(json.dumps({"kind": "commutative", "oracle": {"maxDeductionSteps": 1}}))
        assert load_theory_file(path).config == OracleConfig(max_deduction_steps=1)
        thy = load_theory_file(path, max_model_size=2)
        assert thy.config == OracleConfig(max_model_size=2, max_deduction_steps=1)

    def test_from_json_axioms(self):
        thy = theory_from_json(
            {"kind": "axioms", "axioms": [{"lhs": "f(x1,x2)", "rhs": "f(x2,x1)"}]}
        )
        assert thy.equal(parse_term("f(x1,x2)"), parse_term("f(x2,x1)")) is True

    def test_empty_axiom_list_is_the_free_groupoid(self):
        thy = theory_from_json({"kind": "axioms", "axioms": []})
        assert thy.equal(parse_term("f(x1,x2)"), parse_term("f(x2,x1)")) is False

    def test_model_size_zero_is_rejected_not_defaulted(self):
        with pytest.raises(BoundsError):
            theory_from_json({"kind": "commutative"}, max_model_size=0)

    def test_unknown_kind_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unknown theory kind 'nope'"):
            theory_from_json({"kind": "nope"})

    def test_unknown_oracle_key_is_a_parse_error(self):
        with pytest.raises(ParseError, match="maxModelSise"):
            theory_from_json({"kind": "commutative", "oracle": {"maxModelSise": 2}})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: OracleConfig(max_model_size=-1),
            lambda: OracleConfig(max_deduction_steps=0),
            lambda: theory_from_name("sg-abs-4-1"),
            lambda: theory_from_json({"kind": "semigroup-absorption", "i": 1, "j": 0}),
        ],
    )
    def test_out_of_range_bounds_are_domain_errors(self, build):
        with pytest.raises(BoundsError) as caught:
            build()
        assert isinstance(caught.value, TermAlgError) and isinstance(caught.value, ValueError)


def _json_twin(name: str):
    """The theory file that names the same theory as a built-in name."""
    if name in ("idempotent", "commutative"):
        return {"kind": name}
    if name == "assoc":
        return {"kind": "axioms", "axioms": [{"lhs": str(ASSOC.lhs), "rhs": str(ASSOC.rhs)}]}
    if name.startswith("sg-abs-"):
        i, j = name[len("sg-abs-") :].split("-")
        return {"kind": "semigroup-absorption", "i": int(i), "j": int(j)}
    lhs, rhs = name[len("grp-rule:") :].split("=")
    return {"kind": "groupoid-single-rule", "rule": {"lhs": lhs, "rhs": rhs}}


def _key_partition(thy, terms):
    classes = {}
    for t in terms:
        classes.setdefault(thy.canonical_key(t), set()).add(t)
    return {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize(
    "name",
    ["idempotent", "commutative", "assoc"]
    + [f"sg-abs-{i}-{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    + ["grp-rule:" + rule for rule in sorted(SINGLE_RULE_FLAGS)],
)
def test_names_and_files_build_the_same_theory(name):
    by_name, by_file = theory_from_name(name), theory_from_json(_json_twin(name))
    assert by_name.axioms == by_file.axioms
    assert by_name.exact == by_file.exact
    terms = list(enumerate_terms(2, 3))
    assert _key_partition(by_name, terms) == _key_partition(by_file, terms)


def test_a_rule_that_is_associativity_gets_the_word_key(assoc):
    # the decider follows the axiom, not the name it came by
    thy = theory_from_name("grp-rule:f(x2,f(x3,x1))=f(f(x2,x3),x1)")
    assert thy.exact
    terms = list(enumerate_terms(2, 3))
    assert _key_partition(thy, terms) == _key_partition(assoc, terms)


class TestModels:
    def test_models_satisfy_axioms(self, idempotent):
        models = idempotent.models(2)
        assert models
        for m in models:
            for lhs, rhs in idempotent.axiom_pairs():
                assert satisfies(m, lhs, rhs)

    def test_model_counts_match_direct_enumeration(self, commutative):
        from termalg.algebras import enumerate_tables

        direct = list(enumerate_tables(commutative.axiom_pairs(), 2))
        assert len([m for m in commutative.models(2) if m.size == 2]) == len(direct)

    def test_size_4_search_is_a_domain_error(self):
        thy = theory_from_name("commutative", OracleConfig(max_model_size=4))
        with pytest.raises(ModelSearchLimitError):
            thy.models()
        # a refutation found at a size <= 3 still returns before size 4
        verdict = thy.decide(parse_term("f(x1,x2)"), parse_term("f(x1,x1)"))
        assert verdict.refuted and verdict.certificate.algebra.size <= 3
        # no model of size <= 3 separates this pair, so the search reaches size 4
        thy = theory_from_name("sg-abs-1-1", OracleConfig(max_model_size=4))
        with pytest.raises(ModelSearchLimitError):
            thy.decide(parse_term("f(f(x4,x2),x1)"), parse_term("f(x4,x1)"))

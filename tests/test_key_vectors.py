"""Key vectors: each term's subterm keys in position order, and the readers
that answer from them under an exact theory (Σ-composition, star
composition, reducible pairs), against the per-position references kept
here."""

import random
from collections import Counter

import pytest

from termalg.compose import (
    positional_compose,
    sigma_compose,
    sigma_match_positions,
    sigma_position_sets,
    star_compose,
)
from termalg.errors import UndecidedError
from termalg.essentiality import _compute_report, decided_report, least_fictive
from termalg.reduction import (
    ReduciblePair,
    ReductionTrace,
    _minimal_redex,
    _outermost_pairs,
    normal_form,
    reduce_with_strategy,
    reducible_pairs,
    removable_positions,
    step_S,
)
from termalg.terms import (
    Var,
    max_var_index,
    parse_term,
    positions,
    prefix_leq,
    preorder,
    proper_prefix,
    random_term,
    rename_canonical,
    replace_at,
    subterm_at,
    variables,
)
from termalg.theories import Identity, OracleConfig, Theory, theory_from_name

from conftest import shared_theory
from test_essentiality import REGULAR_THEORIES, ref_compute_report
from test_reduction import ref_removable_positions

EXACT_THEORIES = (
    "idempotent",
    "commutative",
    "assoc",
    *(f"sg-abs-{i}-{j}" for i in (1, 2, 3) for j in (1, 2, 3)),
    "grp-rule:f(f(x1,x2),x3)=f(x2,x3)",  # Σ2
    "grp-rule:f(x1,f(x2,x3))=f(x1,x3)",  # convergent
    "grp-rule:f(f(x1,x2),x3)=f(x2,x1)",  # node-collapse
)

# equal terms have equal Len here, so no term has a reducible pair
LENGTH_PRESERVING = ("commutative", "assoc")

U = Var(5)


def seeded_terms(seed, count):
    """Random terms of depth <= 5, so Len <= 32, over at most 4 variables."""
    rng = random.Random(seed)
    return [random_term(rng, 5, rng.randint(1, 4), leaf_prob=0.15) for _ in range(count)]


# --- references: one oracle question per position or per pair ---------------


def ref_match_positions(t, r, theory):
    return frozenset(p for p in positions(t) if theory.holds(subterm_at(t, p), r))


def ref_prefix_minimal(ps):
    return frozenset(p for p in ps if not any(q != p and prefix_leq(q, p) for q in ps))


def ref_position_sets(t, r, theory):
    pos = positions(t)
    matches = ref_match_positions(t, r, theory)
    essential = decided_report(t, theory).essential_positions
    minimal = ref_prefix_minimal(matches)
    essential_minimal = frozenset(
        p for p in minimal if all(q in essential for q in pos if prefix_leq(p, q))
    )
    return matches, minimal, essential_minimal


def ref_sigma_compose(t, r, u, theory):
    entries = sorted(ref_prefix_minimal(ref_match_positions(t, r, theory)))
    return positional_compose(t, entries, [u] * len(entries))


def ref_star_compose(t, r, s, theory):
    if theory.holds(t, r):
        return s
    entries = sorted(ref_position_sets(t, r, theory)[2])
    return positional_compose(t, entries, [s] * len(entries))


def ref_reducible_pairs(t, theory):
    """One question per nested pair of positions; tails nest through this
    function."""
    pos = positions(t)
    if theory.exact:
        key = {p: theory._cached_key(subterm_at(t, p)) for p in pos}

        def eq(a, b):
            return key[a] == key[b]

    else:

        def eq(a, b):
            return theory.holds(subterm_at(t, a), subterm_at(t, b))

    heads = {p for p in pos if any(proper_prefix(p, q) and eq(p, q) for q in pos)}
    minimal_heads = {p for p in heads if not any(proper_prefix(h, p) for h in heads)}
    pairs = set()
    for p in minimal_heads:
        for q in pos:
            if not proper_prefix(p, q) or not eq(p, q):
                continue
            if any(proper_prefix(q, q2) and eq(q2, p) for q2 in pos):
                continue
            pairs.add(ReduciblePair(p, q))
    return nest_tails(t, theory, pairs, ref_reducible_pairs)


def ref_one_layer_pairs(t, theory):
    """The outermost layer in the order a bounded theory asks it, over
    positions: for each position p in preorder that is not below a head
    already found, holds(t|p, t|q) for every q below p, in preorder; p is a
    head when any answer is True.  Tails nest through reducible_pairs."""
    pos = positions(t)
    heads, pairs = [], set()
    for p in pos:
        if any(proper_prefix(h, p) for h in heads):
            continue
        tails = [
            q
            for q in pos
            if proper_prefix(p, q) and theory.holds(subterm_at(t, p), subterm_at(t, q))
        ]
        if tails:
            heads.append(p)
        for q in tails:
            if not any(proper_prefix(q, q2) for q2 in tails):
                pairs.add(ReduciblePair(p, q))
    return nest_tails(t, theory, pairs, reducible_pairs)


def nest_tails(t, theory, pairs, inner_pairs):
    """pairs, plus q + P for each pair's tail q and each P in
    inner_pairs(t|q), until nothing is added; the last pair's tail first."""
    queue = sorted(pairs)
    while queue:
        pair = queue.pop()
        for inner in inner_pairs(subterm_at(t, pair.q), theory):
            composed = ReduciblePair(pair.q + inner.p, pair.q + inner.q)
            if composed not in pairs:
                pairs.add(composed)
                queue.append(composed)
    return frozenset(pairs)


# --- the vector itself ----------------------------------------------------------


class TestKeyVector:
    @pytest.mark.parametrize("name", EXACT_THEORIES)
    def test_keys_of_the_subterms_in_position_order(self, name):
        thy = shared_theory(name)
        for t in seeded_terms(11, 30):
            got = thy.key_vector(t)
            assert len(got) == len(positions(t))
            assert got == tuple(thy._cached_key(subterm_at(t, p)) for p in positions(t))

    def test_served_from_the_memo(self):
        thy = shared_theory("commutative")
        t = parse_term("f(f(x2,x1),f(x1,x3))")
        first = thy.key_vector(t)
        assert thy._key_vectors[t] is first
        assert thy.key_vector(t) is first

    def test_deep_chain(self):
        thy = shared_theory("grp-rule:f(f(x1,x2),x3)=f(x2,x3)")
        depth = 3000
        chain = parse_term("f(" * depth + "x1" + ",x2)" * depth)
        keys = thy.key_vector(chain)
        assert len(keys) == 2 * depth + 1
        # the left spine comes first, then the leaves: x1, then every x2
        assert keys[0] is keys[depth - 2] is parse_term("f(x2,x2)")
        assert keys[depth - 1] is parse_term("f(x1,x2)")
        assert keys[depth] is Var(1) and set(keys[depth + 1 :]) == {Var(2)}


# --- the readers against their references ------------------------------------------


@pytest.mark.parametrize("name", EXACT_THEORIES)
class TestReadersMatchTheReferences:
    def test_reducible_pairs(self, name):
        thy = shared_theory(name)
        nonempty = 0
        for t in seeded_terms(21, 80):
            got = reducible_pairs(t, thy)
            assert got == ref_reducible_pairs(t, thy), t
            nonempty += bool(got)
        assert (nonempty > 0) == (name not in LENGTH_PRESERVING)

    def test_match_positions_and_position_sets(self, name):
        thy = shared_theory(name)
        rng = random.Random(22)
        matched = 0
        for t in seeded_terms(23, 60):
            # a subterm of t as the pattern, so that matches are the rule
            r = subterm_at(t, rng.choice(positions(t)))
            sets = sigma_position_sets(t, r, thy)
            assert sigma_match_positions(t, r, thy) == sets.all_matches
            assert (sets.all_matches, sets.minimal, sets.essential_minimal) == ref_position_sets(
                t, r, thy
            ), (t, r)
            matched += len(sets.all_matches) > 1
        assert matched > 0

    def test_sigma_and_star_compose(self, name):
        thy = shared_theory(name)
        rng = random.Random(24)
        for t in seeded_terms(25, 60):
            r = subterm_at(t, rng.choice(positions(t)))
            assert sigma_compose(t, r, U, thy) is ref_sigma_compose(t, r, U, thy), (t, r)
            assert star_compose(t, r, U, thy) is ref_star_compose(t, r, U, thy), (t, r)

    def test_essentiality_asks_one_plant_per_position(self, name):
        # equal(t[p <- x_{n+1}], t) per position in preorder, and none for the
        # positions below the first of a fictive block
        thy = shared_theory(name)
        skipped = 0
        for t in seeded_terms(27, 30):
            asked, report = questions(thy, lambda: _compute_report(t, thy))
            x = Var(max_var_index(t) + 1)
            expected = [
                (replace_at(t, p, x), t)
                for p in positions(t)
                if not any(p[:k] in report.fictive_positions for k in range(len(p)))
            ]
            assert asked == expected, t
            skipped += len(positions(t)) - len(expected)
        assert (skipped > 0) == (name not in REGULAR_THEORIES)


# --- the minimal strategy takes the least member of the redex set ----------------


# proves every two terms equal, so the root of every term is fictive
TRIVIAL = "grp-rule:f(x1,x2)=x3"


@pytest.mark.parametrize("mode", ("S", "E"))
@pytest.mark.parametrize("name", (*EXACT_THEORIES, TRIVIAL))
def test_each_minimal_step_takes_the_least_redex(name, mode):
    thy = shared_theory(name)
    redexes = reducible_pairs if mode == "S" else removable_positions
    for t in seeded_terms(28, 30):
        nf, trace = normal_form(t, thy, mode)
        starts = [t] + [result for _, _, result in trace.steps]
        for u, (_, redex, _) in zip(starts, trace.steps):
            assert redex == min(redexes(u, thy)), (t, u)
        assert not redexes(nf, thy), t


def test_a_fictive_root_is_an_e_normal_form():
    thy = shared_theory(TRIVIAL)
    for text in ("f(x1,x2)", "f(f(x1,x2),x3)"):
        t = parse_term(text)
        assert normal_form(t, thy, "E") == (t, ReductionTrace(t))
        assert all(reduce_with_strategy(t, thy, "E", seed) == t for seed in range(3))


def scanned_questions(verdicts):
    """How many questions the essentiality scan of a decided term asks up to
    its least fictive index: one per essential index before it, one for it."""
    return verdicts.index(True) + 1 if True in verdicts else len(verdicts)


@pytest.mark.parametrize("name", (*EXACT_THEORIES, TRIVIAL))
def test_exact_theories_scan_t_as_its_renaming(name):
    # a renaming is an automorphism of the free algebra, so the verdicts at
    # each position of t are those of rename_canonical(t); terms whose first
    # leaf is not x1 are renamed
    thy = shared_theory(name)
    terms = [t for t in seeded_terms(29, 60) if variables(t)[0] != 1]
    asked = reported = 0
    for t in terms:
        verdicts = _compute_report(t, thy).verdicts
        assert rename_canonical(t) is not t
        assert verdicts == _compute_report(rename_canonical(t), thy).verdicts, t
        least = positions(t)[verdicts.index(True)] if True in verdicts else None
        assert least_fictive(t, thy) == least, t
        # each E step asks no more questions than the scan up to the least
        # fictive position of its term, where the report would ask them all
        _, trace = normal_form(t, thy, "E")
        for u in [t] + [result for _, _, result in trace.steps]:
            u_verdicts = _compute_report(u, thy).verdicts
            step_asked, _ = questions(thy, lambda: _minimal_redex(u, thy, "E"))
            assert len(step_asked) <= scanned_questions(u_verdicts), (t, u)
            asked += len(step_asked)
            reported += len(questions(thy, lambda: _compute_report(u, thy))[0])
    # a regular theory has no fictive position, and a fictive root is one
    # question either way: elsewhere some report asks past the least one
    assert len(terms) > 20 and asked <= reported
    assert (asked < reported) == (name not in (*REGULAR_THEORIES, TRIVIAL))


# --- bounded theories keep asking the oracle -------------------------------------


BOUNDED_AXIOMS = ("f(x1,x1)=x1", "f(f(x1,x2),x1)=f(x1,x1)", "f(f(x1,x2),x3)=f(x2,x3)")
# terms whose closures visit two or more subterms that need questions of
# their own, so that the order of those visits shows
VISIT_ORDER_TERMS = (
    "f(f(f(x1,f(x2,x2)),f(f(x1,x1),f(x2,x2))),x1)",
    "f(f(f(x2,f(x1,x1)),x2),f(f(x2,f(x1,x1)),f(x2,x1)))",
    "f(f(x1,f(f(x1,x1),f(x1,x1))),f(f(x1,x1),f(x1,f(x1,x1))))",
)


def questions(theory, call):
    """The equal questions call asks (holds asks through equal), in order,
    and its result or the UndecidedError it raises."""
    asked = []
    equal = theory.equal

    def recording(a, b):
        asked.append((a, b))
        return equal(a, b)

    theory.equal = recording
    try:
        return asked, call()
    except UndecidedError as exc:
        return asked, str(exc)
    finally:
        del theory.equal


@pytest.mark.parametrize("axiom", BOUNDED_AXIOMS)
def test_bounded_theories_ask_the_same_questions(axiom):
    rng = random.Random(26)
    calls = {
        "sigma_match_positions": (sigma_match_positions, ref_match_positions),
        # the one layer asks nothing below an outermost head
        "reducible_pairs": (
            lambda t, r, thy: reducible_pairs(t, thy),
            lambda t, r, thy: ref_one_layer_pairs(t, thy),
        ),
        "removable_positions": (
            lambda t, r, thy: removable_positions(t, thy),
            lambda t, r, thy: ref_removable_positions(t, thy),
        ),
        "_compute_report": (
            lambda t, r, thy: _compute_report(t, thy),
            lambda t, r, thy: ref_compute_report(t, thy),
        ),
    }
    asked = Counter()
    terms = [random_term(rng, 4, 3) for _ in range(25)]
    for t in terms + [parse_term(text) for text in VISIT_ORDER_TERMS]:
        r = subterm_at(t, rng.choice(positions(t)))
        for name, (call, ref) in calls.items():
            # a fresh theory per side, so that both start from empty memos
            a, b = (
                Theory((Identity.parse(axiom),), OracleConfig(max_deduction_steps=300))
                for _ in range(2)
            )
            got = questions(a, lambda: call(t, r, a))
            assert got == questions(b, lambda: ref(t, r, b)), (name, t, r)
            asked[name] += len(got[0])
    assert min(asked.values()) > 50


@pytest.mark.parametrize("steps", (3, 30, 300))
@pytest.mark.parametrize("axiom", BOUNDED_AXIOMS)
def test_bounded_rd_is_the_nested_pair_reference_where_it_answers(axiom, steps):
    # the one layer asks a subset of the reference's questions, so it can
    # raise UndecidedError only where the reference does
    rng = random.Random(steps)
    answered = nonempty = 0
    for t in [random_term(rng, 4, 3) for _ in range(100)]:
        a, b = (
            Theory((Identity.parse(axiom),), OracleConfig(max_deduction_steps=steps))
            for _ in range(2)
        )
        try:
            expected = ref_reducible_pairs(t, b)
        except UndecidedError:
            continue
        assert reducible_pairs(t, a) == expected, t
        answered += 1
        nonempty += bool(expected)
    assert answered > 90 and nonempty > 0


@pytest.mark.parametrize("axiom", BOUNDED_AXIOMS)
def test_least_fictive_asks_a_prefix_of_the_report_questions(axiom):
    # a bounded theory scans rename_canonical(t), as its report does, and
    # stops after the first answer that is not False
    rng = random.Random(20)
    terms = [random_term(rng, 4, 3) for _ in range(25)]
    stopped = 0
    for t in terms + [parse_term(text) for text in VISIT_ORDER_TERMS]:
        a, b = (
            Theory((Identity.parse(axiom),), OracleConfig(max_deduction_steps=300))
            for _ in range(2)
        )
        asked, got = questions(a, lambda: least_fictive(t, a))
        all_asked, report = questions(b, lambda: _compute_report(rename_canonical(t), b))
        assert asked == all_asked[: len(asked)], t
        stop = next((i for i, v in enumerate(report.verdicts) if v is not False), None)
        if stop is None:
            assert got is None and asked == all_asked, t
        else:
            assert len(asked) == stop + 1, t
            assert got == (positions(t)[stop] if report.verdicts[stop] else f"essentiality "
                           f"undecided at positions {[positions(t)[stop]]} of {t}"), t
            stopped += len(asked) < len(all_asked)
    # idempotency (the first axiom) makes no position fictive
    assert (stopped > 0) == (axiom != BOUNDED_AXIOMS[0])


def test_essentiality_scan_builds_no_position_list(monkeypatch):
    # the scan plants from its ancestor path, so a report, the least fictive
    # position and the E normal form read no whole-term position list
    depth = 100
    chain = parse_term("f(" * depth + "x1" + ",x2)" * depth)
    cases = [("sg-abs-1-2", chain)] + [(BOUNDED_AXIOMS[1], t) for t in seeded_terms(26, 12)]

    def outcomes():
        got = []
        for name, t in cases:
            # a fresh theory each time, so no report is read from a memo
            if name in BOUNDED_AXIOMS:
                thy = Theory((Identity.parse(name),), OracleConfig(max_deduction_steps=300))
            else:
                thy = theory_from_name(name)
            for call in (_compute_report, least_fictive, lambda t, thy: normal_form(t, thy, "E")):
                got.append(questions(thy, lambda: call(t, thy))[1])
        return got

    expected = outcomes()

    def no_positions(t):
        raise AssertionError("positions(t) built")

    monkeypatch.setattr("termalg.essentiality.positions", no_positions)
    monkeypatch.setattr("termalg.reduction.positions", no_positions)
    assert outcomes() == expected
    assert any(type(e) is str for e in expected) and None not in expected[:3]


# --- the minimal S strategy reads the outermost layer up to its first pair -------


def ref_minimal_s_normal_form(t, theory):
    """(normal form, steps) stepping by min(reducible_pairs(t)), the whole
    Rd closure of each term, over positions.  Under an exact theory
    test_each_minimal_step_takes_the_least_redex checks the same steps."""
    steps = []
    while pairs := reducible_pairs(t, theory):
        pair = min(pairs)
        t = step_S(t, pair)
        steps.append(("S", pair, t))
    return t, steps


@pytest.mark.parametrize("steps", (3, 30, 300))
@pytest.mark.parametrize("axiom", BOUNDED_AXIOMS)
def test_bounded_minimal_s_steps_match_the_reference_where_it_answers(axiom, steps):
    # each step asks a prefix of the questions of the reference's Rd layer,
    # so it can raise UndecidedError only where the reference does
    rng = random.Random(31 + steps)
    answered = stepped = 0
    for t in [random_term(rng, 4, 3) for _ in range(60)]:
        a, b = (
            Theory((Identity.parse(axiom),), OracleConfig(max_deduction_steps=steps))
            for _ in range(2)
        )
        try:
            expected = ref_minimal_s_normal_form(t, b)
        except UndecidedError:
            continue
        nf, trace = normal_form(t, a, "S")
        assert (nf, trace.steps) == expected, t
        answered += 1
        stepped += bool(trace.steps)
    assert answered > 40 and stepped > 0


@pytest.mark.parametrize("axiom", BOUNDED_AXIOMS)
def test_minimal_s_redex_asks_a_prefix_of_the_layer_questions(axiom):
    # the scan stops after the first head's tails, whose first pair it takes
    rng = random.Random(32)
    terms = [random_term(rng, 4, 3) for _ in range(25)]
    stopped = 0
    for t in terms + [parse_term(text) for text in VISIT_ORDER_TERMS]:
        a, b = (
            Theory((Identity.parse(axiom),), OracleConfig(max_deduction_steps=300))
            for _ in range(2)
        )
        asked, got = questions(a, lambda: _minimal_redex(t, a, "S"))
        all_asked, layer = questions(b, lambda: list(_outermost_pairs(preorder(t), b)))
        assert asked == all_asked[: len(asked)], t
        if isinstance(layer, str):  # undecided, where the layer raised or after its first head
            assert got == layer and asked == all_asked or type(got) is ReduciblePair, t
        elif layer:
            pos = positions(t)
            assert got == ReduciblePair(pos[layer[0][0]], pos[layer[0][1]]), t
        else:
            assert got is None and asked == all_asked, t
        stopped += len(asked) < len(all_asked)
    # only idempotency (the first axiom) gives these terms a head; under the
    # others the scan asks its whole layer and finds no pair
    assert (stopped > 0) == (axiom == BOUNDED_AXIOMS[0])

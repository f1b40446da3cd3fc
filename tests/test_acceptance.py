"""Acceptance gate: one test per advertised guarantee, at the stated bounds.

Every test asserts its claim wherever the claim holds and fails loudly when
the library's machine-checked behavior contradicts it.  Where a claim is
false for some theories, the test names each of them and checks a witness
itself instead of trusting the decider: reduction steps are replayed with the
theory passed in, so every step's legality is checked, and an explicit Cayley
table is checked with ``satisfies`` against every axiom and shown with
``eval_term`` to separate the two terms.  The whole module is expected to
pass.
"""

import itertools
import random

import numpy as np
from conftest import shared_theory
from termalg.algebras import FiniteAlgebra, eval_term, satisfies, term_values
from termalg.compose import sigma_compose, sigma_position_sets, star_compose
from termalg.deduction import SweepBounds, check_stability, validate_report
from termalg.essentiality import essentiality_report
from termalg.reduction import (
    ReduciblePair,
    normal_form,
    reduce_with_strategy,
    reducible_pairs,
    removable_positions,
    step_E,
    step_S,
)
from termalg.terms import (
    Node,
    Var,
    enumerate_terms_by_length,
    from_arrays,
    parse_position,
    parse_term,
    random_term,
    replace_at,
    subterm_set,
    to_arrays,
    valuations,
)
from termalg.theories import (
    REFUTED,
    CounterModel,
    Identity,
    OracleConfig,
    Theory,
    term_sort_key,
)

SIGMA2 = "grp-rule:f(f(x1,x2),x3)=f(x2,x3)"

BUILTIN_NAMES = (
    "idempotent",
    "commutative",
    "assoc",
) + tuple(f"sg-abs-{i}-{j}" for i in (1, 2, 3) for j in (1, 2, 3))

GRP_RULE_NAMES = tuple(
    f"grp-rule:{fam}=f(x{i},x{j})"
    for fam in ("f(f(x1,x2),x3)", "f(x1,f(x2,x3))")
    for i, j in itertools.permutations((1, 2, 3), 2)
)

EXACT_DECIDER_NAMES = BUILTIN_NAMES + (SIGMA2,)

# f(...) = f(xi,xj) with i < j keeps the order of its two variables
ORDER_PRESERVING_RULES = (
    "grp-rule:f(f(x1,x2),x3)=f(x1,x2)",
    "grp-rule:f(f(x1,x2),x3)=f(x1,x3)",
    "grp-rule:f(f(x1,x2),x3)=f(x2,x3)",
    "grp-rule:f(x1,f(x2,x3))=f(x1,x2)",
    "grp-rule:f(x1,f(x2,x3))=f(x1,x3)",
    "grp-rule:f(x1,f(x2,x3))=f(x2,x3)",
)

# f(...) = f(xi,xj) with i > j swaps them; these rules collapse f to a constant
SWAPPING_RULES = (
    "grp-rule:f(f(x1,x2),x3)=f(x2,x1)",
    "grp-rule:f(f(x1,x2),x3)=f(x3,x1)",
    "grp-rule:f(f(x1,x2),x3)=f(x3,x2)",
    "grp-rule:f(x1,f(x2,x3))=f(x2,x1)",
    "grp-rule:f(x1,f(x2,x3))=f(x3,x1)",
    "grp-rule:f(x1,f(x2,x3))=f(x3,x2)",
)

CORPUS_SIZE = 1000

# f(a,b) = 0: a model of sg-abs-I-J for every I, J and of every swapping rule
CONSTANT = FiniteAlgebra.from_rows([[0, 0], [0, 0]])
# f(a,b) = a
LEFT_PROJECTION = FiniteAlgebra.from_rows([[0, 0], [1, 1]])
# the only non-zero product is 3*2 = 1, so every product of two products is 0:
# a model of sg-abs-1-1, sg-abs-2-2 and sg-abs-3-3 in which f(xi,xj) still
# depends on both arguments.  No model of size <= 3 of those theories
# separates the Er witnesses below.
SPIKE = FiniteAlgebra.from_rows(
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
)


def _pos(*texts):
    return frozenset(parse_position(s) for s in texts)


def _legal_step(t, step, thy, mode):
    """One reduction step, passing the theory so that its legality is checked.

    An S-step is a (p, q) pair of position texts, an E-step a position text.
    """
    if mode == "S":
        return step_S(t, ReduciblePair(*map(parse_position, step)), thy)
    return step_E(t, parse_position(step), thy)


def _separates(algebra, thy, a, b, assignment):
    """True iff algebra satisfies every axiom of thy and a, b differ at assignment."""
    return all(satisfies(algebra, ax.lhs, ax.rhs) for ax in thy.axioms) and (
        eval_term(algebra, a, assignment) != eval_term(algebra, b, assignment)
    )


_CORPUS = None


def corpus():
    """Shared random corpus: CORPUS_SIZE terms, depth <= 6, variables <= 4."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(20260823)
        _CORPUS = [random_term(rng, 6, 4) for _ in range(CORPUS_SIZE)]
    return _CORPUS


_NF = {}


def normal_forms(name, mode):
    """[(term, normal form, Len chain)] for the corpus under one theory/mode.

    The Len chain starts at the input term and has one entry per reduction
    step, so strict monotonicity of the chain is exactly the claim that every
    step decreases Len.
    """
    key = (name, mode)
    if key not in _NF:
        thy = shared_theory(name)
        rows = []
        for t in corpus():
            nf, trace = normal_form(t, thy, mode)
            chain = [t.length] + [result.length for _, _, result in trace.steps]
            rows.append((t, nf, chain))
        _NF[key] = rows
    return _NF[key]


def test_criterion_01_composition_witness_golden():
    """Position sets, compositions, and the refutation of the witness pair."""
    thy = shared_theory(SIGMA2)
    t = parse_term("f(f(x3,f(x1,x2)),f(x2,f(x1,x2)))")
    s = parse_term("f(x2,f(x2,f(x1,x2)))")
    r = parse_term("f(x1,x2)")
    u = Var(3)
    assert thy.equal(t, s) is True
    assert essentiality_report(t, thy).fictive_positions == _pos("11", "121")
    assert essentiality_report(s, thy).fictive_positions == frozenset()
    assert sigma_position_sets(t, r, thy).minimal == _pos("12", "22")
    assert sigma_position_sets(s, r, thy).minimal == _pos("22")
    left = sigma_compose(t, r, u, thy)
    right = sigma_compose(s, r, u, thy)
    assert left == parse_term("f(f(x3,x3),f(x2,x3))")
    assert right == parse_term("f(x2,f(x2,x3))")
    verdict = thy.decide(left, right)
    assert verdict.outcome == REFUTED
    assert isinstance(verdict.certificate, CounterModel)
    assert verdict.certificate.algebra.size <= 3


def test_criterion_02_star_composition_golden():
    thy = shared_theory(SIGMA2)
    t = parse_term("f(f(x3,f(x1,x2)),f(x2,f(x1,x2)))")
    r = parse_term("f(x1,x2)")
    assert sigma_position_sets(t, r, thy).essential_minimal == _pos("22")
    assert star_compose(t, r, Var(4), thy) == parse_term("f(f(x3,f(x1,x2)),f(x2,x4))")


def test_criterion_03_star_composition_both_halves():
    assoc = shared_theory("assoc")
    t = parse_term("f(f(f(x1,x2),x1),x2)")
    s = parse_term("f(f(x1,x2),f(x1,x2))")
    r = parse_term("f(x1,x2)")
    u = Var(3)
    assert assoc.equal(t, s) is True
    assert sigma_position_sets(t, r, assoc).essential_minimal == _pos("11")
    assert sigma_position_sets(s, r, assoc).essential_minimal == _pos("1", "2")
    left = star_compose(t, r, u, assoc)
    right = star_compose(s, r, u, assoc)
    assert left == parse_term("f(f(x3,x1),x2)")
    assert right == parse_term("f(x3,x3)")
    verdict = assoc.decide(left, right)
    assert verdict.outcome == REFUTED
    assert isinstance(verdict.certificate, CounterModel)
    assert satisfies(
        verdict.certificate.algebra,
        parse_term("f(f(x1,x2),x3)"),
        parse_term("f(x1,f(x2,x3))"),
    )

    sigma2 = shared_theory(SIGMA2)
    t2 = parse_term("f(f(x3,f(x1,x2)),f(x2,f(x1,x2)))")
    s2 = parse_term("f(x2,f(x2,f(x1,x2)))")
    assert sigma_position_sets(t2, r, sigma2).essential_minimal == _pos("22")
    assert sigma_position_sets(s2, r, sigma2).essential_minimal == _pos("22")
    assert sigma2.equal(
        star_compose(t2, r, u, sigma2), star_compose(s2, r, u, sigma2)
    ) is True


def test_criterion_04_second_case_composition_golden():
    assoc = shared_theory("assoc")
    t = parse_term("f(f(x1,x2),x2)")
    s = parse_term("f(f(f(x1,x2),x2),x3)")
    r = parse_term("f(x1,x2)")
    u = Var(4)
    assert sigma_position_sets(t, r, assoc).minimal == _pos("1")
    assert sigma_position_sets(s, r, assoc).minimal == _pos("11")
    assert sigma_compose(t, r, u, assoc) == parse_term("f(x4,x2)")
    assert sigma_compose(s, r, u, assoc) == parse_term("f(f(x4,x2),x3)")


def test_criterion_05_valuations_and_arrays():
    t = parse_term("f(x3,f(f(x1,x2),x2))")
    arrays = to_arrays(t)
    assert arrays.positions == tuple(
        parse_position(p) for p in ("e", "1", "2", "21", "211", "212", "22")
    )
    assert arrays.var_indexes == (3, 1, 2, 2)
    assert from_arrays(arrays) == t
    # The deepest leaf, x3 at position 12111, sits under five applications,
    # so Depth is 5.
    t = parse_term("f(f(x1,f(f(f(x3,x4),x3),x1)),x2)")
    assert valuations(t) == (6, 5, 5)
    arrays = to_arrays(t)
    assert parse_position("12111") in arrays.positions
    assert valuations(t) == (
        len(arrays.var_indexes),
        len(arrays.positions) - len(arrays.var_indexes),
        max(len(p) for p in arrays.positions),
    )


def test_criterion_06_every_reduction_step_decreases_length():
    failures = []
    for name in BUILTIN_NAMES:
        for mode in ("S", "E"):
            for t, _, chain in normal_forms(name, mode):
                if any(b >= a for a, b in zip(chain, chain[1:])):
                    failures.append(f"{name}/{mode}: non-decreasing step from {t}")
    assert failures == [], f"{len(failures)} non-decreasing steps: " + "; ".join(
        failures[:5]
    )


# theory -> (start, (S-step, normal form), (S-step, normal form)): one term
# with two distinct S-normal forms, which the theory proves equal
S_NORMAL_FORM_PAIRS = {
    **dict.fromkeys(
        ("sg-abs-1-1", "sg-abs-1-2"),
        (
            "f(f(x1,x1),f(x1,f(x1,x2)))",
            (("e", "1"), "f(x1,x1)"),
            (("e", "2"), "f(x1,f(x1,x2))"),
        ),
    ),
    **dict.fromkeys(
        ("sg-abs-1-3", "sg-abs-3-3"),
        (
            "f(f(x1,x1),f(x1,f(x2,x1)))",
            (("e", "1"), "f(x1,x1)"),
            (("e", "2"), "f(x1,f(x2,x1))"),
        ),
    ),
    **dict.fromkeys(
        ("sg-abs-2-1", "sg-abs-3-1", "sg-abs-3-2"),
        (
            "f(f(x4,x1),f(x4,x4))",
            (("e", "2"), "f(x4,x4)"),
            (("e", "1"), "f(x4,x1)"),
        ),
    ),
    "sg-abs-2-2": (
        "f(f(x3,x3),f(x4,f(x3,x4)))",
        (("e", "1"), "f(x3,x3)"),
        (("e", "2"), "f(x4,f(x3,x4))"),
    ),
    "sg-abs-2-3": (
        "f(f(x1,x1),f(f(x2,x1),x1))",
        (("e", "1"), "f(x1,x1)"),
        (("e", "2"), "f(f(x2,x1),x1)"),
    ),
}

# theory -> (start, (E-step, normal form), (E-step, normal form), model,
# assignment): one term with two E-normal forms that the model separates.
# These are the sg-abs theories whose Er is unsound (criterion 08).
E_NORMAL_FORM_PAIRS = {
    "sg-abs-1-1": (
        "f(f(x4,x2),x1)",
        ("12", "f(x4,x1)"),
        ("2", "f(x4,x2)"),
        SPIKE,
        {4: 3, 2: 2, 1: 0},
    ),
    **dict.fromkeys(
        ("sg-abs-2-1", "sg-abs-3-1", "sg-abs-3-2"),
        ("f(x4,x2)", ("1", "x2"), ("2", "x4"), CONSTANT, {4: 0, 2: 1}),
    ),
    **dict.fromkeys(
        ("sg-abs-2-2", "sg-abs-3-3"),
        (
            "f(f(x4,x2),x1)",
            ("11", "f(x2,x1)"),
            ("12", "f(x4,x1)"),
            SPIKE,
            {4: 0, 2: 3, 1: 2},
        ),
    ),
}


def _two_normal_forms(thy, mode, start, branches):
    """Replay each (step, normal form) branch from start and check that the
    two results are the stated, distinct normal forms."""
    t = parse_term(start)
    got = [_legal_step(t, step, thy, mode) for step, _ in branches]
    assert got == [parse_term(nf) for _, nf in branches], f"{thy.name}: {got}"
    assert got[0] != got[1]
    redexes = reducible_pairs if mode == "S" else removable_positions
    assert not any(redexes(u, thy) for u in got), f"{thy.name}: {got}"
    return got


def test_criterion_07_unique_normal_forms():
    failures = []
    for name in BUILTIN_NAMES:
        thy = shared_theory(name)
        for mode in ("S", "E"):
            if mode == "E" and name in E_NORMAL_FORM_PAIRS:
                continue
            # sg-abs S-normal forms are unique only up to the theory
            up_to_theory = mode == "S" and name in S_NORMAL_FORM_PAIRS
            for t, nf, _ in normal_forms(name, mode):
                for seed in range(10):
                    got = reduce_with_strategy(t, thy, mode, seed)
                    same = thy.equal(got, nf) is True if up_to_theory else got == nf
                    if not same:
                        failures.append(
                            f"{name}/{mode}/seed={seed}: {t} -> {got} != {nf}"
                        )
                        break

    for name, (start, *branches) in S_NORMAL_FORM_PAIRS.items():
        thy = shared_theory(name)
        a, b = _two_normal_forms(thy, "S", start, branches)
        assert thy.equal(a, b) is True, f"{name}: {a} and {b} not provably equal"

    for name, (start, *branches, model, assignment) in E_NORMAL_FORM_PAIRS.items():
        thy = shared_theory(name)
        a, b = _two_normal_forms(thy, "E", start, branches)
        assert _separates(model, thy, a, b, assignment), f"{name}: {a} vs {b}"

    # equivalent idempotent start terms must share the same S-normal form
    idem = shared_theory("idempotent")
    rng = random.Random(7)
    s_nf = {t: nf for t, nf, _ in normal_forms("idempotent", "S")}
    for t in corpus()[:200]:
        # duplicate one subterm occurrence: t2 = t with u replaced by f(u,u)
        subs = sorted(subterm_set(t), key=term_sort_key)
        u = subs[rng.randrange(len(subs))]
        pos = [p for p in to_arrays(t).positions if _subterm_is(t, p, u)]
        p = pos[rng.randrange(len(pos))]
        t2 = replace_at(t, p, Node(u, u))
        assert idem.equal(t, t2) is True
        if normal_form(t2, idem, "S")[0] != s_nf[t]:
            failures.append(f"idempotent pair: {t} vs {t2} disagree on Sr")
    assert failures == [], f"{len(failures)} mismatches: " + "; ".join(failures[:5])


def _subterm_is(t, p, u):
    from termalg.terms import subterm_at

    return subterm_at(t, p) == u


def _is_right_comb(t):
    while isinstance(t, Node):
        if isinstance(t.left, Node):
            return False
        t = t.right
    return True


def _is_left_comb(t):
    while isinstance(t, Node):
        if isinstance(t.right, Node):
            return False
        t = t.left
    return True


# theory -> (term, E-step, result, model, assignment): a legal E-step whose
# result the model separates from the term.  A position can be fictive while
# replacing its parent by the sibling still changes the class of the term.
ER_UNSOUND_WITNESSES = {
    "sg-abs-1-1": ("f(f(x4,x2),x1)", "12", "f(x4,x1)", SPIKE, {4: 3, 2: 0, 1: 2}),
    **dict.fromkeys(
        ("sg-abs-2-2", "sg-abs-3-3"),
        ("f(f(x4,x2),x1)", "11", "f(x2,x1)", SPIKE, {4: 0, 2: 3, 1: 2}),
    ),
    **dict.fromkeys(
        ("sg-abs-2-1", "sg-abs-3-1", "sg-abs-3-2") + SWAPPING_RULES,
        ("f(x4,x2)", "1", "x2", CONSTANT, {4: 0, 2: 1}),
    ),
}


def test_criterion_08_normal_forms_sound_and_comb_shaped():
    failures = []
    for name in BUILTIN_NAMES:
        thy = shared_theory(name)
        for mode in ("S", "E"):
            if mode == "E" and name in ER_UNSOUND_WITNESSES:
                continue
            bad = sum(
                1
                for t, nf, _ in normal_forms(name, mode)
                if thy.equal(t, nf) is not True
            )
            if bad:
                failures.append(f"{name}/{mode}: {bad} normal forms not provably equal")

    for name in GRP_RULE_NAMES:
        thy = shared_theory(name)
        left_family = name.startswith("grp-rule:f(f")
        comb = _is_right_comb if left_family else _is_left_comb
        bad_shape = bad_eq = 0
        for t in corpus():
            nf_e, _ = normal_form(t, thy, "E")
            if not comb(nf_e):
                bad_shape += 1
            if name not in ER_UNSOUND_WITNESSES and thy.equal(t, nf_e) is not True:
                bad_eq += 1
            if thy.equal(t, normal_form(t, thy, "S")[0]) is not True:
                bad_eq += 1
        if bad_shape:
            failures.append(f"{name}: {bad_shape} non-comb Er normal forms")
        if bad_eq:
            failures.append(f"{name}: {bad_eq} normal forms not provably equal")

    for name, (start, step, result, model, assignment) in ER_UNSOUND_WITNESSES.items():
        thy = shared_theory(name)
        t = parse_term(start)
        got = _legal_step(t, step, thy, "E")
        assert got == parse_term(result), f"{name}: {t} -E-> {got}"
        assert _separates(model, thy, t, got, assignment), f"{name}: {t} vs {got}"
    assert failures == [], "; ".join(failures)


# f(f(xi,xj),xk) = f(xm,xm) axioms whose SigmaR1 sweep finds no violation.  In
# the other ten, the axiom rewrite that proves t = s can erase or bury a
# pattern occurrence, so the two sides get composed at different positions.
SIGMA_R1_STABLE_AXIOMS = (
    "f(f(x1,x1),x1)=f(x1,x1)",
    "f(f(x1,x1),x1)=f(x2,x2)",
    "f(f(x1,x1),x2)=f(x1,x1)",
    "f(f(x2,x2),x1)=f(x2,x2)",
    "f(f(x2,x2),x2)=f(x1,x1)",
    "f(f(x2,x2),x2)=f(x2,x2)",
)


def test_criterion_09_stability_sweeps():
    bounds = SweepBounds(3, 3, 3)
    failures = []
    unknown_lines = []

    def run(thy, mode, expect_violations, require_counter_models=False):
        report = check_stability(thy, mode, bounds)
        assert validate_report(report), f"{thy.name}/{mode}: validation failed"
        for t, s, r, reason in report.unknowns:
            unknown_lines.append(f"{thy.name}/{mode}: {t} = {s} (r={r}): {reason}")
        if report.unknown_fraction > 0.05:
            failures.append(
                f"{thy.name}/{mode}: unknown fraction "
                f"{report.unknown_fraction:.1%} exceeds 5%"
            )
        n = len(report.violations)
        if expect_violations and n == 0:
            failures.append(f"{thy.name}/{mode}: expected a violation, found none")
        if not expect_violations and n:
            sample = report.violations[0]
            failures.append(
                f"{thy.name}/{mode}: {n} validated violations, e.g. "
                f"t={sample.t} s={sample.s} r={sample.r} u={sample.u} -> "
                f"{sample.left} != {sample.right}"
            )
        for v in report.violations:
            cert = v.certificate
            if isinstance(cert, CounterModel):
                if not _separates(
                    cert.algebra, thy, v.left, v.right, dict(cert.assignment)
                ):
                    failures.append(
                        f"{thy.name}/{mode}: counter-model {cert.algebra.table} "
                        f"fails to certify {v.left} != {v.right}"
                    )
            elif require_counter_models:
                failures.append(
                    f"{thy.name}/{mode}: {v.left} != {v.right} has no counter-model"
                )

    run(shared_theory("idempotent"), "SigmaR1", False)
    run(shared_theory("commutative"), "SigmaR1", False)
    for i, j, k, m in itertools.product((1, 2), repeat=4):
        text = f"f(f(x{i},x{j}),x{k})=f(x{m},x{m})"
        axiom = Identity.parse(text)
        theory = Theory(
            (axiom,),
            config=OracleConfig(max_deduction_steps=5000),
            name="axioms:" + axiom.text(),
        )
        unstable = text not in SIGMA_R1_STABLE_AXIOMS
        run(theory, "SigmaR1", unstable, require_counter_models=unstable)
    for name in ("sg-abs-1-2", "sg-abs-2-3", "sg-abs-1-3"):
        run(shared_theory(name), "SigmaR1", False)
    run(shared_theory("assoc"), "SigmaR1", True)
    run(shared_theory(SIGMA2), "SigmaR1", True)
    for name in GRP_RULE_NAMES:
        unstable = name in ORDER_PRESERVING_RULES
        run(shared_theory(name), "SR1", unstable, require_counter_models=unstable)

    if unknown_lines:
        print(f"\n{len(unknown_lines)} unknown-verdict instances:")
        for line in unknown_lines:
            print("  " + line)
    assert failures == [], f"{len(failures)} sweep failures:\n" + "\n".join(failures)


def _criterion_10_excuse(name, thy, t, r, er):
    """True iff the mechanism documented for the rule's family breaks
    t(r*u) = Er(t)(r<-u).

    Swapping rules: Er(t) is not equal to t.  Order-preserving rules: Er(t)
    equals t, but a fictive position inside a minimal match of r removes that
    match from the essential ones, while Er(t) has it essential.
    """
    if name in SWAPPING_RULES:
        return thy.equal(t, er) is not True
    sets = sigma_position_sets(t, r, thy)
    return thy.equal(er, t) is True and sets.essential_minimal != sets.minimal


def test_criterion_10_star_composition_factors_through_removal_normal_form():
    rng = random.Random(10)
    failures = []
    for name in GRP_RULE_NAMES:
        thy = shared_theory(name)
        bad = 0
        sample = None
        for _ in range(200):
            t = random_term(rng, 4, 3)
            subs = sorted(subterm_set(t), key=term_sort_key)
            r = subs[rng.randrange(len(subs))]
            u = random_term(rng, 2, 3)
            left = star_compose(t, r, u, thy)
            er = normal_form(t, thy, "E")[0]
            right = sigma_compose(er, r, u, thy)
            if thy.equal(left, right) is True:
                continue
            if thy.decide(left, right).outcome == REFUTED and _criterion_10_excuse(
                name, thy, t, r, er
            ):
                continue
            bad += 1
            if sample is None:
                sample = f"t={t} r={r} u={u}: {left} != {right}"
        if bad:
            failures.append(f"{name}: {bad}/200 unexplained violations, e.g. {sample}")

    # Swapping rule: f(x3,x3) is the pattern itself, so star composition
    # gives u, while the E-step to x3 leaves no match.
    thy = shared_theory("grp-rule:f(f(x1,x2),x3)=f(x3,x2)")
    t, r, u = parse_term("f(x3,x3)"), parse_term("f(x3,x3)"), Var(1)
    er = _legal_step(t, "1", thy, "E")
    assert er == normal_form(t, thy, "E")[0] == Var(3)
    assert _separates(CONSTANT, thy, t, er, {3: 1})
    left, right = star_compose(t, r, u, thy), sigma_compose(er, r, u, thy)
    assert (left, right) == (Var(1), Var(3))
    assert _separates(CONSTANT, thy, left, right, {1: 0, 3: 1})

    # Order-preserving rule: 121 is fictive inside the only minimal match 1,
    # so star composition leaves t unchanged, while Er(t) = f(f(x3,x1),x1) is
    # equal to t and has the match at 1 essential.
    thy = shared_theory("grp-rule:f(x1,f(x2,x3))=f(x1,x3)")
    t = parse_term("f(f(x3,f(f(x3,x3),x1)),x1)")
    r, u = parse_term("f(x3,f(f(x3,x3),x1))"), Var(2)
    er = _legal_step(t, "121", thy, "E")
    assert er == normal_form(t, thy, "E")[0] == parse_term("f(f(x3,x1),x1)")
    assert thy.equal(t, er) is True
    sets = sigma_position_sets(t, r, thy)
    assert (sets.minimal, sets.essential_minimal) == (_pos("1"), frozenset())
    left, right = star_compose(t, r, u, thy), sigma_compose(er, r, u, thy)
    assert (left, right) == (t, parse_term("f(x2,x1)"))
    assert _separates(LEFT_PROJECTION, thy, left, right, {1: 0, 2: 0, 3: 1})
    assert failures == [], "\n".join(failures)


def test_criterion_11_exact_deciders_agree_with_model_checking():
    terms = list(enumerate_terms_by_length(4, 3))
    vs = (1, 2, 3)
    disagreements = []
    for name in EXACT_DECIDER_NAMES:
        thy = shared_theory(name)
        assert thy.exact, f"{name} is expected to ship an exact decider"
        stacks = [thy._model_stack(n) for n in (1, 2, 3)]
        memos = [{} for _ in stacks]
        # values in every model of size <= 3 under every assignment; a bare
        # variable comes back as one row, so broadcast it to every model
        signature = {
            t: tuple(
                np.broadcast_to(
                    term_values(stack, t, vs, memo), (len(stack), stack.size ** len(vs))
                ).tobytes()
                for stack, memo in zip(stacks, memos)
            )
            for t in terms
        }
        classes = {}
        for t in terms:
            classes.setdefault(thy._cached_key(t), []).append(t)
        for members in classes.values():
            sigs = {signature[t] for t in members}
            if len(sigs) > 1:
                disagreements.append(
                    f"{name}: proved-equal terms distinguished by a model: {members}"
                )
        reps = sorted(
            (min(ms, key=term_sort_key) for ms in classes.values()), key=term_sort_key
        )
        is_model = {}  # attached algebra -> whether it satisfies the axioms
        for a, b in itertools.combinations(reps, 2):
            verdict = thy.decide(a, b)
            if verdict.outcome != REFUTED:
                disagreements.append(f"{name}: {a} vs {b} not refuted ({verdict.outcome})")
                continue
            cert = verdict.certificate
            if isinstance(cert, CounterModel):
                at = dict(cert.assignment)
                if eval_term(cert.algebra, a, at) == eval_term(cert.algebra, b, at):
                    disagreements.append(
                        f"{name}: attached counter-model fails to separate {a} and {b}"
                    )
                if cert.algebra not in is_model:
                    is_model[cert.algebra] = all(
                        satisfies(cert.algebra, ax.lhs, ax.rhs) for ax in thy.axioms
                    )
                if not is_model[cert.algebra]:
                    disagreements.append(
                        f"{name}: attached counter-model violates the axioms"
                    )
            elif signature[a] != signature[b]:
                disagreements.append(
                    f"{name}: refuted without a counter-model although one of "
                    f"size <= 3 separates {a} and {b}"
                )
    assert disagreements == [], f"{len(disagreements)}: " + "; ".join(disagreements[:5])

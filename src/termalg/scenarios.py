"""Golden scenario registry.

Each scenario re-derives one worked example end to end — position sets,
compositions, normal forms, closure memberships, or small stability sweeps —
and compares the results exactly against the expected values.  A scenario
with no check to run is a gap, neither passed nor failed.  The CLI
`scenarios` command runs the whole registry and exits 0 iff no scenario
fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .compose import sigma_compose, sigma_position_sets, star_compose
from .deduction import ClosureBounds, SweepBounds, bounded_closure, check_stability
from .errors import UndecidedError
from .essentiality import essential_positions, essentiality_report
from .reduction import er
from .terms import (
    Node,
    Var,
    from_arrays,
    parse_position,
    parse_term,
    random_term,
    replace_at,
    subterm_set,
    to_arrays,
    valuations,
)
from .theories import (
    REFUTED,
    CounterModel,
    Identity,
    Theory,
    term_sort_key,
    theory_from_name,
)


@dataclass(frozen=True)
class Scenario:
    """A named golden check: run() -> (passed, detail), where passed is None
    for a gap, a scenario that has no check to run."""

    name: str
    description: str
    builder: object = field(repr=False)

    def run(self):
        checks = self.builder()
        if not checks:
            return None, "no executable instances (documented interpretation gap)"
        failures = [
            f"{label}: expected {expected!r}, got {actual!r}"
            for label, actual, expected in checks
            if actual != expected
        ]
        if failures:
            return False, "; ".join(failures)
        return True, f"{len(checks)} checks passed"


def _pos_set(*texts):
    return frozenset(parse_position(s) for s in texts)


def _p(text):
    return parse_position(text)


def _t(text):
    return parse_term(text)


_SIGMA2 = "grp-rule:f(f(x1,x2),x3)=f(x2,x3)"

# the non-stability witness shared by several scenarios
_W_T = "f(f(x3,f(x1,x2)),f(x2,f(x1,x2)))"
_W_S = "f(x2,f(x2,f(x1,x2)))"
_W_R = "f(x1,x2)"


def _prop_6_1():
    thy = theory_from_name(_SIGMA2)
    t, s, r, u = _t(_W_T), _t(_W_S), _t(_W_R), Var(3)
    checks = [("premise t = s", thy.equal(t, s), True)]
    checks.append(
        ("PFic(t)", essentiality_report(t, thy).fictive_positions, _pos_set("11", "121"))
    )
    checks.append(("PFic(s)", essentiality_report(s, thy).fictive_positions, frozenset()))
    checks.append(("P_r^t", sigma_position_sets(t, r, thy).minimal, _pos_set("12", "22")))
    checks.append(("P_r^s", sigma_position_sets(s, r, thy).minimal, _pos_set("22")))
    left, right = sigma_compose(t, r, u, thy), sigma_compose(s, r, u, thy)
    checks.append(("t^S(r<-u)", left, _t("f(f(x3,x3),f(x2,x3))")))
    checks.append(("s^S(r<-u)", right, _t("f(x2,f(x2,x3))")))
    verdict = thy.decide(left, right)
    checks.append(("verdict", verdict.outcome, REFUTED))
    checks.append(
        ("counter-model certificate", isinstance(verdict.certificate, CounterModel), True)
    )
    if isinstance(verdict.certificate, CounterModel):
        checks.append(("model size <= 3", verdict.certificate.algebra.size <= 3, True))
    return checks


def _def_6_1_example():
    thy = theory_from_name(_SIGMA2)
    t, r = _t(_W_T), _t(_W_R)
    checks = [("EP_r^t", sigma_position_sets(t, r, thy).essential_minimal, _pos_set("22"))]
    checks.append(("t(r*x4)", star_compose(t, r, Var(4), thy), _t("f(f(x3,f(x1,x2)),f(x2,x4))")))
    return checks


def _prop_6_2_semigroup():
    thy = theory_from_name("assoc")
    t, s, r, u = (
        _t("f(f(f(x1,x2),x1),x2)"),
        _t("f(f(x1,x2),f(x1,x2))"),
        _t(_W_R),
        Var(3),
    )
    checks = [("premise t = s", thy.equal(t, s), True)]
    checks.append(("EP_r^t", sigma_position_sets(t, r, thy).essential_minimal, _pos_set("11")))
    checks.append(("EP_r^s", sigma_position_sets(s, r, thy).essential_minimal, _pos_set("1", "2")))
    left, right = star_compose(t, r, u, thy), star_compose(s, r, u, thy)
    checks.append(("t(r*u)", left, _t("f(f(x3,x1),x2)")))
    checks.append(("s(r*u)", right, _t("f(x3,x3)")))
    checks.append(("verdict", thy.decide(left, right).outcome, REFUTED))
    return checks


def _prop_6_2_sigma2():
    thy = theory_from_name(_SIGMA2)
    t, s, r, u = _t(_W_T), _t(_W_S), _t(_W_R), Var(3)
    checks = [
        ("EP_r^t", sigma_position_sets(t, r, thy).essential_minimal, _pos_set("22")),
        ("EP_r^s", sigma_position_sets(s, r, thy).essential_minimal, _pos_set("22")),
    ]
    star_t, star_s = star_compose(t, r, u, thy), star_compose(s, r, u, thy)
    checks.append(("t(r*u)", star_t, _t("f(f(x3,f(x1,x2)),f(x2,x3))")))
    checks.append(("s(r*u)", star_s, _t("f(x2,f(x2,x3))")))
    checks.append(("star compositions stay equal", thy.equal(star_t, star_s), True))
    sig_t, sig_s = sigma_compose(t, r, u, thy), sigma_compose(s, r, u, thy)
    checks.append(("full compositions differ", thy.decide(sig_t, sig_s).outcome, REFUTED))
    return checks


def _thm_3_1_case_2():
    thy = theory_from_name("assoc")
    t, s, r, u = (
        _t("f(f(x1,x2),x2)"),
        _t("f(f(f(x1,x2),x2),x3)"),
        _t(_W_R),
        Var(4),
    )
    return [
        ("P_r^t", sigma_position_sets(t, r, thy).minimal, _pos_set("1")),
        ("P_r^s", sigma_position_sets(s, r, thy).minimal, _pos_set("11")),
        ("t^S(r<-u)", sigma_compose(t, r, u, thy), _t("f(x4,x2)")),
        ("s^S(r<-u)", sigma_compose(s, r, u, thy), _t("f(f(x4,x2),x3)")),
    ]


def _thm_3_1_case_1():
    # replacing at position 1 of t = f(f(f(x1,x2),x2),x3) necessarily keeps
    # x3 as the second argument, so the composition is f(x4,x3)
    thy = theory_from_name("assoc")
    t, s, r, u = (
        _t("f(f(f(x1,x2),x2),x3)"),
        _t("f(f(f(f(x1,x2),x2),x2),x3)"),
        _t("f(f(x1,x2),x2)"),
        Var(4),
    )
    return [
        ("P_r^t", sigma_position_sets(t, r, thy).minimal, _pos_set("1")),
        ("P_r^s", sigma_position_sets(s, r, thy).minimal, _pos_set("11")),
        ("t^S(r<-u)", sigma_compose(t, r, u, thy), _t("f(x4,x3)")),
        ("s^S(r<-u)", sigma_compose(s, r, u, thy), _t("f(f(x4,x2),x3)")),
    ]


def _lemma_3_3_consequence():
    lhs, rhs = _t("f(f(x1,x1),x1)"), _t("f(x1,x1)")
    checks = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            thy = theory_from_name(f"sg-abs-{i}-{j}")
            checks.append((f"{thy.name} proves f(f(x1,x1),x1) = f(x1,x1)", thy.equal(lhs, rhs), True))
    return checks


def _lemma_3_2_condition_gap():
    # The side condition |{i,j,m} \ {1,2,3}| = 1 is unsatisfiable as written:
    # for i,j,m in {1,2,3} the set difference is always empty.  The statement
    # therefore has no instances to execute; this entry records the gap.
    return []


def _remark_4_1_arrays():
    t = _t("f(x3,f(f(x1,x2),x2))")
    arrays = to_arrays(t)
    expected_positions = tuple(_p(s) for s in ("e", "1", "2", "21", "211", "212", "22"))
    return [
        ("P(t)", arrays.positions, expected_positions),
        ("V(t)", arrays.var_indexes, (3, 1, 2, 2)),
        ("round trip", from_arrays(arrays), t),
    ]


def _valuations():
    # the deepest leaf (x3 at 12111) sits under five nested applications, so
    # the max-plus-one recursion gives Depth 5
    t = _t("f(f(x1,f(f(f(x3,x4),x3),x1)),x2)")
    return [("(Len, Siz, Depth)", valuations(t), (6, 5, 5))]


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


def _lemma_6_3_er():
    thy = theory_from_name("grp-rule:f(f(x1,x2),x3)=f(x1,x2)")
    checks = [("Er(f(f(x1,x2),x3))", er(_t("f(f(x1,x2),x3)"), thy), _t("f(x1,x2)"))]
    rng = random.Random(63)
    for k in range(20):
        t = random_term(rng, 4, 3)
        checks.append((f"Er of sample {k} is a right comb", _is_right_comb(er(t, thy)), True))
    return checks


def _lemma_6_4_er():
    thy = theory_from_name("grp-rule:f(x1,f(x2,x3))=f(x1,x2)")
    checks = []
    rng = random.Random(64)
    for k in range(20):
        t = random_term(rng, 4, 3)
        checks.append((f"Er of sample {k} is a left comb", _is_left_comb(er(t, thy)), True))
    return checks


def _thm_6_1_d5_instance():
    # v = r(p; x_fresh), u = x_fresh: composing v with (u -> t) is exactly
    # positional replacement of t at p, for every essential position p of r
    thy = theory_from_name(_SIGMA2)
    axiom_t, axiom_s = _t("f(f(x1,x2),x3)"), _t("f(x2,x3)")
    r = _t("f(x1,f(x2,x1))")
    u = Var(4)
    checks = []
    for p in sorted(essential_positions(r, thy)):
        v = replace_at(r, p, u)
        label = f"p={''.join(map(str, p)) or 'e'}"
        checks.append(
            (f"{label}: EP_u^v", sigma_position_sets(v, u, thy).essential_minimal, frozenset({p}))
        )
        checks.append((f"{label}: v(u*t)", star_compose(v, u, axiom_t, thy), replace_at(r, p, axiom_t)))
        checks.append((f"{label}: v(u*s)", star_compose(v, u, axiom_s, thy), replace_at(r, p, axiom_s)))
    return checks


def _lemma_6_2_er_compose():
    thy = theory_from_name("grp-rule:f(f(x1,x2),x3)=f(x1,x2)")
    rng = random.Random(62)
    u = Var(5)
    checks = []
    for k in range(25):
        t = random_term(rng, 4, 3)
        subs = sorted(subterm_set(t), key=term_sort_key)
        r = subs[rng.randrange(len(subs))]
        left = star_compose(t, r, u, thy)
        right = sigma_compose(er(t, thy), r, u, thy)
        checks.append((f"sample {k}: t(r*u) = Er(t)^S(r<-u)", thy.equal(left, right), True))
    return checks


def _mini_sweep(theory, mode, bounds):
    report = check_stability(theory, mode, bounds)
    checks = [("violations", len(report.violations), 0)]
    if not report.exhaustive:
        checks.append(("unknown fraction <= 5%", report.unknown_fraction <= 0.05, True))
    return checks


def _thm_5_1_sweep():
    return _mini_sweep(theory_from_name("idempotent"), "SigmaR1", SweepBounds(2, 2, 1))


def _thm_5_2_sweep():
    return _mini_sweep(theory_from_name("commutative"), "SigmaR1", SweepBounds(2, 2, 1))


def _thm_5_3_sweep():
    axiom = Identity(_t("f(f(x1,x2),x1)"), _t("f(x1,x1)"))
    thy = Theory((axiom,))
    return _mini_sweep(thy, "SigmaR1", SweepBounds(2, 2, 1))


def _lemma_3_1_sweep():
    return _mini_sweep(theory_from_name("sg-abs-1-2"), "SigmaR1", SweepBounds(2, 3, 1))


def _thm_6_2_sweep():
    thy = theory_from_name("grp-rule:f(f(x1,x2),x3)=f(x1,x2)")
    return _mini_sweep(thy, "SR1", SweepBounds(2, 3, 1))


def _closure_d5():
    axiom = Identity(_t("f(x1,x1)"), _t("x1"))
    derived = bounded_closure(
        (axiom,), bounds=ClosureBounds(max_term_length=4, max_vars=2, max_rounds=3)
    )
    target = Identity(_t("f(f(x1,x1),x2)"), _t("f(x1,x2)"))
    present = target in derived or target.flipped() in derived
    return [("f(f(x1,x1),x2) = f(x1,x2) derived", present, True)]


def named_scenarios():
    """The registry, in a stable order."""
    return (
        Scenario("valuations", "Len/Siz/Depth of a six-leaf sample term", _valuations),
        Scenario(
            "remark-4.1-arrays",
            "position/variable array encoding of f(x3,f(f(x1,x2),x2)) and its round trip",
            _remark_4_1_arrays,
        ),
        Scenario(
            "lemma-3.1-stable-sweep",
            "no replacement-rule violations for a semigroup absorption theory (small bounds)",
            _lemma_3_1_sweep,
        ),
        Scenario(
            "lemma-3.2-condition-gap",
            "recorded interpretation gap: the stated side condition has no instances",
            _lemma_3_2_condition_gap,
        ),
        Scenario(
            "lemma-3.3-consequence",
            "every semigroup absorption theory proves f(f(x1,x1),x1) = f(x1,x1)",
            _lemma_3_3_consequence,
        ),
        Scenario(
            "thm-3.1-case-1",
            "position sets and compositions for the first stability-characterization branch",
            _thm_3_1_case_1,
        ),
        Scenario(
            "thm-3.1-case-2",
            "position sets and compositions for the second stability-characterization branch",
            _thm_3_1_case_2,
        ),
        Scenario(
            "thm-5.1-idempotent-sweep",
            "no theory-composition violations for the idempotent theory (small bounds)",
            _thm_5_1_sweep,
        ),
        Scenario(
            "thm-5.2-commutative-sweep",
            "no theory-composition violations for the commutative theory (small bounds)",
            _thm_5_2_sweep,
        ),
        Scenario(
            "thm-5.3-axioms-sweep",
            "no theory-composition violations for f(f(x1,x2),x1) = f(x1,x1) (small bounds)",
            _thm_5_3_sweep,
        ),
        Scenario(
            "prop-6.1",
            "non-stability witness: equal terms whose theory compositions are refuted",
            _prop_6_1,
        ),
        Scenario(
            "def-6.1-example",
            "essential composition t(r*x4) on the non-stability witness term",
            _def_6_1_example,
        ),
        Scenario(
            "prop-6.2-semigroup",
            "star composition separates derivational and star closures over associativity",
            _prop_6_2_semigroup,
        ),
        Scenario(
            "prop-6.2-sigma2",
            "star compositions stay equal where full theory compositions differ",
            _prop_6_2_sigma2,
        ),
        Scenario(
            "thm-6.1-d5-instance",
            "positional replacement realized through star composition with a fresh variable",
            _thm_6_1_d5_instance,
        ),
        Scenario(
            "lemma-6.2-er-compose",
            "star composition commutes with the E-normal form up to theory equality",
            _lemma_6_2_er_compose,
        ),
        Scenario(
            "lemma-6.3-er",
            "E-normal forms are right combs under f(f(x1,x2),x3) = f(x1,x2)",
            _lemma_6_3_er,
        ),
        Scenario(
            "lemma-6.4-er",
            "E-normal forms are left combs under f(x1,f(x2,x3)) = f(x1,x2)",
            _lemma_6_4_er,
        ),
        Scenario(
            "thm-6.2-sr1-sweep",
            "no star-replacement violations for a right-comb single-rule theory (small bounds)",
            _thm_6_2_sweep,
        ),
        Scenario(
            "closure-d5",
            "bounded closure derives a one-level positional-replacement consequence",
            _closure_d5,
        ),
    )


def run_all():
    """[(name, passed, detail)] for the whole registry; passed is None for a gap."""
    out = []
    for scenario in named_scenarios():
        try:
            passed, detail = scenario.run()
        except UndecidedError as exc:
            passed, detail = False, f"undecided: {exc}"
        out.append((scenario.name, passed, detail))
    return out

"""Per-theory state: every memo is declared by the theory itself, and an
undecided query surfaces as UndecidedError on every path that needs it."""

import json

import pytest

from termalg.cli import run
from termalg.compose import sigma_compose, sigma_position_sets, star_compose
from termalg.deduction import SweepBounds, check_stability
from termalg.errors import UndecidedError
from termalg.essentiality import (
    essential_positions,
    essential_subterms,
    essentiality_report,
    is_essential_subterm,
)
from termalg.reduction import normal_form, reducible_pairs, removable_positions
from termalg.terms import parse_term
from termalg.theories import AxiomsTheory, Identity, OracleConfig, theory_from_name

AXIOM = "f(f(x1,x1),x2)=f(x2,x2)"
# no model of size 1 separates anything, and one BFS step proves nothing
# but reflexivity, so every query between distinct terms is Unknown
BOUNDS = OracleConfig(max_model_size=1, max_deduction_steps=1)
T, R, U = parse_term("f(x1,x2)"), parse_term("x1"), parse_term("x3")
NESTED = parse_term("f(f(x1,x2),x1)")

UNDECIDED_CALLS = {
    "sigma_compose": lambda thy: sigma_compose(T, R, U, thy),
    "sigma_position_sets": lambda thy: sigma_position_sets(T, R, thy),
    "star_compose": lambda thy: star_compose(T, R, U, thy),
    "essential_positions": lambda thy: essential_positions(T, thy),
    "essential_subterms": lambda thy: essential_subterms(T, thy),
    "is_essential_subterm": lambda thy: is_essential_subterm(R, T, thy),
    "removable_positions": lambda thy: removable_positions(T, thy),
    "reducible_pairs": lambda thy: reducible_pairs(NESTED, thy),
    "normal_form_S": lambda thy: normal_form(NESTED, thy, "S"),
    "normal_form_E": lambda thy: normal_form(T, thy, "E"),
}


def undecided_theory():
    return AxiomsTheory((Identity.parse(AXIOM),), BOUNDS)


class TestUndecidedQueries:
    @pytest.mark.parametrize("call", sorted(UNDECIDED_CALLS))
    def test_raises(self, call):
        with pytest.raises(UndecidedError) as caught:
            UNDECIDED_CALLS[call](undecided_theory())
        assert caught.value.query is not None

    def test_holds_names_both_terms(self):
        thy = undecided_theory()
        assert thy.equal(T, R) is None
        with pytest.raises(UndecidedError, match=r"f\(x1,x2\) and x1") as caught:
            thy.holds(T, R)
        assert caught.value.query == (T, R)
        assert thy.holds(T, T) is True

    def test_cli_compose_exits_1(self, capsys, tmp_path):
        lhs, rhs = AXIOM.split("=")
        path = tmp_path / "theory.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "axioms",
                    "axioms": [{"lhs": lhs, "rhs": rhs}],
                    "oracle": {"maxModelSize": 1, "maxDeductionSteps": 1},
                }
            )
        )
        code = run(["compose", "--theory-file", str(path), "f(x1,x2)", "x1", "x3"])
        assert code == 1
        assert "undecided" in capsys.readouterr().err


# a bounded theory: its axiom instance is proved by the BFS
BOUNDED_AXIOM = "f(f(x1,x2),x1)=f(x1,x1)"


@pytest.mark.parametrize(
    "name",
    [
        "idempotent",
        "commutative",
        "sg-abs-1-2",
        "grp-rule:f(f(x1,x2),x3)=f(x2,x3)",
        "axioms:" + BOUNDED_AXIOM,
    ],
)
def test_use_attaches_no_state_to_a_theory(name):
    if name.startswith("axioms:"):
        thy = AxiomsTheory((Identity.parse(BOUNDED_AXIOM),), OracleConfig(max_deduction_steps=1000))
    else:
        thy = theory_from_name(name)
    declared = set(vars(thy))
    t = parse_term("f(f(x1,x2),f(x1,x3))")
    check_stability(thy, "SR1", SweepBounds(2, 2, 1))
    normal_form(t, thy, "S")
    normal_form(t, thy, "E")
    essentiality_report(t, thy)
    axiom = Identity.parse(BOUNDED_AXIOM)
    verdict = thy.decide(axiom.lhs, axiom.rhs)
    if not thy.exact:
        assert verdict.certificate.method == "rewrite-path"
    assert set(vars(thy)) == declared

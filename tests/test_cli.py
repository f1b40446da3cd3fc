"""CLI: exit codes, text output, and JSON schema stability."""

import json
import os
import subprocess
import sys
import time

import pytest

import termalg
from termalg.cli import emit_dot, run
from termalg.terms import parse_term, positions

SIGMA2 = "grp-rule:f(f(x1,x2),x3)=f(x2,x3)"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert invoke(capsys, "no-such-command")[0] == 2
        assert invoke(capsys)[0] == 2

    def test_domain_error(self, capsys):
        code, _, err = invoke(capsys, "normalize", "--theory", "idempotent", "f(x1")
        assert code == 1
        assert "error:" in err

    def test_missing_theory(self, capsys):
        code, _, err = invoke(capsys, "normalize", "f(x1,x2)")
        assert code == 1
        assert "theory" in err

    def test_success(self, capsys):
        assert invoke(capsys, "arrays", "x1")[0] == 0

    def test_arrays_of_a_deep_chain(self, capsys):
        depth = 3000
        code, out, err = invoke(capsys, "arrays", "f(" * depth + "x1" + ",x2)" * depth)
        assert code == 0, err
        assert out.rstrip().endswith("V=(1" + ",2" * depth + ")")

    def test_variable_x0_is_a_parse_error(self, capsys):
        code, _, err = invoke(capsys, "arrays", "x0")
        assert code == 1
        assert "error:" in err

    def test_dot_of_a_deep_chain(self, capsys):
        depth = 1500
        code, out, err = invoke(capsys, "dot", "f(" * depth + "x1" + ",x2)" * depth)
        assert code == 0, err
        assert out.count("->") == 2 * depth

    @pytest.mark.parametrize(
        "theory", ["commutative", "idempotent", "assoc", "grp-rule:f(f(x1,x2),x3)=f(x1,x3)"]
    )
    def test_equiv_of_a_deep_chain(self, capsys, theory):
        depth = 1500
        chain = "f(" * depth + "x1" + ",x2)" * depth
        code, out, err = invoke(capsys, "equiv", "--theory", theory, chain, "x1")
        assert code == 0, err
        assert out.startswith("Refuted")

    def test_equiv_under_a_deep_rule(self, capsys):
        # building the theory unifies, matches and rewrites with the rule's
        # deep side; a walk that recursed once per level would run out of stack
        depth = 300
        lhs = "f(" * depth + "x1" + ",x2)" * depth
        frame, frames = sys._getframe(), 0
        while frame is not None:
            frame, frames = frame.f_back, frames + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames + 100)
        try:
            code, out, err = invoke(capsys, "equiv", "--theory", f"grp-rule:{lhs}=x1", lhs, "x1")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0, err
        assert out.startswith("Proved")

    def test_reader_closing_the_pipe_early_ends_quietly(self):
        depth = 3000  # the dot text is larger than a pipe buffer
        chain = "f(" * depth + "x1" + ",x2)" * depth
        src = os.path.dirname(os.path.dirname(termalg.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        writer = subprocess.Popen(
            [sys.executable, "-m", "termalg", "dot", chain],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert writer.stdout.read(20).startswith(b"digraph")
        writer.stdout.close()
        _, err = writer.communicate(timeout=60)
        assert (writer.returncode, err) == (0, b"")

    def test_model_search_beyond_size_3_is_a_domain_error(self, capsys):
        # no model of size <= 3 separates this pair (ROADMAP item 4)
        args = ("equiv", "--theory", "sg-abs-1-1", "f(f(x4,x2),x1)", "f(x4,x1)")
        code, out, _ = invoke(capsys, *args)
        assert code == 0 and out.startswith("Refuted")
        code, _, err = invoke(capsys, *args, "--max-model-size", "4")
        assert code == 1
        assert "size 4" in err


class TestNormalize:
    def test_s_mode(self, capsys):
        code, out, _ = invoke(capsys, "normalize", "--theory", "idempotent", "f(f(x1,x1),x1)")
        assert code == 0
        assert out.splitlines()[0] == "x1"

    def test_e_mode_with_trace(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "normalize", "--theory", SIGMA2, "--mode", "E", "f(f(x1,x2),x3)"
        )
        assert code == 0
        assert doc["normalForm"] == "f(x2,x3)"
        assert doc["trace"]["steps"][0]["kind"] == "E"

    def test_seeded_strategy(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "normalize", "--theory", "idempotent", "--seed", "5", "f(f(x1,x1),x1)"
        )
        assert code == 0
        assert doc["normalForm"] == "x1"


class TestEquiv:
    def test_proved(self, capsys):
        code, out, _ = invoke(
            capsys, "equiv", "--theory", "idempotent", "f(f(x1,x1),x2)", "f(x1,x2)"
        )
        assert code == 0
        assert out.splitlines()[0] == "Proved"

    def test_refuted_json_certificate(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "equiv", "--theory", "commutative", "f(x1,x1)", "x1"
        )
        assert code == 0
        assert doc["outcome"] == "refuted"
        assert doc["certificate"]["kind"] == "counter-model"
        assert doc["certificate"]["size"] <= 3

    def test_unknown_json_names_the_exhausted_bounds(self, capsys, tmp_path):
        path = tmp_path / "commutative.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "axioms",
                    "axioms": [{"lhs": "f(x1,x2)", "rhs": "f(x2,x1)"}],
                    "oracle": {"maxDeductionTermSize": 6, "maxDeductionSteps": 2},
                }
            )
        )
        code, doc, _ = invoke_json(
            capsys, "equiv", "--theory-file", str(path), "--max-model-size", "2",
            "f(f(f(x1,x2),x3),f(x4,x5))", "f(f(x5,x4),f(x3,f(x2,x1)))",
        )
        assert code == 0
        assert doc["outcome"] == "unknown"
        assert doc["certificate"] == {
            "kind": "exhausted-bounds",
            "maxModelSize": 2,
            "maxDeductionTermSize": 6,
            "maxDeductionSteps": 2,
        }


class TestPositionsCommands:
    def test_essential(self, capsys):
        code, doc, _ = invoke_json(capsys, "essential", "--theory", SIGMA2, "f(f(x1,x2),x3)")
        assert code == 0
        assert doc["fictiveVars"] == [1]
        assert doc["fictivePositions"] == ["11"]
        assert doc["essentialPositions"] == ["e", "1", "12", "2"]

    def test_rd(self, capsys):
        code, doc, _ = invoke_json(capsys, "rd", "--theory", "idempotent", "f(f(x1,x1),x1)")
        assert code == 0
        assert {"p": "e", "q": "2"} in doc

    def test_rd_empty_text(self, capsys):
        code, out, _ = invoke(capsys, "rd", "--theory", "commutative", "f(x1,x2)")
        assert code == 0
        assert out.strip() == "(none)"

    def test_rm(self, capsys):
        code, doc, _ = invoke_json(capsys, "rm", "--theory", SIGMA2, "f(f(x1,x2),x3)")
        assert code == 0
        assert doc == ["11"]


# an axioms theory whose oracle leaves some positions and variables undecided
UNDECIDED = {
    "kind": "axioms",
    "axioms": [{"lhs": "f(f(x1,x1),x2)", "rhs": "f(x2,x2)"}],
    "oracle": {"maxModelSize": 2, "maxDeductionSteps": 1},
}
JSON_KEYS = (
    "essentialVars",
    "fictiveVars",
    "undecidedVars",
    "essentialPositions",
    "fictivePositions",
    "undecidedPositions",
)
# pinned `termalg essential` output: (theory, term, text, the JSON lists in
# JSON_KEYS order)
ESSENTIAL_CASES = [
    (
        SIGMA2,
        "f(f(x1,x2),x3)",
        "essential vars: x2,x3\n"
        "fictive vars: x1\n"
        "essential positions: (e,1,12,2)\n"
        "fictive positions: (11)\n",
        ([2, 3], [1], [], ["e", "1", "12", "2"], ["11"], []),
    ),
    (
        SIGMA2,
        "f(f(x2,x1),x2)",
        "essential vars: x1,x2\n"
        "fictive vars: -\n"
        "essential positions: (e,1,12,2)\n"
        "fictive positions: (11)\n",
        ([1, 2], [], [], ["e", "1", "12", "2"], ["11"], []),
    ),
    (
        SIGMA2,
        "f(f(f(x7,x3),x3),x7)",
        "essential vars: x3,x7\n"
        "fictive vars: -\n"
        "essential positions: (e,1,12,2)\n"
        "fictive positions: (11,111,112)\n",
        ([3, 7], [], [], ["e", "1", "12", "2"], ["11", "111", "112"], []),
    ),
    (
        "idempotent",
        "f(x1,x1)",
        "essential vars: x1\n"
        "fictive vars: -\n"
        "essential positions: (e,1,2)\n"
        "fictive positions: ()\n",
        ([1], [], [], ["e", "1", "2"], [], []),
    ),
    (
        "idempotent",
        "f(f(x1,x1),x2)",
        "essential vars: x1,x2\n"
        "fictive vars: -\n"
        "essential positions: (e,1,11,12,2)\n"
        "fictive positions: ()\n",
        ([1, 2], [], [], ["e", "1", "11", "12", "2"], [], []),
    ),
    (
        "idempotent",
        "f(x7,f(x3,x7))",
        "essential vars: x3,x7\n"
        "fictive vars: -\n"
        "essential positions: (e,1,2,21,22)\n"
        "fictive positions: ()\n",
        ([3, 7], [], [], ["e", "1", "2", "21", "22"], [], []),
    ),
    (
        UNDECIDED,
        "f(f(x1,x1),x2)",
        "essential vars: x2\n"
        "fictive vars: -\n"
        "essential positions: (e,1,11,12,2)\n"
        "fictive positions: ()\n"
        "undecided vars: x1\n"
        "undecided positions: ()\n",
        ([2], [], [1], ["e", "1", "11", "12", "2"], [], []),
    ),
    (
        UNDECIDED,
        "f(f(x2,x2),f(x1,x3))",
        "essential vars: x3\n"
        "fictive vars: -\n"
        "essential positions: (e,1,11,12,2,22)\n"
        "fictive positions: ()\n"
        "undecided vars: x1,x2\n"
        "undecided positions: (21)\n",
        ([3], [], [1, 2], ["e", "1", "11", "12", "2", "22"], [], ["21"]),
    ),
    (
        UNDECIDED,
        "f(f(x3,x3),x3)",
        "essential vars: x3\n"
        "fictive vars: -\n"
        "essential positions: (e,1,11,2)\n"
        "fictive positions: ()\n"
        "undecided vars: -\n"
        "undecided positions: (12)\n",
        ([3], [], [], ["e", "1", "11", "2"], [], ["12"]),
    ),
]


class TestEssentialOutput:
    @pytest.mark.parametrize("case", range(len(ESSENTIAL_CASES)))
    def test_text_and_json_are_pinned(self, capsys, tmp_path, case):
        theory, term, text, lists = ESSENTIAL_CASES[case]
        if isinstance(theory, dict):
            path = tmp_path / "theory.json"
            path.write_text(json.dumps(theory))
            options = ("--theory-file", str(path))
        else:
            options = ("--theory", theory)
        assert invoke(capsys, "essential", *options, term) == (0, text, "")
        payload = {"term": term, **dict(zip(JSON_KEYS, lists))}
        expected = json.dumps(payload, indent=2) + "\n"
        assert invoke(capsys, "essential", *options, term, "--json") == (0, expected, "")


class TestCompose:
    def test_compose_worked_example(self, capsys):
        code, doc, _ = invoke_json(
            capsys,
            "compose",
            "--theory",
            SIGMA2,
            "f(f(x3,f(x1,x2)),f(x2,f(x1,x2)))",
            "f(x1,x2)",
            "x3",
        )
        assert code == 0
        assert doc["result"] == "f(f(x3,x3),f(x2,x3))"
        assert doc["minimal"] == ["12", "22"]

    def test_star_compose_worked_example(self, capsys):
        code, doc, _ = invoke_json(
            capsys,
            "star-compose",
            "--theory",
            SIGMA2,
            "f(f(x3,f(x1,x2)),f(x2,f(x1,x2)))",
            "f(x1,x2)",
            "x4",
        )
        assert code == 0
        assert doc["result"] == "f(f(x3,f(x1,x2)),f(x2,x4))"
        assert doc["essentialMinimal"] == ["22"]

    def test_compose_asks_for_no_essentiality_report(self, capsys, tmp_path):
        # this bounded theory leaves position 212 of the term undecided, yet
        # Σ-composition and the match sets it prints need no essential set
        path = tmp_path / "theory.json"
        axiom = {"lhs": "f(f(x1,x1),x2)", "rhs": "f(x2,x2)"}
        path.write_text(json.dumps({"kind": "axioms", "axioms": [axiom]}))
        term = "f(f(x2,x2),f(f(x2,x2),x2))"
        code, out, err = invoke(capsys, "compose", "--theory-file", str(path), term, "x2", "x3")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "f(f(x3,x3),f(f(x3,x3),x3))"


class TestStability:
    def test_small_sweep_json(self, capsys):
        code, doc, _ = invoke_json(
            capsys,
            "stability",
            "--theory",
            "idempotent",
            "--max-depth",
            "2",
            "--max-vars",
            "2",
            "--max-u-size",
            "1",
        )
        assert code == 0
        assert doc["violations"] == []
        assert doc["exhaustive"] is True
        assert doc["bounds"] == {"maxDepth": 2, "maxVars": 2, "maxReplacementSize": 1}

    def test_violation_lines(self, capsys):
        code, out, err = invoke(
            capsys,
            "stability",
            "--theory",
            "grp-rule:f(f(x1,x2),x3)=f(x1,x3)",
            "--mode",
            "SR1",
            "--max-depth",
            "3",
            "--max-vars",
            "1",
            "--max-u-size",
            "1",
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[3] == "violations: 2"
        assert lines[6:] == [
            "  f(x1,f(x1,x1)) = f(x1,f(f(x1,x1),x1)) | r=f(x1,x1) u=x2"
            " -> f(x1,x2) != f(x1,f(f(x1,x1),x1))",
            "  f(x1,f(x1,f(x1,x1))) = f(x1,f(f(x1,x1),f(x1,x1))) | r=f(x1,f(x1,x1)) u=x2"
            " -> f(x1,x2) != f(x1,f(f(x1,x1),f(x1,x1)))",
        ]


class TestArraysAndDot:
    def test_arrays_exact_line(self, capsys):
        code, out, _ = invoke(capsys, "arrays", "f(x3,f(f(x1,x2),x2))")
        assert code == 0
        assert out.strip() == "P=(e,1,2,21,211,212,22) V=(3,1,2,2)"

    def test_arrays_json(self, capsys):
        code, doc, _ = invoke_json(capsys, "arrays", "f(x1,x2)")
        assert code == 0
        assert doc == {"positions": ["e", "1", "2"], "varIndexes": [1, 2]}

    def test_dot_leaf(self):
        text = emit_dot(parse_term("x1"))
        assert 'label="x1"' in text and "->" not in text

    def test_dot_counts(self):
        t = parse_term("f(f(x3,f(x1,x2)),f(x2,f(x1,x2)))")
        text = emit_dot(t)
        assert text.count("label=") == len(positions(t))
        assert text.count("->") == len(positions(t)) - 1
        assert '"e" -> "1";' in text.replace("  ", " ")

    def test_dot_simple_structure(self):
        lines = emit_dot(parse_term("f(x1,x2)")).splitlines()
        assert lines[0] == "digraph term {"
        assert lines[-1] == "}"
        assert sum('label="f"' in line for line in lines) == 1


class TestTheoryFile:
    def test_theory_file_loading(self, capsys, tmp_path):
        path = tmp_path / "sigma2.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "groupoid-single-rule",
                    "rule": {"lhs": "f(f(x1,x2),x3)", "rhs": "f(x2,x3)"},
                }
            )
        )
        code, out, _ = invoke(
            capsys, "normalize", "--theory-file", str(path), "--mode", "E", "f(f(x1,x2),x3)"
        )
        assert code == 0
        assert out.splitlines()[0] == "f(x2,x3)"

    def test_max_model_size_keeps_the_files_other_bounds(self, capsys, tmp_path):
        # the identity below takes two commutativity steps, so a budget of one
        # expansion cannot prove it while the default can; no model refutes it
        path = tmp_path / "comm.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "axioms",
                    "axioms": [{"lhs": "f(x1,x2)", "rhs": "f(x2,x1)"}],
                    "oracle": {"maxDeductionSteps": 1},
                }
            )
        )
        argv = ("equiv", "--theory-file", str(path), "f(f(x1,x2),x3)", "f(x3,f(x2,x1))")
        assert invoke(capsys, *argv)[1].splitlines()[0] == "Unknown"
        code, out, _ = invoke(capsys, *argv, "--max-model-size", "2")
        assert code == 0
        assert out.splitlines()[0] == "Unknown"


class TestBounds:
    """Out-of-range bounds end in exit code 1 and one error line."""

    @pytest.mark.parametrize("size", ["-1", "0"])
    def test_max_model_size_out_of_range(self, capsys, size):
        argv = ("equiv", "--theory", "idempotent", "--max-model-size", size, "f(x1,x1)", "x1")
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "commutative", "oracle": {"maxDeductionSteps": 0}},
            {"kind": "commutative", "oracle": {"maxModelSise": 2}},
            {"kind": "semigroup-absorption", "i": 4, "j": 1},
        ],
    )
    def test_theory_file_out_of_range(self, capsys, tmp_path, doc):
        path = tmp_path / "theory.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "equiv", "--theory-file", str(path), "x1", "x1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "semigroup-absorption"}',
            '{"kind": "semigroup-absorption", "i": "x", "j": 1}',
            '{"kind": "semigroup-absorption", "i": true, "j": 1}',
            '{"kind": "groupoid-single-rule"}',
            '{"kind": "nope"}',
            '{"kind": "axioms", "axioms": [{"lhs": "x1"}]}',
            '{"kind": "commutative", "oracle": {"maxModelSize": "2"}}',
            "[1]",
            "not json",
            None,  # no file
        ],
    )
    def test_malformed_theory_file(self, capsys, tmp_path, text):
        path = tmp_path / "theory.json"
        if text is not None:
            path.write_text(text)
        code, out, err = invoke(capsys, "equiv", "--theory-file", str(path), "x1", "x1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_max_model_size_zero_with_a_theory_file(self, capsys, tmp_path):
        path = tmp_path / "theory.json"
        path.write_text(json.dumps({"kind": "commutative"}))
        argv = ("equiv", "--theory-file", str(path), "--max-model-size", "0", "x1", "x1")
        assert invoke(capsys, *argv)[0] == 1

    # depth 4 over 3 variables gives 467,078,547 terms, past what an exact
    # sweep enumerates: refused before any is built
    @pytest.mark.parametrize("depth", ["0", "4"])
    def test_sweep_bound_out_of_range(self, capsys, depth):
        argv = ("stability", "--theory", "idempotent", "--max-depth", depth)
        start = time.perf_counter()
        code, _, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "sweep bounds" in err
        assert err.startswith("error: ") and err.count("\n") == 1

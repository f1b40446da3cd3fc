"""Command-line front end.

Subcommands: normalize, equiv, essential, compose, star-compose, rd, rm,
stability, scenarios, arrays, dot.  Output is deterministic (position sets in
lexicographic order, terms in the canonical text syntax); ``--json`` switches
to the JSON serialization of the underlying module.

Exit status: 0 on success, 1 on domain errors (undecided queries, bad
positions, parse failures), 2 on usage errors.  ``scenarios`` exits 0 iff
no registered scenario fails; one without checks is reported as a gap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .compose import sigma_compose, sigma_match_positions, sigma_position_sets, star_compose
from .deduction import SweepBounds, certificate_to_json, check_stability
from .errors import TermAlgError
from .essentiality import essentiality_report, variable_verdicts
from .reduction import (
    normal_form,
    reduce_with_strategy,
    reducible_pairs,
    removable_positions,
)
from .scenarios import run_all
from .terms import (
    Node,
    outermost,
    parse_term,
    position_to_text,
    positions,
    preorder,
    term_to_text,
    to_arrays,
)
from .theories import OracleConfig, load_theory_file, theory_from_name


def _positions_text(ps):
    return "(" + ",".join(position_to_text(p) for p in sorted(ps)) + ")"


def _positions_json(ps):
    return [position_to_text(p) for p in sorted(ps)]


def _theory_of(args):
    size = getattr(args, "max_model_size", None)
    if getattr(args, "theory_file", None):
        return load_theory_file(args.theory_file, size)
    if getattr(args, "theory", None):
        config = OracleConfig(max_model_size=size) if size is not None else None
        return theory_from_name(args.theory, config)
    raise TermAlgError("a theory is required: pass --theory or --theory-file")


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)
    sys.stdout.flush()  # a closed pipe shows here, inside run's handler
    return 0


def _verdict_lines(verdict):
    lines = [verdict.outcome.capitalize()]
    cert = certificate_to_json(verdict.certificate)
    if cert is not None:
        lines.append("certificate: " + json.dumps(cert))
    return lines


# --- subcommand handlers -----------------------------------------------------


def _cmd_normalize(args):
    theory = _theory_of(args)
    t = parse_term(args.term)
    if args.seed is not None:
        result = reduce_with_strategy(t, theory, args.mode, args.seed)
        payload = {"normalForm": term_to_text(result)}
        return _emit(args, payload, [term_to_text(result)])
    result, trace = normal_form(t, theory, args.mode)
    payload = {"normalForm": term_to_text(result), "trace": trace.to_json()}
    lines = [term_to_text(result)]
    for kind, datum, step_result in trace.steps:
        if kind == "S":
            where = f"{position_to_text(datum.p)},{position_to_text(datum.q)}"
        else:
            where = position_to_text(datum)
        lines.append(f"{kind} {where} -> {term_to_text(step_result)}")
    return _emit(args, payload, lines)


def _cmd_equiv(args):
    theory = _theory_of(args)
    verdict = theory.decide(parse_term(args.left), parse_term(args.right))
    payload = {
        "outcome": verdict.outcome,
        "certificate": certificate_to_json(verdict.certificate),
    }
    return _emit(args, payload, _verdict_lines(verdict))


def _cmd_essential(args):
    theory = _theory_of(args)
    t = parse_term(args.term)
    report = essentiality_report(t, theory)
    # each set is built from the report's verdicts when read: read it once
    ess_pos, fic_pos, und_pos = (
        report.essential_positions, report.fictive_positions, report.undecided_positions
    )
    ess_vars, fic_vars, und_vars = variable_verdicts(t, theory)

    def vars_text(s):
        return ",".join(f"x{i}" for i in sorted(s)) or "-"

    payload = {
        "term": term_to_text(t),
        "essentialVars": sorted(ess_vars),
        "fictiveVars": sorted(fic_vars),
        "undecidedVars": sorted(und_vars),
        "essentialPositions": _positions_json(ess_pos),
        "fictivePositions": _positions_json(fic_pos),
        "undecidedPositions": _positions_json(und_pos),
    }
    lines = [
        f"essential vars: {vars_text(ess_vars)}",
        f"fictive vars: {vars_text(fic_vars)}",
        f"essential positions: {_positions_text(ess_pos)}",
        f"fictive positions: {_positions_text(fic_pos)}",
    ]
    if und_vars or und_pos:
        lines.append(f"undecided vars: {vars_text(und_vars)}")
        lines.append(f"undecided positions: {_positions_text(und_pos)}")
    return _emit(args, payload, lines)


def _cmd_compose(args):
    theory = _theory_of(args)
    t, r, u = parse_term(args.term), parse_term(args.pattern), parse_term(args.replacement)
    # no essentiality report: none is printed, and a bounded one may be undecided
    matches, pos = sigma_match_positions(t, r, theory), positions(t)
    minimal = [pos[i] for i in outermost(preorder(t), [p in matches for p in pos])]
    result = sigma_compose(t, r, u, theory)
    payload = {
        "result": term_to_text(result),
        "allMatches": _positions_json(matches),
        "minimal": _positions_json(minimal),
    }
    lines = [
        term_to_text(result),
        f"matches: {_positions_text(matches)}",
        f"minimal: {_positions_text(minimal)}",
    ]
    return _emit(args, payload, lines)


def _cmd_star_compose(args):
    theory = _theory_of(args)
    t, r, u = parse_term(args.term), parse_term(args.pattern), parse_term(args.replacement)
    sets = sigma_position_sets(t, r, theory)
    result = star_compose(t, r, u, theory)
    payload = {
        "result": term_to_text(result),
        "essentialMinimal": _positions_json(sets.essential_minimal),
    }
    lines = [
        term_to_text(result),
        f"essential minimal: {_positions_text(sets.essential_minimal)}",
    ]
    return _emit(args, payload, lines)


def _cmd_rd(args):
    theory = _theory_of(args)
    pairs = sorted(reducible_pairs(parse_term(args.term), theory))
    payload = [
        {"p": position_to_text(pair.p), "q": position_to_text(pair.q)} for pair in pairs
    ]
    lines = [f"({position_to_text(pair.p)},{position_to_text(pair.q)})" for pair in pairs]
    return _emit(args, payload, lines or ["(none)"])


def _cmd_rm(args):
    theory = _theory_of(args)
    ps = sorted(removable_positions(parse_term(args.term), theory))
    payload = _positions_json(ps)
    lines = [position_to_text(p) for p in ps]
    return _emit(args, payload, lines or ["(none)"])


def _cmd_stability(args):
    theory = _theory_of(args)
    bounds = SweepBounds(args.max_depth, args.max_vars, args.max_u_size)
    report = check_stability(theory, args.mode, bounds)
    lines = [
        f"theory: {report.theory.name}",
        f"mode: {report.mode}",
        f"candidates: {report.candidates}",
        f"violations: {len(report.violations)}",
        f"unknowns: {len(report.unknowns)}",
        f"exhaustive: {report.exhaustive}",
    ]
    for v in report.violations:
        lines.append(
            f"  {term_to_text(v.t)} = {term_to_text(v.s)} | r={term_to_text(v.r)} "
            f"u={term_to_text(v.u)} -> {term_to_text(v.left)} != {term_to_text(v.right)}"
        )
    return _emit(args, report.to_json(), lines)


_SCENARIO_STATUS = {True: "PASS", False: "FAIL", None: "GAP"}


def _cmd_scenarios(args):
    results = run_all()
    payload = [
        {"name": name, "passed": passed, "detail": detail} for name, passed, detail in results
    ]
    lines = [
        f"{_SCENARIO_STATUS[passed]:<4}  {name}: {detail}" for name, passed, detail in results
    ]
    counts = Counter(_SCENARIO_STATUS[passed] for _, passed, _ in results)
    lines.append(
        f"{counts['PASS']}/{len(results)} scenarios passed, "
        f"{counts['FAIL']} failed, {counts['GAP']} without checks (GAP)"
    )
    _emit(args, payload, lines)
    return 0 if counts["FAIL"] == 0 else 1


def _cmd_arrays(args):
    arrays = to_arrays(parse_term(args.term))
    p_text = _positions_text(arrays.positions)
    v_text = "(" + ",".join(str(i) for i in arrays.var_indexes) + ")"
    payload = {
        "positions": _positions_json(arrays.positions),
        "varIndexes": list(arrays.var_indexes),
    }
    return _emit(args, payload, [f"P={p_text} V={v_text}"])


def emit_dot(t) -> str:
    """DOT digraph of the term tree: node ids are position strings, internal
    nodes labeled f, leaves labeled x<i>, edges ordered left-then-right."""
    root = position_to_text(())
    nodes, edges = [], []
    # a preorder walk; each node carries its parent's id and its own digits,
    # and its edge is listed when it is visited
    stack = [(t, None, "")]
    while stack:
        u, parent, digits = stack.pop()
        pid = digits or root
        if parent is not None:
            edges.append(f'  "{parent}" -> "{pid}";')
        if type(u) is Node:
            stack.append((u.right, pid, digits + "2"))
            stack.append((u.left, pid, digits + "1"))
            nodes.append(f'  "{pid}" [label="f"];')
        else:
            nodes.append(f'  "{pid}" [label="x{u.index}"];')
    return "\n".join(["digraph term {"] + nodes + edges + ["}"])


def _cmd_dot(args):
    text = emit_dot(parse_term(args.term))
    return _emit(args, {"dot": text}, [text])


# --- parser -------------------------------------------------------------------


def _add_theory_options(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--theory", help="built-in theory name")
    group.add_argument("--theory-file", help="path to a theory JSON file")
    sub.add_argument(
        "--max-model-size", type=int, default=None, help="counter-model search bound"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termalg", description="Term compositions, reductions, and stability checks."
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=handler)
        sub.add_argument("--json", action="store_true", help="emit JSON output")
        return sub

    sub = add("normalize", _cmd_normalize, "reduce a term to its S- or E-normal form")
    _add_theory_options(sub)
    sub.add_argument("--mode", choices=("S", "E"), default="S")
    sub.add_argument("--seed", type=int, default=None, help="seeded strategy instead of minimal")
    sub.add_argument("term")

    sub = add("equiv", _cmd_equiv, "decide an identity in a theory")
    _add_theory_options(sub)
    sub.add_argument("left")
    sub.add_argument("right")

    sub = add("essential", _cmd_essential, "essential/fictive variables and positions")
    _add_theory_options(sub)
    sub.add_argument("term")

    sub = add("compose", _cmd_compose, "theory composition t^S(r<-u)")
    _add_theory_options(sub)
    sub.add_argument("term")
    sub.add_argument("pattern")
    sub.add_argument("replacement")

    sub = add("star-compose", _cmd_star_compose, "essential composition t(r*u)")
    _add_theory_options(sub)
    sub.add_argument("term")
    sub.add_argument("pattern")
    sub.add_argument("replacement")

    sub = add("rd", _cmd_rd, "reducible pairs of a term")
    _add_theory_options(sub)
    sub.add_argument("term")

    sub = add("rm", _cmd_rm, "removable positions of a term")
    _add_theory_options(sub)
    sub.add_argument("term")

    sub = add("stability", _cmd_stability, "sweep for replacement-rule violations")
    _add_theory_options(sub)
    sub.add_argument("--mode", choices=("SigmaR1", "SR1"), default="SigmaR1")
    sub.add_argument("--max-depth", type=int, default=3)
    sub.add_argument("--max-vars", type=int, default=3)
    sub.add_argument(
        "--max-u-size",
        type=int,
        default=3,
        help="only recorded in the report: one fresh variable already decides "
        "whether a violation exists",
    )

    add("scenarios", _cmd_scenarios, "run the golden scenario registry")

    sub = add("arrays", _cmd_arrays, "position/variable array encoding of a term")
    sub.add_argument("term")

    sub = add("dot", _cmd_dot, "DOT digraph of a term tree")
    sub.add_argument("term")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except TermAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed early (``termalg ... | head``) and has all it wants;
        # point stdout at devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

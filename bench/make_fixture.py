"""Regenerate or check the behaviour fixture (bench/fixture.json).

    python3 bench/make_fixture.py            # rewrite bench/fixture.json
    python3 bench/make_fixture.py --check    # recompute and compare, exit 1 on a mismatch

The fixture has four sections: ``criterion09`` (the 35 sweeps at
SweepBounds(3,3,3), about five minutes), ``sweeps`` (the sweeps the benchmark
runs), ``decide`` (class representatives, refutations without a counter-model
over the criterion-11 domain, and Unknown probes) and ``normalize`` (normal
forms of the fixed corpus).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from termalg.compose import sigma_compose, star_compose  # noqa: E402
from termalg.deduction import check_stability  # noqa: E402
from termalg.essentiality import essentiality_report  # noqa: E402
from termalg.reduction import normal_form  # noqa: E402
from termalg.terms import Var, enumerate_terms_by_length, term_to_text  # noqa: E402
from termalg.theories import (  # noqa: E402
    REFUTED,
    UNKNOWN,
    CounterModel,
    DistinctCanonicalKeys,
    term_sort_key,
)

import workloads as W  # noqa: E402
from certify import replaced, term_vars  # noqa: E402

FIXTURE = os.path.join(HERE, "fixture.json")


def sweep_key(spec, mode):
    return f"{spec} / {mode}"


def sweep_row(report):
    return [report.candidates, len(report.violations), len(report.unknowns)]


def criterion09():
    out = {}
    for spec, mode in W.CRITERION_09:
        start = time.perf_counter()
        report = check_stability(
            W.build_theory(spec, W.CRITERION_09_STEPS), mode, W.CRITERION_09_BOUNDS
        )
        out[sweep_key(spec, mode)] = sweep_row(report)
        print(f"  {spec} {mode}: {out[sweep_key(spec, mode)]} "
              f"({time.perf_counter() - start:.1f} s)", file=sys.stderr, flush=True)
    return out


def bench_sweeps():
    """The benchmark's sweep table (each row with the number of violations
    that carry no counter-model), plus the queries behind its Unknowns: each
    pair a fresh theory object still answers Unknown becomes a probe."""
    table, probes = {}, []
    for mode, members in W.SWEEP_STRATA:
        for spec in members:
            theory = W.build_theory(spec)
            report = check_stability(theory, mode, W.SWEEP_BOUNDS)
            uncertified = sum(not isinstance(v.certificate, CounterModel) for v in report.violations)
            table[sweep_key(spec, mode)] = sweep_row(report) + [uncertified]
            compose = sigma_compose if mode == "SigmaR1" else star_compose
            u = Var(W.SWEEP_BOUNDS.max_vars + 1)
            queries = []
            for t, s, r, _reason in report.unknowns:
                if r is not None:
                    queries.append((compose(t, r, u, theory), compose(s, r, u, theory)))
                    continue
                for term in (t, s):
                    n = max(term_vars(term))
                    for p in sorted(essentiality_report(term, theory).undecided_positions):
                        queries.append((replaced(term, p, Var(n + 1)), replaced(term, p, Var(n + 2))))
            for left, right in dict.fromkeys(queries):
                if W.build_theory(spec).decide(left, right).outcome == UNKNOWN:
                    probes.append([spec, term_to_text(left), term_to_text(right)])
    return table, probes


def decide_tables():
    """Representatives (for the decide theories) and refutations without a
    counter-model (for every exact theory of criteria 09 and 11)."""
    domain = list(enumerate_terms_by_length(4, 3))
    reps_out, uncertified = {}, {}
    grp_rules = tuple(spec for spec, _ in W.CRITERION_09 if spec.startswith("grp-rule:"))
    for spec in dict.fromkeys(W.CRITERION_11_THEORIES + W.DECIDE_EXACT + grp_rules):
        theory = W.build_theory(spec)
        classes = {}
        for t in domain:
            classes.setdefault(theory._cached_key(t), []).append(t)
        reps = sorted((min(ms, key=term_sort_key) for ms in classes.values()), key=term_sort_key)
        bad = []
        for a, b in itertools.combinations(reps, 2):
            verdict = theory.decide(a, b)
            if verdict.outcome != REFUTED:
                raise SystemExit(f"{spec}: representatives {a} and {b} not refuted")
            if isinstance(verdict.certificate, DistinctCanonicalKeys):
                bad.append([term_to_text(a), term_to_text(b)])
        uncertified[spec] = bad
        if spec in W.DECIDE_EXACT:
            reps_out[spec] = [term_to_text(t) for t in reps]
        print(f"  {spec}: {len(reps)} classes, {len(bad)} refutations without a counter-model",
              file=sys.stderr, flush=True)
    return reps_out, uncertified


def normalize_table():
    """{spec: {mode: [normal form of each fixed-corpus term]}}."""
    corpus = W.normalize_fixed_corpus()
    out = {}
    for spec in W.NORMALIZE_THEORIES:
        theory = W.build_theory(spec)
        out[spec] = {mode: [term_to_text(normal_form(t, theory, mode)[0]) for t in corpus]
                     for mode in ("S", "E")}
    return out


def compute():
    out = {"criterion09": criterion09()}
    out["sweeps"], probes = bench_sweeps()
    reps, uncertified = decide_tables()
    out["decide"] = {"representatives": reps, "uncertified": uncertified, "unknown_probes": probes}
    out["normalize"] = normalize_table()
    return out


def diff(expected, actual, path=""):
    """Human-readable differences between two JSON values."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        lines = []
        for k in sorted(set(expected) | set(actual)):
            if k not in actual:
                lines.append(f"{path}/{k}: missing")
            elif k not in expected:
                lines.append(f"{path}/{k}: not in the fixture")
            else:
                lines.extend(diff(expected[k], actual[k], f"{path}/{k}"))
        return lines
    return [] if expected == actual else [f"{path}: fixture {expected} != now {actual}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    actual = compute()
    if args.check:
        with open(FIXTURE) as fh:
            fixture = json.load(fh)
        lines = diff(fixture, actual)
        for line in lines:
            print(line)
        print(f"{len(lines)} mismatches")
        return 1 if lines else 0
    with open(FIXTURE, "w") as fh:
        json.dump(actual, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

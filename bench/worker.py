"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py --workload decide --seed 1 [--trace] [--setup-only]

The worker builds the seeded op list and every theory the pass uses, forces
their lazy tables, runs the ops once, checks every output, and prints one
JSON line.  Set-up time runs from ``--spawned-at`` (the parent's wall clock
just before it started this interpreter) to the first op.  Through set-up
and the ops a timer interrupts the worker to time the reference kernel of
``speed.py``; the worker subtracts that time from its times and reports the
kernel's median time in each of the two phases.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import termalg  # noqa: E402,F401  (imported first so set-up covers it)

import workloads as W  # noqa: E402
from certify import (  # noqa: E402
    Evaluation,
    check_counter_model,
    check_reduction_trace,
    check_rewrite_path,
    small_models,
    term_vars,
)
from speed import KernelClock  # noqa: E402

CACHES = ("_key_cache", "_essentiality_cache", "_rd_cache", "_rm_cache", "_refute_cache")


def force_lazy_tables(theory):
    theory.models(3)
    theory._cached_key(termalg.Node(termalg.Var(1), termalg.Var(2)))


class Pass:
    """Outcome of one pass: latencies, failures and the certificate tallies."""

    def __init__(self):
        self.latencies = []
        self.failed_ops = set()
        self.failures = []
        self.decided = self.decidable = 0
        self.certified = self.certifiable = 0
        self.sweep_counts = {}
        self.layers = {}

    def fail(self, op, reason):
        self.failed_ops.add(op)
        self.failures.append(f"op {op}: {reason}")

    def to_json(self, wall_s, rss_mb):
        return {
            "wall_s": wall_s,
            "latencies_ms": self.latencies,
            "attempted": len(self.latencies),
            "failed": len(self.failed_ops),
            "failures": self.failures[:20],
            "decided": self.decided,
            "decidable": self.decidable,
            "certified": self.certified,
            "certifiable": self.certifiable,
            "rss_mb": rss_mb,
            "layers": self.layers,
        }


def cache_sizes(theory):
    return [len(getattr(theory, name, ())) for name in CACHES]


def timed(tracer, clock, op_id, theory, fn, *args):
    """(output, exception, seconds) of one op on one theory.

    The seconds leave out the reference kernel runs of ``clock``.

    A traced op also adds the growth of the theory's caches, read from
    outside, to the tracer's counts.
    """
    if tracer:
        tracer.op_id = op_id
        before = cache_sizes(theory)
    spent = clock.spent_s
    start = time.perf_counter()
    try:
        out, exc = fn(*args), None
    except Exception as caught:  # an op that raises is a failed op, not a crashed run
        out, exc = None, caught
    seconds = time.perf_counter() - start - (clock.spent_s - spent)
    if tracer:
        for name, old, new in zip(CACHES, before, cache_sizes(theory)):
            tracer.counts[name] += new - old
    return out, exc, seconds


# --- sweep -------------------------------------------------------------------


def build_sweep(ops):
    state = []
    for spec, mode in ops:
        theory = W.build_theory(spec)
        force_lazy_tables(theory)
        state.append((spec, mode, theory))
    return state


def run_sweep(ops, tracer, clock):
    from termalg.deduction import check_stability

    outputs = []
    for i, (spec, mode, theory) in enumerate(ops):
        report, exc, seconds = timed(tracer, clock, i, theory, check_stability, theory, mode,
                                     W.SWEEP_BOUNDS)
        # A CLI sweep ends its process here: keep what the checks need and let
        # the theory and its caches go, so peak memory is one sweep's, not the
        # sum of all of them.
        ops[i] = (spec, mode, theory.axioms)
        if report is not None:
            report = (report.candidates, report.violations, len(report.unknowns))
        outputs.append((report, exc, seconds))
    return outputs


def check_sweep(ops, outputs, fixture, result):
    from termalg.theories import CounterModel

    candidates = unknowns = 0
    for i, ((spec, mode, axioms), (report, exc)) in enumerate(zip(ops, outputs)):
        if exc is not None:
            result.fail(i, f"{spec} {mode} raised {exc!r}")
            continue
        n_candidates, violations, n_unknowns = report
        uncertified = sum(not isinstance(v.certificate, CounterModel) for v in violations)
        row = [n_candidates, len(violations), n_unknowns, uncertified]
        expected = fixture["sweeps"].get(f"{spec} / {mode}")
        if row != expected:
            result.fail(i, f"{spec} {mode}: (candidates, violations, unknowns, uncertified) "
                           f"{row} != fixture {expected}")
        candidates += n_candidates
        unknowns += n_unknowns
        for v in violations:
            result.certifiable += 1
            if isinstance(v.certificate, CounterModel):
                reason = check_counter_model(v.certificate, axioms, v.left, v.right)
                if reason is None:
                    result.certified += 1
                else:
                    result.fail(i, f"{spec}: violation {v.left} != {v.right}: {reason}")
    # a sweep's decided share counts candidates, not sweeps
    result.decided, result.decidable = candidates - unknowns, candidates
    result.sweep_counts = {
        "deduction.candidates": candidates,
        "deduction.violations": result.certifiable,
        "deduction.unknowns": unknowns,
    }


# --- decide ------------------------------------------------------------------


def build_theories(ops):
    """(ops, {spec: theory}) with one theory object per spec, lazy tables forced."""
    theories = {}
    for spec, *_ in ops:
        if spec not in theories:
            theories[spec] = W.build_theory(spec)
            force_lazy_tables(theories[spec])
    return ops, theories


def run_decide(state, tracer, clock):
    ops, theories = state
    return [
        timed(tracer, clock, i, theories[spec], theories[spec].decide, left, right)
        for i, (spec, left, right, _kind) in enumerate(ops)
    ]


def check_decide(state, outputs, fixture, result):
    from termalg.terms import term_to_text
    from termalg.theories import PROVED, REFUTED, UNKNOWN, CounterModel

    ops, theories = state
    uncertified = {
        spec: {frozenset(pair) for pair in pairs}
        for spec, pairs in fixture["decide"]["uncertified"].items()
    }
    for i, ((spec, left, right, kind), (verdict, exc)) in enumerate(zip(ops, outputs)):
        theory = theories[spec]
        result.decidable += 1
        if exc is not None:
            result.fail(i, f"{spec} {left} = {right} raised {exc!r}")
            continue
        outcome, cert = verdict.outcome, verdict.certificate
        result.decided += outcome != UNKNOWN
        if kind == "exact" and outcome != REFUTED:
            result.fail(i, f"{spec}: distinct classes {left}, {right} gave {outcome}")
        if kind == "true" and outcome == REFUTED:
            result.fail(i, f"{spec}: derived identity {left} = {right} refuted")
        if kind == "probe" and outcome != UNKNOWN:
            result.fail(i, f"{spec}: fixture probe {left} = {right} gave {outcome}, not unknown")
        if outcome == PROVED and not theory.exact:
            reason = check_rewrite_path(cert, theory.axioms, left, right)
            if reason is not None:
                result.fail(i, f"{spec}: proof of {left} = {right}: {reason}")
        if outcome == REFUTED:
            result.certifiable += 1
            if isinstance(cert, CounterModel):
                reason = check_counter_model(cert, theory.axioms, left, right)
                if reason is None:
                    result.certified += 1
                else:
                    result.fail(i, f"{spec}: refutation of {left} = {right}: {reason}")
            if kind == "exact":
                listed = frozenset((term_to_text(left), term_to_text(right))) in uncertified[spec]
                if listed == isinstance(cert, CounterModel):
                    result.fail(i, f"{spec}: {left}, {right} certificate {type(cert).__name__} "
                                   "differs from the fixture")


# --- normalize ---------------------------------------------------------------


def run_normalize(state, tracer, clock):
    from termalg.reduction import normal_form, reduce_with_strategy

    ops, theories = state
    return [
        timed(tracer, clock, i, theories[spec], normal_form, t, theories[spec], mode)
        if strategy_seed is None
        else timed(tracer, clock, i, theories[spec], reduce_with_strategy, t, theories[spec], mode,
                   strategy_seed)
        for i, (spec, t, mode, strategy_seed, _fixed) in enumerate(ops)
    ]


def check_normalize(state, outputs, fixture, result):
    from termalg.errors import UndecidedError
    from termalg.terms import term_to_text

    ops, theories = state
    models = {spec: small_models(theory.axioms) for spec, theory in theories.items()}
    for i, ((spec, t, mode, strategy_seed, fixed), (out, exc)) in enumerate(zip(ops, outputs)):
        result.decidable += 1
        if isinstance(exc, UndecidedError):
            continue
        result.decided += 1
        if exc is not None:
            result.fail(i, f"{spec} {mode} {t} raised {exc!r}")
            continue
        if strategy_seed is not None:
            if out.length > t.length:
                result.fail(i, f"{spec} {mode} seed {strategy_seed}: {t} grew to {out}")
            elif mode == "S" and not Evaluation(models[spec], sorted(term_vars(t))).equal(t, out):
                result.fail(i, f"{spec} S seed {strategy_seed}: a model of the theory separates "
                               f"{t} from its reduct {out}")
            continue
        nf, trace = out
        result.certifiable += 1
        reason = check_reduction_trace(trace, models[spec])
        if reason is None and nf != trace.final:
            reason = f"normal form {nf} is not the last trace step {trace.final}"
        if reason is None and fixed is not None:
            expected = fixture["normalize"][spec][mode][fixed]
            if term_to_text(nf) != expected:
                reason = f"normal form {nf} != fixture {expected}"
        if reason is None:
            result.certified += 1
        else:
            result.fail(i, f"{spec} {mode} {t}: {reason}")


# workload -> (seeded op list, termalg set-up, timed run, checks)
WORKLOADS = {
    "sweep": (lambda seed, fixture: W.sweep_ops(seed), build_sweep, run_sweep, check_sweep),
    "decide": (W.decide_ops, build_theories, run_decide, check_decide),
    "normalize": (lambda seed, fixture: W.normalize_ops(seed), build_theories, run_normalize,
                  check_normalize),
}


def layer_metrics(tracer):
    from tracing import summarize

    spans, queries_in_reports = summarize(tracer)
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(*names):
        return sum(spans.get(name, (0, 0.0))[1] for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    reports = counts["_essentiality_cache"]
    return {
        "terms.calls": calls("terms"),
        "terms.self_s": self_s("terms"),
        "terms.node_new": counts["terms.node_new"],
        "theories.key.computed": counts["_key_cache"],
        "theories.key.hit_ratio": 1 - ratio(counts["_key_cache"], calls("theories.key.lookup")),
        "theories.key.self_s": self_s("theories.key.lookup", "theories.key.compute"),
        "theories.equal.calls": calls("theories.equal"),
        "theories.equal.self_s": self_s("theories.equal"),
        "theories.equal_bounded.calls": calls("theories.equal_bounded"),
        "theories.equal_bounded.self_s": self_s("theories.equal_bounded"),
        "theories.equal_bounded.unknown": counts["theories.equal_bounded.unknown"],
        "theories.refute.calls": calls("theories.refute"),
        "theories.refute.self_s": self_s("theories.refute"),
        "theories.refute.found_ratio": ratio(counts["theories.refute.found"], calls("theories.refute")),
        "theories.refute.computed": counts["_refute_cache"],
        "theories.decide.calls": calls("theories.decide"),
        "theories.decide.self_s": self_s("theories.decide"),
        "theories.models.self_s": self_s("theories.models"),
        "theories.models.count": counts["theories.models.count"],
        "algebras.distinguish.calls": calls("algebras.distinguish"),
        "algebras.distinguish.self_s": self_s("algebras.distinguish"),
        "essentiality.report.calls": calls("essentiality.report"),
        "essentiality.report.computed": reports,
        "essentiality.report.self_s": self_s("essentiality.report"),
        "essentiality.queries_per_report": ratio(queries_in_reports, reports),
        "compose.star.calls": calls("compose.star"),
        "compose.sigma.calls": calls("compose.sigma"),
        "compose.match.calls": calls("compose.match"),
        "compose.self_s": self_s("compose.star", "compose.sigma", "compose.match"),
        "reduction.rd.calls": calls("reduction.rd"),
        "reduction.rd.self_s": self_s("reduction.rd"),
        "reduction.rd.computed": counts["_rd_cache"],
        "reduction.rm.calls": calls("reduction.rm"),
        "reduction.rm.self_s": self_s("reduction.rm"),
        "reduction.rm.computed": counts["_rm_cache"],
        "reduction.steps": calls("reduction.step"),
        "deduction.closure.self_s": self_s("deduction.closure"),
        "deduction.closure.identities": counts["deduction.closure.identities"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one pass of a benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the raw spans of a traced pass to this .npz file")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    clock = KernelClock()
    if not args.trace:  # kernel runs inside spans would add to their self time
        clock.start()
    with open(os.path.join(HERE, "fixture.json")) as fh:
        fixture = json.load(fh)
    make_ops, build, run, check = WORKLOADS[args.workload]
    ops = make_ops(args.seed, fixture)
    tracer = None
    if args.trace:
        # installed after the op list is made, so spans and counts cover
        # termalg's set-up and ops, not the benchmark's input generation
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    state = build(ops)
    setup_s = time.time() - args.spawned_at - clock.spent_s
    setup_kernel_ms = clock.median_ms()
    if args.setup_only:
        clock.stop()
        print(json.dumps({"setup_s": setup_s, "setup_kernel_ms": setup_kernel_ms}))
        return 0

    since, spent = len(clock.samples_ms), clock.spent_s
    start = time.perf_counter()
    timings = run(state, tracer, clock)
    wall_s = time.perf_counter() - start - (clock.spent_s - spent)
    kernel_ms = clock.median_ms(since)
    clock.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks allocate
    result = Pass()
    result.latencies = [seconds * 1000 for _, _, seconds in timings]
    if tracer:
        # the checks build terms too, so the trace is summarised before them
        result.layers = layer_metrics(tracer)
        if args.spans:
            from tracing import write_spans

            write_spans(tracer, args.spans)
    check(state, [(out, exc) for out, exc, _ in timings], fixture, result)
    if tracer:
        for name in ("deduction.candidates", "deduction.violations", "deduction.unknowns"):
            result.layers[name] = result.sweep_counts.get(name, 0)
    print(json.dumps(dict(result.to_json(wall_s, rss_mb), setup_s=setup_s,
                          setup_kernel_ms=setup_kernel_ms, kernel_ms=kernel_ms)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

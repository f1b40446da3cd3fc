"""Tests of the benchmark's own logic: ``python3 -m pytest bench -q``."""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from certify import (  # noqa: E402
    check_counter_model,
    check_reduction_trace,
    check_rewrite_path,
    small_models,
)
from termalg.algebras import FiniteAlgebra, enumerate_tables  # noqa: E402
from termalg.reduction import ReduciblePair, ReductionTrace, normal_form  # noqa: E402
from termalg.terms import Var, parse_term  # noqa: E402
from termalg.theories import ASSOC, CounterModel, Derivation, Identity, theory_from_name  # noqa: E402


# --- the percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(2400, 99.0), (10010, 99.9), (1000, 99.0), (999, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_tail_uses_nearest_rank_and_falls_back_to_max():
    values = list(range(1, 101))  # 1..100
    assert run.tail(values) == ("p90", 90)
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_end_to_end_scales_times_and_reports_tail_with_its_sample_count():
    latencies = [float(i) for i in range(1, 1001)]
    fast = dict(latencies_ms=latencies, attempted=1000, wall_s=2.0, setup_s=1.0, kernel_ms=1.0,
                setup_kernel_ms=1.0, decided=1000, decidable=1000, certified=5, certifiable=10, rss_mb=50.0)
    # the same pass on a host at half the speed: the kernel takes twice as long
    slow = dict(fast, latencies_ms=[2 * v for v in latencies], wall_s=4.0, setup_s=3.0, kernel_ms=2.0,
                setup_kernel_ms=2.0)
    setup_only = dict(setup_s=5.0, setup_kernel_ms=2.5)
    metrics, notes = run.end_to_end([fast, slow], [fast, slow, setup_only])
    assert metrics["op_tail_ms"] == (990.0, "ms")
    assert metrics["op_p50_ms"] == (500.0, "ms")
    assert metrics["wall_s"] == (2.0, "s")
    assert metrics["setup_s"] == (1.5, "s")  # median of 1.0, 1.5 and 2.0
    assert metrics["certified_frac"] == (0.5, "1")
    assert "p99 of 1000 ops per pass" in notes[0]
    assert "wall_s 3 s" in notes[-1]  # the raw median


def test_kernel_clock_samples_on_its_timer_and_counts_its_time():
    clock = speed.KernelClock(interval_s=0.01)
    clock.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        clock.stop()
    assert len(clock.samples_ms) >= 2
    assert clock.spent_s * 1000 >= sum(clock.samples_ms) > 0
    assert clock.median_ms(since=len(clock.samples_ms)) > 0  # samples once when there is none


# --- self time -----------------------------------------------------------------


def synthetic_tracer():
    """root [0, 10] with children a [1, 4] (holding a1 [2, 3]) and b [5, 9]."""
    t = tracing.Tracer()
    for name, start, end, parent in (
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("a", 11.0, 12.5, -1),
    ):
        t.start.append(start)
        t.end.append(end)
        t.name.append(t.name_id(name))
        t.parent.append(parent)
        t.op.append(0)
    return t


def test_self_time_subtracts_child_spans():
    t = synthetic_tracer()
    assert list(tracing.self_times(t.start, t.end, t.parent)) == [3.0, 2.0, 1.0, 4.0, 1.5]
    by_name, _ = tracing.summarize(t)
    assert by_name["a"] == (2, 3.5)
    assert by_name["root"] == (1, 3.0)


def test_queries_under_reports_are_counted():
    t = tracing.Tracer()
    for name, parent in (("essentiality.report", -1), ("terms", 0), ("theories.equal", 1),
                         ("theories.equal_bounded", 0), ("theories.equal", -1)):
        t.start.append(0.0)
        t.end.append(0.0)
        t.name.append(t.name_id(name))
        t.parent.append(parent)
        t.op.append(0)
    assert tracing.summarize(t)[1] == 2


# --- the fixture check -------------------------------------------------------------


def test_fixture_check_fires_on_a_perturbed_report():
    fixture = {"sweeps": {"idempotent / SigmaR1": [7300, 0, 0, 0]}}
    ops = [("idempotent", "SigmaR1", ())]

    result = worker.Pass()
    worker.check_sweep(ops, [((7300, [], 0), None)], fixture, result)
    assert not result.failed_ops

    result = worker.Pass()
    worker.check_sweep(ops, [((7300, [], 1), None)], fixture, result)
    assert result.failed_ops == {0}
    assert "!= fixture" in result.failures[0]


def test_fixture_check_fires_on_a_perturbed_normal_form():
    theory = theory_from_name("idempotent")
    t = parse_term("f(f(x1,x1),f(x2,x2))")
    ops = [("idempotent", t, "S", None, 0)]
    state = (ops, {"idempotent": theory})
    out = normal_form(t, theory, "S")

    result = worker.Pass()
    worker.check_normalize(state, [(out, None)], {"normalize": {"idempotent": {"S": ["f(x1,x2)"]}}}, result)
    assert not result.failed_ops

    result = worker.Pass()
    worker.check_normalize(state, [(out, None)], {"normalize": {"idempotent": {"S": ["x1"]}}}, result)
    assert result.failed_ops == {0}
    assert "!= fixture" in result.failures[0]


# --- certificates --------------------------------------------------------------------


LEFT_ZERO = FiniteAlgebra.from_rows([[0, 0], [1, 1]])  # f(a, b) = a, associative


def test_counter_model_accepted():
    cert = CounterModel(LEFT_ZERO, ((1, 0), (2, 1)))
    assert check_counter_model(cert, (ASSOC,), parse_term("f(x1,x2)"), parse_term("f(x2,x1)")) is None


@pytest.mark.parametrize("rows, reason", [
    ([[1, 0], [1, 1]], "violates the axiom"),  # f(f(0,0),0) = 1 but f(0,f(0,0)) = 0
    ([[0, 1], [1, 1]], "does not separate"),  # max: associative but commutative
])
def test_counter_model_with_tampered_table_rejected(rows, reason):
    cert = CounterModel(FiniteAlgebra.from_rows(rows), ((1, 0), (2, 1)))
    got = check_counter_model(cert, (ASSOC,), parse_term("f(x1,x2)"), parse_term("f(x2,x1)"))
    assert reason in got


def test_real_refutation_certificate_checks():
    assoc = theory_from_name("assoc")
    left, right = parse_term("f(x1,x2)"), parse_term("f(x2,x1)")
    cert = assoc.decide(left, right).certificate
    assert check_counter_model(cert, assoc.axioms, left, right) is None


def test_rewrite_path_checked_step_by_step():
    axiom = Identity.parse("f(f(x1,x1),x2)=f(x2,x2)")
    good = Derivation("rewrite-path", ("f(f(f(x1,x1),x3),x4)", "f(f(x3,x3),x4)", "f(x4,x4)"))
    start, end = parse_term(good.steps[0]), parse_term(good.steps[-1])
    assert check_rewrite_path(good, (axiom,), start, end) is None
    skipped = Derivation("rewrite-path", (good.steps[0], good.steps[2]))
    assert "not one axiom instance" in check_rewrite_path(skipped, (axiom,), start, end)
    assert "does not connect" in check_rewrite_path(good, (axiom,), start, Var(4))
    same = Derivation("reflexivity", (good.steps[0],))
    assert check_rewrite_path(same, (axiom,), start, start) is None
    assert "not a rewrite path" in check_rewrite_path(same, (axiom,), start, end)


def test_reduction_trace_checked():
    theory = theory_from_name("idempotent")
    models = small_models(theory.axioms)
    nf, trace = normal_form(parse_term("f(f(x1,x1),f(x1,x1))"), theory, "S")
    assert nf == Var(1)
    assert check_reduction_trace(trace, models) is None
    kind, datum, result = trace.steps[0]
    trace.steps[0] = (kind, datum, parse_term("f(x1,x2)"))
    assert "differs" in check_reduction_trace(trace, models)


def test_small_models_agree_with_the_reference_enumeration():
    (n, tables), _ = small_models((ASSOC,))
    expected = [a.table for a in enumerate_tables(((ASSOC.lhs, ASSOC.rhs),), 2)]
    assert n == 2
    assert [tuple(map(tuple, t)) for t in tables.tolist()] == expected


def test_unsound_S_step_rejected():
    # f(f(x1,x2),x1) = f(x1,x2) does not follow from idempotence
    theory = theory_from_name("idempotent")
    models = small_models(theory.axioms)
    start = parse_term("f(f(x1,x2),x1)")
    trace = ReductionTrace(start, [("S", ReduciblePair((), (1,)), parse_term("f(x1,x2)"))])
    assert "separates the two subterms" in check_reduction_trace(trace, models)


def test_essential_E_step_rejected():
    theory = theory_from_name("idempotent")
    models = small_models(theory.axioms)
    trace = ReductionTrace(parse_term("f(x1,x2)"), [("E", (1,), Var(2))])
    assert "essential" in check_reduction_trace(trace, models)


@pytest.mark.parametrize("name", ["idempotent", "assoc", "sg-abs-1-2"])
@pytest.mark.parametrize("mode", ["S", "E"])
def test_real_reduction_traces_pass_the_model_check(name, mode):
    theory = theory_from_name(name)
    models = small_models(theory.axioms)
    for text in ("f(f(x1,x1),f(x2,x2))", "f(f(x1,f(x2,x1)),f(x1,f(x2,x1)))", "f(f(x1,x2),f(x3,f(x1,x2)))"):
        _, trace = normal_form(parse_term(text), theory, mode)
        assert check_reduction_trace(trace, models) is None

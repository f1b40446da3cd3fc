"""Benchmark entry point: one command prints every metric of one workload.

    python3 bench/run.py --workload sweep|decide|normalize --seed N --seconds S --trace 0|1

With ``--trace 0`` the run starts fresh worker interpreters one after another,
each of which sets up, runs the workload's seeded op list once and checks
every output, until ``--seconds`` have elapsed; extra set-up-only workers
bring the set-up samples to at least three.  It prints the end-to-end
metrics: medians over the passes of times scaled to the reference speed of
``speed.py``, with the raw medians beside them.  With ``--trace 1`` it runs
one untraced and one traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object; the full result, with the
machine description, is also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_MS, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("sweep", "decide", "normalize")
SETUP_SAMPLES = 3
DEADLINE_S = 165  # a run must end within 180 s
# ladder of tail percentiles, highest first
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


class BenchError(Exception):
    pass


# --- statistics ----------------------------------------------------------------


def nearest_rank(sorted_values, p):
    """The p-th percentile by the nearest-rank rule."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """The highest ladder percentile with at least min_beyond of n samples
    above its rank, or None when even the lowest has fewer."""
    for p in ladder:
        if n - max(1, math.ceil(p / 100 * n)) >= min_beyond:
            return p
    return None


def tail(values):
    """(label, value): the tail percentile of values, or the maximum when the
    sample is too small for any percentile to have 10 samples beyond it."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    if p is None:
        return "max", ordered[-1]
    return f"p{p:g}", nearest_rank(ordered, p)


# --- workers ---------------------------------------------------------------------


def spawn(workload, seed, deadline, *flags):
    """Run one worker; returns its JSON result with "setup_s" added."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(time.time()), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(flags)} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def timed_passes(workload, seed, seconds, deadline):
    """Passes in fresh workers until ``seconds`` have elapsed, then set-up-only
    workers until there are SETUP_SAMPLES set-up times."""
    start = time.monotonic()
    passes = [spawn(workload, seed, deadline)]
    while time.monotonic() - start < seconds:
        per_pass = (time.monotonic() - start) / len(passes)
        if time.monotonic() + 1.5 * per_pass > deadline:
            break
        passes.append(spawn(workload, seed, deadline))
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, deadline, "--setup-only"))
    return passes, setups


def end_to_end(passes, setups):
    """Medians over the passes (set-ups for setup_s) of times scaled to the
    reference speed, the counts, and notes that give the raw medians."""
    tails = [tail(p["latencies_ms"]) for p in passes]
    labels = {label for label, _ in tails}
    setup_kernels = [w["setup_kernel_ms"] for w in setups]
    kernels = [p["kernel_ms"] for p in passes]
    # name -> (raw value of each worker, the kernel's time in that phase, unit)
    times = {
        "setup_s": ([w["setup_s"] for w in setups], setup_kernels, "s"),
        "wall_s": ([p["wall_s"] for p in passes], kernels, "s"),
        "op_p50_ms": ([nearest_rank(sorted(p["latencies_ms"]), 50) for p in passes], kernels, "ms"),
        "op_tail_ms": ([value for _, value in tails], kernels, "ms"),
    }
    metrics = {
        name: (statistics.median(map(scale, values, kernel_ms)), unit)
        for name, (values, kernel_ms, unit) in times.items()
    }
    decidable = sum(p["decidable"] for p in passes)
    certifiable = sum(p["certifiable"] for p in passes)
    metrics.update({
        "decided_frac": (sum(p["decided"] for p in passes) / decidable if decidable else 1.0, "1"),
        "certified_frac": (sum(p["certified"] for p in passes) / certifiable if certifiable else 1.0, "1"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MiB"),
    })
    notes = [
        f"op_tail_ms is the {'/'.join(sorted(labels))} of {passes[0]['attempted']} ops per pass, "
        f"median of {len(passes)} passes",
        f"setup_s is the median of {len(setups)} set-ups; wall_s, op_p50_ms, peak_rss_mb "
        f"are medians of {len(passes)} passes",
        f"times are scaled to a kernel time of {REFERENCE_MS:g} ms; the kernel took "
        + " ".join(f"{k:.3f}" for k in setup_kernels) + " ms in set-up and "
        + " ".join(f"{k:.3f}" for k in kernels) + " ms in the ops",
        "raw medians: " + ", ".join(
            f"{name} {statistics.median(values):.4g} {unit}" for name, (values, _, unit) in times.items()),
    ]
    return metrics, notes


LAYER_UNITS = {"calls": "count", "self_s": "s", "computed": "count", "count": "count",
               "hit_ratio": "1", "found_ratio": "1", "queries_per_report": "1",
               "identities": "count", "overhead_s": "s"}


def per_layer(untraced, traced):
    metrics = {}
    for name, value in traced["layers"].items():
        unit = LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    notes = [f"traced wall_s {traced['wall_s']:.3f} s, untraced {untraced['wall_s']:.3f} s"]
    return metrics, notes


# --- run description ---------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="termalg benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "termalg", "__init__.py")):
        print("bench: src/termalg not found next to bench/; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            untraced = spawn(args.workload, args.seed, deadline)
            spans = os.path.join(OUT, f"spans-{args.workload}.npz")
            traced = spawn(args.workload, args.seed, deadline, "--trace", "--spans", spans)
            passes = [untraced, traced]
            metrics, notes = per_layer(untraced, traced)
        else:
            passes, setups = timed_passes(args.workload, args.seed, args.seconds, deadline)
            metrics, notes = end_to_end(passes, setups)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env = environment(args)
    for key, value in env.items():
        print(f"{key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(f"failed_frac = {failed / attempted:.6g} 1 ({failed} of {attempted} ops; reported as failed/attempted)")
    for p in passes:
        for line in p["failures"]:
            print(f"FAILED {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"environment": env, "notes": notes, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layered benchmark for grhom: one workload per process, stdlib only.

Usage (from the repository root):

    python3 bench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

- ``survey``: batch plain homology records (h0, the path-space oracle
  crosscheck, class coordinates and positivity) over the exhaustive small
  corpus, random graphs with n = 40..160 and small dense graphs.
- ``queries``: in-process ``grhom.cli.main(argv)`` invocations over all
  nine subcommands, weighted toward graded equality and positivity, with a
  tail of heavy-edge graphs and about 5% invalid input.
- ``compare``: ``eventual_conjugacy_verdict`` on large pairs, pairs told
  apart by h0, equivalent pairs and budget-exhausting pairs.

Set-up (importing grhom afresh, generating the inputs and, for queries,
writing the graph files) runs several times and its median is
``setup_s``. The timed region then cycles through the workload's op pool
in a closed loop, one op after another, and stops at the first end of a
pass over the pool after ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes over the whole pool and prints the per-layer
metrics of the traced passes (per pass over the pool), the tracing
overhead and the spot values (``anchor.*``) for the ROADMAP baselines;
the spans are written to ``bench/out``. Correctness is checked after the
timed region. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with the environment, goes to ``bench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("graph", "intlinalg", "homology", "graded", "diagonal",
           "dynamics", "cli")
SETUP_REPEATS = 5

# Each layer must record calls on the workload the layer's metrics are
# read from.
REQUIRED_LAYERS = {
    "survey": ("intlinalg", "homology", "graph"),
    "queries": ("cli", "graph", "graded", "diagonal"),
    "compare": ("intlinalg", "dynamics"),
}

# anchor metric -> (workload, op label, span name, statistic); each is a
# ROADMAP item 1 baseline reproduced as a span duration on the machine
# that runs the benchmark
ANCHORS = {
    "anchor.h0_n80_ms": ("survey", "random-n80-sinkfree", "homology.h0",
                         statistics.median),
    "anchor.h0_n160_ms": ("survey", "random-n160-sinkfree", "homology.h0",
                          statistics.median),
    "anchor.oracle_5v_ms": ("survey", workloads.ORACLE_ANCHOR,
                            "homology.h0_bruteforce_oracle",
                            statistics.median),
    "anchor.eventual_kernel_n40_ms": ("compare", "large-n40",
                                      "intlinalg.eventual_kernel",
                                      statistics.median),
    # the n=60 graph is paired with a 4-vertex one: take the longer kernel
    "anchor.eventual_kernel_n60_ms": ("compare", "large-n60",
                                      "intlinalg.eventual_kernel", max),
    "anchor.search_3x3_lag2_b2_ms": ("compare", "unknown-3x3-b2",
                                     "dynamics.search_shift_equivalence",
                                     statistics.median),
}


class Failed:
    """Result of an op that raised."""

    def __init__(self, exc):
        self.message = "%s: %s" % (type(exc).__name__, exc)

    def __eq__(self, other):
        return isinstance(other, Failed) and other.message == self.message


def load_grhom():
    """Import grhom from this checkout afresh and return its modules."""
    for name in list(sys.modules):
        if name == "grhom" or name.startswith("grhom."):
            del sys.modules[name]
    package = importlib.import_module("grhom")
    if Path(package.__file__).resolve().parent != SRC / "grhom":
        raise ImportError("grhom imported from %s, not %s"
                          % (package.__file__, SRC))
    mods = {name: importlib.import_module("grhom." + name)
            for name in MODULES}
    mods["package"] = package
    return mods


def set_up(name, seed):
    """One full set-up; returns (seconds, modules, workload, workdir)."""
    start = perf_counter()
    mods = load_grhom()
    workdir = tempfile.mkdtemp(prefix="work-%s-" % name, dir=OUT)
    rng = random.Random("%s:%d" % (name, seed))
    work = workloads.BUILDERS[name](mods, rng, workdir)
    random.Random(seed).shuffle(work.ops)
    return perf_counter() - start, mods, work, workdir


def run_pass(ops, deadline, min_ops, first, latencies, tracer=None,
             labels=None):
    """Run ops in pool order, cycling, until ``deadline`` (a perf_counter
    value) has passed and at least ``min_ops`` ran. It stops only between
    passes over the pool, so every op runs equally often.

    Results of the pool's first run go to ``first``; later runs are
    compared with it in place. Returns (ops done, wall seconds, gap
    seconds, mismatching pool indices). With a tracer, each op gets a
    root span and its own op id.
    """
    pool = len(ops)
    done = 0
    mismatches = []
    gaps = 0.0
    start = perf_counter()
    last = start
    if tracer is not None:
        root = tracer.name_id(tracing.HARNESS + ".op")
    while done < min_ops or done % pool or last < deadline:
        i = done % pool
        op = ops[i]
        t0 = perf_counter()
        if tracer is not None:
            tracer.op_id = len(labels)
            labels.append(op.label)
            span = tracer.open(root)
        try:
            result = op.run()
        except Exception as exc:  # an op that raises counts as failed
            result = Failed(exc)
        finally:
            if tracer is not None:
                tracer.close(span)
        t1 = perf_counter()
        gaps += t0 - last
        last = t1
        latencies.append(t1 - t0)
        if len(first) < pool:
            first.append(result)
        elif result != first[i]:
            mismatches.append(i)
        done += 1
    end = perf_counter()
    return done, end - start, gaps + (end - last), mismatches


def digest(work, results):
    h = hashlib.sha256()
    for res in results:
        h.update(b"!failed\n" if isinstance(res, Failed)
                 else work.canonical(res))
        h.update(b"\n")
    return h.hexdigest()


def check_results(work, results):
    """Failure message per pool index, for the ops whose result is wrong."""
    failures = {}
    for i, (op, res) in enumerate(zip(work.ops, results)):
        if isinstance(res, Failed):
            failures[i] = res.message
            continue
        try:
            msg = op.check(res)
        except Exception as exc:  # a malformed result fails its check
            msg = "check raised %s: %s" % (type(exc).__name__, exc)
        if msg is not None:
            failures[i] = msg
    return failures


def tail(latencies):
    """Highest percentile with at least 10 samples above it: the 11th
    largest latency. Returns (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "seed": seed,
    }


def op_counts(ops):
    counts = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    return dict(sorted(counts.items()))


def measure_untraced(work, seconds):
    """End-to-end metrics of one untraced run over whole passes."""
    pool = len(work.ops)
    first, latencies = [], []
    done, wall, _, mismatches = run_pass(
        work.ops, perf_counter() + seconds, pool, first, latencies)
    value, pct, count = tail(latencies)
    metrics = {
        "ops_per_s": (done / wall, "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000.0 * value, "ms"),
    }
    by_label = {}
    for k, seconds in enumerate(latencies):
        by_label.setdefault(work.ops[k % pool].label, []).append(seconds)
    info = {"ops": done, "wall_s": wall, "passes": done // pool,
            "label_p50_ms": {label: 1000.0 * statistics.median(v)
                             for label, v in sorted(by_label.items())},
            "tail_percentile": pct, "tail_samples": count}
    return metrics, info, first, [done // pool] * pool, mismatches


def measure_traced(work, mods, seconds, spans_path):
    """Alternate untraced and traced passes over the whole pool."""
    pool = len(work.ops)
    tracer = tracing.Tracer()
    labels = []
    plain_walls, traced_walls = [], []
    first_plain, first_traced = [], []
    mismatches = []
    gaps = 0.0
    deadline = perf_counter() + seconds
    while not traced_walls or perf_counter() < deadline:
        _, wall, _, bad = run_pass(work.ops, 0, pool, first_plain, [])
        plain_walls.append(wall)
        mismatches += bad
        tracer.install(mods)
        try:
            _, wall, gap, bad = run_pass(work.ops, 0, pool, first_traced, [],
                                         tracer, labels)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        gaps += gap
        mismatches += bad
    passes = len(traced_walls)
    wall = sum(traced_walls)
    overhead = statistics.median(traced_walls) / statistics.median(
        plain_walls) - 1.0
    report = tracing.analyse(tracer, passes, labels,
                             [(a[1], a[2]) for a in ANCHORS.values()
                              if a[0] == work.name])
    metrics = {name: (value, unit_of(name))
               for name, value in report["metrics"].items()}
    metrics["cli.out_bytes"] = (
        sum(work.out_bytes(r) for r in first_traced), "B")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    for name, (wl, label, span, pick) in ANCHORS.items():
        values = report["durations"].get((label, span))
        ms = 1000.0 * pick(values) if values and wl == work.name else 0.0
        metrics[name] = (ms, "ms")

    problems = []
    accounted = report["span_self_total_s"] + gaps
    # tolerance: the tracing overhead, but at least 1% of the wall time
    if abs(accounted - wall) > max(abs(overhead), 0.01) * wall:
        problems.append("span self times plus gaps %.6f s != traced wall "
                        "%.6f s" % (accounted, wall))
    for layer in REQUIRED_LAYERS[work.name]:
        if not report["metrics"][layer + ".calls"]:
            problems.append("layer %s recorded no call" % layer)
    digests = (digest(work, first_plain), digest(work, first_traced))
    if digests[0] != digests[1]:
        problems.append("traced digest %s != untraced %s" % digests[::-1])
    tracing.write_spans(tracer, spans_path, labels)
    info = {
        "passes_untraced": len(plain_walls), "passes_traced": passes,
        "untraced_pass_s": plain_walls, "traced_pass_s": traced_walls,
        "spans": report["spans"],
        "harness_self_s_per_pass": report["harness_self_s"],
        "self_check": {"span_self_total_s": report["span_self_total_s"],
                       "gaps_s": gaps, "traced_wall_s": wall},
        "problems": problems,
    }
    runs = [len(plain_walls) + passes] * pool
    return metrics, info, first_plain, runs, mismatches, problems


UNITS = {"calls": "count", "self_s": "s", "smith_cells": "count",
         "smith_track_share": "ratio", "matmul_calls": "count",
         "max_entry_bits": "bits", "paths": "count", "depth_sum": "stages",
         "terms_in": "count", "terms_out": "count", "search_calls": "count",
         "search_space": "count", "found_share": "ratio"}


def unit_of(name):
    return UNITS[name.partition(".")[2]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grhom" / "__init__.py").is_file():
        print("bench: no grhom sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setups = []
    workdir = None
    home = os.getcwd()
    try:
        for _ in range(SETUP_REPEATS):
            if workdir is not None:
                shutil.rmtree(workdir)
            seconds, mods, work, workdir = set_up(args.workload, args.seed)
            setups.append(seconds)
        os.chdir(workdir)

        if args.trace:
            spans = OUT / ("%s-seed%d-spans.tsv.gz"
                           % (args.workload, args.seed))
            metrics, info, first, runs, mismatches, problems = \
                measure_traced(work, mods, args.seconds, spans)
        else:
            metrics, info, first, runs, mismatches = measure_untraced(
                work, args.seconds)
            problems = []
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB")

        failures = check_results(work, first)
        for i in set(mismatches):
            failures.setdefault(i, "a repeated run gave a different result")
        for i in work.repeat_sample:
            try:
                again = work.ops[i].run()
            except Exception as exc:  # compared like any other result
                again = Failed(exc)
            if again != first[i]:
                failures.setdefault(i, "repeat gave different output")
    finally:
        os.chdir(home)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    # a pool entry whose result is wrong failed every time it ran
    attempted = sum(runs)
    failed = sum(runs[i] for i in failures)
    out_digest = digest(work, first)
    correct = not failures and not problems
    record = {
        "workload": args.workload, "trace": args.trace,
        "environment": environment(args.seed),
        "pool_op_counts": op_counts(work.ops),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "output_digest": out_digest,
        "setup_s_samples": setups,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "run": info,
        "failures": {work.ops[i].label + "#%d" % i: msg
                     for i, msg in sorted(failures.items())[:50]},
    }
    path = OUT / ("%s-seed%d-trace%d.json"
                  % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=2) + "\n")

    print("workload %s seed %d trace %d: %d ops attempted, %d failed"
          % (args.workload, args.seed, args.trace, attempted, failed))
    print("pool op counts: %s" % json.dumps(record["pool_op_counts"]))
    print("output_digest: %s" % out_digest)
    print("failed_frac: %.6f (%d of %d)" % (failed / attempted, failed,
                                             attempted))
    if not args.trace:
        print("op_tail_ms is p%.2f of %d samples"
              % (info["tail_percentile"], info["tail_samples"]))
    for i, msg in sorted(failures.items())[:10]:
        print("FAILED %s: %s" % (work.ops[i].label, msg))
    for msg in problems:
        print("SELF-CHECK FAILED: %s" % msg)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke runs of the experiment scripts on tiny corpora, and of the
benchmark's compare, survey and queries workloads.

Each bench run also pins the seed-1 ``output_digest``, a hash of every
op's output over the workload's pool, so a change that moves any output
fails here. Every bench test runs untraced and traced (``--trace 1``). The
traced run wraps every public function of the package, and it checks on
its own that the traced passes give the untraced digest and that every
layer the workload needs records calls; a failed check makes
``correct`` false."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# seed-1 output digests of the bench workloads
DIGESTS = {
    "compare":
        "a99ae4522021860c4f7feabf117d4f3b6320df2241f91563faf0f60b702e0ac2",
    "survey":
        "470d53bc7f933e5e7a02559ccff7990e4e595b9858bdadde62887e13ee7fa116",
    "queries":
        "62610b1512e27a3013f2d79bf77bee7457d07500db1ffa8714494e68871a9c87",
}


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60)


def test_survey_small_graphs():
    res = run_script("survey_small_graphs.py",
                     "--max-vertices", "2", "--max-edges", "3")
    assert res.returncode == 0, res.stderr
    assert "graphs surveyed: 39 (<= 2 vertices, <= 3 edges)" in res.stdout
    assert "oracle agreement (max_len 2, every 10th graph): 4 / 4" \
        in res.stdout
    assert "H0 groups by frequency:" in res.stdout


def test_eventual_conjugacy_demo():
    res = run_script("eventual_conjugacy_demo.py", "--seed", "1",
                     "--max-vertices", "2", "--max-edges", "3",
                     "--max-lag", "1", "--entry-bound", "1")
    assert res.returncode == 0, res.stderr
    tally = res.stdout.splitlines()[-1]
    assert tally.startswith("tally: EventuallyConjugate ")
    counts = [int(part.split()[-1]) for part in tally[7:].split(", ")]
    # the tally counts the random pairs only, 10 by default
    assert sum(counts) == 10


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_compare_checks_pass(trace):
    """One short pass of the compare benchmark: every certificate found
    must verify and every verdict must be the one its pair was built for."""
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "compare", "--seed", "1", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] is True, res.stdout
    assert result["failed"] == 0
    assert "output_digest: " + DIGESTS["compare"] in res.stdout.splitlines(), \
        res.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_survey_checks_pass(trace):
    """One short pass of the survey benchmark, the only workload that calls
    h0_class and h0_is_positive: the oracle must match h0 and every
    nonnegative vector must test Positive."""
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "survey", "--seed", "1", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] is True, res.stdout
    assert result["failed"] == 0
    assert "output_digest: " + DIGESTS["survey"] in res.stdout.splitlines(), \
        res.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_queries_checks_pass(trace):
    """One short pass of the queries benchmark, the only workload that
    checks equals against DimensionTriple.equal (through eventual_kernel)
    and re-runs CLI output byte for byte."""
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "queries", "--seed", "1", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] is True, res.stdout
    assert result["failed"] == 0
    assert "output_digest: " + DIGESTS["queries"] in res.stdout.splitlines(), \
        res.stdout

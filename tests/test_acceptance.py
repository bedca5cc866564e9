"""Acceptance gate: each criterion prints one [acceptance] PASS/FAIL line."""

import json
import time
from collections import Counter
from random import Random

import pytest

from grhom.cli import main
from grhom.corpus import (enumerate_multigraphs, random_graph,
                          random_primitive_graph)
from grhom.diagonal import (DiagonalElement, SpecialEdgeChoice, normal_form)
from grhom.dynamics import (eventual_conjugacy_verdict, SearchBudget,
                            search_shift_equivalence,
                            ShiftEquivalenceCertificate,
                            verify_shift_equivalence)
from grhom.graded import (dimension_triple, equals, graded_module,
                          is_positive, StagedVector, verify_exact_sequence,
                          x_action)
from grhom.graph import covering_graph, make_path
from grhom.homology import (h0, h0_bruteforce_oracle, h0_presentation,
                            Verdict)
from grhom.intlinalg import IntMatrix
from linalg_helpers import det, in_column_span


def report(capsys, number, check):
    failure = None
    try:
        check()
    except Exception as exc:
        failure = exc
    with capsys.disabled():
        print("[acceptance] criterion %d: %s"
              % (number, "PASS" if failure is None else "FAIL"))
    if failure is not None:
        raise failure


@pytest.fixture(scope="module")
def corpus():
    return list(enumerate_multigraphs())


@pytest.fixture(scope="module")
def random_sample():
    rng = Random(2024)
    return [random_graph(rng, 5, 8) for _ in range(200)]


def random_staged(rng, m, max_terms=4):
    v = StagedVector.zero()
    for _ in range(rng.randint(1, max_terms)):
        vertex = rng.choice(m.graph.vertices)
        v = v + m.generator(vertex, rng.randint(-2, 2),
                            coeff=rng.choice([-3, -2, -1, 1, 2, 3]))
    return v


def window_relation_matrix(m, lo, hi):
    g = m.graph
    n = m.nvertices
    stages = list(range(lo, hi + 1))
    pos = {s: i for i, s in enumerate(stages)}
    nrows = len(stages) * n
    cols = []
    for s in stages:
        for j, v in enumerate(g.vertices):
            if not m.regular[j]:
                continue
            rel = m.relation(v, s)
            if rel.min_stage() < lo or rel.max_stage() > hi:
                continue
            col = [0] * nrows
            for stage, vec in rel.stages:
                for i, c in enumerate(vec):
                    col[pos[stage] * n + i] += c
            cols.append(col)
    return IntMatrix(tuple(tuple(c[i] for c in cols) for i in range(nrows)),
                     len(cols)), pos, n


def window_oracle_equal(m, a, b):
    d = a - b
    if d.is_zero():
        return True
    depth = m.stabilization_bound * m.max_weight
    lo = d.min_stage() - depth
    hi = d.max_stage() + depth
    matrix, pos, n = window_relation_matrix(m, lo, hi)
    flat = [0] * ((hi - lo + 1) * n)
    for stage, vec in d.stages:
        for i, c in enumerate(vec):
            flat[pos[stage] * n + i] += c
    return in_column_span(matrix, tuple(flat))


def random_path(rng, g, max_len):
    start = rng.choice(g.vertices)
    v = start
    edges = []
    for _ in range(rng.randint(0, max_len)):
        out = g.out_edges(v)
        if not out:
            break
        e = rng.choice(out)
        edges.append(e.eid)
        v = e.dst
    if edges:
        return make_path(g, tuple(edges))
    return make_path(g, (), at=start)


def random_diagonal(rng, g, max_terms=4, max_len=4):
    x = DiagonalElement.zero()
    for _ in range(rng.randint(1, max_terms)):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        x = x + DiagonalElement.unit(random_path(rng, g, max_len), c)
    return x


def rewrite_random_order(rng, g, sp, x):
    while True:
        offenders = []
        for p, c in x.items():
            if p.edges:
                last = g.edge(p.edges[-1])
                if sp.get(last.src) == last.eid:
                    offenders.append((p, c))
        if not offenders:
            return x
        p, c = rng.choice(offenders)
        prefix = make_path(g, p.edges[:-1], at=p.source)
        vertex = g.edge(p.edges[-1]).src
        replacement = DiagonalElement.unit(prefix)
        for e in g.out_edges(vertex):
            if e.eid != sp.get(vertex):
                replacement = replacement - DiagonalElement.unit(
                    make_path(g, p.edges[:-1] + (e.eid,), at=p.source))
        x = x + DiagonalElement.unit(p, -c) + replacement.scale(c)


def test_criterion_1_named_examples(capsys, graph_e, graph_f):
    def check():
        for g in (graph_e, graph_f):
            t0 = time.monotonic()
            group = h0(g)
            assert group.rank == 0
            assert group.torsion == ()
            assert abs(det(h0_presentation(g).relations)) == 1
            assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        cover = covering_graph(graph_f, (-1, 1))
        assert cover.vertices == (("u", -1), ("u", 0), ("u", 1))
        steps = Counter((e.src[1], e.dst[1]) for e in cover.edges)
        assert steps == {(1, 0): 2, (0, -1): 2}
        assert time.monotonic() - t0 < 1.0

    report(capsys, 1, check)


def test_criterion_2_oracle_equivalence(capsys, corpus, random_sample):
    def check():
        t0 = time.monotonic()
        assert len(corpus) == 790
        assert len(random_sample) == 200
        for g in corpus + random_sample:
            expected = h0(g)
            for max_len in (1, 2, 3):
                assert h0_bruteforce_oracle(g, max_len) == expected
        assert time.monotonic() - t0 < 60.0

    report(capsys, 2, check)


def test_criterion_3_exact_sequence(capsys, corpus, random_sample):
    def check():
        for g in corpus + random_sample:
            doc = verify_exact_sequence(g)
            assert doc["sigma_lambda_zero"] is True
            assert doc["coker_lambda_equals_h0"] is True

    report(capsys, 3, check)


def test_criterion_4_graded_module_doubling(capsys, graph_f):
    def check():
        m = graded_module(graph_f)
        assert m.stabilization_bound == 1
        u0 = m.generator("u", 0)
        u1 = m.generator("u", 1)
        assert equals(m, u1, 2 * u0)
        assert not equals(m, u0, u1)
        assert is_positive(m, u0 - m.generator("u", -1),
                           2) is Verdict.POSITIVE
        assert equals(m, x_action(u0, 1), 2 * u0)

    report(capsys, 4, check)


def test_criterion_5_dual_decision_agreement(capsys):
    def check():
        rng = Random(505)
        graphs = 0
        pairs = 0
        while graphs < 20:
            g = random_graph(rng, 4, 8, sink_free=True)
            graphs += 1
            m = graded_module(g)
            t = dimension_triple(g)
            for _ in range(25):
                a = random_staged(rng, m)
                b = random_staged(rng, m)
                direct = equals(m, a, b)
                assert t.equal(t.from_staged(a), t.from_staged(b)) == direct
                assert window_oracle_equal(m, a, b) == direct
                pairs += 1
        assert pairs >= 500

    report(capsys, 5, check)


def test_criterion_6_shift_equivalence(capsys, graph_f, triple_loop):
    def check():
        a = IntMatrix.from_rows([[2]])
        b = IntMatrix.from_rows([[1, 1], [1, 1]])
        cert = ShiftEquivalenceCertificate(r=IntMatrix.from_rows([[1, 1]]),
                                           s=IntMatrix.from_rows([[1], [1]]),
                                           lag=1)
        assert verify_shift_equivalence(a, b, cert)
        t0 = time.monotonic()
        found = search_shift_equivalence(a, b, max_lag=2, entry_bound=2)
        assert time.monotonic() - t0 < 10.0
        assert found is not None
        assert verify_shift_equivalence(a, b, found)
        rep = eventual_conjugacy_verdict(graph_f, triple_loop,
                                         SearchBudget(max_lag=2,
                                                      entry_bound=2))
        assert rep.verdict == "Distinguished"
        assert rep.distinguished_by == "spectrum"

    report(capsys, 6, check)


def test_criterion_7_rewriting_confluence(capsys, graph_f):
    def check():
        rng = Random(707)
        samples = 0
        while samples < 500:
            g = random_graph(rng, 4, 6)
            sp = SpecialEdgeChoice.default(g)
            for _ in range(5):
                x = random_diagonal(rng, g)
                nf = normal_form(g, x, sp)
                assert rewrite_random_order(rng, g, sp, x) == nf
                assert normal_form(g, nf, sp) == nf
                samples += 1
        ee = DiagonalElement.unit(make_path(graph_f, ("e",)))
        sp_f = SpecialEdgeChoice.default(graph_f)
        assert sp_f.get("u") == "e"
        expected = (DiagonalElement.unit(make_path(graph_f, (), at="u"))
                    - DiagonalElement.unit(make_path(graph_f, ("f",))))
        assert normal_form(graph_f, ee, sp_f) == expected

    report(capsys, 7, check)


def test_criterion_8_positivity_stability(capsys):
    def check():
        rng = Random(808)
        decided = 0
        checked = 0
        while checked < 100:
            g = random_primitive_graph(rng, 3, 6)
            m = graded_module(g)
            for _ in range(5):
                v = random_staged(rng, m)
                low = is_positive(m, v, 10)
                if low in (Verdict.POSITIVE, Verdict.NEGATIVE):
                    assert is_positive(m, v, 50) is low
                    decided += 1
                checked += 1
        assert decided > 0

    report(capsys, 8, check)


def test_criterion_9_cli_determinism(capsys, data_dir):
    def check():
        e = str(data_dir / "graphE.json")
        f = str(data_dir / "graphF.json")
        full2 = str(data_dir / "full2shift.json")
        invocations = [
            ("h0", e),
            ("h0", f),
            ("h0gr", f, "--equals", "a(u,1)", "2 a(u,0)"),
            ("h0gr", f, "--positive", "a(u,0) - a(u,-1)", "--cap", "2"),
            ("cover", f, "--min", "-1", "--max", "1"),
            ("paths", e, "--max-len", "2"),
            ("nf", f, "--expr", "e"),
            ("oracle", e, "--max-len", "2"),
            ("exactness", f),
            ("compare", f, full2, "--max-lag", "2", "--entry-bound", "2"),
            ("triple", f),
            ("h0", str(data_dir / "absent.json")),
        ]
        for argv in invocations:
            runs = []
            for _ in range(3):
                code = main(list(argv))
                runs.append((code, capsys.readouterr().out))
            assert runs[0] == runs[1] == runs[2]
            json.loads(runs[0][1])

    report(capsys, 9, check)

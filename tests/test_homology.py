import hashlib
from collections import Counter, deque
from random import Random

import pytest

from grhom.corpus import enumerate_multigraphs, random_graph
from grhom.graph import adjacency, classify_vertices, VertexClass
from grhom.homology import (Verdict, h0, h0_bruteforce_oracle, h0_class,
                            h0_is_positive, h0_presentation)
from grhom.intlinalg import FpAbelianGroup, IntMatrix, _int_vector, cokernel
from linalg_helpers import in_column_span
from test_intlinalg import reference_kernel_basis


class TestPresentation:
    def test_cycle_with_loop(self, graph_e):
        pres = h0_presentation(graph_e)
        assert pres.vertex_order == ("u", "v")
        assert pres.regular_vertices == ("u", "v")
        assert pres.relations.rows == ((0, -1), (-1, 1))

    def test_double_loop(self, graph_f):
        assert h0_presentation(graph_f).relations.rows == ((-1,),)

    def test_sink_has_no_columns(self, single_sink):
        pres = h0_presentation(single_sink)
        assert pres.relations.shape == (1, 0)
        assert pres.regular_vertices == ()

    def test_nonpositive_weight_rejected(self):
        from grhom.graph import graph_from_dict
        g = graph_from_dict({"vertices": ["u"], "edges": [
            {"id": "e", "src": "u", "dst": "u", "weight": 0}]})
        with pytest.raises(ValueError):
            h0_presentation(g)


class TestGroup:
    def test_known_groups(self, graph_e, graph_f, single_sink, single_loop,
                          triple_loop):
        assert h0(graph_e) == FpAbelianGroup(0, ())
        assert h0(graph_f) == FpAbelianGroup(0, ())
        assert h0(single_sink) == FpAbelianGroup(1, ())
        assert h0(single_loop) == FpAbelianGroup(1, ())
        assert h0(triple_loop) == FpAbelianGroup(0, (2,))

    def test_sink_free_equals_i_minus_at(self):
        count = 0
        for g in enumerate_multigraphs(3, 4):
            if any(c is VertexClass.SINK
                   for c in classify_vertices(g).values()):
                continue
            n = len(g.vertices)
            at = adjacency(g).transpose()
            rows = [[(1 if i == j else 0) - at.entry(i, j) for j in range(n)]
                    for i in range(n)]
            assert h0(g) == cokernel(IntMatrix.from_rows(rows, n))
            count += 1
        assert count > 100


class TestClasses:
    def test_trivial_group_classes(self, graph_e, graph_f):
        assert h0_class(graph_f, (5,)) == ()
        assert h0_class(graph_e, (3, -7)) == ()

    def test_sink_identity(self, single_sink):
        assert h0_class(single_sink, (4,)) == (4,)
        assert h0_class(single_sink, (-2,)) == (-2,)

    def test_torsion_coordinates(self, triple_loop):
        assert h0_class(triple_loop, (0,)) == (0,)
        assert h0_class(triple_loop, (1,)) == h0_class(triple_loop, (3,))
        assert h0_class(triple_loop, (1,)) != h0_class(triple_loop, (2,))

    def test_length_mismatch(self, graph_e):
        with pytest.raises(ValueError):
            h0_class(graph_e, (1,))

    def test_relation_column_invariance(self):
        rng = Random(19)
        for _ in range(60):
            g = random_graph(rng, 4, 6)
            pres = h0_presentation(g)
            n = pres.relations.nrows
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            base = h0_class(g, v)
            for j in range(pres.relations.ncols):
                moved = tuple(v[i] + pres.relations.entry(i, j)
                              for i in range(n))
                assert h0_class(g, moved) == base

    @pytest.mark.parametrize("bad", [2.9, -0.7, True, "3"])
    def test_non_int_entries_rejected(self, graph_e, bad):
        with pytest.raises(ValueError, match="vector entries must be ints"):
            h0_class(graph_e, (bad, 0))
        with pytest.raises(ValueError, match="vector entries must be ints"):
            h0_is_positive(graph_e, (bad, 0), 5)

    def test_int_subclass_accepted(self, triple_loop):
        class Tagged(int):
            pass

        assert h0_class(triple_loop, (Tagged(4),)) == h0_class(triple_loop, (4,))
        assert h0_is_positive(triple_loop, (Tagged(1),), 0) is Verdict.POSITIVE

    def test_golden_coordinates(self, seeded_graph):
        """Coordinates depend on the Smith pivot rule (through u), so a
        change of the elimination must not move them. The hash was taken
        from the plain dense elimination."""
        out = []
        for k, n in enumerate((20, 30, 40, 50, 60, 70, 80, 80)):
            g = seeded_graph(100 + k, n, sinks=bool(k % 2))
            rng = Random(200 + k)
            for _ in range(2):
                vec = tuple(rng.randint(-5, 5) for _ in range(n))
                out.append(h0_class(g, vec))
        assert [len(c) for c in out] == [0, 0, 5, 5, 4, 4, 8, 8,
                                         4, 4, 9, 9, 2, 2, 14, 14]
        assert hashlib.sha256(repr(out).encode()).hexdigest() == \
            "19ab00f40939a1d80e70822336f661d3058a6944bb278db9670f126252779dd8"


def reference_cone_separation_certificate(relations, vec):
    """``homology._cone_separation_certificate`` before it folded into
    ``h0_is_positive``: the body is kept verbatim, on the v-based
    reference kernel, since ``kernel_basis`` of the transpose runs
    the same code as ``h0_is_positive``."""
    left = reference_kernel_basis(relations.transpose())
    for row in left.rows:
        for cand in (row, tuple(-x for x in row)):
            if all(x >= 0 for x in cand) and \
                    sum(a * b for a, b in zip(cand, vec)) < 0:
                return True
    return False


def reference_h0_is_positive(g, vec, cap):
    """``h0_is_positive`` as it was before it shared the Smith
    decomposition of ``h0_class``: the body is kept verbatim apart from
    the name of the certificate helper."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    pres = h0_presentation(g)
    vec = _int_vector(vec)
    if len(vec) != len(pres.vertex_order):
        raise ValueError("vector length %d does not match %d vertices"
                         % (len(vec), len(pres.vertex_order)))
    if in_column_span(pres.relations, vec):
        return Verdict.POSITIVE
    cols = [tuple(pres.relations.rows[i][j]
                  for i in range(pres.relations.nrows))
            for j in range(pres.relations.ncols)]

    def bfs(start) -> bool:
        if all(x >= 0 for x in start):
            return True
        seen = {start}
        queue = deque([start])
        dequeued = 0
        while queue and dequeued < cap:
            cur = queue.popleft()
            dequeued += 1
            for col in cols:
                for sgn in (1, -1):
                    nxt = tuple(a + sgn * b for a, b in zip(cur, col))
                    if nxt in seen:
                        continue
                    if all(x >= 0 for x in nxt):
                        return True
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    if bfs(vec):
        return Verdict.POSITIVE
    neg = tuple(-x for x in vec)
    if bfs(neg) and reference_cone_separation_certificate(pres.relations, vec):
        return Verdict.NEGATIVE
    return Verdict.UNKNOWN


class TestPositivity:
    def test_nonneg_is_positive_at_cap_zero(self, graph_e):
        assert h0_is_positive(graph_e, (1, 2), 0) is Verdict.POSITIVE

    def test_zero_class_positive(self, graph_f):
        assert h0_is_positive(graph_f, (-1,), 0) is Verdict.POSITIVE

    def test_sink_negative(self, single_sink):
        for cap in (0, 1, 10):
            assert h0_is_positive(single_sink, (-1,), cap) is Verdict.NEGATIVE

    def test_monotone_no_flip(self):
        rng = Random(29)
        caps = (0, 1, 2, 5, 10)
        for _ in range(40):
            g = random_graph(rng, 3, 5)
            n = len(g.vertices)
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            seen = [h0_is_positive(g, v, cap) for cap in caps]
            settled = None
            for verdict in seen:
                if settled is None:
                    if verdict is not Verdict.UNKNOWN:
                        settled = verdict
                else:
                    assert verdict is settled

    def test_negation_antisymmetry(self, triple_loop):
        v = (-2,)
        pos = h0_is_positive(triple_loop, v, 10)
        neg = h0_is_positive(triple_loop, tuple(-x for x in v), 10)
        if pos is Verdict.POSITIVE:
            assert neg in (Verdict.POSITIVE, Verdict.UNKNOWN, Verdict.ZERO)

    def test_verdicts_match_reference(self):
        """The shared decomposition gives the old verdicts on the corpus
        and on seeded random graphs, Negative ones included."""
        rng = Random(37)
        graphs = list(enumerate_multigraphs()) + \
            [random_graph(rng, 6, 10) for _ in range(100)]
        verdicts = Counter()
        for g in graphs:
            n = len(g.vertices)
            for _ in range(2):
                v = tuple(rng.randint(-3, 3) for _ in range(n))
                for cap in (0, 3, 20):
                    verdict = h0_is_positive(g, v, cap)
                    assert verdict is reference_h0_is_positive(g, v, cap), \
                        (g, v, cap)
                    verdicts[verdict] += 1
        assert verdicts[Verdict.NEGATIVE] > 0


class TestOracle:
    def test_double_loop_len_one(self, graph_f):
        assert h0_bruteforce_oracle(graph_f, 1) == FpAbelianGroup(0, ())

    def test_cycle_len_two(self, graph_e):
        assert h0_bruteforce_oracle(graph_e, 2) == FpAbelianGroup(0, ())

    def test_sink(self, single_sink):
        for max_len in (1, 2, 3):
            assert (h0_bruteforce_oracle(single_sink, max_len)
                    == FpAbelianGroup(1, ()))

    def test_max_len_zero_rejected(self, graph_f):
        with pytest.raises(ValueError):
            h0_bruteforce_oracle(graph_f, 0)

    def test_matches_h0_on_sampled_corpus(self):
        for i, g in enumerate(enumerate_multigraphs(3, 4)):
            if i % 13:
                continue
            expected = h0(g)
            for max_len in (1, 2, 3):
                assert h0_bruteforce_oracle(g, max_len) == expected

    def test_matches_h0_on_random_graphs(self):
        rng = Random(41)
        for _ in range(25):
            g = random_graph(rng, 5, 8)
            expected = h0(g)
            for max_len in (1, 2):
                assert h0_bruteforce_oracle(g, max_len) == expected

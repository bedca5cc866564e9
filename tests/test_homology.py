import dataclasses
import hashlib
from collections import Counter, deque
from random import Random

import pytest

from grhom import homology, intlinalg
from grhom.corpus import enumerate_multigraphs, random_graph
from grhom.graph import (Path, adjacency, check_positive_weights,
                         classify_vertices, enumerate_paths, graph_from_dict,
                         graph_to_dict, path_range, VertexClass)
from grhom.homology import (Verdict, h0, h0_bruteforce_oracle, h0_class,
                            h0_is_positive, h0_presentation)
from grhom.intlinalg import (FpAbelianGroup, IntMatrix, SmithDecomposition,
                             _int_vector, cokernel, sparse_cokernel)
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

    def test_nonneg_builds_no_coordinates(self, seeded_graph):
        """A nonnegative vector is its own representative: neither the
        Smith decomposition nor the dense relation columns are built."""
        g = seeded_graph(7, 12, sinks=False)
        assert h0_is_positive(g, (0, 3) + (1,) * 10, 0) is Verdict.POSITIVE
        assert h0_is_positive(g, (0,) * 12, 0) is Verdict.POSITIVE
        assert not {"smith", "relations", "columns"} & set(
            vars(h0_presentation(g)))

    def test_nonneg_errors_in_order(self, graph_e):
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            h0_is_positive(graph_e, (1,), -1)
        with pytest.raises(ValueError, match="vector entries must be ints"):
            h0_is_positive(graph_e, (1, 2.0, 3), 0)
        with pytest.raises(ValueError, match="vector length 3"):
            h0_is_positive(graph_e, (1, 2, 3), 0)

    def test_zero_class_positive(self, graph_f):
        assert h0_is_positive(graph_f, (-1,), 0) is Verdict.POSITIVE

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
    def test_non_int_cap_rejected(self, graph_e, bad):
        with pytest.raises(ValueError, match="caps must be ints"):
            h0_is_positive(graph_e, (1, -1), bad)

    def test_int_subclass_cap_accepted(self, single_sink):
        class Tagged(int):
            pass

        assert h0_is_positive(single_sink, (-1,), Tagged(3)) \
            is Verdict.NEGATIVE

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

    def test_separated_vector_skips_its_search(self, monkeypatch):
        """A nonnegative functional that is negative on vec proves that
        the search from vec fails, so only the search from -vec runs,
        which would otherwise walk cap points of vec + k(e_u - e_s)."""
        g = graph_from_dict({"vertices": ["u", "s"], "edges": [
            {"id": "e", "src": "u", "dst": "s"}]})
        searches = []

        class Counted(deque):
            def __init__(self, items):
                searches.extend(items)
                super().__init__(items)

        monkeypatch.setattr(homology, "deque", Counted)
        assert h0_is_positive(g, (1, -2), 10 ** 4) is Verdict.NEGATIVE
        assert searches == [(-1, 2)]
        searches.clear()
        assert h0_is_positive(g, (2, -1), 10 ** 4) is Verdict.POSITIVE
        assert searches == [(2, -1)]

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

    @pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2"])
    def test_non_int_max_len_rejected(self, graph_f, bad):
        with pytest.raises(ValueError, match="path lengths must be ints"):
            h0_bruteforce_oracle(graph_f, bad)

    def test_int_subclass_max_len_accepted(self, graph_e):
        class Tagged(int):
            pass

        assert h0_bruteforce_oracle(graph_e, Tagged(2)) == h0(graph_e)

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


def reference_oracle_relations(g, max_len):
    """The relation matrix of ``h0_bruteforce_oracle`` as the dense builder
    wrote it before the oracle went sparse: the body is kept verbatim,
    except that it returns the matrix instead of its cokernel."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    check_positive_weights(g, "homology")
    paths = enumerate_paths(g, max_len)
    index = {p: i for i, p in enumerate(paths)}
    ranges = [path_range(g, p) for p in paths]
    expands = [len(p.edges) < max_len and bool(g.out_edges(v))
               for p, v in zip(paths, ranges)]
    ncols = sum(expands) + sum(1 for p in paths if p.edges)
    rows = [[0] * ncols for _ in paths]
    j = 0
    for i, (p, v) in enumerate(zip(paths, ranges)):
        if expands[i]:
            rows[i][j] += 1
            for e in g.out_edges(v):
                rows[index[Path(source=p.source if p.edges else v,
                                edges=p.edges + (e.eid,))]][j] -= 1
            j += 1
        if p.edges:
            rows[index[Path(source=v, edges=())]][j] += 1
            rows[i][j] -= 1
            j += 1
    return IntMatrix(tuple(map(tuple, rows)), ncols)


def dense_graph(rng, nv):
    """A graph shaped like the benchmark's dense survey graphs: nv vertices
    and 7-12 random edges, so some vertices may be sinks."""
    names = ["v%d" % i for i in range(nv)]
    return graph_from_dict({
        "vertices": names,
        "edges": [{"id": "e%d" % k, "src": names[rng.randrange(nv)],
                   "dst": names[rng.randrange(nv)]}
                  for k in range(rng.randint(7, 12))]})


class TestOracleMatchesReference:
    """The relation columns the oracle hands to ``sparse_cokernel`` are
    the nonzeros of the dense relation matrix it used to build, column by
    column in row order."""

    @pytest.fixture
    def oracle_rows(self, monkeypatch):
        seen = []

        def capture(columns, nrows):
            seen.append((tuple(map(tuple, columns)), nrows))
            return sparse_cokernel(columns, nrows)

        monkeypatch.setattr(homology, "sparse_cokernel", capture)

        def run(g, max_len):
            seen.clear()
            group = h0_bruteforce_oracle(g, max_len)
            (captured,) = seen
            return group, captured
        return run

    def check(self, oracle_rows, g, max_len):
        group, (columns, nrows) = oracle_rows(g, max_len)
        ref = reference_oracle_relations(g, max_len)
        assert (nrows, len(columns)) == ref.shape
        assert columns == tuple(
            tuple((i, x) for i, x in enumerate(col) if x)
            for col in zip(*ref.rows))
        return group, ref

    def test_corpus(self, oracle_rows):
        count = 0
        for g in enumerate_multigraphs(3, 4):
            for max_len in (1, 2, 3):
                self.check(oracle_rows, g, max_len)
                count += 1
        assert count == 3 * 790

    def test_random_graphs_with_sinks(self, oracle_rows, seeded_graph):
        sinks = 0
        for seed in range(40):
            g = seeded_graph(300 + seed, 3 + seed % 4, sinks=True)
            sinks += any(not g.out_edges(v) for v in g.vertices)
            group, ref = self.check(oracle_rows, g, 4)
            assert group == cokernel(ref) == h0(g)
        assert sinks > 10

    def test_dense_bench_shapes(self, oracle_rows):
        rng = Random(53)
        for nv in (4, 5) * 6:
            g = dense_graph(rng, nv)
            group, ref = self.check(oracle_rows, g, 4)
            assert group == cokernel(ref) == h0(g)


    @pytest.mark.parametrize("vertices, edges", [
        # e10 sorts before e2 and e9 as a string, after them as a number
        (["u", "v", "s"],
         [("e9", 0, 1), ("e10", 1, 0), ("e2", 0, 0), ("e11", 1, 2),
          ("e1", 1, 1)]),
        # numeric ids out of file order; s is a sink
        (["u", "v", "s"],
         [("10", 0, 1), ("9", 1, 0), ("100", 0, 2), ("1", 1, 1),
          ("2", 0, 0)]),
        # b before a in file order, and parallel edges u -> v
        (["u", "v"],
         [("b", 0, 1), ("a", 0, 1), ("d", 1, 0), ("c", 1, 1)]),
        # ids in reverse order, loops at two vertices, parallel edges
        # into the sink s, which comes first in vertex order
        (["s", "u", "v"],
         [("z", 1, 1), ("y", 2, 2), ("x", 1, 0), ("w", 2, 0), ("v", 1, 2),
          ("u", 1, 0), ("t", 2, 1)]),
        # a source with no in-edge, an isolated sink, and ids that sort
        # across vertices
        (["p", "u", "v", "q"],
         [("m", 0, 1), ("k", 1, 2), ("l", 2, 1), ("j", 1, 1),
          ("n", 0, 2)]),
    ])
    def test_edge_id_orders(self, oracle_rows, vertices, edges):
        """Edge ids whose string order differs from their file and
        numeric order fix the row order of every level."""
        g = graph_from_dict({
            "vertices": vertices,
            "edges": [{"id": eid, "src": vertices[i], "dst": vertices[j]}
                      for eid, i, j in edges]})
        for max_len in (1, 2, 3, 4):
            group, ref = self.check(oracle_rows, g, max_len)
            assert group == cokernel(ref) == h0(g)


class TestPresentationMemo:
    """One presentation, one Smith elimination and one walk back through
    its log per graph object: h0 reads the diagonal, and the Negative
    certificates are kept."""

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = Counter()
        build = homology.H0Presentation
        smith = homology.sparse_smith_normal_form
        eliminate = intlinalg._eliminate
        u_rows = SmithDecomposition.u_rows

        def counted_build(**kwargs):
            counts["presentation"] += 1
            return build(**kwargs)

        def counted_smith(columns, nrows):
            counts["smith"] += 1
            return smith(columns, nrows)

        def counted_eliminate(rows, col_ids):
            counts["eliminate"] += 1
            return eliminate(rows, col_ids)

        def counted_u_rows(dec, positions):
            counts["u_rows"] += 1
            return u_rows(dec, positions)

        monkeypatch.setattr(homology, "H0Presentation", counted_build)
        monkeypatch.setattr(homology, "sparse_smith_normal_form",
                            counted_smith)
        monkeypatch.setattr(intlinalg, "_eliminate", counted_eliminate)
        monkeypatch.setattr(SmithDecomposition, "u_rows", counted_u_rows)
        return counts

    def queries(self, g, vecs):
        return (h0(g), [h0_class(g, v) for v in vecs],
                [h0_is_positive(g, v, cap) for v in vecs for cap in (0, 5)])

    def test_one_build_per_graph(self, builds, seeded_graph):
        rng = Random(59)
        for seed, n, sinks in ((1, 6, False), (2, 8, True), (3, 20, True)):
            g = seeded_graph(seed, n, sinks)
            vecs = [tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(4)]
            builds.clear()
            first = self.queries(g, vecs)
            once = {"presentation": 1, "smith": 1, "eliminate": 1}
            if sinks:
                # a free part: mixed-sign vectors reach the certificates
                once["u_rows"] = 1
            assert builds == once
            assert self.queries(g, vecs) == first
            assert h0_presentation(g) is h0_presentation(g)
            assert builds == once
            fresh = [graph_from_dict(graph_to_dict(g)) for _ in range(3)]
            assert h0(fresh[0]) == first[0]
            assert [h0_class(fresh[1], v) for v in vecs] == first[1]
            assert [h0_is_positive(fresh[2], v, cap)
                    for v in vecs for cap in (0, 5)] == first[2]

    def test_memo_agrees_on_corpus(self):
        """Repeated queries on one graph answer as single queries on
        fresh, equal graphs, Negative verdicts included."""
        rng = Random(61)
        verdicts = Counter()
        for g in enumerate_multigraphs(2, 3):
            n = len(g.vertices)
            vecs = [tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(3)]
            shared = self.queries(g, vecs)
            doc = graph_to_dict(g)
            assert h0(graph_from_dict(doc)) == shared[0]
            assert [h0_class(graph_from_dict(doc), v)
                    for v in vecs] == shared[1]
            single = [h0_is_positive(graph_from_dict(doc), v, cap)
                      for v in vecs for cap in (0, 5)]
            assert single == shared[2]
            verdicts.update(single)
        assert verdicts[Verdict.NEGATIVE] > 0

    def test_bad_weights_raise_every_call(self, builds):
        g = graph_from_dict({"vertices": ["u"], "edges": [
            {"id": "e", "src": "u", "dst": "u", "weight": 0}]})
        for _ in range(3):
            for query in (h0_presentation, h0, lambda g: h0_class(g, (1,)),
                          lambda g: h0_is_positive(g, (1,), 2),
                          lambda g: h0_bruteforce_oracle(g, 1)):
                with pytest.raises(ValueError, match="weight"):
                    query(g)
        assert builds == {}

    def test_cached_attributes_immutable(self, graph_e):
        pres = h0_presentation(graph_e)
        assert pres.columns == ((0, -1), (-1, 1))
        assert all(type(col) is tuple for col in pres.columns)
        assert type(pres.columns) is tuple
        for name in ("columns", "smith", "relations", "separators"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pres, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(pres, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pres.smith.log = None
        assert h0_presentation(graph_e).columns == ((0, -1), (-1, 1))
        assert h0_presentation(graph_e).smith is pres.smith

    def test_sink_columns(self, single_sink):
        assert h0_presentation(single_sink).columns == ()

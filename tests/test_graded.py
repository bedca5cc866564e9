import re
from collections import deque
from dataclasses import fields, replace
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from grhom import graded, homology
from grhom.corpus import enumerate_multigraphs, random_graph
from grhom.graded import (GradedModule, StagedVector, _decision_depth,
                          _sample_elements, dimension_triple,
                          equals, graded_module, is_positive, lambda_map,
                          parse_staged_expression, pushdown, sigma_map,
                          verify_exact_sequence, x_action)
from grhom.graph import _looks_like_int, graph_from_dict, graph_to_dict
from grhom.homology import Verdict, h0, h0_class, h0_is_positive
from grhom.intlinalg import IntMatrix, _require_int, cokernel, mat_pow_apply
from linalg_helpers import in_column_span


def sv(mapping):
    return StagedVector.build(mapping)


def random_staged(rng, m, max_terms=3, stage_range=3, coeff_range=3):
    out = StagedVector.zero()
    for _ in range(rng.randint(0, max_terms)):
        v = rng.choice(m.graph.vertices)
        n = rng.randint(-stage_range, stage_range)
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            out = out + m.generator(v, n, coeff=c)
    return out


class TestStagedVector:
    def test_canonical_form_drops_zeros(self):
        v = sv({0: (0, 0), 2: (1, -1)})
        assert v.stages == ((2, (1, -1)),)

    def test_arithmetic(self):
        a = sv({0: (1, 2)})
        b = sv({0: (-1, 1), 1: (3, 0)})
        assert (a + b).to_mapping() == {0: (0, 3), 1: (3, 0)}
        assert (a - a).is_zero()
        assert (-a).to_mapping() == {0: (-1, -2)}
        assert (3 * a).to_mapping() == {0: (3, 6)}
        assert a.scale(0).is_zero()

    @given(st.lists(st.tuples(st.integers(-2, 2),
                              st.lists(st.integers(-3, 3), min_size=1,
                                       max_size=3)), max_size=4),
           st.lists(st.tuples(st.integers(-2, 2),
                              st.lists(st.integers(-3, 3), min_size=1,
                                       max_size=3)), max_size=4),
           st.integers(-3, 3))
    def test_arithmetic_matches_entrywise_reference(self, left, right, c):
        """Sum, difference, negation and scaling agree with an entry by
        entry reference, and mixed vector lengths fail at the same stage
        with the same message."""
        a, b = sv(dict(left)), sv(dict(right))

        def reference(sign):
            acc = {n: list(vec) for n, vec in a.stages}
            for n, vec in b.stages:
                mine = acc.setdefault(n, [0] * len(vec))
                if len(mine) != len(vec):
                    raise ValueError("stage %d: mixed vector lengths" % n)
                for i, x in enumerate(vec):
                    mine[i] += sign * x
            return sv(acc)

        for sign, op in ((1, a.__add__), (-1, a.__sub__)):
            try:
                expected = reference(sign)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    op(b)
                assert str(got.value) == str(exc)
            else:
                assert op(b) == expected
        assert (-a).to_mapping() == {n: tuple(-x for x in vec)
                                     for n, vec in a.stages}
        assert a.scale(c) == sv({n: [c * x for x in vec]
                                 for n, vec in a.stages})

    def test_shift(self):
        assert sv({0: (1,)}).shift(2).to_mapping() == {2: (1,)}

    def test_stage_bounds(self):
        v = sv({-1: (1,), 4: (2,)})
        assert v.min_stage() == -1
        assert v.max_stage() == 4
        with pytest.raises(ValueError):
            StagedVector.zero().min_stage()

    @pytest.mark.parametrize("bad", [1.5, True, "2"])
    def test_non_int_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="vector entries must be ints"):
            sv({0: (1, bad)})

    def test_int_subclass_stored_as_int(self):
        class Tagged(int):
            pass

        v = sv({0: (Tagged(2), 0)})
        assert v.stages == ((0, (2, 0)),)
        assert type(v.stages[0][1][0]) is int

    @pytest.mark.parametrize("bad", [0.7, 1.9, 2.0, True, "2", None])
    def test_non_int_stages_rejected(self, graph_e, bad):
        with pytest.raises(ValueError, match="stages must be ints"):
            sv({bad: (1, 0)})
        with pytest.raises(ValueError, match="stages must be ints"):
            sv({0: (1, 0), bad: (1, 0)})
        with pytest.raises(ValueError, match="stages must be ints"):
            graded_module(graph_e).generator("u", bad)

    def test_int_subclass_stage_stored_as_int(self):
        class Tagged(int):
            pass

        v = sv({Tagged(3): (1,)})
        assert v.stages == ((3, (1,)),)
        assert type(v.stages[0][0]) is int

    @pytest.mark.parametrize("bad", [0.5, 2.0, True, "2"])
    def test_non_int_shift_and_scalar_rejected(self, bad):
        v = sv({0: (1, 2)})
        for call in (lambda: v.shift(bad), lambda: x_action(v, bad)):
            with pytest.raises(ValueError, match="^shifts must be ints"):
                call()
        for call in (lambda: v.scale(bad), lambda: bad * v):
            with pytest.raises(ValueError, match="^scalars must be ints"):
                call()

    def test_int_subclass_shift_and_scalar_stored_as_int(self):
        class Tagged(int):
            pass

        v = sv({0: (1, 2)})
        assert v.shift(Tagged(1)).stages == ((1, (1, 2)),)
        assert type(v.shift(Tagged(1)).stages[0][0]) is int
        assert (Tagged(3) * v).stages == ((0, (3, 6)),)
        assert all(type(x) is int for x in v.scale(Tagged(3)).stages[0][1])

    def test_sign_predicates(self):
        assert sv({0: (1,), 1: (2,)}).is_nonneg()
        assert sv({0: (-1,)}).is_nonpos()
        assert StagedVector.zero().is_nonneg()
        assert StagedVector.zero().is_nonpos()


class TestPushdown:
    def test_doubling_one_step(self, graph_f):
        m = graded_module(graph_f)
        assert pushdown(m, sv({1: (1,)}), 0).to_mapping() == {0: (2,)}

    def test_doubling_two_steps(self, graph_f):
        m = graded_module(graph_f)
        assert pushdown(m, sv({2: (1,)}), 0).to_mapping() == {0: (4,)}

    def test_sink_coordinates_freeze(self, single_sink):
        m = graded_module(single_sink)
        v = sv({3: (2,)})
        assert pushdown(m, v, 0) == v

    def test_target_above_support_rejected(self, graph_f):
        m = graded_module(graph_f)
        with pytest.raises(ValueError):
            pushdown(m, sv({0: (1,)}), 1)

    def test_heavy_edge_overshoots(self, weighted_loop):
        m = graded_module(weighted_loop)
        assert pushdown(m, sv({1: (1,)}), 0).to_mapping() == {-1: (1,)}

    def test_depth_invariance(self):
        rng = Random(61)
        for _ in range(40):
            g = random_graph(rng, 4, 6)
            m = graded_module(g)
            v = random_staged(rng, m)
            if v.is_zero():
                continue
            t1 = v.min_stage() - rng.randint(0, 2)
            t2 = t1 - rng.randint(1, 3)
            once = pushdown(m, v, t2)
            twice = pushdown(m, pushdown(m, v, t1), t2)
            assert once == twice

    def test_mixed_graph_regular_and_sink(self):
        g = graph_from_dict({"vertices": ["a", "s"], "edges": [
            {"id": "e", "src": "a", "dst": "s"},
            {"id": "f", "src": "a", "dst": "a"}]})
        m = graded_module(g)
        res = pushdown(m, m.generator("a", 1), 0)
        # a(1) = s(0) + a(0); the sink part stays at stage 0
        assert res.to_mapping() == {0: (1, 1)}
        deeper = pushdown(m, m.generator("a", 1), -1)
        assert deeper.to_mapping() == {-1: (1, 1), 0: (0, 1)}


def reference_pushdown(m, v, target):
    """``pushdown`` as it was before the stage heap: the body is kept
    verbatim, rescanning every stage for the top pending one."""
    if v.is_zero():
        return v
    if target > v.min_stage():
        raise ValueError("target %d is above the support minimum %d"
                         % (target, v.min_stage()))
    n = m.nvertices
    work: dict[int, list[int]] = {}
    for stage, vec in v.stages:
        if len(vec) != n:
            raise ValueError("stage %d: vector length %d does not match %d "
                             "vertices" % (stage, len(vec), n))
        work[stage] = list(vec)
    while True:
        pending = [s for s, vec in work.items()
                   if s > target and any(c and m.regular[i]
                                         for i, c in enumerate(vec))]
        if not pending:
            break
        s = max(pending)
        vec = work[s]
        for i in range(n):
            c = vec[i]
            if c and m.regular[i]:
                vec[i] = 0
                for tgt, w in m.graph.out_arcs[i]:
                    row = work.setdefault(s - w, [0] * n)
                    row[tgt] += c
    return StagedVector.build(work)


class ExpansionLog:
    """Stands in for ``Graph.out_arcs``: records the vertex of every
    coordinate a pushdown expands, and fails past ``limit`` expansions, so
    a pushdown that runs past its target fails instead of running on."""

    def __init__(self, out, limit=None):
        self.out, self.limit, self.reads = out, limit, []

    def __getitem__(self, i):
        self.reads.append(i)
        if self.limit is not None and len(self.reads) > self.limit:
            raise AssertionError("more expansions than the reference made")
        return self.out[i]


def logged(m, limit=None):
    """A module on a copy of m's graph whose out-arcs view is logged; the
    copy's ``regular`` is m's, read before the log is installed."""
    g = replace(m.graph)
    g.__dict__["out_arcs"] = log = ExpansionLog(m.graph.out_arcs, limit)
    copy = GradedModule(g)
    copy.__dict__["regular"] = m.regular
    return copy, log


def assert_matches_reference(m, v, target):
    """The same result as the reference, from the same expansions in the
    same order."""
    ref_m, ref_log = logged(m)
    expected = reference_pushdown(ref_m, v, target)
    new_m, new_log = logged(m, limit=len(ref_log.reads))
    assert pushdown(new_m, v, target) == expected
    assert new_log.reads == ref_log.reads
    return expected


@st.composite
def weighted_graphs(draw, max_vertices=6, max_weight=5):
    """1 to max_vertices vertices, each the source of 0-3 edges (so some
    are sinks) with weights 1 to max_weight."""
    n = draw(st.integers(1, max_vertices))
    names = ["v%d" % i for i in range(n)]
    edges = []
    for i in range(n):
        for _ in range(draw(st.integers(0, 3))):
            edges.append({"id": "e%d" % len(edges), "src": names[i],
                          "dst": names[draw(st.integers(0, n - 1))],
                          "weight": draw(st.integers(1, max_weight))})
    return graph_from_dict({"vertices": names, "edges": edges})


def staged_elements(m, max_stages=10, stage_range=8):
    """Elements spread over at most max_stages stages, entries -3..3."""
    vec = st.lists(st.integers(-3, 3), min_size=m.nvertices,
                   max_size=m.nvertices)
    return st.dictionaries(st.integers(-stage_range, stage_range), vec,
                           max_size=max_stages).map(StagedVector.build)


def heavy_graph(rng, n, w):
    """The benchmark's heavy-edge shape: a Hamiltonian cycle in random
    vertex order plus n // 2 random edges, one edge of weight w."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]
    rng.shuffle(pairs)
    heavy = rng.randrange(len(pairs))
    return graph_from_dict({
        "vertices": ["v%d" % i for i in range(n)],
        "edges": [{"id": "e%d" % k, "src": "v%d" % i, "dst": "v%d" % j,
                   "weight": w if k == heavy else 1}
                  for k, (i, j) in enumerate(pairs)]})


class TestPushdownMatchesReference:
    """The heap-ordered pushdown against the rescanning one it replaced:
    same stages expanded in the same order, so equal results."""

    @settings(max_examples=200)
    @given(weighted_graphs(), st.data())
    def test_random_targets_and_positivity_chain(self, g, data):
        m = graded_module(g)
        v = data.draw(staged_elements(m))
        if v.is_zero():
            assert assert_matches_reference(m, v, 0) == v
            return
        base = v.min_stage()
        depths = data.draw(st.lists(st.integers(0, 12), min_size=1,
                                    max_size=3))
        for k in depths + [_decision_depth(m)]:
            assert_matches_reference(m, v, base - k)
        # the chain of targets that is_positive walks
        w = assert_matches_reference(m, v, base)
        for k in range(1, data.draw(st.integers(1, 10)) + 1):
            if w.is_zero():
                break
            w = assert_matches_reference(m, w, min(base - k, w.min_stage()))

    @pytest.mark.parametrize("n, w", [(20, 32), (10, 64), (20, 16),
                                      (10, 32)])
    def test_heavy_shapes_at_decision_depth(self, n, w):
        rng = Random(1000 * n + w)
        m = graded_module(heavy_graph(rng, n, w))
        v = random_staged(rng, m, max_terms=4, stage_range=2)
        v = v + m.generator("v0", 2) - m.generator("v1", -2)
        assert_matches_reference(m, v, v.min_stage() - _decision_depth(m))


class TestEquality:
    def test_doubling_module(self, graph_f):
        m = graded_module(graph_f)
        assert m.stabilization_bound == 1
        assert equals(m, m.generator("u", 1), m.generator("u", 0, coeff=2))
        assert not equals(m, m.generator("u", 0), m.generator("u", 1))

    def test_x_action_doubles(self, graph_f):
        m = graded_module(graph_f)
        gen = m.generator("u", 0)
        assert equals(m, x_action(gen, 1), gen.scale(2))

    def test_sink_profiles_must_match(self, single_sink):
        m = graded_module(single_sink)
        assert not equals(m, m.generator("s", 1), m.generator("s", 0))
        assert equals(m, m.generator("s", 1), m.generator("s", 1))

    def test_weighted_period(self, weighted_loop):
        m = graded_module(weighted_loop)
        assert equals(m, m.generator("u", 2), m.generator("u", 0))
        assert not equals(m, m.generator("u", 1), m.generator("u", 0))

    def test_equivalence_relation_on_samples(self):
        rng = Random(67)
        for _ in range(25):
            g = random_graph(rng, 4, 6)
            m = graded_module(g)
            a = random_staged(rng, m)
            # reflexivity and symmetry with a perturbed-by-relation twin
            vtx = rng.choice([v for v in g.vertices
                              if m.regular[g.vertex_index(v)]] or [None])
            if vtx is None:
                continue
            twin = a + m.relation(vtx, rng.randint(-2, 2))
            c = twin + m.relation(vtx, rng.randint(-2, 2))
            assert equals(m, a, a)
            assert equals(m, a, twin) and equals(m, twin, a)
            if equals(m, a, twin) and equals(m, twin, c):
                assert equals(m, a, c)

    def test_x_action_invariance(self):
        rng = Random(71)
        for _ in range(30):
            g = random_graph(rng, 4, 6)
            m = graded_module(g)
            a = random_staged(rng, m)
            b = random_staged(rng, m)
            same = equals(m, a, b)
            assert equals(m, x_action(a, 1), x_action(b, 1)) == same

    def test_relation_is_zero_element(self):
        rng = Random(73)
        for _ in range(30):
            g = random_graph(rng, 4, 6, sink_free=True)
            m = graded_module(g)
            v = rng.choice(g.vertices)
            assert equals(m, m.relation(v, rng.randint(-3, 3)),
                          StagedVector.zero())

    def test_nonpositive_weight_rejected(self):
        g = graph_from_dict({"vertices": ["u"], "edges": [
            {"id": "e", "src": "u", "dst": "u", "weight": -1}]})
        with pytest.raises(ValueError):
            graded_module(g)


class TestGradedModule:
    """The module keeps only its graph; everything else is read from it."""

    def test_graph_is_the_only_field(self):
        assert [f.name for f in fields(GradedModule)] == ["graph"]

    def test_constructor_rejects_weight_zero(self):
        g = graph_from_dict({"vertices": ["u", "v"], "edges": [
            {"id": "e", "src": "u", "dst": "v", "weight": 0},
            {"id": "f", "src": "v", "dst": "v"}]})
        with pytest.raises(ValueError, match="non-positive weight"):
            GradedModule(g)

    def test_derived_properties_match_graph(self):
        rng = Random(79)
        for _ in range(20):
            g = random_graph(rng, 5, 7)
            m = GradedModule(g)
            assert m == graded_module(g)
            assert m.regular == tuple(bool(g.out_edges(v))
                                      for v in g.vertices)
            assert m.stabilization_bound == len(g.vertices)
            assert m.max_weight == g.max_weight()

    def test_derived_properties_read_only(self, weighted_loop):
        m = GradedModule(weighted_loop)
        assert (m.regular, m.stabilization_bound, m.max_weight) == \
            ((True,), 1, 2)
        for name in ("graph", "regular", "stabilization_bound",
                     "max_weight"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)

    def test_merging_sources_equal(self):
        """u -> w, v -> w, w -> w: a(u,0) and a(v,0) both expand to
        a(w,-1), which no constructor argument can contradict now."""
        g = graph_from_dict({"vertices": ["u", "v", "w"], "edges": [
            {"id": "e", "src": "u", "dst": "w"},
            {"id": "f", "src": "v", "dst": "w"},
            {"id": "h", "src": "w", "dst": "w"}]})
        m = GradedModule(g)
        assert equals(m, parse_staged_expression(m, "a(u,0)"),
                      parse_staged_expression(m, "a(v,0)"))


def window_relation_matrix(m, lo, hi):
    """Relations materialized inside the window [lo, hi], flattened."""
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


class TestWindowOracle:
    def test_agrees_with_equals(self):
        rng = Random(79)
        checked = 0
        for _ in range(40):
            g = random_graph(rng, 4, 6)
            m = graded_module(g)
            a = random_staged(rng, m)
            b = random_staged(rng, m)
            d = a - b
            if d.is_zero():
                assert equals(m, a, b)
                continue
            depth = m.stabilization_bound * m.max_weight
            lo = d.min_stage() - depth
            hi = d.max_stage() + depth
            matrix, pos, n = window_relation_matrix(m, lo, hi)
            flat = [0] * ((hi - lo + 1) * n)
            for stage, vec in d.stages:
                for i, c in enumerate(vec):
                    flat[pos[stage] * n + i] += c
            assert in_column_span(matrix, tuple(flat)) == equals(m, a, b)
            checked += 1
        assert checked >= 20


def subdivide(g):
    """g with each weight-w edge replaced by a chain of w unit edges through
    w - 1 fresh vertices, listed after g's own. Each fresh vertex is
    regular with one out-edge, so a_v(n) -> a_v(n) is an isomorphism of the
    graded modules, and the unit-weight bound on the new graph, its vertex
    count n + sum(w_e - 1), decides equality."""
    vertices = list(g.vertices)
    edges = []
    for e in g.edges:
        src = e.src
        for k in range(1, e.weight):
            mid = "%s_%d" % (e.eid, k)
            vertices.append(mid)
            edges.append({"id": mid, "src": src, "dst": mid})
            src = mid
        edges.append({"id": e.eid, "src": src, "dst": e.dst})
    return graph_from_dict({"vertices": vertices, "edges": edges})


@st.composite
def merging_chains(draw):
    """A weighted graph with two chains of fresh vertices added, p0 -> p1
    -> ... and q0 -> q1 -> ..., whose edges have the same weights and
    whose last edges end at the same vertex of the graph. So a(p0, n) =
    a(q0, n), but only a pushdown past both chains shows it."""
    d = graph_to_dict(draw(weighted_graphs()))
    end = draw(st.sampled_from(d["vertices"]))
    weights = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    for side in "pq":
        names = ["%s%d" % (side, k) for k in range(len(weights))] + [end]
        d["vertices"] += names[:-1]
        d["edges"] += [{"id": "%s_e%d" % (side, k), "src": names[k],
                        "dst": names[k + 1], "weight": w}
                       for k, w in enumerate(weights)]
    return graph_from_dict(d)


def lift(m, v):
    """v with its vectors padded by zeros at m's extra vertices."""
    return StagedVector(stages=tuple(
        (s, vec + (0,) * (m.nvertices - len(vec))) for s, vec in v.stages))


def delay_lines(g):
    """The unit-weight delay-line graph of g: each vertex u gets a chain
    u~k -> ... -> u~1 -> u of k = w_in(u) - 1 fresh vertices, w_in(u) the
    largest weight of an edge into u, listed after g's own; an edge of
    weight w into u becomes a unit edge into u~(w-1), or into u when
    w = 1. The graded modules are isomorphic through a_v(n) -> a_v(n)."""
    w_in = {v: 1 for v in g.vertices}
    for e in g.edges:
        w_in[e.dst] = max(w_in[e.dst], e.weight)
    vertices = list(g.vertices)
    edges = []
    for u in g.vertices:
        below = u
        for i in range(1, w_in[u]):
            name = "%s~%d" % (u, i)
            vertices.append(name)
            edges.append({"id": name, "src": name, "dst": below})
            below = name
    for e in g.edges:
        dst = e.dst if e.weight == 1 else "%s~%d" % (e.dst, e.weight - 1)
        edges.append({"id": e.eid, "src": e.src, "dst": dst})
    return graph_from_dict({"vertices": vertices, "edges": edges})


def regular_count(g):
    return sum(1 for v in g.vertices if g.out_edges(v))


class TestDecisionDepth:
    """``equals`` on weighted graphs with and without sinks against three
    independent results: equality on the unit-weight subdivision and on
    the delay-line graph, and a pushdown 3 * n * max_weight stages deep."""

    @staticmethod
    def check(m, a, b):
        verdict = equals(m, a, b)
        for other in (subdivide(m.graph), delay_lines(m.graph)):
            m2 = graded_module(other)
            assert equals(m2, lift(m2, a), lift(m2, b)) is verdict
        d = a - b
        if not d.is_zero():
            target = d.min_stage() - 3 * m.nvertices * m.max_weight
            assert pushdown(m, d, target).is_zero() is verdict
        return verdict

    @settings(max_examples=150)
    @given(weighted_graphs(), st.data())
    def test_random_pairs(self, g, data):
        m = graded_module(g)
        elements = staged_elements(m, max_stages=4, stage_range=4)
        self.check(m, data.draw(elements), data.draw(elements))

    @settings(max_examples=150)
    @given(weighted_graphs(), st.data())
    def test_pairs_equal_by_relations(self, g, data):
        m = graded_module(g)
        a = data.draw(staged_elements(m, max_stages=4, stage_range=4))
        regular = [v for i, v in enumerate(g.vertices) if m.regular[i]]
        b = a
        for vertex, stage, c in data.draw(st.lists(st.tuples(
                st.sampled_from(regular or [None]), st.integers(-4, 4),
                st.integers(-2, 2)), max_size=3)):
            if vertex is not None:
                b = b + c * m.relation(vertex, stage)
        assert self.check(m, a, b) is True

    @settings(max_examples=150)
    @given(merging_chains(), st.integers(-3, 3), st.integers(0, 2))
    def test_merging_chains(self, g, stage, offset):
        m = graded_module(g)
        verdict = self.check(m, m.generator("p0", stage),
                             m.generator("q0", stage + offset))
        assert verdict or offset

    def test_unit_weight_stretch_exceeds_weighted_depth(self):
        """Three loops of weight 5 at one vertex: the subdivision's bound
        (13 stages) exceeds the weighted one (5 stages)."""
        g = graph_from_dict({"vertices": ["u"], "edges": [
            {"id": k, "src": "u", "dst": "u", "weight": 5}
            for k in ("p", "q", "r")]})
        m = graded_module(g)
        assert _decision_depth(m) == 5
        assert graded_module(subdivide(g)).nvertices == 13
        assert self.check(m, m.generator("u", 5), m.generator("u", 0, 3))
        assert not self.check(m, m.generator("u", 4), m.generator("u", 0, 3))


class TestDelayLineDepth:
    """The decision depth is the regular-vertex count of the delay-line
    graph, and never more than the old bound n * max_weight;
    ``TestDecisionDepth.check`` compares the verdicts on the two graphs."""

    @settings(max_examples=200)
    @given(weighted_graphs(max_weight=8))
    def test_depth_is_delay_line_regular_count(self, g):
        m = graded_module(g)
        depth = _decision_depth(m)
        assert depth == regular_count(delay_lines(g))
        assert depth <= m.nvertices * m.max_weight

    def test_unit_weight_depth_is_regular_count(self, single_sink):
        g = graph_from_dict({"vertices": ["u", "v", "w"], "edges": [
            {"id": "e", "src": "u", "dst": "v"},
            {"id": "f", "src": "v", "dst": "w"}]})
        assert _decision_depth(graded_module(g)) == 2
        assert _decision_depth(graded_module(single_sink)) == 0

    @pytest.mark.parametrize("n, w, depth", [(20, 32, 51), (10, 64, 73),
                                             (20, 16, 35), (10, 32, 41)])
    def test_heavy_shapes(self, n, w, depth):
        """The benchmark's heavy shapes: n regular vertices plus w - 1
        delay stages into the heavy edge's target, against n * w."""
        g = heavy_graph(Random(1000 * n + w), n, w)
        m = graded_module(g)
        assert _decision_depth(m) == depth
        assert depth == regular_count(delay_lines(g))


def covering_window_graph(g, lo, hi):
    """The covering graph on stages lo..hi: the copy (v, s) keeps the
    out-edges of v, each to (r(e), s - w(e)), when all of them land in the
    window, and is a sink otherwise."""
    vertices, edges = [], []
    for s in range(lo, hi + 1):
        for v in g.vertices:
            vertices.append("%s@%d" % (v, s))
            out = g.out_edges(v)
            if all(s - e.weight >= lo for e in out):
                edges += [{"id": "%s@%d" % (e.eid, s), "src": "%s@%d" % (v, s),
                           "dst": "%s@%d" % (e.dst, s - e.weight)}
                          for e in out]
    return graph_from_dict({"vertices": vertices, "edges": edges})


class TestCoveringWindowOracle:
    """Equality against h0 of a truncated covering graph, decided by Smith
    forms and not by any pushdown. The window reaches
    n * max_weight + max_weight + 1 stages below the difference, so every
    relation the old, deeper pushdown applied lies inside it."""

    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs(max_vertices=3, max_weight=3), st.data())
    def test_agrees_with_equals(self, g, data):
        m = graded_module(g)
        elements = staged_elements(m, max_stages=3, stage_range=3)
        a = data.draw(elements)
        b = data.draw(st.one_of(elements, st.just(a)))
        if data.draw(st.booleans()):
            regular = [v for i, v in enumerate(g.vertices) if m.regular[i]]
            if regular:
                vertex = data.draw(st.sampled_from(regular))
                b = b + m.relation(vertex, data.draw(st.integers(-3, 3)))
        d = a - b
        if d.is_zero():
            assert equals(m, a, b)
            return
        wmax = m.max_weight
        lo = d.min_stage() - m.nvertices * wmax - wmax - 1
        hi = d.max_stage()
        cover = covering_window_graph(g, lo, hi)
        vec = [0] * len(cover.vertices)
        for s, stage_vec in d.stages:
            for i, c in enumerate(stage_vec):
                vec[(s - lo) * m.nvertices + i] = c
        zero = not any(h0_class(cover, vec))
        assert equals(m, a, b) is zero


class TestPositivity:
    def test_acceptance_shape(self, graph_f):
        m = graded_module(graph_f)
        v = m.generator("u", 0) - m.generator("u", -1)
        assert is_positive(m, v, 2) is Verdict.POSITIVE
        assert is_positive(m, v, 0) is Verdict.POSITIVE

    def test_zero_detected(self, graph_f):
        m = graded_module(graph_f)
        v = m.generator("u", 1) - m.generator("u", 0, coeff=2)
        assert is_positive(m, v, 0) is Verdict.ZERO

    def test_negative(self, graph_f):
        m = graded_module(graph_f)
        v = m.generator("u", -1) - m.generator("u", 0)
        assert is_positive(m, v, 0) is Verdict.NEGATIVE

    def test_sink_unknown_forever(self, single_sink):
        m = graded_module(single_sink)
        v = m.generator("s", 1) - m.generator("s", 0)
        assert is_positive(m, v, 20) is Verdict.UNKNOWN

    def test_cap_validation(self, graph_f):
        m = graded_module(graph_f)
        with pytest.raises(ValueError):
            is_positive(m, StagedVector.zero(), -1)

    def test_triple_cap_validation(self, graph_f):
        t = dimension_triple(graph_f)
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            t.is_positive(t.element((1,)), -1)
        assert t.is_positive(t.element((1,)), 0) is Verdict.POSITIVE

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
    def test_non_int_cap_rejected(self, graph_f, bad):
        m = graded_module(graph_f)
        v = m.generator("u", 0) - m.generator("u", -1)
        with pytest.raises(ValueError, match="caps must be ints"):
            is_positive(m, v, bad)
        t = dimension_triple(graph_f)
        with pytest.raises(ValueError, match="caps must be ints"):
            t.is_positive(t.element((1,)), bad)

    def test_int_subclass_cap_accepted(self, graph_f):
        class Tagged(int):
            pass

        m = graded_module(graph_f)
        v = m.generator("u", 0) - m.generator("u", -1)
        assert is_positive(m, v, Tagged(2)) is Verdict.POSITIVE
        t = dimension_triple(graph_f)
        assert t.is_positive(t.element((1,)), Tagged(0)) is Verdict.POSITIVE

    def test_no_flips_with_growing_cap(self):
        rng = Random(83)
        for _ in range(30):
            g = random_graph(rng, 3, 6, sink_free=True)
            m = graded_module(g)
            v = random_staged(rng, m)
            verdicts = [is_positive(m, v, cap) for cap in (0, 1, 2, 5, 10)]
            settled = None
            for verdict in verdicts:
                if settled is None:
                    if verdict is not Verdict.UNKNOWN:
                        settled = verdict
                else:
                    assert verdict is settled


def reference_is_positive(m, v, cap):
    """``graded.is_positive`` as it was with an equality pre-pass before
    its walk: the body is kept verbatim."""
    cap = _require_int(cap, "caps")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if v.is_zero() or equals(m, v, StagedVector.zero()):
        return Verdict.ZERO
    base = v.min_stage()
    w = pushdown(m, v, base)
    for k in range(cap + 1):
        if k:
            # heavy edges may already have pushed support below base - k
            w = pushdown(m, w, min(base - k, w.min_stage()))
        if w.is_nonneg():
            return Verdict.POSITIVE
        if w.is_nonpos():
            return Verdict.NEGATIVE
    return Verdict.UNKNOWN


def reference_triple_is_positive(t, a, cap):
    """``DimensionTriple.is_positive`` as it was with a vanishing walk
    before its sign walk: the body is kept verbatim, with ``self`` read
    as t and its ``_vanishes`` helper written in."""
    cap = _require_int(cap, "caps")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    vec, _ = a
    if all(x == 0 for x in mat_pow_apply(t.at, vec, t.rank)):
        return Verdict.ZERO
    cur = tuple(vec)
    for _ in range(cap + 1):
        if all(x >= 0 for x in cur):
            return Verdict.POSITIVE
        if all(x <= 0 for x in cur):
            return Verdict.NEGATIVE
        cur = t.at.apply(cur)
    return Verdict.UNKNOWN


def verdict_or_error(test, *args):
    """The verdict, or the type and message of the error raised."""
    try:
        return test(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@st.composite
def relation_combinations(draw, m, stage_range=6):
    """A zero element: up to four integer multiples of relations."""
    regular = [v for v, r in zip(m.graph.vertices, m.regular) if r]
    out = StagedVector.zero()
    for _ in range(draw(st.integers(0, 4)) if regular else 0):
        rel = m.relation(draw(st.sampled_from(regular)),
                         draw(st.integers(-stage_range, stage_range)))
        out = out + rel.scale(draw(st.integers(-3, 3)))
    return out


@st.composite
def unit_sink_free_graphs(draw, max_vertices=5):
    """1 to max_vertices vertices, each the source of 1-3 unit edges."""
    n = draw(st.integers(1, max_vertices))
    names = ["v%d" % i for i in range(n)]
    edges = []
    for i in range(n):
        for _ in range(draw(st.integers(1, 3))):
            edges.append({"id": "e%d" % len(edges), "src": names[i],
                          "dst": names[draw(st.integers(0, n - 1))]})
    return graph_from_dict({"vertices": names, "edges": edges})


CAPS = range(13)


class TestOneWalkMatchesReference:
    """The one-walk order tests give the verdicts of the two-walk ones
    they replaced, kept above as references, for every cap 0-12."""

    @settings(max_examples=150)
    @given(weighted_graphs(max_vertices=5), st.data())
    def test_graded_elements(self, g, data):
        m = graded_module(g)
        v = data.draw(staged_elements(m, max_stages=4, stage_range=4))
        v = v + data.draw(relation_combinations(m))
        for cap in CAPS:
            assert is_positive(m, v, cap) is reference_is_positive(m, v, cap)

    @settings(max_examples=150)
    @given(weighted_graphs(max_vertices=5), st.data())
    def test_graded_zero_elements(self, g, data):
        m = graded_module(g)
        v = data.draw(relation_combinations(m))
        for cap in CAPS:
            assert is_positive(m, v, cap) is Verdict.ZERO
            assert reference_is_positive(m, v, cap) is Verdict.ZERO

    @settings(max_examples=150)
    @given(weighted_graphs(max_vertices=5), st.data())
    def test_graded_sign_definite_plus_zero(self, g, data):
        """A relation combination plus a few generators of one sign:
        Positive or Negative once the walk has undone the combination."""
        m = graded_module(g)
        sign = data.draw(st.sampled_from((1, -1)))
        v = data.draw(relation_combinations(m))
        for _ in range(data.draw(st.integers(1, 3))):
            v = v + m.generator(data.draw(st.sampled_from(g.vertices)),
                                data.draw(st.integers(-4, 4)), coeff=sign)
        for cap in CAPS:
            assert is_positive(m, v, cap) is reference_is_positive(m, v, cap)

    @settings(max_examples=150)
    @given(unit_sink_free_graphs(), st.data())
    def test_triple_vectors(self, g, data):
        t = dimension_triple(g)
        vec = data.draw(st.lists(st.integers(-3, 3), min_size=t.rank,
                                 max_size=t.rank))
        for row in t.eventual_kernel_basis.rows:
            c = data.draw(st.integers(-2, 2))
            vec = [x + c * y for x, y in zip(vec, row)]
        a = t.element(vec, data.draw(st.integers(-2, 2)))
        for cap in CAPS:
            assert t.is_positive(a, cap) is \
                reference_triple_is_positive(t, a, cap)

    @settings(max_examples=100)
    @given(unit_sink_free_graphs(), st.data())
    def test_triple_eventual_kernel_is_zero(self, g, data):
        t = dimension_triple(g)
        vec = [0] * t.rank
        for row in t.eventual_kernel_basis.rows:
            c = data.draw(st.integers(-2, 2))
            vec = [x + c * y for x, y in zip(vec, row)]
        for cap in CAPS:
            assert t.is_positive((vec, 0), cap) is Verdict.ZERO
            assert reference_triple_is_positive(t, (vec, 0), cap) \
                is Verdict.ZERO


class TestOneWalkStructure:
    @settings(max_examples=150)
    @given(weighted_graphs(max_vertices=5), st.data())
    def test_pushdown_chain_ends_at_the_decision(self, g, data):
        """The targets are base, then min(base - k, support minimum) for
        k = 1, 2, ...; a walk that decides at step k makes no pushdown
        after it, and only Unknown or a late Zero pushes on to the
        decision depth. ``equals`` is never called."""
        m = graded_module(g)
        v = data.draw(staged_elements(m, max_stages=4, stage_range=4))
        v = v + data.draw(relation_combinations(m))
        cap = data.draw(st.integers(0, 12))
        calls = []

        def spy(m_, w, target):
            out = pushdown(m_, w, target)
            calls.append((w, target, out))
            return out

        def no_equals(*args):
            raise AssertionError("equals called")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graded, "pushdown", spy)
            mp.setattr(graded, "equals", no_equals)
            verdict = is_positive(m, v, cap)
        if v.is_zero():
            assert verdict is Verdict.ZERO and not calls
            return
        base = v.min_stage()
        w = v
        for k, (arg, target, out) in enumerate(calls):
            assert arg == w
            last = k == len(calls) - 1
            decided = out.is_zero() or out.is_nonneg() or out.is_nonpos()
            if k <= cap:
                assert target == min(base - k, w.min_stage())
                assert decided is last
            else:
                assert last and k == cap + 1
                assert target == min(base - _decision_depth(m),
                                     w.min_stage())
            w = out
        k = len(calls) - 1
        if k == cap + 1:
            assert verdict is (Verdict.ZERO if w.is_zero()
                               else Verdict.UNKNOWN)
        elif w.is_zero():
            assert verdict is Verdict.ZERO
        else:
            assert verdict is (Verdict.POSITIVE if w.is_nonneg()
                               else Verdict.NEGATIVE)

    def test_positive_at_the_top_stage_pushes_once(self, monkeypatch):
        """A nonnegative element is decided at its own support minimum:
        one pushdown to it, where the equality pre-pass pushed 64 stages
        further down first."""
        g = heavy_graph(Random(5), 10, 32)
        m = graded_module(g)
        targets = []

        def spy(m_, w, target):
            targets.append(target)
            return pushdown(m_, w, target)

        monkeypatch.setattr(graded, "pushdown", spy)
        v = m.generator("v0", 3) + m.generator("v1", 1)
        assert _decision_depth(m) > 1
        assert is_positive(m, v, 10) is Verdict.POSITIVE
        assert targets == [1]

    def test_h0_is_positive_runs_at_most_one_search(self, monkeypatch):
        """Per call, at most one breadth-first search starts; unseparated
        vectors whose search from vec fails, which also searched from -vec
        before, are among the calls."""
        searches = []

        class Counted(deque):
            def __init__(self, items):
                searches.extend(items)
                super().__init__(items)

        monkeypatch.setattr(homology, "deque", Counted)
        rng = Random(43)
        futile = 0
        for _ in range(200):
            g = random_graph(rng, 5, 8)
            n = len(g.vertices)
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            for cap in (0, 1, 5, 20):
                searches.clear()
                verdict = h0_is_positive(g, v, cap)
                assert len(searches) <= 1
                futile += verdict is Verdict.UNKNOWN and searches == [v]
        assert futile > 0


BAD_CAPS = [(-1, "cap must be nonnegative"),
            (True, "caps must be ints, got True"),
            (False, "caps must be ints, got False"),
            (2.0, "caps must be ints, got 2.0"),
            (-1.5, "caps must be ints, got -1.5"),
            ("2", "caps must be ints, got '2'")]


class TestOrderTestErrors:
    """The three order tests raise the messages they raised with two
    walks, in the same order: the cap first, then the element."""

    @pytest.mark.parametrize("cap, message", BAD_CAPS)
    def test_bad_caps(self, graph_e, cap, message):
        m = graded_module(graph_e)
        t = dimension_triple(graph_e)
        good = m.generator("u", 0) - m.generator("v", -1)
        # a wrong-length element still reports the cap
        bad = sv({0: (1, -1, 0)})
        for args in ((m, good, cap), (m, bad, cap)):
            assert verdict_or_error(is_positive, *args) == \
                (ValueError, message) == \
                verdict_or_error(reference_is_positive, *args)
        for a in (((1, -1), 0), ((1, -1, 0), 0)):
            assert verdict_or_error(t.is_positive, a, cap) == \
                (ValueError, message) == \
                verdict_or_error(reference_triple_is_positive, t, a, cap)
        for vec in ((1, -1), (1, -1, 0)):
            assert verdict_or_error(h0_is_positive, graph_e, vec, cap) == \
                (ValueError, message)

    def test_int_subclass_caps(self, graph_e):
        class Tagged(int):
            pass

        m = graded_module(graph_e)
        t = dimension_triple(graph_e)
        v = m.generator("u", 0) - m.generator("v", 0)
        for cap in (0, 3):
            assert is_positive(m, v, Tagged(cap)) is \
                reference_is_positive(m, v, cap)
            assert t.is_positive(((1, -1), 0), Tagged(cap)) is \
                reference_triple_is_positive(t, ((1, -1), 0), cap)
            assert h0_is_positive(graph_e, (1, -1), Tagged(cap)) is \
                h0_is_positive(graph_e, (1, -1), cap)

    @pytest.mark.parametrize("mapping, message", [
        ({0: (1, 0), 1: (1, 0, 0)},
         "stage 1: vector length 3 does not match 2 vertices"),
        ({-1: (1,), 0: (1, 0)},
         "stage -1: vector length 1 does not match 2 vertices"),
        ({-2: (0, 1, 0), 3: (2,)},
         "stage -2: vector length 3 does not match 2 vertices"),
        ({0: (1, -1, 2)},
         "stage 0: vector length 3 does not match 2 vertices"),
    ])
    def test_mixed_length_stage_vectors(self, graph_e, mapping, message):
        m = graded_module(graph_e)
        v = sv(mapping)
        for cap in (0, 2):
            assert verdict_or_error(is_positive, m, v, cap) == \
                (ValueError, message) == \
                verdict_or_error(reference_is_positive, m, v, cap)

    @pytest.mark.parametrize("vec", [
        (0, 0, 0), (1, 0, 0), (-1, 0, 0), (1, -1, 0), (0,), (1,), (-2,),
        (), (0.5, 0, 0), (0, True)])
    def test_triple_wrong_length_vectors(self, graph_e, vec):
        t = dimension_triple(graph_e)
        for cap in (0, 3):
            got = verdict_or_error(t.is_positive, (vec, 0), cap)
            assert got == verdict_or_error(reference_triple_is_positive, t,
                                           (vec, 0), cap)
            assert got[0] is ValueError

    @pytest.mark.parametrize("vec", [(), (0,), (1,), (-1,), (0, 0),
                                     (1, -1), (2, 0, -1)])
    def test_triple_without_vertices(self, vec):
        """The 0 x 0 transposed adjacency: the empty vector is Zero, and
        any other length raises, whatever its entries' signs."""
        t = dimension_triple(graph_from_dict({"vertices": [], "edges": []}))
        expect = Verdict.ZERO if not vec else (
            ValueError,
            "dimension mismatch: (0, 0) applied to length %d" % len(vec))
        for cap in (0, 3):
            assert verdict_or_error(t.is_positive, (vec, 0), cap) == expect

    @pytest.mark.parametrize("vertices, loops", [([], 0), (["u"], 1),
                                                 (["u", "v"], 2)])
    def test_triple_equal_wrong_length_at_level_difference_zero(
            self, vertices, loops):
        """``equal`` checks both vectors before any walk, also where the
        walk has length 0: equal levels, or the vertex-less triple."""
        t = dimension_triple(graph_from_dict({"vertices": vertices, "edges": [
            {"id": "e%d" % i, "src": v, "dst": v}
            for i, v in enumerate(vertices)]}))
        good = (1,) * loops
        for bad in ((), (1,), (0, 0), (1, -2, 0)):
            if len(bad) == loops:
                continue
            message = ("dimension mismatch: (%d, %d) applied to length %d"
                       % (loops, loops, len(bad)))
            for a, b in (((good, 0), (bad, 0)), ((bad, 0), (good, 0)),
                         ((bad, 3), (good, 3)), ((good, 1), (bad, 0))):
                with pytest.raises(ValueError, match=re.escape(message)):
                    t.equal(a, b)
        assert t.equal((good, 0), (good, 0))

    def test_triple_equal_checks_first_vector_first(self, single_loop,
                                                    monkeypatch):
        """Both lengths are checked before any walk, the first vector's
        first."""
        t = dimension_triple(single_loop)
        walks = []
        monkeypatch.setattr(graded, "mat_pow_apply",
                            lambda *args: walks.append(args))
        with pytest.raises(ValueError, match="applied to length 2$"):
            t.equal(((1,), 5), ((1, 2), 0))
        assert walks == []
        with pytest.raises(ValueError, match="applied to length 2$"):
            t.equal(((1, 2), 0), ((1, 2, 3), 0))
        with pytest.raises(ValueError, match="applied to length 3$"):
            t.equal(((1,), 0), ((1, 2, 3), 0))
        with pytest.raises(ValueError, match="applied to length 2$"):
            t.equal(((1, 2), 0), ((1,), 0))


class TestExactSequence:
    def test_fixture_reports(self, graph_e, graph_f, single_sink, single_loop,
                             triple_loop, weighted_loop):
        for g in (graph_e, graph_f, single_sink, single_loop, triple_loop,
                  weighted_loop):
            rep = verify_exact_sequence(g)
            assert rep["sigma_lambda_zero"] is True
            assert rep["coker_lambda_equals_h0"] is True
            assert rep["h0_group"] == h0(g)

    def test_graph_without_vertices(self):
        rep = verify_exact_sequence(graph_from_dict({"vertices": [],
                                                     "edges": []}))
        assert rep["sigma_lambda_zero"] is True
        assert rep["coker_lambda_equals_h0"] is True
        assert rep["h0_group"].describe() == "0"

    def test_sigma_lambda_zero_on_arbitrary_elements(self):
        rng = Random(89)
        for _ in range(40):
            g = random_graph(rng, 4, 6)
            m = graded_module(g)
            v = random_staged(rng, m)
            image = sigma_map(lambda_map(v))
            assert all(x == 0 for x in image)

    def test_sigma_collapses_stages(self, graph_e):
        m = graded_module(graph_e)
        v = m.generator("u", 2, coeff=3) + m.generator("v", -1, coeff=-1)
        assert sigma_map(v) == (3, -1)
        assert sigma_map(StagedVector.zero()) == ()

    def test_corpus_sample(self):
        for i, g in enumerate(enumerate_multigraphs(3, 4)):
            if i % 19:
                continue
            rep = verify_exact_sequence(g)
            assert rep["sigma_lambda_zero"] is True
            assert rep["coker_lambda_equals_h0"] is True

    @settings(max_examples=150)
    @given(weighted_graphs(max_weight=9))
    def test_touched_stages_match_full_window(self, g):
        rep = verify_exact_sequence(g)
        assert rep["coker_lambda_group"] == full_window_coker_lambda(g)
        assert rep["coker_lambda_equals_h0"] is True

    @given(weighted_graphs(max_vertices=12, max_weight=9))
    def test_sample_combination_is_the_n_fold_sum(self, g):
        """The last sample element, built in one pass, is the sum of the
        weighted generators added one at a time."""
        m = graded_module(g)
        combo = StagedVector.zero()
        for i, v in enumerate(g.vertices):
            combo = combo + m.generator(v, i - 1, coeff=2 * i - 3)
        samples = list(_sample_elements(m))
        assert len(samples) == 5 * m.nvertices + 1
        assert samples[-1] == combo
        assert verify_exact_sequence(g)["sigma_lambda_zero"] is True


def full_window_coker_lambda(g):
    """The cokernel of (x - 1) from every stage between 1 - max_weight and
    1, as ``verify_exact_sequence`` built it before it kept only the
    stages a relation touches."""
    m = graded_module(g)
    n = m.nvertices
    stages = list(range(1 - m.max_weight, 2))
    pos = {s: i for i, s in enumerate(stages)}
    rows = {}
    ncols = 0

    def put(stage, vidx, x):
        row = rows.setdefault(pos[stage] * n + vidx, {})
        row[ncols] = row.get(ncols, 0) + x

    for j in range(n):
        if m.regular[j]:
            put(1, j, 1)
            for tgt, w in m.graph.out_arcs[j]:
                put(1 - w, tgt, -1)
            ncols += 1
    for s in stages[:-1]:
        for j in range(n):
            put(s + 1, j, 1)
            put(s, j, -1)
            ncols += 1
    nrows = len(stages) * n
    return cokernel(IntMatrix(tuple(
        tuple(rows.get(i, {}).get(j, 0) for j in range(ncols))
        for i in range(nrows)), ncols))


class TestDimensionTriple:
    def test_doubling_scalar_rule(self, graph_f):
        t = dimension_triple(graph_f)
        # (v, n) = (w, m) iff 2^m v = 2^n w
        assert t.equal(t.element((1,), 0), t.element((2,), 1))
        assert t.equal(t.element((4,), 2), t.element((1,), 0))
        assert not t.equal(t.element((3,), 0), t.element((1,), -1))

    def test_unimodular_cycle(self, graph_e):
        t = dimension_triple(graph_e)
        assert t.at.rows == ((1, 1), (1, 0))
        assert t.eventual_kernel_basis.nrows == 0
        assert t.group().describe() == "Z^2"

    def test_identity_loop(self, single_loop):
        t = dimension_triple(single_loop)
        assert t.group().describe() == "Z"
        elem = t.element((5,), 0)
        assert t.automorphism(elem) == elem

    @pytest.mark.parametrize("bad", [0.5, False, "1"])
    def test_element_rejects_non_int_entries(self, graph_e, bad):
        t = dimension_triple(graph_e)
        with pytest.raises(ValueError, match="vector entries must be ints"):
            t.element((1, bad), 0)

    @pytest.mark.parametrize("vec", [(), (1,), (1, 0, 0)])
    def test_wrong_length_message(self, graph_e, vec):
        """``element`` and ``from_staged`` report a wrong length as
        ``equal``, ``is_positive`` and ``mat_pow_apply`` do, whatever the
        stage's power."""
        t = dimension_triple(graph_e)
        message = "^%s$" % re.escape(
            "dimension mismatch: (2, 2) applied to length %d" % len(vec))
        with pytest.raises(ValueError, match=message):
            t.element(vec, 0)
        if any(vec):
            for staged in (sv({0: vec}), sv({0: (1, 0), 2: vec})):
                with pytest.raises(ValueError, match=message):
                    t.from_staged(staged)

    def test_element_accepts_int_subclass(self, graph_e):
        class Tagged(int):
            pass

        t = dimension_triple(graph_e)
        assert t.element((Tagged(1), 2), 0) == ((1, 2), 0)

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, "1"])
    def test_element_rejects_non_int_level(self, graph_e, bad):
        t = dimension_triple(graph_e)
        with pytest.raises(ValueError, match="levels must be ints"):
            t.element((1, 0), bad)

    def test_element_level_int_subclass_stored_as_int(self, graph_e):
        class Tagged(int):
            pass

        level = dimension_triple(graph_e).element((1, 0), Tagged(2))[1]
        assert level == 2 and type(level) is int

    @pytest.mark.parametrize("bad", ["1", 0.0, 0.5, True, False, None])
    def test_equal_rejects_non_int_level(self, graph_e, bad):
        t = dimension_triple(graph_e)
        for a, b in ((((1, 0), 0), ((1, 0), bad)),
                     (((1, 0), bad), ((1, 0), 0))):
            with pytest.raises(ValueError, match="levels must be ints"):
                t.equal(a, b)

    @pytest.mark.parametrize("bad", ["x", 0.0, 0.5, True, False, None])
    def test_is_positive_rejects_non_int_level(self, graph_e, bad):
        t = dimension_triple(graph_e)
        with pytest.raises(ValueError, match="levels must be ints"):
            t.is_positive(((1, 0), bad), 2)

    def test_order_queries_accept_int_subclass_levels(self, graph_e):
        class Tagged(int):
            pass

        t = dimension_triple(graph_e)
        # (v, n) and (A^T v, n + 1) name the same element
        assert t.equal(((1, 0), Tagged(0)), ((1, 1), Tagged(1)))
        assert not t.equal(((1, 0), Tagged(0)), ((1, 0), Tagged(1)))
        assert t.is_positive(((1, 0), Tagged(3)), 2) is Verdict.POSITIVE

    def test_rejections(self, single_sink, weighted_loop):
        with pytest.raises(ValueError):
            dimension_triple(single_sink)
        with pytest.raises(ValueError):
            dimension_triple(weighted_loop)

    def test_embedding_respects_generators(self, graph_e):
        m = graded_module(graph_e)
        t = dimension_triple(graph_e)
        assert t.from_staged(m.generator("u", 2)) == ((1, 0), -2)
        assert t.from_staged(m.generator("v", -1)) == ((0, 1), 1)

    def test_agreement_with_graded_equality(self):
        rng = Random(97)
        pairs = 0
        graphs = 0
        while graphs < 20:
            g = random_graph(rng, 4, 8, sink_free=True)
            graphs += 1
            m = graded_module(g)
            t = dimension_triple(g)
            for _ in range(30):
                a = random_staged(rng, m)
                b = random_staged(rng, m)
                lhs = equals(m, a, b)
                rhs = t.equal(t.from_staged(a), t.from_staged(b))
                assert lhs == rhs
                pairs += 1
        assert pairs >= 500

    def test_positivity_never_contradicts_graded(self):
        rng = Random(101)
        for _ in range(40):
            g = random_graph(rng, 3, 6, sink_free=True)
            m = graded_module(g)
            t = dimension_triple(g)
            v = random_staged(rng, m)
            gv = is_positive(m, v, 8)
            tv = t.is_positive(t.from_staged(v), 8)
            assert (gv is Verdict.ZERO) == (tv is Verdict.ZERO)
            assert not (gv is Verdict.POSITIVE and tv is Verdict.NEGATIVE)
            assert not (gv is Verdict.NEGATIVE and tv is Verdict.POSITIVE)

    def test_group_matches_cokernel(self):
        """The free quotient by the eventual kernel is the cokernel of its
        basis, which the group was computed as by a Smith form."""
        rng = Random(103)
        kernels = 0
        for _ in range(300):
            t = dimension_triple(random_graph(rng, 7, 14, sink_free=True))
            assert t.group() == cokernel(t.eventual_kernel_basis.transpose())
            kernels += t.eventual_kernel_basis.nrows > 0
        assert kernels > 50

    def test_automorphism_commutes_with_equality(self, graph_e):
        t = dimension_triple(graph_e)
        a = t.element((2, -1), 0)
        b = t.element((1, 1), 1)
        if t.equal(a, b):
            assert t.equal(t.automorphism(a), t.automorphism(b))


def reference_parse_staged_expression(m, text):
    """``parse_staged_expression`` as it was before the expression
    tokenizer was shared: the body is kept verbatim."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty expression")
    total = StagedVector.zero()
    sign = 1
    coeff = None
    # start: term may begin; after_sign/after_coeff: term must complete;
    # after_term: only a separator may follow
    state = "start"
    for tok in tokens:
        if tok in ("+", "-"):
            if state not in ("start", "after_term"):
                raise ValueError("misplaced sign %r" % tok)
            sign = -1 if tok == "-" else 1
            state = "after_sign"
        elif _looks_like_int(tok):
            if state not in ("start", "after_sign"):
                raise ValueError("unexpected coefficient %r" % tok)
            coeff = int(tok)
            state = "after_coeff"
        else:
            if state == "after_term":
                raise ValueError("missing '+' or '-' before %r" % tok)
            if not (tok.startswith("a(") and tok.endswith(")")):
                raise ValueError("cannot read term %r; expected a(vertex,stage)"
                                 % tok)
            body = tok[2:-1]
            if "," not in body:
                raise ValueError("cannot read term %r; expected a(vertex,stage)"
                                 % tok)
            vertex, _, stage_text = body.rpartition(",")
            if not vertex:
                raise ValueError("missing vertex in term %r" % tok)
            if not _looks_like_int(stage_text):
                raise ValueError("stage %r is not an integer" % stage_text)
            stage = int(stage_text)
            c = sign * (coeff if coeff is not None else 1)
            total = total + m.generator(vertex, stage, coeff=c)
            sign, coeff, state = 1, None, "after_term"
    if state != "after_term":
        raise ValueError("expression %r ends mid-term" % text)
    return total


# tokens of every kind the grammar tells apart, and malformed terms
STAGED_TOKENS = ("+", "-", "0", "2", "-3", "a(u,0)", "a(v,-1)", "a(u)",
                 "a(,0)", "a(u,x)", "a(w,0)")


def outcome(parse, *args):
    """The parse result, or ValueError when the parser rejects the input."""
    try:
        return parse(*args)
    except ValueError:
        return ValueError


class TestExpressionParsing:
    def test_basic(self, graph_e):
        m = graded_module(graph_e)
        v = parse_staged_expression(m, "a(u,0) + 2 a(v,-1)")
        assert v.to_mapping() == {-1: (0, 2), 0: (1, 0)}

    def test_leading_minus(self, graph_e):
        m = graded_module(graph_e)
        assert parse_staged_expression(m, "- a(u,1)").to_mapping() == {
            1: (-1, 0)}

    def test_cancellation(self, graph_e):
        m = graded_module(graph_e)
        assert parse_staged_expression(m, "a(u,0) - a(u,0)").is_zero()

    def test_malformed(self, graph_e):
        m = graded_module(graph_e)
        for bad in ("", "a(u,0) a(v,1)", "2", "a(u,0) +", "+ + a(u,0)",
                    "a(w,0)", "a(u)", "b(u,0)", "a(u,x)", "2 3 a(u,0)"):
            with pytest.raises(ValueError):
                parse_staged_expression(m, bad)

    @pytest.mark.parametrize("text, message", [
        ("a(zz,x)", "stage 'x' is not an integer"),
        ("a(zz,0) + a(u,x)", "unknown vertex 'zz'"),
        ("a(u,x) + a(zz,0)", "stage 'x' is not an integer"),
        ("a(u,0) + a(zz,0) + a(u,1) a(v,0)", "unknown vertex 'zz'"),
        ("a(u,0) + b(u,0) + a(zz,0)", "cannot read term 'b(u,0)'"),
    ])
    def test_first_bad_term_is_reported(self, graph_e, text, message):
        """Terms are read left to right, and within a term the stage is
        read before the vertex is looked up."""
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_staged_expression(graded_module(graph_e), text)

    def test_matches_reference_on_short_token_sequences(self, graph_e):
        """Every sequence of up to four tokens gets the old parser's result,
        or an error where it gave one."""
        m = graded_module(graph_e)
        for k in range(5):
            for tokens in product(STAGED_TOKENS, repeat=k):
                text = " ".join(tokens)
                assert outcome(parse_staged_expression, m, text) == \
                    outcome(reference_parse_staged_expression, m, text), text

import json
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st

from grhom.corpus import enumerate_multigraphs, random_graph
from grhom.dynamics import graph_invariants
from grhom.graded import (dimension_triple, equals, graded_module,
                          is_positive, parse_staged_expression,
                          verify_exact_sequence)
from grhom.graph import (Edge, Graph, GraphFormatError, StagedGraph,
                         VertexClass, adjacency, check_unit_sink_free,
                         classify_vertices, covering_graph, enumerate_paths,
                         graph_from_dict, graph_to_dict, make_path,
                         parse_graph, path_range, path_weight,
                         serialize_graph, _json_text, _require)
from grhom.homology import h0_presentation
from grhom.intlinalg import mat_pow
from random import Random


def count_paths_by_adjacency(g, max_len):
    """Independent path count: sum of all entries of A^0 + ... + A^max_len."""
    a = adjacency(g)
    total = 0
    for k in range(max_len + 1):
        p = mat_pow(a, k)
        total += sum(x for row in p.rows for x in row)
    return total


def restrict(staged, n_min, n_max):
    """The part of a covering graph inside a smaller stage window."""
    def inside(vertex):
        return n_min <= vertex[1] <= n_max
    return StagedGraph(
        base=staged.base, window=(n_min, n_max),
        vertices=tuple(vn for vn in staged.vertices if inside(vn)),
        edges=tuple(e for e in staged.edges
                    if inside(e.src) and inside(e.dst)))


def flatten(staged):
    """A covering graph as an ordinary Graph with 'name@stage' ids."""
    return Graph(
        vertices=tuple("%s@%d" % vn for vn in staged.vertices),
        edges=tuple(Edge(eid="%s@%d" % (e.eid, e.stage),
                         src="%s@%d" % e.src,
                         dst="%s@%d" % e.dst,
                         weight=staged.base.edge(e.eid).weight)
                    for e in staged.edges),
    )


def reference_graph_from_dict(obj) -> Graph:
    """``graph_from_dict`` with every check run, in order, on every vertex
    and edge: the reference for the result and for the first error."""
    _require(isinstance(obj, dict), "graph document must be a JSON object")
    _require("vertices" in obj, "missing 'vertices'")
    _require("edges" in obj, "missing 'edges'")
    raw_vs, raw_es = obj["vertices"], obj["edges"]
    _require(isinstance(raw_vs, list), "'vertices' must be a list")
    _require(isinstance(raw_es, list), "'edges' must be a list")
    seen = set()
    for v in raw_vs:
        _require(isinstance(v, str), "vertex ids must be strings", v)
        _require(v not in seen, "duplicate vertex id %r" % v, v)
        seen.add(v)
    vertices = tuple(raw_vs)
    vset = seen
    edges = []
    eids = set()
    for item in raw_es:
        _require(isinstance(item, dict), "each edge must be an object")
        for key in ("id", "src", "dst"):
            _require(key in item, "edge missing %r" % key,
                     item.get("id"))
            _require(isinstance(item[key], str),
                     "edge field %r must be a string" % key, item.get("id"))
        eid = item["id"]
        _require(eid not in eids, "duplicate edge id %r" % eid, eid)
        eids.add(eid)
        _require(item["src"] in vset,
                 "edge %r has dangling source %r" % (eid, item["src"]), eid)
        _require(item["dst"] in vset,
                 "edge %r has dangling target %r" % (eid, item["dst"]), eid)
        weight = item.get("weight", 1)
        _require(isinstance(weight, int) and not isinstance(weight, bool),
                 "edge %r has non-integer weight %r" % (eid, weight), eid)
        edges.append(Edge(eid=eid, src=item["src"], dst=item["dst"],
                          weight=weight))
    return Graph(vertices=vertices, edges=tuple(edges))


class StrSub(str):
    pass


class IntSub(int):
    pass


MISSING = object()


def mostly(valid, invalid):
    """A value from ``valid`` in nine draws of ten, else one from
    ``invalid``."""
    return st.sampled_from(range(10)).flatmap(
        lambda k: st.sampled_from(invalid if k == 9 else valid))


@st.composite
def graph_documents(draw):
    """Graph documents over the vertices a, b, c that are mostly well
    formed: now and then a vertex, an edge or one of its fields is
    malformed (a non-dict edge, a missing or non-str id/src/dst, a
    duplicate vertex or edge id, a dangling endpoint, a bool, float or str
    weight) or of a subclass of str, int or dict, which is valid."""
    names = ["a", "b", "c"]
    vertices = draw(st.permutations(names))
    if draw(st.booleans()):
        vertices.append(draw(st.sampled_from(["a", 0, None, StrSub("d")])))
    endpoint = mostly(names, ["z", 1, None, StrSub("a"), MISSING])
    weight = mostly([MISSING, 1, 2, 0, -3, 10 ** 20],
                    [True, False, 1.0, 2.5, "2", IntSub(4), None])
    edges = []
    for k in range(draw(st.integers(0, 4))):
        fields = {"id": draw(mostly(["e%d" % k],
                                    [MISSING, 5, None, StrSub("e9"), "e0"])),
                  "src": draw(endpoint), "dst": draw(endpoint),
                  "weight": draw(weight)}
        item = {key: v for key, v in fields.items() if v is not MISSING}
        kind = draw(mostly(["dict"], ["ordered", "list", "str", "none"]))
        if kind == "ordered":
            item = OrderedDict(item)
        elif kind != "dict":
            item = {"list": [item], "str": "edge", "none": None}[kind]
        edges.append(item)
    return {"vertices": vertices, "edges": edges}


def outcome(parse, doc):
    """The graph and its weight types, or the error message and offender."""
    try:
        g = parse(doc)
    except GraphFormatError as exc:
        return "error", str(exc), exc.offender
    return g, [type(e.weight) for e in g.edges]


class TestParsing:
    def test_two_vertex_cycle_with_loop(self, graph_e):
        assert graph_e.vertices == ("u", "v")
        assert len(graph_e.edges) == 3
        assert all(e.weight == 1 for e in graph_e.edges)

    def test_single_sink_file(self):
        g = parse_graph('{"vertices": ["u"], "edges": []}')
        assert g.vertices == ("u",)
        assert g.edges == ()

    def test_dangling_endpoint(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph('{"vertices": ["u"], '
                        '"edges": [{"id": "e", "src": "w", "dst": "u"}]}')
        assert "w" in str(err.value)

    def test_duplicate_vertex(self):
        with pytest.raises(GraphFormatError):
            parse_graph('{"vertices": ["u", "u"], "edges": []}')

    def test_duplicate_edge_id(self):
        with pytest.raises(GraphFormatError):
            parse_graph('{"vertices": ["u"], "edges": ['
                        '{"id": "e", "src": "u", "dst": "u"},'
                        '{"id": "e", "src": "u", "dst": "u"}]}')

    def test_malformed_json(self):
        with pytest.raises(GraphFormatError):
            parse_graph("{nope")

    def test_default_weight(self):
        g = parse_graph('{"vertices": ["u"], '
                        '"edges": [{"id": "e", "src": "u", "dst": "u"}]}')
        assert g.edges[0].weight == 1

    def test_explicit_weight(self):
        g = parse_graph('{"vertices": ["u"], "edges": '
                        '[{"id": "e", "src": "u", "dst": "u", "weight": 3}]}')
        assert g.edges[0].weight == 3

    def test_roundtrip(self, graph_e):
        again = parse_graph(serialize_graph(graph_e))
        assert again == graph_e

    @settings(max_examples=400)
    @given(graph_documents())
    # a bool weight and subclasses of int, str and dict are rarely drawn
    # on an otherwise valid edge, so they are also pinned here
    @example({"vertices": ["a"], "edges": [
        {"id": "e0", "src": "a", "dst": "a", "weight": True}]})
    @example({"vertices": ["a"], "edges": [
        {"id": "e0", "src": "a", "dst": "a", "weight": IntSub(4)}]})
    @example({"vertices": ["a", StrSub("b")], "edges": [
        {"id": StrSub("e0"), "src": StrSub("a"), "dst": "b"}]})
    @example({"vertices": ["a"], "edges": [
        OrderedDict(id="e0", src="a", dst="a", weight=2)]})
    def test_matches_reference(self, doc):
        assert outcome(graph_from_dict, doc) == \
            outcome(reference_graph_from_dict, doc)

    def test_to_dict_explicit_weights(self, graph_f):
        d = graph_to_dict(graph_f)
        assert d["vertices"] == ["u"]
        assert all(e["weight"] == 1 for e in d["edges"])
        assert json.dumps(d)


class ReprInt(int):
    """json writes an int subclass with ``int.__repr__``, never its own."""

    def __repr__(self):
        return "ReprInt()"


class ReprStr(str):
    def __repr__(self):
        return "ReprStr()"

    def __str__(self):
        return "ReprStr()"


TRICKY_STRINGS = ("", "a b", '"\\/', "\x00\x1f\x7f\n\t", "\u00e9\u2028",
                  "\U0001f600", "\ud800")
json_keys = st.one_of(st.text(max_size=6), st.sampled_from(TRICKY_STRINGS),
                      st.text(max_size=3).map(ReprStr))
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.integers(-10 ** 40, 10 ** 40), st.integers().map(ReprInt),
    st.integers().map(IntSub), st.text(max_size=6),
    st.sampled_from(TRICKY_STRINGS), st.text(max_size=3).map(ReprStr))
json_values = st.recursive(json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(json_keys, inner, max_size=4)), max_leaves=30)


class TestJsonText:
    @settings(max_examples=300)
    @given(json_values)
    @example({"a": [], "b": {}, "c": [[], {}, ()], "d": [{"e": [1, None]}]})
    @example([-10 ** 30, ReprInt(-7), IntSub(3), True, False, None])
    def test_matches_json_dumps(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize("obj", [1.5, {1: 2}, {"a": {3}}, [b"x"]])
    def test_other_types_rejected(self, obj):
        with pytest.raises(TypeError):
            _json_text(obj)

    @settings(max_examples=100)
    @given(graph_documents())
    @example({"vertices": ["a"], "edges": [
        {"id": "e0", "src": "a", "dst": "a", "weight": IntSub(4)}]})
    def test_serialize_graph_matches_json_dumps(self, doc):
        try:
            g = graph_from_dict(doc)
        except GraphFormatError:
            return
        assert serialize_graph(g) == \
            json.dumps(graph_to_dict(g), indent=2) + "\n"

    def test_serialize_graph_int_subclass_weight(self):
        g = Graph(vertices=("u",),
                  edges=(Edge(eid="e", src="u", dst="u", weight=ReprInt(3)),))
        assert serialize_graph(g) == \
            json.dumps(graph_to_dict(g), indent=2) + "\n"
        assert '"weight": 3' in serialize_graph(g)


class TestClassification:
    def test_both_regular(self, graph_e):
        classes = classify_vertices(graph_e)
        assert classes == {"u": VertexClass.REGULAR, "v": VertexClass.REGULAR}

    def test_sink(self, single_sink):
        assert classify_vertices(single_sink) == {"s": VertexClass.SINK}

    def test_double_loop_regular(self, graph_f):
        assert classify_vertices(graph_f) == {"u": VertexClass.REGULAR}


class TestAdjacency:
    def test_cycle_with_loop(self, graph_e):
        assert adjacency(graph_e).rows == ((1, 1), (1, 0))

    def test_double_loop(self, graph_f):
        assert adjacency(graph_f).rows == ((2,),)

    def test_edgeless(self):
        g = graph_from_dict({"vertices": ["a", "b"], "edges": []})
        assert adjacency(g).rows == ((0, 0), (0, 0))


@st.composite
def multigraphs(draw):
    """0 to 5 vertices and up to 8 edges between them, loops and parallel
    edges included, with any weight ``graph_from_dict`` accepts: 0,
    negative, huge, an int subclass, or none (so 1)."""
    names = ["v%d" % i for i in range(draw(st.integers(0, 5)))]
    weight = st.one_of(st.integers(-3, 4), st.just(10 ** 20),
                       st.builds(IntSub, st.integers(-2, 2)), st.just(MISSING))
    edges = []
    for k in range(draw(st.integers(0, 8)) if names else 0):
        item = {"id": "e%d" % k, "src": draw(st.sampled_from(names)),
                "dst": draw(st.sampled_from(names)), "weight": draw(weight)}
        edges.append({key: v for key, v in item.items() if v is not MISSING})
    return graph_from_dict({"vertices": names, "edges": edges})


class LookupSpy:
    """Records every call of ``Graph.out_edges`` and ``Graph.vertex_index``
    as (method name, vertex) while installed."""

    def __init__(self, monkeypatch):
        self.calls = []
        for name in ("out_edges", "vertex_index"):
            monkeypatch.setattr(Graph, name, self._recording(name))

    def _recording(self, name):
        original = getattr(Graph, name)

        def spy(g, v):
            self.calls.append((name, v))
            return original(g, v)

        return spy

    def of(self, fn, *args):
        """The lookups made by one call of fn."""
        self.calls.clear()
        fn(*args)
        return list(self.calls)


class TestOutArcs:
    @given(multigraphs())
    @example(Graph(vertices=(), edges=()))
    @example(graph_from_dict({"vertices": ["a", "b"], "edges": [
        {"id": "l", "src": "a", "dst": "a", "weight": 0},
        {"id": "p", "src": "a", "dst": "b", "weight": -2},
        {"id": "q", "src": "a", "dst": "b"}]}))
    def test_matches_out_edges(self, g):
        assert g.out_arcs == tuple(
            tuple((g.vertex_index(e.dst), e.weight) for e in g.out_edges(v))
            for v in g.vertices)
        assert g.out_arcs is g.out_arcs

    def test_layers_take_indices_from_out_arcs(self, monkeypatch):
        weighted = {"vertices": ["u", "v", "s"], "edges": [
            {"id": "a", "src": "u", "dst": "u"},
            {"id": "b", "src": "u", "dst": "v", "weight": 2},
            {"id": "c", "src": "v", "dst": "u", "weight": 3},
            {"id": "d", "src": "v", "dst": "s"}]}
        unit = {"vertices": ["u", "v"], "edges": [
            {"id": "a", "src": "u", "dst": "u"},
            {"id": "b", "src": "u", "dst": "v"},
            {"id": "c", "src": "v", "dst": "u"}]}
        m = graded_module(graph_from_dict(weighted))
        x = parse_staged_expression(m, "a(u,1) - a(v,0)")
        y = parse_staged_expression(m, "a(u,0) + a(s,-1)")
        spy = LookupSpy(monkeypatch)
        # each call gets graphs and modules with nothing cached yet
        for fn, *args in (
                (h0_presentation, graph_from_dict(weighted)),
                (verify_exact_sequence, graph_from_dict(weighted)),
                (equals, graded_module(m.graph), x, y),
                (is_positive, graded_module(graph_from_dict(weighted)), x, 3),
                (classify_vertices, graph_from_dict(weighted)),
                (graph_invariants, graph_from_dict(unit)),
                (adjacency, graph_from_dict(unit)),
                (check_unit_sink_free, graph_from_dict(unit), "test"),
                (dimension_triple, graph_from_dict(unit))):
            assert spy.of(fn, *args) == [], fn.__name__
        with pytest.raises(ValueError, match="'s' is a sink"):
            spy.of(check_unit_sink_free, graph_from_dict(weighted), "test")
        assert spy.calls == []
        # names a caller passes in are still looked up, once each
        fresh = graded_module(graph_from_dict(weighted))
        assert spy.of(fresh.relation, "v", 0) == [("vertex_index", "v")]
        assert spy.of(parse_staged_expression, fresh, "a(s,2) - a(u,0)") == [
            ("vertex_index", "s"), ("vertex_index", "u")]


class TestCoveringGraph:
    def test_double_loop_window(self, graph_f):
        staged = covering_graph(graph_f, (-1, 1))
        assert staged.vertices == (("u", -1), ("u", 0), ("u", 1))
        arrows = {(e.eid, e.stage): (e.src, e.dst) for e in staged.edges}
        assert arrows[("e", 1)] == (("u", 1), ("u", 0))
        assert arrows[("f", 1)] == (("u", 1), ("u", 0))
        assert arrows[("e", 0)] == (("u", 0), ("u", -1))
        assert arrows[("f", 0)] == (("u", 0), ("u", -1))
        assert len(staged.edges) == 4

    def test_window_too_narrow(self, graph_e):
        staged = covering_graph(graph_e, (0, 0))
        assert staged.vertices == (("u", 0), ("v", 0))
        assert staged.edges == ()

    def test_edgeless_window(self):
        g = graph_from_dict({"vertices": ["a"], "edges": []})
        staged = covering_graph(g, (0, 2))
        assert len(staged.vertices) == 3
        assert staged.edges == ()

    def test_empty_window_rejected(self, graph_f):
        with pytest.raises(ValueError):
            covering_graph(graph_f, (1, 0))

    @pytest.mark.parametrize("window", [(0.5, 1.5), (0, 1.0), (False, 1),
                                        ("0", 1)])
    def test_non_int_window_rejected(self, graph_f, window):
        with pytest.raises(ValueError, match="window bounds must be ints"):
            covering_graph(graph_f, window)

    def test_int_subclass_window_stored_as_int(self, graph_f):
        class Tagged(int):
            pass

        staged = covering_graph(graph_f, (Tagged(-1), Tagged(1)))
        assert staged == covering_graph(graph_f, (-1, 1))
        assert all(type(n) is int for n in staged.window)

    def test_stage_drop_matches_weight(self):
        g = graph_from_dict({"vertices": ["a", "b"], "edges": [
            {"id": "e", "src": "a", "dst": "b", "weight": 2},
            {"id": "f", "src": "b", "dst": "a"}]})
        staged = covering_graph(g, (-2, 2))
        for e in staged.edges:
            w = g.edge(e.eid).weight
            assert e.dst[1] == e.src[1] - w

    def test_window_monotonicity(self, graph_e, graph_f):
        for g in (graph_e, graph_f):
            big = covering_graph(g, (-3, 3))
            assert restrict(big, -1, 2) == covering_graph(g, (-1, 2))

    @given(st.integers(-3, 1), st.integers(0, 3), st.data())
    def test_window_monotonicity_random(self, lo, width, data):
        rng = Random(data.draw(st.integers(0, 10 ** 6)))
        g = random_graph(rng, 3, 5)
        hi = lo + width
        big = covering_graph(g, (lo - 2, hi + 2))
        assert restrict(big, lo, hi) == covering_graph(g, (lo, hi))

    def test_flatten_to_graph(self, graph_f):
        flat = flatten(covering_graph(graph_f, (0, 1)))
        assert flat.vertices == ("u@0", "u@1")
        assert {(e.src, e.dst) for e in flat.edges} == {("u@1", "u@0")}


class TestPaths:
    def test_double_loop_level_one(self, graph_f):
        paths = enumerate_paths(graph_f, 1)
        shapes = [(p.source, p.edges) for p in paths]
        assert shapes == [("u", ()), ("u", ("e",)), ("u", ("f",))]

    def test_ten_paths(self, graph_e):
        paths = enumerate_paths(graph_e, 2)
        assert len(paths) == 10
        level2 = {p.edges for p in paths if len(p) == 2}
        assert level2 == {("e", "e"), ("e", "f"), ("f", "g"), ("g", "e"),
                          ("g", "f")}

    def test_length_zero(self, graph_e):
        paths = enumerate_paths(graph_e, 0)
        assert [(p.source, p.edges) for p in paths] == [("u", ()), ("v", ())]

    def test_negative_rejected(self, graph_e):
        with pytest.raises(ValueError):
            enumerate_paths(graph_e, -1)

    @pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1"])
    def test_non_int_max_len_rejected(self, graph_e, bad):
        with pytest.raises(ValueError, match="path lengths must be ints"):
            enumerate_paths(graph_e, bad)

    def test_int_subclass_max_len_accepted(self, graph_e):
        class Tagged(int):
            pass

        assert (enumerate_paths(graph_e, Tagged(2))
                == enumerate_paths(graph_e, 2))

    def test_counts_match_adjacency_powers(self):
        for i, g in enumerate(enumerate_multigraphs(3, 3)):
            if i % 17:
                continue
            for max_len in (0, 1, 2, 3):
                assert (len(enumerate_paths(g, max_len))
                        == count_paths_by_adjacency(g, max_len))

    def test_path_construction(self, graph_e):
        p = make_path(graph_e, ("f", "g"))
        assert p.source == "u"
        assert path_range(graph_e, p) == "u"
        assert path_weight(graph_e, p) == 2
        with pytest.raises(ValueError):
            make_path(graph_e, ("f", "e"))

    def test_empty_path_needs_anchor(self, graph_e):
        p = make_path(graph_e, (), at="v")
        assert p.source == "v"
        assert path_range(graph_e, p) == "v"
        assert path_weight(graph_e, p) == 0

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from grhom.diagonal import (DiagonalElement, SpecialEdgeChoice, expand,
                            multiply, normal_form, parse_diagonal_expression,
                            to_h0_class)
from grhom.corpus import random_graph
from grhom.graph import (Graph, Path, _looks_like_int, graph_from_dict,
                         make_path, path_range)
from grhom.homology import h0_presentation


def unit(g, edges, at=None, coeff=1):
    return DiagonalElement.unit(make_path(g, edges, at=at), coeff)


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


def random_element(rng, g, max_terms=4, max_len=4):
    x = DiagonalElement.zero()
    for _ in range(rng.randint(1, max_terms)):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        x = x + DiagonalElement.unit(random_path(rng, g, max_len), c)
    return x


def rewrite_random_order(rng, g, sp, x):
    """Independent normal-form computation: single backward substitutions
    applied to randomly chosen offending terms until none remain."""
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


@st.composite
def diagonal_cases(draw):
    """A multigraph on 1 to 5 vertices with up to 8 edges, loops, parallel
    edges and sinks included, edge ids in shuffled order, and a seed for
    drawing elements over it."""
    names = ["v%d" % i for i in range(draw(st.integers(1, 5)))]
    ids = draw(st.permutations(["e%d" % k for k in range(draw(
        st.integers(0, 8)))]))
    edges = [{"id": eid, "src": draw(st.sampled_from(names)),
              "dst": draw(st.sampled_from(names))} for eid in ids]
    g = graph_from_dict({"vertices": names, "edges": edges})
    return g, draw(st.integers(0, 2 ** 32))


class ReferenceChoice:
    """A special-edge choice read as ``SpecialEdgeChoice.get`` read it
    before it looked the vertex up in a dict: the body of ``get`` is kept
    verbatim."""

    def __init__(self, by_vertex):
        self.by_vertex = by_vertex

    def get(self, v):
        for vertex, eid in self.by_vertex:
            if vertex == v:
                return eid
        raise ValueError("no special edge for vertex %r" % v)


def reference_basis_expansion(g, sp, path):
    """``_basis_expansion`` as it was before ``normal_form`` absorbed it:
    the body is kept verbatim."""
    edges = path.edges
    l = len(edges)
    k = l
    while k > 0:
        e = g.edge(edges[k - 1])
        if sp.get(e.src) != edges[k - 1]:
            break
        k -= 1
    if k == l:
        yield (path, 1)
        return
    prefix = edges[:k]
    anchor = path.source
    yield (Path(source=anchor, edges=prefix), 1)
    here = path_range(g, Path(source=anchor, edges=prefix))
    for j in range(k, l):
        for e in g.out_edges(here):
            if e.eid != edges[j]:
                yield (Path(source=anchor, edges=edges[:j] + (e.eid,)), -1)
        here = g.edge(edges[j]).dst


def reference_normal_form(g, x, special):
    """``normal_form`` as it was over ``reference_basis_expansion``."""
    sp = ReferenceChoice(special.by_vertex)
    out = []
    for path, c in x.terms.items():
        for basic, sign in reference_basis_expansion(g, sp, path):
            out.append((basic, c * sign))
    return DiagonalElement.from_terms(out)


def nf_outcome(nf, g, x, special):
    """The terms of the normal form in insertion order, or the error."""
    try:
        return list(nf(g, x, special=special).terms.items())
    except ValueError as exc:
        return ValueError, str(exc)


class TestSpecialEdgeChoice:
    def test_default_least_edge_id(self, graph_e):
        sp = SpecialEdgeChoice.default(graph_e)
        assert sp.get("u") == "e"
        assert sp.get("v") == "g"

    def test_override(self, graph_f):
        sp = SpecialEdgeChoice.default(graph_f, overrides={"u": "f"})
        assert sp.get("u") == "f"

    def test_override_wrong_source(self, graph_e):
        with pytest.raises(ValueError):
            SpecialEdgeChoice.default(graph_e, overrides={"v": "e"})

    def test_override_unknown_vertex(self, graph_f):
        with pytest.raises(ValueError):
            SpecialEdgeChoice.default(graph_f, overrides={"w": "e"})

    def test_sink_has_no_special_edge(self, single_sink):
        sp = SpecialEdgeChoice.default(single_sink)
        assert sp.to_dict() == {}
        with pytest.raises(ValueError):
            SpecialEdgeChoice.default(single_sink, overrides={"s": "e"})

    def test_hand_built_lookups(self, graph_e):
        """A vertex listed twice keeps its first edge; an omitted vertex,
        an unknown one and an unhashable one raise the same ValueError."""
        sp = SpecialEdgeChoice(by_vertex=(("u", "f"), ("u", "e")))
        assert sp.get("u") == "f"
        for v in ("v", "w", ["u"]):
            with pytest.raises(ValueError,
                               match="^no special edge for vertex "):
                sp.get(v)
        assert sp.to_dict() == {"u": "e"}
        # the cached lookup takes no part in equality or hashing
        fresh = SpecialEdgeChoice(by_vertex=(("u", "f"), ("u", "e")))
        assert sp == fresh and hash(sp) == hash(fresh)


class TestExpand:
    def test_vertex_expansion(self, graph_f):
        x = expand(graph_f, make_path(graph_f, (), at="u"))
        assert x == unit(graph_f, ("e",)) + unit(graph_f, ("f",))

    def test_single_outgoing(self, graph_e):
        x = expand(graph_e, make_path(graph_e, ("f",)))
        assert x == unit(graph_e, ("f", "g"))

    def test_sink_rejected(self):
        g = graph_from_dict({"vertices": ["u", "w"], "edges": [
            {"id": "e", "src": "u", "dst": "w"}]})
        with pytest.raises(ValueError):
            expand(g, make_path(g, ("e",)))


class TestNormalForm:
    def test_double_loop_special(self, graph_f):
        sp = SpecialEdgeChoice.default(graph_f)
        nf = normal_form(graph_f, unit(graph_f, ("e",)), special=sp)
        assert nf == unit(graph_f, (), at="u") - unit(graph_f, ("f",))

    def test_fixed_point(self, graph_f):
        x = unit(graph_f, ("f",), coeff=5) + unit(graph_f, (), at="u")
        assert normal_form(graph_f, x) == x

    def test_backward_step(self, graph_e):
        x = unit(graph_e, ("f", "g"))
        nf = normal_form(graph_e, x)
        assert nf == unit(graph_e, ("f",))

    def test_idempotent_on_samples(self, graph_e, graph_f):
        rng = Random(11)
        for g in (graph_e, graph_f):
            for _ in range(40):
                nf = normal_form(g, random_element(rng, g))
                assert normal_form(g, nf) == nf

    def test_supported_on_basis(self, graph_e):
        sp = SpecialEdgeChoice.default(graph_e)
        rng = Random(5)
        for _ in range(40):
            nf = normal_form(graph_e, random_element(rng, graph_e), special=sp)
            for p, _ in nf.items():
                if p.edges:
                    last = graph_e.edge(p.edges[-1])
                    assert sp.get(last.src) != last.eid

    def test_confluence_random_orders(self):
        rng = Random(23)
        for _ in range(60):
            g = random_graph(rng, 4, 6)
            sp = SpecialEdgeChoice.default(g)
            x = random_element(rng, g)
            nf = normal_form(g, x, special=sp)
            for _ in range(3):
                assert rewrite_random_order(rng, g, sp, x) == nf

    def test_relation_perturbation_invariance(self):
        # adding c*(unit(beta) - expand(beta)) adds the zero element
        rng = Random(31)
        for _ in range(60):
            g = random_graph(rng, 4, 6, sink_free=True)
            x = random_element(rng, g)
            beta = random_path(rng, g, 3)
            c = rng.choice([-2, -1, 1, 2])
            perturbed = (x + DiagonalElement.unit(beta, c)
                         - expand(g, beta).scale(c))
            assert normal_form(g, perturbed) == normal_form(g, x)

    def test_ring_map_fixed_point(self):
        rng = Random(47)
        for _ in range(40):
            g = random_graph(rng, 4, 6)
            x = random_element(rng, g)
            y = random_element(rng, g)
            lhs = normal_form(g, multiply(x, y))
            rhs = normal_form(g, multiply(normal_form(g, x),
                                          normal_form(g, y)))
            assert lhs == rhs

    @settings(max_examples=150)
    @given(diagonal_cases(), st.data())
    def test_overrides_match_random_order_rewrite(self, case, data):
        """Under any valid choice of special edges, not only the default,
        the normal form is what single rewrites in random order reach, and
        what the old two-function body gave, term order included."""
        g, seed = case
        overrides = {}
        for v in g.vertices:
            out = g.out_edges(v)
            if out and data.draw(st.booleans()):
                overrides[v] = data.draw(st.sampled_from(out)).eid
        sp = SpecialEdgeChoice.default(g, overrides=overrides)
        rng = Random(seed)
        x = random_element(rng, g)
        assert rewrite_random_order(rng, g, sp, x) == normal_form(g, x, sp)
        assert (nf_outcome(normal_form, g, x, sp)
                == nf_outcome(reference_normal_form, g, x, sp))

    @settings(max_examples=150)
    @given(diagonal_cases(), st.data())
    def test_hand_built_choices_match_reference(self, case, data):
        """A hand-built choice may omit vertices, list one twice, name an
        edge that leaves another vertex, or name unknown ids: the result,
        or the error, is the old body's."""
        g, seed = case
        pair = st.tuples(st.sampled_from(g.vertices + ("w",)),
                         st.sampled_from(tuple(e.eid for e in g.edges)
                                         + ("q",)))
        sp = SpecialEdgeChoice(by_vertex=tuple(data.draw(
            st.lists(pair, max_size=6))))
        x = random_element(Random(seed), g)
        assert (nf_outcome(normal_form, g, x, sp)
                == nf_outcome(reference_normal_form, g, x, sp))

    def test_hand_built_choice_omitting_a_vertex(self, graph_e):
        sp = SpecialEdgeChoice(by_vertex=(("u", "e"),))
        x = unit(graph_e, ("f", "g"))
        want = (ValueError, "no special edge for vertex 'v'")
        assert nf_outcome(reference_normal_form, graph_e, x, sp) == want
        assert nf_outcome(normal_form, graph_e, x, sp) == want

    def test_hand_built_choice_naming_another_vertex_edge(self, graph_e):
        # g leaves v, so no edge is special at u
        sp = SpecialEdgeChoice(by_vertex=(("u", "g"), ("v", "g")))
        x = (unit(graph_e, ("e", "f", "g")) + unit(graph_e, ("f",), coeff=2)
             + unit(graph_e, ("e",)))
        got = nf_outcome(normal_form, graph_e, x, sp)
        assert got == nf_outcome(reference_normal_form, graph_e, x, sp)
        assert dict(got) == {make_path(graph_e, ("e", "f")): 1,
                             make_path(graph_e, ("f",)): 2,
                             make_path(graph_e, ("e",)): 1}


class TestDiagonalElementSemantics:
    def test_equality(self, graph_f):
        a = unit(graph_f, ("e",)) + unit(graph_f, ("f",), coeff=2)
        b = unit(graph_f, ("f",), coeff=2) + unit(graph_f, ("e",))
        assert a == b and not a != b
        assert a != unit(graph_f, ("e",)) and a != a.scale(2)
        assert DiagonalElement.zero() == (unit(graph_f, ("e",))
                                          - unit(graph_f, ("e",)))

    def test_other_types_are_unequal(self, graph_f):
        assert (unit(graph_f, (), at="u") == 1) is False
        assert (DiagonalElement.zero() == 0) is False
        assert (DiagonalElement.zero() == {}) is False

    def test_unhashable(self, graph_f):
        for x in (DiagonalElement.zero(), unit(graph_f, ("e",))):
            with pytest.raises(TypeError):
                hash(x)


class TestScale:
    @pytest.mark.parametrize("bad", [0.5, 2.0, True, "2"])
    def test_non_int_scalar_rejected(self, graph_f, bad):
        x = unit(graph_f, ("e",))
        with pytest.raises(ValueError, match="^scalars must be ints"):
            x.scale(bad)
        with pytest.raises(ValueError, match="^scalars must be ints"):
            bad * x

    def test_int_scalar(self, graph_f):
        x = unit(graph_f, ("e",))
        assert 3 * x == unit(graph_f, ("e",), coeff=3)
        assert x.scale(0).is_zero()


class TestMultiply:
    def test_prefix_absorbs(self, graph_f):
        x = multiply(unit(graph_f, ("e",)), unit(graph_f, ("e", "f")))
        assert x == unit(graph_f, ("e", "f"))

    def test_incomparable_vanish(self, graph_f):
        assert multiply(unit(graph_f, ("e",)), unit(graph_f, ("f",))).is_zero()

    def test_vertex_idempotent(self, graph_f):
        x = multiply(unit(graph_f, (), at="u"), unit(graph_f, ("e",)))
        assert x == unit(graph_f, ("e",))

    def test_commutative_on_samples(self):
        rng = Random(13)
        for _ in range(40):
            g = random_graph(rng, 4, 6)
            x = random_element(rng, g)
            y = random_element(rng, g)
            assert multiply(x, y) == multiply(y, x)


class TestH0Class:
    def test_single_term(self, graph_e):
        assert to_h0_class(graph_e, unit(graph_e, ("f",))) == (0, 1)

    def test_zero(self, graph_e):
        assert to_h0_class(graph_e, DiagonalElement.zero()) == (0, 0)

    def test_relation_collapses(self, graph_f):
        x = (unit(graph_f, ("e",)) + unit(graph_f, ("f",))
             - unit(graph_f, (), at="u"))
        assert to_h0_class(graph_f, x) == (1,)

    def test_expand_shifts_by_relation_column(self):
        rng = Random(3)
        for _ in range(40):
            g = random_graph(rng, 4, 6, sink_free=True)
            alpha = random_path(rng, g, 3)
            pres = h0_presentation(g)
            r = path_range(g, alpha)
            col = pres.regular_vertices.index(r)
            column = tuple(pres.relations.entry(i, col)
                           for i in range(pres.relations.nrows))
            before = to_h0_class(g, DiagonalElement.unit(alpha))
            after = to_h0_class(g, expand(g, alpha))
            assert tuple(b - a for b, a in zip(before, after)) == column


def reference_parse_diagonal_expression(g, text):
    """``parse_diagonal_expression`` as it was before the expression
    tokenizer was shared: the body is kept verbatim."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty expression")
    terms: list[tuple[int, list[str]]] = []
    sign = 1
    current: list[str] | None = None
    coeff = 1

    def close():
        nonlocal current, coeff, sign
        if current is None:
            raise ValueError("dangling sign in expression %r" % text)
        if not current:
            raise ValueError("coefficient without a path in %r" % text)
        terms.append((sign * coeff, current))
        current, coeff, sign = None, 1, 1

    for tok in tokens:
        if tok in ("+", "-"):
            if current is None and not terms:
                raise ValueError("expression starts with %r" % tok)
            close()
            sign = -1 if tok == "-" else 1
            current = None
        elif _looks_like_int(tok):
            if current is not None:
                raise ValueError("unexpected coefficient %r inside a term" % tok)
            current = []
            coeff = int(tok)
        else:
            if current is None:
                current = []
            current.append(tok)
    close()

    vset = set(g.vertices)
    eset = {e.eid for e in g.edges}
    pairs: list[tuple[Path, int]] = []
    for c, ids in terms:
        if len(ids) == 1 and ids[0] in vset and ids[0] in eset:
            raise ValueError("ambiguous id %r names both a vertex and an edge"
                             % ids[0])
        if len(ids) == 1 and ids[0] in vset:
            pairs.append((make_path(g, (), at=ids[0]), c))
            continue
        unknown = [i for i in ids if i not in eset]
        if unknown:
            raise ValueError("unknown edge id %r in expression" % unknown[0])
        pairs.append((make_path(g, ids), c))
    return DiagonalElement.from_terms(pairs)


# signs, coefficients, the edges e, f, g and vertex u of graph_e, and an
# unknown id
DIAGONAL_TOKENS = ("+", "-", "2", "-1", "e", "f", "g", "u", "q")


def outcome(parse, *args):
    """The parse result, or ValueError when the parser rejects the input."""
    try:
        return parse(*args)
    except ValueError:
        return ValueError


class TestExpressionParsing:
    def test_path_and_vertex(self, graph_e):
        x = parse_diagonal_expression(graph_e, "f g - 2 u")
        assert x == (unit(graph_e, ("f", "g"))
                     + unit(graph_e, (), at="u", coeff=-2))

    def test_ambiguous_id(self):
        g = graph_from_dict({"vertices": ["x"], "edges": [
            {"id": "x", "src": "x", "dst": "x"}]})
        with pytest.raises(ValueError):
            parse_diagonal_expression(g, "x")

    def test_unknown_id(self, graph_f):
        with pytest.raises(ValueError):
            parse_diagonal_expression(graph_f, "q")

    def test_numeric_tokens_are_coefficients(self, graph_f):
        with pytest.raises(ValueError):
            parse_diagonal_expression(graph_f, "2")

    def test_noncomposable_path(self, graph_e):
        with pytest.raises(ValueError):
            parse_diagonal_expression(graph_e, "f e")

    def test_leading_sign(self, graph_e):
        assert parse_diagonal_expression(graph_e, "- 2 f g + u") == (
            unit(graph_e, ("f", "g"), coeff=-2) + unit(graph_e, (), at="u"))

    def test_matches_reference_on_short_token_sequences(self, graph_e):
        """Every sequence of up to four tokens gets the old parser's result,
        or an error where it gave one. The one widening: the old parser
        rejected a leading sign, and now such an expression reads as the
        old parser read it after a leading vertex term u, minus u."""
        u = unit(graph_e, (), at="u")
        widened = 0
        for k in range(5):
            for tokens in product(DIAGONAL_TOKENS, repeat=k):
                text = " ".join(tokens)
                got = outcome(parse_diagonal_expression, graph_e, text)
                if tokens and tokens[0] in ("+", "-"):
                    assert outcome(reference_parse_diagonal_expression,
                                   graph_e, text) is ValueError
                    want = outcome(reference_parse_diagonal_expression,
                                   graph_e, "u " + text)
                    if want is not ValueError:
                        want = want - u
                        widened += 1
                else:
                    want = outcome(reference_parse_diagonal_expression,
                                   graph_e, text)
                assert got == want, text
        assert widened > 0

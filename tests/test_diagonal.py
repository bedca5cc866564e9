from itertools import product
from random import Random

import pytest

from grhom.diagonal import (DiagonalElement, SpecialEdgeChoice, expand,
                            multiply, normal_form, parse_diagonal_expression,
                            to_h0_class)
from grhom.corpus import random_graph
from grhom.graph import (Graph, _looks_like_int, graph_from_dict, make_path,
                         path_range)
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

"""Finite directed multigraphs with integer edge weights.

Graphs are loaded from a small JSON schema: a list of vertex names and a
list of edges with an id, a source, a target and an optional integer weight
(default 1). Vertex order is the file order and is preserved everywhere;
matrices and reports are indexed by it. The module also builds the staged
covering of a weighted graph over a finite stage window and enumerates
finite paths in a deterministic order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote

from .intlinalg import IntMatrix, _require_int


class GraphFormatError(ValueError):
    """Raised for malformed graph input; carries the offending identifier."""

    def __init__(self, message, offender=None):
        super().__init__(message)
        self.offender = offender


class VertexClass(Enum):
    REGULAR = "Regular"
    SINK = "Sink"


@dataclass(frozen=True)
class Edge:
    eid: str
    src: str
    dst: str
    weight: int = 1


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def _vindex(self):
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _edge_by_id(self):
        return {e.eid: e for e in self.edges}

    @cached_property
    def _out(self):
        out = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def out_arcs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex index, the (target index, weight) of each out-edge,
        in edge order: the one integer view of the graph that the
        presentations, the graded module and the adjacency matrices read."""
        index = self._vindex
        arcs = [[] for _ in self.vertices]
        for e in self.edges:
            arcs[index[e.src]].append((index[e.dst], e.weight))
        return tuple(map(tuple, arcs))

    def vertex_index(self, v):
        try:
            return self._vindex[v]
        except KeyError:
            raise ValueError("unknown vertex %r" % v) from None

    def edge(self, eid):
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise ValueError("unknown edge %r" % eid) from None

    def out_edges(self, v):
        if v not in self._vindex:
            raise ValueError("unknown vertex %r" % v)
        return self._out[v]

    def max_weight(self):
        return max((e.weight for e in self.edges), default=1)


@dataclass(frozen=True)
class Path:
    """A finite path: an edge-id sequence, anchored at ``source`` when empty.

    For nonempty paths ``source`` equals the source of the first edge, so the
    pair (source, edges) is a canonical key for path-indexed maps.
    """

    source: str
    edges: tuple[str, ...]

    def __len__(self):
        return len(self.edges)


def make_path(g: Graph, edges, at=None) -> Path:
    """Validated path constructor; ``at`` anchors the empty path."""
    edges = tuple(edges)
    if not edges:
        if at is None:
            raise ValueError("an empty path needs an anchor vertex")
        g.vertex_index(at)
        return Path(source=at, edges=())
    here = None
    for eid in edges:
        e = g.edge(eid)
        if here is not None and e.src != here:
            raise ValueError("edges do not compose at %r" % (eid,))
        here = e.dst
    src = g.edge(edges[0]).src
    if at is not None and at != src:
        raise ValueError("anchor %r does not match path source %r" % (at, src))
    return Path(source=src, edges=edges)


def path_range(g: Graph, p: Path) -> str:
    return g.edge(p.edges[-1]).dst if p.edges else p.source


def path_weight(g: Graph, p: Path) -> int:
    return sum(g.edge(eid).weight for eid in p.edges)


def _looks_like_int(token: str) -> bool:
    """Whether an expression token is an optionally signed integer in ASCII
    digits (``isdigit`` alone also accepts '²' and Arabic-Indic digits)."""
    body = token[1:] if token[:1] in "+-" else token
    return body.isascii() and body.isdigit()


def _split_terms(text: str) -> list[tuple[int, list[str]]]:
    """Split an expression into its terms, as (coefficient, body tokens).

    The grammar shared by the staged and diagonal expressions: tokens are
    whitespace-separated, standalone '+'/'-' tokens separate terms and one
    may open the expression, and a term is an optional integer coefficient
    followed by one or more body tokens. Integer-looking tokens are always
    coefficients. The returned coefficient carries the sign before its
    term and defaults to 1; what the body tokens mean is the caller's.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty expression")
    terms = []
    sign, coeff, body = 1, 1, []
    # what the last token was: start (none), sign, coeff or body
    state = "start"
    for tok in tokens:
        if tok in ("+", "-"):
            if state not in ("start", "body"):
                raise ValueError("misplaced sign %r" % tok)
            if body:
                terms.append((sign * coeff, body))
                coeff, body = 1, []
            sign = -1 if tok == "-" else 1
            state = "sign"
        elif _looks_like_int(tok):
            if state not in ("start", "sign"):
                raise ValueError("unexpected coefficient %r" % tok)
            coeff = int(tok)
            state = "coeff"
        else:
            body.append(tok)
            state = "body"
    if state != "body":
        raise ValueError("expression %r ends mid-term" % text)
    terms.append((sign * coeff, body))
    return terms


def _require(cond, message, offender=None):
    if not cond:
        raise GraphFormatError(message, offender)


def graph_from_dict(obj) -> Graph:
    """Graph of a decoded JSON document, or ``GraphFormatError`` naming the
    first malformed vertex or edge. Each check formats its message only
    when it fails."""
    _require(isinstance(obj, dict), "graph document must be a JSON object")
    _require("vertices" in obj, "missing 'vertices'")
    _require("edges" in obj, "missing 'edges'")
    raw_vs, raw_es = obj["vertices"], obj["edges"]
    _require(isinstance(raw_vs, list), "'vertices' must be a list")
    _require(isinstance(raw_es, list), "'edges' must be a list")
    seen = set()
    for v in raw_vs:
        if not isinstance(v, str):
            raise GraphFormatError("vertex ids must be strings", v)
        if v in seen:
            raise GraphFormatError("duplicate vertex id %r" % v, v)
        seen.add(v)
    vertices = tuple(raw_vs)
    vset = seen
    edges = []
    eids = set()
    for item in raw_es:
        if not isinstance(item, dict):
            raise GraphFormatError("each edge must be an object")
        for key in ("id", "src", "dst"):
            if key not in item:
                raise GraphFormatError("edge missing %r" % key,
                                       item.get("id"))
            if not isinstance(item[key], str):
                raise GraphFormatError("edge field %r must be a string" % key,
                                       item.get("id"))
        eid, src, dst = item["id"], item["src"], item["dst"]
        if eid in eids:
            raise GraphFormatError("duplicate edge id %r" % eid, eid)
        eids.add(eid)
        if src not in vset:
            raise GraphFormatError(
                "edge %r has dangling source %r" % (eid, src), eid)
        if dst not in vset:
            raise GraphFormatError(
                "edge %r has dangling target %r" % (eid, dst), eid)
        weight = item.get("weight", 1)
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise GraphFormatError(
                "edge %r has non-integer weight %r" % (eid, weight), eid)
        edges.append(Edge(eid=eid, src=src, dst=dst, weight=weight))
    return Graph(vertices=vertices, edges=tuple(edges))


def parse_graph(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError("malformed JSON: %s" % exc) from exc
    except RecursionError:
        raise GraphFormatError("malformed JSON: nested too deeply") from None
    return graph_from_dict(obj)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def graph_to_dict(g: Graph) -> dict:
    """Canonical JSON form: input order preserved, weights always explicit."""
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e.eid, "src": e.src, "dst": e.dst, "weight": e.weight}
                  for e in g.edges],
    }


def _json_text(obj, indent="\n") -> str:
    """The text of ``json.dumps(obj, indent=2)`` for the values this
    package writes: dicts with str keys, lists and tuples, str, None,
    bools and ints, int subclasses included (json writes those with
    ``int.__repr__`` too); any other type raises TypeError. ``indent`` is
    the newline and indentation before the line that holds ``obj``.

    With ``indent`` set, json.dumps runs its pure-Python encoder, whose
    nested closures also outlive each call as cyclic garbage. Here each
    container is one ``str.join`` of its items and strings go through
    json's own ASCII escaper, so the bytes are json's at about half the
    cost and no reference cycle is made. Items that are exact str or int,
    most of them, are written in place rather than by a recursive call."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(k) + ": " + (_quote(v) if type(v) is str else
                                    repr(v) if type(v) is int else
                                    _json_text(v, inner))
                 for k, v in obj.items()]
        return "{%s%s%s}" % (inner, ("," + inner).join(items), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_quote(v) if type(v) is str else
                 repr(v) if type(v) is int else
                 _json_text(v, inner)
                 for v in obj]
        return "[%s%s%s]" % (inner, ("," + inner).join(items), indent)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(obj).__name__)


def serialize_graph(g: Graph) -> str:
    return _json_text(graph_to_dict(g)) + "\n"


def classify_vertices(g: Graph) -> dict[str, VertexClass]:
    return {v: (VertexClass.REGULAR if arcs else VertexClass.SINK)
            for v, arcs in zip(g.vertices, g.out_arcs)}


def check_positive_weights(g: Graph, what: str):
    """Raise ValueError naming the first edge of weight below 1; ``what``
    names the construction that needs positive weights."""
    for e in g.edges:
        if e.weight < 1:
            raise ValueError("edge %r has non-positive weight %d; %s "
                             "requires weights >= 1" % (e.eid, e.weight, what))


def check_unit_sink_free(g: Graph, what: str):
    """Raise ValueError unless g is sink-free with every weight 1, the class
    of graphs whose edge shifts and dimension triples are defined here."""
    for v, arcs in zip(g.vertices, g.out_arcs):
        if not arcs:
            raise ValueError("%s requires a sink-free graph; %r is a sink"
                             % (what, v))
    for e in g.edges:
        if e.weight != 1:
            raise ValueError("%s requires all weights 1; edge %r has weight %d"
                             % (what, e.eid, e.weight))


def adjacency(g: Graph) -> IntMatrix:
    """A[u][v] = number of edges u -> v, rows and columns in vertex order."""
    n = len(g.vertices)
    rows = [[0] * n for _ in range(n)]
    for row, arcs in zip(rows, g.out_arcs):
        for j, _ in arcs:
            row[j] += 1
    return IntMatrix.from_rows(rows, n)


@dataclass(frozen=True)
class StagedEdge:
    eid: str
    stage: int
    src: tuple[str, int]
    dst: tuple[str, int]


@dataclass(frozen=True)
class StagedGraph:
    """Stage-indexed covering of a weighted graph over a finite window.

    A copy (v, n) of each vertex exists for every stage n in the window; the
    stage-n copy of edge e runs from (src(e), n) to (dst(e), n - weight(e))
    and is materialized exactly when both endpoint stages lie in the window.
    """

    base: Graph
    window: tuple[int, int]
    vertices: tuple[tuple[str, int], ...]
    edges: tuple[StagedEdge, ...]


def covering_graph(g: Graph, window) -> StagedGraph:
    n_min, n_max = (_require_int(x, "window bounds")
                    for x in (window[0], window[1]))
    if n_min > n_max:
        raise ValueError("empty window: [%d, %d]" % (n_min, n_max))
    vertices = tuple((v, n)
                     for n in range(n_min, n_max + 1)
                     for v in g.vertices)
    edges = []
    for n in range(n_min, n_max + 1):
        for e in g.edges:
            lower = n - e.weight
            if n_min <= lower <= n_max:
                edges.append(StagedEdge(eid=e.eid, stage=n,
                                        src=(e.src, n), dst=(e.dst, lower)))
    return StagedGraph(base=g, window=(n_min, n_max),
                       vertices=vertices, edges=tuple(edges))


def enumerate_paths(g: Graph, max_len: int) -> list[Path]:
    """All paths of length 0..max_len.

    Length-0 paths come first in vertex order; each longer level is sorted
    lexicographically by its edge-id sequence.
    """
    max_len = _require_int(max_len, "path lengths")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out = [Path(source=v, edges=()) for v in g.vertices]
    level = out[:]
    for _ in range(max_len):
        nxt = []
        for p in level:
            for e in g.out_edges(path_range(g, p)):
                nxt.append(Path(source=p.source, edges=p.edges + (e.eid,)))
        nxt.sort(key=lambda p: p.edges)
        out.extend(nxt)
        level = nxt
    return out

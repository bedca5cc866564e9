"""Integer combinations of path projections and their normal forms.

Elements are finite Z-linear combinations of projections alpha alpha*, one
per finite path alpha (a vertex counts as its empty path). The defining
relation lets a projection be expanded one step at every regular range
vertex:

    alpha alpha* = sum over e in s^-1(r(alpha)) of (alpha e)(alpha e)*

Fixing one outgoing "special" edge per regular vertex turns the relation
into a rewriting system whose normal forms are supported on vertices and on
paths whose last edge is not special; the rewrite replaces a path beta.s
ending in the special edge s by beta minus the siblings beta.e, e != s.
``normal_form`` runs that rewrite to completion in one pass per term: it
walks the term's maximal special suffix back to the prefix before it, and
writes down the prefix minus every sibling branch off the suffix. The
system is confluent, so any rewrite order gives the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .graph import Graph, Path, _split_terms, make_path, path_range
from .intlinalg import _require_int


@dataclass(frozen=True)
class SpecialEdgeChoice:
    """One chosen outgoing edge per regular vertex.

    The default picks the lexicographically smallest outgoing edge id; any
    entry may be overridden as long as the edge leaves its vertex.
    """

    by_vertex: tuple[tuple[str, str], ...]

    @classmethod
    def default(cls, g: Graph, overrides: Mapping[str, str] | None = None):
        overrides = dict(overrides or {})
        chosen = []
        for v in g.vertices:
            out = g.out_edges(v)
            if not out:
                if v in overrides:
                    raise ValueError("special edge given for sink %r" % v)
                continue
            eid = overrides.pop(v, None)
            if eid is None:
                eid = min(e.eid for e in out)
            elif all(e.eid != eid for e in out):
                raise ValueError("edge %r does not leave vertex %r" % (eid, v))
            chosen.append((v, eid))
        if overrides:
            raise ValueError("special-edge override for unknown vertex %r"
                             % next(iter(overrides)))
        return cls(by_vertex=tuple(chosen))

    @cached_property
    def _by_vertex(self):
        # reversed, so a vertex listed twice keeps its first edge
        return dict(reversed(self.by_vertex))

    def get(self, v):
        try:
            return self._by_vertex[v]
        except (KeyError, TypeError):
            raise ValueError("no special edge for vertex %r" % v) from None

    def to_dict(self):
        return dict(self.by_vertex)


def _term_key(p: Path):
    return (len(p.edges), p.edges, p.source)


@dataclass(frozen=True)
class DiagonalElement:
    """Finite map from paths to nonzero integer coefficients."""

    terms: Mapping[Path, int]

    @classmethod
    def zero(cls):
        return cls(terms={})

    @classmethod
    def unit(cls, path: Path, coeff: int = 1):
        return cls.from_terms([(path, coeff)])

    @classmethod
    def from_terms(cls, pairs):
        acc: dict[Path, int] = {}
        for path, coeff in pairs:
            c = acc.get(path, 0) + coeff
            if c:
                acc[path] = c
            else:
                acc.pop(path, None)
        return cls(terms=acc)

    def items(self):
        """Terms in canonical order: by length, edge sequence, then anchor."""
        return sorted(self.terms.items(), key=lambda kv: _term_key(kv[0]))

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, DiagonalElement):
            return NotImplemented
        return DiagonalElement.from_terms(
            list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, DiagonalElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return DiagonalElement(terms={p: -c for p, c in self.terms.items()})

    def scale(self, c: int):
        if type(c) is not int:
            c = _require_int(c, "scalars")
        if c == 0:
            return DiagonalElement.zero()
        return DiagonalElement(terms={p: c * k for p, k in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)


def expand(g: Graph, alpha: Path) -> DiagonalElement:
    """One defining-relation step: alpha alpha* as a sum over extensions."""
    v = path_range(g, alpha)
    out = g.out_edges(v)
    if not out:
        raise ValueError("cannot expand at sink %r" % v)
    return DiagonalElement.from_terms(
        [(Path(source=alpha.source, edges=alpha.edges + (e.eid,)), 1)
         for e in out])


def normal_form(g: Graph, x: DiagonalElement,
                special: SpecialEdgeChoice | None = None) -> DiagonalElement:
    """Canonical representative supported on vertices and non-special-tail paths.

    A term whose last edge is not special (or a vertex) is already basic.
    Otherwise, with its maximal special suffix starting after position k,
    the term equals its prefix of length k minus every single-edge branch
    off the suffix: the siblings of each suffix edge.
    """
    sp = special if special is not None else SpecialEdgeChoice.default(g)
    out: list[tuple[Path, int]] = []
    for path, c in x.terms.items():
        edges, anchor = path.edges, path.source
        k = len(edges)
        while k and sp.get(g.edge(edges[k - 1]).src) == edges[k - 1]:
            k -= 1
        out.append((Path(source=anchor, edges=edges[:k]) if k < len(edges)
                    else path, c))
        for j in range(k, len(edges)):
            for e in g.out_edges(g.edge(edges[j]).src):
                if e.eid != edges[j]:
                    out.append((Path(source=anchor,
                                     edges=edges[:j] + (e.eid,)), -c))
    return DiagonalElement.from_terms(out)


def _is_prefix(p: Path, q: Path) -> bool:
    return (p.source == q.source and len(p.edges) <= len(q.edges)
            and q.edges[:len(p.edges)] == p.edges)


def multiply(x: DiagonalElement, y: DiagonalElement) -> DiagonalElement:
    """Product of projections: the longer path wins on nested supports.

    (alpha alpha*)(beta beta*) is beta beta* if alpha is a prefix of beta,
    alpha alpha* if beta is a prefix of alpha, and 0 otherwise.
    """
    out: list[tuple[Path, int]] = []
    for p, cp in x.terms.items():
        for q, cq in y.terms.items():
            if _is_prefix(p, q):
                out.append((q, cp * cq))
            elif _is_prefix(q, p):
                out.append((p, cp * cq))
    return DiagonalElement.from_terms(out)


def to_h0_class(g: Graph, x: DiagonalElement) -> tuple[int, ...]:
    """Collapse each projection to the indicator of its range vertex."""
    acc = [0] * len(g.vertices)
    for p, c in x.terms.items():
        acc[g.vertex_index(path_range(g, p))] += c
    return tuple(acc)


def parse_diagonal_expression(g: Graph, text: str) -> DiagonalElement:
    """Parse the expression grammar used by the command line.

    Signs and coefficients follow ``graph._split_terms``; the body tokens
    of a term are edge ids forming a path, or a single vertex id meaning
    that vertex's idempotent. Purely numeric tokens are always read as
    coefficients.
    """
    vset = set(g.vertices)
    eset = {e.eid for e in g.edges}
    pairs: list[tuple[Path, int]] = []
    for c, ids in _split_terms(text):
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

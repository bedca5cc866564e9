"""Zeroth homology of the groupoid of a finite graph.

The group is presented on the free abelian group over the vertices, with one
relation column per regular vertex v:

    indicator(v) - sum over e in s^-1(v) of indicator(r(e))

For sink-free graphs the relation matrix is I - A^T. The module computes the
group in canonical form, canonical coordinates of classes, a sound bounded
positivity test, and an independent brute-force presentation on truncated
path generators used as an oracle for the vertex presentation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .graph import (Graph, Path, check_positive_weights, enumerate_paths,
                    path_range)
from .intlinalg import (FpAbelianGroup, IntMatrix, _int_vector, _left_kernel,
                        cokernel, smith_normal_form)


class Verdict(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    ZERO = "Zero"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class H0Presentation:
    """Vertex-indexed presentation: ambient Z^vertices modulo the columns."""

    vertex_order: tuple[str, ...]
    regular_vertices: tuple[str, ...]
    relations: IntMatrix


def h0_presentation(g: Graph) -> H0Presentation:
    check_positive_weights(g, "homology")
    n = len(g.vertices)
    regular = [v for v in g.vertices if g.out_edges(v)]
    cols = []
    for v in regular:
        col = [0] * n
        col[g.vertex_index(v)] += 1
        for e in g.out_edges(v):
            col[g.vertex_index(e.dst)] -= 1
        cols.append(col)
    rows = tuple(tuple(col[i] for col in cols) for i in range(n))
    return H0Presentation(vertex_order=g.vertices,
                          regular_vertices=tuple(regular),
                          relations=IntMatrix(rows, len(regular)))


def h0(g: Graph) -> FpAbelianGroup:
    return cokernel(h0_presentation(g).relations)


def _class_coordinates(g: Graph, vec):
    """The prologue shared by ``h0_class`` and ``h0_is_positive``.

    Builds the presentation, checks vec against it and takes the Smith
    decomposition of the relation matrix. Returns the presentation, vec as
    a tuple, the decomposition and the coordinates ``h0_class`` returns.
    """
    pres = h0_presentation(g)
    vec = _int_vector(vec)
    if len(vec) != len(pres.vertex_order):
        raise ValueError("vector length %d does not match %d vertices"
                         % (len(vec), len(pres.vertex_order)))
    dec = smith_normal_form(pres.relations)
    factors = dec.factors + (0,) * (len(vec) - len(dec.factors))
    y = dec.u.apply(vec)
    free = tuple(yi for yi, d in zip(y, factors) if d == 0)
    residues = tuple(yi % d for yi, d in zip(y, factors) if d > 1)
    return pres, vec, dec, free + residues


def h0_class(g: Graph, vec) -> tuple[int, ...]:
    """Canonical coordinates of a class: free coordinates, then residues.

    Two vectors get equal coordinates exactly when they differ by a relation
    combination. Free coordinates correspond to zero invariant factors of
    the relation matrix; residues are taken modulo factors larger than 1.
    """
    return _class_coordinates(g, vec)[-1]


def h0_is_positive(g: Graph, vec, cap: int) -> Verdict:
    """Bounded three-valued test for membership of [vec] in the cone.

    Positive verdicts always exhibit a nonnegative representative (the zero
    vector when the class is zero, otherwise one reached by breadth-first
    relation moves within cap dequeues). Negative requires both a Positive
    certificate for -vec and a cap-independent proof that [vec] itself is
    not in the cone, so verdicts never flip as cap grows. That proof is an
    entrywise-nonnegative integer functional that kills every relation
    column and is negative on vec; the candidates are the Hermite basis
    vectors of the left kernel and their negations, taken from the Smith
    decomposition that gave the coordinates.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    pres, vec, dec, coords = _class_coordinates(g, vec)
    if not any(coords):
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
    if not bfs(tuple(-x for x in vec)):
        return Verdict.UNKNOWN
    for row in _left_kernel(dec).rows:
        for cand in (row, tuple(-x for x in row)):
            if all(x >= 0 for x in cand) and \
                    sum(a * b for a, b in zip(cand, vec)) < 0:
                return Verdict.NEGATIVE
    return Verdict.UNKNOWN


def h0_bruteforce_oracle(g: Graph, max_len: int) -> FpAbelianGroup:
    """Independent computation of the group from truncated path generators.

    Generators are all paths of length at most max_len. Relations: every
    projection of length below max_len with regular range expands one step,
    and every projection of positive length is identified with its range
    vertex. The result must agree with h0 for every max_len >= 1.
    """
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
    return cokernel(IntMatrix(tuple(map(tuple, rows)), ncols))

"""Zeroth homology of the groupoid of a finite graph.

The group is presented on the free abelian group over the vertices, with one
relation column per regular vertex v:

    indicator(v) - sum over e in s^-1(v) of indicator(r(e))

For sink-free graphs the relation matrix is I - A^T. The module computes the
group in canonical form, canonical coordinates of classes, a sound bounded
positivity test, and an independent brute-force presentation on truncated
path generators used as an oracle for the vertex presentation.

A graph's presentation is built once per ``Graph`` instance, as sparse
rows read from the out-edges, and carries the Smith decomposition of the
one sparse elimination, computed on first use and shared by every query
on the graph. Coordinates replay the Smith log forward once per vector
(``SmithDecomposition.u_apply``), and the Negative certificate of
``h0_is_positive`` reads the kernel rows of u walked back through it;
``h0`` hands a copy of the rows to ``sparse_cokernel``. Only reports and
tests build the dense matrix. The oracle also writes its relations as
sparse rows, from per-vertex lists of out-edges and no path objects:
level 1 of its generators is the edges sorted by id, and each longer
level lists every parent's extensions together, in parent order, sorted
by edge id.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import add, attrgetter

from .graph import Graph, check_positive_weights
from .intlinalg import (FpAbelianGroup, IntMatrix, SmithDecomposition,
                        _int_vector, _left_kernel, _require_int,
                        sparse_cokernel, sparse_smith_normal_form)


class Verdict(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    ZERO = "Zero"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class H0Presentation:
    """Vertex-indexed presentation: ambient Z^vertices modulo the columns.

    ``relation_rows`` holds the (column, entry) nonzeros of each vertex's
    row. The cached properties are computed on first use and kept, so the
    queries on one graph share them; like the fields, they are immutable.
    """

    vertex_order: tuple[str, ...]
    regular_vertices: tuple[str, ...]
    relation_rows: tuple[tuple[tuple[int, int], ...], ...]

    def sparse(self, entry):
        """``entry`` (a sparse Smith entry) on a fresh copy of the rows."""
        return entry({i: dict(r) for i, r in enumerate(self.relation_rows)
                      if r}, len(self.vertex_order),
                     len(self.regular_vertices))

    @cached_property
    def smith(self) -> SmithDecomposition:
        """The Smith decomposition of the relation matrix."""
        return self.sparse(sparse_smith_normal_form)

    @cached_property
    def relations(self) -> IntMatrix:
        """The dense relation matrix, for reports and tests."""
        n = len(self.regular_vertices)
        return IntMatrix(tuple(tuple(dict(r).get(j, 0) for j in range(n))
                               for r in self.relation_rows), n)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The relation columns, one per regular vertex."""
        return tuple(zip(*self.relations.rows))


def h0_presentation(g: Graph) -> H0Presentation:
    """The presentation of g, built once per ``Graph`` instance.

    The first call checks the weights, builds the presentation and keeps
    it in the graph's instance dict, beside the graph's own cached lookups;
    later calls on that graph return the same object. A graph whose weights
    fail the check keeps nothing, so every call raises.
    """
    pres = vars(g).get("_h0_presentation")
    if pres is not None:
        return pres
    check_positive_weights(g, "homology")
    regular = [v for v in g.vertices if g.out_edges(v)]
    rows = [defaultdict(int) for _ in g.vertices]
    for j, v in enumerate(regular):
        rows[g.vertex_index(v)][j] += 1
        for e in g.out_edges(v):
            rows[g.vertex_index(e.dst)][j] -= 1
    pres = H0Presentation(vertex_order=g.vertices,
                          regular_vertices=tuple(regular),
                          relation_rows=tuple(tuple(
                              (j, x) for j, x in row.items() if x)
                              for row in rows))
    vars(g)["_h0_presentation"] = pres
    return pres


def h0(g: Graph) -> FpAbelianGroup:
    return h0_presentation(g).sparse(sparse_cokernel)


def _class_coordinates(g: Graph, vec):
    """The prologue shared by ``h0_class`` and ``h0_is_positive``.

    Checks vec against the presentation and reads its coordinates from
    u @ vec, the Smith log replayed forward once: the entries whose factor
    is 0 (a row past the diagonal has factor 0) are free, those whose
    factor d exceeds 1 are taken modulo d. Returns the presentation, vec as
    a tuple and the coordinates ``h0_class`` returns.
    """
    pres = h0_presentation(g)
    vec = _int_vector(vec)
    if len(vec) != len(pres.vertex_order):
        raise ValueError("vector length %d does not match %d vertices"
                         % (len(vec), len(pres.vertex_order)))
    dec = pres.smith
    y = dec.u_apply(vec)
    f = dec.factors
    free = tuple(y[i] for i in range(len(y)) if i >= len(f) or f[i] == 0)
    residues = tuple(yi % d for yi, d in zip(y, f) if d > 1)
    return pres, vec, free + residues


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
    cap = _require_int(cap, "caps")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    pres, vec, coords = _class_coordinates(g, vec)
    if not any(coords):
        return Verdict.POSITIVE
    # each relation column, then its negation
    moves = [m for col in pres.columns
             for m in (col, tuple(-x for x in col))]

    def bfs(start) -> bool:
        if min(start) >= 0:
            return True
        seen = {start}
        queue = deque([start])
        dequeued = 0
        while queue and dequeued < cap:
            cur = queue.popleft()
            dequeued += 1
            for move in moves:
                nxt = tuple(map(add, cur, move))
                if nxt in seen:
                    continue
                if min(nxt) >= 0:
                    return True
                seen.add(nxt)
                queue.append(nxt)
        return False

    if bfs(vec):
        return Verdict.POSITIVE
    if not bfs(tuple(-x for x in vec)):
        return Verdict.UNKNOWN
    for row in _left_kernel(pres.smith).rows:
        for cand in (row, tuple(-x for x in row)):
            if all(x >= 0 for x in cand) and \
                    sum(a * b for a, b in zip(cand, vec)) < 0:
                return Verdict.NEGATIVE
    return Verdict.UNKNOWN


def h0_bruteforce_oracle(g: Graph, max_len: int) -> FpAbelianGroup:
    """Independent computation of the group from truncated path generators.

    Generators are all paths of length at most max_len, in the order of
    ``graph.enumerate_paths``. Relations: every projection of length below
    max_len with regular range expands one step, and every projection of
    positive length is identified with its range vertex. The result must
    agree with h0 for every max_len >= 1.

    The relations are written as sparse rows, one per generator, and go
    straight to ``sparse_cokernel``: nearly every entry of the relation
    matrix is 0. Every entry written is +-1 and none is written twice,
    because a column touches a path and its distinct one-edge extensions,
    or a path of positive length and its range vertex.

    No path is built: a level is the list of its paths' range vertices.
    Level 1 is the edges sorted by id, and from length 2 on a sorted level
    lists each parent's extensions together, in parent order, sorted by
    edge id, so a parent's extensions are the next block of rows.
    """
    max_len = _require_int(max_len, "path lengths")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    check_positive_weights(g, "homology")
    n = len(g.vertices)
    vindex = {v: i for i, v in enumerate(g.vertices)}
    eid = attrgetter("eid")
    by_id = sorted(g.edges, key=eid)
    rank = {e.eid: r for r, e in enumerate(by_id)}
    # per vertex, in out-edge order: the rows of its one-edge paths and
    # the places of its out-edges in id order; and its targets in id order
    firsts, places, targets = [], [], []
    for v in g.vertices:
        out = g.out_edges(v)
        srt = sorted(out, key=eid)
        place = {e.eid: r for r, e in enumerate(srt)}
        firsts.append([n + rank[e.eid] for e in out])
        places.append([place[e.eid] for e in out])
        targets.append([vindex[e.dst] for e in srt])
    rows = {}
    j = 0
    for v, first in enumerate(firsts):
        if first:
            rows[v] = {j: 1}
            for i in first:
                rows[i] = {j: -1}
            j += 1
    level = [vindex[e.dst] for e in by_id]
    start = n
    for length in range(1, max_len + 1):
        expand = length < max_len
        child = start + len(level)
        for i, v in enumerate(level, start):
            row = rows[i]
            if expand and places[v]:
                row[j] = 1
                for r in places[v]:
                    rows[child + r] = {j: -1}
                child += len(places[v])
                j += 1
            vrow = rows.get(v)
            if vrow is None:
                rows[v] = {j: 1}
            else:
                vrow[j] = 1
            row[j] = -1
            j += 1
        start += len(level)
        if expand:
            level = list(chain.from_iterable(map(targets.__getitem__,
                                                 level)))
    return sparse_cokernel(rows, start, j)

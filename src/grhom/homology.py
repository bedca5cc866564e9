"""Zeroth homology of the groupoid of a finite graph.

The group is presented on the free abelian group over the vertices, with one
relation column per regular vertex v:

    indicator(v) - sum over e in s^-1(v) of indicator(r(e))

For sink-free graphs the relation matrix is I - A^T. The module computes the
group in canonical form, canonical coordinates of classes, a sound bounded
positivity test, and an independent brute-force presentation on truncated
path generators used as an oracle for the vertex presentation.

A graph's presentation is built once per ``Graph`` instance, as sparse
relation columns read from ``Graph.out_arcs``, and carries the Smith
decomposition of the one sparse elimination, computed on first use and
shared by every query on the graph: ``h0`` reads the group from its
diagonal, coordinates replay its log forward once per vector
(``SmithDecomposition.u_apply``), and the Negative certificates of
``h0_is_positive`` are the nonnegative kernel rows of u, walked back
through the log once per presentation. Only reports and tests build the
dense matrix. The oracle writes its relations as sparse columns, from
per-vertex lists of out-edges and no path objects: level 1 of its
generators is the edges sorted by id, and each longer level lists every
parent's extensions together, in parent order, sorted by edge id. Most
of its columns identify a path with its range vertex, and
``sparse_cokernel`` merges them first, which reduces the path-space
presentation to the vertex one (Matui, Proc. LMS 2012).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import add, attrgetter, mul

from .graph import Graph, check_positive_weights
from .intlinalg import (FpAbelianGroup, IntMatrix, SmithDecomposition,
                        _group, _int_vector, _left_kernel, _require_int,
                        sparse_cokernel, sparse_smith_normal_form)


class Verdict(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    ZERO = "Zero"
    UNKNOWN = "Unknown"


def _require_cap(cap) -> int:
    """The cap of an order test as a plain int, else ValueError."""
    cap = _require_int(cap, "caps")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    return cap


@dataclass(frozen=True)
class H0Presentation:
    """Vertex-indexed presentation: ambient Z^vertices modulo the columns.

    ``relation_columns`` holds the (vertex index, entry) nonzeros of each
    regular vertex's column, in the relation-column form of ``intlinalg``;
    it is the one sparse form, which ``smith`` reads. The cached
    properties are computed on first use and kept, so the queries on one
    graph share them; like the fields, they are immutable.
    """

    vertex_order: tuple[str, ...]
    regular_vertices: tuple[str, ...]
    relation_columns: tuple[tuple[tuple[int, int], ...], ...]

    @cached_property
    def smith(self) -> SmithDecomposition:
        """The Smith decomposition of the relation matrix."""
        return sparse_smith_normal_form(self.relation_columns,
                                        len(self.vertex_order))

    @cached_property
    def relations(self) -> IntMatrix:
        """The dense relation matrix, for reports and tests."""
        rows = [[0] * len(self.relation_columns) for _ in self.vertex_order]
        for j, col in enumerate(self.relation_columns):
            for i, x in col:
                rows[i][j] = x
        return IntMatrix(tuple(map(tuple, rows)), len(self.relation_columns))

    @cached_property
    def separators(self) -> tuple[tuple[int, ...], ...]:
        """The entrywise-nonnegative functionals among the Hermite basis
        rows of the left kernel and their negations: the candidates for
        the Negative certificate of ``h0_is_positive``."""
        return tuple(cand for row in _left_kernel(self.smith).rows
                     for cand in (row, tuple(-x for x in row))
                     if min(cand) >= 0)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The dense relation columns, one per regular vertex: the moves
        of ``h0_is_positive``."""
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
    regular, columns = [], []
    for i, arcs in enumerate(g.out_arcs):
        if arcs:
            regular.append(g.vertices[i])
            col = {i: 1}
            for j, _ in arcs:
                col[j] = col.get(j, 0) - 1
            columns.append(tuple((r, x) for r, x in col.items() if x))
    pres = H0Presentation(vertex_order=g.vertices,
                          regular_vertices=tuple(regular),
                          relation_columns=tuple(columns))
    vars(g)["_h0_presentation"] = pres
    return pres


def h0(g: Graph) -> FpAbelianGroup:
    """The group, read from the Smith diagonal of the presentation that
    the class queries on g share."""
    return _group(len(g.vertices), h0_presentation(g).smith.factors)


def _presented_vector(g: Graph, vec):
    """The checks shared by ``h0_class`` and ``h0_is_positive``: the
    presentation of g (its weights checked on the first call) and vec as
    a tuple of one int per vertex."""
    pres = h0_presentation(g)
    vec = _int_vector(vec)
    if len(vec) != len(pres.vertex_order):
        raise ValueError("vector length %d does not match %d vertices"
                         % (len(vec), len(pres.vertex_order)))
    return pres, vec


def _class_coordinates(pres: H0Presentation, vec) -> tuple[int, ...]:
    """The coordinates ``h0_class`` returns, read from u @ vec, the Smith
    log replayed forward once: the entries whose factor is 0 (a row past
    the diagonal has factor 0) are free, those whose factor d exceeds 1
    are taken modulo d."""
    dec = pres.smith
    y = dec.u_apply(vec)
    f = dec.factors
    free = tuple(y[i] for i in range(len(y)) if i >= len(f) or f[i] == 0)
    residues = tuple(yi % d for yi, d in zip(y, f) if d > 1)
    return free + residues


def h0_class(g: Graph, vec) -> tuple[int, ...]:
    """Canonical coordinates of a class: free coordinates, then residues.

    Two vectors get equal coordinates exactly when they differ by a relation
    combination. Free coordinates correspond to zero invariant factors of
    the relation matrix; residues are taken modulo factors larger than 1.
    """
    return _class_coordinates(*_presented_vector(g, vec))


def h0_is_positive(g: Graph, vec, cap: int) -> Verdict:
    """Bounded three-valued test for membership of [vec] in the cone.

    Positive exhibits a nonnegative representative: vec itself, the zero
    vector when the class is zero, or one reached by breadth-first
    relation moves within cap dequeues. Negative needs a Positive
    certificate for -vec and a cap-independent proof that [vec] is not in
    the cone, so verdicts never flip as cap grows. The proof is an
    entrywise-nonnegative integer functional that kills every relation
    column and is negative on vec; the candidates are the Hermite basis
    vectors of the left kernel and their negations, from the Smith
    decomposition that gives the coordinates (``H0Presentation.separators``).

    A nonnegative vec is Positive before u @ vec, the dense relation
    columns or the moves are built. Otherwise the proof picks the one
    search to run: a functional takes one value on the class and is
    nonnegative on the cone, so with one the search from vec cannot
    succeed and only that from -vec runs; without one Negative is out of
    reach and only the search from vec runs.
    """
    cap = _require_cap(cap)
    pres, vec = _presented_vector(g, vec)
    if min(vec, default=0) >= 0 or not any(_class_coordinates(pres, vec)):
        return Verdict.POSITIVE
    if any(sum(map(mul, cand, vec)) < 0 for cand in pres.separators):
        start, found = tuple(-x for x in vec), Verdict.NEGATIVE
    else:
        start, found = vec, Verdict.POSITIVE
    if min(start) >= 0:
        return found
    # breadth-first over each relation column, then its negation
    moves = [m for col in pres.columns
             for m in (col, tuple(-x for x in col))]
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
                return found
            seen.add(nxt)
            queue.append(nxt)
    return Verdict.UNKNOWN


def h0_bruteforce_oracle(g: Graph, max_len: int) -> FpAbelianGroup:
    """Independent computation of the group from truncated path generators.

    Generators are all paths of length at most max_len, in the order of
    ``graph.enumerate_paths``. Relations: every projection of length below
    max_len with regular range expands one step, and every projection of
    positive length is identified with its range vertex. The result must
    agree with h0 for every max_len >= 1.

    The relations are written as sparse columns and go straight to
    ``sparse_cokernel``: nearly every entry of the relation matrix is 0.
    Every entry written is +-1 and no row is written twice in a column,
    because a column touches a path and its distinct one-edge extensions,
    or a path of positive length and its range vertex; each column lists
    its rows in increasing order. The second kind, most of the columns,
    are identifications, which ``sparse_cokernel`` merges before its
    elimination.

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
    # per vertex, its targets in edge id order; a regular vertex's
    # column meets the rows of its one-edge paths
    columns, targets = [], []
    for v, name in enumerate(g.vertices):
        srt = sorted(g.out_edges(name), key=eid)
        targets.append([vindex[e.dst] for e in srt])
        if srt:
            columns.append([(v, 1)] + [(n + rank[e.eid], -1) for e in srt])
    level = [vindex[e.dst] for e in by_id]
    start = n
    for length in range(1, max_len + 1):
        expand = length < max_len
        child = start + len(level)
        for i, v in enumerate(level, start):
            if expand and targets[v]:
                end = child + len(targets[v])
                columns.append([(i, 1)] + [(c, -1)
                                           for c in range(child, end)])
                child = end
            columns.append(((v, 1), (i, -1)))
        start += len(level)
        if expand:
            level = list(chain.from_iterable(map(targets.__getitem__,
                                                 level)))
    return sparse_cokernel(columns, start)

"""The stage-graded zeroth homology module of a graph groupoid.

Elements are finite integer combinations of generators a_v(n), one per
vertex v and stage n, subject to one relation per regular vertex and stage:

    a_v(n) = sum over e in s^-1(v) of a_{r(e)}(n - weight(e))

The Laurent variable x shifts stages up by one, so the module is a
Z[x, x^-1]-module; the connecting endomorphism is multiplication by (x - 1)
and the stage-collapsing map sums each generator's coefficients into the
ambient vertex vector. Equality of elements is decidable: push the
difference down far enough and test for the zero vector; how far is the
decision depth of ``_decision_depth``, whose docstring proves it. The
relations are read from ``Graph.out_arcs``, the (target index, weight)
of each out-edge per vertex index, which the module shares with every
other layer that reads the graph's edges. For sink-free weight-1 graphs
the same module is presented as the stationary inductive limit of
Z^vertices along the transposed adjacency matrix (the Krieger dimension
triple, with its canonical automorphism and positivity).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, mul, neg, sub

from .graph import (Graph, _looks_like_int, _split_terms, adjacency,
                    check_positive_weights, check_unit_sink_free)
from .homology import Verdict, _require_cap, h0
from .intlinalg import (FpAbelianGroup, IntMatrix, _int_vector, _require_int,
                        _vector_for, eventual_kernel, mat_pow_apply,
                        sparse_cokernel)


def _negated(vec) -> tuple[int, ...]:
    return tuple(map(neg, vec))


@dataclass(frozen=True)
class StagedVector:
    """Finite support map stage -> integer vector over the vertices.

    Stored as a sorted tuple of (stage, vector) pairs with zero vectors
    dropped, so equality and iteration order are canonical.
    """

    stages: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def build(cls, mapping) -> "StagedVector":
        items = []
        for stage, vec in mapping.items():
            if type(stage) is not int:
                stage = _require_int(stage, "stages")
            vec = _int_vector(vec)
            if any(vec):
                items.append((stage, vec))
        items.sort()
        return cls(stages=tuple(items))

    @classmethod
    def zero(cls) -> "StagedVector":
        return cls(stages=())

    def to_mapping(self) -> dict[int, tuple[int, ...]]:
        return {stage: vec for stage, vec in self.stages}

    def is_zero(self) -> bool:
        return not self.stages

    def is_nonneg(self) -> bool:
        return all(x >= 0 for _, vec in self.stages for x in vec)

    def is_nonpos(self) -> bool:
        return all(x <= 0 for _, vec in self.stages for x in vec)

    def min_stage(self) -> int:
        if not self.stages:
            raise ValueError("zero vector has no support")
        return self.stages[0][0]

    def max_stage(self) -> int:
        if not self.stages:
            raise ValueError("zero vector has no support")
        return self.stages[-1][0]

    def shift(self, k: int) -> "StagedVector":
        if type(k) is not int:
            k = _require_int(k, "shifts")
        return StagedVector(stages=tuple((n + k, vec)
                                         for n, vec in self.stages))

    def _combine(self, other, op, lone):
        """Stage by stage, ``op`` of this vector and ``other`` where both
        have the stage, ``lone`` of other's vector where only other has
        it; one pass over other's stages."""
        if not isinstance(other, StagedVector):
            return NotImplemented
        acc = dict(self.stages)
        for n, vec in other.stages:
            mine = acc.get(n)
            if mine is None:
                acc[n] = lone(vec)
            elif len(mine) != len(vec):
                raise ValueError("stage %d: mixed vector lengths" % n)
            else:
                acc[n] = tuple(map(op, mine, vec))
        return StagedVector.build(acc)

    def __add__(self, other):
        return self._combine(other, add, tuple)

    def __sub__(self, other):
        return self._combine(other, sub, _negated)

    def __neg__(self):
        return StagedVector(stages=tuple((n, _negated(vec))
                                         for n, vec in self.stages))

    def scale(self, c: int) -> "StagedVector":
        if type(c) is not int:
            c = _require_int(c, "scalars")
        if c == 0:
            return StagedVector.zero()
        return StagedVector(stages=tuple((n, tuple(map(mul, repeat(c), vec)))
                                         for n, vec in self.stages))

    def __rmul__(self, c):
        return self.scale(c)


@dataclass(frozen=True)
class GradedModule:
    """The graded module of a weighted graph, whose weights must be at
    least 1. The other attributes are read from the graph, so they cannot
    contradict it; like the graph, the module is immutable."""

    graph: Graph

    def __post_init__(self):
        check_positive_weights(self.graph, "the graded module")

    @cached_property
    def regular(self) -> tuple[bool, ...]:
        """Per vertex index, whether the vertex emits an edge."""
        return tuple(map(bool, self.graph.out_arcs))

    @property
    def stabilization_bound(self) -> int:
        """The vertex count, which the benchmark tracer and the tests
        read; ``equals`` pushes to ``_decision_depth`` instead."""
        return len(self.graph.vertices)

    @cached_property
    def max_weight(self) -> int:
        return self.graph.max_weight()

    @property
    def nvertices(self):
        return len(self.graph.vertices)

    def generator(self, vertex: str, stage: int, coeff: int = 1) -> StagedVector:
        vec = [0] * self.nvertices
        vec[self.graph.vertex_index(vertex)] = coeff
        return StagedVector.build({stage: vec})

    def relation(self, vertex: str, stage: int) -> StagedVector:
        """a_v(stage) minus its one-step expansion; zero element of the module."""
        idx = self.graph.vertex_index(vertex)
        if not self.regular[idx]:
            raise ValueError("vertex %r is a sink; no relation there" % vertex)
        acc: dict[int, list[int]] = {stage: [0] * self.nvertices}
        acc[stage][idx] = 1
        for tgt, w in self.graph.out_arcs[idx]:
            row = acc.setdefault(stage - w, [0] * self.nvertices)
            row[tgt] -= 1
        return StagedVector.build(acc)


def graded_module(g: Graph) -> GradedModule:
    return GradedModule(g)


def x_action(v: StagedVector, k: int) -> StagedVector:
    """Multiplication by x^k: shift every stage up by k."""
    return v.shift(k)


def pushdown(m: GradedModule, v: StagedVector, target: int) -> StagedVector:
    """Rewrite v so no regular coordinate sits above ``target``.

    Applies the defining relation left to right, top stage first. On a
    weight-1 graph every regular coordinate lands exactly at the target
    stage; with larger weights a coordinate may drop past it. Sink
    coordinates freeze at the stage where they are created.

    A max-heap holds every stage above the target, seeded with the input
    stages and pushed when a write first creates one. Expanding stage s
    writes only to stages below s, so no popped stage is written again and
    popping the maximum expands the stages top-down, each exactly once; a
    stage with no regular coordinate left is a no-op. The cost is one visit
    per stage between the support top and the target. A stage left empty
    is dropped once expanded, so memory follows the stages still live plus
    the sink coordinates, not the depth.
    """
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
    heap = [-s for s in work if s > target]
    heapq.heapify(heap)
    regular, out = m.regular, m.graph.out_arcs
    while heap:
        s = -heapq.heappop(heap)
        vec = work[s]
        for i, c in enumerate(vec):
            if c and regular[i]:
                vec[i] = 0
                for tgt, w in out[i]:
                    t = s - w
                    row = work.get(t)
                    if row is None:
                        row = work[t] = [0] * n
                        if t > target:
                            heapq.heappush(heap, -t)
                    row[tgt] += c
        if not any(vec):
            del work[s]
    return StagedVector.build(work)


def _decision_depth(m: GradedModule) -> int:
    """How far below the support ``equals`` and ``is_positive`` push:
    R + sum over vertices u of (w_in(u) - 1), where R counts the regular
    vertices and w_in(u) is the largest weight of an edge into u (1 when u
    has none). It never exceeds n * max_weight.

    The bound is the number of regular vertices of the unit-weight
    delay-line graph D: each vertex u gets a chain y_{u,w_in(u)-1} -> ...
    -> y_{u,1} -> y_{u,0} = u of fresh vertices with one out-edge each,
    and an edge of weight w into u becomes a unit edge into y_{u,w-1}.
    Sinks stay sinks and every fresh vertex is regular.

    First, D decides the weighted module. a_v(s) -> a_v(s) on the old
    vertices, with y_{u,i}(t) -> a_u(t - i), is an isomorphism of the two
    modules: the chain relations identify y_{u,i}(t) with a_u(t - i), and
    the relation of an old vertex maps onto its weighted relation.
    Pushdown is linear, and on a generator a_v(s) with s > T both
    pushdowns follow the same paths: in D the copy entering u's chain at
    stage s - 1 walks down it until it reaches u at stage s - w > T, where
    it is expanded further, or stops at y_{u,i}(T) with T - i = s - w,
    exactly where the weighted pushdown leaves a_u(s - w). So the weighted
    pushdown to T is the image of D's, with y_{u,i}(T) read as a_u(T - i).
    D's pushdown leaves nothing below T and a reading with i >= 1 lies
    below T, so distinct coordinates are read as distinct coordinates and
    one pushdown is zero exactly when the other is.

    Second, on a unit-weight graph with R regular vertices, R stages below
    the support minimum s0 decide zero. The pushdown to s0 leaves every
    regular coordinate at stage s0, as a vector r. Each further stage
    maps r to B r one stage lower, with B the regular-to-regular block of
    the transposed adjacency matrix, and creates sink coordinates that no
    later stage moves. An element that is zero is a finite sum of
    relations, and a pushdown below all of their stages sends each
    relation, so the element, to 0. So if the element is zero, B^k r = 0
    for some k, so r lies in the generalized kernel of B, which has
    dimension at most R, and B^R r = 0; and every sink coordinate created
    so far is 0, since the deep pushdown keeps it and is 0. Pushing R
    stages below s0 therefore gives 0. Pushdown only applies relations,
    so a zero result always means a zero element.
    """
    w_in = [1] * m.nvertices
    for arcs in m.graph.out_arcs:
        for tgt, w in arcs:
            if w > w_in[tgt]:
                w_in[tgt] = w
    return sum(m.regular) + sum(w_in) - m.nvertices


def equals(m: GradedModule, u: StagedVector, v: StagedVector) -> bool:
    """Exact equality in the module: push the difference down
    ``_decision_depth(m)`` stages below its support."""
    d = u - v
    if d.is_zero():
        return True
    return pushdown(m, d, d.min_stage() - _decision_depth(m)).is_zero()


def is_positive(m: GradedModule, v: StagedVector, cap: int) -> Verdict:
    """Four-valued order test against the cone of nonnegative elements.

    One walk: for k = 0..cap push v to base - k, base its support minimum,
    or to the support minimum where heavy edges went lower; zero is Zero,
    nonnegative Positive, nonpositive Negative. Then push on likewise to
    base - ``_decision_depth``: Zero if that vanishes, else Unknown, as in
    ``equals``, since pushing to T after S >= T is pushing to T. A nonzero
    sign-definite pushdown stays so deeper (one sign never cancels, sinks
    freeze), so it is never zero and verdicts never flip as cap grows.
    """
    cap = _require_cap(cap)
    if v.is_zero():
        return Verdict.ZERO
    base, w = v.min_stage(), v
    for k in range(cap + 1):
        w = pushdown(m, w, min(base - k, w.min_stage()))
        if w.is_zero():
            return Verdict.ZERO
        if w.is_nonneg():
            return Verdict.POSITIVE
        if w.is_nonpos():
            return Verdict.NEGATIVE
    w = pushdown(m, w, min(base - _decision_depth(m), w.min_stage()))
    return Verdict.ZERO if w.is_zero() else Verdict.UNKNOWN


def lambda_map(v: StagedVector) -> StagedVector:
    """The connecting endomorphism: multiplication by (x - 1)."""
    return x_action(v, 1) - v


def sigma_map(v: StagedVector) -> tuple[int, ...]:
    """Collapse stages: sum the coefficient vectors over all stages."""
    if not v.stages:
        return ()
    acc = [0] * len(v.stages[0][1])
    for _, vec in v.stages:
        for i, x in enumerate(vec):
            acc[i] += x
    return tuple(acc)


def _sample_elements(m: GradedModule):
    n = m.nvertices
    for i in range(n):
        for stage in range(-2, 3):
            yield StagedVector.build(
                {stage: [0] * i + [1] + [0] * (n - 1 - i)})
    # sum over i of (2i - 3) a(vertex i, i - 1): each vertex alone at its
    # own stage, and 2i - 3 is never 0
    combo = StagedVector.build(
        {i - 1: [0] * i + [2 * i - 3] + [0] * (n - 1 - i) for i in range(n)})
    if not combo.is_zero():
        yield combo


def verify_exact_sequence(g: Graph) -> dict:
    """Check the two exactness facts linking the graded and plain groups.

    First, the stage-collapsing map kills every (x - 1)-image on a sample of
    generators, exactly and before any quotient. Second, the cokernel of
    (x - 1) equals the plain homology group: specializing at x = 1 is
    realized by a finite window presentation whose generators live at the
    stages a relation touches, 1 and 1 - w(e) for each edge e, with
    relation columns at the top stage and (x - 1)-columns identifying
    consecutive touched stages. The full window from 1 - max_weight to 1
    gives the same group: a stage no relation touches sits only in the
    chain of identifications between its touched neighbours, and
    contracting that chain is unimodular. So the work follows the number
    of distinct weights, not their size. The (x - 1)-columns are
    identification columns, which ``sparse_cokernel`` merges before any
    pivot, so what is left to eliminate is the relation columns on one
    copy of the vertices.
    """
    m = graded_module(g)
    sigma_lambda_zero = all(
        all(x == 0 for x in sigma_map(lambda_map(v)))
        for v in _sample_elements(m))

    n, out = m.nvertices, g.out_arcs
    stages = sorted({1}.union(1 - w for arcs in out for _, w in arcs))
    pos = {s: i for i, s in enumerate(stages)}
    nrows = len(stages) * n

    # the relation columns at the top stage: weights are at least 1, so a
    # column's -1s never meet its +1; then the (x - 1)-columns, each an
    # identification of a vertex at one touched stage and the next
    columns = []
    for j in range(n):
        if m.regular[j]:
            col = {pos[1] * n + j: 1}
            for tgt, w in out[j]:
                r = pos[1 - w] * n + tgt
                col[r] = col.get(r, 0) - 1
            columns.append(tuple(col.items()))
    for i in range(1, len(stages)):
        columns.extend(((i * n + j, 1), (i * n - n + j, -1)) for j in range(n))
    coker_lambda = sparse_cokernel(columns, nrows)
    plain = h0(g)
    return {
        "sigma_lambda_zero": bool(sigma_lambda_zero),
        "coker_lambda_equals_h0": coker_lambda == plain,
        "h0_group": plain,
        "coker_lambda_group": coker_lambda,
    }


@dataclass(frozen=True)
class DimensionTriple:
    """Stationary inductive limit of Z^vertices along the transposed adjacency.

    Elements are pairs (vector, level) with (v, n) identified with
    (A^T v, n + 1); the positive cone consists of classes with an entrywise
    nonnegative representative, and the canonical automorphism multiplies by
    A^T without moving the level. The generator a_v(n) of the graded module
    corresponds to (indicator(v), -n).
    """

    vertex_order: tuple[str, ...]
    at: IntMatrix
    eventual_kernel_basis: IntMatrix

    @property
    def rank(self):
        return self.at.nrows

    def element(self, vec, level: int = 0):
        return (_vector_for(self.at, vec), _require_int(level, "levels"))

    def from_staged(self, sv: StagedVector):
        """Embed a staged vector; stage n lands at level -n."""
        if sv.is_zero():
            return ((0,) * self.rank, 0)
        level = -sv.min_stage()
        acc = [0] * self.rank
        for stage, vec in sv.stages:
            part = mat_pow_apply(self.at, vec, stage - sv.min_stage())
            acc = list(map(add, acc, part))
        return (tuple(acc), level)

    def equal(self, a, b) -> bool:
        """Whether two (vector, level) pairs name the same limit element.
        Both vectors and both levels are checked before either is walked."""
        (va, na), (vb, nb) = a, b
        va, vb = _vector_for(self.at, va), _vector_for(self.at, vb)
        na, nb = _require_int(na, "levels"), _require_int(nb, "levels")
        level = max(na, nb)
        wa = mat_pow_apply(self.at, va, level - na)
        wb = mat_pow_apply(self.at, vb, level - nb)
        diff = tuple(x - y for x, y in zip(wa, wb))
        return not any(mat_pow_apply(self.at, diff, self.rank))

    def is_positive(self, a, cap: int) -> Verdict:
        """Order test in one walk over (A^T)^k vec for k <= max(cap, rank).
        A zero vector is Zero, exactly: k = rank reaches the eventual kernel.
        For k <= cap a nonnegative vector is Positive and a nonpositive one
        Negative: with no sinks, A^T sends neither to 0. Else Unknown.
        The level is checked as in ``element`` and plays no other part."""
        cap = _require_cap(cap)
        vec, level = a
        cur = _vector_for(self.at, vec)
        _require_int(level, "levels")
        for k in range(max(cap, self.rank) + 1):
            if not any(cur):
                return Verdict.ZERO
            if k <= cap and min(cur) >= 0:
                return Verdict.POSITIVE
            if k <= cap and max(cur) <= 0:
                return Verdict.NEGATIVE
            cur = self.at.apply(cur)
        return Verdict.UNKNOWN

    def automorphism(self, a):
        """The canonical module automorphism: multiply by A^T, keep the level."""
        vec, level = a
        return (self.at.apply(vec), level)

    def group(self) -> FpAbelianGroup:
        """Z^rank modulo the eventual kernel K = ker(A^m): free, since K is
        saturated (kx in K with k != 0 puts x in K), of rank ``rank`` minus
        the number of K's Hermite basis rows, which are independent."""
        return FpAbelianGroup(self.rank - self.eventual_kernel_basis.nrows,
                              ())


def dimension_triple(g: Graph) -> DimensionTriple:
    check_unit_sink_free(g, "dimension triple")
    at = adjacency(g).transpose()
    return DimensionTriple(vertex_order=g.vertices, at=at,
                           eventual_kernel_basis=eventual_kernel(at))


def parse_staged_expression(m: GradedModule, text: str) -> StagedVector:
    """Parse generator combinations like ``a(u,0) + 2 a(v,-1)``.

    Signs and coefficients follow ``graph._split_terms``; each term is one
    ``a(vertex,stage)`` token. Vertex names containing commas or
    parentheses cannot be written in this syntax.
    """
    n = m.nvertices
    acc: dict[int, list[int]] = {}
    for coeff, body in _split_terms(text):
        if len(body) > 1:
            raise ValueError("missing '+' or '-' before %r" % body[1])
        tok = body[0]
        if not (tok.startswith("a(") and tok.endswith(")") and "," in tok):
            raise ValueError("cannot read term %r; expected a(vertex,stage)"
                             % tok)
        vertex, _, stage_text = tok[2:-1].rpartition(",")
        if not vertex:
            raise ValueError("missing vertex in term %r" % tok)
        if not _looks_like_int(stage_text):
            raise ValueError("stage %r is not an integer" % stage_text)
        stage = int(stage_text)
        idx = m.graph.vertex_index(vertex)
        acc.setdefault(stage, [0] * n)[idx] += coeff
    return StagedVector.build(acc)

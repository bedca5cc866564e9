"""Graph corpora for property testing and small-scale surveys.

Exhaustive enumeration of small labeled multigraphs plus seeded random
generators. Parallel edges are unordered, so enumeration runs over
multisets of ordered vertex pairs; edge ids are synthesized positionally.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from random import Random
from typing import Iterator

from .graph import Graph, adjacency, graph_from_dict
from .intlinalg import mat_pow

# draws ``random_primitive_graph`` makes before it gives up
PRIMITIVE_ATTEMPTS = 1000

def _build(nvertices: int, pairs) -> Graph:
    names = ["v%d" % i for i in range(nvertices)]
    edges = [{"id": "e%d" % k, "src": names[i], "dst": names[j]}
             for k, (i, j) in enumerate(pairs)]
    return graph_from_dict({"vertices": names, "edges": edges})


def enumerate_multigraphs(max_vertices: int = 3,
                          max_edges: int = 4) -> Iterator[Graph]:
    """Every labeled multigraph with at most the given vertices and edges.

    For each vertex count n and edge count e, yields one graph per multiset
    of e ordered pairs drawn from the n^2 possible (src, dst) slots. The
    default bounds give 790 graphs.
    """
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(n)]
        for e in range(max_edges + 1):
            for pairs in combinations_with_replacement(slots, e):
                yield _build(n, pairs)


def random_graph(rng: Random, max_vertices: int, max_edges: int,
                 sink_free: bool = False) -> Graph:
    """One random multigraph; with sink_free, every vertex gets an out-edge."""
    if max_vertices < 1:
        raise ValueError("need at least one vertex")
    n = rng.randint(1, max_vertices)
    pairs = []
    if sink_free:
        if max_edges < max_vertices:
            raise ValueError("sink-free graphs need max_edges >= max_vertices")
        pairs.extend((i, rng.randrange(n)) for i in range(n))
    lo = len(pairs)
    e = rng.randint(lo, max_edges)
    pairs.extend((rng.randrange(n), rng.randrange(n))
                 for _ in range(e - lo))
    return _build(n, pairs)


def is_primitive(g: Graph) -> bool:
    """Whether the adjacency matrix is primitive (some power is positive).

    Checks the single power at the Wielandt bound (n-1)^2 + 1, past which
    a primitive matrix is already entrywise positive.
    """
    a = adjacency(g)
    n = a.nrows
    power = mat_pow(a, (n - 1) ** 2 + 1)
    return all(power.entry(i, j) > 0 for i in range(n) for j in range(n))


def random_primitive_graph(rng: Random, max_vertices: int,
                           max_edges: int) -> Graph:
    """Rejection-sample a primitive sink-free graph."""
    for _ in range(PRIMITIVE_ATTEMPTS):
        g = random_graph(rng, max_vertices, max_edges, sink_free=True)
        if is_primitive(g):
            return g
    raise RuntimeError("no primitive graph found in %d attempts"
                       % PRIMITIVE_ATTEMPTS)

"""Compare small shifts of finite type for eventual conjugacy.

Runs the invariant pipeline (spectrum, homology, certificate search) on
a few named adjacency matrices and on random primitive graph pairs,
printing one verdict line per comparison.

Usage:
    python3 scripts/eventual_conjugacy_demo.py --pairs 10 --seed 7
"""

import argparse
import sys
from random import Random

from grhom.corpus import random_primitive_graph
from grhom.dynamics import eventual_conjugacy_verdict, SearchBudget
from grhom.graph import adjacency, Edge, Graph


def loops_graph(name: str, count: int) -> Graph:
    """Single vertex with the given number of loops."""
    return Graph(vertices=(name,),
                 edges=tuple(Edge(eid="%s%d" % (name, i), src=name, dst=name)
                             for i in range(count)))


def full_shift_cover() -> Graph:
    """Two vertices, every ordered pair connected: the full 2-shift."""
    vs = ("a", "b")
    edges = []
    for i, src in enumerate(vs):
        for j, dst in enumerate(vs):
            edges.append(Edge(eid="e%d%d" % (i, j), src=src, dst=dst))
    return Graph(vertices=vs, edges=tuple(edges))


def describe(g: Graph) -> str:
    a = adjacency(g)
    return "[" + "; ".join(" ".join(str(x) for x in row)
                           for row in a.rows) + "]"


def show(tag, g1, g2, budget):
    rep = eventual_conjugacy_verdict(g1, g2, budget)
    line = "%-24s %s vs %s: %s" % (tag, describe(g1), describe(g2),
                                   rep.verdict)
    if rep.verdict == "Distinguished":
        line += " (by %s)" % rep.distinguished_by
    elif rep.verdict == "EventuallyConjugate":
        line += " (lag %d)" % rep.certificate.lag
    print(line)
    return rep.verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-vertices", type=int, default=3)
    parser.add_argument("--max-edges", type=int, default=5)
    parser.add_argument("--max-lag", type=int, default=2)
    parser.add_argument("--entry-bound", type=int, default=2)
    args = parser.parse_args(argv)
    budget = SearchBudget(max_lag=args.max_lag, entry_bound=args.entry_bound)

    print("named comparisons:")
    show("doubling vs full 2-shift", loops_graph("u", 2),
         full_shift_cover(), budget)
    show("2 loops vs 3 loops", loops_graph("u", 2), loops_graph("v", 3),
         budget)
    show("full 2-shift vs itself", full_shift_cover(), full_shift_cover(),
         budget)

    print()
    print("random primitive pairs (seed %d):" % args.seed)
    rng = Random(args.seed)
    tally = {"EventuallyConjugate": 0, "Distinguished": 0, "Unknown": 0}
    for i in range(args.pairs):
        g1 = random_primitive_graph(rng, args.max_vertices, args.max_edges)
        g2 = random_primitive_graph(rng, args.max_vertices, args.max_edges)
        verdict = show("pair %d" % i, g1, g2, budget)
        tally[verdict] += 1
    print()
    print("tally: %s" % ", ".join("%s %d" % kv for kv in tally.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Survey homology invariants over all small directed multigraphs.

Enumerates every multigraph up to the configured size, computes the
zeroth homology of each graph groupoid, and tabulates the groups that
occur together with how often the truncated-path oracle confirms them.

Usage:
    python3 scripts/survey_small_graphs.py --max-vertices 3 --max-edges 4
"""

import argparse
import sys
from collections import Counter

from grhom.corpus import enumerate_multigraphs, is_primitive
from grhom.graded import verify_exact_sequence
from grhom.graph import VertexClass, classify_vertices
from grhom.homology import h0, h0_bruteforce_oracle


def survey(args):
    """Tally the corpus that the parsed command line ``args`` selects."""
    groups = Counter()
    sink_free = 0
    primitive = 0
    oracle_checked = 0
    oracle_matched = 0
    exactness_ok = 0
    total = 0
    for i, g in enumerate(enumerate_multigraphs(args.max_vertices,
                                                args.max_edges)):
        total += 1
        group = h0(g)
        groups[group.describe()] += 1
        classes = classify_vertices(g)
        if all(c is VertexClass.REGULAR for c in classes.values()):
            sink_free += 1
            if is_primitive(g):
                primitive += 1
        doc = verify_exact_sequence(g)
        if doc["sigma_lambda_zero"] and doc["coker_lambda_equals_h0"]:
            exactness_ok += 1
        if i % args.oracle_stride == 0:
            oracle_checked += 1
            if h0_bruteforce_oracle(g, args.oracle_max_len) == group:
                oracle_matched += 1
    return {
        "total": total,
        "groups": groups,
        "sink_free": sink_free,
        "primitive": primitive,
        "exactness_ok": exactness_ok,
        "oracle_checked": oracle_checked,
        "oracle_matched": oracle_matched,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-vertices", type=int, default=3)
    parser.add_argument("--max-edges", type=int, default=4)
    parser.add_argument("--oracle-max-len", type=int, default=2)
    parser.add_argument("--oracle-stride", type=int, default=10)
    args = parser.parse_args(argv)

    res = survey(args)
    print("graphs surveyed: %d (<= %d vertices, <= %d edges)"
          % (res["total"], args.max_vertices, args.max_edges))
    print("sink-free: %d, of those primitive: %d"
          % (res["sink_free"], res["primitive"]))
    print("exact-sequence report clean: %d / %d"
          % (res["exactness_ok"], res["total"]))
    print("oracle agreement (max_len %d, every %dth graph): %d / %d"
          % (args.oracle_max_len, args.oracle_stride,
             res["oracle_matched"], res["oracle_checked"]))
    print()
    print("H0 groups by frequency:")
    width = max(len(name) for name in res["groups"])
    for name, count in res["groups"].most_common():
        print("  %-*s  %d" % (width, name, count))
    return 0


if __name__ == "__main__":
    sys.exit(main())

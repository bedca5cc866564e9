"""Command-line front end emitting canonical JSON reports.

Every report embeds the vertex order of the input graph and the convention
flags that fix sign and orientation choices, so outputs are self-describing
and byte-reproducible. Matrix entries are serialized as decimal strings.
Exit code 0 on success with a JSON report on standard output; exit code 2 on
any input error with a JSON error object instead.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .diagonal import SpecialEdgeChoice, normal_form, parse_diagonal_expression
from .dynamics import SearchBudget, eventual_conjugacy_verdict
from .graded import (StagedVector, dimension_triple, equals, graded_module,
                     is_positive, parse_staged_expression,
                     verify_exact_sequence)
from .graph import (GraphFormatError, _json_text, covering_graph,
                    enumerate_paths, load_graph)
from .homology import h0, h0_bruteforce_oracle, h0_presentation

_CONVENTIONS = {
    "x_orientation": "x shifts stages up: x*a_v(n) = a_v(n+1)",
    "relation": "a_v(n) = sum over e in s^-1(v) of a_{r(e)}(n - weight(e))",
    "special_edge_policy": "least edge id per regular vertex unless overridden",
    "matrix_entries": "decimal strings",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Parser whose failures surface as exceptions, not process exits."""

    def error(self, message):
        raise _UsageError(message)


def _staged_terms(graph, sv: StagedVector) -> list[dict]:
    terms = []
    for stage, vec in sv.stages:
        for i, c in enumerate(vec):
            if c:
                terms.append({"stage": stage, "vertex": graph.vertices[i],
                              "coeff": c})
    return terms


def _report(graph, fields) -> dict:
    """A single-graph report: the graph's vertex order, the conventions,
    then ``fields``."""
    return {"vertex_order": list(graph.vertices),
            "conventions": dict(_CONVENTIONS), **fields}


def _cmd_h0(args) -> dict:
    g = load_graph(args.file)
    pres = h0_presentation(g)
    group = h0(g)
    return _report(g, {
        "relation_matrix": pres.relations.to_decimal_rows(),
        "regular_vertices": list(pres.regular_vertices),
        "group": group.to_dict(),
        "group_description": group.describe(),
    })


def _cmd_h0gr(args) -> dict:
    g = load_graph(args.file)
    m = graded_module(g)
    if args.equals is not None:
        if args.cap is not None:
            raise ValueError("--cap applies only to --positive")
        lhs = parse_staged_expression(m, args.equals[0])
        rhs = parse_staged_expression(m, args.equals[1])
        return _report(g, {
            "mode": "equals",
            "lhs": {"terms": _staged_terms(g, lhs)},
            "rhs": {"terms": _staged_terms(g, rhs)},
            "equal": equals(m, lhs, rhs),
        })
    cap = 10 if args.cap is None else args.cap
    if cap < 0:
        raise ValueError("--cap must be nonnegative")
    v = parse_staged_expression(m, args.positive)
    return _report(g, {
        "mode": "positive",
        "element": {"terms": _staged_terms(g, v)},
        "cap": cap,
        "verdict": is_positive(m, v, cap).value,
    })


def _cmd_cover(args) -> dict:
    g = load_graph(args.file)
    if args.min > args.max:
        raise ValueError("--min must not exceed --max")
    staged = covering_graph(g, (args.min, args.max))
    return _report(g, {
        "window": {"min": staged.window[0], "max": staged.window[1]},
        "vertices": [{"vertex": v, "stage": n} for v, n in staged.vertices],
        "edges": [{"id": e.eid, "stage": e.stage,
                   "src": {"vertex": e.src[0], "stage": e.src[1]},
                   "dst": {"vertex": e.dst[0], "stage": e.dst[1]}}
                  for e in staged.edges],
    })


def _cmd_paths(args) -> dict:
    g = load_graph(args.file)
    if args.max_len < 0:
        raise ValueError("--max-len must be nonnegative")
    paths = enumerate_paths(g, args.max_len)
    counts = [0] * (args.max_len + 1)
    for p in paths:
        counts[len(p)] += 1
    return _report(g, {
        "max_len": args.max_len,
        "counts_by_length": counts,
        "paths": [{"source": p.source, "edges": list(p.edges)}
                  for p in paths],
    })


def _cmd_nf(args) -> dict:
    g = load_graph(args.file)
    overrides = {}
    for item in args.special or []:
        vertex, sep, edge = item.partition("=")
        if not sep or not vertex or not edge:
            raise ValueError("--special expects vertex=edge, got %r" % item)
        if vertex in overrides:
            raise ValueError("vertex %r given two special edges" % vertex)
        overrides[vertex] = edge
    special = SpecialEdgeChoice.default(g, overrides=overrides or None)
    x = parse_diagonal_expression(g, args.expr)
    nf = normal_form(g, x, special=special)
    return _report(g, {
        "expression": args.expr,
        "special_edges": special.to_dict(),
        "normal_form": [{"coeff": c, "source": p.source,
                         "edges": list(p.edges)}
                        for p, c in nf.items()],
    })


def _cmd_oracle(args) -> dict:
    g = load_graph(args.file)
    group = h0_bruteforce_oracle(g, args.max_len)
    direct = h0(g)
    return _report(g, {
        "max_len": args.max_len,
        "group": group.to_dict(),
        "group_description": group.describe(),
        "h0_group": direct.to_dict(),
        "matches_h0": group == direct,
    })


def _cmd_exactness(args) -> dict:
    g = load_graph(args.file)
    result = verify_exact_sequence(g)
    return _report(g, {
        "sigma_lambda_zero": result["sigma_lambda_zero"],
        "coker_lambda_equals_h0": result["coker_lambda_equals_h0"],
        "h0_group": result["h0_group"].to_dict(),
        "coker_lambda_group": result["coker_lambda_group"].to_dict(),
    })


def _cmd_compare(args) -> dict:
    g1 = load_graph(args.file1)
    g2 = load_graph(args.file2)
    budget = SearchBudget(max_lag=args.max_lag, entry_bound=args.entry_bound)
    result = eventual_conjugacy_verdict(g1, g2, budget)
    return {"left_vertex_order": list(g1.vertices),
            "right_vertex_order": list(g2.vertices),
            "conventions": dict(_CONVENTIONS), **result.to_dict()}


def _cmd_triple(args) -> dict:
    g = load_graph(args.file)
    triple = dimension_triple(g)
    group = triple.group()
    return _report(g, {
        "transposed_adjacency": triple.at.to_decimal_rows(),
        "eventual_kernel_basis": triple.eventual_kernel_basis.to_decimal_rows(),
        "group": group.to_dict(),
        "group_description": group.describe(),
        "automorphism": "multiplication by the transposed adjacency matrix",
    })


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process. Reuse is safe: ``_Parser.error``
    raises instead of keeping state, and every option either has a fixed
    default or, like the appended ``--special``, defaults to None, so
    ``parse_args`` starts each call from a fresh namespace."""
    parser = _Parser(prog="grhom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("h0", help="homology group of the graph groupoid")
    p.add_argument("file")
    p.set_defaults(func=_cmd_h0)

    p = sub.add_parser("h0gr", help="graded-module equality or positivity")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--equals", nargs=2, metavar=("EXPR1", "EXPR2"))
    mode.add_argument("--positive", metavar="EXPR")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_h0gr)

    p = sub.add_parser("cover", help="covering graph over a stage window")
    p.add_argument("file")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("paths", help="enumerate paths up to a length")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("nf", help="diagonal-algebra normal form")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.add_argument("--special", action="append", metavar="VERTEX=EDGE")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("oracle", help="truncated-path homology crosscheck")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("exactness", help="graded-to-plain exactness report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_exactness)

    p = sub.add_parser("compare", help="eventual-conjugacy comparison")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--max-lag", type=int, required=True)
    p.add_argument("--entry-bound", type=int, required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("triple", help="stationary dimension triple data")
    p.add_argument("file")
    p.set_defaults(func=_cmd_triple)

    return parser


def _emit(obj) -> None:
    """Write ``obj`` as the bytes of ``json.dumps(obj, indent=2)``."""
    sys.stdout.write(_json_text(obj))
    sys.stdout.write("\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.func(args)
    except _UsageError as exc:
        _emit({"error": {"kind": "usage", "message": str(exc)}})
        return 2
    except GraphFormatError as exc:
        _emit({"error": {"kind": "format", "message": str(exc)}})
        return 2
    except OSError as exc:
        _emit({"error": {"kind": "file", "message": str(exc)}})
        return 2
    except ValueError as exc:
        _emit({"error": {"kind": "value", "message": str(exc)}})
        return 2
    _emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())

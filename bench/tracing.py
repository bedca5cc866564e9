"""Spans around the public functions of each grhom layer.

``Tracer.install`` replaces every public function of a layer module with
a wrapper, at every place the function is bound: in its own module (so
calls through module globals are seen), in the other grhom modules that
import it, and in the package namespace. ``IntMatrix.__matmul__`` is
wrapped as well. A wrapper records one span per call (name, op id,
parent span, start, end) into flat arrays kept in memory; nothing is
aggregated while the work runs. ``analyse`` turns the spans into
per-layer calls and self times after the run.

A few wrappers also read their arguments or result at the call boundary
to count work (Smith cells, pushdown depth, search space and so on).
Those counts are taken after the span has closed, so they are charged to
the caller's self time, never to the callee's.
"""

from __future__ import annotations

import functools
import gzip
import types
from array import array
from time import perf_counter

LAYERS = ("cli", "graph", "intlinalg", "homology", "graded", "diagonal",
          "dynamics")

# Spans the benchmark itself opens around each op (the op's root span).
HARNESS = "bench"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("I")
        self.op = array("I")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        self.op_id = 0
        self.counts: dict[str, float] = {}
        self._replaced: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.t0)
        self.name.append(name_id)
        self.op.append(self.op_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self._stack.pop()

    def bump(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, probe=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if probe is not None:
                probe(tracer, args, result)
            return result

        return traced

    def install(self, grhom) -> None:
        """Wrap every public layer function wherever it is bound.

        ``grhom`` maps module names (the layers plus "package") to the
        imported module objects. ``uninstall`` puts the originals back.
        """
        wrapped: dict[int, object] = {}
        for mod in grhom.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(
                        value, types.FunctionType):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self.wrap(
                        value, "%s.%s" % (layer, value.__name__),
                        _PROBES.get(value.__name__))
                self._replaced.append((mod, attr, value))
                setattr(mod, attr, wrapped[id(value)])
        matrix = grhom["intlinalg"].IntMatrix
        self._replaced.append((matrix, "__matmul__", matrix.__matmul__))
        matrix.__matmul__ = self.wrap(matrix.__matmul__,
                                      "intlinalg.__matmul__", _probe_matmul)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._replaced):
            setattr(owner, attr, value)
        self._replaced.clear()


def _probe_smith(tracer, args, result):
    a = args[0]
    tracer.bump("intlinalg.smith_cells", a.nrows * a.ncols)


def _probe_matmul(tracer, args, result):
    if result is NotImplemented:
        return
    top = max((x if x >= 0 else -x for row in result.rows for x in row),
              default=0)
    bits = top.bit_length()
    if bits > tracer.counts.get("intlinalg.max_entry_bits", 0):
        tracer.counts["intlinalg.max_entry_bits"] = bits


def _probe_paths(tracer, args, result):
    tracer.bump("graph.paths", len(result))


def _probe_equals(tracer, args, result):
    m = args[0]
    tracer.bump("graded.depth_sum", m.stabilization_bound * m.max_weight)


def _probe_normal_form(tracer, args, result):
    tracer.bump("diagonal.terms_in", len(args[1].terms))
    tracer.bump("diagonal.terms_out", len(result.terms))


def _probe_search(tracer, args, result):
    a, b, _, bound = args[:4]
    n, m = a.nrows, b.nrows
    tracer.bump("dynamics.search_space", 2 * (bound + 1) ** (n * m))
    tracer.bump("dynamics.search_found", result is not None)


_PROBES = {
    "invariant_factors": _probe_smith,
    "smith_normal_form": _probe_smith,
    "enumerate_paths": _probe_paths,
    "equals": _probe_equals,
    "normal_form": _probe_normal_form,
    "search_shift_equivalence": _probe_search,
}


def analyse(tracer: Tracer, passes: int, op_labels: list[str],
            wanted) -> dict:
    """Per-layer calls, self times and counts, per pass over the op pool.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the run is single-threaded.
    ``durations`` holds the span durations of each (op label, span name)
    pair in ``wanted``, for the spot values.
    """
    n = len(tracer.t0)
    dur = [tracer.t1[i] - tracer.t0[i] for i in range(n)]
    child = [0.0] * n
    parent = tracer.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    layer_of = [name.partition(".")[0] for name in tracer.names]
    calls = {layer: 0 for layer in LAYERS + (HARNESS,)}
    self_s = {layer: 0.0 for layer in LAYERS + (HARNESS,)}
    by_name = [0] * len(tracer.names)
    wanted_ids = {(label, tracer._name_ids[name]): (label, name)
                  for label, name in wanted if name in tracer._name_ids}
    durations: dict[tuple[str, str], list[float]] = {}
    name, op = tracer.name, tracer.op
    for i in range(n):
        nid = name[i]
        layer = layer_of[nid]
        calls[layer] += 1
        self_s[layer] += dur[i] - child[i]
        by_name[nid] += 1
        key = wanted_ids.get((op_labels[op[i]], nid))
        if key is not None:
            durations.setdefault(key, []).append(dur[i])

    counts = tracer.counts
    by = dict(zip(tracer.names, by_name))
    smith = by.get("intlinalg.invariant_factors", 0) + by.get(
        "intlinalg.smith_normal_form", 0)
    searches = by.get("dynamics.search_shift_equivalence", 0)
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".calls"] = calls[layer] / passes
        metrics[layer + ".self_s"] = self_s[layer] / passes
    for key in ("intlinalg.smith_cells", "graph.paths", "graded.depth_sum",
                "diagonal.terms_in", "diagonal.terms_out",
                "dynamics.search_space"):
        metrics[key] = counts.get(key, 0) / passes
    metrics.update({
        "intlinalg.smith_track_share": (
            by.get("intlinalg.smith_normal_form", 0) / smith
            if smith else 0.0),
        "intlinalg.matmul_calls": by.get("intlinalg.__matmul__", 0) / passes,
        "intlinalg.max_entry_bits": counts.get("intlinalg.max_entry_bits", 0),
        "dynamics.search_calls": searches / passes,
        "dynamics.found_share": (
            counts.get("dynamics.search_found", 0) / searches
            if searches else 0.0),
    })
    return {
        "metrics": metrics,
        "spans": n,
        "harness_self_s": self_s[HARNESS] / passes,
        "span_self_total_s": sum(self_s.values()),
        "durations": durations,
    }


def write_spans(tracer: Tracer, path, op_labels: list[str]) -> None:
    """Write every span as a gzip-compressed tab-separated table."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("span\tparent\top\top_label\tname\tstart_s\tend_s\n")
        names = tracer.names
        for i in range(len(tracer.t0)):
            op = tracer.op[i]
            fh.write("%d\t%d\t%d\t%s\t%s\t%.9f\t%.9f\n" % (
                i, tracer.parent[i], op, op_labels[op],
                names[tracer.name[i]], tracer.t0[i], tracer.t1[i]))

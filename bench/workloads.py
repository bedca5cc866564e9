"""Seeded inputs, ops and correctness checks for the benchmark workloads.

Every input is generated here from the workload seed; the library under
test only ever sees the generated graphs, vectors and argv. ``corpus`` is
not used, so a change there cannot change a workload. Each ``build_*``
function takes the imported grhom modules (looked up by attribute at call
time, so the tracer's wrappers are seen), a ``random.Random`` and a
scratch directory, and returns a ``Workload``: a pool of ops that the run
loop cycles through.

Ops run with the scratch directory as the current directory. An op's
``run`` does one unit of user work and returns its result. Its
``check`` runs after the timed region and returns None when the result is
right, else a message. ``Workload.canonical`` turns a result into the
bytes that enter the output digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable

# positivity search cap for h0_is_positive in the survey
SURVEY_CAP = 20


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    canonical: Callable[[object], bytes]
    out_bytes: Callable[[object], int] = lambda result: 0
    # pool indices whose ops are re-run after the timed region
    repeat_sample: list[int] = field(default_factory=list)


# ---------------------------------------------------------------- graphs

def graph_dict(n, pairs, weights=None):
    """Graph document with vertices v0.. and edges e0.. in pair order."""
    vs = ["v%d" % i for i in range(n)]
    return {"vertices": vs,
            "edges": [{"id": "e%d" % k, "src": vs[i], "dst": vs[j],
                       "weight": weights[k] if weights else 1}
                      for k, (i, j) in enumerate(pairs)]}


def matrix_pairs(a):
    return [(i, j) for i, row in enumerate(a) for j, x in enumerate(row)
            for _ in range(x)]


def random_pairs(rng, n, nedges, sinks=0):
    """Edge list on n vertices; the last ``sinks`` vertices have no out-edge,
    every other vertex has at least one."""
    sources = list(range(n - sinks))
    pairs = [(i, rng.randrange(n)) for i in sources]
    pairs += [(rng.choice(sources), rng.randrange(n))
              for _ in range(nedges - len(pairs))]
    rng.shuffle(pairs)
    return pairs


def path_count(n, pairs, max_len):
    """Number of paths of length 0..max_len (what the oracle indexes)."""
    out = [[] for _ in range(n)]
    for i, j in pairs:
        out[i].append(j)
    level = [1] * n
    total = n
    for _ in range(max_len):
        level = [sum(level[j] for j in out[i]) for i in range(n)]
        total += sum(level)
    return total


def permuted(a, perm):
    """P A P^T for the permutation i -> perm[i]."""
    n = len(a)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            b[perm[i]][perm[j]] = a[i][j]
    return b


def random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------- survey

# (vertices, oracle max_len, target path generators). Most slots share
# one shape, so the dense part's cost is an average over many graphs and
# hardly depends on the seed.
DENSE_SLOTS = ((3, 4, 110), (4, 5, 150), (5, 4, 190), (3, 4, 230),
               (4, 4, 300), (5, 4, 250)) + ((4, 4, 250),) * 24
DENSE_CANDIDATES = 300
# the 5-vertex slot used for the oracle spot value
ORACLE_ANCHOR = "dense-5v-len4-p250"


def _dense_graph(rng, nv, max_len, target):
    """Of a fixed number of random graphs with nv vertices and 7-12 edges,
    the one whose oracle at max_len has the path-generator count closest
    to ``target``. The fixed count keeps set-up work the same for every
    seed."""
    best = None
    for _ in range(DENSE_CANDIDATES):
        ne = rng.randint(7, 12)
        pairs = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(ne)]
        miss = abs(path_count(nv, pairs, max_len) - target)
        if best is None or miss < best[0]:
            best = (miss, pairs)
    return best[1]


def _corpus():
    """Every multigraph with at most 3 vertices and 4 edges (790 graphs)."""
    for n in range(1, 4):
        slots = [(i, j) for i in range(n) for j in range(n)]
        for e in range(5):
            for pairs in combinations_with_replacement(slots, e):
                yield n, list(pairs)


def build_survey(mods, rng, workdir) -> Workload:
    graph, hom = mods["graph"], mods["homology"]
    positive = hom.Verdict.POSITIVE

    ops = []

    def add(kind, label, n, pairs, max_len, positivity=True):
        """One graph's record; the positivity vectors are a mixed-sign one
        and a nonnegative one, and large graphs get neither."""
        d = graph_dict(n, pairs)
        mixed = tuple(rng.randint(-2, 2) for _ in range(n))
        nonneg = tuple(rng.randint(0, 2) for _ in range(n))
        class_vecs = (mixed, nonneg) if positivity else (mixed,)
        pos_vecs = (mixed, nonneg) if positivity else ()

        def run():
            g = graph.graph_from_dict(d)
            return (hom.h0(g),
                    hom.h0_bruteforce_oracle(g, max_len) if max_len else None,
                    tuple(hom.h0_class(g, v) for v in class_vecs),
                    tuple(hom.h0_is_positive(g, v, SURVEY_CAP)
                          for v in pos_vecs))

        def check(res):
            group, oracle, _, verdicts = res
            if max_len and oracle != group:
                return "oracle %s != h0 %s" % (oracle, group)
            if pos_vecs and verdicts[1] is not positive:
                return "nonnegative vector judged %s" % verdicts[1].value
            return None
        ops.append(Op(kind, label, run, check))

    for n, pairs in _corpus():
        add("corpus", "corpus", n, pairs, 3)
    for n in (40, 80, 120, 160):
        for sinks in (0, max(1, n // 10)):
            for _ in range(2):
                label = "random-n%d-%s" % (n, "sinks" if sinks else "sinkfree")
                add("random", label, n, random_pairs(rng, n, 2 * n, sinks),
                    None, positivity=False)
    for nv, max_len, target in DENSE_SLOTS:
        label = "dense-%dv-len%d-p%d" % (nv, max_len, target)
        add("dense", label, nv, _dense_graph(rng, nv, max_len, target),
            max_len)

    def canonical(res):
        group, oracle, classes, verdicts = res
        return json.dumps({
            "h0": group.to_dict(),
            "oracle": oracle.to_dict() if oracle is not None else None,
            "classes": [list(c) for c in classes],
            "positive": [v.value for v in verdicts]}, sort_keys=True).encode()

    return Workload("survey", ops, canonical)


# --------------------------------------------------------------- compare

# [[1, k], [j, 1]] and [[1, jk], [1, 1]] share spectrum and h0 for
# coprime j, k; no certificate exists within the budgets used below, so
# the search runs to exhaustion.
HARD_PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (2, 9),
              (3, 7), (5, 6))


def _out_regular(rng, n, loops, simple=False):
    """Adjacency matrix with every row sum 2 and exactly ``loops``
    self-loops (so trace ``loops``); ``simple`` forbids parallel edges.

    Constant row sums pin the Perron root at 2, so entries of A^k grow
    alike whatever the seed and the eventual-kernel cost stays steady.
    """
    a = [[0] * n for _ in range(n)]
    looped = set(rng.sample(range(n), loops))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        k = 1 if i in looped else 2
        targets = rng.sample(others, k) if simple else [
            rng.choice(others) for _ in range(k)]
        for j in targets + [i] * (i in looped):
            a[i][j] += 1
    return a


def _permuted_pair(rng):
    """A 3-vertex 0/1 matrix and a different vertex permutation of it."""
    a = _out_regular(rng, 3, 1, simple=True)
    perm = random_perm(rng, 3)
    while permuted(a, perm) == a:
        perm = random_perm(rng, 3)
    return a, permuted(a, perm)


def _split(rng, a, incoming):
    """A state splitting of ``a`` (out-splitting, or in-splitting when
    ``incoming``): the result is strong shift equivalent to ``a`` at lag
    1 through 0/1 division and edge matrices."""
    if incoming:
        return [list(r) for r in zip(*_split(rng, [list(r) for r in zip(*a)],
                                            False))]
    n = len(a)
    v = rng.choice([i for i in range(n) if sum(a[i]) >= 2])
    edges = matrix_pairs([a[v]])
    rng.shuffle(edges)
    cut = rng.randint(1, len(edges) - 1)
    parts = (edges[:cut], edges[cut:])
    b = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        if i == v:
            continue
        for j in range(n):
            b[i][j] += a[i][j]
            if j == v:
                b[i][n] += a[i][j]
    for row, part in zip((v, n), parts):
        for _, j in part:
            b[row][j] += 1
            if j == v:
                b[row][n] += 1
    return b


def build_compare(mods, rng, workdir) -> Workload:
    graph, dyn = mods["graph"], mods["dynamics"]

    def pair(kind, label, a, b, max_lag, bound, expect, by=None):
        d1 = graph_dict(len(a), matrix_pairs(a))
        d2 = graph_dict(len(b), matrix_pairs(b))

        def run():
            budget = dyn.SearchBudget(max_lag=max_lag, entry_bound=bound)
            return dyn.eventual_conjugacy_verdict(
                graph.graph_from_dict(d1), graph.graph_from_dict(d2), budget)

        def check(res):
            if res.verdict == "EventuallyConjugate":
                if not dyn.verify_shift_equivalence(
                        graph.adjacency(graph.graph_from_dict(d1)),
                        graph.adjacency(graph.graph_from_dict(d2)),
                        res.certificate):
                    return "certificate does not verify"
            if res.verdict not in expect:
                return "verdict %s, expected %s" % (res.verdict, expect)
            if by is not None and res.distinguished_by != by:
                return "distinguished by %s, expected %s" % (
                    res.distinguished_by, by)
            return None
        ops.append(Op(kind, label, run, check))

    ops = []
    # Large pairs, told apart by the spectrum (their traces differ) after
    # both sides paid graph_invariants and its eventual kernel.
    for n in (20, 20, 20, 30, 30, 30, 40, 40, 40):
        pair("large", "large-n%d" % n, _out_regular(rng, n, 1),
             _out_regular(rng, n, 2), 2, 1, ("Distinguished",), "spectrum")
    pair("large", "large-n60", _out_regular(rng, 60, 1),
         _out_regular(rng, 4, 2), 2, 1, ("Distinguished",), "spectrum")
    # Equal spectrum, different h0: k I versus k I plus one nilpotent entry.
    for _ in range(10):
        n = rng.choice((2, 3))
        diag = [rng.randint(3, 5)] * 2 + [rng.randint(2, 5)] * (n - 2)
        a = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        b = [row[:] for row in a]
        b[0][1] = 1
        pair("h0", "h0", permuted(a, random_perm(rng, n)),
             permuted(b, random_perm(rng, n)), 1, 1, ("Distinguished",), "h0")
    # Equivalent pairs the search finds: vertex permutations and splittings.
    # The permutation pairs cost about the same whatever the seed and sit
    # in the middle of the latency order, which steadies the median.
    for _ in range(8):
        a, b = _permuted_pair(rng)
        pair("equivalent", "permutation", a, b, 1, 1,
             ("EventuallyConjugate",))
    for incoming in (False, True):
        a = [[1, 1, 0], [0, 1, 1], [1, 0, 0]]
        a = permuted(a, random_perm(rng, 3))
        pair("equivalent", "split-3v", a, _split(rng, a, incoming), 1, 1,
             ("EventuallyConjugate",))
        a = [[rng.randint(1, 2), 1], [1, 0]]
        pair("equivalent", "split-2v", a, _split(rng, a, incoming), 1, 2,
             ("EventuallyConjugate",))
    # Budget-exhausting pairs.
    hard = rng.sample(HARD_PAIRS, 6)
    for j, k in hard[:3]:
        a = [[1, k], [j, 1]]
        b = [[1, j * k], [1, 1]]
        pair("unknown", "unknown-2x2-b4", permuted(a, random_perm(rng, 2)),
             permuted(b, random_perm(rng, 2)), 2, 4,
             ("Unknown", "EventuallyConjugate"))
    for j, k in hard[3:]:
        a = [[1, k, 0], [j, 1, 0], [0, 0, 1]]
        b = [[1, j * k, 0], [1, 1, 0], [0, 0, 1]]
        pair("unknown", "unknown-3x3-b2", permuted(a, random_perm(rng, 3)),
             permuted(b, random_perm(rng, 3)), 2, 2,
             ("Unknown", "EventuallyConjugate"))

    def canonical(res):
        return json.dumps(res.to_dict(), sort_keys=True).encode()

    return Workload("compare", ops, canonical)


# --------------------------------------------------------------- queries

def _staged_terms(rng, n, count):
    """(coefficient, vertex, stage) triples with stages in -2..2."""
    return [(rng.choice((1, 1, 1, 2, 3, -1, -2)), rng.randrange(n),
             rng.randint(-2, 2)) for _ in range(count)]


def _staged_text(terms):
    out = []
    for c, v, s in terms:
        gen = "a(v%d,%d)" % (v, s)
        mag = gen if abs(c) == 1 else "%d %s" % (abs(c), gen)
        if not out:
            out.append(mag if c > 0 else "- " + mag)
        else:
            out.append(("+ " if c > 0 else "- ") + mag)
    return " ".join(out)


def _expanded(terms, pairs, weights):
    """The same element with one regular generator replaced by the
    right-hand side of its defining relation (so it is equal in the
    module), or None when every generator sits on a sink."""
    out = {}
    for k, (i, j) in enumerate(pairs):
        out.setdefault(i, []).append((j, weights[k]))
    regular = [t for t, (_, v, _) in enumerate(terms) if v in out]
    if not regular:
        return None
    pick = regular[0]
    c, v, s = terms[pick]
    return (terms[:pick] + terms[pick + 1:]
            + [(c, j, s - w) for j, w in out[v]])


def _path_expression(rng, n, pairs, nterms):
    out = {}
    for k, (i, j) in enumerate(pairs):
        out.setdefault(i, []).append((k, j))
    terms = []
    for _ in range(nterms):
        v = rng.randrange(n)
        edges = []
        for _ in range(rng.randint(0, 5)):
            if v not in out:
                break
            k, v = rng.choice(out[v])
            edges.append("e%d" % k)
        body = " ".join(edges) if edges else "v%d" % v
        c = rng.choice((1, 1, 1, 2, 3))
        term = body if c == 1 else "%d %s" % (c, body)
        terms.append(term if not terms else
                     rng.choice(("+ ", "- ")) + term)
    return " ".join(terms)


# Heavy-edge classes (vertices, heavy weight, ops per pool): one heavy
# edge turns a millisecond equality into a pushdown n * weight stages deep.
# Each op gets its own strongly connected graph and compares unequal
# elements, so the pushdown always runs to full depth and the class cost
# hardly depends on the seed.
HEAVY = ((20, 32, 6), (10, 64, 4), (20, 16, 5), (10, 32, 5))


def _strongly_connected(rng, n, nedges):
    """A Hamiltonian cycle in random vertex order plus random extra edges."""
    order = random_perm(rng, n)
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(nedges - n)]
    rng.shuffle(pairs)
    return pairs


def build_queries(mods, rng, workdir) -> Workload:
    cli, graph, graded = mods["cli"], mods["graph"], mods["graded"]

    # argv names files relative to the work directory, the current
    # directory while ops run, so no output depends on where it lives
    def write(name, doc):
        with open(os.path.join(workdir, name + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh)
        return name + ".json"

    # Sizes follow the index, not the seed, so every seed gets the same
    # size mix; ops take their graphs round-robin for the same reason.
    # Every third graph is weight-1 and sink-free, every third has sinks,
    # every third has a few edges of weight 2-3.
    plain = []
    for k in range(30):
        n = 10 + (7 * k) % 21
        sinks = 1 + (k // 3) % 3 if k % 3 == 1 else 0
        pairs = random_pairs(rng, n, n + n // 2, sinks)
        weights = [1] * len(pairs)
        if k % 3 == 2:
            for e in rng.sample(range(len(pairs)), 3):
                weights[e] = rng.randint(2, 3)
        plain.append((write("plain%d" % k, graph_dict(n, pairs, weights)),
                      n, pairs, weights, k % 3 == 0))
    heavy = []
    for n, w, count in HEAVY:
        for k in range(count):
            pairs = _strongly_connected(rng, n, n + n // 2)
            weights = [1] * len(pairs)
            weights[rng.randrange(len(pairs))] = w
            path = write("heavy-n%d-w%d-%d" % (n, w, k),
                         graph_dict(n, pairs, weights))
            heavy.append(((path, n, pairs, weights, False),
                          "heavy-n%d-w%d" % (n, w)))
    small = []
    for k in range(6):
        n = 3 + k % 3
        pairs = [(i, rng.randrange(n)) for i in range(n)
                 for _ in range(rng.randint(1, 2))]
        small.append(write("small%d" % k, graph_dict(n, pairs)))
    triple_graphs = [write("triple%d" % k, graph_dict(
        10 + (3 * k) % 11, matrix_pairs(_out_regular(rng, 10 + (3 * k) % 11,
                                                     1))))
        for k in range(15)]
    sft = []
    for k in range(5):
        a, b = _permuted_pair(rng)
        sft.append((write("sft%d" % k, graph_dict(3, matrix_pairs(a))),
                    write("sftp%d" % k, graph_dict(3, matrix_pairs(b)))))
    nf_graphs = []
    for k in range(8):
        n = 4 + k % 5
        pairs = random_pairs(rng, n, 2 * n, k % 2)
        nf_graphs.append((write("nf%d" % k, graph_dict(n, pairs)), n, pairs))
    missing, bad = "missing.json", "bad.json"
    with open(os.path.join(workdir, bad), "w", encoding="utf-8") as fh:
        fh.write('{"vertices": ["v0"], "edges": [')

    triples = {}

    def triple_equal(path, lhs, rhs):
        if path not in triples:
            g = graph.load_graph(os.path.join(workdir, path))
            triples[path] = (graded.graded_module(g),
                             graded.dimension_triple(g))
        m, t = triples[path]
        return t.equal(t.from_staged(graded.parse_staged_expression(m, lhs)),
                       t.from_staged(graded.parse_staged_expression(m, rhs)))

    ops = []

    def query(kind, label, argv, expect=None, error=None):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(res):
            code, text = res
            try:
                doc = json.loads(text)
            except ValueError:
                return "output is not JSON"
            if error is not None:
                if code != 2 or doc.get("error", {}).get("kind") != error:
                    return "expected a %s error with exit 2, got %d" % (
                        error, code)
                return None
            if code != 0 or "error" in doc:
                return "exit %d: %s" % (code, text[:200])
            return expect(doc) if expect else None
        ops.append(Op(kind, label, run, check))

    def equals_op(gfile, label, related):
        path, n, pairs, weights, crosscheck = gfile
        lhs = _staged_terms(rng, n, rng.randint(1, 4))
        rhs = _expanded(lhs, pairs, weights) if related else None
        if rhs is None:
            rhs = _staged_terms(rng, n, rng.randint(1, 3))
        e1, e2 = _staged_text(lhs), _staged_text(rhs)

        def expect(doc):
            if crosscheck and doc["equal"] != triple_equal(path, e1, e2):
                return "equals disagrees with the dimension triple"
            return None
        query("h0gr-equals", label, ["h0gr", path, "--equals", e1, e2], expect)

    def positive_op(gfile, label, cap):
        path, n = gfile[0], gfile[1]
        expr = _staged_text(_staged_terms(rng, n, rng.randint(1, 4)))
        query("h0gr-positive", label,
              ["h0gr", path, "--positive", expr, "--cap", str(cap)])

    # half of the plain equalities hold by construction
    for j in range(130):
        equals_op(plain[j % 30], "equals", j % 2 == 0)
    for j in range(95):
        positive_op(plain[(j + 15) % 30], "positive", 4 + j % 9)
    for k, (gfile, label) in enumerate(heavy):
        if k % 2:
            positive_op(gfile, label, 10)
        else:
            equals_op(gfile, label, False)
    for j in range(30):
        path, n, pairs = nf_graphs[j % 8]
        argv = ["nf", path, "--expr",
                _path_expression(rng, n, pairs, 150 + (37 * j) % 251)]
        if j % 3 == 0:
            i = pairs[-1][0]
            argv += ["--special", "v%d=e%d" % (i, len(pairs) - 1)]
        query("nf", "nf", argv)
    for j in range(20):
        lo = -(j % 4)
        query("cover", "cover", ["cover", plain[(j + 7) % 30][0], "--min",
                                 str(lo), "--max", str(lo + 1 + j % 3)])
    for j in range(20):
        query("paths", "paths", ["paths", small[j % 6], "--max-len",
                                 str(2 + j % 2)])
    for j in range(20):
        query("exactness", "exactness", ["exactness", plain[(j + 3) % 30][0]],
              lambda doc: (None if doc["sigma_lambda_zero"]
                           and doc["coker_lambda_equals_h0"]
                           else "exact sequence check failed"))
    for j in range(15):
        query("triple", "triple", ["triple", triple_graphs[j]])
    for j in range(20):
        query("h0", "h0", ["h0", (plain[j][0] if j < 15
                                  else heavy[3 * j - 45][0][0])])
    for j in range(10):
        query("oracle", "oracle", ["oracle", small[j % 6], "--max-len",
                                   str(2 + j % 2)],
              lambda doc: None if doc["matches_h0"] else "oracle != h0")
    for left, right in sft:
        query("compare", "compare", ["compare", left, right, "--max-lag", "1",
                                     "--entry-bound", "1"],
              lambda doc: (None if doc["verdict"] == "EventuallyConjugate"
                           else "permuted graphs not found conjugate"))
    p0, h0file = plain[0][0], heavy[0][0][0]
    invalid = (
        (["h0gr", p0, "--equals", "a(v0,0) +", "a(v1,0)"], "value"),
        (["h0gr", p0, "--equals", "a(zz,0)", "a(v0,0)"], "value"),
        (["h0gr", p0, "--positive", "a(v0,0)", "--cap", "-1"], "value"),
        (["h0gr", p0, "--positive", "a(v0,x)"], "value"),
        (["nf", nf_graphs[0][0], "--expr", "e0 + e999"], "value"),
        (["cover", p0, "--min", "3", "--max", "1"], "value"),
        (["compare", h0file, p0, "--max-lag", "1", "--entry-bound", "1"],
         "value"),
        (["h0", missing], "file"),
        (["h0", bad], "format"),
        (["frobnicate", p0], "usage"),
        (["paths", p0], "usage"),
    )
    for k in range(20):
        argv, kind = invalid[k % len(invalid)]
        query("invalid", "invalid", argv, error=kind)

    def canonical(res):
        code, text = res
        return ("%d\n" % code).encode() + text.encode()

    sample = rng.sample(range(len(ops)), 20)
    return Workload("queries", ops, canonical,
                    out_bytes=lambda res: len(res[1].encode()),
                    repeat_sample=sample)


BUILDERS = {"survey": build_survey, "queries": build_queries,
            "compare": build_compare}

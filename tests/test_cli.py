import contextlib
import gc
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

import grhom
from grhom.cli import main
from grhom.dynamics import search_shift_equivalence
from grhom.graph import adjacency, load_graph

SRC = pathlib.Path(grhom.__file__).resolve().parent.parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def path(data_dir, name):
    return str(data_dir / name)


def run_module(*argv):
    """``python -m grhom`` in a fresh process that imports the package
    under test, whether or not PYTHONPATH names it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "grhom", *argv],
                          capture_output=True, text=True, env=env)


class TestReports:
    def test_h0_two_vertex(self, capsys, data_dir):
        doc = run_json(capsys, "h0", path(data_dir, "graphE.json"))
        assert doc["vertex_order"] == ["u", "v"]
        assert doc["group"] == {"rank": 0, "torsion": []}
        assert doc["group_description"] == "0"
        assert doc["relation_matrix"] == [["0", "-1"], ["-1", "1"]]
        assert doc["regular_vertices"] == ["u", "v"]
        assert "conventions" in doc

    def test_h0_sink(self, capsys, data_dir):
        doc = run_json(capsys, "h0", path(data_dir, "single_sink.json"))
        assert doc["group"] == {"rank": 1, "torsion": []}
        assert doc["group_description"] == "Z"
        assert doc["regular_vertices"] == []

    def test_h0gr_equals(self, capsys, data_dir):
        doc = run_json(capsys, "h0gr", path(data_dir, "graphF.json"),
                       "--equals", "a(u,1)", "2 a(u,0)")
        assert doc["mode"] == "equals"
        assert doc["equal"] is True
        assert doc["lhs"] == {"terms": [
            {"stage": 1, "vertex": "u", "coeff": 1}]}
        assert doc["rhs"] == {"terms": [
            {"stage": 0, "vertex": "u", "coeff": 2}]}

    def test_h0gr_equals_negative(self, capsys, data_dir):
        doc = run_json(capsys, "h0gr", path(data_dir, "graphF.json"),
                       "--equals", "a(u,1)", "3 a(u,0)")
        assert doc["equal"] is False

    @pytest.mark.parametrize("top, equal", [(100000, True), (99999, False)])
    def test_h0gr_equals_deep_span(self, capsys, tmp_path, top, equal):
        """On a weight-2 loop a(u,n) = a(u,n-2), so a pushdown across
        100,000 stages decides a(u,0) = a(u,top) by the parity of top."""
        loop = tmp_path / "loop2.json"
        loop.write_text(json.dumps({"vertices": ["u"], "edges": [
            {"id": "e", "src": "u", "dst": "u", "weight": 2}]}))
        doc = run_json(capsys, "h0gr", str(loop), "--equals", "a(u,0)",
                       "a(u,%d)" % top)
        assert doc["equal"] is equal

    def test_h0gr_positive(self, capsys, data_dir):
        doc = run_json(capsys, "h0gr", path(data_dir, "graphF.json"),
                       "--positive", "a(u,0) - 2 a(u,-1)")
        assert doc["mode"] == "positive"
        assert doc["verdict"] == "Zero"
        assert doc["cap"] == 10
        assert doc["element"] == {"terms": [
            {"stage": -1, "vertex": "u", "coeff": -2},
            {"stage": 0, "vertex": "u", "coeff": 1}]}

    def test_h0gr_positive_custom_cap(self, capsys, data_dir):
        doc = run_json(capsys, "h0gr", path(data_dir, "graphF.json"),
                       "--positive", "a(u,0)", "--cap", "3")
        assert doc["verdict"] == "Positive"
        assert doc["cap"] == 3

    def test_cover_window(self, capsys, data_dir):
        doc = run_json(capsys, "cover", path(data_dir, "graphF.json"),
                       "--min", "-1", "--max", "1")
        assert doc["window"] == {"min": -1, "max": 1}
        assert doc["vertices"] == [{"vertex": "u", "stage": -1},
                                   {"vertex": "u", "stage": 0},
                                   {"vertex": "u", "stage": 1}]
        assert len(doc["edges"]) == 4
        for e in doc["edges"]:
            assert e["src"]["stage"] == e["dst"]["stage"] + 1

    def test_paths(self, capsys, data_dir):
        doc = run_json(capsys, "paths", path(data_dir, "graphE.json"),
                       "--max-len", "2")
        assert doc["max_len"] == 2
        assert doc["counts_by_length"] == [2, 3, 5]
        assert {"source": "u", "edges": []} in doc["paths"]
        assert {"source": "u", "edges": ["e", "e"]} in doc["paths"]

    def test_nf(self, capsys, data_dir):
        doc = run_json(capsys, "nf", path(data_dir, "graphE.json"),
                       "--expr", "e")
        assert doc["expression"] == "e"
        assert doc["special_edges"] == {"u": "e", "v": "g"}
        assert doc["normal_form"] == [
            {"coeff": 1, "source": "u", "edges": []},
            {"coeff": -1, "source": "u", "edges": ["f"]},
        ]

    def test_nf_special_override(self, capsys, data_dir):
        doc = run_json(capsys, "nf", path(data_dir, "graphE.json"),
                       "--expr", "f", "--special", "u=f")
        assert doc["special_edges"]["u"] == "f"
        assert doc["normal_form"] == [
            {"coeff": 1, "source": "u", "edges": []},
            {"coeff": -1, "source": "u", "edges": ["e"]},
        ]

    def test_oracle(self, capsys, data_dir):
        doc = run_json(capsys, "oracle", path(data_dir, "graphE.json"),
                       "--max-len", "2")
        assert doc["max_len"] == 2
        assert doc["matches_h0"] is True
        assert doc["group"] == doc["h0_group"]

    def test_exactness(self, capsys, data_dir):
        doc = run_json(capsys, "exactness", path(data_dir, "graphF.json"))
        assert doc["sigma_lambda_zero"] is True
        assert doc["coker_lambda_equals_h0"] is True
        assert doc["h0_group"] == {"rank": 0, "torsion": []}

    def test_exactness_heavy_edge(self, capsys, tmp_path):
        """A unit loop at u and an edge u -> v of weight 10**9: only the
        stages a relation touches are built, so the report is immediate.
        The fresh process runs under a 1.5 GB address-space limit, so a
        window of 10**9 stages fails there instead of filling memory."""
        import resource

        g = tmp_path / "heavy.json"
        g.write_text(json.dumps({"vertices": ["u", "v"], "edges": [
            {"id": "e", "src": "u", "dst": "u"},
            {"id": "f", "src": "u", "dst": "v", "weight": 10 ** 9}]}))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1500 * 2 ** 20,) * 2)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        fresh = subprocess.run([sys.executable, "-m", "grhom", "exactness",
                                str(g)], capture_output=True, text=True,
                               env=env, preexec_fn=limit, timeout=60)
        assert fresh.returncode == 0, fresh.stderr
        assert json.loads(fresh.stdout)["coker_lambda_equals_h0"] is True
        start = perf_counter()
        doc = run_json(capsys, "exactness", str(g))
        assert perf_counter() - start < 1.0
        assert doc["coker_lambda_group"] == {"rank": 1, "torsion": []}

    def test_compare_equivalent(self, capsys, data_dir):
        doc = run_json(capsys, "compare", path(data_dir, "graphF.json"),
                       path(data_dir, "full2shift.json"),
                       "--max-lag", "2", "--entry-bound", "2")
        assert doc["verdict"] == "EventuallyConjugate"
        assert doc["certificate"]["lag"] == 1
        assert doc["certificate"]["R"] == [["1", "1"]]
        assert doc["certificate"]["S"] == [["1"], ["1"]]
        assert doc["left_vertex_order"] == ["u"]
        assert doc["right_vertex_order"] == ["a", "b"]
        assert set(doc["left"]) == {"h0_group", "spectrum"}
        assert set(doc["right"]) == {"h0_group", "spectrum"}
        assert set(doc["budget"]) == {"max_lag", "entry_bound"}

    def test_compare_distinguished(self, capsys, data_dir, tmp_path):
        three = tmp_path / "three.json"
        three.write_text(json.dumps({
            "vertices": ["u"],
            "edges": [{"id": e, "src": "u", "dst": "u"}
                      for e in ("p", "q", "r")],
        }))
        doc = run_json(capsys, "compare", path(data_dir, "graphF.json"),
                       str(three), "--max-lag", "1", "--entry-bound", "1")
        assert doc["verdict"] == "Distinguished"
        assert doc["distinguished_by"] == "spectrum"
        assert doc["certificate"] is None

    def test_triple(self, capsys, data_dir):
        doc = run_json(capsys, "triple", path(data_dir, "graphF.json"))
        assert doc["transposed_adjacency"] == [["2"]]
        assert doc["eventual_kernel_basis"] == []
        assert doc["group_description"] == "Z"
        assert doc["automorphism"] == (
            "multiplication by the transposed adjacency matrix")

    def test_every_report_names_conventions(self, capsys, data_dir):
        f = path(data_dir, "graphF.json")
        invocations = [
            ("h0", f),
            ("h0gr", f, "--positive", "a(u,0)"),
            ("cover", f, "--min", "0", "--max", "1"),
            ("paths", f, "--max-len", "1"),
            ("nf", f, "--expr", "u"),
            ("oracle", f, "--max-len", "1"),
            ("exactness", f),
            ("compare", f, f, "--max-lag", "1", "--entry-bound", "1"),
            ("triple", f),
        ]
        for argv in invocations:
            doc = run_json(capsys, *argv)
            assert "conventions" in doc
            assert "x_orientation" in doc["conventions"]


def readme_cli_examples():
    """The lines of the sh block under "## Command line" in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


class TestReadmeExamples:
    def test_examples_found(self):
        lines = readme_cli_examples()
        assert len(lines) >= 9
        assert all(line.startswith("grhom ") for line in lines)

    @pytest.mark.parametrize("line", readme_cli_examples())
    def test_example_runs(self, capsys, monkeypatch, line):
        """Each example, run in process from the repository root, exits 0
        and prints one JSON document."""
        monkeypatch.chdir(ROOT)
        argv = shlex.split(line)[1:]
        code, out = run_cli(capsys, *argv)
        assert code == 0, out
        assert isinstance(json.loads(out), dict)


class TestErrors:
    def assert_error(self, capsys, kind, *argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["kind"] == kind
        assert doc["error"]["message"]
        return doc["error"]["message"]

    def test_unknown_command(self, capsys):
        self.assert_error(capsys, "usage", "frobnicate")

    def test_missing_required_flag(self, capsys, data_dir):
        self.assert_error(capsys, "usage", "paths",
                          path(data_dir, "graphE.json"))

    def test_missing_file(self, capsys, tmp_path):
        self.assert_error(capsys, "file", "h0", str(tmp_path / "nope.json"))

    def test_malformed_graph(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": ["u"], "edges": [
            {"id": "e", "src": "u", "dst": "ghost"}]}))
        self.assert_error(capsys, "format", "h0", str(bad))

    def test_not_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        self.assert_error(capsys, "format", "h0", str(bad))

    def test_deeply_nested_json(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        self.assert_error(capsys, "format", "h0", str(bad))

    def test_bad_expression(self, capsys, data_dir):
        self.assert_error(capsys, "value", "h0gr",
                          path(data_dir, "graphF.json"),
                          "--positive", "a(u,")

    @pytest.mark.parametrize("argv, message", [
        (("h0gr", "--positive", "\u00b2 a(u,0)"),
         "missing '+' or '-' before 'a(u,0)'"),
        (("h0gr", "--positive", "a(u,\u00b2)"),
         "stage '\u00b2' is not an integer"),
        (("nf", "--expr", "\u0663 e"),
         "unknown edge id '\u0663' in expression"),
    ], ids=["superscript-coefficient", "superscript-stage",
            "arabic-indic-coefficient"])
    def test_non_ascii_digits_are_not_integers(self, capsys, data_dir,
                                               argv, message):
        """Only ASCII digits make an integer token; other Unicode digits
        are body tokens and meet the grammar's own errors."""
        cmd, *rest = argv
        assert self.assert_error(capsys, "value", cmd,
                                 path(data_dir, "graphE.json"),
                                 *rest) == message

    def test_cap_with_equals_rejected(self, capsys, data_dir):
        self.assert_error(capsys, "value", "h0gr",
                          path(data_dir, "graphF.json"),
                          "--equals", "a(u,0)", "a(u,0)", "--cap", "5")

    def test_cover_empty_window_rejected(self, capsys, data_dir):
        self.assert_error(capsys, "value", "cover",
                          path(data_dir, "graphF.json"),
                          "--min", "2", "--max", "1")

    def test_compare_sink_rejected(self, capsys, data_dir):
        self.assert_error(capsys, "value", "compare",
                          path(data_dir, "single_sink.json"),
                          path(data_dir, "graphF.json"),
                          "--max-lag", "1", "--entry-bound", "1")

    def test_nf_unknown_special_vertex(self, capsys, data_dir):
        self.assert_error(capsys, "value", "nf",
                          path(data_dir, "graphF.json"),
                          "--expr", "u", "--special", "w=e")


class TestVertexLessGraph:
    """Every subcommand on the graph with no vertices: a report, or for
    the two that read an expression, the value error that every term of
    the expression names an unknown vertex or edge."""

    @pytest.fixture
    def empty(self, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"vertices": [], "edges": []}))
        return str(f)

    @pytest.mark.parametrize("argv, key, value", [
        (["h0"], "group", {"rank": 0, "torsion": []}),
        (["cover", "--min", "0", "--max", "1"], "vertices", []),
        (["paths", "--max-len", "2"], "counts_by_length", [0, 0, 0]),
        (["oracle", "--max-len", "2"], "matches_h0", True),
        (["exactness"], "h0_group", {"rank": 0, "torsion": []}),
        (["triple"], "group", {"rank": 0, "torsion": []}),
    ], ids=["h0", "cover", "paths", "oracle", "exactness", "triple"])
    def test_reports(self, capsys, empty, argv, key, value):
        doc = run_json(capsys, argv[0], empty, *argv[1:])
        assert doc["vertex_order"] == []
        assert doc[key] == value

    def test_exactness_checks_hold(self, capsys, empty):
        doc = run_json(capsys, "exactness", empty)
        assert doc["sigma_lambda_zero"] is True
        assert doc["coker_lambda_equals_h0"] is True
        assert doc["coker_lambda_group"] == {"rank": 0, "torsion": []}

    def test_compare(self, capsys, empty):
        doc = run_json(capsys, "compare", empty, empty, "--max-lag", "2",
                       "--entry-bound", "2")
        assert doc["left"]["h0_group"] == {"rank": 0, "torsion": []}

    @pytest.mark.parametrize("argv, message", [
        (["h0gr", "--equals", "a(u,0)", "a(u,1)"], "unknown vertex 'u'"),
        (["h0gr", "--positive", "a(u,0)"], "unknown vertex 'u'"),
        (["nf", "--expr", "e"], "unknown edge id 'e' in expression"),
    ], ids=["h0gr-equals", "h0gr-positive", "nf"])
    def test_expressions_name_unknown_vertices(self, capsys, empty, argv,
                                               message):
        code, out = run_cli(capsys, argv[0], empty, *argv[1:])
        assert code == 2
        assert json.loads(out) == {"error": {"kind": "value",
                                             "message": message}}


def readme_weight_table():
    """The weight table under "## Graph files" in README.md, as
    {weights needed: subcommands}."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Graph files\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("| `")]
    return {need.strip(): re.findall(r"`(\w+)`", cmds) for cmds, need in rows}


class TestWeightRule:
    """Each subcommand on one vertex with one loop of weight 0 or -2:
    ``graph_from_dict`` reads both, and each subcommand takes them or
    fails with a value error as the README weight table says."""

    ANY, POSITIVE, UNIT = ("any integer", "every weight >= 1",
                           "every weight 1, and no sinks")
    CELLS = [
        (["cover", "--min", "0", "--max", "1"], ANY, None),
        (["paths", "--max-len", "2"], ANY, None),
        (["nf", "--expr", "e"], ANY, None),
        (["h0"], POSITIVE, "edge 'e' has non-positive weight %d; "
         "homology requires weights >= 1"),
        (["oracle", "--max-len", "2"], POSITIVE, "edge 'e' has non-positive "
         "weight %d; homology requires weights >= 1"),
        (["h0gr", "--equals", "a(u,0)", "a(u,1)"], POSITIVE, "edge 'e' has "
         "non-positive weight %d; the graded module requires weights >= 1"),
        (["h0gr", "--positive", "a(u,0)"], POSITIVE, "edge 'e' has "
         "non-positive weight %d; the graded module requires weights >= 1"),
        (["exactness"], POSITIVE, "edge 'e' has non-positive weight %d; "
         "the graded module requires weights >= 1"),
        (["triple"], UNIT, "dimension triple requires all weights 1; "
         "edge 'e' has weight %d"),
        (["compare", None, "--max-lag", "1", "--entry-bound", "1"], UNIT,
         "first graph: an edge shift requires all weights 1; "
         "edge 'e' has weight %d"),
    ]

    def test_readme_table_names_every_subcommand_once(self):
        table = {need: [] for _, need, _ in self.CELLS}
        for argv, need, _ in self.CELLS:
            if argv[0] not in table[need]:
                table[need].append(argv[0])
        assert readme_weight_table() == table

    @pytest.mark.parametrize("weight", [0, -2])
    def test_subcommand_by_weight(self, capsys, tmp_path, weight):
        f = tmp_path / "loop.json"
        f.write_text(json.dumps({"vertices": ["u"], "edges": [
            {"id": "e", "src": "u", "dst": "u", "weight": weight}]}))
        for argv, _, message in self.CELLS:
            rest = [str(f) if a is None else a for a in argv[1:]]
            code, out = run_cli(capsys, argv[0], str(f), *rest)
            doc = json.loads(out)
            if message is None:
                assert code == 0 and "error" not in doc, argv
            else:
                assert code == 2, argv
                assert doc == {"error": {"kind": "value",
                                         "message": message % weight}}


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, data_dir):
        f = path(data_dir, "graphE.json")
        invocations = [
            ("h0", f),
            ("paths", f, "--max-len", "2"),
            ("compare", f, f, "--max-lag", "1", "--entry-bound", "1"),
        ]
        for argv in invocations:
            outs = []
            for _ in range(3):
                code, out = run_cli(capsys, *argv)
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1] == outs[2]

    def test_module_entry_point(self, data_dir):
        res = run_module("h0", path(data_dir, "graphE.json"))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["group_description"] == "0"

    def test_cached_parser_matches_fresh_process(self, capsys, data_dir):
        """The parser is built once per process, so a call must not see
        state left by earlier ones: each in-process call, made in this
        order, prints the bytes and exits with the code of a fresh
        ``python -m grhom`` on the same argv. The usage error comes after
        ``--special`` is consumed, and the second override would clash with
        a first one carried over."""
        e = path(data_dir, "graphE.json")
        f = path(data_dir, "graphF.json")
        full = path(data_dir, "full2shift.json")
        invocations = [
            ("nf", e, "--special", "u=f"),
            ("nf", e, "--expr", "f", "--special", "u=f"),
            ("nf", e, "--expr", "f", "--special", "u=e"),
            ("nf", e, "--expr", "f"),
            ("h0gr", f, "--equals", "a(u,1)", "2 a(u,0)"),
            ("compare", f, full, "--max-lag", "2", "--entry-bound", "2"),
        ]
        for argv in invocations:
            code, out = run_cli(capsys, *argv)
            fresh = run_module(*argv)
            assert (code, out) == (fresh.returncode, fresh.stdout), argv


def run_captured(argv):
    """``main(argv)`` with stdout captured without a pytest fixture."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestNoCyclicGarbage:
    def test_commands_and_search_leave_no_cycles(self, data_dir):
        """One call per subcommand on the data/ graphs (the README
        examples), error cases, and a certificate search free every object
        they make by reference counting alone, so a collection with gc off
        finds nothing."""
        runs = [[str(ROOT / a) if a.startswith("data/") else a
                 for a in shlex.split(line)[1:]]
                for line in readme_cli_examples()]
        runs += [["h0gr", path(data_dir, "graphF.json"), "--equals",
                  "a(zz,0)", "a(u,0)"],
                 ["h0", path(data_dir, "missing.json")],
                 ["frobnicate"]]
        a = adjacency(load_graph(path(data_dir, "full2shift.json")))

        def once():
            for argv in runs:
                assert run_captured(argv)[0] in (0, 2)
            assert search_shift_equivalence(a, a, 2, 2) is not None

        once()  # warm-up: imports, caches and the parser
        gc.collect()
        gc.disable()
        try:
            once()
            assert gc.collect() == 0
        finally:
            gc.enable()


ODD_NAMES = ("", "a b", "a(u,0)", "x,y", "\u00e9", "0", "-", "+")


@st.composite
def fuzz_graph_documents(draw):
    """Small graph documents: at most 3 vertices and 4 edges of weight 1-3,
    then, in about half of them, one fault or oddity: an odd vertex name
    (used consistently), a non-string, duplicate or dangling id, a bad
    weight, or a document that is not an object."""
    vertices = ["u", "v", "w"][:draw(st.integers(0, 3))]
    edges = []
    for k in range(draw(st.integers(0, 4)) if vertices else 0):
        edges.append({"id": "e%d" % k,
                      "src": draw(st.sampled_from(vertices)),
                      "dst": draw(st.sampled_from(vertices)),
                      "weight": draw(st.sampled_from([1, 1, 1, 2, 3]))})
    fault = draw(st.sampled_from(["rename", "vertex", "endpoint", "weight",
                                  "edge id", "document"] + [None] * 6))
    if fault == "rename" and vertices:
        old, new = vertices[0], draw(st.sampled_from(ODD_NAMES))
        vertices[0] = new
        for e in edges:
            for end in ("src", "dst"):
                if e[end] == old:
                    e[end] = new
    elif fault == "vertex":
        vertices.append(draw(st.sampled_from(["u", 7, None])))
    elif fault == "endpoint" and edges:
        edges[-1][draw(st.sampled_from(["src", "dst"]))] = draw(
            st.sampled_from(["zz", 1, None]))
    elif fault == "weight" and edges:
        edges[-1]["weight"] = draw(st.sampled_from([0, -1, True, 1.5, "2",
                                                    None]))
    elif fault == "edge id" and edges:
        edges[-1]["id"] = draw(st.sampled_from(["e0", "", "a(u,0)", "1", 5]))
    doc = {"vertices": vertices, "edges": edges}
    return [doc] if fault == "document" else doc


def fuzz_expression(draw, atoms):
    """Up to three signed terms, each an optional coefficient and mostly
    one atom; now and then a stray sign or coefficient."""
    tokens = []
    for k in range(draw(st.integers(1, 3))):
        if k or draw(st.booleans()):
            tokens.append(draw(st.sampled_from(["+", "-"] * 4 + ["2"])))
        if draw(st.booleans()):
            tokens.append(draw(st.sampled_from(["0", "2", "-3"])))
        tokens.append(draw(st.sampled_from(atoms)))
        if draw(st.integers(0, 9)) == 0:
            tokens.append(draw(st.sampled_from(atoms)))
    return " ".join(tokens)


@st.composite
def fuzz_argv(draw, left, right, doc):
    """argv for one of the nine subcommands on the files ``left`` and
    ``right``, with expressions over the names in ``doc`` and small
    budgets: path lengths and caps up to 3, a cover window of at most 5
    stages, lag up to 2 and entry bound up to 2."""
    doc = doc if isinstance(doc, dict) else {}
    names = [v for v in doc.get("vertices", []) if isinstance(v, str)]
    names += ["zz"]
    eids = [e["id"] for e in doc.get("edges", []) if isinstance(e["id"], str)]
    generators = ["a(%s,%d)" % (v, n) for v in names for n in range(-2, 3)]
    generators += ["a(u,x)", "a(u)", "b(u,0)"]
    cmd = draw(st.sampled_from(["h0", "h0gr", "h0gr", "cover", "paths", "nf",
                                "nf", "oracle", "exactness", "compare",
                                "triple"]))
    if cmd == "h0gr":
        if draw(st.booleans()):
            argv = [cmd, left, "--equals", fuzz_expression(draw, generators),
                    fuzz_expression(draw, generators)]
        else:
            argv = [cmd, left, "--positive",
                    fuzz_expression(draw, generators)]
        if draw(st.integers(0, 9)) < (3 if "--equals" in argv else 7):
            argv += ["--cap", str(draw(st.integers(-1, 3)))]
        return argv
    if cmd == "cover":
        lo = draw(st.integers(-2, 2))
        return [cmd, left, "--min", str(lo),
                "--max", str(lo + draw(st.integers(-1, 4)))]
    if cmd in ("paths", "oracle"):
        return [cmd, left, "--max-len", str(draw(st.integers(-1, 3)))]
    if cmd == "nf":
        atoms = names + eids + ["e9"]
        argv = [cmd, left, "--expr", fuzz_expression(draw, atoms)]
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            argv += ["--special", "%s=%s" % (draw(st.sampled_from(names)),
                                              draw(st.sampled_from(atoms)))]
        return argv
    if cmd == "compare":
        return [cmd, left, right,
                "--max-lag", str(draw(st.integers(0, 2))),
                "--entry-bound", str(draw(st.integers(-1, 2)))]
    return [cmd, left]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Wording of Python's own exceptions, which no error of the program
# itself uses: a message that matches leaked an internal failure.
INTERNAL_MESSAGES = re.compile(
    r"range\(\) arg|division by zero|index out of range|object of type"
    r"|unsupported operand|has no attribute")


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(fuzz_graph_documents(), fuzz_graph_documents(), st.data())
    def test_every_run_exits_0_or_2_with_json(self, fuzz_dir, left, right,
                                              data):
        """Any small graph document and argv get a report (exit 0) or a
        JSON error (exit 2), never a traceback; an error has one of the
        four kinds and none of Python's own messages."""
        files = []
        for name, doc in (("left.json", left), ("right.json", right)):
            (fuzz_dir / name).write_text(json.dumps(doc), encoding="utf-8")
            files.append(str(fuzz_dir / name))
        argv = data.draw(fuzz_argv(*files, left))
        code, out = run_captured(argv)
        doc = json.loads(out)
        assert code in (0, 2), argv
        assert ("error" in doc) == (code == 2), argv
        if code == 2:
            error = doc["error"]
            assert error["kind"] in ("usage", "format", "file", "value"), \
                (argv, error)
            assert not INTERNAL_MESSAGES.search(error["message"]), \
                (argv, error)

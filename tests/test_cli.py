import json
import os
import pathlib
import shlex
import subprocess
import sys
from time import perf_counter

import pytest

import grhom
from grhom.cli import main

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

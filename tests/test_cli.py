import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bunkbed
from bunkbed import cli
from bunkbed.cli import main
from bunkbed.graphs import Graph, format_graph, parse_graph
from bunkbed import percolation
from bunkbed.percolation import parse_weight_file

K2_TEXT = "vertices 2\nedge 0 1\n"
P3_TEXT = "vertices 3\nedge 0 1\nedge 1 2\n"
HALF = "default 1/2\n"


@pytest.fixture
def k2_files(tmp_path):
    g = tmp_path / "k2.txt"
    w = tmp_path / "w.txt"
    g.write_text(K2_TEXT)
    w.write_text(HALF)
    return str(g), str(w)


@pytest.fixture
def p3_files(tmp_path):
    g = tmp_path / "p3.txt"
    w = tmp_path / "w.txt"
    g.write_text(P3_TEXT)
    w.write_text(HALF)
    return str(g), str(w)


class TestProb:
    def test_bunkbed_same_layer(self, k2_files, capsys):
        g, w = k2_files
        assert main(["prob", g, w, "0-", "1-", "--bunkbed"]) == 0
        assert capsys.readouterr().out.startswith("9/16")

    def test_bunkbed_cross_layer(self, k2_files, capsys):
        g, w = k2_files
        assert main(["prob", g, w, "0-", "1+", "--bunkbed"]) == 0
        assert capsys.readouterr().out.startswith("7/16")

    def test_methods_agree(self, p3_files, capsys):
        g, w = p3_files
        outs = []
        for method in ("brute", "decomp"):
            assert main(["prob", g, w, "0-", "2+", "--bunkbed", "--method", method]) == 0
            outs.append(capsys.readouterr().out.split()[0])
        assert outs[0] == outs[1]

    def test_plain_graph(self, p3_files, capsys):
        g, w = p3_files
        assert main(["prob", g, w, "0", "2"]) == 0
        assert capsys.readouterr().out.startswith("1/4")

    def test_json_output(self, k2_files, capsys):
        g, w = k2_files
        assert main(["prob", g, w, "0-", "1-", "--bunkbed", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "9/16"
        assert payload["method"] in ("brute_force", "decomposition")
        assert "atoms_evaluated" in payload

    def test_decomp_requires_bunkbed(self, p3_files, capsys):
        g, w = p3_files
        assert main(["prob", g, w, "0", "2", "--method", "decomp"]) == 4

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("verts 2\n")
        w = tmp_path / "w.txt"
        w.write_text(HALF)
        assert main(["prob", str(bad), str(w), "0", "1"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text(HALF)
        assert main(["prob", str(tmp_path / "nope.txt"), str(w), "0", "1"]) == 2

    def test_directory_as_input_exit_2(self, k2_files, tmp_path, capsys):
        # a directory cannot be read: one error line, not a traceback with
        # exit 1, the code for a violation
        g, _ = k2_files
        for argv in (["check", str(tmp_path)], ["prob", g, str(tmp_path), "0-", "1+", "--bunkbed"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_graph_file_not_utf8_exit_2(self, k2_files, tmp_path, capsys):
        # not a failed precondition (exit 4): the input cannot be read
        _, w = k2_files
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfevertices 2\nedge 0 1\n")
        for argv in (["prob", str(bad), w, "0", "1"], ["check", str(bad)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_cap_exit_3(self, p3_files):
        g, w = p3_files
        assert main(["prob", g, w, "0-", "2-", "--bunkbed", "--method", "brute", "--cap", "3"]) == 3

    def test_k4_chain_x4_answers_at_default_cap(self, tmp_path, capsys):
        # the bunkbed has 61 edges, but every leaf of the engine is one K4
        # block's 16-edge bunkbed
        k4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        chain = Graph(13, tuple((u + o, v + o) for o in (0, 3, 6, 9) for u, v in k4))
        g = tmp_path / "chain.txt"
        g.write_text(format_graph(chain))
        w = tmp_path / "w.txt"
        w.write_text(HALF)
        assert main(["prob", str(g), str(w), "0-", "12+", "--bunkbed"]) == 0
        assert main(["prob", str(g), str(w), "0-", "12+", "--bunkbed", "--method", "brute"]) == 3

    def test_state_cap_exit_3(self, tmp_path, monkeypatch, capsys):
        # a kernel table past STATE_CAP ends in exit 3, under either method
        g = tmp_path / "c6.txt"
        g.write_text(format_graph(Graph(6, tuple((i, (i + 1) % 6) for i in range(6)))))
        w = tmp_path / "w.txt"
        w.write_text(HALF)
        monkeypatch.setattr(percolation, "STATE_CAP", 20)
        for method in ("brute", "auto"):
            assert main(["prob", str(g), str(w), "0-", "3+", "--bunkbed", "--method", method]) == 3
            assert "states exceeds the cap of 20" in capsys.readouterr().err

    def test_env_cap(self, p3_files, monkeypatch):
        g, w = p3_files
        monkeypatch.setenv("BUNKBED_CAP", "3")
        assert main(["prob", g, w, "0-", "2-", "--bunkbed", "--method", "brute"]) == 3

    @pytest.mark.parametrize("x, y, flags, bad", [
        ("a", "1", [], "a"),
        ("0", "1-", [], "1-"),
        ("0-", "x+", ["--bunkbed"], "x+"),
        ("0-", "1", ["--bunkbed"], "1"),
        ("0", "1", ["--bunkbed"], "0"),
    ], ids=["letter", "tag-without-bunkbed", "letter-with-bunkbed", "untagged-with-bunkbed",
            "both-untagged-with-bunkbed"])
    def test_unparsable_vertex_exit_2(self, k2_files, capsys, x, y, flags, bad):
        # a parse error, as for `check --pair a 1`, not a failed precondition
        g, w = k2_files
        assert main(["prob", g, w, x, y, *flags]) == 2
        assert f"vertex {bad!r} is not" in capsys.readouterr().err

    @pytest.mark.parametrize("x, y, flags", [("0-", "9+", ["--bunkbed"]), ("0", "5", [])])
    def test_vertex_out_of_range_exit_4(self, k2_files, x, y, flags):
        g, w = k2_files
        assert main(["prob", g, w, x, y, *flags]) == 4

    def test_weights_file_not_utf8_is_named(self, k2_files, tmp_path, capsys):
        g, _ = k2_files
        latin = tmp_path / "latin1.txt"
        latin.write_bytes("# poids: 1/2 à chaque arête\ndefault 1/2\n".encode("latin-1"))
        assert main(["prob", g, str(latin), "0-", "1+", "--bunkbed"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {latin}: not UTF-8 text") and err.count("\n") == 1


class TestCheck:
    def test_tree_exit_zero(self, tmp_path, capsys):
        g = tmp_path / "t.txt"
        g.write_text("vertices 4\nedge 0 1\nedge 1 2\nedge 1 3\n")
        assert main(["check", str(g), "--weights", "grid:1/2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["min_delta"] is not None

    def test_zero_random_weights_empty_report(self, p3_files, capsys):
        g, _ = p3_files
        assert main(["check", g, "--weights", "random:0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == []
        assert payload["min_delta"] is None

    def test_malformed_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        assert main(["check", str(bad)]) == 2

    def test_pair_restriction(self, p3_files, capsys):
        g, _ = p3_files
        assert main(["check", g, "--weights", "grid:1/2", "--pair", "0", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["pairs"]) == 1

    def test_pair_not_an_integer_exit_2(self, p3_files, capsys):
        g, _ = p3_files
        with pytest.raises(SystemExit) as exc:
            main(["check", g, "--pair", "a", "1"])
        assert exc.value.code == 2
        assert "--pair" in capsys.readouterr().err

    def test_pair_out_of_range_exit_4(self, p3_files, capsys):
        g, _ = p3_files
        assert main(["check", g, "--weights", "grid:1/2", "--pair", "0", "7"]) == 4
        assert "vertex 7 out of range" in capsys.readouterr().err

    def test_long_path_one_report(self, tmp_path, capsys):
        # a 500-vertex path: the engine's recursion stays shallow
        g = tmp_path / "p500.txt"
        g.write_text(format_graph(Graph(500, tuple((i, i + 1) for i in range(499)))))
        assert main(["check", str(g), "--pair", "0", "0", "--weights", "grid:1/2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == [] and len(payload["pairs"]) == 1

    def test_seeded_random_reproducible(self, p3_files, capsys):
        g, _ = p3_files
        main(["check", g, "--weights", "random:3", "--seed", "42"])
        first = json.loads(capsys.readouterr().out)
        main(["check", g, "--weights", "random:3", "--seed", "42"])
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second


class TestReduce:
    def test_path_collapse(self, p3_files, tmp_path, capsys):
        g, w = p3_files
        out_g = tmp_path / "h.txt"
        out_w = tmp_path / "hw.txt"
        rc = main([
            "reduce", g, w, "--cut-vertex", "1", "--side", "0",
            "--out-graph", str(out_g), "--out-weights", str(out_w),
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "9/16"
        reduced = parse_graph(out_g.read_text())
        assert (reduced.vertex_count, reduced.edge_count) == (4, 4)
        parse_weight_file(out_w.read_text(), reduced)

    def test_round_trip_same_side_probability(self, p3_files, tmp_path, capsys):
        g, w = p3_files
        out_g = tmp_path / "h.txt"
        out_w = tmp_path / "hw.txt"
        main([
            "reduce", g, w, "--cut-vertex", "1", "--side", "0",
            "--out-graph", str(out_g), "--out-weights", str(out_w),
        ])
        capsys.readouterr()
        # original probability between the kept-side pair (1-, 2-) of p3
        assert main(["prob", g, w, "1-", "2-", "--bunkbed"]) == 0
        original = capsys.readouterr().out.split()[0]
        # the reduced files describe the kept-side bunkbed as a plain graph;
        # vertex 1 of p3 is kept-side index 0, vertex 2 is index 1
        assert main(["prob", str(out_g), str(out_w), "0", "1"]) == 0
        reduced = capsys.readouterr().out.split()[0]
        assert original == reduced

    def test_side_over_the_edge_cap(self, tmp_path, capsys):
        # side G, P15, has a 43-edge bunkbed; the cap of 30 applies per block
        g = tmp_path / "p16.txt"
        g.write_text(format_graph(Graph(16, tuple((i, i + 1) for i in range(15)))))
        w = tmp_path / "w.txt"
        w.write_text(HALF)
        rc = main([
            "reduce", str(g), str(w), "--cut-vertex", "14", "--side", "0",
            "--out-graph", str(tmp_path / "o.txt"), "--out-weights", str(tmp_path / "ow.txt"),
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "5026338869833/8796093022208"

    def test_unparsable_side_exit_2(self, p3_files, tmp_path, capsys):
        # a side token that is not an integer is a parse error naming it;
        # an index out of range is a failed precondition
        g, w = p3_files
        for side, code in (("0,x", 2), ("0,5", 4)):
            rc = main([
                "reduce", g, w, "--cut-vertex", "1", "--side", side,
                "--out-graph", str(tmp_path / "a"), "--out-weights", str(tmp_path / "b"),
            ])
            assert rc == code
            err = capsys.readouterr().err
            assert ("'x'" in err) == (code == 2)

    def test_non_cut_vertex_exit_4(self, p3_files, tmp_path):
        g, w = p3_files
        rc = main([
            "reduce", g, w, "--cut-vertex", "0", "--side", "0",
            "--out-graph", str(tmp_path / "a"), "--out-weights", str(tmp_path / "b"),
        ])
        assert rc == 4


class TestTrees:
    def test_counts_streamed(self, capsys):
        assert main(["trees", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("vertices 4") == 2

    def test_single_vertex(self, capsys):
        assert main(["trees", "1"]) == 0
        assert "vertices 1" in capsys.readouterr().out

    def test_out_dir(self, tmp_path, capsys):
        assert main(["trees", "5", "--out-dir", str(tmp_path / "trees")]) == 0
        files = sorted((tmp_path / "trees").iterdir())
        assert len(files) == 3
        for f in files:
            t = parse_graph(f.read_text())
            assert t.vertex_count == 5 and t.edge_count == 4

    def test_check_mode(self, capsys):
        assert main(["trees", "6", "--check"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 6
        assert all(r["violations"] == [] for r in lines)

    def test_bound_exit_3(self):
        assert main(["trees", "12"]) == 3

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_order_below_one_exit_4(self, n, capsys):
        assert main(["trees", n]) == 4
        assert "at least 1" in capsys.readouterr().err


class TestSearch:
    def test_streams_reports(self, tmp_path, capsys):
        c4 = tmp_path / "c4.txt"
        c4.write_text(format_graph(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))))
        rc = main(["search", str(c4), "--weights", "random:2", "--seed", "7"])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 1
        assert lines[0]["violations"] == []

    def test_trees_skipped_by_filter(self, capsys):
        rc = main(["search", "--trees", "5", "--weights", "grid:1/2", "--two-connected-only"])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 1 + 1 + 1 + 2 + 3
        assert all(r["method"] == "skipped" for r in lines)

    def test_malformed_graph_file_is_named(self, tmp_path, capsys):
        good = tmp_path / "k2.txt"
        good.write_text(K2_TEXT)
        bad = tmp_path / "bad.txt"
        bad.write_text("vertices 2\nbogus\n")
        assert main(["search", str(good), str(bad), "--weights", "grid:1/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1  # the first graph's report
        assert captured.err == f"error: {bad}: line 2: unrecognized line 'bogus'\n"

    def test_trees_above_bound_exit_3(self, capsys):
        # refused up front, as `trees 9` is, not after streaming the small trees
        assert main(["search", "--trees", "9", "--weights", "grid:1/2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside [1, 8]" in captured.err


class TestInputEdges:
    @pytest.mark.parametrize("source", ["grid:abc", "grid:1/0", "grid:", "random:", "random:x", "random:2:4:8"])
    def test_malformed_weight_source_exit_2(self, p3_files, source):
        g, _ = p3_files
        assert main(["check", g, "--weights", source]) == 2

    @pytest.mark.parametrize("source", ["grid:3/2", "random:2:0", "random:-1"])
    def test_out_of_range_weight_source_exit_4(self, p3_files, source):
        g, _ = p3_files
        assert main(["check", g, "--weights", source]) == 4

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_4(self, p3_files, threads):
        g, w = p3_files
        assert main(["prob", g, w, "0", "2", "--threads", threads]) == 4
        assert main(["check", g, "--weights", "grid:1/2", "--threads", threads]) == 4

    def test_env_cap_not_an_integer_exit_2(self, p3_files, monkeypatch, capsys):
        # as `--cap x` does: a value that does not parse is a parse error
        g, w = p3_files
        monkeypatch.setenv("BUNKBED_CAP", "x")
        assert main(["prob", g, w, "0", "2"]) == 2
        assert "BUNKBED_CAP" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, code, words", [
        (RecursionError("maximum recursion depth exceeded"), 3, "RecursionError: maximum recursion"),
        (MemoryError(), 3, "MemoryError"),
        (KeyError("x"), 5, "internal error at test_cli.py:"),
        (ZeroDivisionError("division\nby zero"), 5, "ZeroDivisionError: division by zero"),
    ])
    def test_a_crash_is_not_a_violation(self, p3_files, monkeypatch, capsys, exc, code, words):
        # exit 1 means a violation was found: any other exception exits 3
        # (out of recursion depth or memory) or 5, with one line, no traceback
        def crash(*args, **kwargs):
            raise exc

        g, _ = p3_files
        monkeypatch.setattr(cli, "check_graph", crash)
        assert main(["check", g, "--weights", "grid:1/2"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert words in captured.err and "Traceback" not in captured.err

    def test_decimal_grid_values_still_parse(self, p3_files, capsys):
        g, _ = p3_files
        assert main(["check", g, "--weights", "grid:0.5", "--pair", "0", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []


def test_cli_imports_without_numpy():
    # the package declares no runtime dependencies; numpy is for the tests only
    env = dict(os.environ, PYTHONPATH=str(Path(bunkbed.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", "import bunkbed.cli, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


def test_closed_pipe_exits_141_without_traceback():
    # about 147 KB of reports, more than the pipe and stdout buffers hold, so
    # the child is still writing when the reader closes after one line
    env = dict(os.environ, PYTHONPATH=str(Path(bunkbed.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bunkbed.cli", "search", "--trees", "8", "--weights", "grid:1/2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err

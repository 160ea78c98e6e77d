import contextlib
import importlib
import io

import pytest

from maxleaf import cli, graphio
from maxleaf.approx import approximate
from maxleaf.cli import main
from maxleaf.digraph import Outbranching, grow_tree, verify_outbranching
from maxleaf.exact import maxleaf_exact
from maxleaf.graphio import (format_graph, format_tree, load_graph, load_tree, parse_graph,
                             to_dot)
from maxleaf.gen import gen_comb, gen_necklace, gen_t_l
from maxleaf.reduce import decide, kernelize

from support import legacy_gen_random


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_gen_then_exact_t3(tmp_path):
    g = tmp_path / "t3.graph"
    code, _, _ = run(["gen", "--family", "t_l", "--size", "3", "--out", str(g)])
    assert code == 0
    assert load_graph(g) == gen_t_l(3)
    code, out, _ = run(["exact", str(g)])
    assert code == 0
    assert out.strip() == "4"


def test_gen_ring_families(tmp_path):
    for family, size, want in (("necklace", 8, gen_necklace(8)), ("comb", 5, gen_comb(5))):
        g = tmp_path / f"{family}.graph"
        code, _, _ = run(["gen", "--family", family, "--size", str(size), "--out", str(g)])
        assert code == 0 and load_graph(g) == want
    code, out, err = run(["gen", "--family", "necklace", "--size", "7"])
    assert code == 5 and out == "" and "even" in err


def test_decide_k1_true(tmp_path):
    g = tmp_path / "r.graph"
    run(["gen", "--family", "random", "--n", "9", "--seed", "4", "--out", str(g)])
    code, out, _ = run(["decide", str(g), "-k", "1"])
    assert code == 0
    assert out.startswith("TRUE")


def test_decide_reduced_writes_kernel(tmp_path):
    g = tmp_path / "t3.graph"
    red = tmp_path / "red.graph"
    tr = tmp_path / "steps.txt"
    run(["gen", "--family", "t_l", "--size", "3", "--out", str(g)])
    code, out, _ = run(["decide", str(g), "-k", "5",
                        "--out", str(red), "--trace", str(tr)])
    assert code == 0
    assert out.startswith("REDUCED")
    assert load_graph(red).n == 19
    assert tr.read_text() == ""  # T_3 is already reduced


def test_decide_k1_settles_the_one_vertex_graph(tmp_path):
    g, w = tmp_path / "one.graph", tmp_path / "one.tree"
    g.write_text("1 0 0\n")
    code, out, _ = run(["decide", str(g), "-k", "1", "--witness", str(w)])
    assert code == 0 and out == "TRUE (witness leaves=1)\n"
    code, out, _ = run(["verify", str(g), str(w)])
    assert code == 0 and out == "OK leaves=1\n"


def test_decide_unreachable_vertex_is_false(tmp_path):
    g = tmp_path / "u.graph"
    g.write_text("3 1 0\n0 1\n")
    code, out, _ = run(["decide", str(g), "-k", "2"])
    assert code == 0
    assert out == "FALSE\n"


def test_kernelize_writes_kernel_and_trace(tmp_path):
    d = legacy_gen_random(30, 1.5 / 30, 3)  # kernelize takes 9 steps
    reduced, trace = kernelize(d)
    assert len(trace) > 0
    g, red, tr = tmp_path / "g.graph", tmp_path / "red.graph", tmp_path / "steps.txt"
    g.write_text(format_graph(d))
    code, out, _ = run(["kernelize", str(g), "--out", str(red), "--trace", str(tr)])
    assert code == 0
    assert out == f"{d.n} {d.m} -> {reduced.n} {reduced.m} ({len(trace)} steps)\n"
    assert red.read_text() == format_graph(reduced)
    assert tr.read_text() == trace.to_text()


def test_every_output_flag_writes_the_graphio_rendering(tmp_path):
    """Each file a command writes is the `graphio` rendering, or the trace
    text, of what the library call returns on the same graph."""
    f = {name: tmp_path / name for name in
         ("g", "g.dot", "k.graph", "k.trace", "w.tree", "r.graph", "r.trace",
          "a.tree", "a.dot", "e.tree")}
    d = gen_comb(3)
    code, out, _ = run(["gen", "--family", "comb", "--size", "3",
                        "--out", str(f["g"]), "--dot", str(f["g.dot"])])
    assert code == 0 and out == ""
    assert f["g"].read_text() == format_graph(d)
    assert f["g.dot"].read_text() == to_dot(d)

    reduced, trace = kernelize(d)
    assert len(trace) > 0
    code, _, _ = run(["kernelize", str(f["g"]), "--out", str(f["k.graph"]),
                      "--trace", str(f["k.trace"])])
    assert code == 0
    assert f["k.graph"].read_text() == format_graph(reduced)
    assert f["k.trace"].read_text() == trace.to_text()

    decision = decide(d, 2)
    assert decision.verdict == "TRUE"
    code, out, _ = run(["decide", str(f["g"]), "-k", "2", "--witness", str(f["w.tree"]),
                        "--out", str(f["r.graph"]), "--trace", str(f["r.trace"])])
    assert code == 0 and out.startswith("TRUE")
    assert f["w.tree"].read_text() == format_tree(decision.witness)
    assert not f["r.graph"].exists() and not f["r.trace"].exists()

    decision = decide(d, 3)
    assert decision.verdict == "REDUCED" and len(decision.trace) > 0
    code, out, _ = run(["decide", str(f["g"]), "-k", "3", "--witness", str(f["w.tree"]),
                        "--out", str(f["r.graph"]), "--trace", str(f["r.trace"])])
    assert code == 0 and out.startswith("REDUCED")
    assert f["r.graph"].read_text() == format_graph(decision.reduced)
    assert f["r.trace"].read_text() == decision.trace.to_text()

    tree, _ = approximate(d)
    code, _, _ = run(["approx", str(f["g"]), "--tree", str(f["a.tree"]),
                      "--dot", str(f["a.dot"])])
    assert code == 0
    assert f["a.tree"].read_text() == format_tree(tree)
    assert f["a.dot"].read_text() == to_dot(d, tree=tree)

    code, _, _ = run(["exact", str(f["g"]), "--witness", str(f["e.tree"])])
    assert code == 0
    assert f["e.tree"].read_text() == format_tree(maxleaf_exact(d).witness)


def test_kernelize_prints_sizes(tmp_path):
    g = tmp_path / "p.graph"
    run(["gen", "--family", "dipath", "--size", "3", "--out", str(g)])
    code, out, _ = run(["kernelize", str(g)])
    assert code == 0
    assert out.startswith("4 3 -> 2 1")


def test_approx_writes_verifiable_tree(tmp_path):
    g = tmp_path / "g.graph"
    t = tmp_path / "g.tree"
    run(["gen", "--family", "random", "--n", "10", "--seed", "11", "--out", str(g)])
    code, out, _ = run(["approx", str(g), "--tree", str(t)])
    assert code == 0
    assert "chosen=" in out and "lower=" in out
    d = load_graph(g)
    tree = load_tree(t)
    assert verify_outbranching(d, tree).ok
    code, out, _ = run(["verify", str(g), str(t)])
    assert code == 0 and out.startswith("OK leaves=")


def test_approx_all_roots(tmp_path):
    g = tmp_path / "cyc.graph"
    g.write_text("4 5 0\n0 1\n1 2\n2 3\n3 0\n1 0\n")
    code, out, _ = run(["approx", str(g), "--all-roots"])
    assert code == 0
    assert out.startswith("root=")


def test_approx_all_roots_with_no_feasible_root_is_infeasible(tmp_path):
    g = tmp_path / "u.graph"
    g.write_text("3 1 0\n0 1\n")
    code, out, err = run(["approx", str(g), "--all-roots"])
    assert code == 3 and out == ""
    assert err == "infeasible: no root reaches every vertex\n"


def test_exact_witness_round_trip(tmp_path):
    g = tmp_path / "g.graph"
    w = tmp_path / "g.tree"
    run(["gen", "--family", "boloney", "--size", "3", "--out", str(g)])
    code, out, _ = run(["exact", str(g), "--witness", str(w)])
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(["verify", str(g), str(w)])
    assert code == 0 and out.strip() == "OK leaves=5"


def test_verify_rejects_foreign_tree(tmp_path):
    g = tmp_path / "g.graph"
    t = tmp_path / "t.tree"
    g.write_text("3 2 0\n0 1\n0 2\n")
    t.write_text("3 0\n1 0\n2 1\n")
    code, out, _ = run(["verify", str(g), str(t)])
    assert code == 1
    assert out.startswith("INVALID")


def test_verify_rejects_tree_with_a_cycle(tmp_path):
    g = tmp_path / "g.graph"
    t = tmp_path / "t.tree"
    g.write_text("4 5 0\n0 1\n1 2\n2 3\n3 2\n3 1\n")
    t.write_text("4 0\n1 0\n2 3\n3 2\n")
    code, out, _ = run(["verify", str(g), str(t)])
    assert code == 1
    assert out == "INVALID: vertices [2, 3] not reachable inside the tree\n"


def test_bench_csv(tmp_path):
    code, out, err = run(["bench", "--family", "random", "--n", "8",
                          "--count", "6", "--seed", "7"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,n,m,l,h,exact,approx,ratio"
    assert len(lines) == 7
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert float(fields[7]) <= 92
    assert "worst ratio" in err


def test_malformed_input_exit_code(tmp_path):
    g = tmp_path / "bad.graph"
    g.write_text("3 2 0\n0 1\n1 1\n")
    code, _, err = run(["exact", str(g)])
    assert code == 2
    assert "line 3" in err


def test_infeasible_exit_code(tmp_path):
    g = tmp_path / "u.graph"
    g.write_text("3 1 0\n0 1\n")
    code, _, _ = run(["approx", str(g)])
    assert code == 3
    # exact makes one reachability check, inside maxleaf_exact, and makes it
    # before the size check, so an unreachable vertex exits 3 at any size
    big = tmp_path / "big.graph"
    big.write_text("30 1 0\n0 1\n")
    for path in (g, big):
        code, _, err = run(["exact", str(path)])
        assert code == 3
        assert err == "infeasible: some vertex is unreachable from the root\n"


UNSPANNABLE_ANSWERS = [
    (["approx"], 3, "", "infeasible: some vertex is unreachable from the root\n"),
    (["kernelize"], 3, "", "infeasible: some vertex is unreachable from the root\n"),
    (["exact"], 3, "", "infeasible: some vertex is unreachable from the root\n"),
    (["approx", "--all-roots"], 3, "", "infeasible: no root reaches every vertex\n"),
    (["decide", "-k", "2"], 0, "FALSE\n", ""),
    (["decide", "-k", "0"], 5, "", "unmet precondition: parameter k must be at least 1\n"),
]


@pytest.mark.parametrize("argv, code, out, err", UNSPANNABLE_ANSWERS)
def test_header_only_graph_answers_as_an_unreachable_vertex(tmp_path, monkeypatch,
                                                            argv, code, out, err):
    # fewer than n - 1 arcs: no spanning out-tree for any root, and no
    # vertex built for a header that asks for a billion
    small, header, hand = tmp_path / "u.graph", tmp_path / "h.graph", tmp_path / "hand.graph"
    small.write_text("3 1 0\n0 1\n")
    header.write_text("1000000000 0 0\n")
    hand.write_text("# header only\n1000000000 0 0\n")
    assert run([argv[0], str(small), *argv[1:]]) == (code, out, err)

    def refuse(n, root, arcs):
        raise AssertionError(f"built {n} vertices")

    monkeypatch.setattr(graphio, "build", refuse)
    for path in (header, hand):
        assert run([argv[0], str(path), *argv[1:]]) == (code, out, err)


def test_verify_rejects_every_tree_of_a_graph_with_fewer_than_n_minus_1_arcs(tmp_path,
                                                                            monkeypatch):
    small, header = tmp_path / "u.graph", tmp_path / "h.graph"
    small.write_text("3 1 0\n0 1\n")
    header.write_text("1000000000 0 0\n")
    tree, lone, broken = tmp_path / "t.tree", tmp_path / "lone.tree", tmp_path / "broken.tree"
    tree.write_text("3 0\n1 0\n2 1\n")
    lone.write_text("1 0\n")
    broken.write_text("1000000000 0\n")

    def refuse(n, root, arcs):
        raise AssertionError(f"built {n} vertices")

    monkeypatch.setattr(graphio, "build", refuse)
    invalid = (1, "INVALID: the graph has fewer than n - 1 arcs, so no out-tree spans it\n", "")
    for g in (small, header):
        for t in (tree, lone):
            assert run(["verify", str(g), str(t)]) == invalid
    # the tree file is read first: a malformed one is malformed input
    code, out, err = run(["verify", str(header), str(broken)])
    assert code == 2 and out == ""
    assert err == "error: line 1: expected 999999999 `child parent` lines, found 0\n"


def test_graph_file_round_trip(tmp_path):
    g = tmp_path / "g.graph"
    run(["gen", "--family", "t_l", "--size", "2", "--out", str(g)])
    d = load_graph(g)
    assert parse_graph(format_graph(d)) == d


def test_binary_graph_file_is_malformed_input(tmp_path):
    g = tmp_path / "bin.graph"
    g.write_bytes(b"\xff\xfe\x00\x81 not text")
    code, _, err = run(["approx", str(g)])
    assert code == 2
    assert err.startswith("error:")


def test_directory_as_graph_is_malformed_input(tmp_path):
    code, _, err = run(["approx", str(tmp_path)])
    assert code == 2
    assert err.startswith("error:")


def test_unreadable_graph_is_malformed_input(tmp_path, monkeypatch):
    def denied(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("maxleaf.graphio.load_graph", denied)
    code, _, err = run(["kernelize", str(tmp_path / "g.graph")])
    assert code == 2
    assert err.startswith("error:") and "Permission denied" in err


def test_exact_above_size_limit_is_precondition(tmp_path):
    g = tmp_path / "big.graph"
    run(["gen", "--family", "random", "--n", "30", "--seed", "1", "--out", str(g)])
    assert load_graph(g).n == 30
    code, _, err = run(["exact", str(g)])
    assert code == 5
    assert "limit" in err


def test_decide_k0_is_precondition(tmp_path):
    g = tmp_path / "r.graph"
    run(["gen", "--family", "random", "--n", "9", "--seed", "4", "--out", str(g)])
    code, _, err = run(["decide", str(g), "-k", "0"])
    assert code == 5
    assert "k must be at least 1" in err


def test_gen_parameter_out_of_range_is_precondition():
    code, out, _ = run(["gen", "--family", "t_l", "--size", "1"])
    assert code == 5
    assert out == ""


@pytest.mark.parametrize("count", ["0", "-2"])
def test_bench_count_below_one_is_precondition(count):
    code, out, err = run(["bench", "--count", count])
    assert code == 5
    assert "--count must be at least 1" in err
    assert out == ""


def test_unexpected_value_error_is_internal(tmp_path, monkeypatch):
    def broken(d):
        raise ValueError("numbering requires a 2-connected digraph")

    monkeypatch.setattr("maxleaf.cli.approximate", broken)
    g = tmp_path / "g.graph"
    run(["gen", "--family", "random", "--n", "10", "--seed", "11", "--out", str(g)])
    code, _, err = run(["approx", str(g)])
    assert code == 4
    assert err.startswith("internal error:")


def test_exact_broken_invariant_is_internal(tmp_path, monkeypatch):
    def one_leaf_short(d, internal=None, parent=None):
        tree = grow_tree(d, internal=internal, parent=parent)
        parents = set(tree.parent.values())
        a, b = sorted(v for v in tree.parent if v not in parents)[:2]
        short = Outbranching(d.root, {**tree.parent, b: a})
        assert short.leaf_count == tree.leaf_count - 1
        return short

    monkeypatch.setattr("maxleaf.exact.grow_tree", one_leaf_short)
    g = tmp_path / "t3.graph"
    run(["gen", "--family", "t_l", "--size", "3", "--out", str(g)])
    code, _, err = run(["exact", str(g)])
    assert code == 4
    assert err.startswith("internal invariant violation:")


def test_command_is_looked_up_per_call(monkeypatch):
    monkeypatch.setattr("maxleaf.cli.cmd_verify", lambda args, out, err: 7)
    assert run(["verify", "g.graph", "g.tree"])[0] == 7


def test_importing_the_main_module_runs_nothing(capsys):
    importlib.import_module("maxleaf.__main__")
    assert capsys.readouterr() == ("", "")


PARSE_CASES = [
    ["approx", "g"],
    ["approx", "g", "--tree", "t", "--dot", "d", "--all-roots"],
    ["approx", "g", "--all", "--tr=t"],    # abbreviated options
    ["approx", "g", "--bogus", "x"],       # left over: the top-level usage
    ["approx", "g", "x"],
    ["approx", "--", "g"],
    ["approx", "g", "--", "x"],
    ["approx"],
    ["approx", "g", "-h"],
    ["approx", "-h", "--bogus"],
    ["-h"],
    [],
    ["nosuch", "g"],
    ["--", "approx", "g"],
    ["--bogus", "approx", "g"],
    ["decide", "g", "-k", "3", "--wit", "w", "--out", "o", "--trace", "t"],
    ["decide", "g", "-k3"],
    ["decide", "g"],
    ["decide", "g", "-k", "x"],
    ["decide", "-k", "-1", "g"],
    ["verify", "g", "t"],
    ["verify", "g", "t", "u"],
    ["gen", "--family", "t_l", "--size", "4", "--out", "o"],
    ["gen", "--family", "nosuch"],
    ["exact", "g", "--limit", "5", "--witness=w"],
    ["kernelize", "g", "--out", "o", "--trace", "t"],
    ["bench", "--count", "2", "--fam", "random", "--p", "0.5"],
]


def parsed(parse, argv):
    """The namespace or exit code, stdout and stderr of `parse(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_command_parser_reads_argv_as_the_top_level_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert parsed(cli._parse, argv) == parsed(cli._PARSER.parse_args, argv)

import io

from maxleaf.cli import main
from maxleaf.digraph import verify_outbranching
from maxleaf.graphio import format_graph, load_graph, load_tree, parse_graph
from maxleaf.gen import gen_t_l


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
    code, _, _ = run(["exact", str(g)])
    assert code == 3


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


def test_unexpected_value_error_is_internal(tmp_path, monkeypatch):
    def broken(d):
        raise ValueError("numbering requires a 2-connected digraph")

    monkeypatch.setattr("maxleaf.cli.approximate", broken)
    g = tmp_path / "g.graph"
    run(["gen", "--family", "random", "--n", "10", "--seed", "11", "--out", str(g)])
    code, _, err = run(["approx", str(g)])
    assert code == 4
    assert err.startswith("internal error:")

"""Fuzzing the commands: token edits of small graph files and raw digraphs
with random roots go through `cli.main`.  Each run exits with a documented
code (0, 2, 3 or 5, never the internal-error code 4), no exception leaves
`main`, and every tree a successful run writes is verified against the
graph and meets what the run printed about it."""
import io
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf.cli import main
from maxleaf.digraph import verify_outbranching
from maxleaf.gen import gen_random
from maxleaf.graphio import format_graph, load_graph, load_tree

DOCUMENTED = {0, 2, 3, 5}

# replacement tokens: in range, out of range, and not ASCII integers
TOKENS = ["0", "1", "2", "3", "5", "9", "-1", "1000000000", "x", "1.5", "0_1", "+1",
          "١", "#", "0x1", "1e3", "null", "9" * 5000]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def fields(text):
    """The `key=value` lines of a command's output."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def verified(graph, tree_path):
    """The leaf count of the tree file at `tree_path`, which must be a
    spanning out-tree of `graph`."""
    check = verify_outbranching(graph, load_tree(tree_path))
    assert check.ok, check.reason
    return check.leaf_count


def check_every_command(text, k):
    """Run `approx`, `kernelize`, `decide -k k` and `exact` on a graph file
    holding `text`, and check each exit code and written tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        g = tmp / "g.graph"
        g.write_text(text, encoding="utf-8")
        tree, kernel, witness, optimal = (str(tmp / name) for name in
                                          ("approx.tree", "kernel.graph", "decide.tree",
                                           "exact.tree"))
        codes = {}
        for argv in (["approx", str(g), "--tree", tree],
                     ["kernelize", str(g), "--out", kernel],
                     ["decide", str(g), "-k", str(k), "--witness", witness],
                     ["exact", str(g), "--witness", optimal]):
            code, out, err = run(argv)
            assert code in DOCUMENTED, (argv[0], code, err)
            codes[argv[0]] = code
            if code != 0:
                continue
            graph = load_graph(g)
            if argv[0] == "approx":
                report = fields(out)
                leaves = int(report["leaves"])
                assert leaves >= Fraction(report["lower"])
                assert verified(graph, tree) == leaves
            elif argv[0] == "kernelize":
                load_graph(kernel)
            elif argv[0] == "decide" and out.startswith("TRUE"):
                assert verified(graph, witness) >= k
            elif argv[0] == "exact":
                assert verified(graph, optimal) == int(out)
        return codes


@st.composite
def edited_graph_files(draw):
    """The text of a small `gen_random` graph file after a few token edits:
    replace, delete or insert a token, drop or repeat a line, or set the
    header's arc count to the number of lines after it."""
    n = draw(st.integers(2, 9))
    d = gen_random(n, draw(st.sampled_from((0.2, 0.4, 0.7))), draw(st.integers(0, 10_000)))
    lines = [line.split() for line in format_graph(d).splitlines()]
    small = st.integers(-1, n).map(str)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("replace", "delete", "insert", "drop", "repeat", "recount")))
        if not lines:
            lines.append([])
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        j = draw(st.integers(0, len(line)))
        if op == "replace" and line:
            line[j % len(line)] = draw(small | st.sampled_from(TOKENS))
        elif op == "delete" and line:
            del line[j % len(line)]
        elif op == "insert":
            line.insert(j, draw(small | st.sampled_from(TOKENS)))
        elif op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, list(line))
        elif len(lines[0]) == 3:
            lines[0][1] = str(len(lines) - 1)
    return "".join(" ".join(line) + "\n" for line in lines)


@st.composite
def raw_graph_files(draw):
    """A well-formed graph file of a raw digraph: a random root, arcs into
    the root, 2-circuits and repeated arcs, and, unless a spanning out-tree
    of the root is planted, possibly unreachable vertices."""
    n = draw(st.integers(1, 9))
    r = draw(st.integers(0, n - 1))
    arcs = []
    if draw(st.booleans()):
        order = draw(st.permutations([v for v in range(n) if v != r]))
        for i, v in enumerate(order):
            arcs.append((draw(st.sampled_from([r, *order[:i]])), v))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if pairs:
        arcs += draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
    arcs = draw(st.permutations(arcs))
    return f"{n} {len(arcs)} {r}\n" + "".join(f"{u} {v}\n" for u, v in arcs)


@settings(max_examples=150, deadline=None)
@given(edited_graph_files(), st.integers(0, 6))
def test_edited_graph_files_exit_with_a_documented_code(text, k):
    check_every_command(text, k)


@settings(max_examples=150, deadline=None)
@given(raw_graph_files(), st.integers(1, 6))
def test_raw_digraphs_with_random_roots_exit_with_a_documented_code(text, k):
    codes = check_every_command(text, k)
    assert 2 not in codes.values()

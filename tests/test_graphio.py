import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf import graphio
from maxleaf.digraph import Outbranching, build, is_connected
from maxleaf.errors import GraphFormatError
from maxleaf.gen import gen_random, gen_t_l
from maxleaf.graphio import (_parse_graph_lines, _scan_graph, format_graph, format_tree,
                             parse_graph, parse_tree, to_dot)
from maxleaf.reduce import kernelize

from support import raw_digraph, relabelled, sorting_format_graph
from test_golden import corpus


def test_graph_round_trip():
    d = gen_t_l(3)
    assert parse_graph(format_graph(d)) == d


def test_graph_round_trip_with_comments():
    text = "# a comment\n\n3 2 0\n# another\n0 1\n0 2\n"
    d = parse_graph(text)
    assert d.arcs() == [(0, 1), (0, 2)]


def test_parse_graph_reports_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 2 0\n0 1\n1 1\n")
    assert exc.value.line_no == 3 and "loop" in str(exc.value)
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 2 0\n0 1\n")
    assert "expected 2 arc lines" in str(exc.value)
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 1 0\n0 1\n0 2\n")
    assert exc.value.line_no == 3 and "trailing" in str(exc.value)


def test_parse_graph_rejects_bad_header():
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("3 1 9\n0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("x y z\n")


@pytest.mark.parametrize("text", [
    "2 1 0\n0 0_1\n",             # int() reads 0_1 as 1
    "2 1 0\n0 \u0661\n",          # ARABIC-INDIC DIGIT ONE
    "2 1 0\n0 +1\n",
    "2\u0660 1 0\n0 1\n",         # ARABIC-INDIC DIGIT ZERO in the header
    "2 1 0\n0 1.0\n",
])
def test_parse_graph_takes_only_ascii_integer_fields(text):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert "non-integer field" in str(exc.value)
    assert parse_graph("2 1 0\n0 1\n").arcs() == [(0, 1)]
    assert parse_graph("2 1 0\n-0 01\n").arcs() == [(0, 1)]


def test_parse_tree_takes_only_ascii_integer_fields():
    with pytest.raises(GraphFormatError, match="non-integer field"):
        parse_tree("2 0\n1 0_0\n")
    with pytest.raises(GraphFormatError, match="non-integer field"):
        parse_tree("2 0\n\u0661 0\n")


LONG = "9" * 5000  # beyond CPython's default limit of 4,300 digits for int()


@pytest.mark.parametrize("text, line_no", [
    (f"3 2 0\n0 1\n0 {LONG}\n", 3),
    (f"{LONG} 2 0\n0 1\n1 2\n", 1),
    (f"3 2 0\n0 1\n-{LONG} 2\n", 3),
])
def test_parse_graph_rejects_fields_beyond_the_int_digit_limit(text, line_no):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line_no == line_no and "integer field of" in exc.value.message


def test_parse_tree_rejects_fields_beyond_the_int_digit_limit():
    with pytest.raises(GraphFormatError) as exc:
        parse_tree(f"3 0\n1 0\n2 {LONG}\n")
    assert exc.value.line_no == 3 and "integer field of 5000 characters" in exc.value.message
    with pytest.raises(GraphFormatError):
        parse_tree(f"{LONG} 0\n1 0\n")


@pytest.mark.parametrize("text", ["1000000000 0 0\n", "# hand-written\n1000000000 0 0\n",
                                  "1000000000 2 5\n0 1\n5 0\n", "3 1 0\n0 1\n"])
def test_parse_graph_builds_no_file_with_fewer_than_n_minus_1_arcs(text, monkeypatch):
    def refuse(n, root, arcs):
        raise AssertionError(f"built {n} vertices")

    monkeypatch.setattr(graphio, "build", refuse)
    assert parse_graph(text) is None


def test_parse_graph_builds_files_with_n_minus_1_arcs():
    for text in ("1 0 0\n", "3 2 0\n0 1\n1 2\n", "3 2 0\n0 1\n0 1\n"):
        n, _, r, arcs = _parse_graph_lines(text)
        assert parse_graph(text) == build(n, r, arcs)


def test_sparse_ids_are_compacted_with_mapping_comment():
    d = gen_random(8, 0.1, 3)  # normalization may merge vertices
    text = format_graph(d)
    parsed = parse_graph(text)
    assert parsed.n == d.n and parsed.m == d.m
    if list(d.vertices) != list(range(d.n)):
        assert text.startswith("# original-ids:")


def test_format_graph_matches_sorting_oracle():
    """Arcs read from the sorted out-lists in vertex order give the text of
    sorting the whole arc set, on the golden corpus, relabelled copies and
    kernels, many of them with non-dense ids."""
    graphs = [d for _, d, _, _ in corpus()]
    graphs += [relabelled(d, seed) for seed, d in enumerate(graphs[:120])]
    graphs += [kernelize(d)[0] for d in graphs[:240] if d.n < 100 and is_connected(d)]
    sparse = 0
    for d in graphs:
        text = format_graph(d)
        assert text == sorting_format_graph(d)
        sparse += text.startswith("# original-ids:")
    assert sparse > 50


def test_tree_round_trip():
    t = Outbranching(0, {1: 0, 2: 0, 3: 2})
    assert parse_tree(format_tree(t)) == t


def test_parse_tree_rejects_double_parent_and_root_parent():
    with pytest.raises(GraphFormatError, match="two parents"):
        parse_tree("3 0\n1 0\n1 2\n")
    with pytest.raises(GraphFormatError, match="root"):
        parse_tree("3 0\n0 1\n2 0\n")


def test_to_dot_mentions_all_arcs():
    d = build(3, 0, [(0, 1), (1, 2)])
    dot = to_dot(d, tree=Outbranching(0, {1: 0, 2: 1}))
    assert "0 -> 1" in dot and "1 -> 2" in dot and "digraph" in dot


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_round_trip_identity_on_random_instances(seed):
    d = gen_random(2 + seed % 9, 0.4, seed)
    again = parse_graph(format_graph(d))
    # ids may be compacted; structure must survive another round exactly
    assert format_graph(again) == format_graph(parse_graph(format_graph(again)))
    assert again.n == d.n and again.m == d.m


def _parse_lines(text):
    """What `parse_graph` gives for a text, read line by line."""
    n, m, r, arcs = _parse_graph_lines(text)
    return build(n, r, arcs) if m >= n - 1 else None


def _read(parse, text):
    """The digraph `parse` reads from text, or its error's line and message."""
    try:
        return parse(text)
    except GraphFormatError as exc:
        return ("error", exc.line_no, exc.message)


def _perturbed(text):
    """Variants of a graph file in `format_graph`'s dense form: each is
    read line by line, or by the scan when it reads the same digraph.  An
    id-mapping comment is dropped first."""
    if text.startswith("#"):
        text = text.partition("\n")[2]
    head, _, body = text.partition("\n")
    n, m, r = map(int, head.split())
    arcs = body.splitlines()
    first = arcs[0] if arcs else "0 1"
    yield "# a comment\n" + text
    yield head + "\n\n" + body
    yield head + "\n" + "\n# note\n".join(arcs) + "\n"
    yield text.replace("\n", "\r\n")
    yield text.replace(" ", "\t")
    yield text.replace(" ", "  ")
    yield text.replace("\n", " \n")
    yield " " + text
    yield text.rstrip("\n")
    yield text + "\n"
    yield head + "\n+" + body
    yield text.replace(" 10\n", " 1_0\n")
    yield head + "\n" + body.replace("0", "\u0660")  # ARABIC-INDIC DIGIT ZERO
    yield head + "\n" + body.replace(" ", "\x0c", 1)
    yield f"{n} {m + 1} {r}\n{body}-1 1\n"
    yield f"{n} {m + 1} {r}\n{body}1 {n}\n"
    yield f"{n} {m + 1} {r}\n{body}1 1\n"
    yield f"{n} {m + 1} {r}\n{body}{first}\n"
    yield f"{n} {max(m - 1, 0)} {r}\n{body}"
    yield f"{n} {m + 1} {r}\n{body}"
    yield f"{n} {m} {r} 7\n{body}"
    yield f"{n} {m}\x0b {r}\n{body}"
    yield f"0{n} {m} {r}\n{body}"
    yield f"{n} {m} {n}\n{body}"
    yield f"{n} {m} {r}\n{body}x y\n"
    yield f"{n} {m} {r}\n{body}2 1\n"
    yield head + "\n" + body.replace(" ", " 0 ", 1)
    # JSON-significant text: the scan decodes the body as one JSON array
    for token in ('"0"', "[", "]", ",", "null", "true", "NaN", "Infinity", "1.0", "1e0", "-0",
                  "[0]", "{}", LONG):
        yield f"{n} {m + 1} {r}\n{body}{token} 1\n"
        yield head + "\n" + body.replace("0", token, 1)
    yield f"{n} {m + 1} {r}\n{body}0 " + "[" * 100_000 + "\n"
    yield f"{n} {m} {r}\n{body[:-1]},\n" if body else f"{n} {m} {r}\n,\n"


def test_scan_matches_line_path():
    # every text the scan reads it reads as the line path does; every
    # other text, and every error, comes from the line path
    graphs = [d for _, d, _, _ in corpus()]
    graphs += [raw_digraph(seed) for seed in range(20)]
    graphs += [gen_random(n, 0.3, seed) for seed, n in enumerate(range(2, 16))]
    texts = ["", "\n", "# only a comment\n", "0 0 0\n", "1 0 0", "1 0 0\n", "1 0 0\r\n",
             "2 1 0\n0 1", "2 1 5\n0 1\n", "-1 0 0\n", "2 -1 0\n", "x y z\n", "3 1\n0 1\n"]
    scanned = 0
    for d in graphs:
        text = format_graph(d)
        if list(d.vertices) == list(range(d.n)) and d.m >= d.n - 1:
            assert build(*_scan_graph(text)) == d
        for variant in (text, *_perturbed(text)):
            texts.append(variant)
    for text in texts:
        assert _read(parse_graph, text) == _read(_parse_lines, text), repr(text)
        scanned += _scan_graph(text) is not None
    assert scanned > len(graphs)  # some perturbed texts take the scan too

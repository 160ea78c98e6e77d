"""Text formats: graph files, tree files and DOT export.

Graph format: first data line is `n m r`, followed by m lines `u v` with
0-based vertex ids, each field an ASCII integer (`-?[0-9]+`).  Lines
starting with `#` and blank lines are ignored.
`parse_graph` first reads the whole text in one scan, which accepts only
the layout `format_graph` writes for dense ids; any other text, and every
malformed one, goes to the line-by-line reading, which raises the errors.
A text with fewer than n - 1 arcs reads as None: no root of it reaches
every vertex, so no command can use it, and a header such as
`1000000000 0 0` must not build a billion vertices.

Tree format: first data line is `n r`, followed by n-1 lines `child parent`.
"""
from __future__ import annotations

import re

from .digraph import Outbranching, build
from .errors import GraphFormatError


def _data_lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


_INT = re.compile(r"-?[0-9]+")


def _ints(line_no, line, count, what):
    """The `count` integer fields of a line; `int` alone would also take
    `0_1`, `+1` and non-ASCII digits."""
    parts = line.split()
    if len(parts) != count:
        raise GraphFormatError(line_no, f"expected {count} fields for {what}, got {len(parts)}")
    if not all(map(_INT.fullmatch, parts)):
        raise GraphFormatError(line_no, f"non-integer field in {what!r} line: {line!r}")
    return [int(p) for p in parts]


def _scan_graph(text):
    """`n, m, r` and the arcs of a text in `format_graph`'s dense layout,
    read in one scan of the whole text; None for any other text and for any
    text that the line-by-line reading rejects."""
    head, _, body = text.partition("\n")
    try:
        n, m, r = map(int, head.split(" "))
        ids = list(map(int, body.split()))
    except ValueError:
        return None
    if (head != f"{n} {m} {r}" or not 0 <= r < n or len(ids) != 2 * m
            or body != "%d %d\n" * m % tuple(ids)):
        return None
    if ids and (min(ids) < 0 or max(ids) >= n or any(map(int.__eq__, ids[::2], ids[1::2]))):
        return None
    it = iter(ids)
    return n, m, r, zip(it, it)


def parse_graph(text):
    """The digraph of a graph file's text; None for a text with fewer than
    the n - 1 arcs that a spanning out-tree needs, without building its n
    vertices (module docstring)."""
    n, m, r, arcs = _scan_graph(text) or _parse_graph_lines(text)
    if m < n - 1:
        return None
    return build(n, r, arcs)


def _parse_graph_lines(text):
    lines = _data_lines(text)
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise GraphFormatError(0, "empty graph file") from None
    n, m, r = _ints(line_no, header, 3, "header `n m r`")
    if n < 1:
        raise GraphFormatError(line_no, f"vertex count {n} must be positive")
    if not 0 <= r < n:
        raise GraphFormatError(line_no, f"root {r} out of range for n={n}")
    if m < 0:
        raise GraphFormatError(line_no, f"arc count {m} is negative")
    arcs = []
    for _ in range(m):
        try:
            line_no, line = next(lines)
        except StopIteration:
            raise GraphFormatError(line_no, f"expected {m} arc lines, found {len(arcs)}") from None
        u, v = _ints(line_no, line, 2, "arc `u v`")
        if u == v:
            raise GraphFormatError(line_no, f"loop arc ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(line_no, f"arc ({u}, {v}) out of range for n={n}")
        arcs.append((u, v))
    for line_no, line in lines:
        raise GraphFormatError(line_no, f"trailing data after {m} arcs: {line!r}")
    return n, m, r, arcs


def load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def format_graph(d):
    """Serialize with dense 0-based ids; records the id mapping when not
    dense.  The arcs come in vertex order, each vertex's from its sorted
    out-list: the new ids keep the vertex order, so that is sorted order."""
    order = list(d.vertices)
    newid = {v: i for i, v in enumerate(order)}
    lines = []
    if order != list(range(d.n)):
        pairs = " ".join(f"{newid[v]}={v}" for v in order)
        lines.append(f"# original-ids: {pairs}")
    m = d.m
    lines.append(f"{d.n} {m} {newid[d.root]}\n")
    ids = [x for i, u in enumerate(order) for v in d.out_neighbors(u) for x in (i, newid[v])]
    return "\n".join(lines) + "%d %d\n" * m % tuple(ids)


def parse_tree(text):
    lines = _data_lines(text)
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise GraphFormatError(0, "empty tree file") from None
    n, r = _ints(line_no, header, 2, "header `n r`")
    if n < 1:
        raise GraphFormatError(line_no, f"vertex count {n} must be positive")
    parent = {}
    for _ in range(n - 1):
        try:
            line_no, line = next(lines)
        except StopIteration:
            raise GraphFormatError(line_no,
                                   f"expected {n - 1} `child parent` lines, found {len(parent)}") from None
        c, p = _ints(line_no, line, 2, "tree `child parent`")
        if c == r:
            raise GraphFormatError(line_no, "the root has no parent")
        if c in parent:
            raise GraphFormatError(line_no, f"vertex {c} has two parents")
        parent[c] = p
    for line_no, line in lines:
        raise GraphFormatError(line_no, f"trailing data after {n - 1} tree arcs: {line!r}")
    return Outbranching(r, parent)


def load_tree(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


def format_tree(t):
    n = len(t.parent) + 1
    lines = [f"{n} {t.root}"]
    lines.extend(f"{c} {p}" for c, p in sorted(t.parent.items()))
    return "\n".join(lines) + "\n"


def to_dot(d, tree=None):
    """DOT text for inspection; tree arcs, when given, are drawn bold."""
    tree_arcs = set()
    if tree is not None:
        tree_arcs = {(p, c) for c, p in tree.parent.items()}
    out = ["digraph g {"]
    out.append(f'  {d.root} [shape=doublecircle];')
    for u, v in d.arcs():
        style = " [style=bold]" if (u, v) in tree_arcs else ""
        out.append(f"  {u} -> {v}{style};")
    out.append("}")
    return "\n".join(out) + "\n"

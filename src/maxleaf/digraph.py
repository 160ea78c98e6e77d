"""Rooted digraphs: construction, normalization, connectivity and tree checks.

A rooted digraph is a loopless digraph with a distinguished root r of
indegree 0.  Normalization additionally deletes every arc that enters an
outneighbor of r from anywhere but r, and merges the root with its unique
outneighbor while the root has outdegree 1 and more than two vertices remain.

Connectivity notions are rooted: a cut is a set S of non-root vertices whose
removal leaves some vertex unreachable from r, and the digraph is 2-connected
when it has no cut of size at most 1.  A cut of size 1 is a cutvertex.

Vertex ids are stable across transformations: derived digraphs keep the ids
of surviving vertices, so trees and reports always speak in the coordinates
of the instance they started from.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional


class RootedDigraph:
    """Immutable rooted digraph over integer vertex ids (not necessarily dense)."""

    __slots__ = ("vertices", "root", "_out", "_in", "_arcset")

    def __init__(self, vertices, root, arcs):
        vs = tuple(sorted(set(vertices)))
        vset = set(vs)
        if root not in vset:
            raise ValueError(f"root {root} is not a vertex")
        out = {v: [] for v in vs}
        inn = {v: [] for v in vs}
        arcset = set()
        for u, v in arcs:
            if u == v:
                raise ValueError(f"loop arc ({u}, {v})")
            if u not in vset or v not in vset:
                raise ValueError(f"arc ({u}, {v}) uses an unknown vertex")
            if (u, v) in arcset:
                continue
            arcset.add((u, v))
            out[u].append(v)
            inn[v].append(u)
        self.vertices = vs
        self.root = root
        self._out = {v: tuple(sorted(out[v])) for v in vs}
        self._in = {v: tuple(sorted(inn[v])) for v in vs}
        self._arcset = frozenset(arcset)

    # -- basic queries -------------------------------------------------

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self._arcset)

    def out_neighbors(self, v):
        return self._out[v]

    def in_neighbors(self, v):
        return self._in[v]

    def outdeg(self, v):
        return len(self._out[v])

    def indeg(self, v):
        return len(self._in[v])

    def has_arc(self, u, v):
        return (u, v) in self._arcset

    def arcs(self):
        return sorted(self._arcset)

    def arc_set(self):
        return self._arcset

    def root_out(self):
        return self._out[self.root]

    def __eq__(self, other):
        if not isinstance(other, RootedDigraph):
            return NotImplemented
        return (self.root == other.root and self.vertices == other.vertices
                and self._arcset == other._arcset)

    def __hash__(self):
        return hash((self.root, self.vertices, self._arcset))

    def __repr__(self):
        return f"RootedDigraph(n={self.n}, m={self.m}, root={self.root})"

    # -- derived digraphs ----------------------------------------------

    def without_arcs(self, arcs):
        drop = set(arcs)
        return RootedDigraph(self.vertices, self.root,
                             (a for a in self._arcset if a not in drop))

    def with_arcs(self, arcs):
        return RootedDigraph(self.vertices, self.root,
                             list(self._arcset) + list(arcs))

    def without_vertex(self, v, extra_arcs=()):
        if v == self.root:
            raise ValueError("cannot delete the root")
        keep = [w for w in self.vertices if w != v]
        arcs = [a for a in self._arcset if v not in a]
        arcs.extend(extra_arcs)
        return RootedDigraph(keep, self.root, arcs)

    def contracted(self, keep, absorb):
        """Merge vertex `absorb` into `keep`, rewriting arcs and dropping loops."""
        if absorb == self.root:
            raise ValueError("cannot absorb the root")
        arcs = []
        for u, v in self._arcset:
            if u == absorb:
                u = keep
            if v == absorb:
                v = keep
            if u != v:
                arcs.append((u, v))
        keep_vs = [w for w in self.vertices if w != absorb]
        return RootedDigraph(keep_vs, self.root, arcs)


def build(n, root, arcs):
    """Build a rooted digraph on vertices 0..n-1; rejects loops, collapses duplicates."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for n={n}")
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop arc ({u}, {v})")
    return RootedDigraph(range(n), root, arcs)


# -- normalization -----------------------------------------------------


@dataclass(frozen=True)
class NormalizationNote:
    """Ordered record of what normalization did.

    events is a sequence of ('del', arcs_tuple) and ('merge', absorbed_id)
    entries, in application order.  Replaying them on the input digraph gives
    the normalized digraph.
    """

    events: tuple

    @property
    def merged(self):
        return [payload for kind, payload in self.events if kind == "merge"]


def _illegal_arcs(d):
    r = d.root
    root_out = set(d.root_out())
    bad = []
    for u, v in d.arcs():
        if v == r:
            bad.append((u, v))
        elif v in root_out and u != r:
            bad.append((u, v))
    return bad


def normalize(d):
    """Enforce the standing root assumptions; returns (digraph, NormalizationNote).

    Deletes arcs into r, deletes arcs into outneighbors of r coming from
    anywhere but r, and merges r with its unique outneighbor while the root
    outdegree is 1 and n > 2.  The maximum leaf number is preserved: a tree
    arc into an outneighbor y of r can always be replaced by (r, y), and the
    merged vertex is internal in every spanning out-tree.  Once the illegal
    arcs are gone the only arc into the merged outneighbor is the root's, so
    the merge is a plain contraction.
    """
    events = []
    work = d
    while True:
        bad = _illegal_arcs(work)
        if bad:
            events.append(("del", tuple(bad)))
            work = work.without_arcs(bad)
            continue
        if work.n > 2 and work.outdeg(work.root) == 1:
            (u,) = work.root_out()
            events.append(("merge", u))
            work = work.contracted(work.root, u)
            continue
        break
    return work, NormalizationNote(tuple(events))


def is_normalized(d):
    if d.indeg(d.root) != 0:
        return False
    if _illegal_arcs(d):
        return False
    return d.n <= 2 or d.outdeg(d.root) >= 2


# -- reachability and cuts ---------------------------------------------


def _reach(root, out_map, removed=()):
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in out_map[u]:
            if v not in seen and v not in removed:
                seen.add(v)
                queue.append(v)
    return seen


def reachable(d, removed=()):
    """Vertices reachable from the root in d minus `removed`."""
    removed = set(removed)
    if d.root in removed:
        raise ValueError("cannot remove the root")
    return _reach(d.root, d._out, removed)


def is_connected(d):
    return len(reachable(d)) == d.n


def immediate_dominators(d):
    """Iterative immediate-dominator computation from the root.

    Returns a dict mapping every reachable vertex to its immediate dominator
    (the root maps to itself).  Requires all vertices reachable.
    """
    return dominators_from_maps(d.root, d._out, d._in)


def dominators_from_maps(root, out_map, in_map):
    order = []
    index = {}
    seen = {root}
    stack = [(root, iter(sorted(out_map[root])))]
    while stack:
        u, it = stack[-1]
        advanced = False
        for v in it:
            if v not in seen:
                seen.add(v)
                stack.append((v, iter(sorted(out_map[v]))))
                advanced = True
                break
        if not advanced:
            order.append(u)
            stack.pop()
    order.reverse()  # reverse postorder
    for i, v in enumerate(order):
        index[v] = i
    idom = {root: root}

    def intersect(a, b):
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for v in order:
            if v == root:
                continue
            new = None
            for p in sorted(in_map[v]):
                if p in idom:
                    new = p if new is None else intersect(p, new)
            if new is not None and idom.get(v) != new:
                idom[v] = new
                changed = True
    return idom


def cutvertices(d):
    """All non-root vertices whose removal makes something unreachable, ascending."""
    if not is_connected(d):
        raise ValueError("digraph is not connected from the root")
    idom = immediate_dominators(d)
    cuts = {idom[v] for v in d.vertices if v != d.root}
    cuts.discard(d.root)
    return sorted(cuts)


def find_cutvertex(d):
    """The smallest cutvertex, or None.

    A vertex x != r is a cutvertex exactly when x properly dominates some
    other vertex with respect to the root.
    """
    cuts = cutvertices(d)
    return cuts[0] if cuts else None


def is_2connected(d):
    """No cut of size at most 1: connected and cutvertex-free."""
    return is_2connected_from_maps(d.root, d._out, d._in)


def is_2connected_from_maps(root, out_map, in_map):
    """is_2connected on adjacency maps sharing one key set (the vertices):
    one reachability pass, then one dominator pass, since a vertex is a
    cutvertex exactly when it is the immediate dominator of another."""
    if len(_reach(root, out_map)) != len(out_map):
        return False
    if len(out_map) <= 2:
        return True
    return all(p == root for p in dominators_from_maps(root, out_map, in_map).values())


# -- classification ----------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Simple arcs plus the nice / special / non-special vertex partition.

    An arc (u, v) is simple when (v, u) is absent.  A vertex is nice when it
    has a simple in-arc, and special when it is nice or has indegree >= 3.
    The root is never classified.
    """

    simple_arcs: frozenset
    nice: frozenset
    special: frozenset
    nonspecial: frozenset


def classify(d):
    simple = frozenset((u, v) for (u, v) in d._arcset if (v, u) not in d._arcset)
    nice = set()
    special = set()
    for v in d.vertices:
        if v == d.root:
            continue
        if any((u, v) in simple for u in d._in[v]):
            nice.add(v)
        if v in nice or d.indeg(v) >= 3:
            special.add(v)
    nonspecial = frozenset(v for v in d.vertices
                           if v != d.root and v not in special)
    return Classification(simple, frozenset(nice), frozenset(special), nonspecial)


# -- outbranchings -----------------------------------------------------


class Outbranching:
    """A spanning out-tree given by a parent map on the non-root vertices."""

    __slots__ = ("root", "parent", "leaf_set", "leaf_count")

    def __init__(self, root, parent):
        self.root = root
        self.parent = dict(parent)
        children = set(self.parent.values())
        verts = set(self.parent) | {root}
        self.leaf_set = frozenset(v for v in verts if v not in children)
        self.leaf_count = len(self.leaf_set)

    def arcs(self):
        return sorted((p, c) for c, p in self.parent.items())

    def vertices(self):
        return sorted(set(self.parent) | {self.root})

    def __eq__(self, other):
        if not isinstance(other, Outbranching):
            return NotImplemented
        return self.root == other.root and self.parent == other.parent

    def __repr__(self):
        return f"Outbranching(root={self.root}, leaves={self.leaf_count})"


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    leaf_count: Optional[int]
    reason: Optional[str] = None


def verify_outbranching(d, t):
    """Check that t is a spanning out-tree of d rooted at d.root."""
    expected = set(d.vertices) - {d.root}
    if t.root != d.root:
        return VerifyResult(False, None, f"tree root {t.root} != digraph root {d.root}")
    if set(t.parent) != expected:
        missing = expected - set(t.parent)
        extra = set(t.parent) - expected
        if missing:
            return VerifyResult(False, None, f"no parent for vertices {sorted(missing)}")
        return VerifyResult(False, None, f"unexpected tree vertices {sorted(extra)}")
    for c, p in t.parent.items():
        if not d.has_arc(p, c):
            return VerifyResult(False, None, f"tree arc ({p}, {c}) is not an arc of the digraph")
    children = {}
    for c, p in t.parent.items():
        children.setdefault(p, []).append(c)
    seen = {d.root}
    queue = deque([d.root])
    while queue:
        u = queue.popleft()
        for c in children.get(u, ()):
            seen.add(c)
            queue.append(c)
    if len(seen) != d.n:
        stray = sorted(set(d.vertices) - seen)
        return VerifyResult(False, None, f"vertices {stray} not reachable inside the tree")
    return VerifyResult(True, t.leaf_count)


def grow_tree(d, internal=None, parent=None):
    """Breadth-first out-tree grown from the root, or from the partial tree
    given by the parent map `parent`.

    The root and the vertices of `parent` are expanded in ascending id order,
    then every newly reached vertex that lies in `internal` (every one when
    `internal` is None), so only those can become internal.  Callers check
    that the result spans.
    """
    parent = dict(parent or {})
    queue = deque(sorted({d.root, *parent}))
    placed = set(queue)
    while queue:
        u = queue.popleft()
        for v in d._out[u]:
            if v not in placed:
                placed.add(v)
                parent[v] = u
                if internal is None or v in internal:
                    queue.append(v)
    return Outbranching(d.root, parent)


def bfs_tree(d):
    """Breadth-first spanning out-tree; every outneighbor of r is a root child."""
    tree = grow_tree(d)
    if len(tree.parent) != d.n - 1:
        raise ValueError("digraph is not connected from the root")
    return tree

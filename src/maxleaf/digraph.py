"""Rooted digraphs: construction, normalization, connectivity and tree checks.

A rooted digraph is a loopless digraph with a distinguished root r of
indegree 0.  Normalization additionally deletes every arc that enters an
outneighbor of r from anywhere but r, and merges the root with its unique
outneighbor while the root has outdegree 1 and more than two vertices remain.

Connectivity notions are rooted: a cut is a set S of non-root vertices whose
removal leaves some vertex unreachable from r, and the digraph is 2-connected
when it has no cut of size at most 1.  A cut of size 1 is a cutvertex.

`search` is the one breadth-first search: reachability, `grow_tree`, the
tree check, rule 1's check, `stnum.RootPathState` and `majbound_tree`'s
path search all read it; only `stnum`'s residual second-path search keeps
its own loop.

Local renormalization.  Take a digraph that was normalized and has been
rewritten since.  An illegal arc in it is new, or it enters a new root
outneighbor z, so that (r, z) is new: at the normalization no arc entered
r, and an arc into z from anywhere but r was legal only because z was no
root outneighbor then.  So every illegal arc enters the head of an arc
added since the last normalization; a `WorkGraph` records those heads, and
`normalize` reads only their in-lists.  A digraph never normalized gets
the full walk.

Vertex ids are stable across transformations: derived digraphs keep the ids
of surviving vertices, so trees and reports always speak in the coordinates
of the instance they started from.  Rewriting algorithms copy their input
into one `WorkGraph`, rewrite that in place, and turn it back into a
`RootedDigraph` once, or never when only its sets are read, as in
`stnum.rr_numbering`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InternalInvariantError


class RootedDigraph:
    """Immutable rooted digraph over integer vertex ids (not necessarily dense);
    a loop or an arc on an unknown vertex raises ValueError naming the smallest."""

    __slots__ = ("vertices", "root", "_out", "_in", "_arcset")

    def __init__(self, vertices, root, arcs):
        vs = tuple(sorted(set(vertices)))
        out = {v: [] for v in vs}
        if root not in out:
            raise ValueError(f"root {root} is not a vertex")
        inn = {v: [] for v in vs}
        arcset = set(arcs)
        try:
            for u, v in arcset:
                if u == v:
                    raise KeyError(u)
                out[u].append(v)
                inn[v].append(u)
        except KeyError:
            u, v = min((u, v) for u, v in arcset if u == v or u not in out or v not in out)
            if u == v:
                raise ValueError(f"loop arc ({u}, {v})") from None
            raise ValueError(f"arc ({u}, {v}) uses an unknown vertex") from None
        self.vertices = vs
        self.root = root
        self._out = {v: tuple(sorted(ws)) for v, ws in out.items()}
        self._in = {v: tuple(sorted(ws)) for v, ws in inn.items()}
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

    # -- derived digraphs (filtered arcs, or one rewrite of a WorkGraph copy) -

    def without_arcs(self, arcs):
        return RootedDigraph(self.vertices, self.root, self._arcset.difference(arcs))

    def without_vertex(self, v, extra_arcs=()):
        return WorkGraph(self).without_vertex(v, extra_arcs).freeze()

    def contracted(self, keep, absorb):
        """Merge vertex `absorb` into `keep`, rewriting arcs and dropping loops."""
        return WorkGraph(self).contracted(keep, absorb).freeze()


class WorkGraph:
    """Mutable copy of a rooted digraph for the rewriting algorithms.

    It answers the read interface of `RootedDigraph` that the rules and
    `normalize` use, with adjacency sets as the raw maps that traversals
    read, and sorted tuples from `out_neighbors`, `in_neighbors` and
    `root_out` for the choices that shape an output.  `vertices` stays
    ascending: the copy keeps its source's order and only ever deletes.

    `without_arcs`, `without_vertex` and `contracted` rewrite it in place,
    in time linear in the arcs they touch, and return it, so code written
    as `d = step.apply(d)` serves both classes; `RootedDigraph`'s own
    `without_vertex` and `contracted` are these rewrites applied to a fresh
    copy, while its `without_arcs` builds once from the filtered arc set.

    From its first normalization on, it records the heads of the arcs
    added since the last one, so that `normalize` reads only their
    in-lists (module docstring); the record is None before that.
    """

    __slots__ = ("root", "_out", "_in", "_new_heads")

    def __init__(self, d):
        self.root = d.root
        self._out = {v: set(d._out[v]) for v in d.vertices}
        self._in = {v: set(d._in[v]) for v in d.vertices}
        self._new_heads = None

    def take_new_heads(self):
        """The heads recorded since the last call, None on the first call;
        starts a new, empty record."""
        heads, self._new_heads = self._new_heads, set()
        return heads

    def freeze(self):
        return RootedDigraph(self._out, self.root,
                             ((u, v) for u, out in self._out.items() for v in out))

    @property
    def vertices(self):
        return self._out.keys()

    @property
    def n(self):
        return len(self._out)

    @property
    def m(self):
        return sum(map(len, self._out.values()))

    def out_neighbors(self, v):
        return tuple(sorted(self._out[v]))

    def in_neighbors(self, v):
        return tuple(sorted(self._in[v]))

    def outdeg(self, v):
        return len(self._out[v])

    def indeg(self, v):
        return len(self._in[v])

    def has_arc(self, u, v):
        return v in self._out.get(u, ())

    def root_out(self):
        return self.out_neighbors(self.root)

    def _add_arc(self, u, v):
        if u == v:
            raise ValueError(f"loop arc ({u}, {v})")
        if u not in self._out or v not in self._out:
            raise ValueError(f"arc ({u}, {v}) uses an unknown vertex")
        self._out[u].add(v)
        self._in[v].add(u)
        if self._new_heads is not None:
            self._new_heads.add(v)

    def without_arcs(self, arcs):
        """Delete the given arcs that are present."""
        for u, v in arcs:
            if self.has_arc(u, v):
                self._out[u].remove(v)
                self._in[v].remove(u)
        return self

    def without_vertex(self, v, extra_arcs=()):
        """Delete v with its arcs, then add `extra_arcs`."""
        if v == self.root:
            raise ValueError("cannot delete the root")
        outs = self._out.pop(v)
        ins = self._in.pop(v)
        for z in outs:
            self._in[z].remove(v)
        for u in ins:
            self._out[u].remove(v)
        for u, z in extra_arcs:
            self._add_arc(u, z)
        return self

    def contracted(self, keep, absorb):
        """Merge vertex `absorb` into `keep`, rewriting arcs and dropping loops."""
        if absorb == self.root:
            raise ValueError("cannot absorb the root")
        arcs = [(keep, z) for z in self._out[absorb] if z != keep]
        arcs += [(u, keep) for u in self._in[absorb] if u != keep]
        return self.without_vertex(absorb, arcs)


def build(n, root, arcs):
    """Build a rooted digraph on vertices 0..n-1; rejects loops and arcs on
    unknown vertices (`RootedDigraph`), collapses duplicates."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for n={n}")
    return RootedDigraph(range(n), root, arcs)


# -- normalization -----------------------------------------------------


@dataclass(frozen=True)
class NormDeleteStep:
    arcs: tuple

    def apply(self, d):
        return d.without_arcs(self.arcs)

    def __str__(self):
        pairs = " ".join(f"{u}>{v}" for u, v in self.arcs)
        return f"norm-del {pairs}"


@dataclass(frozen=True)
class NormMergeStep:
    absorbed: int

    def apply(self, d):
        if d.root_out() != (self.absorbed,):
            raise InternalInvariantError("merge replay does not match the recorded digraph")
        return d.contracted(d.root, self.absorbed)

    def __str__(self):
        return f"norm-merge {self.absorbed}"


def _illegal_arcs(d, heads=None):
    """Arcs into r and arcs into a root outneighbor from anywhere but r,
    sorted, among the arcs that enter `heads` (which may name deleted
    vertices); every head by default."""
    r = d.root
    if heads is None:
        heads = (r, *d._out[r])
    bad = []
    for v in heads:
        ins = d._in.get(v, ())
        if v == r:
            bad.extend((u, r) for u in ins)
        elif r in ins:
            bad.extend((u, v) for u in ins if u != r)
    return sorted(bad)


def normalize(d):
    """Enforce the standing root assumptions; returns the digraph and the
    tuple of `NormDeleteStep` / `NormMergeStep` rewrites applied, in order.
    A `WorkGraph` is rewritten in place and returned.

    Deletes arcs into r, deletes arcs into outneighbors of r coming from
    anywhere but r, and merges r with its unique outneighbor while the root
    outdegree is 1 and n > 2.  The maximum leaf number is preserved: a tree
    arc into an outneighbor y of r can always be replaced by (r, y), and the
    merged vertex is internal in every spanning out-tree.  Once the illegal
    arcs are gone the only arc into the merged outneighbor is the root's, so
    the merge is a plain contraction.

    A `RootedDigraph` is rewritten by at most one filtered build, for the
    deletions before the first merge, and one `WorkGraph` copy, made at
    that merge and frozen once at the end; one that needs no rewrite comes
    back as given.  A `WorkGraph` normalized before is checked only at the
    heads of the arcs added since (module docstring); any other digraph
    gets the full walk of the root's in-list and its outneighbors' ones.
    """
    steps = []
    work = d
    while True:
        heads = work.take_new_heads() if isinstance(work, WorkGraph) else None
        bad = _illegal_arcs(work, heads)
        if bad:
            step = NormDeleteStep(tuple(bad))
        elif work.n > 2 and work.outdeg(work.root) == 1:
            step = NormMergeStep(work.root_out()[0])
            if isinstance(work, RootedDigraph):
                work = WorkGraph(work)
        else:
            break
        steps.append(step)
        work = step.apply(work)
    if isinstance(work, WorkGraph) and work is not d:
        work = work.freeze()
    return work, tuple(steps)


# -- reachability and cuts ---------------------------------------------


def search(out_map, sources, expand=None, avoid=()):
    """One breadth-first search of the adjacency map `out_map` from
    `sources`, taken in the given order.

    Returns a dict from each discovered vertex to the vertex that discovered
    it, the sources mapping to None, in discovery order.  Vertices in
    `avoid` are never discovered.  Sources are always expanded; any other
    vertex outside `expand` (when given) is discovered but not expanded.
    Each out-list is read in its own order.
    """
    found = dict.fromkeys(sources)
    queue = list(found)
    for u in queue:
        for v in out_map[u]:
            if v not in found and v not in avoid:
                found[v] = u
                if expand is None or v in expand:
                    queue.append(v)
    return found


def reachable(d, removed=()):
    """Vertices reachable from the root in d minus `removed`, as a set-like
    view."""
    removed = set(removed)
    if d.root in removed:
        raise ValueError("cannot remove the root")
    return search(d._out, [d.root], avoid=removed).keys()


def is_connected(d):
    return len(reachable(d)) == d.n


def immediate_dominators(d):
    """Immediate dominators from the root (`dominators_from_maps`).

    Returns a dict mapping every reachable vertex to its immediate dominator
    (the root maps to itself).
    """
    return dominators_from_maps(d.root, d._out, d._in)


def dominators_from_maps(root, out_map, in_map):
    """Immediate dominators of the vertices reachable from `root` on
    adjacency maps: Lengauer and Tarjan's algorithm, simple version with
    path compression ("A fast algorithm for finding dominators in a
    flowgraph", TOPLAS 1(1), 1979), over one depth-first numbering.  The
    neighbor collections may come in any order, since the dominator tree is
    unique; unreachable in-neighbors are ignored."""
    order = [root]  # vertices by depth-first number
    num = {root: 0}
    parent = [0]
    stack = [(0, iter(out_map[root]))]
    while stack:
        k, it = stack[-1]
        for v in it:
            if v not in num:
                num[v] = len(order)
                order.append(v)
                parent.append(k)
                stack.append((num[v], iter(out_map[v])))
                break
        else:
            stack.pop()
    size = len(order)
    semi = list(range(size))
    label = list(range(size))
    ancestor = [-1] * size  # the forest linked so far; -1 marks a tree root
    idom = [0] * size
    bucket = [[] for _ in range(size)]

    def evaluate(v):
        """The vertex of least semidominator on v's forest path, below its
        forest root, compressing that path."""
        if ancestor[v] < 0:
            return v
        chain = []
        u = v
        while ancestor[ancestor[u]] >= 0:
            chain.append(u)
            u = ancestor[u]
        for u in reversed(chain):
            a = ancestor[u]
            if semi[label[a]] < semi[label[u]]:
                label[u] = label[a]
            ancestor[u] = ancestor[a]
        return label[v]

    for w in range(size - 1, 0, -1):
        for p in in_map[order[w]]:
            k = num.get(p)
            if k is not None:
                s = semi[evaluate(k)]
                if s < semi[w]:
                    semi[w] = s
        bucket[semi[w]].append(w)
        p = parent[w]
        ancestor[w] = p
        for v in bucket[p]:
            u = evaluate(v)
            idom[v] = u if semi[u] < semi[v] else p
        bucket[p] = []
    for w in range(1, size):
        if idom[w] != semi[w]:
            idom[w] = idom[idom[w]]
    return {v: order[idom[k]] for k, v in enumerate(order)}


def cutvertices(d):
    """All non-root vertices whose removal makes something unreachable, ascending."""
    idom = immediate_dominators(d)  # maps the reachable vertices only
    if len(idom) != d.n:
        raise ValueError("digraph is not connected from the root")
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
    """No cut of size at most 1, from one dominator pass: it maps exactly
    the vertices reachable from the root, and a vertex is a cutvertex
    exactly when it is the immediate dominator of another."""
    idom = dominators_from_maps(d.root, d._out, d._in)
    return len(idom) == d.n and all(p == d.root for p in idom.values())


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
    children = {v: [] for v in d.vertices}
    for c, p in t.parent.items():
        children[p].append(c)
    seen = search(children, [d.root])
    if len(seen) != d.n:
        stray = sorted(v for v in d.vertices if v not in seen)
        return VerifyResult(False, None, f"vertices {stray} not reachable inside the tree")
    return VerifyResult(True, t.leaf_count)


def grow_tree(d, internal=None, parent=None):
    """Breadth-first out-tree grown from the root, or from the partial tree
    given by the parent map `parent`: one `search` of d's out-lists.

    The root and the vertices of `parent` are expanded in ascending id order,
    then every newly reached vertex that lies in `internal` (every one when
    `internal` is None), so only those can become internal.  Callers check
    that the result spans.
    """
    parent = parent or {}
    found = search(d._out, sorted({d.root, *parent}), expand=internal)
    del found[d.root]
    found.update(parent)
    return Outbranching(d.root, found)


def bfs_tree(d):
    """Breadth-first spanning out-tree; every outneighbor of r is a root child."""
    tree = grow_tree(d)
    if len(tree.parent) != d.n - 1:
        raise ValueError("digraph is not connected from the root")
    return tree


def euler_intervals(tree):
    """Preorder entry/exit counters of an out-tree, children visited in id
    order: a is a proper ancestor of v exactly when
    tin[a] < tin[v] and tout[v] < tout[a]."""
    children = {}
    for c, p in tree.parent.items():
        children.setdefault(p, []).append(c)
    for p in children:
        children[p].sort()
    tin, tout = {}, {}
    clock = 0
    stack = [(tree.root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            tout[v] = clock
            clock += 1
            continue
        tin[v] = clock
        clock += 1
        stack.append((v, True))
        for c in reversed(children.get(v, ())):
            stack.append((c, False))
    return tin, tout

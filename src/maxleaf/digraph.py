"""Rooted digraphs: construction, normalization, connectivity and tree checks.

A rooted digraph is a loopless digraph with a distinguished root r of
indegree 0.  Normalization additionally deletes every arc that enters an
outneighbor of r from anywhere but r, and merges the root with its unique
outneighbor while the root has outdegree 1 and more than two vertices remain.

Connectivity notions are rooted: a cut is a set S of non-root vertices whose
removal leaves some vertex unreachable from r, and the digraph is 2-connected
when it has no cut of size at most 1.  A cut of size 1 is a cutvertex.

`search` is the one breadth-first search: reachability, `grow_tree`, the
tree check, `stnum.root_path_tree`, the bound trees' `acyclic_many_leaves`,
`large_indegree_witness` and `majbound_tree`'s path search all read it;
only `stnum`'s residual second-path search keeps its own loop.

Local renormalization.  Take a digraph that was normalized and has been
rewritten since.  An illegal arc in it is new, or it enters a new root
outneighbor z, so that (r, z) is new: at the normalization no arc entered
r, and an arc into z from anywhere but r was legal only because z was no
root outneighbor then.  So every illegal arc enters the head of an arc
added since the last normalization; a working graph records those heads,
and `normalize` reads only their in-lists.  A digraph never normalized,
and a frozen one, gets the full walk.

Vertex ids are stable across transformations: derived digraphs keep the ids
of surviving vertices, so trees and reports always speak in the coordinates
of the instance they started from.  `RootedDigraph` is the one graph
class: frozen as built, with ascending tuples as adjacency lists, or
working, where each list is either the tuple it shares with the graph it
was thawed from or a set of its own, taken at the first write to it.
Rewriting algorithms `thaw` their input into one working copy, at the
cost of copying two dicts, rewrite that in place, and `freeze` it in
place once, sorting only the sets, or never when its lists are only read
or rewritten in place, as in `stnum.rr_numbering`.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .errors import InfeasibleError, InternalInvariantError


class RootedDigraph:
    """Rooted digraph over integer vertex ids (not necessarily dense), in
    one of two states.

    Frozen, as built: each vertex's out- and in-list is an ascending tuple,
    traversals read them in that order, and `has_arc` bisects.  The
    constructor puts each arc in its tail's bucket in one pass over the
    arcs, keeping no list of them: the buckets are a list indexed by id
    when the ids are 0..n-1, as `build` gives them, and a dict otherwise.
    It sorts each bucket, which is linear on arcs that come ascending, as
    a graph file and the generators give them; walking the tails in order
    then fills every in-list ascending, without a sort or an arc set.

    Shared id objects: every adjacency entry is its vertex's own key object,
    the int in `vertices`, not the object the arcs carried.  A graph holds
    n int objects instead of one per arc end, and a dict or set lookup of
    an id above 256 (CPython caches only the small ones) finds its key by
    identity, without comparing values.

    Working, as `thaw` returns it: each list is either the ascending tuple
    it shares with the graph it was thawed from, or a set that this graph
    alone owns.  `thaw` shares every tuple and copies every set, so two
    graphs never share a set; the writers turn a tuple into a set at their
    first write to it, so a rewrite never reaches another graph, and
    `freeze` sorts only the sets.  `out_neighbors`, `in_neighbors` and
    `root_out` answer sorted tuples in both states, a shared tuple as it
    is, for the choices that shape an output, and `vertices` is a live
    ascending view, since a working copy keeps its source's order and only
    ever deletes.  A caller that rewrites the lists itself takes them from
    `owned_lists`, which turns every tuple still shared into a set first.

    The constructor rejects a loop or an arc on an unknown vertex with a
    ValueError naming the smallest, draining the arcs after the first.
    `without_arcs`, `without_vertex` and `contracted` rewrite a working
    graph in place, in time linear in the arcs they touch, and return it,
    so code written as `d = step.apply(d)` serves both states; a frozen
    graph gets a rewritten frozen copy, for the cost of copying its two
    dicts and the lists the rewrite touches.

    From its first normalization on, a working graph records the heads of
    the arcs added since the last one, so that `normalize` reads only their
    in-lists (module docstring); the record is None before that.  A frozen
    graph never takes one: a second `normalize` of the same frozen input
    would read only the empty record and miss its illegal arcs.
    """

    __slots__ = ("vertices", "root", "frozen", "_out", "_in", "_new_heads")

    def __init__(self, vertices, root, arcs):
        vs = tuple(sorted(set(vertices)))
        n = len(vs)
        dense = not vs or vs[0] == 0 and vs[-1] == n - 1
        known = range(n) if dense else dict(zip(vs, vs))
        if root not in known:
            raise ValueError(f"root {root} is not a vertex")
        key = vs if dense else known  # an id's own key object
        lo = vs[0]
        # buckets indexed by id: lists when each id is its own position
        out = [[] for _ in vs] if dense else {v: [] for v in vs}
        inn = [[] for _ in vs] if dense else {v: [] for v in vs}
        outs, ins = (out, inn) if dense else (out.values(), inn.values())
        arcs = iter(arcs)
        try:
            for u, v in arcs:
                if u < lo or v < lo:  # a negative id would wrap around in a list
                    raise KeyError(u)
                out[u].append(key[v])
        except (KeyError, IndexError):
            raise _bad_arc(known, zip(vs, outs), [(u, v)], arcs) from None
        for u, ws in zip(vs, outs):  # tails ascending, so every in-list is too
            ws.sort()
            if u in ws:
                raise _bad_arc(known, zip(vs, outs))
            prev = None
            for v in ws:
                if v is not prev:  # each id is one key object
                    inn[v].append(u)
                    prev = v
        if sum(map(len, ins)) != sum(map(len, outs)):  # duplicates, adjacent once sorted
            outs = map(dict.fromkeys, outs)
        self.root = root
        self.vertices = vs
        self._out = dict(zip(vs, map(tuple, outs)))
        self._in = dict(zip(vs, map(tuple, ins)))
        self.frozen = True
        self._new_heads = None

    def thaw(self, ins=None, outs=None):
        """A working copy, which shares this graph's tuples and copies its
        sets, and in which the vertices that `ins` and `outs` map take the
        sets they map them to as in- and out-sets (the caller keeps the two
        consistent)."""
        work = RootedDigraph.__new__(RootedDigraph)
        work.root = self.root
        if self.frozen:  # a frozen graph holds tuples only
            work._out, work._in = self._out.copy(), self._in.copy()
        else:
            work._out, work._in = _shared(self._out), _shared(self._in)
        work._out.update(outs or ())
        work._in.update(ins or ())
        work.vertices = work._out.keys()
        work.frozen = False
        work._new_heads = None
        return work

    def freeze(self):
        """Sort a working graph's own sets into tuples, in place; returns it."""
        if not self.frozen:
            for lists in (self._out, self._in):
                for v, ws in lists.items():
                    if type(ws) is not tuple:
                        lists[v] = tuple(sorted(ws))
            self.vertices = tuple(self._out)
            self.frozen = True
            self._new_heads = None
        return self

    def owned_lists(self):
        """The out- and in-maps of a working graph, every list a set of its
        own, for a caller that rewrites them in place: each tuple it still
        shares becomes a set first."""
        for lists in (self._out, self._in):
            for v, ws in lists.items():
                if type(ws) is tuple:
                    lists[v] = set(ws)
        return self._out, self._in

    def take_new_heads(self):
        """The heads recorded since the last call, None on the first call
        and on a frozen graph; a working graph starts a new, empty record."""
        heads = self._new_heads
        if not self.frozen:
            self._new_heads = set()
        return heads

    # -- basic queries -------------------------------------------------

    @property
    def n(self):
        return len(self._out)

    @property
    def m(self):
        return sum(map(len, self._out.values()))

    def out_neighbors(self, v):
        ws = self._out[v]
        return ws if type(ws) is tuple else tuple(sorted(ws))

    def in_neighbors(self, v):
        ws = self._in[v]
        return ws if type(ws) is tuple else tuple(sorted(ws))

    def outdeg(self, v):
        return len(self._out[v])

    def indeg(self, v):
        return len(self._in[v])

    def has_arc(self, u, v):
        ws = self._out.get(u, ())
        if type(ws) is tuple:
            i = bisect_left(ws, v)
            return i < len(ws) and ws[i] == v
        return v in ws

    def arcs(self):
        return [(u, v) for u in self.vertices for v in self.out_neighbors(u)]

    def arc_set(self):
        return frozenset(self.arcs())

    def root_out(self):
        return self.out_neighbors(self.root)

    def _key(self):
        return self.root, tuple(self.vertices), tuple(self.arcs())

    def __eq__(self, other):
        if not isinstance(other, RootedDigraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"RootedDigraph(n={self.n}, m={self.m}, root={self.root})"

    # -- rewrites: in place on a working graph, a copy of a frozen one -

    def without_arcs(self, arcs):
        """Delete the given arcs that are present."""
        if self.frozen:
            return self.thaw().without_arcs(arcs).freeze()
        for u, v in arcs:
            if self.has_arc(u, v):
                _owned(self._out, u).remove(v)
                _owned(self._in, v).remove(u)
        return self

    def without_vertex(self, v, extra_arcs=()):
        """Delete v with its arcs, then add `extra_arcs`."""
        if self.frozen:
            return self.thaw().without_vertex(v, extra_arcs).freeze()
        if v == self.root:
            raise ValueError("cannot delete the root")
        outs = self._out.pop(v)
        ins = self._in.pop(v)
        for z in outs:
            _owned(self._in, z).remove(v)
        for u in ins:
            _owned(self._out, u).remove(v)
        for u, z in extra_arcs:
            self._add_arc(u, z)
        return self

    def contracted(self, keep, absorb):
        """Merge vertex `absorb` into `keep`, rewriting arcs and dropping loops."""
        if self.frozen:
            return self.thaw().contracted(keep, absorb).freeze()
        if absorb == self.root:
            raise ValueError("cannot absorb the root")
        arcs = [(keep, z) for z in self._out[absorb] if z != keep]
        arcs += [(u, keep) for u in self._in[absorb] if u != keep]
        return self.without_vertex(absorb, arcs)

    def _add_arc(self, u, v):
        if u == v:
            raise ValueError(f"loop arc ({u}, {v})")
        if u not in self._out or v not in self._out:
            raise ValueError(f"arc ({u}, {v}) uses an unknown vertex")
        _owned(self._out, u).add(v)
        _owned(self._in, v).add(u)
        if self._new_heads is not None:
            self._new_heads.add(v)


def _bad_arc(known, held, *rest):
    """The ValueError naming the smallest loop or arc on a vertex outside
    `known` among the arcs bucketed so far (`held`: each tail with its
    heads) and the arcs of `rest`, which drains the caller's iterator."""
    bucketed = ((u, v) for u, ws in held for v in ws)
    u, v = min((u, v) for u, v in chain(bucketed, *rest)
               if u == v or u not in known or v not in known)
    if u == v:
        return ValueError(f"loop arc ({u}, {v})")
    return ValueError(f"arc ({u}, {v}) uses an unknown vertex")


def _shared(lists):
    """A copy of the working adjacency map `lists` that shares its tuples
    and copies its sets."""
    return {v: ws if type(ws) is tuple else set(ws) for v, ws in lists.items()}


def _owned(lists, v):
    """v's list in the working adjacency map `lists`, as a set of its own:
    a shared tuple is replaced by a set on the first write."""
    ws = lists[v]
    if type(ws) is tuple:
        ws = lists[v] = set(ws)
    return ws


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
    A working graph is rewritten in place and returned.

    Deletes arcs into r, deletes arcs into outneighbors of r coming from
    anywhere but r, and merges r with its unique outneighbor while the root
    outdegree is 1 and n > 2.  The maximum leaf number is preserved: a tree
    arc into an outneighbor y of r can always be replaced by (r, y), and the
    merged vertex is internal in every spanning out-tree.  Once the illegal
    arcs are gone the only arc into the merged outneighbor is the root's, so
    the merge is a plain contraction.

    A frozen graph is thawed once, at its first rewrite, and the copy is
    frozen once at the end; the copy shares every list that no rewrite
    touched, and the freeze sorts only the touched ones.  One that needs
    no rewrite comes back as given.
    A working graph normalized before is checked only at the heads of the
    arcs added since (module docstring); any other digraph, a frozen one
    always, gets the full walk of the root's in-list and its outneighbors'
    ones.
    """
    steps = []
    work = d
    while True:
        bad = _illegal_arcs(work, work.take_new_heads())
        if bad:
            step = NormDeleteStep(tuple(bad))
        elif work.n > 2 and work.outdeg(work.root) == 1:
            step = NormMergeStep(work.root_out()[0])
        else:
            break
        if work.frozen:
            work = work.thaw()
        steps.append(step)
        work = step.apply(work)
    return (work.freeze() if d.frozen else work), tuple(steps)


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
    adjacency maps: Semi-NCA (Georgiadis, Tarjan and Werneck, "Finding
    Dominators in Practice", JGAA 10(1), 2006) on flat arrays indexed by
    one depth-first numbering, with skew-binary jump pointers (Myers, "An
    applicative random-access stack", IPL 17(5), 1983) on the dominator
    tree.  The neighbor collections may come in any order, since the
    dominator tree is unique; unreachable in-neighbors are ignored.

    Semidominators come in decreasing number by link/eval: a vertex is
    linked to its depth-first parent once its semidominator is known, so
    the linked vertices are exactly those numbered above the current w,
    and an in-neighbor numbered below w is not linked yet: its eval is
    itself, and its number is the candidate.  Eval compresses the path it
    walks, keeping in `label` the least semidominator on the forest path
    from each vertex up to its pointer; simple path compression costs
    O(m log n) in all.

    Then, in increasing number, idom(w) is the deepest dominator-tree
    ancestor of parent(w) numbered at most semi(w): numbers fall along
    every tree path, so it is the first such vertex on the way up.  Each
    vertex's jump pointer leads 2^j - 1 levels up for some j, in the
    skew-binary pattern, and the walk takes a jump whenever its target is
    still numbered above semi(w), else steps to the parent, so it reaches
    idom(w) in O(log n) steps.  Stepping one dominator at a time instead is
    quadratic on a broom (a long path whose last vertex enters many leaves
    that its first vertex enters too).  The whole pass is O(m log n)."""
    order = [root]  # vertices by depth-first number
    num = {root: 0}
    parent = [0]
    suspended = []  # the out-list iterators of the ancestors of k
    k, it = 0, iter(out_map[root])
    while True:
        for v in it:
            if v not in num:
                num[v] = len(order)
                order.append(v)
                parent.append(k)
                suspended.append(it)
                k, it = num[v], iter(out_map[v])
                break
        else:
            if not suspended:
                break
            k, it = parent[k], suspended.pop()
    size = len(order)
    ancestor = parent[:]  # forest pointers; those of unlinked vertices are unread
    semi = [0] * size
    label = [0] * size
    for w in range(size - 1, 0, -1):
        s = w
        for p in in_map[order[w]]:
            v = num.get(p)
            if v is None:
                continue
            if v > w:
                a = ancestor[v]
                if a > w:
                    chain = []
                    u = v
                    while a > w:
                        chain.append(u)
                        u = a
                        a = ancestor[u]
                    for u in reversed(chain):
                        a = ancestor[u]
                        if label[a] < label[u]:
                            label[u] = label[a]
                        ancestor[u] = ancestor[a]
                v = label[v]
            if v < s:
                s = v
        semi[w] = label[w] = s
    idom = [0] * size
    depth = [0] * size
    jump = [0] * size
    for w in range(1, size):
        x = parent[w]
        s = semi[w]
        while x > s:
            j = jump[x]
            x = j if j > s else idom[x]
        idom[w] = x
        d = depth[x]
        depth[w] = d + 1
        j = jump[x]
        jump[w] = jump[j] if d - depth[j] == depth[j] - depth[jump[j]] else x
    return {v: order[idom[k]] for k, v in enumerate(order)}


def cutvertices(d):
    """All non-root vertices whose removal makes something unreachable,
    ascending.  The dominator pass maps exactly the vertices reachable from
    the root, so this is also rule 0's check: InfeasibleError when one is
    missed."""
    idom = immediate_dominators(d)
    if len(idom) != d.n:
        raise InfeasibleError("some vertex is unreachable from the root")
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
    """No cut of size at most 1: the root reaches every vertex and
    `find_cutvertex` finds none, from its one dominator pass (its
    InfeasibleError means False)."""
    try:
        return find_cutvertex(d) is None
    except InfeasibleError:
        return False


# -- classification ----------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """The nice / special / non-special vertex partition.

    An arc (u, v) is simple when (v, u) is absent.  A vertex is nice when it
    has a simple in-arc, that is an in-neighbor that is no outneighbor, and
    special when it is nice or has indegree >= 3.  The root is never
    classified.
    """

    nice: frozenset
    special: frozenset
    nonspecial: frozenset


def classify(d):
    nice = set()
    special = set()
    for v in d.vertices:
        if v == d.root:
            continue
        if not set(d._in[v]).issubset(d._out[v]):
            nice.add(v)
        if v in nice or d.indeg(v) >= 3:
            special.add(v)
    nonspecial = frozenset(v for v in d.vertices
                           if v != d.root and v not in special)
    return Classification(frozenset(nice), frozenset(special), nonspecial)


# -- outbranchings -----------------------------------------------------


class Outbranching:
    """A spanning out-tree given by a parent map on the non-root vertices."""

    __slots__ = ("root", "parent", "leaf_count")

    def __init__(self, root, parent):
        self.root = root
        self.parent = dict(parent)
        leaves = self.parent.keys() | {root}
        leaves.difference_update(self.parent.values())  # no one's parent
        self.leaf_count = len(leaves)

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
    `internal` is None), so only those can become internal.  Each out-list
    is read ascending, a working graph's through `out_neighbors`, so the
    tree does not depend on the history of its sets.  Callers check that
    the result spans.
    """
    parent = parent or {}
    out = d._out if d.frozen else {v: d.out_neighbors(v) for v in d.vertices}
    found = search(out, sorted({d.root, *parent}), expand=internal)
    del found[d.root]
    found.update(parent)
    return Outbranching(d.root, found)


def bfs_tree(d):
    """Breadth-first spanning out-tree; every outneighbor of r is a root
    child.  InfeasibleError when the root does not reach every vertex."""
    tree = grow_tree(d)
    if len(tree.parent) != d.n - 1:
        raise InfeasibleError("some vertex is unreachable from the root")
    return tree


def euler_intervals(root, parent):
    """Preorder entry/exit counters of the out-tree given by the parent map
    `parent`, each vertex's children visited in the map's order: a is a
    proper ancestor of v exactly when tin[a] < tin[v] and tout[v] < tout[a].
    One walk that keeps only the children iterators of the current path
    and returns to a vertex's parent through the map."""
    children = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    tin, tout = {root: 0}, {}
    clock = 1
    suspended = []  # the children iterators of the ancestors of v
    v, it = root, iter(children.get(root, ()))
    while True:
        for c in it:
            tin[c] = clock
            clock += 1
            suspended.append(it)
            v, it = c, iter(children.get(c, ()))
            break
        else:
            tout[v] = clock
            clock += 1
            if not suspended:
                break
            v, it = parent[v], suspended.pop()
    return tin, tout

"""Root-to-root numberings of 2-connected rooted digraphs.

A numbering is a linear order of the non-root vertices in which every vertex
that is not an outneighbor of r has an in-neighbor on each side.  Splitting
the arcs into the increasing (forward) and decreasing (backward) families,
each together with the out-arcs of r, gives two acyclic connected spanning
subdigraphs that share exactly the out-arcs of r.  Arcs into r belong to
neither family: they constrain no vertex, and since r reaches every vertex
in both families, each would close a cycle.

Construction first deletes in-arcs of high-indegree vertices until every
non-root vertex has indegree at most 2.  Each such vertex keeps the last
arcs of two internally disjoint root paths, found by flow in one network
per digraph; that alone keeps the digraph 2-connected (see
`reduce_indegrees`), so only the result is checked.  It then repeatedly
eliminates the smallest vertex of outdegree 0 (delete) or 1 (contract into
its outneighbor) from a working copy without the arcs into r, and finally
reinserts the eliminated vertices in reverse order, each at the smallest
gap where its own and its outneighbor's side constraints hold (see
`rr_numbering`).

Neither stage rescans the digraph per vertex.  Tree-arc lemma: in a
network without flow, the first augmentation toward x stops on discovering
x's in-node, so its path is x's path in the network's breadth-first tree
T; the second augmentation stops on reaching that in-node and never
expands it, so it cannot cancel the flow on the tree arc into x, which is
therefore one of the two kept arcs.  The reduction deletes only arcs
outside T, and deleting an arc that the search never used to discover a
node leaves T as it is, so one T serves every vertex of a network (see
`RootPathNetwork` and `reduce_indegrees`).  Elimination never raises an
outdegree, so its candidates come from a heap (see `rr_numbering`).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .digraph import RootedDigraph, is_2connected
from .errors import InternalInvariantError


@dataclass(frozen=True)
class RRNumbering:
    order: tuple
    position: dict

    def reversed(self):
        order = tuple(reversed(self.order))
        return RRNumbering(order, {v: i for i, v in enumerate(order)})


@dataclass(frozen=True)
class NumberingSplit:
    forward: RootedDigraph
    backward: RootedDigraph


def validate_numbering(d, order):
    """True when `order` lists the non-root vertices once and every vertex
    that is not an outneighbor of r has in-neighbors on both sides."""
    expected = set(d.vertices) - {d.root}
    if len(order) != len(expected) or set(order) != expected:
        return False
    pos = {v: i for i, v in enumerate(order)}
    root_out = set(d.root_out())
    for x in order:
        if x in root_out:
            continue
        p = pos[x]
        before = any(u != d.root and pos[u] < p for u in d.in_neighbors(x))
        after = any(u != d.root and pos[u] > p for u in d.in_neighbors(x))
        if not (before and after):
            return False
    return True


def split(d, numbering):
    """Forward and backward subdigraphs induced by a valid numbering."""
    if not validate_numbering(d, numbering.order):
        raise ValueError("numbering is not valid for this digraph")
    pos = numbering.position
    fwd, bwd = [], []
    for u, v in d.arc_set():
        if v == d.root:
            continue
        if u == d.root:
            fwd.append((u, v))
            bwd.append((u, v))
        elif pos[u] < pos[v]:
            fwd.append((u, v))
        else:
            bwd.append((u, v))
    return NumberingSplit(RootedDigraph(d.vertices, d.root, fwd),
                          RootedDigraph(d.vertices, d.root, bwd))


# -- indegree reduction -------------------------------------------------


class RootPathNetwork:
    """Node-split unit-capacity flow network of a rooted digraph.

    The i-th vertex becomes an in-node 2i and an out-node 2i + 1 joined by
    edge 2i of capacity 1 (2 for the root); each arc (u, v) becomes an edge
    out(u) -> in(v) of capacity 1.  Edge e's residual twin is e ^ 1, so
    forward edges have even ids.  Every node's edge list is sorted by head
    once, which makes augmenting paths break ties by ascending vertex id.

    `tree()` is the breadth-first tree of the network without flow, from
    the root's out-node, as a map from each reached node to the edge that
    discovered it.  It is built on first use and kept until `delete_arc`
    removes one of its edges (tree-arc lemma, module docstring).
    """

    def __init__(self, d):
        self.root = d.root
        self.vertices = d.vertices
        self.node = {v: 2 * i for i, v in enumerate(d.vertices)}
        self.head = []
        self.cap = []
        self.edges = [[] for _ in range(2 * d.n)]
        for v in d.vertices:
            self._add(self.node[v], self.node[v] + 1, 2 if v == d.root else 1)
        self.arc_edge = {(u, v): self._add(self.node[u] + 1, self.node[v], 1)
                         for u, v in d.arc_set()}
        for edges in self.edges:
            edges.sort()
        self._tree = None

    def _add(self, a, b, capacity):
        e = len(self.head)
        self.head += [b, a]
        self.cap += [capacity, 0]
        self.edges[a].append((b, e))
        self.edges[b].append((a, e + 1))
        return e

    def tree(self):
        if self._tree is None:
            cap, edges = self.cap, self.edges
            s = self.node[self.root] + 1
            via = {s: None}
            queue = deque([s])
            while queue:
                for b, e in edges[queue.popleft()]:
                    if cap[e] and b not in via:
                        via[b] = e
                        queue.append(b)
            self._tree = via
        return self._tree

    def delete_arc(self, u, v):
        e = self.arc_edge[(u, v)]
        self.cap[e] = 0
        if self._tree is not None and self._tree.get(self.node[v]) == e:
            self._tree = None


def _augment(network, via, t, saved):
    """Push one unit along the path to node t recorded in `via`, saving the
    capacities it changes."""
    cap, head = network.cap, network.head
    b = t
    while via[b] is not None:
        e = via[b]
        saved.setdefault(e, cap[e])
        saved.setdefault(e ^ 1, cap[e ^ 1])
        cap[e] -= 1
        cap[e ^ 1] += 1
        b = head[e ^ 1]


def two_disjoint_root_paths(network, target):
    """Two internally vertex-disjoint paths from the root to `target` in a
    `RootPathNetwork`, or None.

    Two breadth-first augmentations on the network's capacities with the
    target's split edge at 2, each stopping when it reaches the target; the
    paths are then walked from the root along the flow, smallest first.
    The first augmentation's path is the target's path in `network.tree()`
    (tree-arc lemma, module docstring), so only the second one searches.
    Only the entries the augmentations touched are saved, and they are
    restored before returning, so the network is left as it was.
    """
    if target == network.root:
        raise ValueError("target must differ from the root")
    cap = network.cap
    edges = network.edges
    s, t = network.node[network.root] + 1, network.node[target]
    tree = network.tree()
    if t not in tree:
        return None
    saved = {t: cap[t]}
    cap[t] = 2  # the split edge of the vertex with in-node t has id t
    try:
        _augment(network, tree, t, saved)
        via = {s: None}
        queue = deque([s])
        while queue and t not in via:
            a = queue.popleft()
            for b, e in edges[a]:
                if cap[e] and b not in via:
                    via[b] = e
                    if b == t:
                        break
                    queue.append(b)
        if t not in via:
            return None
        _augment(network, via, t, saved)

        def flow_heads(a):
            return [b for b, e in edges[a] if not e & 1 and cap[e ^ 1]]

        paths = []
        for b in flow_heads(s):
            path = [network.root]
            while True:
                path.append(network.vertices[b // 2])
                if b == t:
                    break
                (b,) = flow_heads(b + 1)
            paths.append(path)
        return paths
    finally:
        for e, c in saved.items():
            cap[e] = c


def reduce_indegrees(d):
    """Delete in-arcs until every non-root vertex has indegree at most 2.

    For each vertex x of indegree above 2, in ascending order, the two
    in-arcs that end a pair of internally disjoint root paths are kept and
    every other in-arc of x is deleted.  No deletion needs its own check:
    if some z lost every root path avoiding a vertex w, its old path that
    avoided w used a deleted arc (y, x); its suffix from x avoids w, and one
    kept path to x avoids w too, so together they reach z again.  Deleting
    arcs never repairs a cut, so one 2-connectivity check of the result
    guards all deletions.  Returns `d` itself when nothing is deleted.

    One breadth-first tree of the network serves every vertex.  The first
    path of x's pair is x's path in that tree, and the second augmentation
    stops on reaching x's in-node without expanding it, so it never cancels
    the flow on the tree arc into x: that arc is always kept.  Every
    deleted arc thus lies outside the tree, and since the search never used
    it to discover a node, the tree of the network without it is the same.
    """
    if not is_2connected(d):
        raise ValueError("indegree reduction requires a 2-connected digraph")
    network = None
    deleted = []
    for x in d.vertices:
        if x == d.root or d.indeg(x) <= 2:
            continue
        if network is None:
            network = RootPathNetwork(d)
        paths = two_disjoint_root_paths(network, x)
        if paths is None:
            raise InternalInvariantError(f"no disjoint path pair to {x} in a 2-connected digraph")
        keep = {p[-2] for p in paths}
        for y in d.in_neighbors(x):
            if y not in keep:
                network.delete_arc(y, x)
                deleted.append((y, x))
    if not deleted:
        return d
    reduced = d.without_arcs(deleted)
    if not is_2connected(reduced):
        raise InternalInvariantError("indegree reduction broke 2-connectivity")
    return reduced


# -- numbering construction --------------------------------------------


def _working_maps(g):
    """Out-neighbor sets of every vertex and in-neighbor sets of the non-root
    vertices of g, without the arcs into the root."""
    out = {v: set(g.out_neighbors(v)) - {g.root} for v in g.vertices}
    inn = {v: set(g.in_neighbors(v)) for v in g.vertices if v != g.root}
    return out, inn


def _elimination_state(out, inn, r):
    """The heap of elimination candidates (non-root vertices of outdegree
    at most 1) and the number of non-root vertices without a root
    in-arc."""
    candidates = [w for w in inn if len(out[w]) <= 1]
    heapify(candidates)
    return candidates, sum(r not in inn[w] for w in inn)


def _smallest_valid_gap(sigma, v_in, v_exempt, u, u_others, u_exempt):
    """Smallest index of sigma at which inserting v gives v a non-root
    in-neighbor on each side, unless v_exempt, and lands v after u when u is
    not exempt and u's other non-root in-neighbors all lie before it.  When
    they all lie after u, that index is before u (see `rr_numbering`)."""
    lo = 0
    if u is not None and not u_exempt:
        p = sigma.index(u)
        if all(sigma.index(w) < p for w in u_others):
            lo = p + 1
    if v_exempt:
        return lo
    return max(lo, min(sigma.index(w) for w in v_in) + 1)


def rr_numbering(d):
    """A valid root-to-root numbering of a 2-connected rooted digraph.

    Works on `reduce_indegrees(d)` without its arcs into the root r.  Those
    arcs constrain no vertex, and without them a vertex whose only out-arc
    led to r is deleted rather than contracted into r.  Every step keeps the
    working digraph 2-connected: a vertex of outdegree 0 lies on no root
    path to another vertex, and a root path avoiding u never enters a vertex
    v whose only out-arc is (v, u), so contracting v into u keeps it.  In a
    2-connected digraph every non-root vertex is a root outneighbor or has
    two non-root in-neighbors, since a single one would dominate it.

    Progress: while every non-root indegree is at most 2, the outdegrees of
    the k non-root vertices sum to at most 2k - 1, because some root
    outneighbor has at most one other in-neighbor; so some vertex v has
    outdegree at most 1 and is eliminated.  Contracting v into u can raise
    u's indegree above 2, and when no vertex of outdegree at most 1 is left
    the working digraph is reduced again.  The loop stops once every
    remaining vertex is a root outneighbor, which any order numbers.

    Bookkeeping without rescans.  No step raises an outdegree: eliminating
    v takes v out of its in-neighbors' out-sets and puts u into each at
    most once, and a reduction only deletes arcs.  So a vertex of outdegree
    at most 1 stays a candidate until it is eliminated, and a min-heap of
    candidates, pushed when an outdegree falls to 1 and skipping eliminated
    vertices when popped, yields the smallest candidate of every step.  A
    count of the vertices without a root in-arc replaces the scan of the
    loop test; it falls when such a vertex is eliminated or u gains the
    root as an in-neighbor.  A reduction rebuilds the working maps, so the
    heap and the count are rebuilt with them, at a cost below the
    reduction's own.

    Reinsertion runs in reverse.  Let sigma number the working digraph G'
    that v's elimination left, and G the one before it.  A numbering stays
    valid when the arcs a reduction deleted come back, and in G only v and,
    when v was contracted into u, u gain constraints.  v needs a non-root
    in-neighbor on each side unless r is one.  u needs one of its other
    in-neighbors or v on each side unless r is one of the others, so v must
    lie on the far side of u exactly when u's other non-root in-neighbors
    all lie on one side of it.  `_smallest_valid_gap` takes the gap g just
    past v's first in-neighbor, or just past u when the others all lie
    before u and u is later.  It is valid: in G', u's in-neighbors are its
    others and v's, so when the others all lie on one side of u, r or an
    in-neighbor y of v lies on the far side.  If it is r, v is exempt, and g
    is 0 or just past u.  Otherwise v has two non-root in-neighbors; the
    first is before g, and y (when g is just past u) or else the second is
    after it.  g is on the far side of u: past u when the others lie before
    it, and before u when they lie after it, since v's first in-neighbor is
    then no later than y.
    """
    r = d.root
    out, inn = _working_maps(reduce_indegrees(d))
    candidates, unexempt = _elimination_state(out, inn, r)
    records = []
    while unexempt:
        while candidates and candidates[0] not in inn:
            heappop(candidates)
        if not candidates:
            work = RootedDigraph(out, r, [(y, v) for v in inn for y in inn[v]])
            out, inn = _working_maps(reduce_indegrees(work))
            candidates, unexempt = _elimination_state(out, inn, r)
            continue
        v = heappop(candidates)
        v_out, v_in = out.pop(v), inn.pop(v)
        unexempt -= r not in v_in
        for y in v_in:
            out[y].discard(v)
        u, u_others, u_exempt = None, (), False
        if v_out:
            (u,) = v_out
            inn[u].discard(v)
            u_others, u_exempt = inn[u] - {r}, r in inn[u]
            for y in v_in - {u}:
                out[y].add(u)
                inn[u].add(y)
            unexempt -= not u_exempt and r in v_in
        for y in v_in - {r}:
            if len(out[y]) <= 1:
                heappush(candidates, y)
        records.append((v, v_in - {r}, r in v_in, u, u_others, u_exempt))

    sigma = sorted(inn)
    for v, *constraints in reversed(records):
        sigma.insert(_smallest_valid_gap(sigma, *constraints), v)
    if not validate_numbering(d, sigma):
        raise InternalInvariantError("constructed numbering failed validation")
    order = tuple(sigma)
    return RRNumbering(order, {v: i for i, v in enumerate(order)})

"""Root-to-root numberings of 2-connected rooted digraphs.

A numbering is a linear order of the non-root vertices in which every vertex
that is not an outneighbor of r has an in-neighbor on each side.  Splitting
the arcs into the increasing (forward) and decreasing (backward) families,
each together with the out-arcs of r, gives two acyclic connected spanning
subdigraphs that share exactly the out-arcs of r.

Construction first deletes in-arcs of high-indegree vertices until every
non-root vertex has indegree at most 2.  Each such vertex keeps the last
arcs of two internally disjoint root paths, found by flow in one network
per digraph; that alone keeps the digraph 2-connected (see
`reduce_indegrees`), so only the result is checked.  It then repeatedly
eliminates a vertex of outdegree 0 (delete) or 1 (contract into its
outneighbor), and finally reinserts the eliminated vertices into the order,
each placed so that its own and its outneighbor's side constraints hold.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .digraph import RootedDigraph, is_2connected, is_2connected_from_maps
from .errors import InternalInvariantError


@dataclass(frozen=True)
class RRNumbering:
    order: tuple
    position: dict

    def __len__(self):
        return len(self.order)

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

    def _add(self, a, b, capacity):
        e = len(self.head)
        self.head += [b, a]
        self.cap += [capacity, 0]
        self.edges[a].append((b, e))
        self.edges[b].append((a, e + 1))
        return e

    def delete_arc(self, u, v):
        self.cap[self.arc_edge[(u, v)]] = 0


def two_disjoint_root_paths(network, target):
    """Two internally vertex-disjoint paths from the root to `target` in a
    `RootPathNetwork`, or None.

    Two breadth-first augmentations on a copy of the capacities with the
    target's split edge at 2, each stopping when it reaches the target; the
    paths are then walked from the root along the flow, smallest first.
    """
    if target == network.root:
        raise ValueError("target must differ from the root")
    cap = list(network.cap)
    edges, head = network.edges, network.head
    s, t = network.node[network.root] + 1, network.node[target]
    cap[t] = 2  # the split edge of the vertex with in-node t has id t
    for _ in range(2):
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
        b = t
        while via[b] is not None:
            e = via[b]
            cap[e] -= 1
            cap[e ^ 1] += 1
            b = head[e ^ 1]

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


def _trim_indegree(root, out, inn, u):
    for y in sorted(inn[u]):
        if len(inn[u]) <= 2:
            return
        out[y].discard(u)
        inn[u].discard(y)
        if not is_2connected_from_maps(root, out, inn):
            out[y].add(u)
            inn[u].add(y)
    if len(inn[u]) > 2:
        raise InternalInvariantError(f"indegree of contracted vertex {u} stuck above 2")


def _smallest_valid_gap(sigma, in_positions, exempt, side_pivot=None, side_after=None):
    """Smallest insertion index with an in-neighbor on each side (unless
    exempt) and, when side_pivot is given, landing before it iff side_after."""
    for g in range(len(sigma) + 1):
        if side_pivot is not None:
            before_pivot = g <= side_pivot
            if before_pivot != side_after:
                continue
        if not exempt:
            if not any(q < g for q in in_positions):
                continue
            if not any(q >= g for q in in_positions):
                continue
        return g
    raise InternalInvariantError("no valid insertion gap for numbering expansion")


def rr_numbering(d):
    """A valid root-to-root numbering of a 2-connected rooted digraph."""
    if not is_2connected(d):
        raise ValueError("numbering requires a 2-connected digraph")
    r = d.root
    if d.n == 1:
        return RRNumbering((), {})
    base = reduce_indegrees(d)
    verts = set(base.vertices)
    out = {v: set(base.out_neighbors(v)) for v in verts}
    inn = {v: set(base.in_neighbors(v)) for v in verts}
    records = []
    while True:
        nonroot = verts - {r}
        if all(r in inn[v] for v in nonroot):
            sigma = sorted(nonroot)
            break
        v = min(w for w in nonroot if len(out[w]) <= 1)
        exempt = r in inn[v]
        in_nbrs = tuple(sorted(inn[v] - {r}))
        if not out[v]:
            records.append(("remove", v, exempt, in_nbrs))
            for y in inn[v]:
                out[y].discard(v)
            del out[v], inn[v]
            verts.discard(v)
        else:
            (u,) = out[v]
            others = inn[u] - {v}
            if len(others) != 1:
                raise InternalInvariantError(f"outneighbor {u} of {v} lacks a second in-neighbor")
            (w,) = others
            records.append(("expand", v, u, w if w != r else None, exempt, in_nbrs))
            # contract v into u
            for y in inn[v]:
                out[y].discard(v)
                if y != u:
                    out[y].add(u)
                    inn[u].add(y)
            inn[u].discard(v)
            out[u].discard(v)
            del out[v], inn[v]
            verts.discard(v)
            if len(inn[u]) > 2:
                _trim_indegree(r, out, inn, u)

    for rec in reversed(records):
        if rec[0] == "remove":
            _, v, exempt, in_nbrs = rec
            if exempt:
                sigma.insert(0, v)
            else:
                positions = sorted(sigma.index(a) for a in in_nbrs)
                sigma.insert(positions[0] + 1, v)
        else:
            _, v, u, w, exempt, in_nbrs = rec
            p = sigma.index(u)
            in_positions = [sigma.index(a) for a in in_nbrs]
            if w is None:
                g = _smallest_valid_gap(sigma, in_positions, exempt)
            else:
                w_after = sigma.index(w) > p
                g = _smallest_valid_gap(sigma, in_positions, exempt,
                                        side_pivot=p, side_after=w_after)
            sigma.insert(g, v)

    if not validate_numbering(d, sigma):
        raise InternalInvariantError("constructed numbering failed validation")
    order = tuple(sigma)
    return RRNumbering(order, {v: i for i, v in enumerate(order)})

"""Constructive leaf-count lower bounds for 2-connected rooted digraphs.

The pipeline: a greedy vertex cover of size (n+m)/3 gives a small dominating
subset in bipartite degree-2 graphs, which gives a small strongly dominating
set in acyclic rooted digraphs, hence a spanning out-tree whose leaf count
grows with the number of indegree-2 vertices.  Applied to the two acyclic
covers induced by a root-to-root numbering this yields one tree with at
least l3/6 leaves (l3 = vertices of indegree >= 3) and, through transverse
arcs, another with at least l_nice/24 leaves (l_nice = vertices with a
simple in-arc).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .digraph import (Outbranching, RootedDigraph, euler_intervals, grow_tree,
                      is_connected)
from .errors import InternalInvariantError
from .stnum import RRNumbering, in_sides, rr_numbering, side_digraph


# -- covers and domination ----------------------------------------------


def vertex_cover_third(vertices, edges):
    """Greedy vertex cover of a simple undirected graph, size <= (n+m)/3.

    Repeatedly takes the smallest vertex of degree at least 2; once only a
    matching remains, takes one endpoint per edge.  Degrees only fall, so
    that vertex never gets smaller, and one ascending pass that takes every
    vertex still of degree at least 2 when reached makes the same picks in
    O(n log n + m).
    """
    adj = {v: set() for v in vertices}
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if u not in adj or v not in adj:
            raise ValueError(f"edge ({u}, {v}) uses an unknown vertex")
        adj[u].add(v)
        adj[v].add(u)
    cover = set()
    for v in sorted(adj):
        if len(adj[v]) >= 2:
            for w in adj.pop(v):
                adj[w].discard(v)
            cover.add(v)
    for v in sorted(adj):
        if adj[v]:
            (w,) = adj[v]
            adj[w].clear()
            adj[v].clear()
            cover.add(v)
    return cover


def dominate_bipartite(a_side, b_side, edges):
    """Subset of B dominating A, of size at most (|A|+|B|)/3.

    Every a in A must have exactly two neighbors in B.  Built by covering the
    conflict graph on B whose edges join the two neighbors of each a.
    """
    a_nbrs = {a: set() for a in a_side}
    b_set = set(b_side)
    for a, b in edges:
        if a not in a_nbrs:
            raise ValueError(f"edge endpoint {a} is not in the A side")
        if b not in b_set:
            raise ValueError(f"edge endpoint {b} is not in the B side")
        a_nbrs[a].add(b)
    conflicts = set()
    for a, nbrs in a_nbrs.items():
        if len(nbrs) != 2:
            raise ValueError(f"vertex {a} has degree {len(nbrs)}, expected exactly 2")
        b1, b2 = sorted(nbrs)
        conflicts.add((b1, b2))
    return vertex_cover_third(b_set, conflicts)


# -- acyclic many-leaves extraction -------------------------------------


@dataclass(frozen=True)
class DominationScaffold:
    """Intermediate sets of the strongly-dominating-set construction."""

    sink: int
    z: frozenset      # indegree-1 vertices
    y: frozenset      # in-neighbors of z
    a_dominated: frozenset
    a: frozenset      # indegree-2 vertices with no in-neighbor in y
    b: frozenset      # all vertices except y and the sink
    x: frozenset      # subset of b dominating a
    c: frozenset      # x | y, strongly dominating


def topological_order(d):
    """Topological order from the root, or None when the digraph has a cycle."""
    indeg = {v: d.indeg(v) for v in d.vertices}
    queue = deque(v for v in d.vertices if indeg[v] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in d.out_neighbors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return order if len(order) == d.n else None


def trim_to_indegree_two(d):
    """Keep the two smallest-id in-neighbors of every vertex of indegree >= 3."""
    drop = []
    for v in d.vertices:
        if d.indeg(v) > 2:
            for u in d.in_neighbors(v)[2:]:
                drop.append((u, v))
    return d.without_arcs(drop) if drop else d


def domination_scaffold(d):
    """Strongly dominating set construction for an acyclic digraph with all
    indegrees at most 2."""
    sinks = [v for v in d.vertices if d.outdeg(v) == 0]
    if not sinks:
        raise ValueError("acyclic digraph must have a sink")
    sink = sinks[0]
    z = frozenset(v for v in d.vertices if d.indeg(v) == 1)
    y = frozenset(u for v in z for u in d.in_neighbors(v))
    deg2 = [v for v in d.vertices if d.indeg(v) == 2]
    a_dom = frozenset(v for v in deg2 if any(u in y for u in d.in_neighbors(v)))
    a = frozenset(v for v in deg2 if v not in a_dom)
    b = frozenset(v for v in d.vertices if v not in y and v != sink)
    edges = [(v, u) for v in a for u in d.in_neighbors(v)]
    x = frozenset(dominate_bipartite(a, b, edges))
    c = frozenset(x | y | {d.root})
    return DominationScaffold(sink, z, y, a_dom, a, b, x, c)


def acyclic_many_leaves(d):
    """Out-tree of an acyclic connected rooted digraph with at least
    (l + d(r) - 1)/3 + 1 leaves, where l counts the indegree->=2 vertices."""
    if topological_order(d) is None:
        raise ValueError("digraph has a directed cycle")
    if not is_connected(d):
        raise ValueError("digraph is not connected from the root")
    trimmed = trim_to_indegree_two(d)
    tree = grow_tree(trimmed, internal=domination_scaffold(trimmed).c)
    if len(tree.parent) != d.n - 1:
        raise InternalInvariantError("dominating set did not span the digraph")
    return tree


# -- first tree bound ---------------------------------------------------


def bound1_tree(d, numbering=None, sides=None):
    """Out-tree with at least l/6 leaves, l = number of indegree->=3 vertices.

    Takes the numbering-induced acyclic cover with more indegree-2 vertices,
    ties to the forward one, and extracts a many-leaves tree from it.  The
    side's ascending in-lists are cut to their first two before its one
    build, as `trim_to_indegree_two` would cut them.  `sides`, when given,
    is `in_sides(d, numbering)`.
    """
    fwd, bwd = sides or in_sides(d, numbering or rr_numbering(d))

    def joins(side):
        return sum(len(ins) >= 2 for ins in side.values())

    side = bwd if joins(bwd) > joins(fwd) else fwd
    return acyclic_many_leaves(side_digraph(d, {v: ins[:2] for v, ins in side.items()}))


# -- transverse arcs and the second tree bound --------------------------


@dataclass(frozen=True)
class TransverseDecomposition:
    """Forward/backward spanning trees of the numbered digraph, their
    transverse arcs, and the left/right split of the chosen tree's arcs.

    Every non-root vertex that is not a root outneighbor takes one parent
    from each side of `stnum.in_sides`, its smallest in-neighbor there;
    a nice vertex instead takes its smallest simple in-neighbor on that
    in-neighbor's side.  Root outneighbors take the root in both trees.
    """

    numbering: RRNumbering
    t_f: Outbranching
    t_b: Outbranching
    transverse_f: frozenset
    transverse_b: frozenset
    chosen: str           # "forward" or "backward"
    s_left: frozenset
    s_right: frozenset
    union: RootedDigraph  # opposite tree plus the larger transverse side


def transverse_decomposition(d, numbering=None, sides=None):
    num = numbering or rr_numbering(d)
    r, pos = d.root, num.position
    fwd, bwd = sides or in_sides(d, num)
    parent_f, parent_b = {}, {}
    for v in fwd:
        if d.has_arc(r, v):
            parent_f[v] = parent_b[v] = r
            continue
        parent_f[v], parent_b[v] = fwd[v][0], bwd[v][0]
        anchor = next((u for u in d.in_neighbors(v) if not d.has_arc(v, u)), None)
        if anchor is not None:
            (parent_f if pos[anchor] < pos[v] else parent_b)[v] = anchor
    t_f = Outbranching(r, parent_f)
    t_b = Outbranching(r, parent_b)

    tin_f, tout_f = euler_intervals(t_f)
    tin_b, tout_b = euler_intervals(t_b)

    def incomparable(u, v, tin, tout):
        return tout[v] < tin[u] or tout[u] < tin[v]

    transverse_f = frozenset((u, v) for v, u in parent_f.items()
                             if u != r and incomparable(u, v, tin_b, tout_b))
    transverse_b = frozenset((u, v) for v, u in parent_b.items()
                             if u != r and incomparable(u, v, tin_f, tout_f))

    if len(transverse_f) >= len(transverse_b):
        chosen, trans, t_opp, tin, tout = "forward", transverse_f, t_b, tin_b, tout_b
    else:
        chosen, trans, t_opp, tin, tout = "backward", transverse_b, t_f, tin_f, tout_f

    s_left = frozenset((u, v) for u, v in trans if tout[v] < tin[u])
    s_right = frozenset((u, v) for u, v in trans if tout[u] < tin[v])
    side = s_left if len(s_left) >= len(s_right) else s_right
    union_arcs = list(side) + [(p, c) for c, p in t_opp.parent.items()]
    union = RootedDigraph(d.vertices, r, union_arcs)
    return TransverseDecomposition(num, t_f, t_b, transverse_f, transverse_b,
                                   chosen, s_left, s_right, union)


def bound2_tree(d, numbering=None, sides=None):
    """Out-tree with at least l/24 leaves, l = number of nice vertices; the
    union it grows from is acyclic (`acyclic_many_leaves` checks)."""
    return acyclic_many_leaves(transverse_decomposition(d, numbering, sides).union)


def numbering_bound_tree(d):
    """The better of bound1_tree and bound2_tree, ties to bound1, both built
    on one shared numbering of the 2-connected digraph d and its one side
    split."""
    num = rr_numbering(d)
    sides = in_sides(d, num)
    t1 = bound1_tree(d, num, sides)
    t2 = bound2_tree(d, num, sides)
    return t1 if t1.leaf_count >= t2.leaf_count else t2

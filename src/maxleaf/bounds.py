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

from .digraph import Outbranching, euler_intervals, search
from .errors import InternalInvariantError
from .stnum import rr_numbering


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


def _kahn(out, ins, sources):
    """Kahn's order from `sources` over the out-lists `out`: a vertex joins
    once all of its in-neighbors in the in-lists `ins` have."""
    left = {v: len(us) for v, us in ins.items()}
    order = list(sources)
    for u in order:
        for v in out[u]:
            left[v] -= 1
            if not left[v]:
                order.append(v)
    return order


def _out_lists(ins):
    """The out-lists of the in-lists `ins`, ascending when its keys are."""
    out = {v: [] for v in ins}
    for v, us in ins.items():
        for u in us:
            out[u].append(v)
    return out


def acyclic_many_leaves(root, ins):
    """Out-tree of an acyclic rooted digraph connected from the root with at
    least (l + d(r) - 1)/3 + 1 leaves, where l counts the indegree->=2
    vertices.  The digraph is given as in-lists: `ins` maps every vertex,
    the root too, in ascending order, to its ascending in-neighbors.

    One Kahn pass from the root alone checks both preconditions: a vertex
    joins the order only after all of its in-neighbors have, so the pass
    orders every vertex exactly when r has no in-arc and the digraph is
    acyclic and connected from r.  Only after a failure does a second pass,
    from every vertex without in-arcs, tell a cycle (reported first) from a
    vertex that r does not reach.  Each in-list is then cut to its first
    two.  On the cut digraph, y holds the in-neighbors of the indegree-1
    vertices, a the indegree-2 vertices with no in-neighbor in y, and a
    subset x of the vertices outside y but the first sink dominates a; so
    c = x | y | {r} strongly dominates, and the tree is the breadth-first
    tree of the cut out-lists that expands only c.  The out-lists come out
    ascending, as a `RootedDigraph`'s are.
    """
    out = _out_lists(ins)
    n = len(ins)
    if ins[root] or len(_kahn(out, ins, [root])) != n:
        if len(_kahn(out, ins, [v for v, us in ins.items() if not us])) != n:
            raise ValueError("digraph has a directed cycle")
        raise ValueError("digraph is not connected from the root")
    if any(len(us) > 2 for us in ins.values()):
        ins = {v: us[:2] for v, us in ins.items()}
        out = _out_lists(ins)
    sink = next(v for v, ws in out.items() if not ws)
    y = {us[0] for us in ins.values() if len(us) == 1}
    a = [v for v, us in ins.items() if len(us) == 2 and y.isdisjoint(us)]
    b = [v for v in ins if v not in y and v != sink]
    x = dominate_bipartite(a, b, [(v, u) for v in a for u in ins[v]])
    found = search(out, [root], expand=x | y | {root})
    del found[root]
    if len(found) != n - 1:
        raise InternalInvariantError("dominating set did not span the digraph")
    return Outbranching(root, found)


# -- first tree bound ---------------------------------------------------


def bound1_tree(d, sides):
    """Out-tree with at least l/6 leaves, l = number of indegree->=3 vertices.

    Takes the numbering-induced acyclic cover with more indegree-2 vertices,
    ties to the forward one, and extracts a many-leaves tree from its
    in-lists, each cut to its first two.  `sides` is a numbering's
    `in_sides` split, `RRNumbering.sides`.
    """
    fwd, bwd = sides

    def joins(side):
        return sum(len(ins) >= 2 for ins in side.values())

    side = bwd if joins(bwd) > joins(fwd) else fwd
    return acyclic_many_leaves(d.root, {v: side.get(v, ())[:2] for v in d.vertices})


# -- transverse arcs and the second tree bound --------------------------


def bound2_tree(d, sides):
    """Out-tree with at least l/24 leaves, l = number of nice vertices.

    Every non-root vertex that is not a root outneighbor takes one parent
    from each side of the `in_sides` split `sides`, its smallest in-neighbor
    there, giving a forward and a backward spanning tree; a nice vertex
    instead takes its smallest simple in-neighbor (never r, since r's
    outneighbors take r) on the side whose in-list holds it.  Root
    outneighbors take r in both trees.  An arc of one tree is transverse
    when its ends are incomparable in the other.  The tree with more
    transverse arcs is chosen, ties to forward; its transverse arcs that
    point left (head's subtree before the tail in the other tree's
    preorder) or right, whichever are more, ties to left, are added to the
    other tree, and the tree grows from that union, which is acyclic
    (`acyclic_many_leaves` checks).  Each vertex has its parent in the
    other tree and at most one transverse in-arc, so the union's in-lists
    are read straight from the two parent maps.
    """
    r = d.root
    fwd, bwd = sides
    parent_f, parent_b = {}, {}
    for v in fwd:
        if d.has_arc(r, v):
            parent_f[v] = parent_b[v] = r
            continue
        parent_f[v], parent_b[v] = fwd[v][0], bwd[v][0]
        anchor = next((u for u in d.in_neighbors(v) if not d.has_arc(v, u)), None)
        if anchor is not None:
            (parent_f if anchor in fwd[v] else parent_b)[v] = anchor
    tin_f, tout_f = euler_intervals(r, parent_f)
    tin_b, tout_b = euler_intervals(r, parent_b)

    def transverse(parent, tin, tout):
        return [(u, v) for v, u in parent.items()
                if u != r and (tout[v] < tin[u] or tout[u] < tin[v])]

    trans_f = transverse(parent_f, tin_b, tout_b)
    trans_b = transverse(parent_b, tin_f, tout_f)
    if len(trans_f) >= len(trans_b):
        trans, parent, tin, tout = trans_f, parent_b, tin_b, tout_b
    else:
        trans, parent, tin, tout = trans_b, parent_f, tin_f, tout_f
    left = {v: u for u, v in trans if tout[v] < tin[u]}
    right = {v: u for u, v in trans if tout[u] < tin[v]}
    tail = left if len(left) >= len(right) else right
    ins = dict.fromkeys(d.vertices, ())
    for v, p in parent.items():
        ins[v] = sorted((p, tail[v])) if v in tail else (p,)
    return acyclic_many_leaves(r, ins)


def numbering_bound_trees(d):
    """(bound1_tree, bound2_tree) of the 2-connected digraph d, both built
    on the `in_sides` split that its one numbering carries."""
    sides = rr_numbering(d).sides
    return bound1_tree(d, sides), bound2_tree(d, sides)

"""Constant-factor approximation for rooted maximum leaf outbranchings.

After exhausting the cutvertex rule the digraph is 2-connected and splits
into l special vertices (indegree >= 3 or a simple in-arc) and chains of
non-special vertices (h of them).  Three candidate trees are built: the two
numbering-based bounds (together worth l/30 leaves) and a tree that connects
the special vertices through as few chains as possible, leaving each unused
chain a pendant leaf (worth h - l leaves).  Since no spanning out-tree can
have more than l + 2h leaves, the best candidate is within factor 92 of the
optimum.  Kernelizing instead gives a sqrt(m/90) guarantee on the reduced
size m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .digraph import Outbranching, RootedDigraph, bfs_tree, classify, search
from .errors import InfeasibleError, InternalInvariantError
from .bounds import numbering_bound_trees
from .reduce import (ReductionTrace, kernel_numbering_tree, kernelize,
                     large_indegree_witness, renormalize,
                     strip_cutvertices, verified_lift)


@dataclass(frozen=True)
class WeakBipath:
    """Maximal chain of non-special vertices with its special anchors."""

    vertices: tuple   # chain order, smaller end id first
    anchors: tuple    # special in-neighbor of each end


def weak_bipaths(d, cls):
    """Partition of the non-special vertices of `cls = classify(d)` into
    maximal chains.

    Every non-special vertex has exactly two in-neighbors, both joined to it
    by 2-circuits (both in its own out-list); anything else signals a
    classification bug.  Its non-special in-neighbors are its chain
    partners, a symmetric relation of degree at most 2, and the others its
    anchors.  Each chain is walked from its smaller end, the first one met
    in ascending order, so it comes out smaller end first.
    """
    ns = cls.nonspecial
    order = sorted(ns)
    partners = {}
    anchor_of = {}  # an end's one anchor; a lone vertex's two
    for v in order:
        nbrs = d.in_neighbors(v)
        outs = d._out[v]
        if len(nbrs) != 2 or nbrs[0] not in outs or nbrs[1] not in outs:
            raise InternalInvariantError(
                f"non-special vertex {v} lacks the two-2-circuit in-neighbor shape")
        a, b = nbrs
        if a in ns:
            if b in ns:
                partners[v] = nbrs
            else:
                partners[v], anchor_of[v] = (a,), b
        elif b in ns:
            partners[v], anchor_of[v] = (b,), a
        else:
            partners[v], anchor_of[v] = (), nbrs
    paths = []
    far_ends = set()
    covered = 0
    for v in order:
        step = partners[v]
        if len(step) == 2 or v in far_ends:
            continue
        chain = [v]
        if step:
            prev, cur = v, step[0]
            while True:
                chain.append(cur)
                step = partners[cur]
                if len(step) == 1:
                    break
                a, b = step
                prev, cur = cur, (b if a == prev else a)
            far_ends.add(cur)
            anchors = (anchor_of[v], anchor_of[cur])
        else:
            anchors = anchor_of[v]
        for a in anchors:
            if a not in cls.special:
                raise InternalInvariantError(f"chain anchor {a} is not special")
        paths.append(WeakBipath(tuple(chain), anchors))
        covered += len(chain)
    if covered != len(ns):
        raise InternalInvariantError("non-special vertices contain a 2-circuit cycle")
    return paths


def _path_to_pending(d, reached, pending, nonspecial):
    """Breadth-first search from the reached vertices, expanded in
    ascending order and walking only through non-special vertices; returns
    the first pending special it discovers and its `search` map, from each
    discovered vertex to the vertex it was discovered from."""
    prev = search(d._out, sorted(reached), expand=nonspecial)
    target = next((b for b in prev if b in pending), None)
    if target is None:
        raise InternalInvariantError("unreached special vertex in a connected digraph")
    return target, prev


def majbound_tree(d, cls, paths):
    """Out-tree with at least h - l leaves (h chains, l special vertices),
    given `cls = classify(d)` and its chains `paths = weak_bipaths(d, cls)`.

    Specials are connected greedily: a step that walks through a chain pays
    one chain and gains one special, and the root's outneighbors come free,
    so at most l - 2 chains are consumed; every untouched chain hangs as a
    pendant path contributing a leaf.

    Each step takes the pending special that `_path_to_pending`'s search
    meets first.  The search expands the reached vertices, ascending,
    before anything it discovers, so when some arc (a, b) leads from a
    reached a to a pending b, it meets the least such pair, ordered by a
    and then b, at its first level.  A heap frontier holds the reached
    tails with a pointer each into their ascending out-lists, pushed when
    a tail is reached and has a pending head.  Pending only shrinks, so a
    pointer only advances past heads that are no longer pending, and the
    least tail whose pointer stops at a head gives that pair; a tail leaves
    the heap once its pointer runs off its list.  The search runs only
    when no pending special is one arc away.
    """
    if d.n <= 2:
        return bfs_tree(d)
    nonspecial = cls.nonspecial

    parent = {}
    reached = set()
    pending = set(cls.special)
    frontier = []  # [tail, index of its next head that may be pending, heads]

    def reach(w):
        reached.add(w)
        heads = d.out_neighbors(w)
        if not pending.isdisjoint(heads):
            heappush(frontier, [w, 0, heads])

    reach(d.root)
    while pending:
        target = None
        while frontier:
            top = frontier[0]
            a, i, heads = top
            end = len(heads)
            while i < end and heads[i] not in pending:
                i += 1
            if i < end:
                top[1] = i
                target = heads[i]
                prev = {target: a}
                break
            heappop(frontier)
        if target is None:
            target, prev = _path_to_pending(d, reached, pending, nonspecial)
        pending.discard(target)
        v = target
        chain = []
        while v not in reached:
            chain.append(v)
            v = prev[v]
        for w in reversed(chain):
            parent[w] = prev[w]
            reach(w)

    for p in paths:
        verts = p.vertices
        for i, v in enumerate(verts):
            if v in reached:
                continue
            if i > 0 and verts[i - 1] in reached:
                parent[v] = verts[i - 1]
            elif i == 0:
                parent[v] = p.anchors[0]
            else:
                raise InternalInvariantError(f"chain vertex {v} has no attachment point")
            reached.add(v)
    if len(reached) != d.n:
        raise InternalInvariantError("tree construction failed to span the digraph")
    return Outbranching(d.root, parent)


@dataclass(frozen=True)
class ApproxReport:
    """Counts, candidate trees and certified bounds on the 2-connected core."""

    l: int
    h: int
    leaves_bound1: int
    leaves_bound2: int
    leaves_majbound: int
    chosen: str
    lower: Fraction
    upper: int
    trees: dict

    def format(self):
        lower = str(self.lower)
        return "\n".join([
            f"l={self.l}",
            f"h={self.h}",
            f"leaves_bound1={self.leaves_bound1}",
            f"leaves_bound2={self.leaves_bound2}",
            f"leaves_majbound={self.leaves_majbound}",
            f"chosen={self.chosen}",
            f"lower={lower}",
            f"upper={self.upper}",
        ]) + "\n"


def approximate(d0):
    """Factor-92 approximation; returns (tree on the input digraph, report).
    The strip's dominator pass raises InfeasibleError when d0 is not
    connected from the root.  The strip does not check that its core is
    2-connected: numbering the core does, once (`stnum.reduce_indegrees`),
    and since the strip promised that core, a ValueError from the
    numbering is an InternalInvariantError."""
    steps = []
    work = strip_cutvertices(renormalize(d0.thaw(), steps), steps)
    core = work.freeze() if steps else d0
    trace = ReductionTrace(tuple(steps))
    try:
        t1, t2 = numbering_bound_trees(core)
    except ValueError as exc:
        raise InternalInvariantError(f"numbering the stripped core failed: {exc}") from exc
    cls = classify(core)
    paths = weak_bipaths(core, cls)
    l, h = len(cls.special), len(paths)
    t3 = majbound_tree(core, cls, paths)
    trees = {"bound1": t1, "bound2": t2, "majbound": t3}
    chosen = max(trees, key=lambda k: trees[k].leaf_count)  # earliest wins ties
    lower = max(Fraction(l, 30), Fraction(h - l))
    upper = max(l + 2 * h, 1)  # a one-vertex core has l = h = 0 and one leaf
    best = trees[chosen]
    if Fraction(best.leaf_count) < lower:
        raise InternalInvariantError(
            f"candidate trees reached {best.leaf_count} leaves, below the certified {lower}")
    lifted = verified_lift(d0, best, trace)
    report = ApproxReport(l, h, t1.leaf_count, t2.leaf_count, t3.leaf_count,
                          chosen, lower, upper, trees)
    return lifted, report


def approximate_each_root(d):
    """Run the approximation with every vertex as root; yields (root, tree,
    report) for each root that reaches every vertex, skipping those whose
    strip raises InfeasibleError."""
    arcs = d.arcs()
    for v in d.vertices:
        try:
            tree, report = approximate(RootedDigraph(d.vertices, v, arcs))
        except InfeasibleError:
            continue
        yield v, tree, report


def sqrt_opt_tree(d0):
    """Kernelize, certify the best witness the kernel machinery offers, lift.

    The lifted tree has at least floor(sqrt(m/90)) leaves where m is the
    vertex count of the reduced digraph.  `kernelize` raises
    InfeasibleError when d0 is not connected from the root.
    """
    reduced, trace = kernelize(d0)
    candidates = []
    best_x = max((v for v in reduced.vertices if v != reduced.root),
                 key=lambda v: (reduced.indeg(v), -v), default=None)
    if best_x is not None and reduced.indeg(best_x) >= 1:
        candidates.append(large_indegree_witness(reduced, best_x))
    candidates.append(bfs_tree(reduced))
    if reduced.n >= 3:
        candidates.append(kernel_numbering_tree(reduced))
    best = max(candidates, key=lambda t: t.leaf_count)
    floor_bound = math.isqrt(reduced.n // 90)
    if best.leaf_count < floor_bound:
        raise InternalInvariantError(
            f"kernel witness has {best.leaf_count} leaves, below sqrt({reduced.n}/90)")
    return verified_lift(d0, best, trace)

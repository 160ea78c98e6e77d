"""Exhaustive maximum-leaf oracle for desk-scale verification.

A spanning out-tree with k leaves exists exactly when there is a set I
containing r with n - k vertices such that every other vertex has an
in-neighbor in I and the subgraph induced on I is connected from r (the
internal vertices of an out-tree form such a set, and from such a set a tree
whose internal vertices all lie in I can be grown).  Call such a set valid.
The oracle tries the sets I - {r} by increasing size, each size in
lexicographic order, with bitmask arithmetic; the first valid one gives the
maximum and the witness.  Three lemmas shrink the search but keep that set:

A. The only in-neighbor u != r of a non-root vertex of indegree 1 lies in
   every valid set, which must cover that vertex: u is forced.
B. A vertex x with no out-arc to a non-root vertex lies in no smallest
   valid set: I - {x} still covers every non-root vertex (x covered none,
   and has an in-neighbor other than itself in I), and no path from r
   inside I passes through x.
C. Two k-subsets compare lexicographically by the smallest element of their
   symmetric difference, which adding a set disjoint from both leaves as it
   is.  So the forced vertices joined to the subsets of the vertices left
   by A and B come in the old order, and the first valid set is the same.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .digraph import Outbranching, grow_tree, is_connected
from .errors import InfeasibleError, InternalInvariantError, PreconditionError

DEFAULT_LIMIT = 20


@dataclass(frozen=True)
class ExactResult:
    maxleaf: int
    witness: Outbranching
    explored: int


def maxleaf_exact(d, limit=DEFAULT_LIMIT):
    """Exact maximum leaf count plus an optimal witness tree.

    Raises InfeasibleError when some vertex is unreachable from the root,
    and otherwise PreconditionError above `limit` vertices.
    """
    if not is_connected(d):
        raise InfeasibleError("some vertex is unreachable from the root")
    if d.n > limit:
        raise PreconditionError(
            f"instance has {d.n} vertices, above the exact-search limit {limit}")
    if d.n == 1:
        return ExactResult(1, Outbranching(d.root, {}), 0)

    verts = list(d.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    bit = [1 << i for i in range(len(verts))]
    out_lists = {i: [idx[w] for w in d.out_neighbors(verts[i])] for i in range(len(verts))}
    out_mask = [0] * len(verts)
    for i, ws in out_lists.items():
        for j in ws:
            out_mask[i] |= bit[j]
    root_i = idx[d.root]
    nonroot_mask = (1 << len(verts)) - 1 - bit[root_i]
    forced = sorted({idx[d.in_neighbors(v)[0]] for v in verts
                     if v != d.root and d.indeg(v) == 1} - {root_i})
    free = [i for i in range(len(verts)) if i != root_i and i not in forced
            and out_mask[i] & nonroot_mask]
    base_cover = out_mask[root_i]
    base_imask = bit[root_i]
    for i in forced:
        base_cover |= out_mask[i]
        base_imask |= bit[i]

    explored = 0
    for extra in range(len(free) + 1):
        for comb in combinations(free, extra):
            explored += 1
            cover = base_cover
            for i in comb:
                cover |= out_mask[i]
            if cover & nonroot_mask != nonroot_mask:
                continue
            imask = base_imask
            for i in comb:
                imask |= bit[i]
            # connectivity of the induced subgraph on I, from the root
            reached = bit[root_i]
            stack = [root_i]
            while stack:
                u = stack.pop()
                for w in out_lists[u]:
                    b = bit[w]
                    if (imask & b) and not (reached & b):
                        reached |= b
                        stack.append(w)
            if reached != imask:
                continue
            witness = grow_tree(d, internal={verts[i] for i in (*forced, *comb)})
            maxleaf = d.n - 1 - len(forced) - extra
            if witness.leaf_count != maxleaf:
                raise InternalInvariantError("optimal internal set produced a suboptimal tree")
            return ExactResult(maxleaf, witness, explored)
    raise InternalInvariantError("no internal set found on a connected instance")

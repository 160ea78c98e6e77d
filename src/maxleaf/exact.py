"""Exhaustive maximum-leaf oracle for desk-scale verification.

A spanning out-tree with k leaves exists exactly when there is a set I
containing r with n - k vertices such that every other vertex has an
in-neighbor in I and the subgraph induced on I is connected from r (the
internal vertices of an out-tree form such a set, and from such a set a tree
whose internal vertices all lie in I can be grown).  The oracle enumerates
candidate internal sets in increasing size with bitmask arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .digraph import Outbranching, grow_tree, is_connected
from .errors import PreconditionError

DEFAULT_LIMIT = 20


@dataclass(frozen=True)
class ExactResult:
    maxleaf: int
    witness: Outbranching
    explored: int


def maxleaf_exact(d, limit=DEFAULT_LIMIT):
    """Exact maximum leaf count plus an optimal witness tree.

    Rejects instances above `limit` vertices or not connected from the root.
    """
    if d.n > limit:
        raise PreconditionError(
            f"instance has {d.n} vertices, above the exact-search limit {limit}")
    if not is_connected(d):
        raise ValueError("instance is not connected from the root")
    if d.n == 1:
        return ExactResult(1, Outbranching(d.root, {}), 0)

    verts = list(d.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    bit = [1 << i for i in range(len(verts))]
    out_mask = [0] * len(verts)
    for u, v in d.arc_set():
        out_mask[idx[u]] |= bit[idx[v]]
    root_i = idx[d.root]
    nonroot = [i for i in range(len(verts)) if i != root_i]
    nonroot_mask = 0
    for i in nonroot:
        nonroot_mask |= bit[i]
    out_lists = {i: [idx[w] for w in d.out_neighbors(verts[i])] for i in range(len(verts))}

    explored = 0
    for size in range(len(nonroot) + 1):
        for comb in combinations(nonroot, size):
            explored += 1
            cover = out_mask[root_i]
            for i in comb:
                cover |= out_mask[i]
            if cover & nonroot_mask != nonroot_mask:
                continue
            imask = bit[root_i]
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
            witness = grow_tree(d, internal={verts[i] for i in comb})
            maxleaf = d.n - 1 - size
            if witness.leaf_count != maxleaf:
                raise AssertionError("optimal internal set produced a suboptimal tree")
            return ExactResult(maxleaf, witness, explored)
    raise AssertionError("no internal set found on a connected instance")

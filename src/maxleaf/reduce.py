"""Reduction rules, kernelization, the quadratic kernel decision and lifting.

Rule 1 deletes a cutvertex x and shortcuts every in-neighbor to every
outneighbor; rule 2 contracts the middle pair of a bipath of length 4;
rule 3 deletes an arc (y, x) whenever the other in-neighbors of x cut y from
the root.  Each rule preserves the maximum leaf number, and a spanning
out-tree of the rewritten digraph can be lifted back without losing leaves.

The kernelizer applies rule 1 to exhaustion, then rule 3 to exhaustion, then
one rule 2 contraction, re-normalizing after every rewrite, and loops until
nothing applies.  An untouched input is returned exactly as given.

Every rewrite is logged as a step that can both replay forward on a digraph
and lift a tree backward, so vertex ids stay in input coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .digraph import (Outbranching, RootedDigraph, bfs_tree, cutvertices,
                      find_cutvertex, grow_tree, is_connected, normalize,
                      reachable, verify_outbranching)
from .errors import InfeasibleError, InternalInvariantError, PreconditionError
from .bounds import numbering_bound_tree

# -- trace steps ---------------------------------------------------------


@dataclass(frozen=True)
class NormDeleteStep:
    arcs: tuple

    def apply(self, d):
        return d.without_arcs(self.arcs)

    def lift(self, tree):
        return tree

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

    def lift(self, tree):
        root = tree.root
        parent = {c: (self.absorbed if p == root else p) for c, p in tree.parent.items()}
        parent[self.absorbed] = root
        return Outbranching(root, parent)

    def __str__(self):
        return f"norm-merge {self.absorbed}"


@dataclass(frozen=True)
class Rule1Step:
    x: int
    in_nbrs: tuple
    out_nbrs: tuple
    shortcuts: tuple

    def apply(self, d):
        return d.without_vertex(self.x, extra_arcs=self.shortcuts)

    def lift(self, tree):
        children = {}
        for c, p in tree.parent.items():
            children.setdefault(p, []).append(c)
        non_leaves = [y for y in self.in_nbrs if children.get(y)]
        if not non_leaves:
            raise InternalInvariantError(
                f"no non-leaf in-neighbor of {self.x} to re-attach it to")

        def ancestors(v):
            anc = set()
            while v in tree.parent:
                v = tree.parent[v]
                anc.add(v)
            return anc

        blockers = set(non_leaves)
        minimal = [y for y in non_leaves if not (ancestors(y) & blockers)]
        y_i = min(minimal)
        parent = dict(tree.parent)
        out_set = set(self.out_nbrs)
        for y in non_leaves:
            for z in children[y]:
                if z in out_set:
                    parent[z] = self.x
        parent[self.x] = y_i
        return Outbranching(tree.root, parent)

    def __str__(self):
        adds = " ".join(f"{u}>{v}" for u, v in self.shortcuts)
        return f"rule1 x={self.x} add {adds}"


@dataclass(frozen=True)
class Rule2Step:
    u: int
    x: int
    y: int
    z: int
    t: int

    def apply(self, d):
        return d.contracted(self.x, self.y)

    def lift(self, tree):
        parent = dict(tree.parent)
        p = parent.get(self.x)
        if p == self.z:
            parent[self.y] = self.z
            parent[self.x] = self.y
        elif p == self.u:
            parent[self.y] = self.x
            if parent.get(self.z) == self.x:
                parent[self.z] = self.y
        else:
            raise InternalInvariantError(
                f"merged vertex {self.x} has parent {p}, expected {self.u} or {self.z}")
        return Outbranching(tree.root, parent)

    def __str__(self):
        return f"rule2 contract {self.x}+{self.y} in ({self.u},{self.x},{self.y},{self.z},{self.t})"


@dataclass(frozen=True)
class Rule3Step:
    y: int
    x: int

    def apply(self, d):
        return d.without_arcs([(self.y, self.x)])

    def lift(self, tree):
        return tree

    def __str__(self):
        return f"rule3 del {self.y}>{self.x}"


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple

    def replay(self, d):
        for step in self.steps:
            d = step.apply(d)
        return d

    def to_text(self):
        return "\n".join(str(s) for s in self.steps) + ("\n" if self.steps else "")

    def __len__(self):
        return len(self.steps)


def lift(tree, trace):
    """Lift an out-tree of the reduced digraph back through the trace."""
    for step in reversed(trace.steps):
        tree = step.lift(tree)
    return tree


# -- the rules -----------------------------------------------------------


def rule0(d):
    """True when every vertex is reachable from the root."""
    return is_connected(d)


def apply_rule1(d, x):
    """Delete cutvertex x, adding (v, z) for every v in N-(x), z in N+(x)-v."""
    if x not in cutvertices(d):
        raise ValueError(f"vertex {x} is not a cutvertex")
    in_nbrs = d.in_neighbors(x)
    out_nbrs = d.out_neighbors(x)
    shortcuts = tuple(sorted({(v, z) for v in in_nbrs for z in out_nbrs if z != v}))
    step = Rule1Step(x, in_nbrs, out_nbrs, shortcuts)
    return step.apply(d), step


def is_bipath4(d, p):
    """Check the length-4 bipath condition: the arcs adjacent to the three
    internal vertices are exactly the consecutive 2-circuits of p."""
    if len(p) != 5 or len(set(p)) != 5:
        return False
    inner = set(p[1:4])
    required = set()
    for a, b in zip(p, p[1:]):
        required.add((a, b))
        required.add((b, a))
    adjacent = {(a, b) for a, b in d.arc_set() if a in inner or b in inner}
    return adjacent == required


def _chain_partner_map(d):
    """v -> (a, b) when v's arcs are exactly the 2-circuits with a and b."""
    partners = {}
    for v in d.vertices:
        if v == d.root:
            continue
        outs = d.out_neighbors(v)
        if len(outs) == 2 and outs == d.in_neighbors(v):
            partners[v] = outs
    return partners


def iter_bipath4(d):
    """All length-4 bipaths, one orientation each, by ascending middle vertex."""
    partners = _chain_partner_map(d)
    for y in sorted(partners):
        x, z = partners[y]
        if x not in partners or z not in partners:
            continue
        ux = [w for w in partners[x] if w != y]
        tz = [w for w in partners[z] if w != y]
        if not ux or not tz:
            continue
        p = (ux[0], x, y, z, tz[0])
        if len(set(p)) == 5:
            yield p


def find_bipath4(d):
    return next(iter_bipath4(d), None)


def apply_rule2(d, p):
    """Contract the middle internal pair (second and third vertex) of a
    length-4 bipath p = (u, x, y, z, t)."""
    if not is_bipath4(d, p):
        raise ValueError(f"{p} is not a bipath of length 4")
    u, x, y, z, t = p
    step = Rule2Step(u, x, y, z, t)
    return step.apply(d), step


def _rule3_cut(d, x, y):
    removed = (set(d.in_neighbors(x)) - {y}) - {d.root}
    if not removed:
        return False
    return y not in reachable(d, removed)


def iter_rule3(d):
    for x in d.vertices:
        if x == d.root:
            continue
        for y in d.in_neighbors(x):
            if y == d.root:
                continue
            if _rule3_cut(d, x, y):
                yield x, y


def find_rule3(d):
    return next(iter_rule3(d), None)


def apply_rule3(d, x, y):
    """Delete the arc (y, x) when the other in-neighbors of x cut y from r."""
    if y not in d.in_neighbors(x):
        raise ValueError(f"{y} is not an in-neighbor of {x}")
    if not _rule3_cut(d, x, y):
        raise ValueError(f"in-neighbors of {x} other than {y} do not cut {y} from the root")
    step = Rule3Step(y, x)
    return step.apply(d), step


# -- kernelization -------------------------------------------------------


def renormalize(d, steps):
    """Normalize d, appending one trace step per normalization event."""
    d2, note = normalize(d)
    for kind, payload in note.events:
        steps.append(NormDeleteStep(payload) if kind == "del" else NormMergeStep(payload))
    return d2


def strip_cutvertices(d, steps):
    """Apply rule 1 until no cutvertex is left, re-normalizing after every
    rewrite and appending the steps; d itself comes back when it has none."""
    while True:
        x = find_cutvertex(d)
        if x is None:
            return d
        d, st = apply_rule1(d, x)
        steps.append(st)
        d = renormalize(d, steps)


def kernelize(d):
    """Apply the rules to a fixpoint; returns the reduced digraph and trace.

    A digraph on which no rule applies is returned unchanged, without
    normalization; normalization runs only after an actual rewrite, since
    shortcut arcs can violate the standing root assumptions.
    """
    if not rule0(d):
        raise InfeasibleError("some vertex is unreachable from the root")
    steps = []
    work = d
    while True:
        before = len(steps)
        work = strip_cutvertices(work, steps)
        while True:
            pair = find_rule3(work)
            if pair is None:
                break
            work, st = apply_rule3(work, *pair)
            steps.append(st)
            work = renormalize(work, steps)
        p = find_bipath4(work)
        if p is not None:
            work, st = apply_rule2(work, p)
            steps.append(st)
            work = renormalize(work, steps)
        if len(steps) == before:
            break
    return work, ReductionTrace(tuple(steps))


# -- witnesses and the kernel decision ------------------------------------


def large_indegree_witness(d, x):
    """Out-tree with one leaf per in-neighbor of x, grown from paths that
    avoid the other in-neighbors.

    Requires, for every in-neighbor u of x, a root path to u avoiding
    N-(x) - u (rule 3 guarantees this on reduced digraphs).  When r itself
    is an in-neighbor the guarantee weakens by one leaf unless x can hang
    directly off the root.
    """
    in_nbrs = d.in_neighbors(x)
    if not in_nbrs:
        raise ValueError(f"vertex {x} has no in-neighbors")
    root = d.root
    parent = {}
    placed = {root}

    for u in in_nbrs:
        if u == root or u in placed:
            continue
        blocked = (set(in_nbrs) - {u}) - {root}
        # BFS from the root avoiding `blocked`, stopping at u
        prev = {root: None}
        queue = [root]
        qi = 0
        while qi < len(queue) and u not in prev:
            a = queue[qi]
            qi += 1
            for b in d.out_neighbors(a):
                if b not in prev and b not in blocked:
                    prev[b] = a
                    queue.append(b)
        if u not in prev:
            raise ValueError(
                f"in-neighbors of {x} other than {u} cut {u} from the root; "
                "digraph is not reduced under rule 3")
        path = []
        v = u
        while v is not None:
            path.append(v)
            v = prev[v]
        path.reverse()
        for a, b in zip(path, path[1:]):
            if b not in placed:
                parent[b] = a
                placed.add(b)

    if root in in_nbrs and x not in placed:
        parent[x] = root
        placed.add(x)

    tree = grow_tree(d, parent=parent)
    if len(tree.parent) != d.n - 1:
        raise InternalInvariantError("witness tree failed to span the digraph")
    return tree


@dataclass(frozen=True)
class KernelDecision:
    verdict: str                       # "TRUE", "FALSE" or "REDUCED"
    witness: Optional[Outbranching]
    reduced: Optional[RootedDigraph]
    trace: Optional[ReductionTrace]
    k: int

    @property
    def threshold(self):
        return (3 * self.k - 2) * (30 * self.k - 2)


def decide(d, k):
    """Kernelize and settle easy verdicts; otherwise return the kernel.

    TRUE comes with a lifted witness of at least k leaves, from the largest
    indegree, the root outdegree, or the constructive tree bounds once the
    reduced digraph reaches size (3k-2)(30k-2).  REDUCED kernels are always
    smaller than that threshold.
    """
    if k < 1:
        raise PreconditionError("parameter k must be at least 1")
    if not rule0(d):
        return KernelDecision("FALSE", None, None, None, k)
    reduced, trace = kernelize(d)

    def settle(tree):
        lifted = lift(tree, trace)
        check = verify_outbranching(d, lifted)
        if not check.ok:
            raise InternalInvariantError(f"lifted witness invalid: {check.reason}")
        if lifted.leaf_count < k:
            raise InternalInvariantError("lifted witness lost leaves")
        return KernelDecision("TRUE", lifted, reduced, trace, k)

    best_x = None
    for v in reduced.vertices:
        if v != reduced.root and reduced.indeg(v) >= k:
            if best_x is None or reduced.indeg(v) > reduced.indeg(best_x):
                best_x = v
    if best_x is not None:
        witness = large_indegree_witness(reduced, best_x)
        if witness.leaf_count >= k:
            return settle(witness)

    if reduced.n >= 2 and reduced.outdeg(reduced.root) >= k:
        return settle(bfs_tree(reduced))

    verdict = KernelDecision("REDUCED", None, reduced, trace, k)
    if reduced.n < verdict.threshold:
        return verdict
    d_norm, note = normalize(reduced)
    if note.merged:
        raise InternalInvariantError("reduced 2-connected digraph should not merge")
    best = numbering_bound_tree(d_norm)
    if best.leaf_count < k:
        raise InternalInvariantError(
            f"tree bounds produced {best.leaf_count} < k={k} leaves above the size threshold")
    return settle(best)

"""Reduction rules, kernelization, the quadratic kernel decision and lifting.

Rule 1 deletes a cutvertex x and shortcuts every in-neighbor to every
outneighbor; rule 2 contracts the middle pair of a bipath of length 4;
rule 3 deletes an arc (y, x) whenever the other in-neighbors of x cut y from
the root.  Each rule preserves the maximum leaf number, and a spanning
out-tree of the rewritten digraph can be lifted back without losing leaves.

Rule 1 runs on one dominator tree per strip.  The cutvertices are the
non-root vertices with a child in the dominator tree.  Splice lemma: deleting
a cutvertex x and adding its shortcuts gives the dominator tree of the
result by splicing x out, each child of x taking idom(x) as its parent,
because a path of the new digraph avoids a vertex y != x exactly when the
old path through x that it shortcuts avoids y.  Normalization keeps the
tree: an arc into r lies on no simple root path, and a root path through an
arc into a root outneighbor z has the shortcut (r, z) on a subset of its
vertices, so neither kind of deletion changes a dominator; a root merge
absorbs the root's only outneighbor u, whose idom is r, which is the same
splice.  The tree certifies each cutvertex that a strip rewrites, and one
fresh pass after the strip's last rewrite checks that it missed none.

Rule 3 is decided once per head x: with A the non-root in-neighbors of x
(at least two of them), (y, x) goes exactly when no in-neighbor of y is
reachable from the root in the digraph minus A, so one reachability pass
settles every in-arc of x.  Certificate: the root path to a vertex in a
spanning out-tree is a path of the digraph, so when an in-neighbor of y has
a tree path meeting no vertex of A, (y, x) stays.  A scan builds one such
tree and pays the reachability pass only for heads with a tail it does not
certify; the filter only keeps arcs, so every decision is the pass's own.

The kernelizer applies rule 1 to exhaustion, then rule 3 to exhaustion,
then rule 2 to exhaustion, re-normalizing after every rewrite, and each
phase runs once; the renormalization reads only the heads of the new arcs
(`digraph` module docstring).  An untouched input is returned exactly as
given.  No phase re-enables an earlier rule:

Lemma A (rule 3).  Say rule 3 deletes (y, x), with A = N-(x) - r.  Every
simple root path to y meets some a in A - y before y, so replacing a
segment a ... y -> x of a root path by the arc (a, x) gives a path on a
subset of the same vertices.  Hence for every vertex set S the vertices
reachable while avoiding S stay the same: no dominator changes and no
cutvertex appears.  The normalization that follows only deletes arcs, which
keeps reachability as shown above.  It never merges: root out-arcs are
untouched, and a root outdegree of 1 with n > 2 would make that
outneighbor a cutvertex.

Lemma B (rule 2).  Contracting y into x in the bipath (u, x, y, z, t) maps
every root path avoiding phi^-1(S) onto one avoiding S, and back, where phi
maps y to x.  A simple path that meets y but not x ends at y, so {x, y}
cuts a vertex only when x alone cuts it.  In-neighbor sets change only at
u, x and z, and only by renaming y to x.  So on a digraph with no cutvertex
and no rule 3 arc, the contraction and the normalization after it create
neither.

Resuming rule 3.  With A = N-(x) - r, rule 3 deletes (y, x) exactly when
y is unreachable while avoiding A - y, so its decisions depend only on the
in-neighbors of heads and on the sets reachable while avoiding a vertex
set.  By lemma A a deletion keeps every such set and changes the
in-neighbors of its own head only.  The normalization after it deletes
arcs only, which keeps those sets as shown above, and a head whose
in-neighbors it changes is a root outneighbor, left with the root as its
only in-neighbor.  So no head before the last deletion's head gains a
deletion, and the phase resumes its scan at that head.

One certificate tree.  A breadth-first tree T is a shortest-path tree,
and the rule 3 phase never deletes one of its arcs.  When rule 3 deletes
(y, x), every root path to y meets some a in A - y before y, so
dist(a) < dist(y), and x's tree parent p has dist(p) = dist(x) - 1 <=
dist(a): p is not y.  Normalization deletes arcs into r, which has no
parent, and arcs into a root outneighbor from tails other than r, its
parent.  Deleting arcs never shortens a distance and T's paths survive,
so T stays a shortest-path tree, and one T certifies for the whole phase.

Two in-neighbors.  The rule 3 phase runs without a cutvertex: rule 1 has
run to exhaustion, and by lemma A neither a deletion nor the normalization
after it creates one.  At a head x with exactly two non-root in-neighbors
a and b, (a, x) goes only when a is unreachable while avoiding b, that is
when b dominates a and so is a cutvertex.  Hence in that phase such a head
keeps both arcs, and the resumed scans skip it without a search.

Lemma C (rule 2).  Call v != r paired when its arcs are exactly the
2-circuits with two vertices, its partners, and call y a middle when its
partners x and z are paired and the bipath (u, x, y, z, t) through their
other partners has five distinct vertices.  A contraction creates no
middle.  Contracting (u, x, y, z, t) drops y, gives x the partners u and z
and z the partners x and t, and changes no other pair, so only u, x, z and
t can change status.  Before it, x was a middle exactly when u was paired:
its bipath (u', u, x, y, z) could repeat a vertex only as u' = y or u' = z,
making u a partner of y or z, that is u = z or u = t, both excluded.  A
paired u with partners a and x had the bipath (a', a, u, x, y), which could
repeat a vertex only as a' = y (u is no partner of y, which rules out a = y
and a' = x), making a = z and so u = t, excluded.  Each of x and u, and
likewise z and t, needs the same paired partner to be a middle after the
contraction, so it was one before.  Hence the rule 2 phase walks the
middles of one scan in ascending order, checking each as its turn comes,
since a contraction can end a middle.

The rewrites run on one `WorkGraph`: each costs time linear in the arcs
it touches, and `RootedDigraph` is built once, for the kernel.  Every
rewrite is logged as a step that replays forward on a digraph, so vertex
ids stay in input coordinates, and `lift` carries a tree back through the
steps on one parent map.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop
from typing import Optional

from .digraph import (NormMergeStep, Outbranching, RootedDigraph, WorkGraph,
                      bfs_tree, find_cutvertex, grow_tree, immediate_dominators,
                      is_connected, normalize, reachable, search,
                      verify_outbranching)
from .errors import InfeasibleError, InternalInvariantError, PreconditionError
from .bounds import numbering_bound_trees

# -- trace steps (the normalization steps live in digraph) --------------


@dataclass(frozen=True)
class Rule1Step:
    x: int
    in_nbrs: tuple
    out_nbrs: tuple
    shortcuts: tuple

    def apply(self, d):
        return d.without_vertex(self.x, extra_arcs=self.shortcuts)

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

    def __str__(self):
        return f"rule2 contract {self.x}+{self.y} in ({self.u},{self.x},{self.y},{self.z},{self.t})"


@dataclass(frozen=True)
class Rule3Step:
    y: int
    x: int

    @property
    def arcs(self):
        return ((self.y, self.x),)

    def apply(self, d):
        return d.without_arcs(self.arcs)

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
    """Lift an out-tree of the reduced digraph back through the trace.

    One parent map and one children map are rewritten in place, from the
    last step to the first, and turned into one `Outbranching` at the end.
    A rule 3 step or an arc deletion keeps the tree.  A rule 1 step hangs
    x below the smallest non-leaf in-neighbor that has no other non-leaf
    in-neighbor above it, and moves below x every outneighbor of x whose
    parent is an in-neighbor of x.  A rule 2 step puts y back next to x on
    the tree path through the merged vertex.  A root merge hangs the
    absorbed vertex below the root and the root's children below it.  Each
    step costs time linear in its in- and outneighbors, plus the tree
    paths that rule 1 climbs.
    """
    steps = [s for s in trace.steps if isinstance(s, (Rule1Step, Rule2Step, NormMergeStep))]
    if not steps:
        return tree
    root = tree.root
    parent = dict(tree.parent)
    children = {}
    for c, p in parent.items():
        children.setdefault(p, set()).add(c)

    def attach(v, p):
        old = parent.get(v)
        if old is not None:
            children[old].discard(v)
        parent[v] = p
        children.setdefault(p, set()).add(v)

    for step in reversed(steps):
        if isinstance(step, Rule1Step):
            x = step.x
            non_leaves = [y for y in step.in_nbrs if children.get(y)]
            if not non_leaves:
                raise InternalInvariantError(
                    f"no non-leaf in-neighbor of {x} to re-attach it to")
            blockers = set(non_leaves)

            def below_blocker(v):
                while v in parent:
                    v = parent[v]
                    if v in blockers:
                        return True
                return False

            y_i = min(y for y in non_leaves if not below_blocker(y))
            for z in step.out_nbrs:
                if parent.get(z) in blockers:
                    attach(z, x)
            attach(x, y_i)
        elif isinstance(step, Rule2Step):
            u, x, y, z = step.u, step.x, step.y, step.z
            p = parent.get(x)
            if p == z:
                attach(y, z)
                attach(x, y)
            elif p == u:
                attach(y, x)
                if parent.get(z) == x:
                    attach(z, y)
            else:
                raise InternalInvariantError(
                    f"merged vertex {x} has parent {p}, expected {u} or {z}")
        elif isinstance(step, NormMergeStep):
            kids = children.pop(root, set())
            for c in kids:
                parent[c] = step.absorbed
            children[step.absorbed] = kids
            attach(step.absorbed, root)
    return Outbranching(root, parent)


# -- the rules -----------------------------------------------------------


def rule0(d):
    """True when every vertex is reachable from the root."""
    return is_connected(d)


def _is_cutvertex(d, x):
    """Rule 1's check in one traversal: everything reachable from the root
    while avoiding x, then onward from x, which must reach the rest.  x is a
    cutvertex when the first part misses a vertex other than x.  Raises
    ValueError when d is not connected from the root."""
    if x == d.root or x not in d.vertices:
        return False
    seen = search(d._out, [d.root], avoid={x})
    if not any(w in seen for w in d._in[x]):
        raise ValueError("digraph is not connected from the root")
    if len(seen) == d.n - 1:
        return False
    if len(seen) + len(search(d._out, [x], avoid=seen)) < d.n:
        raise ValueError("digraph is not connected from the root")
    return True


def apply_rule1(d, x, tree=None):
    """Delete cutvertex x, adding (v, z) for every v in N-(x), z in N+(x)-v.

    `tree`, a `_DominatorTree` of d, certifies x by giving it a child;
    without one, `_is_cutvertex` checks x with one traversal."""
    if tree is not None:
        certified = x != d.root and x in tree.children
    else:
        certified = _is_cutvertex(d, x)
    if not certified:
        raise ValueError(f"vertex {x} is not a cutvertex")
    in_nbrs = d.in_neighbors(x)
    out_nbrs = d.out_neighbors(x)
    shortcuts = tuple(sorted({(v, z) for v in in_nbrs for z in out_nbrs if z != v}))
    step = Rule1Step(x, in_nbrs, out_nbrs, shortcuts)
    return step.apply(d), step


def is_bipath4(d, p):
    """Check the length-4 bipath condition: each of the three internal
    vertices has exactly its two path neighbors as in- and outneighbors."""
    if len(p) != 5 or len(set(p)) != 5:
        return False
    for a, v, b in zip(p, p[1:], p[2:]):
        if not d.out_neighbors(v) == d.in_neighbors(v) == tuple(sorted((a, b))):
            return False
    return True


def _chain_partner_map(d, partners=None):
    """v -> (a, b) when v's arcs are exactly the 2-circuits with a and b,
    filled into `partners` when given."""
    partners = {} if partners is None else partners
    for v in d.vertices:
        if v == d.root or d.outdeg(v) != 2 or d.indeg(v) != 2:
            continue
        outs = d.out_neighbors(v)
        if outs == d.in_neighbors(v):
            partners[v] = outs
    return partners


def _bipath_at(partners, y):
    """The length-4 bipath with middle y in the chain partner map, or None."""
    pair = partners.get(y)
    if pair is None:
        return None
    x, z = pair
    if x not in partners or z not in partners:
        return None
    ux = [w for w in partners[x] if w != y]
    tz = [w for w in partners[z] if w != y]
    if not ux or not tz:
        return None
    p = (ux[0], x, y, z, tz[0])
    return p if len(set(p)) == 5 else None


def iter_bipath4(d, partners=None):
    """All length-4 bipaths, one orientation each, by ascending middle
    vertex; `partners`, a dict, is filled with d's chain partner map."""
    partners = _chain_partner_map(d, partners)
    for y in sorted(partners):
        p = _bipath_at(partners, y)
        if p is not None:
            yield p


def find_bipath4(d, partners=None):
    return next(iter_bipath4(d, partners), None)


def apply_rule2(d, p):
    """Contract the middle internal pair (second and third vertex) of a
    length-4 bipath p = (u, x, y, z, t)."""
    if not is_bipath4(d, p):
        raise ValueError(f"{p} is not a bipath of length 4")
    u, x, y, z, t = p
    step = Rule2Step(u, x, y, z, t)
    return step.apply(d), step


def _rule3_tails(d, x):
    """The y, ascending, whose arc (y, x) rule 3 deletes: y in A = N-(x) - r
    with no in-neighbor reachable from r in d - A.  A shortest root path to y
    in d - (A - y) meets A only at y, so y has such a path exactly when one
    of its in-neighbors is reachable avoiding A.  When A is a single vertex
    its arc stays, even if nothing reaches that vertex."""
    tails = [y for y in d.in_neighbors(x) if y != d.root]
    if len(tails) < 2:
        return []
    seen = reachable(d, tails)
    return [y for y in tails if not any(w in seen for w in d._in[y])]


def _needs_search(d, tails, parent):
    """Whether some tail y has no in-neighbor whose root path in the
    spanning out-tree `parent` meets no tail; such a path avoids every
    tail, so each tail with one keeps its arc."""
    blocked = set(tails)
    for y in tails:
        for w in d._in[y]:
            while w not in blocked and w != d.root:
                w = parent[w]
            if w == d.root:
                break
        else:
            return True
    return False


def iter_rule3(d, start=None, tree=None):
    """Every arc (y, x) rule 3 deletes, as (x, y), by ascending head x and
    then tail y.

    At the first head with enough non-root in-neighbors to search, a
    breadth-first spanning out-tree is grown once for the scan.  With A the
    non-root in-neighbors of x, (y, x) stays when an in-neighbor of y has a
    tree path from the root that meets no vertex of A.  Only a head with a
    tail lacking such a certificate pays `_rule3_tails`' reachability pass,
    and since the filter only keeps arcs, the result is that of the pass on
    every head.  When the root does not reach every vertex, every head pays.

    `start` resumes kernelize's rule 3 phase, where d has no cutvertex
    (module docstring): the scan begins at head `start` and skips every
    head with exactly two non-root in-neighbors, which then keeps both arcs.

    `tree`, a dict, carries the certificate across the calls of that
    phase: an empty one is filled with the parent map of the tree the scan
    grows, and a filled one is used as it is.  Any spanning out-tree of d
    certifies, so the caller empties it only when a deletion removes one
    of its arcs.
    """
    parent = {} if tree is None else tree
    grown = bool(parent)
    fewest = 2 if start is None else 3
    for x in d.vertices:
        if x == d.root or (start is not None and x < start):
            continue
        tails = [y for y in d._in[x] if y != d.root]
        if len(tails) < fewest:
            continue
        if not grown:
            grown = True
            parent.update(grow_tree(d).parent)
            if len(parent) < d.n - 1:
                parent.clear()
        if parent and not _needs_search(d, tails, parent):
            continue
        for y in _rule3_tails(d, x):
            yield x, y


def find_rule3(d, start=None, tree=None):
    return next(iter_rule3(d, start, tree), None)


def apply_rule3(d, x, y):
    """Delete the arc (y, x) when the other in-neighbors of x cut y from r."""
    if not d.has_arc(y, x):
        raise ValueError(f"{y} is not an in-neighbor of {x}")
    if y not in _rule3_tails(d, x):
        raise ValueError(f"in-neighbors of {x} other than {y} do not cut {y} from the root")
    step = Rule3Step(y, x)
    return step.apply(d), step


# -- kernelization -------------------------------------------------------


def renormalize(d, steps):
    """Normalize d, appending its normalization steps."""
    d, norm = normalize(d)
    steps.extend(norm)
    return d


class _DominatorTree:
    """The dominator tree of a digraph connected from the root, following
    the rule 1 rewrites and normalization events of a strip.

    A splice never gives a child to a vertex without one, so the
    cutvertices only ever leave: they sit in a min-heap that
    `smallest_cutvertex` cleans lazily."""

    def __init__(self, d):
        self.root = d.root
        self.idom = immediate_dominators(d)
        if len(self.idom) != d.n:
            raise ValueError("digraph is not connected from the root")
        self.children = {}
        for v, p in self.idom.items():
            if v != d.root:
                self.children.setdefault(p, set()).add(v)
        self.heap = sorted(v for v in self.children if v != d.root)

    def splice(self, x):
        """Drop x, handing its children to idom(x)."""
        p = self.idom.pop(x)
        siblings = self.children[p]
        siblings.discard(x)
        for c in self.children.pop(x, ()):
            self.idom[c] = p
            siblings.add(c)
        if not siblings:
            del self.children[p]

    def follow(self, step):
        """Update the tree for one trace step of a strip."""
        if isinstance(step, Rule1Step):
            self.splice(step.x)
        elif isinstance(step, NormMergeStep):
            self.splice(step.absorbed)

    def smallest_cutvertex(self):
        heap = self.heap
        while heap and heap[0] not in self.children:
            heappop(heap)
        return heap[0] if heap else None


def strip_cutvertices(d, steps):
    """Apply rule 1 until no cutvertex is left, re-normalizing after every
    rewrite and appending the steps; d itself comes back when it has none.
    Raises ValueError when d is not connected from the root.

    Each rewrite takes the smallest cutvertex, as `find_cutvertex` would.
    One dominator pass serves the whole strip: by the splice lemma (module
    docstring) a rule 1 rewrite of x and a root merge of u each splice that
    vertex out of the tree, handing its children to its parent, and
    normalization's arc deletions leave it as it is.  The tree certifies
    each cutvertex it hands to `apply_rule1`, so no rewrite pays a
    traversal.  After the last rewrite one `find_cutvertex` pass checks the
    spliced tree: a cutvertex it missed raises InternalInvariantError.  A
    digraph without a cutvertex costs the tree's pass alone.
    """
    tree = _DominatorTree(d)
    x = tree.smallest_cutvertex()
    if x is None:
        return d
    while x is not None:
        mark = len(steps)
        d, st = apply_rule1(d, x, tree)
        steps.append(st)
        d = renormalize(d, steps)
        for step in steps[mark:]:
            tree.follow(step)
        x = tree.smallest_cutvertex()
    left = find_cutvertex(d)
    if left is not None:
        raise InternalInvariantError(
            f"vertex {left} is still a cutvertex after the strip")
    return d


def kernelize(d):
    """Rule 1, then rule 3, then rule 2, each once to exhaustion, which by
    lemmas A and B (module docstring) leaves no rule applicable; returns the
    reduced digraph and trace.

    The rewrites run on one `WorkGraph` copy of d, and the rule 3 phase
    resumes its scan at the head of the last deletion (module docstring).
    That phase keeps one certificate tree, grown again only after a
    deletion removes one of its arcs, which a breadth-first tree never
    loses there (module docstring).  The rule 2 phase takes its bipaths
    from one scan (lemma C).
    A digraph on which no rule applies is returned unchanged, without
    normalization; normalization runs only after an actual rewrite, since
    shortcut arcs can violate the standing root assumptions.
    """
    if not rule0(d):
        raise InfeasibleError("some vertex is unreachable from the root")
    steps = []
    work = strip_cutvertices(WorkGraph(d), steps)
    tree = {}
    pair = find_rule3(work, start=min(work.vertices), tree=tree)
    while pair is not None:
        mark = len(steps)
        work, st = apply_rule3(work, *pair)
        steps.append(st)
        work = renormalize(work, steps)
        if any(tree.get(v) == u for step in steps[mark:] for u, v in step.arcs):
            tree.clear()
        pair = find_rule3(work, start=pair[0], tree=tree)
    work = _contract_bipaths(work, steps)
    return (work.freeze() if steps else d), ReductionTrace(tuple(steps))


def _contract_bipaths(work, steps):
    """Rule 2 to exhaustion on the `WorkGraph` work, re-normalizing after
    every contraction and appending the steps, taking the bipaths that
    repeated `find_bipath4` scans would take.

    One `find_bipath4` scan fills the chain partner map.  By lemma C
    (module docstring) the later middles are among those of that scan, so
    they are taken in ascending order, each checked against the partner
    map as its turn comes; a contraction rewrites the partner pairs of x
    and z and drops y.  A renormalization that rewrites anything, which
    happens only on raw input, calls for a new scan.
    """
    partners = {}
    p = find_bipath4(work, partners)
    if p is None:
        return work
    middles = iter([v for v in sorted(partners) if v > p[2]])
    while p is not None:
        mark = len(steps)
        work, st = apply_rule2(work, p)
        steps.append(st)
        work = renormalize(work, steps)
        if len(steps) > mark + 1:
            partners = _chain_partner_map(work)
            middles = iter(sorted(partners))
        else:
            u, x, y, z, t = p
            del partners[y]
            partners[x] = (u, z) if u < z else (z, u)
            partners[z] = (x, t) if x < t else (t, x)
        p = next(filter(None, (_bipath_at(partners, v) for v in middles)), None)
    return work


def kernel_numbering_tree(reduced):
    """The better of the two `numbering_bound_trees` of the normalized
    kernel, ties to bound 1.  Normalizing a kernel never merges: it is
    normalized after any rewrite, and an untouched input with root
    outdegree 1 and n > 2 has a cutvertex."""
    d_norm, steps = normalize(reduced)
    if any(isinstance(step, NormMergeStep) for step in steps):
        raise InternalInvariantError("normalizing a kernel merged the root")
    t1, t2 = numbering_bound_trees(d_norm)
    return t1 if t1.leaf_count >= t2.leaf_count else t2


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
        blocked = set(in_nbrs) - {u, root}
        bfs = search(d._out, [root], avoid=blocked)
        if u not in bfs:
            raise ValueError(
                f"in-neighbors of {x} other than {u} cut {u} from the root; "
                "digraph is not reduced under rule 3")
        v = u
        while v != root:
            if v not in placed:
                parent[v] = bfs[v]
                placed.add(v)
            v = bfs[v]

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
    best = kernel_numbering_tree(reduced)
    if best.leaf_count < k:
        raise InternalInvariantError(
            f"tree bounds produced {best.leaf_count} < k={k} leaves above the size threshold")
    return settle(best)

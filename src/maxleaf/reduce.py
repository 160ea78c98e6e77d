"""Reduction rules, kernelization, the quadratic kernel decision and lifting.

Rule 1 deletes a cutvertex x and shortcuts every in-neighbor to every
outneighbor; rule 2 contracts the middle pair of a bipath of length 4;
rule 3 deletes an arc (y, x) whenever the other in-neighbors of x cut y from
the root.  Each rule preserves the maximum leaf number, and a spanning
out-tree of the rewritten digraph can be lifted back without losing leaves.

Rule 1 runs on one dominator pass per strip.  The cutvertices are the
non-root vertices with a child in the dominator tree.  Splice lemma: deleting
a cutvertex x and adding its shortcuts gives the dominator tree of the
result by splicing x out, each child of x taking idom(x) as its parent,
because a path of the new digraph avoids a vertex y != x exactly when the
old path through x that it shortcuts avoids y.  Normalization keeps the
tree: an arc into r lies on no simple root path, and a root path through an
arc into a root outneighbor z has the shortcut (r, z) on a subset of its
vertices, so neither kind of deletion changes a dominator; a root merge
absorbs the root's only outneighbor u, whose idom is r, which is the same
splice.  A splice hands children only to a parent that already had one, so
no cutvertex appears and each stays one until it leaves the digraph: one
pass lists every cutvertex a strip rewrites.  The strip does not check
that it missed none; `kernelize` does, with one fresh pass after the
strip's last rewrite, and `approximate` relies on the 2-connectivity check
that numbering its core makes (`stnum.reduce_indegrees`).

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

One scan.  With A = N-(x) - r, rule 3 deletes (y, x) exactly when y is
unreachable while avoiding A - y, that is when no in-neighbor of y is
reachable while avoiding A, so a probe at x lists exactly the tails that
go.  Deleting some of them keeps the rest cut: with y and y' listed, a
root path to y' that avoids A - {y, y'} must pass y before y', and every
root path to y meets A - y before y, so that path would already have met
y'.  A deletion at another head changes no set reachable while avoiding a
vertex set (lemma A) and no other in-list.  The normalization after a
deletion deletes arcs only, which keeps those sets as shown above; the
only in-lists it changes are those of r and of root outneighbors, which
it leaves with the root alone, and the phase skips a listed arc that is
gone.  So one scan before any deletion lists every rule 3 deletion of the
phase, each certified by its head's probe.

Two in-neighbors.  The rule 3 phase runs without a cutvertex: rule 1 has
run to exhaustion, and by lemma A neither a deletion nor the normalization
after it creates one.  At a head x with exactly two non-root in-neighbors
a and b, (a, x) goes only when a is unreachable while avoiding b, that is
when b dominates a and so is a cutvertex.  Hence in that phase such a head
keeps both arcs, and the phase's scan skips it without a search.

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
contraction, so it was one before.  Hence every middle the rule 2 phase
contracts was a middle at its one scan, and after the scan's first the
phase tests the later vertices in ascending order on the working graph
itself, each as its turn comes, since a contraction can end a middle.

The rewrites run on one working copy of the input (`RootedDigraph.thaw`),
which shares the input's adjacency tuples until a rewrite first touches
one: each rewrite costs time linear in the lists it touches, and the copy
is frozen in place once, as the kernel, sorting only those lists, without
another build.  Every rewrite is logged
as a step that replays forward on a digraph, so vertex ids stay in input
coordinates, and `lift` carries a tree back through the steps on one
parent map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .digraph import (NormMergeStep, Outbranching, RootedDigraph, bfs_tree,
                      cutvertices, find_cutvertex, grow_tree, normalize,
                      reachable, search, verify_outbranching)
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

    def apply(self, d):
        return d.without_arcs(((self.y, self.x),))

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


def verified_lift(d, tree, trace):
    """`lift` tree through trace, checked to be a spanning out-tree of d,
    the digraph the trace starts from; InternalInvariantError when not."""
    lifted = lift(tree, trace)
    check = verify_outbranching(d, lifted)
    if not check.ok:
        raise InternalInvariantError(f"lifted tree invalid: {check.reason}")
    return lifted


# -- the rules -----------------------------------------------------------


def apply_rule1(d, x, cuts=None):
    """Delete cutvertex x, adding (v, z) for every v in N-(x), z in N+(x)-v.

    `cuts`, a collection of d's cutvertices, certifies x by holding it;
    `cutvertices(d)` is listed when none is given.  Raises InfeasibleError
    when d is not connected from the root."""
    if cuts is None:
        cuts = cutvertices(d)
    if x not in cuts:
        raise ValueError(f"vertex {x} is not a cutvertex")
    in_nbrs = d.in_neighbors(x)
    out_nbrs = d.out_neighbors(x)
    shortcuts = tuple(sorted({(v, z) for v in in_nbrs for z in out_nbrs if z != v}))
    step = Rule1Step(x, in_nbrs, out_nbrs, shortcuts)
    return step.apply(d), step


def _partners(d, v):
    """v's partners, ascending, when v is paired (lemma C in the module
    docstring), else None; a vertex not in d is unpaired."""
    outs = d._out.get(v, ())
    if len(outs) != 2 or v == d.root:
        return None
    ins = d._in[v]
    a, b = outs
    if len(ins) != 2 or a not in ins or b not in ins:
        return None
    return (a, b) if a < b else (b, a)


def _bipath_at(d, y):
    """The length-4 bipath (u, x, y, z, t) with middle y and x < z, read
    from the adjacency lists of y, x and z, or None."""
    pair = _partners(d, y)
    if pair is None:
        return None
    x, z = pair
    px, pz = _partners(d, x), _partners(d, z)
    if px is None or pz is None:  # y is one partner of each, the other is u or t
        return None
    u = px[1] if px[0] == y else px[0]
    t = pz[1] if pz[0] == y else pz[0]
    p = (u, x, y, z, t)
    return p if len(set(p)) == 5 else None


def find_bipath4(d):
    """The length-4 bipath `_bipath_at` finds at the smallest middle, or None."""
    return next(filter(None, (_bipath_at(d, y) for y in d.vertices)), None)


def apply_rule2(d, p):
    """Contract the middle internal pair (second and third vertex) of a
    length-4 bipath p = (u, x, y, z, t), given in either orientation: p is
    one exactly when it is the bipath `_bipath_at` reads at its middle y or
    its reverse, so no inner vertex is the root."""
    if len(p) != 5 or _bipath_at(d, p[2]) not in (tuple(p), tuple(p)[::-1]):
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


def find_rule3(d, cut_free=False):
    """Every head x at which rule 3 deletes arcs, with the tails of those
    arcs: a list of (x, tails), heads and tails ascending.

    At the first head with enough non-root in-neighbors to search, a
    breadth-first spanning out-tree is grown once for the scan.  With A the
    non-root in-neighbors of x, (y, x) stays when an in-neighbor of y has a
    tree path from the root that meets no vertex of A.  Only a head with a
    tail lacking such a certificate pays `_rule3_tails`' reachability pass,
    and since the filter only keeps arcs, the result is that of the pass on
    every head.  When the root does not reach every vertex, every head pays.

    `cut_free` is for kernelize's rule 3 phase, where d has no cutvertex
    (module docstring): the scan skips every head with exactly two non-root
    in-neighbors, which then keeps both arcs.
    """
    parent = None  # grown at the first head with enough tails; {} if not spanning
    fewest = 3 if cut_free else 2
    found = []
    for x in d.vertices:
        if x == d.root:
            continue
        tails = [y for y in d._in[x] if y != d.root]
        if len(tails) < fewest:
            continue
        if parent is None:
            parent = grow_tree(d).parent
            if len(parent) < d.n - 1:
                parent = {}
        if parent and not _needs_search(d, tails, parent):
            continue
        cut = _rule3_tails(d, x)
        if cut:
            found.append((x, cut))
    return found


def apply_rule3(d, x, y, tails=None):
    """Delete the arc (y, x) when the other in-neighbors of x cut y from r.

    `tails`, a set of the tails whose arcs into x rule 3 deletes, certifies
    y by holding it; `_rule3_tails` probes x when none is given."""
    if not d.has_arc(y, x):
        raise ValueError(f"{y} is not an in-neighbor of {x}")
    if tails is None:
        tails = _rule3_tails(d, x)
    if y not in tails:
        raise ValueError(f"in-neighbors of {x} other than {y} do not cut {y} from the root")
    step = Rule3Step(y, x)
    return step.apply(d), step


# -- kernelization -------------------------------------------------------


def renormalize(d, steps):
    """Normalize d, appending its normalization steps."""
    d, norm = normalize(d)
    steps.extend(norm)
    return d


def strip_cutvertices(d, steps):
    """Apply rule 1 until no cutvertex is left, re-normalizing after every
    rewrite and appending the steps; d itself comes back when it has none.
    Raises InfeasibleError when d is not connected from the root.

    Each rewrite takes the smallest cutvertex, as `find_cutvertex` would.
    One dominator pass lists them all: by the splice lemma (module
    docstring) the cutvertices of the rewritten digraph are always the
    listed ones still present, so the strip rewrites those in ascending
    order, skipping any that a root merge has absorbed, and the list
    certifies each one for `apply_rule1`.  The strip does not check its
    result; the callers that need it free of cutvertices do (`kernelize`,
    `approximate`).
    """
    cuts = cutvertices(d)
    listed = set(cuts)
    for x in cuts:
        if x in d.vertices:
            d, st = apply_rule1(d, x, listed)
            steps.append(st)
            d = renormalize(d, steps)
    return d


def kernelize(d):
    """Rule 1, then rule 3, then rule 2, each once to exhaustion, which by
    lemmas A and B (module docstring) leaves no rule applicable; returns the
    reduced digraph and trace.

    The rewrites run on one working copy of d, frozen in place as the
    kernel.  The rule 3 phase takes every deletion from one scan made
    before the first ("One scan" in the module docstring), and the rule 2
    phase makes one scan, then walks the later vertices once (lemma C).
    A digraph on which no rule applies is returned unchanged, without
    normalization; normalization runs only after an actual rewrite, since
    shortcut arcs can violate the standing root assumptions.  The strip's
    dominator pass raises InfeasibleError when d is not connected from the
    root.  The rule 3 phase relies on a digraph without cutvertices, so
    after a strip that rewrote something one `find_cutvertex` pass checks
    that none is left, raising InternalInvariantError otherwise.
    """
    steps = []
    work = strip_cutvertices(d.thaw(), steps)
    if steps:
        left = find_cutvertex(work)
        if left is not None:
            raise InternalInvariantError(
                f"vertex {left} is still a cutvertex after the strip")
    for x, tails in find_rule3(work, cut_free=True):
        certified = set(tails)
        for y in tails:
            if work.has_arc(y, x):  # on raw input, a renormalization can remove it
                work, st = apply_rule3(work, x, y, certified)
                steps.append(st)
                work = renormalize(work, steps)
    work = _contract_bipaths(work, steps)
    return (work.freeze() if steps else d), ReductionTrace(tuple(steps))


def _contract_bipaths(work, steps):
    """Rule 2 to exhaustion on the working graph work, re-normalizing after
    every contraction and appending the steps, taking the bipaths that
    repeated `find_bipath4` scans would take.

    The first bipath comes from one `find_bipath4` scan.  By lemma C
    (module docstring) every later middle was a middle at that scan, so
    the walk goes on from each contracted middle to the vertices after it,
    in ascending order, testing each on the working graph as its turn
    comes; a vertex a contraction dropped reads as unpaired.  A
    renormalization that rewrites anything, which happens only on raw
    input, restarts the walk from the smallest vertex.
    """
    p = find_bipath4(work)
    if p is None:
        return work
    middles = iter([v for v in work.vertices if v > p[2]])
    while p is not None:
        mark = len(steps)
        work, st = apply_rule2(work, p)
        steps.append(st)
        work = renormalize(work, steps)
        if len(steps) > mark + 1:
            middles = iter(list(work.vertices))
        p = next(filter(None, (_bipath_at(work, v) for v in middles)), None)
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

    Each u takes its path from a breadth-first search that never discovers
    the set B = N-(x) - {u, r}.  Lemma: such a search discovers every vertex
    whose path in the breadth-first tree T of the whole digraph avoids B
    from its parent in T.  Removing B lowers no depth, so such a vertex keeps
    its depth, and by induction on the depth, as in (a) and (b) of
    `stnum`'s shortcut lemma, the search expands the vertices that keep
    their depth in T's order: a vertex expanded before v's tree parent with
    v in its out-list would have made T discover v from it.  So T gives
    every u whose tree path avoids B the path that search would give, and
    only the other in-neighbors need a search.
    """
    in_nbrs = d.in_neighbors(x)
    if not in_nbrs:
        raise ValueError(f"vertex {x} has no in-neighbors")
    root = d.root
    parent = {}
    placed = {root}
    tree = search(d._out, [root])
    others = set(in_nbrs) - {root}  # N-(x) - r: B plus u, for every u

    for u in in_nbrs:
        if u == root or u in placed:
            continue
        v = tree.get(u, u)  # u's tree parent; u itself when the tree misses it
        while v in tree and v not in others:
            v = tree[v]  # the root maps to None: u's tree path avoids B
        bfs = tree if v is None else search(d._out, [root], avoid=others - {u})
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

    witness = grow_tree(d, parent=parent)
    if len(witness.parent) != d.n - 1:
        raise InternalInvariantError("witness tree failed to span the digraph")
    return witness


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

    FALSE when some vertex is unreachable from the root, which the
    kernelizer's dominator pass reports.

    TRUE comes with a lifted witness of at least k leaves, from the largest
    indegree, the root outdegree, or the constructive tree bounds once the
    reduced digraph reaches size (3k-2)(30k-2).  REDUCED kernels are always
    smaller than that threshold.
    """
    if k < 1:
        raise PreconditionError("parameter k must be at least 1")
    try:
        reduced, trace = kernelize(d)
    except InfeasibleError:
        return KernelDecision("FALSE", None, None, None, k)

    def settle(tree):
        lifted = verified_lift(d, tree, trace)
        if lifted.leaf_count < k:
            raise InternalInvariantError("lifted witness lost leaves")
        return KernelDecision("TRUE", lifted, reduced, trace, k)

    best_x = max((v for v in reduced.vertices if v != reduced.root),
                 key=lambda v: (reduced.indeg(v), -v), default=None)
    if best_x is not None and reduced.indeg(best_x) >= k:
        witness = large_indegree_witness(reduced, best_x)
        if witness.leaf_count >= k:
            return settle(witness)

    # a breadth-first tree has a leaf below each root child, or a lone root
    if max(reduced.outdeg(reduced.root), 1) >= k:
        return settle(bfs_tree(reduced))

    verdict = KernelDecision("REDUCED", None, reduced, trace, k)
    if reduced.n < verdict.threshold:
        return verdict
    best = kernel_numbering_tree(reduced)
    if best.leaf_count < k:
        raise InternalInvariantError(
            f"tree bounds produced {best.leaf_count} < k={k} leaves above the size threshold")
    return settle(best)

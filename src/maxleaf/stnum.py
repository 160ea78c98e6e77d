"""Root-to-root numberings of 2-connected rooted digraphs.

A numbering is a linear order of the non-root vertices in which every vertex
that is not an outneighbor of r has an in-neighbor on each side.  Splitting
the arcs into the increasing (forward) and decreasing (backward) families,
each together with the out-arcs of r, gives two acyclic connected spanning
subdigraphs that share exactly the out-arcs of r.  Arcs into r belong to
neither family: they constrain no vertex, and since r reaches every vertex
in both families, each would close a cycle.  `in_sides` is the one place
that decides an arc's family; both bound trees read it.

Construction first deletes in-arcs of high-indegree vertices until every
non-root vertex has indegree at most 2.  Each such vertex keeps the last
arcs of two internally disjoint root paths; that alone keeps the digraph
2-connected (see `reduce_indegrees`), so only the result is checked.  It
then repeatedly eliminates the smallest vertex of outdegree 0 (delete) or 1
(contract into its outneighbor) from the reduction's `WorkGraph` copy
without the arcs into r, and finally reinserts the eliminated vertices in
reverse order, each at the smallest gap where its own and its outneighbor's
side constraints hold.  That gap always lies just after one element (the
front, the outneighbor, or the vertex's first in-neighbor), so a linked list
whose order labels are kept as in Bender, Cole, Demaine, Farach-Colton and
Zito (ESA 2002) places each vertex in O(log n) amortized time, where a
Python list's `index` and `insert` took O(n) (see `rr_numbering`).

Neither stage rescans the digraph per vertex.  The path pairs are those of
two breadth-first augmentations in the node-split unit network (vertex v
becomes in(v) -> out(v) of capacity 1, 2 for r, arc (u, v) becomes
out(u) -> in(v), every edge list sorted by vertex), each stopping when it
discovers in(t) for the target t.  They are found on the digraph's own
sorted arc lists, without the arcs into r, which lead to in(r) and end
there.

Tree-arc lemma.  Without flow, in(v) leads only to out(v), so the network
search is a breadth-first search of the out-lists, and the first
augmentation's path is t's path P = r, v1, ..., vk, t in their
breadth-first tree T.  The second augmentation stops on reaching in(t)
without expanding it, so it never cancels the flow on the arc of P into
t, which is always kept.  The reduction thus deletes only arcs outside T,
and deleting an arc that the search never used to discover a vertex leaves
T as it is, so one T serves every vertex until a deletion removes a tree
arc (see `RootPathState` and `reduce_indegrees`).

Search lemma.  Take the network with one unit of flow on P.  Every
out-node has exactly one in-edge with residual capacity: the split edge
from its own in-node, or for vi the reversed arc from in(vi+1).  Every
in-node off P has exactly one usable out-edge, its split edge; in(vi)
has only the reversed arc to out(vi-1).  So the residual search dequeues
out-nodes in the order in which their in-nodes are discovered, and it is
a breadth-first search of the out-lists from r in which the arc of P out
of each vi (and out of r) is skipped, entering vi continues at vi-1 (a
dead end for v1), vi's reversed split edge sits at vi's own place in its
sorted out-list, and the search stops when it discovers t.  The flow is
then P plus the arcs this search used forward, minus the arcs of P it
reversed (see `two_disjoint_root_paths`).

Shortcut lemma.  Let S be T's subtree at v1.  Augmenting along a shortest
path brings no node closer to the source, so the second search reaches no
vertex at a smaller depth than T; call a vertex on time when it reaches it
at its depth in T.  A vertex outside S keeps its tree path, which avoids
P, so it is on time.  By induction on the depth, (a) every vertex b
outside S is discovered from its tree parent, and (b) an on-time vertex a
that the second search reaches before such a b comes before b in T too.
For (b): a's discoverer is on time (one expanded late, such as out(vi),
would give a a smaller depth in T), by induction T reached it before b's
tree parent unless it is that parent, and T discovered a no later.  For
(a): a vertex expanded before b's tree parent with b in its out-list is
either late, and then T reached it at a smaller depth, or on time, and
then T reached it first by (b); either way T would have discovered b from
it.  Now let y be the in-neighbor of t other than vk that T reaches
first.  out(vk) never expands, so when y lies outside S the same argument
shows that no other in-neighbor of t expands before y: the second search
discovers t from y, its path is y's tree path, and no search is needed.
On `gen_random(1600, 4/1600, seed=1)` that holds for 1,357 of the 1,404
vertices that `reduce_indegrees` visits.

Elimination never raises an outdegree, so its candidates come from a heap
(see `rr_numbering`).
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .digraph import RootedDigraph, WorkGraph, is_2connected, search
from .errors import InternalInvariantError


@dataclass(frozen=True)
class RRNumbering:
    order: tuple
    position: dict

    def reversed(self):
        order = tuple(reversed(self.order))
        return RRNumbering(order, {v: i for i, v in enumerate(order)})


def validate_numbering(d, order):
    """True when `order` lists the non-root vertices once and every vertex
    that is not an outneighbor of r has in-neighbors on both sides."""
    expected = set(d.vertices) - {d.root}
    if len(order) != len(expected) or set(order) != expected:
        return False
    r = d.root
    pos = {v: i for i, v in enumerate(order)}
    root_out = set(d.root_out())
    for p, x in enumerate(order):
        if x in root_out:
            continue
        sides = [pos[u] for u in d.in_neighbors(x) if u != r]
        if not sides or min(sides) > p or max(sides) < p:
            return False
    return True


def in_sides(d, numbering):
    """The forward and backward in-neighbor lists of every non-root vertex,
    ascending: u is a forward in-neighbor of v when it comes before v in the
    numbering and a backward one when it comes after, and r is on both
    sides.  Arcs into r are on neither side.  Does not check the numbering."""
    r, pos = d.root, numbering.position
    fwd, bwd = {}, {}
    for v in d.vertices:
        if v == r:
            continue
        p = pos[v]
        ins = d.in_neighbors(v)
        fwd[v] = [u for u in ins if u == r or pos[u] < p]
        bwd[v] = [u for u in ins if u == r or pos[u] > p]
    return fwd, bwd


def side_digraph(d, side):
    """The spanning subdigraph of d with the arcs of one `in_sides` side."""
    return RootedDigraph(d.vertices, d.root, [(u, v) for v, ins in side.items() for u in ins])


# -- indegree reduction -------------------------------------------------


class RootPathState:
    """The live arc lists of a rooted digraph and their breadth-first tree.

    `out[v]` and `inn[v]` list v's out- and in-neighbors in ascending
    order, without the arcs into the root and without the arcs `delete_arc`
    removed.  `tree()` is the breadth-first tree of the out-lists from the
    root, the `search` map from each reached vertex to its parent (None for
    the root).  It is built on first use, together with each reached
    vertex's place in the search (`_rank`, the map's order), and kept until
    `delete_arc` removes one of its arcs (tree-arc lemma, module docstring).
    """

    def __init__(self, d):
        r = self.root = d.root
        self.out = {v: [w for w in d.out_neighbors(v) if w != r] for v in d.vertices}
        self.inn = {v: [] if v == r else list(d.in_neighbors(v)) for v in d.vertices}
        self._tree = None

    def tree(self):
        if self._tree is None:
            self._tree = search(self.out, [self.root])
            self._rank = {v: i for i, v in enumerate(self._tree)}
        return self._tree

    def delete_arc(self, u, v):
        self.out[u].remove(v)
        self.inn[v].remove(u)
        if self._tree is not None and self._tree.get(v) == u:
            self._tree = None


def _tree_path(parent, v):
    path = []
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    return path


def _second_search(out, parent, succ, r, target):
    """The second augmentation's search (search lemma, module docstring):
    a map from each vertex z it discovered to the vertex y whose out-node
    discovered in(z), y == z standing for a reversed split edge, or None
    when it never discovers `target`.  `succ` maps each vertex of P but
    `target` to its successor on P."""
    via = {}
    queue = [r]
    for y in queue:
        heads = out[y]
        if y in succ:
            skip = succ[y]
            heads = [z for z in heads if z != skip]
            if y != r:
                insort(heads, y)
        for z in heads:
            if z in via:
                continue
            via[z] = y
            if z == target:
                return via
            if z not in succ:
                queue.append(z)
            elif parent[z] != r:
                queue.append(parent[z])
    return None


def two_disjoint_root_paths(state, target):
    """Two internally vertex-disjoint paths from the root to `target` over
    the live arc lists of a `RootPathState`, or None.

    These are the paths of two breadth-first augmentations in the
    digraph's node-split unit network, read from the flow smallest first,
    and found without that network (module docstring).  The first is
    `target`'s path P = r, v1, ..., target in `state.tree()` (tree-arc
    lemma).  When the in-neighbor y of `target` that the tree's search
    reached first, other than its parent, lies outside v1's subtree, the
    second is y's tree path and `target` (shortcut lemma).  Otherwise a
    breadth-first search of the out-lists finds it: the search skips the
    arc of P out of each vertex of P, continues at v(i-1) on entering
    v(i), and offers v(i) itself at its own place in v(i)'s out-list
    (search lemma).  The flow is then P plus the arcs that search used
    forward, minus the arcs of P it reversed.  Nothing in `state` changes,
    also when the result is None.
    """
    r = state.root
    if target == r:
        raise ValueError("target must differ from the root")
    parent = state.tree()
    if target not in parent:
        return None
    first = _tree_path(parent, target)
    others = [y for y in state.inn[target] if y in parent and y != parent[target]]
    if not others:
        return None  # out(parent) never expands, so nothing discovers in(target)
    second = _tree_path(parent, min(others, key=state._rank.__getitem__))
    if second[1] != first[1]:
        return sorted([first, second + [target]])

    succ = dict(zip(first, first[1:]))
    via = _second_search(state.out, parent, succ, r, target)
    if via is None:
        return None
    # walk the second path back: out(y) was entered from in(y), or for y on
    # P over the reversed arc from in(succ[y])
    flow = set(succ.items())
    x = target
    while True:
        y = via[x]
        if y != x:
            flow.add((y, x))
        if y == r:
            break
        if y in succ:
            flow.discard((y, succ[y]))
            x = succ[y]
        else:
            x = y
    nxt = {u: v for u, v in flow if u != r}
    paths = []
    for v in sorted(v for u, v in flow if u == r):
        path = [r, v]
        while v != target:
            v = nxt[v]
            path.append(v)
        paths.append(path)
    return paths


def reduce_indegrees(d):
    """Delete in-arcs until every non-root vertex has indegree at most 2;
    returns a `WorkGraph` copy of `d` without the deleted arcs, and never
    changes `d`.

    For each vertex x of indegree above 2, in ascending order, the two
    in-arcs that end a pair of internally disjoint root paths are kept and
    every other in-arc of x is deleted.  No deletion needs its own check:
    if some z lost every root path avoiding a vertex w, its old path that
    avoided w used a deleted arc (y, x); its suffix from x avoids w, and one
    kept path to x avoids w too, so together they reach z again.  Deleting
    arcs never repairs a cut, so one 2-connectivity check of the result
    guards all deletions and proves the input 2-connected.  Only after a
    failure (no path pair, or a result that fails the check) is the input
    checked, to tell ValueError from a bug.

    One `RootPathState` serves every vertex, and its breadth-first tree is
    never rebuilt.  The first path of x's pair is x's path in that tree,
    and the second search stops on discovering x without continuing from
    it, so it never reverses the tree arc into x: that arc is always kept.
    Every deleted arc thus lies outside the tree, and since the search
    never used it to discover a vertex, the tree without it is the same
    (tree-arc lemma, module docstring).  The state is dropped before the
    copy is taken, so the two are never held in memory together.
    """
    state = None
    deleted = []
    for x in d.vertices:
        if x == d.root or d.indeg(x) <= 2:
            continue
        if state is None:
            state = RootPathState(d)
        paths = two_disjoint_root_paths(state, x)
        if paths is None:
            _reduction_failed(d, f"no disjoint path pair to {x} in a 2-connected digraph")
        keep = {p[-2] for p in paths}
        for y in d.in_neighbors(x):
            if y not in keep:
                state.delete_arc(y, x)
                deleted.append((y, x))
    del state
    reduced = WorkGraph(d).without_arcs(deleted)
    if not is_2connected(reduced):
        _reduction_failed(d, "indegree reduction broke 2-connectivity")
    return reduced


def _reduction_failed(d, message):
    if not is_2connected(d):
        raise ValueError("indegree reduction requires a 2-connected digraph")
    raise InternalInvariantError(message)


# -- numbering construction --------------------------------------------


def _elimination_state(work):
    """The adjacency sets of the working graph, the heap of elimination
    candidates (non-root vertices of outdegree at most 1) and the number of
    non-root vertices without a root in-arc."""
    r, out, inn = work.root, work._out, work._in
    candidates = [w for w in out if w != r and len(out[w]) <= 1]
    heapify(candidates)
    return out, inn, candidates, sum(r not in inn[w] for w in inn if w != r)


_LABEL_BITS = 62      # least label width; labels lie in [0, 2**width)
_DENSITY = 4 / 3      # 2/T for the overflow threshold T = 1.5


class _OrderLabels:
    """A linked list whose elements carry increasing integer labels, so that
    two elements compare in O(1) (Bender, Cole, Demaine, Farach-Colton and
    Zito, "Two Simplified Algorithms for Maintaining Order in a List", ESA
    2002).  `head` stays first, with label 0, None ends the list, and at
    most `size` elements follow `head`."""

    def __init__(self, head, items, size):
        width = _LABEL_BITS
        while _DENSITY ** width < size + 1:
            width += 1
        step = (1 << width) // (len(items) + 1)
        chain = [head, *items]
        self.head = head
        self.label = {v: i * step for i, v in enumerate(chain)}
        self.label[None] = 1 << width
        self.nxt = dict(zip(chain, chain[1:] + [None]))
        self.prv = dict(zip(chain[1:], chain))

    def insert_after(self, x, v):
        label, nxt = self.label, self.nxt
        if label[nxt[x]] - label[x] < 2:
            self._relabel(x)
        y = nxt[x]
        label[v] = (label[x] + label[y]) // 2
        nxt[x], nxt[v], self.prv[v], self.prv[y] = v, y, x, v  # prv[None] is never read

    def _relabel(self, x):
        """Spread evenly the labels of the smallest aligned range of 2**i
        labels around x that, with one more element, is at most
        `_DENSITY`**i full; it leaves a gap of at least 2 after x."""
        label, nxt, prv = self.label, self.nxt, self.prv
        first = last = x
        count, i = 1, 0
        while True:
            i += 1
            base = label[x] >> i << i
            end = base + (1 << i)
            while first != self.head and label[prv[first]] >= base:
                first, count = prv[first], count + 1
            while label[nxt[last]] < end:
                last, count = nxt[last], count + 1
            if count + 1 <= _DENSITY ** i:
                break
        step, y = (1 << i) // count, first
        for j in range(count):
            label[y], y = base + j * step, nxt[y]

    def __iter__(self):
        v = self.nxt[self.head]
        while v is not None:
            yield v
            v = self.nxt[v]


def _reinserted(r, remaining, records):
    """The numbering that reinserts the eliminated vertices, last record
    first, into the ascending `remaining` vertices (see `rr_numbering`)."""
    order = _OrderLabels(r, remaining, len(remaining) + len(records))
    label = order.label
    for v, v_in, v_exempt, u, u_others, u_exempt in reversed(records):
        after = r
        if u is not None and not u_exempt and all(label[w] < label[u] for w in u_others):
            after = u
        if not v_exempt:
            first = min(v_in, key=label.__getitem__)
            if label[first] > label[after]:
                after = first
        order.insert_after(after, v)
    return list(order)


def rr_numbering(d):
    """A valid root-to-root numbering of a 2-connected rooted digraph.

    Works on the `WorkGraph` that `reduce_indegrees(d)` returns, without
    its arcs into the root r, eliminating on its adjacency sets in place;
    a stall hands that graph back to `reduce_indegrees`.  Arcs into r
    constrain no vertex, and without them a vertex whose only out-arc
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
    root as an in-neighbor.  A reduction returns a new working graph, so
    the heap and the count are rebuilt with it, at a cost below the
    reduction's own.

    Reinsertion runs in reverse.  Let sigma number the working digraph G'
    that v's elimination left, and G the one before it.  A numbering stays
    valid when the arcs a reduction deleted come back, and in G only v and,
    when v was contracted into u, u gain constraints.  v needs a non-root
    in-neighbor on each side unless r is one.  u needs one of its other
    in-neighbors or v on each side unless r is one of the others, so v must
    lie on the far side of u exactly when u's other non-root in-neighbors
    all lie on one side of it.  The smallest valid gap g is the gap just
    past v's first in-neighbor, or just past u when the others all lie
    before u and u is later, or the front when neither applies.  It is
    valid: in G', u's in-neighbors are its others and v's, so when the
    others all lie on one side of u, r or an in-neighbor y of v lies on the
    far side.  If it is r, v is exempt, and g is 0 or just past u.
    Otherwise v has two non-root in-neighbors; the first is before g, and y
    (when g is just past u) or else the second is after it.  g is on the far
    side of u: past u when the others lie before it, and before u when they
    lie after it, since v's first in-neighbor is then no later than y.

    So every gap is "after one element" (r standing for the front), and
    sigma is only asked which of two elements comes first: `_OrderLabels`
    answers from integer labels in O(1), and widens a closed gap by evenly
    relabelling the smallest sparse enough label range around it, in O(log
    n) amortized time.  Relabelling the whole list instead gives the same
    order, but reinserts the vertices of `normalize(gen_t_l(40))` about
    twice as slowly as list insertion did.
    """
    r = d.root
    work = reduce_indegrees(d)
    work.without_arcs([(y, r) for y in work._in[r]])
    out, inn, candidates, unexempt = _elimination_state(work)
    records = []
    while unexempt:
        while candidates and candidates[0] not in inn:
            heappop(candidates)
        if not candidates:
            work = reduce_indegrees(work)
            out, inn, candidates, unexempt = _elimination_state(work)
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

    sigma = _reinserted(r, sorted(inn.keys() - {r}), records)
    if not validate_numbering(d, sigma):
        raise InternalInvariantError("constructed numbering failed validation")
    order = tuple(sigma)
    return RRNumbering(order, {v: i for i, v in enumerate(order)})

"""Root-to-root numberings of 2-connected rooted digraphs.

A numbering is a linear order of the non-root vertices in which every vertex
that is not an outneighbor of r has an in-neighbor on each side.  Splitting
the arcs into the increasing (forward) and decreasing (backward) families,
each together with the out-arcs of r, gives two acyclic connected spanning
subdigraphs that share exactly the out-arcs of r.  Arcs into r belong to
neither family: they constrain no vertex, and since r reaches every vertex
in both families, each would close a cycle.  `in_sides` is the one place
that decides an arc's family, and it checks the numbering in the same walk;
`rr_numbering` carries that split, and both bound trees read it.

Construction first deletes in-arcs of high-indegree vertices until every
non-root vertex has indegree at most 2.  Each such vertex keeps its arcs
from two tails, the tails of the last arcs of two internally disjoint root
paths; that alone keeps the digraph 2-connected (see `reduce_indegrees`),
so only the result is checked, and only the tails are ever found.  It
then repeatedly eliminates the smallest vertex of outdegree 0 (delete) or 1
(contract into its outneighbor) from the reduction's working copy without
the arcs into r, and finally reinserts the eliminated vertices in reverse
order, each at the smallest gap where its own and its outneighbor's side
constraints hold.  That gap always lies just after one element (the
front, the outneighbor, or the vertex's first in-neighbor), so a linked list
whose order labels are kept as in Bender, Cole, Demaine, Farach-Colton and
Zito (ESA 2002) places each vertex in O(log n) amortized time, where a
Python list's `index` and `insert` took O(n) (see `rr_numbering`).

Neither stage rescans the digraph per vertex.  The kept tails end the
paths of two breadth-first augmentations in the node-split unit network
(vertex v becomes in(v) -> out(v) of capacity 1, 2 for r, arc (u, v)
becomes out(u) -> in(v), every edge list sorted by vertex), each stopping
when it discovers in(t) for the target t.  They are found on copies of
the digraph's sorted out-lists without the arcs into r, which lead to in(r)
and end there, and without the arcs deleted so far.

Tree-arc lemma.  Without flow, in(v) leads only to out(v), so the network
search is a breadth-first search of the out-lists, and the first
augmentation's path is t's path P = r, v1, ..., vk, t in their
breadth-first tree T.  The second augmentation stops on reaching in(t)
without expanding it, so it never cancels the flow on the arc of P into
t, which is always kept.  The reduction thus deletes only arcs outside T,
and deleting an arc that the search never used to discover a vertex leaves
T as it is, so one T, built at the first vertex visited, serves every
vertex (see `root_path_tree` and `reduce_indegrees`).

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
reversed.  Its two arcs into in(t) are the arc of P from vk, never
reversed, and the arc from the vertex whose out-node discovered in(t): those
are t's two tails, and neither path is walked (see
`two_disjoint_root_paths`).

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
discovers t from y, so t's tails are vk and y, and no search is needed.
y lies outside S exactly when the root child on its tree path is not v1,
which `root_path_tree` records per vertex.  On the cutvertex-free core of
the n = 1600, p = 4/1600, seed 1 instance of the per-pair generator that
`gen_random` used before skip sampling (kept as the tests' fixture
`legacy_gen_random`, which `test_reduce_indegrees_searches_for_few_tails`
pins), that holds for 1,357 of the 1,404 vertices that `reduce_indegrees`
visits, so the search runs 47 times.

Elimination never raises an outdegree, so its candidates come from a heap
(see `rr_numbering`).
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .digraph import is_2connected, search
from .errors import InternalInvariantError


@dataclass(frozen=True)
class RRNumbering:
    order: tuple
    sides: tuple  # the `in_sides` split (forward, backward)


def in_sides(d, order):
    """The split (forward, backward) of `order`: the in-neighbor lists of
    every non-root vertex per side, ascending.  u is a forward in-neighbor
    of v when it comes before v in the order and a backward one when it
    comes after, and r is on both sides.  Arcs into r are on neither side.

    The same walk checks that `order` is a root-to-root numbering of d and
    raises InternalInvariantError when it is not: it lists every non-root
    vertex exactly once, and every vertex has an in-neighbor on each side,
    which for a vertex that is not a root outneighbor is a non-root one."""
    r = d.root
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) != len(order):
        raise InternalInvariantError("the numbering lists a vertex twice")
    fwd, bwd = {}, {}
    try:
        for v in d.vertices:
            if v == r:
                continue
            p = pos[v]
            ins = d.in_neighbors(v)
            fwd[v] = f = [u for u in ins if u == r or pos[u] < p]
            bwd[v] = b = [u for u in ins if u == r or pos[u] > p]
            if not (f and b):
                raise InternalInvariantError(f"vertex {v} has no in-neighbor on one side")
    except KeyError as exc:
        raise InternalInvariantError(f"the numbering misses vertex {exc}") from None
    if len(pos) != len(fwd):
        raise InternalInvariantError("the numbering lists the root or a vertex not in the digraph")
    return fwd, bwd


# -- indegree reduction -------------------------------------------------


def root_path_tree(out, r):
    """The breadth-first tree of the out-lists `out` from the root r, as
    `(parent, rank, top)`: the `search` map from each reached vertex to its
    parent (None for r), each reached vertex's place in that search, and
    the root child its tree path leaves r through (None for r)."""
    parent = search(out, [r])
    rank = {v: i for i, v in enumerate(parent)}
    top = {}
    for v, u in parent.items():  # a parent comes before its children
        top[v] = v if u == r else top.get(u)
    return parent, rank, top


def _second_search(out, parent, succ, r, target):
    """The second augmentation's search (search lemma, module docstring):
    the vertex whose out-node discovers in(`target`), which is the tail of
    the second path's last arc, or None when it never discovers `target`.
    `succ` maps each vertex of P but `target` to its successor on P."""
    seen = set()  # the vertices whose in-node the search discovered
    queue = [r]
    for y in queue:
        heads = out[y]
        if y in succ:
            skip = succ[y]
            heads = [z for z in heads if z != skip]
            if y != r:
                insort(heads, y)
        for z in heads:
            if z in seen:
                continue
            if z == target:
                return y
            seen.add(z)
            if z not in succ:
                queue.append(z)
            elif parent[z] != r:
                queue.append(parent[z])
    return None


def two_disjoint_root_paths(d, out, tree, target):
    """The tails `(parent, other)` of the last arcs of two internally
    vertex-disjoint paths from the root of d to `target` over the out-lists
    `out`, or None when no such pair exists.

    `out` maps every vertex to its out-neighbors in ascending order, without
    the arcs into the root, and `tree` is their `root_path_tree`; `target`'s
    in-list is read from d, so `out` must hold every arc of d into it.  The
    paths are those of two breadth-first augmentations in the node-split
    unit network, and their tails are found without that network or the
    paths (module docstring).  The first path is `target`'s tree path P =
    r, v1, ..., target (tree-arc lemma), so `parent` is `target`'s tree
    parent.  `other` is the in-neighbor y of `target` that the tree's search
    reached first, other than its parent, when y's tree path leaves the root
    through another child than v1 (shortcut lemma).  Otherwise it is the
    vertex from which a breadth-first search of the out-lists discovers
    `target`: the search skips the arc of P out of each vertex of P,
    continues at v(i-1) on entering v(i), and offers v(i) itself at its own
    place in v(i)'s out-list (search lemma).  Neither `out` nor `tree`
    changes, also when the result is None.
    """
    r = d.root
    if target == r:
        raise ValueError("target must differ from the root")
    parent, rank, top = tree
    if target not in parent:
        return None
    first = parent[target]
    other = None
    for y in d.in_neighbors(target):  # the first in the search, but for `first`
        i = rank.get(y)
        if i is not None and y != first and (other is None or i < least):
            other, least = y, i
    if other is None:
        return None  # out(parent) never expands, so nothing discovers in(target)
    if top[other] != top[target]:
        return first, other

    succ = {}
    v = target
    while v != r:
        succ[parent[v]] = v
        v = parent[v]
    other = _second_search(out, parent, succ, r, target)
    return None if other is None else (first, other)


def reduce_indegrees(d):
    """Delete in-arcs until every non-root vertex has indegree at most 2;
    returns a working copy of `d` (`RootedDigraph.thaw`) without the
    deleted arcs, and never changes `d`.

    For each vertex x of indegree above 2, in ascending order, the in-arcs
    from x's two tails (`two_disjoint_root_paths`) are kept and every other
    in-arc of x is deleted.  No deletion needs its own check: if some z
    lost every root path avoiding a vertex w, its old path that avoided w
    used a deleted arc (y, x); its suffix from x avoids w, and the two tails
    end internally disjoint root paths, so one of them ends a root path
    that avoids w and, with its kept arc, reaches x: together they reach z
    again.  Deleting
    arcs never repairs a cut, so one 2-connectivity check of the result
    guards all deletions and proves the input 2-connected; it is also
    `approximate`'s one proof that its stripped core is 2-connected.  Only
    after a failure (no path pair, or a result that fails the check) is the
    input checked, to tell ValueError from a bug.

    The tails are found on one map of live out-lists, copied from d at the
    first vertex visited without the arcs into the root, from which each
    deleted arc is removed, and on one `root_path_tree` of them, built
    then and never rebuilt.  x's first tail is its parent in that tree,
    and the second search stops on discovering x without continuing from
    it, so it never reverses the tree arc into x: that arc is always kept.
    Every deleted arc thus lies outside the tree, and since the search
    never used it to discover a vertex, the tree without it is the same
    (tree-arc lemma, module docstring).  No arc into x is deleted before x
    is visited, so x's in-list is read from d.  The lists and the tree are
    dropped before the copy is taken, so the two are never held in memory
    together.  The copy is built without the deleted arcs: a visited
    vertex's in-set is its two kept tails, only the out-sets of the
    deleted arcs' tails are filtered, and every other list is shared with
    d as `thaw` shares it, a tuple as it is and a set copied, so no list is
    copied whole and then emptied.  A caller that rewrites the copy's
    lists in place takes them from `owned_lists`, as `rr_numbering` does.
    """
    r = d.root
    out = tree = None
    kept = {}  # each visited vertex's two kept tails
    cut = {}   # the heads of each tail's deleted arcs
    for x in d.vertices:
        if x == r or d.indeg(x) <= 2:
            continue
        if out is None:
            out = {v: list(d.out_neighbors(v)) for v in d.vertices}
            for y in d.in_neighbors(r):
                out[y].remove(r)
            tree = root_path_tree(out, r)
        pair = two_disjoint_root_paths(d, out, tree, x)
        if pair is None:
            _reduction_failed(d, f"no disjoint path pair to {x} in a 2-connected digraph")
        kept[x] = keep = set(pair)
        for y in d.in_neighbors(x):
            if y not in keep:
                out[y].remove(x)
                cut.setdefault(y, []).append(x)
    del out, tree
    reduced = d.thaw(ins=kept,
                     outs={y: set(d._out[y]).difference(heads) for y, heads in cut.items()})
    if not is_2connected(reduced):
        _reduction_failed(d, "indegree reduction broke 2-connectivity")
    return reduced


def _reduction_failed(d, message):
    if not is_2connected(d):
        raise ValueError("indegree reduction requires a 2-connected digraph")
    raise InternalInvariantError(message)


# -- numbering construction --------------------------------------------


def _elimination_state(work):
    """The adjacency sets of the working graph, its own to rewrite in place
    (`RootedDigraph.owned_lists`), the heap of elimination candidates
    (non-root vertices of outdegree at most 1) and the number of non-root
    vertices without a root in-arc."""
    r = work.root
    out, inn = work.owned_lists()
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
    first, into the ascending `remaining` vertices (see `rr_numbering`).

    A record `(v, v_in, v_exempt, u, u_others, u_exempt)` holds v, its
    in-set when it was eliminated, whether r was in it, the vertex u it was
    contracted into (None when it was deleted), u's other in-neighbors
    then, and whether r was among them.  v_in holds r only when v is
    exempt, and u_others is `()` when u is exempt or None; neither is read
    then.  u's others all lie before u when the largest of their labels is
    below u's."""
    order = _OrderLabels(r, remaining, len(remaining) + len(records))
    label = order.label
    for v, v_in, v_exempt, u, u_others, u_exempt in reversed(records):
        after = r
        if (u is not None and not u_exempt
                and max(map(label.__getitem__, u_others), default=-1) < label[u]):
            after = u
        if not v_exempt:
            first = min(v_in, key=label.__getitem__)
            if label[first] > label[after]:
                after = first
        order.insert_after(after, v)
    return list(order)


def rr_numbering(d):
    """A valid root-to-root numbering of a 2-connected rooted digraph,
    with its `in_sides` split, whose walk checks the order.

    Works on the working copy that `reduce_indegrees(d)` returns, without
    its arcs into the root r, eliminating in place on its adjacency sets,
    which it takes from `owned_lists` so that no tuple shared with d or an
    earlier copy is rewritten;
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
    reduction's own.  A step builds no difference set: its loops walk v's
    in-set and skip u or r, and its record (see `_reinserted`) keeps that
    popped in-set as it is, so the one set a step allocates is the copy of
    u's other in-neighbors, taken only when u is not exempt.

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
        v_exempt = r in v_in
        unexempt -= not v_exempt
        for y in v_in:
            out[y].discard(v)
        u, u_others, u_exempt = None, (), False
        if v_out:
            (u,) = v_out
            u_in = inn[u]
            u_in.discard(v)
            u_exempt = r in u_in
            if not u_exempt:
                u_others = u_in.copy()
            for y in v_in:
                if y != u:
                    out[y].add(u)
                    u_in.add(y)
            unexempt -= not u_exempt and v_exempt
        for y in v_in:
            if y != r and len(out[y]) <= 1:
                heappush(candidates, y)
        records.append((v, v_in, v_exempt, u, u_others, u_exempt))

    order = tuple(_reinserted(r, sorted(inn.keys() - {r}), records))
    return RRNumbering(order, in_sides(d, order))

"""Shared corpus builders and independent brute-force oracles for the tests."""
from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from maxleaf import stnum
from maxleaf.approx import WeakBipath
from maxleaf.bounds import acyclic_many_leaves, vertex_cover_third
from maxleaf.digraph import (NormDeleteStep, NormMergeStep, Outbranching, RootedDigraph,
                             VerifyResult, build, euler_intervals,
                             find_cutvertex, grow_tree, is_2connected, is_connected,
                             normalize, reachable)
from maxleaf.errors import InfeasibleError, InternalInvariantError, PreconditionError
from maxleaf.exact import DEFAULT_LIMIT, ExactResult
from maxleaf.gen import gen_boloney, gen_comb, gen_necklace, gen_t_l
from maxleaf.reduce import (ReductionTrace, Rule1Step, Rule2Step, Rule3Step,
                            _bipath_at, apply_rule1, apply_rule2, apply_rule3,
                            find_bipath4, find_rule3, renormalize, strip_cutvertices)
from maxleaf.digraph import cutvertices as idom_cutvertices


# -- helpers that only the tests read ------------------------------------


def legacy_gen_random(n, arc_probability, seed):
    """`gen.gen_random` as it was before skip sampling, one `random()` per
    ordered pair: the golden corpus, the sha256 pins and every test that
    pins an exact instance draw from it, so their instances never move."""
    if n < 2:
        raise PreconditionError("need at least two vertices")
    if not 0.0 <= arc_probability <= 1.0:
        raise PreconditionError("arc probability must lie in [0, 1]")
    rng = random.Random(seed)
    arcs = [(rng.randrange(v), v) for v in range(1, n)]
    for u in range(n):
        for v in range(1, n):
            if u != v and rng.random() < arc_probability:
                arcs.append((u, v))
    d, _ = normalize(build(n, 0, arcs))
    return d


def with_arcs(d, arcs):
    """d with the given arcs added (duplicates collapse)."""
    return RootedDigraph(d.vertices, d.root, list(d.arc_set()) + list(arcs))


def legacy_rooted_digraph(vertices, root, arcs):
    """`RootedDigraph(vertices, root, arcs)` as it was built before the
    constructor bucket-sorted the arcs: one set of the arcs, a list per
    vertex, and each list sorted into a tuple, with the same checks and
    messages.  The reference that the constructor tests compare against."""
    vs = tuple(sorted(set(vertices)))
    out = {v: [] for v in vs}
    if root not in out:
        raise ValueError(f"root {root} is not a vertex")
    inn = {v: [] for v in vs}
    arcset = set(arcs)
    try:
        for u, v in arcset:
            if u == v:
                raise KeyError(u)
            out[u].append(v)
            inn[v].append(u)
    except KeyError:
        u, v = min((u, v) for u, v in arcset if u == v or u not in out or v not in out)
        if u == v:
            raise ValueError(f"loop arc ({u}, {v})") from None
        raise ValueError(f"arc ({u}, {v}) uses an unknown vertex") from None
    d = RootedDigraph.__new__(RootedDigraph)
    d.root = root
    d._out = {v: tuple(sorted(ws)) for v, ws in out.items()}
    d._in = {v: tuple(sorted(ws)) for v, ws in inn.items()}
    d.vertices = tuple(d._out)
    d.frozen = True
    d._new_heads = None
    return d


def looped_digraph_maps(vertices, root, arcs):
    """`RootedDigraph`'s fields as the per-arc loop built them, checking
    and deduplicating each arc in input order: (vertices, out-lists,
    in-lists, arc set)."""
    vs = tuple(sorted(set(vertices)))
    vset = set(vs)
    if root not in vset:
        raise ValueError(f"root {root} is not a vertex")
    out = {v: [] for v in vs}
    inn = {v: [] for v in vs}
    arcset = set()
    for u, v in arcs:
        if u == v:
            raise ValueError(f"loop arc ({u}, {v})")
        if u not in vset or v not in vset:
            raise ValueError(f"arc ({u}, {v}) uses an unknown vertex")
        if (u, v) in arcset:
            continue
        arcset.add((u, v))
        out[u].append(v)
        inn[v].append(u)
    return (vs, {v: tuple(sorted(out[v])) for v in vs}, {v: tuple(sorted(inn[v])) for v in vs},
            frozenset(arcset))


def is_normalized(d):
    if d.indeg(d.root) != 0:
        return False
    if walked_illegal_arcs(d):
        return False
    return d.n <= 2 or d.outdeg(d.root) >= 2


@dataclass(frozen=True)
class NumberingSplit:
    forward: RootedDigraph
    backward: RootedDigraph


def validate_numbering(d, order):
    """True when `order` lists the non-root vertices once and every vertex
    that is not an outneighbor of r has in-neighbors on both sides: the
    oracle for the check that `stnum.in_sides` makes in its walk."""
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


def split(d, numbering):
    """Forward and backward subdigraphs of the split that a valid numbering
    carries."""
    if not validate_numbering(d, numbering.order):
        raise ValueError("numbering is not valid for this digraph")
    fwd, bwd = numbering.sides
    return NumberingSplit(side_digraph(d, fwd), side_digraph(d, bwd))


def side_digraph(d, side):
    """The spanning subdigraph of d with the arcs of one `in_sides` side."""
    return RootedDigraph(d.vertices, d.root, [(u, v) for v, ins in side.items() for u in ins])


def in_lists(d):
    """d as the in-lists `bounds.acyclic_many_leaves` takes."""
    return {v: d.in_neighbors(v) for v in d.vertices}


def numbered_sides(d):
    """The `in_sides` split that d's `rr_numbering` carries: the split the
    bound trees take."""
    return stnum.rr_numbering(d).sides


def many_leaves_bound(d):
    """The leaf count acyclic_many_leaves guarantees on input d, as a Fraction."""
    l = sum(1 for v in d.vertices if d.indeg(v) >= 2)
    return Fraction(l + d.outdeg(d.root) - 1, 3) + 1


def count_calls(monkeypatch, module, name):
    """Patch `module.name` to record the arguments of every call; returns
    the list it appends to."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def random_instances(count, n_lo, n_hi, seed_base, p_lo=0.15, p_hi=0.5):
    """Deterministic stream of random normalized instances."""
    out = []
    seed = seed_base
    while len(out) < count:
        rng = random.Random(seed)
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(p_lo, p_hi)
        out.append(legacy_gen_random(n, p, seed))
        seed += 1
    return out


def random_with_chain(seed):
    """Random instance with a planted chain of 2-circuits between two vertices,
    so that the bipath contraction rule has material to work on."""
    rng = random.Random(seed)
    base = legacy_gen_random(rng.randint(4, 6), rng.uniform(0.2, 0.45), seed * 31 + 7)
    root_out = set(base.root_out())
    pool = [v for v in base.vertices if v != base.root and v not in root_out]
    if len(pool) < 2:
        pool = [v for v in base.vertices if v != base.root]
    if len(pool) < 2:
        return base
    a, b = rng.sample(sorted(pool), 2)
    t = rng.randint(3, 4)
    start = max(base.vertices) + 1
    chain = list(range(start, start + t))
    arcs = list(base.arc_set())
    prev = a
    for c in chain:
        arcs += [(prev, c), (c, prev)]
        prev = c
    arcs += [(prev, b), (b, prev)]
    d = RootedDigraph(list(base.vertices) + chain, base.root, arcs)
    d, _ = normalize(d)
    return d


def raw_digraph(seed):
    """Non-normalized digraph with a random root and arcs into the root; a
    quarter have no planted arborescence, so some of those are infeasible."""
    rng = random.Random(seed)
    n = rng.randint(6, 18)
    root = rng.randrange(n)
    arcs = set()
    if rng.random() < 0.75:
        order = [root] + rng.sample([v for v in range(n) if v != root], n - 1)
        for j in range(1, n):
            arcs.add((order[rng.randrange(j)], order[j]))
    p = rng.uniform(0.08, 0.35)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                arcs.add((u, v))
    return RootedDigraph(range(n), root, sorted(arcs))


def chain_planted_corpus(count, seed_base, raw):
    """Digraphs connected from the root: a raw base (`raw_digraph`) or a
    `legacy_gen_random` base with n from 6 to 30 and p from 1.2/n to 3/n, plus 1 to
    3 chains of 2-circuits, each of 3 to 10 new vertices, between two
    distinct vertices of the base (the root only when it has in-arcs).  The
    results are not normalized."""
    out = []
    seed = seed_base
    while len(out) < count:
        rng = random.Random(seed)
        if raw:
            base = raw_digraph(seed)
        else:
            n = rng.randint(6, 30)
            base = legacy_gen_random(n, rng.uniform(1.2 / n, 3 / n), seed)
        ends = [v for v in base.vertices if v != base.root or base.indeg(base.root)]
        vertices = list(base.vertices)
        arcs = list(base.arc_set())
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(ends, 2)
            start = max(vertices) + 1
            chain = list(range(start, start + rng.randint(3, 10)))
            vertices += chain
            for u, v in zip([a] + chain, chain + [b]):
                arcs += [(u, v), (v, u)]
        d = RootedDigraph(vertices, base.root, arcs)
        if is_connected(d):
            out.append(d)
        seed += 1
    return out


def mixed_rule_corpus(count, seed_base):
    """Random instances mixed with chain-planted ones, all with n <= 10."""
    out = []
    seed = seed_base
    while len(out) < count:
        if seed % 4 == 0:
            d = random_with_chain(seed)
        else:
            rng = random.Random(seed)
            d = legacy_gen_random(rng.randint(4, 9), rng.uniform(0.15, 0.5), seed)
        if d.n <= 10:
            out.append(d)
        seed += 1
    return out


def random_oriented(n, p, seed):
    """Random instance without 2-circuits: arborescence plus one-way chords."""
    rng = random.Random(seed)
    arcs = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                a, b = (u, v) if rng.random() < 0.5 else (v, u)
                if (b, a) not in arcs:
                    arcs.add((a, b))
    d, _ = normalize(build(n, 0, sorted(arcs)))
    return d


def broom(k, m):
    """The path 0 -> 1 -> ... -> k plus m leaves k+1..k+m, each entered from
    1 and from k: every leaf's immediate dominator is 1, and a depth-first
    search down the path reaches each leaf from k with semidominator 1."""
    arcs = [(v, v + 1) for v in range(k)]
    for leaf in range(k + 1, k + m + 1):
        arcs += [(1, leaf), (k, leaf)]
    return build(k + m + 1, 0, arcs)


def dominator_chain(blocks, back, seed):
    """A chain of diamonds c_i -> a_i, b_i -> c_{i+1}, so that the c_i form a
    dominator path of depth `blocks`, plus `back` random arcs from a vertex
    to an earlier one (never to the root) and one vertex that only an
    unreachable vertex enters."""
    rng = random.Random(seed)
    n = 3 * blocks + 3
    arcs = []
    for i in range(blocks):
        c, a, b = 3 * i, 3 * i + 1, 3 * i + 2
        arcs += [(c, a), (c, b), (a, c + 3), (b, c + 3)]
    for _ in range(back):
        v = rng.randrange(1, 3 * blocks + 1)
        arcs.append((rng.randrange(v, 3 * blocks + 1), v))
    arcs.append((n - 2, n - 1))
    return build(n, 0, [(u, v) for u, v in arcs if u != v])


def two_connected_instances(count, n_lo, n_hi, seed_base, oriented=False,
                            p_lo=0.15, p_hi=0.5):
    """Rejection-sampled stream of 2-connected instances, deterministic in seed."""
    out = []
    seed = seed_base
    while len(out) < count:
        rng = random.Random(seed)
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(p_lo, p_hi)
        d = random_oriented(n, p, seed) if oriented else legacy_gen_random(n, p, seed)
        if d.n >= 4 and is_2connected(d):
            out.append(d)
        seed += 1
    return out


def random_undirected_graphs(count, n_hi, seed_base, p_lo=0.1, p_hi=0.6):
    """(vertices, edges) pairs of simple undirected graphs."""
    out = []
    for i in range(count):
        rng = random.Random(seed_base + i)
        n = rng.randint(2, n_hi)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.uniform(p_lo, p_hi)]
        out.append((list(range(n)), edges))
    return out


# -- independent oracles -------------------------------------------------


def simple_arcs(d):
    """The arcs (u, v) of d without the reverse arc (v, u)."""
    arcs = d.arc_set()
    return frozenset((u, v) for u, v in arcs if (v, u) not in arcs)


def brute_cutvertices(d):
    """Cutvertices by removing each vertex and re-running reachability."""
    return sorted(x for x in d.vertices if x != d.root
                  and len(reachable(d, {x})) < d.n - 1)


def brute_idom(d):
    """Immediate dominators by removing each vertex and re-running
    reachability: the strict dominators of a vertex form a chain, and its
    immediate dominator is the one with the most dominators of its own."""
    cut_off = {x: set(d.vertices) - reachable(d, {x}) - {x}
               for x in d.vertices if x != d.root}
    doms = {v: {d.root, v} | {x for x in cut_off if v in cut_off[x]} for v in d.vertices}
    idom = {d.root: d.root}
    for v in d.vertices:
        if v != d.root:
            idom[v] = max(doms[v] - {v}, key=lambda x: len(doms[x]))
    return idom


def iterative_idom(root, out_map, in_map):
    """Immediate dominators of the vertices reachable from `root` by Cooper,
    Harvey and Kennedy's iterative scheme: intersect the dominator chains of
    the processed in-neighbors over a reverse postorder until nothing
    changes."""
    order = []
    seen = {root}
    stack = [(root, iter(out_map[root]))]
    while stack:
        u, it = stack[-1]
        for v in it:
            if v not in seen:
                seen.add(v)
                stack.append((v, iter(out_map[v])))
                break
        else:
            order.append(u)
            stack.pop()
    order.reverse()
    index = {v: i for i, v in enumerate(order)}
    idom = {root: root}

    def intersect(a, b):
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            new = None
            for p in in_map[v]:
                if p in idom:
                    new = p if new is None else intersect(p, new)
            if new is not None and idom.get(v) != new:
                idom[v] = new
                changed = True
    return idom


def lengauer_tarjan_idom(root, out_map, in_map):
    """Immediate dominators of the vertices reachable from `root` on
    adjacency maps: Lengauer and Tarjan's algorithm, simple version with
    path compression ("A fast algorithm for finding dominators in a
    flowgraph", TOPLAS 1(1), 1979), over one depth-first numbering.  The
    neighbor collections may come in any order, since the dominator tree is
    unique; unreachable in-neighbors are ignored.  `dominators_from_maps`
    before Semi-NCA replaced it."""
    order = [root]  # vertices by depth-first number
    num = {root: 0}
    parent = [0]
    stack = [(0, iter(out_map[root]))]
    while stack:
        k, it = stack[-1]
        for v in it:
            if v not in num:
                num[v] = len(order)
                order.append(v)
                parent.append(k)
                stack.append((num[v], iter(out_map[v])))
                break
        else:
            stack.pop()
    size = len(order)
    semi = list(range(size))
    label = list(range(size))
    ancestor = [-1] * size  # the forest linked so far; -1 marks a tree root
    idom = [0] * size
    bucket = [[] for _ in range(size)]

    def evaluate(v):
        """The vertex of least semidominator on v's forest path, below its
        forest root, compressing that path."""
        if ancestor[v] < 0:
            return v
        chain = []
        u = v
        while ancestor[ancestor[u]] >= 0:
            chain.append(u)
            u = ancestor[u]
        for u in reversed(chain):
            a = ancestor[u]
            if semi[label[a]] < semi[label[u]]:
                label[u] = label[a]
            ancestor[u] = ancestor[a]
        return label[v]

    for w in range(size - 1, 0, -1):
        for p in in_map[order[w]]:
            k = num.get(p)
            if k is not None:
                s = semi[evaluate(k)]
                if s < semi[w]:
                    semi[w] = s
        bucket[semi[w]].append(w)
        p = parent[w]
        ancestor[w] = p
        for v in bucket[p]:
            u = evaluate(v)
            idom[v] = u if semi[u] < semi[v] else p
        bucket[p] = []
    for w in range(1, size):
        if idom[w] != semi[w]:
            idom[w] = idom[idom[w]]
    return {v: order[idom[k]] for k, v in enumerate(order)}


def tuple_stack_euler_intervals(root, parent):
    """Preorder entry/exit counters of the out-tree given by the parent map
    `parent`, each vertex's children visited in the map's order: a is a
    proper ancestor of v exactly when tin[a] < tin[v] and tout[v] < tout[a].
    `digraph.euler_intervals` as it was before it dropped the stack of
    `(vertex, done)` pairs."""
    children = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    tin, tout = {}, {}
    clock = 0
    stack = [(root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            tout[v] = clock
            clock += 1
            continue
        tin[v] = clock
        clock += 1
        stack.append((v, True))
        for c in reversed(children.get(v, ())):
            stack.append((c, False))
    return tin, tout


def sorting_format_graph(d):
    """Serialize with dense 0-based ids; records the id mapping when not dense.
    `graphio.format_graph` as it was before it took the arcs from the sorted
    out-lists instead of sorting the whole arc set."""
    order = list(d.vertices)
    newid = {v: i for i, v in enumerate(order)}
    lines = []
    if order != list(range(d.n)):
        pairs = " ".join(f"{newid[v]}={v}" for v in order)
        lines.append(f"# original-ids: {pairs}")
    arcs = sorted((newid[u], newid[v]) for u, v in d.arc_set())
    lines.append(f"{d.n} {len(arcs)} {newid[d.root]}")
    lines.extend(f"{u} {v}" for u, v in arcs)
    return "\n".join(lines) + "\n"


def rebuilt(d, step):
    """The digraph after one trace step, rebuilt from d's arc list: the
    immutable path that the in-place rewrites must agree with."""
    arcs = d.arcs()
    vertices = list(d.vertices)
    if isinstance(step, (Rule3Step, NormDeleteStep)):
        drop = {(step.y, step.x)} if isinstance(step, Rule3Step) else set(step.arcs)
        return RootedDigraph(vertices, d.root, [a for a in arcs if a not in drop])
    if isinstance(step, Rule1Step):
        keep = [a for a in arcs if step.x not in a] + list(step.shortcuts)
        return RootedDigraph([v for v in vertices if v != step.x], d.root, keep)
    keep, absorb = ((step.x, step.y) if isinstance(step, Rule2Step)
                    else (d.root, step.absorbed))
    merged = [(keep if u == absorb else u, keep if v == absorb else v) for u, v in arcs]
    return RootedDigraph([v for v in vertices if v != absorb], d.root,
                         [(u, v) for u, v in merged if u != v])


def relabelled(d, seed):
    """d with its vertex ids shuffled, so that id order no longer follows
    the construction order."""
    ids = random.Random(seed).sample(range(d.n), d.n)
    name = dict(zip(d.vertices, ids))
    return RootedDigraph(ids, name[d.root], [(name[u], name[v]) for u, v in d.arcs()])


def topological_order(d):
    """Topological order by Kahn's algorithm from every vertex without
    in-arcs, or None when the digraph has a cycle: the acyclicity oracle."""
    left = {v: d.indeg(v) for v in d.vertices}
    order = [v for v in d.vertices if not left[v]]
    for u in order:
        for v in d.out_neighbors(u):
            left[v] -= 1
            if not left[v]:
                order.append(v)
    return order if len(order) == d.n else None


def rule3_pairs(d):
    """`find_rule3`'s deletions as (x, y) pairs, by head and then tail."""
    return [(x, y) for x, tails in find_rule3(d) for y in tails]


def fan(k):
    """Root 0, the two-way chain 1 ... k, the root arcs into 1 and k, and
    an arc from every chain vertex to x = k + 1; raw, as built.  One probe
    at x lists the k - 2 tails 2 ... k - 1, so a rule 3 phase that probes
    x again after every deletion takes about k^2 steps."""
    chain = [(i, i + 1) for i in range(1, k)] + [(i + 1, i) for i in range(1, k)]
    return build(k + 2, 0, [(0, 1), (0, k)] + chain + [(i, k + 1) for i in range(1, k + 1)])


def per_arc_rule3(d, x, y):
    """Rule 3 decided for the single arc (y, x): the in-neighbors of x other
    than y and the root are not empty and cut y from the root."""
    removed = set(d.in_neighbors(x)) - {y, d.root}
    return bool(removed) and y not in reachable(d, removed)


def flow_disjoint_root_paths(d, target):
    """Two internally vertex-disjoint root paths to `target`, or None: a
    fresh node-split flow network per call, two BFS augmentations scanning
    neighbors in ascending order, paths read off by scanning every arc."""
    idx = {v: 2 * i for i, v in enumerate(d.vertices)}
    cap = defaultdict(int)
    for v in d.vertices:
        cap[(idx[v], idx[v] + 1)] = 2 if v in (d.root, target) else 1
    for u, v in d.arc_set():
        cap[(idx[u] + 1, idx[v])] = 1
    adj = defaultdict(set)
    for a, b in list(cap):
        adj[a].add(b)
        adj[b].add(a)
    s, t = idx[d.root] + 1, idx[target]
    for _ in range(2):
        prev = {s: None}
        queue = deque([s])
        while queue and t not in prev:
            a = queue.popleft()
            for b in sorted(adj[a]):
                if b not in prev and cap[(a, b)] > 0:
                    prev[b] = a
                    queue.append(b)
        if t not in prev:
            return None
        b = t
        while prev[b] is not None:
            a = prev[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
    flow_out = defaultdict(list)
    for u, v in d.arc_set():
        if cap[(idx[v], idx[u] + 1)] > 0:
            flow_out[u].append(v)
    for u in flow_out:
        flow_out[u].sort()
    paths = []
    for _ in range(2):
        path = [d.root]
        while path[-1] != target:
            path.append(flow_out[path[-1]].pop(0))
        paths.append(path)
    return paths


def root_path_lists(d):
    """d's out-lists as the `stnum.two_disjoint_root_paths` callers keep
    them: a list per vertex, ascending, without the arcs into the root."""
    out = {v: list(d.out_neighbors(v)) for v in d.vertices}
    for y in d.in_neighbors(d.root):
        out[y].remove(d.root)
    return out


class RootPathNetwork:
    """Node-split unit-capacity flow network of the digraph with root `root`
    and out-lists `out`, the oracle that `stnum.two_disjoint_root_paths`
    replaces.

    The i-th vertex of `out` becomes an in-node 2i and an out-node 2i + 1
    joined by edge 2i of capacity 1 (2 for the root); each arc (u, v), also
    one into the root, becomes an edge out(u) -> in(v) of capacity 1.  Edge
    e's residual twin is e ^ 1, so forward edges have even ids.  Every
    node's edge list is sorted by head, which makes augmenting paths break
    ties by ascending vertex id.
    """

    def __init__(self, root, out):
        self.root = root
        self.vertices = tuple(out)
        self.node = {v: 2 * i for i, v in enumerate(self.vertices)}
        self.head = []
        self.cap = []
        self.edges = [[] for _ in range(2 * len(self.vertices))]
        for v in self.vertices:
            self._add(self.node[v], self.node[v] + 1, 2 if v == root else 1)
        for u in self.vertices:
            for v in out[u]:
                self._add(self.node[u] + 1, self.node[v], 1)
        for edges in self.edges:
            edges.sort()

    def _add(self, a, b, capacity):
        e = len(self.head)
        self.head += [b, a]
        self.cap += [capacity, 0]
        self.edges[a].append((b, e))
        self.edges[b].append((a, e + 1))
        return e


def rescanning_disjoint_root_paths(network, target):
    """Two internally vertex-disjoint root paths to `target` in a
    `RootPathNetwork`, or None: two breadth-first augmentations on the
    network's capacities with the target's split edge at 2, each stopping
    when it reaches the target, the paths walked from the root along the
    flow, smallest first, and every capacity restored."""
    cap, edges, head = network.cap, network.edges, network.head
    s, t = network.node[network.root] + 1, network.node[target]
    saved = list(cap)
    cap[t] = 2
    try:
        for _ in range(2):
            via = {s: None}
            queue = deque([s])
            while queue and t not in via:
                a = queue.popleft()
                for b, e in edges[a]:
                    if cap[e] and b not in via:
                        via[b] = e
                        if b == t:
                            break
                        queue.append(b)
            if t not in via:
                return None
            b = t
            while via[b] is not None:
                e = via[b]
                cap[e] -= 1
                cap[e ^ 1] += 1
                b = head[e ^ 1]

        def flow_heads(a):
            return [b for b, e in edges[a] if not e & 1 and cap[e ^ 1]]

        paths = []
        for b in flow_heads(s):
            path = [network.root]
            while True:
                path.append(network.vertices[b // 2])
                if b == t:
                    break
                (b,) = flow_heads(b + 1)
            paths.append(path)
        return paths
    finally:
        cap[:] = saved


def rescanning_rr_numbering(d):
    """`rr_numbering` with the elimination loop rescanning every vertex per
    step: the loop test scans for a vertex without a root in-arc, and the
    candidate is the minimum of a fresh scan for outdegree at most 1."""
    r = d.root
    work = stnum.reduce_indegrees(d)
    work.without_arcs([(y, r) for y in work._in[r]])
    out, inn = work.owned_lists()
    records = []
    while any(r not in inn[v] for v in inn if v != r):
        candidates = [w for w in inn if w != r and len(out[w]) <= 1]
        if not candidates:
            work = stnum.reduce_indegrees(work)
            out, inn = work.owned_lists()
            continue
        v = min(candidates)
        v_out, v_in = out.pop(v), inn.pop(v)
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
        records.append((v, v_in - {r}, r in v_in, u, u_others, u_exempt))
    return tuple(listed_reinsertion(r, sorted(inn.keys() - {r}), records))


def _smallest_valid_gap(sigma, v_in, v_exempt, u, u_others, u_exempt):
    """Smallest index of sigma at which inserting v gives v a non-root
    in-neighbor on each side, unless v_exempt, and lands v after u when u is
    not exempt and u's other non-root in-neighbors all lie before it.  When
    they all lie after u, that index is before u (see `rr_numbering`)."""
    lo = 0
    if u is not None and not u_exempt:
        p = sigma.index(u)
        if all(sigma.index(w) < p for w in u_others):
            lo = p + 1
    if v_exempt:
        return lo
    return max(lo, min(sigma.index(w) for w in v_in) + 1)


def listed_reinsertion(r, remaining, records):
    """`stnum._reinserted` on a Python list: each vertex goes in at the
    index `_smallest_valid_gap` finds with `list.index`."""
    sigma = list(remaining)
    for v, *constraints in reversed(records):
        sigma.insert(_smallest_valid_gap(sigma, *constraints), v)
    return sigma


def any_scan_validate_numbering(d, order):
    """`validate_numbering` with two `any` scans per vertex."""
    expected = set(d.vertices) - {d.root}
    if len(order) != len(expected) or set(order) != expected:
        return False
    pos = {v: i for i, v in enumerate(order)}
    root_out = set(d.root_out())
    for x in order:
        if x in root_out:
            continue
        p = pos[x]
        before = any(u != d.root and pos[u] < p for u in d.in_neighbors(x))
        after = any(u != d.root and pos[u] > p for u in d.in_neighbors(x))
        if not (before and after):
            return False
    return True


def rescanning_majbound_tree(d, cls, paths):
    """`majbound_tree` with a breadth-first search from every reached
    vertex, in ascending order, for each special it connects."""
    parent = {}
    reached = {d.root}
    pending = set(cls.special)
    while pending:
        prev = {}
        queue = deque(sorted(reached))
        target = None
        while queue and target is None:
            a = queue.popleft()
            for b in d.out_neighbors(a):
                if b in reached or b in prev:
                    continue
                prev[b] = a
                if b in pending:
                    target = b
                    break
                if b in cls.nonspecial:
                    queue.append(b)
        v = target
        while v not in reached:
            parent[v] = prev[v]
            reached.add(v)
            v = prev[v]
        pending.discard(target)
    for p in paths:
        verts = p.vertices
        for i, v in enumerate(verts):
            if v not in reached:
                parent[v] = verts[i - 1] if i else p.anchors[0]
                reached.add(v)
    return Outbranching(d.root, parent)


# -- the bound trees on built digraphs, before `acyclic_many_leaves` took
# in-lists ------------------------------------------------------------------


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
    x = frozenset(vertex_cover_third(b, [d.in_neighbors(v) for v in a]))
    c = frozenset(x | y | {d.root})
    return DominationScaffold(sink, z, y, a_dom, a, b, x, c)


def digraph_many_leaves(d):
    """`bounds.acyclic_many_leaves` on a `RootedDigraph`: out-tree of an
    acyclic connected rooted digraph with at least (l + d(r) - 1)/3 + 1
    leaves, where l counts the indegree->=2 vertices."""
    if topological_order(d) is None:
        raise ValueError("digraph has a directed cycle")
    if not is_connected(d):
        raise ValueError("digraph is not connected from the root")
    trimmed = trim_to_indegree_two(d)
    tree = grow_tree(trimmed, internal=domination_scaffold(trimmed).c)
    if len(tree.parent) != d.n - 1:
        raise InternalInvariantError("dominating set did not span the digraph")
    return tree


@dataclass(frozen=True)
class TransverseDecomposition:
    """Forward/backward spanning trees of the numbered digraph, their
    transverse arcs, and the left/right split of the chosen tree's arcs.

    Every non-root vertex that is not a root outneighbor takes one parent
    from each side of `stnum.in_sides`, its smallest in-neighbor there;
    a nice vertex instead takes its smallest simple in-neighbor on that
    in-neighbor's side.  Root outneighbors take the root in both trees.
    """

    t_f: Outbranching
    t_b: Outbranching
    transverse_f: frozenset
    transverse_b: frozenset
    chosen: str           # "forward" or "backward"
    s_left: frozenset
    s_right: frozenset
    union: RootedDigraph  # opposite tree plus the larger transverse side


def transverse_decomposition(d, sides):
    """The decomposition of d for the `in_sides` split `sides`.  A nice
    vertex's anchor is never r, since r's outneighbors take r, so its side
    is the side whose in-list holds it."""
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
    t_f = Outbranching(r, parent_f)
    t_b = Outbranching(r, parent_b)

    tin_f, tout_f = euler_intervals(t_f.root, t_f.parent)
    tin_b, tout_b = euler_intervals(t_b.root, t_b.parent)

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
    return TransverseDecomposition(t_f, t_b, transverse_f, transverse_b,
                                   chosen, s_left, s_right, union)


def splitting_bound1_tree(d, num):
    """`bound1_tree` building both numbering-induced covers with
    `split`, which validates the numbering again, and keeping the one
    with more indegree-2 vertices."""
    parts = split(d, num)
    best, best_count = None, -1
    for part in (parts.forward, parts.backward):
        count = sum(1 for v in part.vertices if part.indeg(v) >= 2)
        if count > best_count:
            best, best_count = part, count
    return digraph_many_leaves(best)


@dataclass(frozen=True)
class TrimmedDecomposition:
    """`TransverseDecomposition` with the indegree-trimmed digraph
    its trees were read from."""

    numbering: stnum.RRNumbering
    trimmed: RootedDigraph
    t_f: Outbranching
    t_b: Outbranching
    transverse_f: frozenset
    transverse_b: frozenset
    chosen: str
    s_left: frozenset
    s_right: frozenset
    union: RootedDigraph


def _trim_one_forward_one_backward(d, num):
    """One incoming forward and one incoming backward arc per non-root vertex,
    keeping a simple in-arc for every nice vertex."""
    simple = simple_arcs(d)
    pos = {v: i for i, v in enumerate(num.order)}
    root_out = set(d.root_out())
    arcs = [(d.root, y) for y in root_out]
    for v in d.vertices:
        if v == d.root or v in root_out:
            continue
        fwd = [u for u in d.in_neighbors(v) if pos[u] < pos[v]]
        bwd = [u for u in d.in_neighbors(v) if pos[u] > pos[v]]
        simple_in = [u for u in d.in_neighbors(v) if (u, v) in simple]
        if simple_in:
            anchor = simple_in[0]
            if pos[anchor] < pos[v]:
                keep_f, keep_b = anchor, bwd[0]
            else:
                keep_f, keep_b = fwd[0], anchor
        else:
            keep_f, keep_b = fwd[0], bwd[0]
        arcs.append((keep_f, v))
        arcs.append((keep_b, v))
    return RootedDigraph(d.vertices, d.root, arcs)


def trimming_transverse_decomposition(d, num):
    """`transverse_decomposition` reading both trees from a trimmed digraph
    with one forward and one backward in-arc per vertex, built from its own
    forward/backward test and its own classification."""
    trimmed = _trim_one_forward_one_backward(d, num)
    pos = {v: i for i, v in enumerate(num.order)}
    root_out = set(trimmed.root_out())

    parent_f, parent_b = {}, {}
    for v in trimmed.vertices:
        if v == trimmed.root:
            continue
        if v in root_out:
            parent_f[v] = trimmed.root
            parent_b[v] = trimmed.root
            continue
        for u in trimmed.in_neighbors(v):
            if pos[u] < pos[v]:
                parent_f[v] = u
            else:
                parent_b[v] = u
    t_f = Outbranching(trimmed.root, parent_f)
    t_b = Outbranching(trimmed.root, parent_b)

    tin_f, tout_f = euler_intervals(t_f.root, t_f.parent)
    tin_b, tout_b = euler_intervals(t_b.root, t_b.parent)

    def incomparable(u, v, tin, tout):
        return tout[v] < tin[u] or tout[u] < tin[v]

    transverse_f = frozenset((u, v) for v, u in parent_f.items()
                             if u != trimmed.root and incomparable(u, v, tin_b, tout_b))
    transverse_b = frozenset((u, v) for v, u in parent_b.items()
                             if u != trimmed.root and incomparable(u, v, tin_f, tout_f))

    if len(transverse_f) >= len(transverse_b):
        chosen, trans, t_opp, tin, tout = "forward", transverse_f, t_b, tin_b, tout_b
    else:
        chosen, trans, t_opp, tin, tout = "backward", transverse_b, t_f, tin_f, tout_f

    s_left = frozenset((u, v) for u, v in trans if tout[v] < tin[u])
    s_right = frozenset((u, v) for u, v in trans if tout[u] < tin[v])
    side = s_left if len(s_left) >= len(s_right) else s_right
    union_arcs = list(side) + [(p, c) for c, p in t_opp.parent.items()]
    union = RootedDigraph(trimmed.vertices, trimmed.root, union_arcs)
    return TrimmedDecomposition(num, trimmed, t_f, t_b, transverse_f,
                                transverse_b, chosen, s_left, s_right, union)


def checked_reduce_indegrees(d):
    """Indegree reduction that deletes the in-arcs of each high-indegree
    vertex not ending a disjoint root path pair one at a time, keeping a
    deletion only when a full 2-connectivity check of the result passes."""
    if not is_2connected(d):
        raise ValueError("indegree reduction requires a 2-connected digraph")
    work = d
    for x in work.vertices:
        if x == work.root or work.indeg(x) <= 2:
            continue
        while work.indeg(x) > 2:
            paths = flow_disjoint_root_paths(work, x)
            if paths is None:
                raise InternalInvariantError(f"no disjoint path pair to {x}")
            keep = {(p[-2], x) for p in paths}
            progressed = False
            for y in work.in_neighbors(x):
                if work.indeg(x) <= 2:
                    break
                if (y, x) in keep:
                    continue
                cand = work.without_arcs([(y, x)])
                if is_2connected(cand):
                    work = cand
                    progressed = True
            if not progressed and work.indeg(x) > 2:
                raise InternalInvariantError(f"cannot reduce indegree of {x}")
    return work


def checked_reduce_to_work(d):
    """`checked_reduce_indegrees` in the shape of `stnum.reduce_indegrees`:
    a working result, for a frozen or working input that it leaves
    unchanged."""
    if not d.frozen:
        d = d.thaw().freeze()
    return checked_reduce_indegrees(d).thaw()


def resorting_vertex_cover(vertices, edges):
    """Greedy vertex cover that re-sorts the vertices after every pick and
    takes the smallest one of degree at least 2, then one endpoint per edge
    of the remaining matching."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    cover = set()
    while True:
        heavy = [v for v in sorted(adj) if len(adj[v]) >= 2]
        if not heavy:
            break
        v = heavy[0]
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
        cover.add(v)
    for v in sorted(adj):
        if adj[v]:
            (w,) = adj[v]
            adj[w].clear()
            adj[v].clear()
            cover.add(v)
    return cover


def recomputing_strip(d, steps):
    """Rule 1 to exhaustion with a fresh dominator pass (`find_cutvertex`)
    before every rewrite, re-normalizing after each."""
    while True:
        x = find_cutvertex(d)
        if x is None:
            return d
        d, st = apply_rule1(d, x)
        steps.append(st)
        d = renormalize(d, steps)


def rescanning_rule2_phase(d, steps):
    """Rule 2 to exhaustion with a fresh `find_bipath4` scan before every
    contraction, re-normalizing after each."""
    p = find_bipath4(d)
    while p is not None:
        d, st = apply_rule2(d, p)
        steps.append(st)
        d = renormalize(d, steps)
        p = find_bipath4(d)
    return d


def fixpoint_kernelize(d):
    """Rule 1 to exhaustion, rule 3 to exhaustion, then one rule 2
    contraction, re-normalizing after every rewrite, in a loop that repeats
    until a whole round rewrites nothing."""
    if not is_connected(d):
        raise InfeasibleError("some vertex is unreachable from the root")
    steps = []
    work = d
    while True:
        before = len(steps)
        work = strip_cutvertices(work, steps)
        while True:
            found = find_rule3(work)  # applies one arc, then scans again
            if not found:
                break
            x, tails = found[0]
            work, st = apply_rule3(work, x, tails[0])
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


def walked_illegal_arcs(d):
    """`digraph._illegal_arcs` before the recorded heads: the root's in-list
    and every root outneighbor's in-list, walked in full."""
    r = d.root
    bad = [(u, r) for u in d._in[r]]
    for v in d._out[r]:
        bad.extend((u, v) for u in d._in[v] if u != r)
    return sorted(bad)


def _lift_rule1(step, tree):
    children = {}
    for c, p in tree.parent.items():
        children.setdefault(p, []).append(c)
    non_leaves = [y for y in step.in_nbrs if children.get(y)]
    if not non_leaves:
        raise InternalInvariantError(
            f"no non-leaf in-neighbor of {step.x} to re-attach it to")

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
    out_set = set(step.out_nbrs)
    for y in non_leaves:
        for z in children[y]:
            if z in out_set:
                parent[z] = step.x
    parent[step.x] = y_i
    return Outbranching(tree.root, parent)


def _lift_rule2(step, tree):
    parent = dict(tree.parent)
    p = parent.get(step.x)
    if p == step.z:
        parent[step.y] = step.z
        parent[step.x] = step.y
    elif p == step.u:
        parent[step.y] = step.x
        if parent.get(step.z) == step.x:
            parent[step.z] = step.y
    else:
        raise InternalInvariantError(
            f"merged vertex {step.x} has parent {p}, expected {step.u} or {step.z}")
    return Outbranching(tree.root, parent)


def _lift_merge(step, tree):
    root = tree.root
    parent = {c: (step.absorbed if p == root else p) for c, p in tree.parent.items()}
    parent[step.absorbed] = root
    return Outbranching(root, parent)


def stepwise_lift(tree, trace):
    """`reduce.lift` before the one map: each step copies the tree and
    lifts it on its own, from the last step to the first."""
    lifts = {Rule1Step: _lift_rule1, Rule2Step: _lift_rule2, NormMergeStep: _lift_merge}
    for step in reversed(trace.steps):
        if type(step) in lifts:
            tree = lifts[type(step)](step, tree)
    return tree


def brute_min_vertex_cover(vertices, edges):
    """Smallest vertex cover by subset enumeration."""
    vertices = list(vertices)
    edges = list(edges)
    for size in range(len(vertices) + 1):
        for sub in combinations(vertices, size):
            s = set(sub)
            if all(u in s or v in s for u, v in edges):
                return s
    raise AssertionError("unreachable")


def all_rule_applications(d):
    """Every single rule application available on d: (kind, payload) pairs."""
    apps = [("rule1", x) for x in idom_cutvertices(d)]
    apps += [("rule3", pair) for pair in rule3_pairs(d)]
    apps += [("rule2", p) for p in (_bipath_at(d, y) for y in d.vertices) if p]
    return apps


def tree_ancestors(tree, v):
    anc = []
    while v in tree.parent:
        v = tree.parent[v]
        anc.append(v)
    return anc


def is_ancestor(tree, a, v):
    return a in tree_ancestors(tree, v)


# -- the hand-written searches that `digraph.search` replaced ----------------


def looped_reach(root, out_map, removed=()):
    """`digraph.reachable`'s search before `digraph.search`."""
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in out_map[u]:
            if v not in seen and v not in removed:
                seen.add(v)
                queue.append(v)
    return seen


def looped_grow_tree(d, internal=None, parent=None):
    """`digraph.grow_tree` before `digraph.search`."""
    parent = dict(parent or {})
    queue = deque(sorted({d.root, *parent}))
    placed = set(queue)
    while queue:
        u = queue.popleft()
        for v in d._out[u]:
            if v not in placed:
                placed.add(v)
                parent[v] = u
                if internal is None or v in internal:
                    queue.append(v)
    return Outbranching(d.root, parent)


def looped_verify_outbranching(d, t):
    """`digraph.verify_outbranching` before `digraph.search`."""
    expected = set(d.vertices) - {d.root}
    if t.root != d.root:
        return VerifyResult(False, None, f"tree root {t.root} != digraph root {d.root}")
    if set(t.parent) != expected:
        missing = expected - set(t.parent)
        extra = set(t.parent) - expected
        if missing:
            return VerifyResult(False, None, f"no parent for vertices {sorted(missing)}")
        return VerifyResult(False, None, f"unexpected tree vertices {sorted(extra)}")
    for c, p in t.parent.items():
        if not d.has_arc(p, c):
            return VerifyResult(False, None, f"tree arc ({p}, {c}) is not an arc of the digraph")
    children = {}
    for c, p in t.parent.items():
        children.setdefault(p, []).append(c)
    seen = {d.root}
    queue = deque([d.root])
    while queue:
        u = queue.popleft()
        for c in children.get(u, ()):
            seen.add(c)
            queue.append(c)
    if len(seen) != d.n:
        stray = sorted(set(d.vertices) - seen)
        return VerifyResult(False, None, f"vertices {stray} not reachable inside the tree")
    return VerifyResult(True, t.leaf_count)


def looped_root_path_tree(out, root):
    """The tree and ranks of `stnum.root_path_tree` before `digraph.search`,
    as (tree, rank)."""
    parent = {root: None}
    queue = [root]
    for u in queue:
        for v in out[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent, {v: i for i, v in enumerate(queue)}


def looped_path_to_pending(d, reached, pending, nonspecial):
    """`approx._path_to_pending` before `digraph.search`."""
    prev = {}
    queue = deque(sorted(reached))
    while queue:
        a = queue.popleft()
        for b in d.out_neighbors(a):
            if b in reached or b in prev:
                continue
            prev[b] = a
            if b in pending:
                return b, prev
            if b in nonspecial:
                queue.append(b)
    raise InternalInvariantError("unreached special vertex in a connected digraph")


def looped_large_indegree_witness(d, x):
    """`reduce.large_indegree_witness` before `digraph.search`: one
    `looped_grow_tree` per in-neighbor."""
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
        bfs = looped_grow_tree(d, internal=set(d.vertices) - blocked).parent
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

    tree = looped_grow_tree(d, parent=parent)
    if len(tree.parent) != d.n - 1:
        raise InternalInvariantError("witness tree failed to span the digraph")
    return tree


def enumerating_exact(d, limit=DEFAULT_LIMIT):
    """`maxleaf_exact` before the forced and useless vertices: every subset
    of the non-root vertices, in increasing size, each size in
    lexicographic order."""
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
                raise InternalInvariantError("optimal internal set produced a suboptimal tree")
            return ExactResult(maxleaf, witness, explored)
    raise InternalInvariantError("no internal set found on a connected instance")


def approx_core(d):
    """The 2-connected core that `approx.approximate` numbers and
    classifies: d renormalized and stripped of its cutvertices."""
    steps = []
    work = strip_cutvertices(renormalize(d.thaw(), steps), steps)
    return work.freeze() if steps else d


def chain_cores():
    """Cores rich in chains of non-special vertices, for the chain and
    bound-2 oracles: relabelled t_l(3..16) and boloney, necklaces, combs,
    random instances and the feasible raw digraphs of `raw_digraph`."""
    inputs = [relabelled(gen_t_l(l), l) for l in range(3, 17)]
    inputs += [relabelled(gen_boloney(k), k) for k in (3, 5, 8, 13, 21, 34, 60)]
    inputs += [gen_necklace(size) for size in range(6, 31, 2)]
    inputs += [gen_comb(size) for size in range(3, 16)]
    inputs += random_instances(40, 8, 60, seed_base=7700)
    inputs += chain_planted_corpus(30, 7800, raw=False)
    inputs += [raw_digraph(seed) for seed in range(7900, 7980)]
    return [approx_core(d) for d in inputs if is_connected(d)]


def legacy_weak_bipaths(d, cls):
    """`approx.weak_bipaths` before its chains were read by list
    membership, kept verbatim as the oracle for it.

    Partition of the non-special vertices of `cls = classify(d)` into
    maximal chains.

    Every non-special vertex has exactly two in-neighbors, both joined to it
    by 2-circuits; anything else signals a classification bug.
    """
    ns = cls.nonspecial
    chain_nbrs = {}
    anchor_of = {}
    for v in sorted(ns):
        nbrs = d.in_neighbors(v)
        if len(nbrs) != 2 or not all(d.has_arc(v, u) for u in nbrs):
            raise InternalInvariantError(
                f"non-special vertex {v} lacks the two-2-circuit in-neighbor shape")
        chain_nbrs[v] = [u for u in nbrs if u in ns]
        anchor_of[v] = [u for u in nbrs if u not in ns]
    paths = []
    seen = set()
    for v in sorted(ns):
        if v in seen or len(chain_nbrs[v]) == 2:
            continue
        chain = [v]
        seen.add(v)
        prev, cur = v, next((w for w in chain_nbrs[v] if w not in seen), None)
        while cur is not None:
            chain.append(cur)
            seen.add(cur)
            nxt = next((w for w in chain_nbrs[cur] if w != prev), None)
            prev, cur = cur, nxt
        if chain[-1] < chain[0]:
            chain.reverse()
        first, last = chain[0], chain[-1]
        if len(chain) == 1:
            a, b = sorted(anchor_of[v])
            anchors = (a, b)
        else:
            anchors = (anchor_of[first][0], anchor_of[last][0])
        for a in anchors:
            if a not in cls.special:
                raise InternalInvariantError(f"chain anchor {a} is not special")
        paths.append(WeakBipath(tuple(chain), anchors))
    if len(seen) != len(ns):
        raise InternalInvariantError("non-special vertices contain a 2-circuit cycle")
    return paths


def legacy_bound2_tree(d, sides):
    """`bounds.bound2_tree` before its anchors were read by list
    membership, kept verbatim as the oracle for it.

    Out-tree with at least l/24 leaves, l = number of nice vertices.

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

"""Root-to-root numberings of 2-connected rooted digraphs.

A numbering is a linear order of the non-root vertices in which every vertex
that is not an outneighbor of r has an in-neighbor on each side.  Splitting
the arcs into the increasing (forward) and decreasing (backward) families,
each together with the out-arcs of r, gives two acyclic connected spanning
subdigraphs that share exactly the out-arcs of r.

Construction first deletes in-arcs of high-indegree vertices until every
non-root vertex has indegree at most 2 (keeping 2-connectivity), then
repeatedly eliminates a vertex of outdegree 0 (delete) or 1 (contract into
its outneighbor), and finally reinserts the eliminated vertices into the
order, each placed so that its own and its outneighbor's side constraints
hold.
"""
from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from .digraph import RootedDigraph, is_2connected, is_2connected_from_maps
from .errors import InternalInvariantError


@dataclass(frozen=True)
class RRNumbering:
    order: tuple
    position: dict

    def __len__(self):
        return len(self.order)

    def reversed(self):
        order = tuple(reversed(self.order))
        return RRNumbering(order, {v: i for i, v in enumerate(order)})


@dataclass(frozen=True)
class NumberingSplit:
    forward: RootedDigraph
    backward: RootedDigraph


def validate_numbering(d, order):
    """True when `order` lists the non-root vertices once and every vertex
    that is not an outneighbor of r has in-neighbors on both sides."""
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


def split(d, numbering):
    """Forward and backward subdigraphs induced by a valid numbering."""
    if not validate_numbering(d, numbering.order):
        raise ValueError("numbering is not valid for this digraph")
    pos = numbering.position
    fwd, bwd = [], []
    for u, v in d.arc_set():
        if u == d.root:
            fwd.append((u, v))
            bwd.append((u, v))
        elif pos[u] < pos[v]:
            fwd.append((u, v))
        else:
            bwd.append((u, v))
    return NumberingSplit(RootedDigraph(d.vertices, d.root, fwd),
                          RootedDigraph(d.vertices, d.root, bwd))


# -- indegree reduction -------------------------------------------------


def two_disjoint_root_paths(d, target):
    """Two internally vertex-disjoint paths from the root to `target`, or None.

    Unit vertex capacities via node splitting, two BFS augmentations.
    """
    if target == d.root:
        raise ValueError("target must differ from the root")
    idx = {v: 2 * i for i, v in enumerate(d.vertices)}

    def nin(v):
        return idx[v]

    def nout(v):
        return idx[v] + 1

    cap = defaultdict(int)
    for v in d.vertices:
        cap[(nin(v), nout(v))] = 2 if v in (d.root, target) else 1
    for u, v in d.arc_set():
        cap[(nout(u), nin(v))] = 1
    adj = defaultdict(set)
    for a, b in list(cap):
        adj[a].add(b)
        adj[b].add(a)
    s, t = nout(d.root), nin(target)
    sent = 0
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
            break
        b = t
        while prev[b] is not None:
            a = prev[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        sent += 1
    if sent < 2:
        return None
    flow_out = defaultdict(list)
    for u, v in d.arc_set():
        if cap[(nin(v), nout(u))] > 0:
            flow_out[u].append(v)
    for u in flow_out:
        flow_out[u].sort()
    paths = []
    for _ in range(2):
        path = [d.root]
        cur = d.root
        while cur != target:
            nxt = flow_out[cur].pop(0)
            path.append(nxt)
            cur = nxt
        paths.append(path)
    return paths


def reduce_indegrees(d):
    """Delete in-arcs until every non-root vertex has indegree at most 2.

    For each high-indegree vertex the two in-arcs carried by a pair of
    internally disjoint root paths are kept; every other in-arc is deleted
    one at a time, each deletion validated by a full 2-connectivity check.
    """
    if not is_2connected(d):
        raise ValueError("indegree reduction requires a 2-connected digraph")
    work = d
    for x in work.vertices:
        if x == work.root or work.indeg(x) <= 2:
            continue
        while work.indeg(x) > 2:
            paths = two_disjoint_root_paths(work, x)
            if paths is None:
                raise InternalInvariantError(f"no disjoint path pair to {x} in a 2-connected digraph")
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
                raise InternalInvariantError(f"cannot reduce indegree of {x} below {work.indeg(x)}")
    return work


# -- numbering construction --------------------------------------------


def _trim_indegree(root, out, inn, u):
    for y in sorted(inn[u]):
        if len(inn[u]) <= 2:
            return
        out[y].discard(u)
        inn[u].discard(y)
        if not is_2connected_from_maps(root, out, inn):
            out[y].add(u)
            inn[u].add(y)
    if len(inn[u]) > 2:
        raise InternalInvariantError(f"indegree of contracted vertex {u} stuck above 2")


def _smallest_valid_gap(sigma, in_positions, exempt, side_pivot=None, side_after=None):
    """Smallest insertion index with an in-neighbor on each side (unless
    exempt) and, when side_pivot is given, landing before it iff side_after."""
    for g in range(len(sigma) + 1):
        if side_pivot is not None:
            before_pivot = g <= side_pivot
            if before_pivot != side_after:
                continue
        if not exempt:
            if not any(q < g for q in in_positions):
                continue
            if not any(q >= g for q in in_positions):
                continue
        return g
    raise InternalInvariantError("no valid insertion gap for numbering expansion")


def rr_numbering(d):
    """A valid root-to-root numbering of a 2-connected rooted digraph."""
    if not is_2connected(d):
        raise ValueError("numbering requires a 2-connected digraph")
    r = d.root
    if d.n == 1:
        return RRNumbering((), {})
    base = reduce_indegrees(d)
    verts = set(base.vertices)
    out = {v: set(base.out_neighbors(v)) for v in verts}
    inn = {v: set(base.in_neighbors(v)) for v in verts}
    records = []
    while True:
        nonroot = verts - {r}
        if all(r in inn[v] for v in nonroot):
            sigma = sorted(nonroot)
            break
        v = min(w for w in nonroot if len(out[w]) <= 1)
        exempt = r in inn[v]
        in_nbrs = tuple(sorted(inn[v] - {r}))
        if not out[v]:
            records.append(("remove", v, exempt, in_nbrs))
            for y in inn[v]:
                out[y].discard(v)
            del out[v], inn[v]
            verts.discard(v)
        else:
            (u,) = out[v]
            others = inn[u] - {v}
            if len(others) != 1:
                raise InternalInvariantError(f"outneighbor {u} of {v} lacks a second in-neighbor")
            (w,) = others
            records.append(("expand", v, u, w if w != r else None, exempt, in_nbrs))
            # contract v into u
            for y in inn[v]:
                out[y].discard(v)
                if y != u:
                    out[y].add(u)
                    inn[u].add(y)
            inn[u].discard(v)
            out[u].discard(v)
            del out[v], inn[v]
            verts.discard(v)
            if len(inn[u]) > 2:
                _trim_indegree(r, out, inn, u)

    for rec in reversed(records):
        if rec[0] == "remove":
            _, v, exempt, in_nbrs = rec
            if exempt:
                sigma.insert(0, v)
            else:
                positions = sorted(sigma.index(a) for a in in_nbrs)
                sigma.insert(positions[0] + 1, v)
        else:
            _, v, u, w, exempt, in_nbrs = rec
            p = sigma.index(u)
            in_positions = [sigma.index(a) for a in in_nbrs]
            if w is None:
                g = _smallest_valid_gap(sigma, in_positions, exempt)
            else:
                w_after = sigma.index(w) > p
                g = _smallest_valid_gap(sigma, in_positions, exempt,
                                        side_pivot=p, side_after=w_after)
            sigma.insert(g, v)

    if not validate_numbering(d, sigma):
        raise InternalInvariantError("constructed numbering failed validation")
    order = tuple(sigma)
    return RRNumbering(order, {v: i for i, v in enumerate(order)})

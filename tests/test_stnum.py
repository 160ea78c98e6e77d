import random

import pytest

from maxleaf import stnum
from maxleaf.digraph import (RootedDigraph, build, is_2connected, normalize, reachable,
                             verify_outbranching)
from maxleaf.gen import gen_boloney, gen_random, gen_t_l
from maxleaf.reduce import renormalize, strip_cutvertices
from maxleaf.stnum import (RootPathNetwork, reduce_indegrees, rr_numbering,
                           split, two_disjoint_root_paths, validate_numbering)
from maxleaf.bounds import bound1_tree, bound2_tree, topological_order

from support import (checked_reduce_indegrees, flow_disjoint_root_paths, relabelled,
                     rescanning_disjoint_root_paths, rescanning_rr_numbering,
                     two_connected_instances)


def sandwich_example():
    return build(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_numbering_on_forced_example():
    d = sandwich_example()
    num = rr_numbering(d)
    assert validate_numbering(d, num.order)
    # vertex 3 must sit strictly between its in-neighbors 1 and 2
    pos = num.position
    assert min(pos[1], pos[2]) < pos[3] < max(pos[1], pos[2])


def test_reversed_numbering_is_valid():
    d, _ = normalize(gen_t_l(3))
    num = rr_numbering(d)
    assert validate_numbering(d, num.reversed().order)


def test_validate_rejects_one_sided_vertex():
    d = sandwich_example()
    assert not validate_numbering(d, (3, 1, 2))  # both in-neighbors after 3
    assert not validate_numbering(d, (1, 2))     # not a permutation


def test_reduce_indegrees_noop_when_small():
    d, _ = normalize(gen_t_l(3))
    assert reduce_indegrees(d) == d


def test_reduce_indegrees_trims_funnel():
    d = build(5, 0, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    assert is_2connected(d)
    red = reduce_indegrees(d)
    assert red.indeg(4) == 2
    assert is_2connected(red)
    assert red.arc_set() <= d.arc_set()


def test_reduce_indegrees_on_corpus():
    for d in two_connected_instances(20, 5, 12, seed_base=40, p_lo=0.3, p_hi=0.6):
        red = reduce_indegrees(d)
        assert is_2connected(red)
        assert all(red.indeg(v) <= 2 for v in red.vertices if v != red.root)
        assert red.arc_set() <= d.arc_set()
        # only in-arcs of high-indegree vertices were touched
        for u, v in d.arc_set() - red.arc_set():
            assert d.indeg(v) >= 3


def test_reduce_indegrees_rejects_cut():
    with pytest.raises(ValueError):
        reduce_indegrees(build(3, 0, [(0, 1), (1, 2)]))


def test_two_disjoint_root_paths():
    d = sandwich_example()
    paths = two_disjoint_root_paths(RootPathNetwork(d), 3)
    assert paths is not None
    a, b = paths
    assert a[0] == b[0] == 0 and a[-1] == b[-1] == 3
    assert not (set(a[1:-1]) & set(b[1:-1]))
    path = build(3, 0, [(0, 1), (1, 2)])
    assert two_disjoint_root_paths(RootPathNetwork(path), 2) is None


def test_numbering_on_families():
    for d in [gen_boloney(3), normalize(gen_t_l(3))[0], normalize(gen_t_l(4))[0]]:
        num = rr_numbering(d)
        assert validate_numbering(d, num.order)


def test_numbering_rejects_non_2connected():
    with pytest.raises(ValueError):
        rr_numbering(build(3, 0, [(0, 1), (1, 2)]))


def test_numbering_deterministic():
    d = two_connected_instances(1, 8, 12, seed_base=9)[0]
    assert rr_numbering(d).order == rr_numbering(d).order


def test_split_example():
    d = sandwich_example()
    num = rr_numbering(d)
    parts = split(d, num)
    root_arcs = {(0, 1), (0, 2)}
    assert root_arcs <= parts.forward.arc_set()
    assert root_arcs <= parts.backward.arc_set()
    assert parts.forward.arc_set() | parts.backward.arc_set() == d.arc_set()
    assert parts.forward.arc_set() & parts.backward.arc_set() == root_arcs


def test_split_two_circuit_goes_both_ways():
    d = build(3, 0, [(0, 1), (0, 2), (1, 2), (2, 1)])
    parts = split(d, rr_numbering(d))
    assert ((1, 2) in parts.forward.arc_set()) != ((1, 2) in parts.backward.arc_set())
    assert ((2, 1) in parts.forward.arc_set()) != ((2, 1) in parts.backward.arc_set())


def test_split_rejects_invalid_numbering():
    from maxleaf.stnum import RRNumbering
    d = sandwich_example()
    bad = RRNumbering((3, 1, 2), {3: 0, 1: 1, 2: 2})
    with pytest.raises(ValueError):
        split(d, bad)


def test_split_properties_on_corpus():
    for d in two_connected_instances(25, 5, 13, seed_base=600):
        num = rr_numbering(d)
        parts = split(d, num)
        for part in (parts.forward, parts.backward):
            assert topological_order(part) is not None
            assert len(reachable(part)) == d.n
            assert all(part.indeg(v) >= 1 for v in part.vertices if v != part.root)
        dr = d.outdeg(d.root)
        assert parts.forward.m + parts.backward.m == d.m + dr
        assert 2 * (max(parts.forward.m, parts.backward.m) - dr) >= d.m - dr


def raw_two_connected_with_root_in_arcs(count, seed_base):
    """Seeded stream of raw 2-connected digraphs, n 3-9, with arcs into the root."""
    out = []
    seed = seed_base
    while len(out) < count:
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        p = rng.uniform(0.25, 0.6)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        d = build(n, rng.randrange(n), arcs)
        if d.indeg(d.root) and is_2connected(d):
            out.append(d)
        seed += 1
    return out


def test_numbering_and_bound_trees_with_root_in_arcs():
    minimal = build(4, 0, [(0, 2), (0, 3), (1, 0), (2, 1), (3, 1)])
    for d in [minimal] + raw_two_connected_with_root_in_arcs(150, seed_base=3100):
        num = rr_numbering(d)
        assert validate_numbering(d, num.order)
        for tree in (bound1_tree(d, num), bound2_tree(d, num)):
            assert verify_outbranching(d, tree).ok


def cutvertex_free_core(d):
    """The normalized, cutvertex-free core that `approximate` numbers."""
    return strip_cutvertices(renormalize(d, []), [])


def oracle_corpus():
    """Seeded 2-connected cores: gen_random at p = 4/n (n 20-60) and at
    p in 0.3-0.6 (n 6-24), plus t_l and boloney."""
    out = []
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(20, 60)
        out.append(cutvertex_free_core(gen_random(n, 4 / n, 7000 + seed)))
    out += two_connected_instances(30, 6, 24, seed_base=7100, p_lo=0.3, p_hi=0.6)
    out += [normalize(gen_t_l(l))[0] for l in range(2, 7)]
    out += [gen_boloney(k) for k in range(2, 9)]
    return [d for d in out if d.n >= 3]


def test_reduce_indegrees_matches_checked_oracle(monkeypatch):
    corpus = oracle_corpus()
    assert len(corpus) >= 95
    assert sum(1 for d in corpus if any(d.indeg(v) > 2 for v in d.vertices)) >= 60
    orders = []
    for d in corpus:
        assert reduce_indegrees(d) == checked_reduce_indegrees(d)
        orders.append(rr_numbering(d).order)
    monkeypatch.setattr(stnum, "reduce_indegrees", checked_reduce_indegrees)
    assert [rr_numbering(d).order for d in corpus] == orders


def test_disjoint_root_paths_match_fresh_flow():
    for d in oracle_corpus()[::3]:
        network = RootPathNetwork(d)
        for v in d.vertices:
            if v != d.root:
                assert two_disjoint_root_paths(network, v) == flow_disjoint_root_paths(d, v)


def test_disjoint_root_paths_leave_the_network_unchanged():
    checked = missing = 0
    for d in oracle_corpus()[::4] + raw_two_connected_with_root_in_arcs(20, seed_base=3300):
        network = RootPathNetwork(d)
        cut = min(d.vertices, key=lambda v: (-d.indeg(v), v))
        for y in d.in_neighbors(cut)[1:]:
            network.delete_arc(y, cut)  # leaves cut one in-arc: no path pair
        before = list(network.cap)
        for v in d.vertices:
            if v != d.root:
                missing += two_disjoint_root_paths(network, v) is None
                assert network.cap == before
                checked += 1
    assert checked > 500 and missing > 0


def test_reduce_indegrees_checks_once(monkeypatch):
    d = cutvertex_free_core(gen_random(200, 4 / 200, seed=1))
    assert any(d.indeg(v) > 2 for v in d.vertices)
    checks, builds = [], []
    real_check, real_init = stnum.is_2connected, RootedDigraph.__init__

    def counted_check(g):
        checks.append(g)
        return real_check(g)

    def counted_init(self, *args, **kwargs):
        builds.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(stnum, "is_2connected", counted_check)
    monkeypatch.setattr(RootedDigraph, "__init__", counted_init)
    red = reduce_indegrees(d)
    assert red != d
    assert len(checks) <= 2
    assert len(builds) <= 1


def test_rr_numbering_reduces_again_and_checks_only_inside_reduction(monkeypatch):
    # contractions raise indegrees on this core until no vertex of outdegree
    # at most 1 is left, so the working digraph is reduced a second time
    d = cutvertex_free_core(gen_random(148, 3 / 148, seed=5208))
    assert d.n == 143
    reductions, outside, inside = [], [], [False]
    real_check, real_reduce = stnum.is_2connected, stnum.reduce_indegrees

    def counted_check(g):
        if not inside[0]:
            outside.append(g)
        return real_check(g)

    def counted_reduce(g):
        reductions.append(g)
        inside[0] = True
        try:
            return real_reduce(g)
        finally:
            inside[0] = False

    monkeypatch.setattr(stnum, "is_2connected", counted_check)
    monkeypatch.setattr(stnum, "reduce_indegrees", counted_reduce)
    num = rr_numbering(d)
    assert validate_numbering(d, num.order)
    assert len(reductions) == 2
    assert outside == []


def rescanning_corpus():
    """`oracle_corpus` plus relabelled t_l and boloney, whose vertex ids no
    longer follow the construction order."""
    out = oracle_corpus()
    out += [relabelled(normalize(gen_t_l(l))[0], l) for l in range(3, 9)]
    out += [relabelled(gen_boloney(k), k) for k in (3, 5, 8, 13)]
    return out


def test_disjoint_root_paths_match_rescanning_search():
    rebuilt = 0
    for i, d in enumerate(rescanning_corpus()):
        network = RootPathNetwork(d)
        targets = [v for v in d.vertices if v != d.root]
        for v in targets:
            assert (two_disjoint_root_paths(network, v)
                    == rescanning_disjoint_root_paths(network, v))
        # delete tree arcs, which drops the tree, and compare on the rebuilt one
        rng = random.Random(i)
        for v in rng.sample(targets, min(3, len(targets))):
            e = network.tree().get(network.node[v])
            if e is None:
                continue
            u = network.vertices[network.head[e ^ 1] // 2]
            network.delete_arc(u, v)
            assert network._tree is None
            rebuilt += 1
            for w in targets:
                assert (two_disjoint_root_paths(network, w)
                        == rescanning_disjoint_root_paths(network, w))
    assert rebuilt > 300


def test_reduce_indegrees_and_numbering_match_rescanning_search(monkeypatch):
    corpus = rescanning_corpus()
    tree_arcs_deleted = []
    real_delete = RootPathNetwork.delete_arc

    def watched_delete(network, u, v):
        tree = network._tree or {}
        tree_arcs_deleted.append(tree.get(network.node[v]) == network.arc_edge[(u, v)])
        real_delete(network, u, v)

    monkeypatch.setattr(RootPathNetwork, "delete_arc", watched_delete)
    reduced = [reduce_indegrees(d) for d in corpus]
    orders = [rr_numbering(d).order for d in corpus]
    assert len(tree_arcs_deleted) > 1000 and not any(tree_arcs_deleted)
    monkeypatch.setattr(stnum, "two_disjoint_root_paths", rescanning_disjoint_root_paths)
    assert [reduce_indegrees(d) for d in corpus] == reduced
    assert [rr_numbering(d).order for d in corpus] == orders


def test_numbering_matches_rescanning_elimination():
    corpus = rescanning_corpus()
    corpus.append(cutvertex_free_core(gen_random(148, 3 / 148, seed=5208)))
    for d in corpus:
        assert rr_numbering(d).order == rescanning_rr_numbering(d)

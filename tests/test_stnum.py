import hashlib
import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf import stnum
from maxleaf.approx import approximate
from maxleaf.digraph import (RootedDigraph, build, is_2connected, is_connected, normalize,
                             reachable, verify_outbranching)
from maxleaf.gen import gen_boloney, gen_comb, gen_necklace, gen_t_l
from maxleaf.graphio import format_tree
from maxleaf.reduce import renormalize, strip_cutvertices
from maxleaf.errors import InternalInvariantError
from maxleaf.stnum import (in_sides, reduce_indegrees, root_path_tree, rr_numbering,
                           two_disjoint_root_paths)
from maxleaf.bounds import bound1_tree, bound2_tree

from support import (RootPathNetwork, any_scan_validate_numbering, brute_cutvertices,
                     checked_reduce_indegrees, checked_reduce_to_work,
                     digraph_many_leaves, flow_disjoint_root_paths, legacy_gen_random,
                     listed_reinsertion, relabelled, rescanning_disjoint_root_paths,
                     rescanning_rr_numbering, root_path_lists, split, splitting_bound1_tree, topological_order,
                     transverse_decomposition, trimming_transverse_decomposition,
                     two_connected_instances, validate_numbering)
from test_golden import approx_core, corpus as golden_corpus


def sandwich_example():
    return build(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_numbering_on_forced_example():
    d = sandwich_example()
    num = rr_numbering(d)
    assert validate_numbering(d, num.order)
    # vertex 3 must sit strictly between its in-neighbors 1 and 2
    pos = {v: i for i, v in enumerate(num.order)}
    assert min(pos[1], pos[2]) < pos[3] < max(pos[1], pos[2])


def test_reversed_numbering_is_valid():
    d, _ = normalize(gen_t_l(3))
    num = rr_numbering(d)
    assert validate_numbering(d, tuple(reversed(num.order)))


def test_validate_rejects_one_sided_vertex():
    d = sandwich_example()
    assert not validate_numbering(d, (3, 1, 2))  # both in-neighbors after 3
    assert not validate_numbering(d, (1, 2))     # not a permutation


def test_validate_accepts_no_order_without_2_connectivity():
    """A valid numbering certifies 2-connectivity from the root (the low-high
    orders of Georgiadis and Tarjan, ICALP 2012): on small raw digraphs that
    the root does not span, or that have a cutvertex, every order of the
    non-root vertices fails validation, and some order of each 2-connected
    one passes."""
    kinds = Counter()
    for seed in range(1200):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        p = rng.uniform(0.2, 0.7)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        d = RootedDigraph(range(n), rng.randrange(n), arcs)
        orders = permutations([v for v in d.vertices if v != d.root])
        if not is_connected(d):
            kinds["unreachable"] += 1
        elif brute_cutvertices(d):
            kinds["cutvertex"] += 1
        else:
            assert any(validate_numbering(d, order) for order in orders), d
            continue
        for order in orders:
            assert not validate_numbering(d, order), (d, order)
    assert kinds["unreachable"] > 100 and kinds["cutvertex"] > 100


def test_reduce_indegrees_noop_when_small():
    d, _ = normalize(gen_t_l(3))
    red = reduce_indegrees(d)
    assert not red.frozen and red.freeze() == d


def test_reduce_indegrees_trims_funnel():
    d = build(5, 0, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    assert is_2connected(d)
    red = reduce_indegrees(d).freeze()
    assert red.indeg(4) == 2
    assert is_2connected(red)
    assert red.arc_set() <= d.arc_set()


def test_reduce_indegrees_on_corpus():
    for d in two_connected_instances(20, 5, 12, seed_base=40, p_lo=0.3, p_hi=0.6):
        red = reduce_indegrees(d).freeze()
        assert is_2connected(red)
        assert all(red.indeg(v) <= 2 for v in red.vertices if v != red.root)
        assert red.arc_set() <= d.arc_set()
        # only in-arcs of high-indegree vertices were touched
        for u, v in d.arc_set() - red.arc_set():
            assert d.indeg(v) >= 3


def test_reduce_indegrees_rejects_cut():
    with pytest.raises(ValueError):
        reduce_indegrees(build(3, 0, [(0, 1), (1, 2)]))


def path_tails(paths):
    """The tails of the last arcs of an oracle's path pair, or None."""
    return None if paths is None else {p[-2] for p in paths}


def root_paths(d):
    """The out-lists and tree that `reduce_indegrees` starts from on d."""
    out = root_path_lists(d)
    return out, root_path_tree(out, d.root)


def network_of(d):
    """The `RootPathNetwork` of d with every arc, also those into the root."""
    return RootPathNetwork(d.root, {v: d.out_neighbors(v) for v in d.vertices})


def assert_tails(d, out, tree, v, paths):
    """`two_disjoint_root_paths(d, out, tree, v)` is v's tree parent and one
    other in-neighbor, and the two are the last tails of `paths`, an
    oracle's path pair (None when it has none)."""
    pair = two_disjoint_root_paths(d, out, tree, v)
    if paths is None:
        assert pair is None
    else:
        assert pair[0] == tree[0][v] and set(pair) == path_tails(paths)
    return pair


def test_two_disjoint_root_paths():
    d = sandwich_example()
    assert two_disjoint_root_paths(d, *root_paths(d), 3) == (1, 2)
    path = build(3, 0, [(0, 1), (1, 2)])
    assert two_disjoint_root_paths(path, *root_paths(path), 2) is None


def test_second_search_walks_back_along_the_tree_path(monkeypatch):
    # the tree path to 4 is 0, 1, 2, 5, 4 and 4's other in-neighbor 8 hangs
    # below 1 too, so the second search runs: it enters 5 from 7, reverses
    # the arcs (2, 5) and (1, 2) through 2's split edge, and leaves 1 for 9,
    # the paths 0, 1, 9, 8, 4 and 0, 6, 3, 7, 5, 4, which end in 8 and 5
    d = build(10, 0, [(0, 1), (0, 6), (1, 2), (1, 9), (2, 5), (3, 7), (5, 4), (6, 3),
                      (7, 5), (8, 4), (9, 8)])
    out, tree = root_paths(d)
    assert [tree[0][v] for v in (4, 5, 2, 1)] == [5, 2, 1, 0]
    searches = []
    real_search = stnum._second_search
    monkeypatch.setattr(stnum, "_second_search",
                        lambda *args: searches.append(args[-1]) or real_search(*args))
    assert two_disjoint_root_paths(d, out, tree, 4) == (5, 8) and searches == [4]
    assert path_tails(rescanning_disjoint_root_paths(network_of(d), 4)) == {8, 5}


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
    bad = RRNumbering((3, 1, 2), ({}, {}))
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
        sides = num.sides
        for tree in (bound1_tree(d, sides), bound2_tree(d, sides)):
            assert verify_outbranching(d, tree).ok


def cutvertex_free_core(d):
    """The normalized, cutvertex-free core that `approximate` numbers."""
    return strip_cutvertices(renormalize(d, []), [])


def oracle_corpus():
    """Seeded 2-connected cores: legacy_gen_random at p = 4/n (n 20-60) and at
    p in 0.3-0.6 (n 6-24), plus t_l and boloney."""
    out = []
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(20, 60)
        out.append(cutvertex_free_core(legacy_gen_random(n, 4 / n, 7000 + seed)))
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
        assert reduce_indegrees(d).freeze() == checked_reduce_indegrees(d)
        orders.append(rr_numbering(d).order)
    monkeypatch.setattr(stnum, "reduce_indegrees", checked_reduce_to_work)
    assert [rr_numbering(d).order for d in corpus] == orders


def test_disjoint_root_paths_match_fresh_flow():
    found = missing = 0
    for d in oracle_corpus()[::3] + raw_two_connected_with_root_in_arcs(50, seed_base=3200):
        out, tree = root_paths(d)
        for v in d.vertices:
            if v != d.root:
                pair = assert_tails(d, out, tree, v, flow_disjoint_root_paths(d, v))
                found += pair is not None
                missing += pair is None
    assert found > 1000 and missing > 0  # a root outneighbor may have no other in-arc


def test_disjoint_root_paths_leave_the_state_unchanged():
    checked = missing = 0
    for d in oracle_corpus()[::4] + raw_two_connected_with_root_in_arcs(20, seed_base=3300):
        cut = min((v for v in d.vertices if v != d.root), key=lambda v: (-d.indeg(v), v))
        # leaves cut one in-arc: no path pair
        d = d.without_arcs([(y, cut) for y in d.in_neighbors(cut)[1:]])
        out, tree = root_paths(d)

        def snapshot():
            return [{u: list(ws) for u, ws in out.items()}] + [dict(part) for part in tree]

        before = snapshot()
        for v in d.vertices:
            if v != d.root:
                missing += two_disjoint_root_paths(d, out, tree, v) is None
                assert snapshot() == before
                checked += 1
    assert checked > 500 and missing > 0


def test_reduce_indegrees_searches_for_few_tails(monkeypatch):
    # the shortcut lemma's figures in the module docstring
    d = cutvertex_free_core(legacy_gen_random(1600, 4 / 1600, seed=1))
    pairs, searches = [], []
    real_pair, real_search = stnum.two_disjoint_root_paths, stnum._second_search
    monkeypatch.setattr(stnum, "two_disjoint_root_paths",
                        lambda d, out, tree, x: pairs.append(x) or real_pair(d, out, tree, x))
    monkeypatch.setattr(stnum, "_second_search",
                        lambda *args: searches.append(args[-1]) or real_search(*args))
    reduce_indegrees(d)
    assert len(pairs) == 1404 and len(searches) == 47 and set(searches) <= set(pairs)


def test_reduce_indegrees_checks_once(monkeypatch):
    d = cutvertex_free_core(legacy_gen_random(200, 4 / 200, seed=1))
    assert any(d.indeg(v) > 2 for v in d.vertices)
    checks, builds, trees = [], [], []
    real_check, real_init = stnum.is_2connected, RootedDigraph.__init__
    real_tree = stnum.root_path_tree

    def counted_check(g):
        checks.append(g)
        return real_check(g)

    def counted_init(self, *args, **kwargs):
        builds.append(self)
        real_init(self, *args, **kwargs)

    def counted_tree(out, r):
        trees.append(out)
        return real_tree(out, r)

    monkeypatch.setattr(stnum, "is_2connected", counted_check)
    monkeypatch.setattr(RootedDigraph, "__init__", counted_init)
    monkeypatch.setattr(stnum, "root_path_tree", counted_tree)
    red = reduce_indegrees(d)
    assert red.m < d.m
    assert len(checks) == 1 and checks[0] is red  # the result only, not the input
    assert builds == [] and not red.frozen  # the result is a working copy, never frozen
    assert len(trees) == 1  # one tree, which no deletion drops
    # nothing to delete: no tree, and the one check is on the unchanged copy
    checks.clear()
    small, _ = normalize(gen_t_l(3))
    red = reduce_indegrees(small)
    assert len(trees) == 1
    assert len(checks) == 1 and checks[0] is red and red is not small
    assert not red.frozen and red.freeze() == small


# digraphs that are not 2-connected, each with a vertex of indegree 3 that
# `reduce_indegrees` visits, named by how the reduction fails on them
@pytest.mark.parametrize("name, n, arcs", [
    # every root path to 5 passes 1: no path pair
    ("path search", 6, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]),
    # 4 keeps the arcs from 1 and 2, but 4 alone reaches 5
    ("result check", 6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5)]),
    # nothing reaches 3 to 6 from the root
    ("unreached", 7, [(0, 1), (0, 2), (1, 2), (2, 1), (3, 4), (5, 4), (6, 4)]),
])
def test_reduce_indegrees_rejects_a_bad_input_after_visiting_it(monkeypatch, name, n, arcs):
    d = build(n, 0, arcs)
    assert max(d.indeg(v) for v in d.vertices) >= 3 and not is_2connected(d)
    found, checked = [], []
    real_paths, real_check = stnum.two_disjoint_root_paths, stnum.is_2connected

    def watched_paths(*args):
        found.append(real_paths(*args))
        return found[-1]

    monkeypatch.setattr(stnum, "two_disjoint_root_paths", watched_paths)
    monkeypatch.setattr(stnum, "is_2connected", lambda g: checked.append(arcs_of(g)) or real_check(g))
    with pytest.raises(ValueError, match="requires a 2-connected digraph"):
        reduce_indegrees(d)
    assert found  # the reduction visited the indegree-3 vertex
    if name == "result check":
        # the result, without the one deleted arc, fails its check; then the input
        assert None not in found and checked == [arcs_of(d) - {(3, 4)}, arcs_of(d)]
    else:
        assert found[-1] is None and checked == [arcs_of(d)]


def test_reduce_indegrees_blames_itself_on_a_2connected_input(monkeypatch):
    d = build(5, 0, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    monkeypatch.setattr(stnum, "two_disjoint_root_paths", lambda d, out, tree, x: None)
    with pytest.raises(InternalInvariantError, match="no disjoint path pair"):
        reduce_indegrees(d)
    # a bogus pair keeps one in-arc of 4 only: the result fails its check
    monkeypatch.setattr(stnum, "two_disjoint_root_paths", lambda d, out, tree, x: (1, 1))
    with pytest.raises(InternalInvariantError, match="broke 2-connectivity"):
        reduce_indegrees(d)


def test_rr_numbering_reduces_again_and_checks_only_inside_reduction(monkeypatch):
    # contractions raise indegrees on this core until no vertex of outdegree
    # at most 1 is left, so the working digraph is reduced a second time
    d = cutvertex_free_core(legacy_gen_random(148, 3 / 148, seed=5208))
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


STALL_PINS = {
    # approximate's numbering stalls and reduces again on the necklace;
    # sha256 of the lifted tree and the report, and reduce_indegrees calls
    "necklace(400)": (lambda: gen_necklace(400), 17,
                      "c9b27eef36293576e569f7902757f5bdf4d1ba71a941a3bf85ad20c01044547c"),
    "comb(200)": (lambda: gen_comb(200), 1,
                  "e6170fb7ba14f2073e0c57eddb32b3a9c7d8eae08643430ccd855288b073cece"),
}


@pytest.mark.parametrize("name", sorted(STALL_PINS))
def test_approximate_output_pinned_on_ring_families(monkeypatch, name):
    make, reductions, digest = STALL_PINS[name]
    calls = []
    real_reduce = stnum.reduce_indegrees
    monkeypatch.setattr(stnum, "reduce_indegrees", lambda g: calls.append(g) or real_reduce(g))
    tree, report = approximate(make())
    assert len(calls) == reductions
    text = format_tree(tree) + report.format()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def arcs_of(g):
    return {(u, v) for u in g.vertices for v in g.out_neighbors(u)}


def test_reduce_indegrees_leaves_its_argument_unchanged(monkeypatch):
    # the numbering reduces this core, a frozen graph, and then, on a
    # stall, its own working graph
    d = cutvertex_free_core(legacy_gen_random(148, 3 / 148, seed=5208))
    deleted, inputs = [], []
    real_reduce, real_paths = stnum.reduce_indegrees, stnum.two_disjoint_root_paths

    def watched_paths(g, out, tree, x):
        pair = real_paths(g, out, tree, x)
        deleted.extend((y, x) for y in g.in_neighbors(x) if y not in pair)
        return pair

    def watched_reduce(g):
        before, mark = arcs_of(g), len(deleted)
        red = real_reduce(g)
        assert arcs_of(g) == before
        assert arcs_of(red) == before - set(deleted[mark:])
        assert g.m - red.m == len(deleted) - mark > 0
        inputs.append(g.frozen)
        return red

    monkeypatch.setattr(stnum, "two_disjoint_root_paths", watched_paths)
    monkeypatch.setattr(stnum, "reduce_indegrees", watched_reduce)
    assert validate_numbering(d, rr_numbering(d).order)
    assert inputs == [True, False]


def rescanning_corpus():
    """`oracle_corpus` plus relabelled t_l and boloney, whose vertex ids no
    longer follow the construction order."""
    out = oracle_corpus()
    out += [relabelled(normalize(gen_t_l(l))[0], l) for l in range(3, 9)]
    out += [relabelled(gen_boloney(k), k) for k in (3, 5, 8, 13)]
    return out


def differential_corpus():
    """`rescanning_corpus`, raw 2-connected digraphs with arcs into the root,
    and cores of the approx-dense benchmark's sizes, `legacy_gen_random(n,
    4/n)` for n 86-115."""
    out = rescanning_corpus()
    out += raw_two_connected_with_root_in_arcs(150, seed_base=3100)
    out += [cutvertex_free_core(legacy_gen_random(n, 4 / n, seed=n)) for n in range(86, 116)]
    return out


def test_disjoint_root_paths_match_rescanning_search(monkeypatch):
    searches = []
    real_search = stnum._second_search

    def counted_search(*args):
        searches.append(args[-1])
        return real_search(*args)

    monkeypatch.setattr(stnum, "_second_search", counted_search)
    calls = rebuilt = missing = 0
    for i, d in enumerate(differential_corpus()):
        g, out = d.thaw(), root_path_lists(d)
        targets = [v for v in d.vertices if v != d.root]
        rng = random.Random(i)
        for round_ in range(4):
            tree, network = root_path_tree(out, d.root), network_of(g)
            for v in targets:
                paths = rescanning_disjoint_root_paths(network, v)
                missing += assert_tails(g, out, tree, v, paths) is None
                calls += 1
            if round_ == 3:
                break
            # three rounds of deletions, each with a tree arc, after which
            # the tree is built again, and two arcs drawn from all live ones
            parent = tree[0]
            tree_arcs = [(parent[v], v) for v in targets if v in parent]
            arcs = [(u, v) for u in sorted(out) for v in out[u]]
            deletions = set(rng.sample(arcs, min(2, len(arcs))))
            if tree_arcs:
                deletions.add(rng.choice(tree_arcs))
                rebuilt += 1
            for u, v in deletions:
                out[u].remove(v)
            g.without_arcs(deletions)
    # both the shortcut and the search answer thousands of the calls
    assert rebuilt > 600 and missing > 1000
    assert 2000 < len(searches) < calls - missing - 2000


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 9), st.data())
def test_disjoint_root_paths_exist_exactly_when_the_network_has_them(n, data):
    root = data.draw(st.integers(0, n - 1))
    arcs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda a: a[0] != a[1]),
        max_size=30))
    arcs += [(v, root) for v in data.draw(st.sets(st.integers(0, n - 1), min_size=1))
             if v != root]
    d = build(n, root, arcs)
    (out, tree), network = root_paths(d), network_of(d)
    for v in d.vertices:
        if v != root:
            paths = rescanning_disjoint_root_paths(network, v)
            assert_tails(d, out, tree, v, paths)
            if paths is not None:
                assert all(p[0] == root and p[-1] == v for p in paths)
                assert not set(paths[0][1:-1]) & set(paths[1][1:-1])
                assert all(d.has_arc(a, b) for p in paths for a, b in zip(p, p[1:]))


def test_reduce_indegrees_and_numbering_match_rescanning_search(monkeypatch):
    corpus = rescanning_corpus()
    trees, deleted = [], []
    real_tree, real_reduce = stnum.root_path_tree, stnum.reduce_indegrees

    def watched_reduce(g):
        mark = len(trees)
        red = real_reduce(g)
        # the tree-arc lemma: no reduction deletes an arc of its one tree
        assert len(trees) - mark == (red.m < g.m)
        for parent, _, _ in trees[mark:]:
            assert all(red.has_arc(u, v) for v, u in parent.items() if u is not None)
        deleted.append(g.m - red.m)
        return red

    monkeypatch.setattr(stnum, "root_path_tree",
                        lambda out, r: trees.append(real_tree(out, r)) or trees[-1])
    monkeypatch.setattr(stnum, "reduce_indegrees", watched_reduce)
    reduced = [stnum.reduce_indegrees(d).freeze() for d in corpus]
    orders = [rr_numbering(d).order for d in corpus]
    assert sum(deleted) > 1000
    # the oracle answers from the live out-lists it is handed
    monkeypatch.setattr(stnum, "two_disjoint_root_paths", lambda d, out, tree, x: path_tails(
        rescanning_disjoint_root_paths(RootPathNetwork(d.root, out), x)))
    assert [stnum.reduce_indegrees(d).freeze() for d in corpus] == reduced
    assert [rr_numbering(d).order for d in corpus] == orders


def test_reduce_indegrees_searches_lists_without_its_deleted_arcs(monkeypatch):
    # every path pair is found on d's out-lists without the arcs into the
    # root and without the in-arcs that the heads visited before lost
    corpus = rescanning_corpus() + raw_two_connected_with_root_in_arcs(50, seed_base=3400)
    real_paths = stnum.two_disjoint_root_paths
    current = {"out": None}
    calls = late = 0

    def watched_paths(d, out, tree, x):
        nonlocal calls, late
        if out is not current["out"]:
            current.update(out=out, deleted=set())
        deleted = current["deleted"]
        expected = root_path_lists(d)
        assert out == {v: [w for w in ws if (v, w) not in deleted] for v, ws in expected.items()}
        calls += 1
        late += bool(deleted)
        pair = real_paths(d, out, tree, x)
        deleted.update((y, x) for y in d.in_neighbors(x) if y not in pair)
        return pair

    monkeypatch.setattr(stnum, "two_disjoint_root_paths", watched_paths)
    for d in corpus:
        reduce_indegrees(d)
        rr_numbering(d)
    assert calls > 1000 and late > 500


def test_numbering_matches_rescanning_elimination():
    corpus = rescanning_corpus()
    corpus.append(cutvertex_free_core(legacy_gen_random(148, 3 / 148, seed=5208)))
    for d in corpus:
        assert rr_numbering(d).order == rescanning_rr_numbering(d)


def test_bound_trees_match_split_and_trim_oracles():
    corpus = differential_corpus()
    corpus += [approx_core(d) for _, d, _, every in golden_corpus() if every and is_connected(d)]
    corpus += two_connected_instances(40, 5, 14, seed_base=2600)
    corpus += two_connected_instances(20, 5, 14, seed_base=50, oriented=True, p_lo=0.1, p_hi=0.3)
    anchored = 0
    for d in corpus:
        num = rr_numbering(d)
        sides = num.sides
        assert bound1_tree(d, sides) == splitting_bound1_tree(d, num)
        dec, old = transverse_decomposition(d, sides), trimming_transverse_decomposition(d, num)
        for field in ("t_f", "t_b", "transverse_f", "transverse_b", "chosen", "s_left", "s_right"):
            assert getattr(dec, field) == getattr(old, field), field
        assert dec.union.arcs() == old.union.arcs()
        assert bound2_tree(d, sides) == digraph_many_leaves(old.union)
        anchored += any(not d.has_arc(v, u) for u, v in d.arc_set() if u != d.root)
    assert len(corpus) > 350 and anchored > 100


def recorded_reinsertions(monkeypatch, corpus):
    """The arguments and result of every `_reinserted` call that numbering
    each digraph of the corpus makes."""
    calls = []
    real = stnum._reinserted

    def recording(r, remaining, records):
        calls.append((r, list(remaining), list(records), real(r, remaining, records)))
        return calls[-1][-1]

    monkeypatch.setattr(stnum, "_reinserted", recording)
    for d in corpus:
        rr_numbering(d)
    monkeypatch.undo()
    return calls


def counted_relabels(monkeypatch):
    """Patch `_OrderLabels._relabel` to record, per call, how many labels it
    changed and how many elements the list held."""
    sizes = []
    real = stnum._OrderLabels._relabel

    def counted(order, x):
        before = dict(order.label)
        real(order, x)
        sizes.append((sum(before[v] != order.label[v] for v in before), len(before) - 1))

    monkeypatch.setattr(stnum._OrderLabels, "_relabel", counted)
    return sizes


def test_reinsertion_matches_list_insertion(monkeypatch):
    corpus = differential_corpus()
    corpus += [relabelled(cutvertex_free_core(gen_t_l(l)), l) for l in (6, 15, 24, 30)]
    corpus += [relabelled(gen_boloney(k), k) for k in (40, 300, 1000)]
    assert max(d.n for d in corpus) > 2800
    calls = recorded_reinsertions(monkeypatch, corpus)
    assert len(calls) == len(corpus) and sum(len(c[2]) for c in calls) > 10000
    for r, remaining, records, order in calls:
        assert order == listed_reinsertion(r, remaining, records)
    # labels one bit wider than the list needs: gaps close all the time
    monkeypatch.setattr(stnum, "_LABEL_BITS", 1)
    sizes = counted_relabels(monkeypatch)
    for r, remaining, records, order in calls:
        assert stnum._reinserted(r, remaining, records) == order
    assert len(sizes) > 1000
    assert sum(changed < total // 2 for changed, total in sizes) > len(sizes) // 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=300), st.integers(0, 40))
def test_order_labels_match_list_insertion(picks, start):
    # insert each new element after an element picked from those present
    # (0 is the head), with labels barely wide enough for the list
    size = start + len(picks)
    order = stnum._OrderLabels(0, list(range(1, start + 1)), size)
    listed = list(range(start + 1))
    for v, pick in enumerate(picks, start + 1):
        x = listed[pick % len(listed)]
        order.insert_after(x, v)
        listed.insert(listed.index(x) + 1, v)
    assert list(order) == listed[1:]
    labels = [order.label[v] for v in listed] + [order.label[None]]
    assert labels[0] == 0 and labels == sorted(set(labels))


def test_validate_numbering_matches_any_scans():
    verdicts = {True: 0, False: 0}
    for i, d in enumerate(differential_corpus()[::2]):
        rng = random.Random(i)
        order = list(rr_numbering(d).order)
        orders = [order, order[::-1], order[1:], order + order[:1]]
        for _ in range(6):
            swapped = list(order)
            a, b = rng.randrange(len(order)), rng.randrange(len(order))
            swapped[a], swapped[b] = swapped[b], swapped[a]
            orders.append(swapped)
        orders.append(rng.sample(order, len(order)))
        for candidate in orders:
            verdict = validate_numbering(d, candidate)
            assert verdict == any_scan_validate_numbering(d, candidate) == splits(d, candidate)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 200


def splits(d, order):
    """Whether `in_sides` accepts `order`: True when it splits, False when
    it raises."""
    try:
        in_sides(d, order)
    except InternalInvariantError:
        return False
    return True


def one_sided_swap(d, order):
    """`order` with the first adjacent pair swapped that leaves a vertex
    with every non-root in-neighbor on one side."""
    for i in range(len(order) - 1):
        swapped = list(order)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        if not validate_numbering(d, swapped):
            return swapped
    raise AssertionError("every adjacent swap keeps the numbering valid")


BAD_ORDERS = {
    "swapped": one_sided_swap,
    "missing": lambda d, order: order[1:],
    "twice": lambda d, order: order + order[-1:],  # every position as it was
}


@pytest.mark.parametrize("kind", sorted(BAD_ORDERS))
def test_rr_numbering_rejects_a_bad_reinsertion(monkeypatch, kind):
    d = cutvertex_free_core(legacy_gen_random(148, 3 / 148, seed=5208))
    order = list(rr_numbering(d).order)
    bad = BAD_ORDERS[kind](d, order)
    assert not validate_numbering(d, bad)
    assert (sorted(bad) == sorted(order)) == (kind == "swapped")
    monkeypatch.setattr(stnum, "_reinserted", lambda *args: list(bad))
    with pytest.raises(InternalInvariantError):
        rr_numbering(d)

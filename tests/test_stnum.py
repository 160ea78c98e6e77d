import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf import stnum
from maxleaf.digraph import (RootedDigraph, WorkGraph, build, is_2connected, normalize,
                             reachable, verify_outbranching)
from maxleaf.gen import gen_boloney, gen_random, gen_t_l
from maxleaf.reduce import renormalize, strip_cutvertices
from maxleaf.errors import InternalInvariantError
from maxleaf.stnum import (RootPathState, in_sides, reduce_indegrees, rr_numbering,
                           two_disjoint_root_paths, validate_numbering)
from maxleaf.bounds import (acyclic_many_leaves, bound1_tree, bound2_tree, topological_order,
                            transverse_decomposition)

from support import (RootPathNetwork, any_scan_validate_numbering, checked_reduce_indegrees,
                     checked_reduce_to_work, flow_disjoint_root_paths, listed_reinsertion,
                     relabelled, rescanning_disjoint_root_paths, rescanning_rr_numbering,
                     split, splitting_bound1_tree, trimming_transverse_decomposition,
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
    red = reduce_indegrees(d)
    assert isinstance(red, WorkGraph) and red.freeze() == d


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


def test_two_disjoint_root_paths():
    d = sandwich_example()
    paths = two_disjoint_root_paths(RootPathState(d), 3)
    assert paths is not None
    a, b = paths
    assert a[0] == b[0] == 0 and a[-1] == b[-1] == 3
    assert not (set(a[1:-1]) & set(b[1:-1]))
    path = build(3, 0, [(0, 1), (1, 2)])
    assert two_disjoint_root_paths(RootPathState(path), 2) is None


def test_second_search_walks_back_along_the_tree_path():
    # the tree path to 4 is 0, 1, 2, 5, 4; the second search enters 5 from 7,
    # reverses the arcs (2, 5) and (1, 2) through 2's split edge, and leaves 1
    # for 9: 2 drops out of both paths
    d = build(10, 0, [(0, 1), (0, 6), (1, 2), (1, 9), (2, 5), (3, 7), (5, 4), (6, 3),
                      (7, 5), (8, 4), (9, 8)])
    state = RootPathState(d)
    assert [state.tree()[v] for v in (4, 5, 2, 1)] == [5, 2, 1, 0]
    expected = [[0, 1, 9, 8, 4], [0, 6, 3, 7, 5, 4]]
    assert two_disjoint_root_paths(state, 4) == expected
    assert rescanning_disjoint_root_paths(RootPathNetwork(d), 4) == expected


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
        sides = in_sides(d, num)
        for tree in (bound1_tree(d, sides), bound2_tree(d, sides)):
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
        assert reduce_indegrees(d).freeze() == checked_reduce_indegrees(d)
        orders.append(rr_numbering(d).order)
    monkeypatch.setattr(stnum, "reduce_indegrees", checked_reduce_to_work)
    assert [rr_numbering(d).order for d in corpus] == orders


def test_disjoint_root_paths_match_fresh_flow():
    for d in oracle_corpus()[::3]:
        state = RootPathState(d)
        for v in d.vertices:
            if v != d.root:
                assert two_disjoint_root_paths(state, v) == flow_disjoint_root_paths(d, v)


def test_disjoint_root_paths_leave_the_state_unchanged():
    checked = missing = 0
    for d in oracle_corpus()[::4] + raw_two_connected_with_root_in_arcs(20, seed_base=3300):
        state = RootPathState(d)
        cut = min((v for v in d.vertices if v != d.root), key=lambda v: (-d.indeg(v), v))
        for y in d.in_neighbors(cut)[1:]:
            state.delete_arc(y, cut)  # leaves cut one in-arc: no path pair
        tree = state.tree()

        def snapshot():
            return ([{u: list(ws) for u, ws in lists.items()} for lists in (state.out, state.inn)]
                    + [dict(tree), dict(state._rank)])

        before = snapshot()
        for v in d.vertices:
            if v != d.root:
                missing += two_disjoint_root_paths(state, v) is None
                assert state.tree() is tree and snapshot() == before
                checked += 1
    assert checked > 500 and missing > 0


def test_reduce_indegrees_checks_once(monkeypatch):
    d = cutvertex_free_core(gen_random(200, 4 / 200, seed=1))
    assert any(d.indeg(v) > 2 for v in d.vertices)
    checks, builds, trees = [], [], []
    real_check, real_init = stnum.is_2connected, RootedDigraph.__init__
    real_tree = RootPathState.tree

    def counted_check(g):
        checks.append(g)
        return real_check(g)

    def counted_init(self, *args, **kwargs):
        builds.append(self)
        real_init(self, *args, **kwargs)

    def counted_tree(state):
        if state._tree is None:
            trees.append(state)
        return real_tree(state)

    monkeypatch.setattr(stnum, "is_2connected", counted_check)
    monkeypatch.setattr(RootedDigraph, "__init__", counted_init)
    monkeypatch.setattr(RootPathState, "tree", counted_tree)
    red = reduce_indegrees(d)
    assert red.m < d.m
    assert checks == [red]  # the result only, not the input
    assert builds == []  # the result is a `WorkGraph` copy, never frozen
    assert len(trees) == 1  # one state, whose tree no deletion drops
    # nothing to delete: the one check is on the unchanged copy
    checks.clear()
    small, _ = normalize(gen_t_l(3))
    red = reduce_indegrees(small)
    assert checks == [red] and red is not small and red.freeze() == small


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
    found, deleted = [], []
    real_paths, real_delete = stnum.two_disjoint_root_paths, RootPathState.delete_arc

    def watched_paths(state, x):
        found.append(real_paths(state, x))
        return found[-1]

    def watched_delete(state, u, v):
        deleted.append((u, v))
        real_delete(state, u, v)

    monkeypatch.setattr(stnum, "two_disjoint_root_paths", watched_paths)
    monkeypatch.setattr(RootPathState, "delete_arc", watched_delete)
    with pytest.raises(ValueError, match="requires a 2-connected digraph"):
        reduce_indegrees(d)
    assert found  # the reduction visited the indegree-3 vertex
    if name == "result check":
        assert None not in found and deleted == [(3, 4)]
    else:
        assert found[-1] is None


def test_reduce_indegrees_blames_itself_on_a_2connected_input(monkeypatch):
    d = build(5, 0, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    monkeypatch.setattr(stnum, "two_disjoint_root_paths", lambda state, x: None)
    with pytest.raises(InternalInvariantError, match="no disjoint path pair"):
        reduce_indegrees(d)
    # a bogus pair keeps one in-arc of 4 only: the result fails its check
    monkeypatch.setattr(stnum, "two_disjoint_root_paths", lambda state, x: [[0, 1, x]] * 2)
    with pytest.raises(InternalInvariantError, match="broke 2-connectivity"):
        reduce_indegrees(d)


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


def arcs_of(g):
    return {(u, v) for u in g.vertices for v in g.out_neighbors(u)}


def test_reduce_indegrees_leaves_its_argument_unchanged(monkeypatch):
    # the numbering reduces this core, a `RootedDigraph`, and then, on a
    # stall, its own working `WorkGraph`
    d = cutvertex_free_core(gen_random(148, 3 / 148, seed=5208))
    deleted, inputs = [], []
    real_reduce, real_delete = stnum.reduce_indegrees, RootPathState.delete_arc

    def watched_delete(state, u, v):
        deleted.append((u, v))
        real_delete(state, u, v)

    def watched_reduce(g):
        before, mark = arcs_of(g), len(deleted)
        red = real_reduce(g)
        assert arcs_of(g) == before
        assert arcs_of(red) == before - set(deleted[mark:])
        assert g.m - red.m == len(deleted) - mark > 0
        inputs.append(type(g))
        return red

    monkeypatch.setattr(RootPathState, "delete_arc", watched_delete)
    monkeypatch.setattr(stnum, "reduce_indegrees", watched_reduce)
    assert validate_numbering(d, rr_numbering(d).order)
    assert inputs == [RootedDigraph, WorkGraph]


def rescanning_corpus():
    """`oracle_corpus` plus relabelled t_l and boloney, whose vertex ids no
    longer follow the construction order."""
    out = oracle_corpus()
    out += [relabelled(normalize(gen_t_l(l))[0], l) for l in range(3, 9)]
    out += [relabelled(gen_boloney(k), k) for k in (3, 5, 8, 13)]
    return out


def differential_corpus():
    """`rescanning_corpus`, raw 2-connected digraphs with arcs into the root,
    and the approx-dense benchmark's cores, `gen_random(n, 4/n)` for n
    86-115."""
    out = rescanning_corpus()
    out += raw_two_connected_with_root_in_arcs(150, seed_base=3100)
    out += [cutvertex_free_core(gen_random(n, 4 / n, seed=n)) for n in range(86, 116)]
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
        state, network = RootPathState(d), RootPathNetwork(d)
        targets = [v for v in d.vertices if v != d.root]
        rng = random.Random(i)
        for round_ in range(4):
            for v in targets:
                paths = two_disjoint_root_paths(state, v)
                assert paths == rescanning_disjoint_root_paths(network, v)
                missing += paths is None
                calls += 1
            if round_ == 3:
                break
            # three rounds of deletions, each with a tree arc, which drops
            # the tree, and two arcs drawn from all live ones
            tree = state.tree()
            tree_arcs = [(tree[v], v) for v in targets if v in tree]
            arcs = [(u, v) for u in sorted(state.out) for v in state.out[u]]
            deletions = set(rng.sample(arcs, min(2, len(arcs))))
            if tree_arcs:
                deletions.add(rng.choice(tree_arcs))
            for u, v in sorted(deletions):
                state.delete_arc(u, v)
                network.delete_arc(u, v)
            if tree_arcs:
                assert state._tree is None
                rebuilt += 1
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
    state, network = RootPathState(d), RootPathNetwork(d)
    for v in d.vertices:
        if v != root:
            paths = two_disjoint_root_paths(state, v)
            assert (paths is None) == (rescanning_disjoint_root_paths(network, v) is None)
            if paths is not None:
                assert all(p[0] == root and p[-1] == v for p in paths)
                assert not set(paths[0][1:-1]) & set(paths[1][1:-1])
                assert all(d.has_arc(a, b) for p in paths for a, b in zip(p, p[1:]))


def test_reduce_indegrees_and_numbering_match_rescanning_search(monkeypatch):
    corpus = rescanning_corpus()
    tree_arcs_deleted = []
    real_delete = RootPathState.delete_arc

    def watched_delete(state, u, v):
        tree_arcs_deleted.append((state._tree or {}).get(v) == u)
        real_delete(state, u, v)

    monkeypatch.setattr(RootPathState, "delete_arc", watched_delete)
    reduced = [reduce_indegrees(d).freeze() for d in corpus]
    orders = [rr_numbering(d).order for d in corpus]
    assert len(tree_arcs_deleted) > 1000 and not any(tree_arcs_deleted)
    monkeypatch.setattr(stnum, "RootPathState", RootPathNetwork)
    monkeypatch.setattr(stnum, "two_disjoint_root_paths", rescanning_disjoint_root_paths)
    assert [reduce_indegrees(d).freeze() for d in corpus] == reduced
    assert [rr_numbering(d).order for d in corpus] == orders


def test_numbering_matches_rescanning_elimination():
    corpus = rescanning_corpus()
    corpus.append(cutvertex_free_core(gen_random(148, 3 / 148, seed=5208)))
    for d in corpus:
        assert rr_numbering(d).order == rescanning_rr_numbering(d)


def test_bound_trees_match_split_and_trim_oracles():
    corpus = differential_corpus()
    corpus += two_connected_instances(40, 5, 14, seed_base=2600)
    corpus += two_connected_instances(20, 5, 14, seed_base=50, oriented=True, p_lo=0.1, p_hi=0.3)
    anchored = 0
    for d in corpus:
        num = rr_numbering(d)
        sides = in_sides(d, num)
        assert bound1_tree(d, sides).parent == splitting_bound1_tree(d, num).parent
        dec, old = transverse_decomposition(d, sides), trimming_transverse_decomposition(d, num)
        for field in ("t_f", "t_b", "transverse_f", "transverse_b", "chosen", "s_left", "s_right"):
            assert getattr(dec, field) == getattr(old, field), field
        assert dec.union.arcs() == old.union.arcs()
        assert bound2_tree(d, sides).parent == acyclic_many_leaves(old.union).parent
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
            assert verdict == any_scan_validate_numbering(d, candidate)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 200

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf.digraph import (build, bfs_tree, classify, cutvertices,
                             dominators_from_maps, find_cutvertex,
                             immediate_dominators, is_2connected, is_connected,
                             normalize, NormDeleteStep,
                             NormMergeStep, Outbranching, RootedDigraph,
                             WorkGraph, reachable, verify_outbranching)
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import gen_boloney, gen_random, gen_t_l
from maxleaf.stnum import RootPathState, two_disjoint_root_paths

from support import (brute_cutvertices, brute_idom, is_normalized, iterative_idom,
                     looped_digraph_maps, random_instances, raw_digraph, relabelled)


def test_build_smallest_star():
    d = build(3, 0, [(0, 1), (0, 2)])
    assert d.n == 3 and d.m == 2
    assert d.out_neighbors(0) == (1, 2)


def test_constructor_matches_per_arc_loop():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.choice([1, 2, 3, rng.randint(4, 40)])
        ids = sorted(rng.sample(range(3 * n + 5), n)) if seed % 2 else list(range(n))
        arcs = [(u, v) for u, v in ((rng.choice(ids), rng.choice(ids))
                                    for _ in range(rng.randint(0, 4 * n))) if u != v]
        arcs += rng.sample(arcs, len(arcs) // 3)  # duplicates
        rng.shuffle(arcs)
        root = rng.choice(ids)
        expected = looped_digraph_maps(ids, root, arcs)
        for given_arcs in (arcs, iter(arcs), (a for a in arcs), set(arcs)):
            d = RootedDigraph(reversed(ids), root, given_arcs)
            assert (d.vertices, d._out, d._in, d._arcset) == expected
            assert d.root == root


def test_constructor_names_a_bad_arc_as_the_per_arc_loop_did():
    ids = [2, 5, 9, 11]
    good = [(2, 5), (5, 9), (9, 11), (2, 11), (11, 5)]
    cases = {"loop": (9, 9), "unknown tail": (4, 9), "unknown head": (5, 7),
             "unknown both": (1, 3)}
    for bad in cases.values():
        for at in range(len(good) + 1):
            arcs = good[:at] + [bad] + good[at:]
            with pytest.raises(ValueError) as expected:
                looped_digraph_maps(ids, 2, arcs)
            with pytest.raises(ValueError) as got:
                RootedDigraph(ids, 2, arcs)
            assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError) as expected:
        looped_digraph_maps(ids, 3, good)
    with pytest.raises(ValueError) as got:
        RootedDigraph(ids, 3, good + [(9, 9)])
    assert str(got.value) == str(expected.value) == "root 3 is not a vertex"
    # with several bad arcs the smallest is named
    with pytest.raises(ValueError, match=r"^arc \(1, 3\) uses an unknown vertex$"):
        RootedDigraph(ids, 2, good + [(9, 9), (5, 7), (1, 3)])


def test_build_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        build(3, 0, [(0, 1), (1, 1)])


def test_build_rejects_bad_root_and_range():
    with pytest.raises(ValueError):
        build(3, 5, [])
    with pytest.raises(ValueError):
        build(3, 0, [(0, 7)])


def test_build_collapses_duplicates():
    d = build(3, 0, [(0, 1), (0, 1), (1, 2)])
    assert d.m == 2


def test_normalize_removes_arcs_into_root():
    d, _ = normalize(build(3, 0, [(0, 1), (1, 0), (0, 2)]))
    assert d.arcs() == [(0, 1), (0, 2)]


def test_normalize_removes_arcs_into_root_outneighbors():
    d, _ = normalize(build(3, 0, [(0, 1), (2, 1), (0, 2)]))
    assert d.arcs() == [(0, 1), (0, 2)]


def test_normalize_merges_single_outneighbor():
    raw = build(4, 0, [(0, 1), (1, 2), (1, 3), (2, 3)])
    d, steps = normalize(raw)
    assert [s.absorbed for s in steps if isinstance(s, NormMergeStep)] == [1]
    assert d.root_out() == (2, 3)
    assert maxleaf_exact(raw).maxleaf == maxleaf_exact(d).maxleaf == 2


def test_normalize_rewrites_a_frozen_digraph_in_one_copy(monkeypatch):
    copies, builds = [], []
    real_copy, real_build = WorkGraph.__init__, RootedDigraph.__init__

    def counted_copy(self, *args):
        copies.append(args)
        real_copy(self, *args)

    def counted_build(self, *args):
        builds.append(args)
        real_build(self, *args)

    multi = 0
    for d in [raw_digraph(seed) for seed in range(400, 700)] + [gen_t_l(4)]:
        ref = d
        for step in normalize(d)[1]:
            ref = step.apply(ref)  # one copy and one freeze per step
        monkeypatch.setattr(WorkGraph, "__init__", counted_copy)
        monkeypatch.setattr(RootedDigraph, "__init__", counted_build)
        copies.clear()
        builds.clear()
        got, steps = normalize(d)
        monkeypatch.undo()
        assert got == ref and isinstance(got, RootedDigraph)
        # deletions before the first merge: one filtered build; from the
        # merge on: one copy, frozen once
        merges = any(isinstance(s, NormMergeStep) for s in steps)
        first_deletes = bool(steps) and isinstance(steps[0], NormDeleteStep)
        assert (len(copies), len(builds)) == (merges, merges + first_deletes)
        assert steps or got is d
        multi += merges and len(steps) >= 3
    assert multi > 10


def test_normalize_invariants_on_corpus():
    for d in random_instances(30, 4, 12, seed_base=900):
        assert is_normalized(d)
        assert d.indeg(d.root) == 0
        root_out = set(d.root_out())
        for u, v in d.arcs():
            assert v != d.root
            assert u == d.root or v not in root_out


def test_normalize_preserves_maxleaf():
    # raw instances with arcs into the root, arcs into root outneighbors,
    # and roots of outdegree 1, before any normalization
    import random
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        arcs = [(rng.randrange(v), v) for v in range(1, n)]
        arcs += [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.25]
        if rng.random() < 0.4:  # force a single root outneighbor via a funnel
            arcs = [(u, v) for u, v in arcs if u != 0] + [(0, 1)]
        raw = build(n, 0, arcs)
        if len(reachable(raw)) != n:
            continue
        norm, _ = normalize(raw)
        assert maxleaf_exact(raw).maxleaf == maxleaf_exact(norm).maxleaf, seed
        assert is_normalized(norm)


def test_reachable():
    star = build(3, 0, [(0, 1), (0, 2)])
    assert reachable(star) == {0, 1, 2}
    path = build(3, 0, [(0, 1), (1, 2)])
    assert reachable(path, {1}) == {0}
    assert reachable(gen_boloney(3)) == set(gen_boloney(3).vertices)


def test_reachable_rejects_root_removal():
    with pytest.raises(ValueError):
        reachable(build(2, 0, [(0, 1)]), {0})


def test_find_cutvertex_examples():
    assert find_cutvertex(build(3, 0, [(0, 1), (1, 2)])) == 1
    assert find_cutvertex(build(4, 0, [(0, 1), (0, 2), (0, 3)])) is None
    d = build(5, 0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    assert find_cutvertex(d) == 3


def test_cutvertices_match_removal_scan():
    for d in random_instances(40, 4, 12, seed_base=300):
        assert cutvertices(d) == brute_cutvertices(d)


def test_is_2connected_examples():
    assert is_2connected(build(3, 0, [(0, 1), (0, 2)]))
    assert not is_2connected(build(3, 0, [(0, 1), (1, 2)]))
    assert is_2connected(gen_t_l(3))


def test_is_2connected_matches_disjoint_paths():
    for d in random_instances(25, 4, 10, seed_base=501):
        state = RootPathState(d)
        expected = is_connected(d) and all(
            two_disjoint_root_paths(state, v) is not None
            for v in d.vertices if v != d.root and v not in d.root_out())
        assert is_2connected(d) == expected


def test_is_2connected_matches_removal_scan_with_unreachable_vertices():
    """Raw digraphs, some with unreachable vertices, and each 2-connected
    one again with an unreachable vertex that has an arc into it, so that
    only the size of the dominator map can reject it."""
    kinds = {"unreachable": 0, "cut": 0, "2-connected": 0}
    for seed in range(300):
        d = raw_digraph(seed)
        expected = is_connected(d) and not brute_cutvertices(d)
        assert is_2connected(d) == is_2connected(WorkGraph(d)) == expected
        kinds["2-connected" if expected else "cut" if is_connected(d) else "unreachable"] += 1
        if expected:
            n = d.n
            stray = RootedDigraph(range(n + 1), d.root, [*d.arc_set(), (n, d.root_out()[0])])
            assert not is_connected(stray) and not is_2connected(stray)
    assert min(kinds.values()) >= 40, kinds


def test_classify_two_circuit_pair():
    d = build(3, 0, [(0, 1), (0, 2), (1, 2), (2, 1)])
    cls = classify(d)
    assert (0, 1) in cls.simple_arcs and (0, 2) in cls.simple_arcs
    assert (1, 2) not in cls.simple_arcs
    assert cls.nice == {1, 2} and cls.special == {1, 2}


def test_classify_nonspecial_vertex():
    # v=3 has two in-arcs, both halves of 2-circuits
    d = build(4, 0, [(0, 1), (0, 2), (1, 3), (3, 1), (2, 3), (3, 2)])
    cls = classify(d)
    assert 3 in cls.nonspecial
    assert 3 not in cls.special


def test_classify_matches_definition_scan():
    for d in random_instances(25, 4, 10, seed_base=777) + [gen_t_l(3)]:
        cls = classify(d)
        for v in d.vertices:
            if v == d.root:
                assert v not in cls.special and v not in cls.nice
                continue
            nice = any(not d.has_arc(v, u) for u in d.in_neighbors(v))
            assert (v in cls.nice) == nice
            assert (v in cls.special) == (nice or d.indeg(v) >= 3)
            assert (v in cls.nonspecial) == (v not in cls.special)


def test_verify_outbranching_star():
    d = build(4, 0, [(0, 1), (0, 2), (0, 3)])
    check = verify_outbranching(d, Outbranching(0, {1: 0, 2: 0, 3: 0}))
    assert check.ok and check.leaf_count == 3


def test_verify_outbranching_rejects_missing_arc():
    d = build(3, 0, [(0, 1), (0, 2)])
    check = verify_outbranching(d, Outbranching(0, {1: 0, 2: 1}))
    assert not check.ok
    assert "(1, 2)" in check.reason


def test_verify_outbranching_rejects_cycle_and_gaps():
    # every tree arc is an arc of d, so only the reachability check rejects
    d = build(4, 0, [(0, 1), (1, 2), (2, 3), (3, 2), (3, 1)])
    bad = Outbranching(0, {1: 0, 2: 3, 3: 2})
    check = verify_outbranching(d, bad)
    assert not check.ok
    assert check.reason == "vertices [2, 3] not reachable inside the tree"
    assert not verify_outbranching(d, Outbranching(0, {1: 0})).ok


def test_bfs_tree_puts_root_children_first():
    d = build(5, 0, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4), (1, 2)])
    t = bfs_tree(d)
    assert t.parent[1] == 0 and t.parent[2] == 0
    assert verify_outbranching(d, t).ok


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.data())
def test_build_is_loopless_and_deduplicated(n, data):
    arcs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda a: a[0] != a[1]),
        max_size=25))
    d = build(n, 0, arcs)
    assert d.m == len(set(arcs))
    assert all(u != v for u, v in d.arcs())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_exact_witness_matches_count(seed):
    d = gen_random(2 + seed % 7, 0.35, seed)
    res = maxleaf_exact(d)
    check = verify_outbranching(d, res.witness)
    assert check.ok and check.leaf_count == res.maxleaf


def test_dominators_ignore_adjacency_order():
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        arcs = [(rng.randrange(v), v) for v in range(1, n)]
        arcs += [(rng.randrange(n), rng.randrange(1, n)) for _ in range(rng.randint(0, 2 * n))]
        d = build(n, 0, [(u, v) for u, v in arcs if u != v])
        expected = brute_idom(d)
        assert immediate_dominators(d) == expected
        for k in range(4):
            perm = random.Random(1000 * seed + k)
            keys = perm.sample(d.vertices, n)
            out_map = {v: perm.sample(d.out_neighbors(v), d.outdeg(v)) for v in keys}
            in_map = {v: perm.sample(d.in_neighbors(v), d.indeg(v)) for v in keys}
            assert dominators_from_maps(d.root, out_map, in_map) == expected
            out_sets = {v: set(out_map[v]) for v in keys}
            in_sets = {v: set(in_map[v]) for v in keys}
            assert dominators_from_maps(d.root, out_sets, in_sets) == expected


def test_dominators_match_iterative_oracle():
    corpus = [relabelled(gen_t_l(l), l) for l in range(3, 11)]
    corpus += [relabelled(gen_boloney(k), k) for k in (5, 20, 60)]
    corpus += random_instances(40, 50, 300, seed_base=6100, p_lo=0.005, p_hi=0.03)
    corpus += [raw_digraph(seed) for seed in range(6200, 6400)]  # some partly unreachable
    partial = 0
    for d in corpus:
        out_map = {v: d.out_neighbors(v) for v in d.vertices}
        in_map = {v: d.in_neighbors(v) for v in d.vertices}
        idom = dominators_from_maps(d.root, out_map, in_map)
        assert idom == iterative_idom(d.root, out_map, in_map)
        partial += len(idom) < d.n
    assert partial > 10

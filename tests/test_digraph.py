import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf.digraph import (build, bfs_tree, classify, cutvertices,
                             find_cutvertex, is_2connected,
                             is_2connected_from_maps, is_connected,
                             is_normalized, normalize, Outbranching,
                             reachable, verify_outbranching)
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import gen_boloney, gen_random, gen_t_l
from maxleaf.stnum import two_disjoint_root_paths

from support import brute_cutvertices, random_instances


def test_build_smallest_star():
    d = build(3, 0, [(0, 1), (0, 2)])
    assert d.n == 3 and d.m == 2
    assert d.out_neighbors(0) == (1, 2)


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
    d, note = normalize(raw)
    assert note.merged == [1]
    assert d.root_out() == (2, 3)
    assert maxleaf_exact(raw).maxleaf == maxleaf_exact(d).maxleaf == 2


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
        expected = is_connected(d) and all(
            two_disjoint_root_paths(d, v) is not None
            for v in d.vertices if v != d.root and v not in d.root_out())
        assert is_2connected(d) == expected
        # the maps-level check, on the mutable set maps the numbering edits
        out_map = {v: set(d.out_neighbors(v)) for v in d.vertices}
        in_map = {v: set(d.in_neighbors(v)) for v in d.vertices}
        assert is_2connected_from_maps(d.root, out_map, in_map) == expected


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
    d = build(4, 0, [(0, 1), (1, 2), (2, 3), (3, 1)])
    bad = Outbranching(0, {1: 0, 2: 3, 3: 2})
    assert not verify_outbranching(d, bad).ok
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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf.digraph import (build, bfs_tree, classify, cutvertices,
                             dominators_from_maps, euler_intervals, find_cutvertex,
                             grow_tree, immediate_dominators, is_2connected, is_connected,
                             normalize, NormDeleteStep,
                             NormMergeStep, Outbranching, RootedDigraph,
                             reachable, verify_outbranching)
from maxleaf.errors import InfeasibleError
from maxleaf.exact import maxleaf_exact
from maxleaf.graphio import format_graph, parse_graph
from maxleaf.gen import gen_boloney, gen_random, gen_t_l
from maxleaf.reduce import apply_rule1
from maxleaf.stnum import root_path_tree, two_disjoint_root_paths

from support import (broom, brute_cutvertices, brute_idom, count_calls, dominator_chain,
                     is_normalized, iterative_idom, legacy_rooted_digraph,
                     lengauer_tarjan_idom, looped_digraph_maps, random_instances, raw_digraph,
                     rebuilt, relabelled, root_path_lists, simple_arcs, tuple_stack_euler_intervals)


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
            assert (d.vertices, d._out, d._in, d.arc_set()) == expected
            assert d.root == root


def test_frozen_and_working_states_answer_alike():
    """A frozen graph, its working copy and the per-arc loop agree on every
    query; `normalize` gives the same result twice on one frozen input and
    on its working copy, and no rewrite changes a frozen argument."""
    rewritten = merged = 0
    for seed in range(200):
        raw = raw_digraph(seed)
        ids = random.Random(seed).sample(range(3 * raw.n), raw.n)
        name = dict(zip(raw.vertices, ids))
        root = name[raw.root]
        arcs = [(name[u], name[v]) for u in raw.vertices for v in raw._out[u]]
        d = RootedDigraph(ids, root, arcs)
        vs, _, _, arcset = looped_digraph_maps(ids, root, arcs)
        snapshot = (d.vertices, dict(d._out), dict(d._in))
        work = d.thaw()
        probes = (-1, *sorted(set(range(3 * raw.n + 1)) - set(ids))[:3], *vs)
        for g in (d, work):
            assert (tuple(g.vertices), g.m, g.arc_set()) == (vs, len(arcset), arcset)
            assert g.arcs() == sorted(arcset)
            assert all(g.has_arc(u, v) == ((u, v) in arcset) for u in probes for v in probes)
        assert d.vertices == vs and d.frozen and not work.frozen
        assert d == work and work == d and hash(d) == hash(work)

        first, again = normalize(d), normalize(d)
        assert first == again and first[0].frozen
        assert normalize(work) == first and not work.frozen
        rewritten += bool(first[1])
        merged += any(isinstance(s, NormMergeStep) for s in first[1])
        v = next(v for v in vs if v != root)
        rest = [w for w in ids if w != v]
        shortcuts = [(root, w) for w in d.out_neighbors(v) if w != root]
        into_root = {(root if a == v else a, root if b == v else b) for a, b in arcset}
        # each rewrite against a rebuild from the filtered arc list
        for rewrite, ref in (
                (lambda g: g.without_arcs(arcs[::2] + [(root, root)]),
                 RootedDigraph(ids, root, arcset - set(arcs[::2]))),
                (lambda g: g.without_vertex(v, shortcuts),
                 RootedDigraph(rest, root, [a for a in arcset if v not in a] + shortcuts)),
                (lambda g: g.contracted(root, v),
                 RootedDigraph(rest, root, [(a, b) for a, b in into_root if a != b]))):
            got = rewrite(d)
            assert got is not d and got.frozen and got == ref
            assert rewrite(d.thaw()) == ref
        assert (d.vertices, d._out, d._in) == snapshot and d.frozen
    assert rewritten > 150 and merged > 10


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


def test_constructor_matches_the_arc_set_build():
    """The bucket-sorting constructor gives the adjacency, vertices and key
    of the arc-set build it replaced (`legacy_rooted_digraph`) on ascending,
    shuffled and duplicated arcs, on non-dense ids and on a single vertex,
    as tuples, and names the same bad arc."""
    rng = random.Random(7)
    cases = [([4], 4, [])]
    for d in (gen_random(300, 4 / 300, 1), gen_t_l(6), gen_boloney(20)):
        arcs = d.arcs()
        shuffled = rng.sample(arcs, len(arcs))
        ids = rng.sample(range(5 * d.n), d.n)
        name = dict(zip(d.vertices, ids))
        cases += [(d.vertices, d.root, arcs),
                  (d.vertices, d.root, shuffled),
                  (d.vertices, d.root, shuffled + arcs[::3] + arcs[:5]),
                  (ids, name[d.root], [(name[u], name[v]) for u, v in shuffled])]
    for vertices, root, arcs in cases:
        got = RootedDigraph(vertices, root, iter(arcs))
        ref = legacy_rooted_digraph(vertices, root, arcs)
        assert (got.vertices, got._out, got._in, got._key()) == (
            ref.vertices, ref._out, ref._in, ref._key())
        assert got.frozen and all(type(ws) is tuple for ws in (*got._out.values(),
                                                               *got._in.values()))
    vertices, root, arcs = cases[-1]
    for bad in ([(arcs[0][0], arcs[0][0])], [(-1, root)], [(root, -1), (-2, -2)]):
        with pytest.raises(ValueError) as expected:
            legacy_rooted_digraph(vertices, root, arcs + bad)
        with pytest.raises(ValueError) as got:
            RootedDigraph(vertices, root, bad + arcs)
        assert str(got.value) == str(expected.value)


def _fresh(arcs):
    """The arcs as new int objects, as a file's decoder makes them."""
    return [(int(str(u)), int(str(v))) for u, v in arcs]


def test_adjacency_entries_are_the_vertices_key_objects():
    """Every adjacency entry of a built and of a parsed graph is its
    vertex's own key object, not the arc's int: above 256 CPython makes a
    new int per decoded field, and shared ones let every dict and set
    lookup of an id succeed by identity."""
    d = gen_random(600, 4 / 600, 3)
    shifted = {v: 3 * v + 1000 for v in d.vertices}
    graphs = [build(d.n, d.root, _fresh(d.arcs())),
              parse_graph(format_graph(d)),
              RootedDigraph(shifted.values(), shifted[d.root],
                            _fresh((shifted[u], shifted[v]) for u, v in d.arcs()))]
    for g in graphs:
        assert g.n > 256 and g.m > 2 * g.n
        own = {v: v for v in g.vertices}
        assert all(v is own[v] for lists in (g._out, g._in) for u in g.vertices
                   for v in (u, *lists[u]))
        assert all(own[k] is k for k in (*g._out, *g._in))
    assert all(v is graphs[1].vertices[v] for ws in graphs[1]._out.values() for v in ws)


def test_dense_ids_build_as_other_ids_do():
    """Ids 0..n-1, which the constructor buckets in lists, give the same
    digraph as the same arcs on other ids, which it buckets in a dict, on
    ascending, shuffled and duplicated arcs."""
    rng = random.Random(11)
    for d in (gen_random(300, 4 / 300, 2), gen_t_l(5), gen_boloney(12), raw_digraph(3)):
        arcs = d.arcs()
        duplicated = arcs + rng.sample(arcs, len(arcs) // 2)
        rng.shuffle(duplicated)
        for given in (arcs, rng.sample(arcs, len(arcs)), duplicated):
            for name in ({v: v + 7 for v in d.vertices}, {v: 5 * v - 40 for v in d.vertices}):
                dense = RootedDigraph(range(d.n), d.root, iter(given))
                other = RootedDigraph(name.values(), name[d.root],
                                      ((name[u], name[v]) for u, v in given))
                assert dense == d
                assert other._out == {name[u]: tuple(name[v] for v in ws)
                                      for u, ws in dense._out.items()}
                assert other._in == {name[v]: tuple(name[u] for u in ws)
                                     for v, ws in dense._in.items()}


@pytest.mark.parametrize("ids", [list(range(6)), [-3, 2, 5, 9, 11, 40]])
def test_constructor_names_the_smallest_bad_arc_from_a_list_and_a_generator(ids):
    """A loop, an unknown id and a negative one (which must not wrap around
    in a list of buckets), alone at any position or together: the
    ValueError names the smallest bad arc, as the arc-set build does."""
    a, b, c, d, e, f = ids
    good = [(a, b), (b, c), (c, d), (a, d), (d, e), (e, f), (f, b)]
    bads = [(c, c), (a, 7), (7, b), (-1, c), (c, -1), (-100, a), (b, -100), (1000, a)]
    cases = [good[:at] + [bad] + good[at:] for bad in bads for at in (0, 3, len(good))]
    cases += [good + bads, bads[::-1] + good, good[:2] + bads[2:] + good[2:] + bads[:2]]
    for arcs in cases:
        with pytest.raises(ValueError) as expected:
            legacy_rooted_digraph(ids, a, arcs)
        for given in (arcs, iter(arcs), (arc for arc in arcs)):
            with pytest.raises(ValueError) as got:
                RootedDigraph(ids, a, given)
            assert str(got.value) == str(expected.value)


def test_working_copies_share_only_tuples():
    """Two working copies of one frozen graph, and a copy of one of them
    taken after its first rewrites, each rewritten through `without_arcs`,
    `without_vertex`, `contracted` and a rule 1 step: the frozen graph and
    every sibling stay as they were, no set is held by two graphs, and
    after `freeze` every vertex whose lists no rewrite touched holds the
    frozen graph's very tuples."""
    source = next(d for d in (gen_random(120, 2.5 / 120, s) for s in range(100))
                  if len(cutvertices(d)) >= 3)
    lists = (dict(source._out), dict(source._in))

    def snapshot(g):
        return {v: (tuple(sorted(g._out[v])), tuple(sorted(g._in[v]))) for v in g.vertices}

    def rewrite(g, touched, seed):
        rng = random.Random(seed)

        def around(v):
            return {v, *g._out[v], *g._in[v]}

        x = rng.choice(cutvertices(g))
        touched |= around(x)
        g, _ = apply_rule1(g, x)
        tree = set(bfs_tree(g).arcs())
        arcs = rng.sample([arc for arc in g.arcs() if arc not in tree], 4)
        touched.update(v for arc in arcs for v in arc)
        g.without_arcs(arcs)
        v = rng.choice([v for v in g.vertices if v != g.root])
        shortcuts = [(u, z) for u in g._in[v] for z in g._out[v] if u != z]
        touched |= around(v)
        g.without_vertex(v, shortcuts)
        keep = rng.choice([v for v in g.vertices if g._out[v]])
        absorb = rng.choice([z for z in g._out[keep] if z != g.root])
        touched |= around(absorb) | {keep}
        g.contracted(keep, absorb)

    a, b = source.thaw(), source.thaw()
    touched = {id(a): set(), id(b): set()}
    rewrite(a, touched[id(a)], 1)
    c = a.thaw()
    touched[id(c)] = set(touched[id(a)])
    before = snapshot(a)
    assert snapshot(c) == before
    rewrite(b, touched[id(b)], 2)
    assert snapshot(a) == snapshot(c) == before
    after_b = snapshot(b)
    rewrite(c, touched[id(c)], 3)
    # c also writes to the lists that a owns as sets and c holds as copies
    arcs = [(u, min(c._out[u])) for u in touched[id(a)] if c._out.get(u)]
    touched[id(c)].update(v for arc in arcs for v in arc)
    c.without_arcs(arcs)
    assert snapshot(a) == before and snapshot(b) == after_b
    assert (source._out, source._in) == lists and source.frozen
    assert all(source._out[v] is lists[0][v] and source._in[v] is lists[1][v]
               for v in source.vertices)
    sets = [id(ws) for g in (a, b, c) for adj in (g._out, g._in)
            for ws in adj.values() if type(ws) is not tuple]
    assert len(sets) == len(set(sets)) > 0
    for g in (a, b, c):
        untouched = [v for v in g.freeze().vertices if v not in touched[id(g)]]
        assert len(untouched) > source.n // 3
        assert all(g._out[v] is lists[0][v] and g._in[v] is lists[1][v] for v in untouched)


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
    cases = []
    for d in [raw_digraph(seed) for seed in range(400, 700)] + [gen_t_l(4)]:
        ref = d
        for step in normalize(d)[1]:
            ref = rebuilt(ref, step)
        cases.append((d, ref))
    thaws = count_calls(monkeypatch, RootedDigraph, "thaw")
    builds = count_calls(monkeypatch, RootedDigraph, "__init__")
    multi = 0
    for d, ref in cases:
        thaws.clear()
        got, steps = normalize(d)
        assert got == ref and got.frozen
        # one copy at the first rewrite, frozen in place at the end
        assert (len(thaws), len(builds)) == (bool(steps), 0)
        assert steps or got is d
        multi += any(isinstance(s, NormMergeStep) for s in steps) and len(steps) >= 3
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
        out = root_path_lists(d)
        tree = root_path_tree(out, d.root)
        expected = is_connected(d) and all(
            two_disjoint_root_paths(d, out, tree, v) is not None
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
        assert is_2connected(d) == is_2connected(d.thaw()) == expected
        kinds["2-connected" if expected else "cut" if is_connected(d) else "unreachable"] += 1
        if expected:
            n = d.n
            stray = RootedDigraph(range(n + 1), d.root, [*d.arc_set(), (n, d.root_out()[0])])
            assert not is_connected(stray) and not is_2connected(stray)
    assert min(kinds.values()) >= 40, kinds


def test_classify_two_circuit_pair():
    d = build(3, 0, [(0, 1), (0, 2), (1, 2), (2, 1)])
    cls = classify(d)
    assert simple_arcs(d) == {(0, 1), (0, 2)}
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


def test_grow_tree_reads_a_working_graph_ascending():
    # 10 gains 9 before 1, so its out-set iterates 9 first; read in that
    # order, 9 would discover 5 before 1 does
    d = RootedDigraph((0, 1, 3, 5, 9, 10), 0, [(0, 10), (3, 1), (3, 9), (1, 5), (9, 5)])
    work = d.thaw().without_vertex(3, [(10, 9), (10, 1)])
    assert list(work._out[10]) == [9, 1]
    tree = grow_tree(work)
    assert tree == grow_tree(RootedDigraph(work.vertices, work.root, work.arcs()))
    assert tree.parent == {10: 0, 1: 10, 9: 10, 5: 1}


def test_bfs_tree_and_cutvertices_reject_unreachable_vertices_alike():
    seen = 0
    for d in [build(3, 0, [(0, 1)]), *map(raw_digraph, range(300))]:
        if is_connected(d):
            assert len(bfs_tree(d).parent) == d.n - 1
            continue
        for check in (bfs_tree, cutvertices):
            with pytest.raises(InfeasibleError, match=r"^some vertex is unreachable from the root$"):
                check(d)
        seen += 1
    assert seen >= 40


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


def adjacency_variants(d, seed):
    """d's out- and in-maps as sorted tuples, as sets, and as shuffled lists
    under shuffled keys."""
    rng = random.Random(seed)
    yield d._out, d._in
    yield ({v: set(d.out_neighbors(v)) for v in d.vertices},
           {v: set(d.in_neighbors(v)) for v in d.vertices})
    keys = rng.sample(d.vertices, d.n)
    yield ({v: rng.sample(d.out_neighbors(v), d.outdeg(v)) for v in keys},
           {v: rng.sample(d.in_neighbors(v), d.indeg(v)) for v in keys})


def dominators_match_oracles(d, seed):
    """`dominators_from_maps` equals the Lengauer-Tarjan and iterative
    oracles on every adjacency variant of d, and the removal scan on the
    reachable part when d is small; returns the map."""
    expected = None
    for out_map, in_map in adjacency_variants(d, seed):
        idom = dominators_from_maps(d.root, out_map, in_map)
        assert idom == lengauer_tarjan_idom(d.root, out_map, in_map)
        assert idom == iterative_idom(d.root, out_map, in_map)
        assert expected is None or idom == expected
        expected = idom
    if d.n <= 60:
        brute = brute_idom(d)
        assert expected == {v: brute[v] for v in reachable(d)}
    return expected


def test_dominators_match_iterative_oracle():
    corpus = [relabelled(gen_t_l(l), l) for l in range(3, 11)]
    corpus += [relabelled(gen_boloney(k), k) for k in (5, 20, 60)]
    corpus += random_instances(40, 50, 300, seed_base=6100, p_lo=0.005, p_hi=0.03)
    corpus += [raw_digraph(seed) for seed in range(6200, 6400)]  # some partly unreachable
    partial = 0
    for seed, d in enumerate(corpus):
        idom = dominators_match_oracles(d, seed)
        partial += len(idom) < d.n
    assert partial > 10


def test_dominators_on_deep_chains_and_brooms():
    """Deep dominator trees, where walking up one dominator at a time from
    the depth-first parent is slow: on a broom every leaf reached from k
    walks the whole path back to 1 without jump pointers."""
    for k, m in [(1, 1), (2, 3), (3, 1), (5, 5), (12, 30), (40, 8), (200, 200)]:
        d = broom(k, m)
        idom = dominators_match_oracles(d, k)
        assert idom == {0: 0, **{v: v - 1 for v in range(1, k + 1)},
                        **{v: 1 for v in range(k + 1, k + m + 1)}}
        dominators_match_oracles(relabelled(d, k * m), m)
    for blocks, back in [(1, 0), (4, 3), (15, 10), (60, 5), (60, 200), (400, 300)]:
        for seed in range(3):
            d = dominator_chain(blocks, back, seed)
            idom = dominators_match_oracles(d, seed)
            assert all(idom[3 * i + 3] == 3 * i for i in range(blocks))
            assert len(idom) == d.n - 2
            dominators_match_oracles(relabelled(d, seed), seed)


def test_euler_intervals_match_tuple_stack_oracle():
    """The same counters as the stack of (vertex, done) pairs on random
    parent maps: shuffled ids and map order (the children's visiting
    order), paths, stars and the single vertex."""
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.choice([1, 2, 3, rng.randint(4, 60), rng.randint(100, 400)])
        shape = rng.random()
        ids = rng.sample(range(3 * n), n)
        parent = {}
        for j in range(1, n):
            p = j - 1 if shape < 0.2 else 0 if shape < 0.3 else rng.randrange(j)
            parent[ids[j]] = ids[p]
        parent = dict(rng.sample(list(parent.items()), n - 1))
        tin, tout = euler_intervals(ids[0], parent)
        assert (tin, tout) == tuple_stack_euler_intervals(ids[0], parent)
        assert sorted([*tin.values(), *tout.values()]) == list(range(2 * n))

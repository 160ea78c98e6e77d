import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf.digraph import (RootedDigraph, build, classify, is_connected, normalize,
                            verify_outbranching)
from maxleaf.bounds import (acyclic_many_leaves, bound1_tree, bound2_tree,
                            dominate_bipartite, vertex_cover_third)
from maxleaf.errors import InternalInvariantError
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import gen_boloney, gen_star, gen_t_l
from maxleaf.stnum import rr_numbering

from support import (brute_min_vertex_cover, digraph_many_leaves, domination_scaffold,
                     in_lists, is_ancestor, many_leaves_bound, numbered_sides,
                     random_undirected_graphs, resorting_vertex_cover, split,
                     topological_order, transverse_decomposition, trim_to_indegree_two,
                     two_connected_instances)


# -- vertex cover --------------------------------------------------------


def test_cover_triangle():
    cover = vertex_cover_third(range(3), [(0, 1), (1, 2), (0, 2)])
    assert len(cover) <= 2
    assert all(u in cover or v in cover for u, v in [(0, 1), (1, 2), (0, 2)])


def test_cover_single_edge():
    assert len(vertex_cover_third([0, 1], [(0, 1)])) == 1


def test_cover_rejects_self_loop():
    with pytest.raises(ValueError):
        vertex_cover_third([0], [(0, 0)])


def test_cover_bound_and_minimality_gap():
    for vertices, edges in random_undirected_graphs(120, 8, seed_base=11):
        cover = vertex_cover_third(vertices, edges)
        assert all(u in cover or v in cover for u, v in edges)
        assert Fraction(len(cover)) <= Fraction(len(vertices) + len(edges), 3)
        assert len(cover) >= len(brute_min_vertex_cover(vertices, edges))


def test_cover_matches_resorting_oracle():
    graphs = random_undirected_graphs(150, 12, seed_base=91)
    graphs += random_undirected_graphs(20, 120, seed_base=391, p_lo=0.01, p_hi=0.08)
    for vertices, edges in graphs:
        random.Random(len(edges)).shuffle(vertices)
        assert vertex_cover_third(vertices, edges) == resorting_vertex_cover(vertices, edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.data())
def test_cover_property(n, data):
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
        unique=True, max_size=20))
    cover = vertex_cover_third(range(n), edges)
    assert all(u in cover or v in cover for u, v in edges)
    assert 3 * len(cover) <= n + len(edges)


# -- bipartite domination -------------------------------------------------


def test_dominate_single_element():
    s = dominate_bipartite(["a"], ["b1", "b2"], [("a", "b1"), ("a", "b2")])
    assert len(s) == 1 and s <= {"b1", "b2"}


def test_dominate_triangle_conflicts():
    edges = [(0, "x"), (0, "y"), (1, "y"), (1, "z"), (2, "x"), (2, "z")]
    s = dominate_bipartite([0, 1, 2], ["x", "y", "z"], edges)
    assert len(s) <= 2


def test_dominate_rejects_wrong_degree():
    with pytest.raises(ValueError, match="degree"):
        dominate_bipartite([0], [1, 2], [(0, 1)])


def test_dominate_random_instances():
    rng = random.Random(5)
    for _ in range(40):
        nb = rng.randint(2, 8)
        na = rng.randint(1, 10)
        b = list(range(nb))
        edges = []
        for a in range(na):
            b1, b2 = rng.sample(b, 2)
            edges += [(("a", a), b1), (("a", a), b2)]
        a_side = [("a", a) for a in range(na)]
        s = dominate_bipartite(a_side, b, edges)
        assert Fraction(len(s)) <= Fraction(na + nb, 3)
        nbrs = {}
        for a, bb in edges:
            nbrs.setdefault(a, set()).add(bb)
        assert all(nbrs[a] & s for a in a_side)


# -- acyclic many-leaves ---------------------------------------------------


def test_many_leaves_star():
    star = gen_star(5)
    tree = acyclic_many_leaves(star.root, in_lists(star))
    assert tree.leaf_count == 5
    assert Fraction(tree.leaf_count) >= many_leaves_bound(star)


def test_many_leaves_rejects_cycle():
    with pytest.raises(ValueError, match="cycle"):
        acyclic_many_leaves(0, in_lists(build(3, 0, [(0, 1), (1, 2), (2, 1)])))


def test_many_leaves_on_numbering_parts():
    for g in [normalize(gen_t_l(3))[0], gen_boloney(3), gen_boloney(4)]:
        parts = split(g, rr_numbering(g))
        for part in (parts.forward, parts.backward):
            tree = acyclic_many_leaves(part.root, in_lists(part))
            assert verify_outbranching(g, tree).ok
            assert Fraction(tree.leaf_count) >= many_leaves_bound(part)


def _outcome(fn, *args):
    """fn's result, or the type and message of the ValueError or
    InternalInvariantError it raises."""
    try:
        return fn(*args)
    except (ValueError, InternalInvariantError) as exc:
        return type(exc), str(exc)


def random_dags(count, seed_base):
    """Seeded digraphs that are acyclic along a random vertex order, n 1-12:
    most have the root first in that order; some add an arc into the root,
    a back arc, or drop the arcs into one vertex."""
    out = []
    for seed in range(seed_base, seed_base + count):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        order = rng.sample(range(n), n)
        if rng.random() < 0.8:
            order.insert(0, order.pop(rng.randrange(n)))
        root = order[0] if rng.random() < 0.9 else rng.choice(order)
        p = rng.uniform(0.1, 0.7)
        arcs = {(order[i], order[j]) for j in range(n) for i in range(j) if rng.random() < p}
        arcs.update((order[rng.randrange(j)], order[j]) for j in range(1, n) if rng.random() < 0.7)
        if n > 1 and rng.random() < 0.15:
            v = rng.choice(order[1:])
            arcs = {(u, w) for u, w in arcs if w != v}
        if n > 1 and rng.random() < 0.1:
            arcs.add((rng.choice([v for v in order if v != root]), root))
        if n > 1 and rng.random() < 0.2:
            i, j = sorted(rng.sample(range(n), 2))
            arcs.add((order[j], order[i]))
        out.append(RootedDigraph(range(n), root, arcs))
    return out


def test_acyclic_many_leaves_matches_digraph_oracle():
    # vertex 3's in-list is [1, 2, 4]: the cycle 3 -> 4 -> 3 runs through
    # its third in-arc, which cutting each list to two drops
    third_arc_cycle = build(5, 0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 3)])
    through_root = build(3, 2, [(2, 0), (0, 1), (1, 2)])
    corpus = [third_arc_cycle, through_root, build(1, 0, []), gen_star(4)]
    corpus += random_dags(1500, 5100)
    counts = dict.fromkeys(["cycle", "cycle_unconnected", "unconnected", "tree", "trimmed"], 0)
    for d in corpus:
        expected = _outcome(digraph_many_leaves, d)
        assert _outcome(acyclic_many_leaves, d.root, in_lists(d)) == expected
        if isinstance(expected, tuple):
            cycle = "cycle" in expected[1]
            counts["cycle" if cycle else "unconnected"] += 1
            counts["cycle_unconnected"] += cycle and not is_connected(d)  # cycle reported first
        else:
            counts["tree"] += 1
            counts["trimmed"] += any(d.indeg(v) > 2 for v in d.vertices)
    assert _outcome(acyclic_many_leaves, 0, in_lists(third_arc_cycle)) == (
        ValueError, "digraph has a directed cycle")
    assert min(counts.values()) >= 100, counts


def test_scaffold_invariants():
    for g in [normalize(gen_t_l(3))[0], gen_boloney(4)]:
        parts = split(g, rr_numbering(g))
        d = trim_to_indegree_two(parts.forward)
        sc = domination_scaffold(d)
        # strong domination: every non-root vertex has an in-neighbor in c
        for v in d.vertices:
            if v != d.root:
                assert any(u in sc.c for u in d.in_neighbors(v)), v
        l = sum(1 for v in d.vertices if d.indeg(v) >= 2)
        assert Fraction(len(sc.c)) <= d.n - 1 - Fraction(l + d.outdeg(d.root) - 1, 3)
        assert sc.x <= sc.b
        assert d.outdeg(sc.sink) == 0


# -- tree bounds ------------------------------------------------------------


def test_bound1_vacuous_without_high_indegree():
    d = build(3, 0, [(0, 1), (0, 2), (1, 2), (2, 1)])  # no indegree-3 vertex
    tree = bound1_tree(d, numbered_sides(d))
    assert verify_outbranching(d, tree).ok


def test_bound1_on_t4():
    d, _ = normalize(gen_t_l(4))
    tree = bound1_tree(d, numbered_sides(d))
    assert verify_outbranching(d, tree).ok
    l3 = sum(1 for v in d.vertices if v != d.root and d.indeg(v) >= 3)
    assert Fraction(tree.leaf_count) >= Fraction(l3, 6)


def test_bound1_never_beats_exact():
    for d in two_connected_instances(20, 5, 11, seed_base=2200):
        tree = bound1_tree(d, numbered_sides(d))
        assert verify_outbranching(d, tree).ok
        assert tree.leaf_count <= maxleaf_exact(d).maxleaf


def test_bound2_on_all_two_circuit_instance():
    arcs = [(0, 1), (0, 2)]
    for u, v in [(1, 2), (2, 3), (3, 1)]:
        arcs += [(u, v), (v, u)]
    d = build(4, 0, arcs)
    tree = bound2_tree(d, numbered_sides(d))
    assert verify_outbranching(d, tree).ok


def test_bound2_bound_and_validity():
    for d in two_connected_instances(15, 5, 11, seed_base=2400):
        tree = bound2_tree(d, numbered_sides(d))
        assert verify_outbranching(d, tree).ok
        lnice = len(classify(d).nice)
        assert Fraction(tree.leaf_count) >= Fraction(lnice, 24)
        assert tree.leaf_count <= maxleaf_exact(d).maxleaf


def test_bound2_oriented_sample():
    for d in two_connected_instances(5, 12, 30, seed_base=50, oriented=True, p_lo=0.1, p_hi=0.25):
        tree = bound2_tree(d, numbered_sides(d))
        assert verify_outbranching(d, tree).ok
        assert Fraction(tree.leaf_count) >= Fraction(d.n - 1, 24)


# -- transverse structure ----------------------------------------------------


def test_transverse_incomparability_and_acyclicity():
    for d in two_connected_instances(15, 5, 12, seed_base=2600):
        dec = transverse_decomposition(d, numbered_sides(d))
        for (u, v) in dec.transverse_f:
            assert not is_ancestor(dec.t_b, u, v) and not is_ancestor(dec.t_b, v, u)
        for (u, v) in dec.transverse_b:
            assert not is_ancestor(dec.t_f, u, v) and not is_ancestor(dec.t_f, v, u)
        assert dec.s_left | dec.s_right == (
            dec.transverse_f if dec.chosen == "forward" else dec.transverse_b)
        assert not (dec.s_left & dec.s_right)
        assert topological_order(dec.union) is not None


def test_every_nice_vertex_touches_a_transverse_arc():
    for d in two_connected_instances(15, 5, 12, seed_base=2800):
        dec = transverse_decomposition(d, numbered_sides(d))
        trimmed = RootedDigraph(d.vertices, d.root, dec.t_f.arcs() + dec.t_b.arcs())
        nice = classify(trimmed).nice
        root_out = set(trimmed.root_out())
        touched = set()
        for u, v in dec.transverse_f | dec.transverse_b:
            touched.update((u, v))
        for v in nice:
            if v in root_out:
                continue
            assert v in touched, (v, trimmed.arcs())

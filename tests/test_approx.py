import math
from fractions import Fraction

import pytest

from maxleaf.approx import (approximate, approximate_each_root, majbound_tree,
                            sqrt_opt_tree, weak_bipaths)
from maxleaf.digraph import build, classify, normalize, verify_outbranching
from maxleaf.errors import InfeasibleError
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import gen_dipath, gen_random, gen_star, gen_t_l
from maxleaf.reduce import kernelize
from maxleaf.stnum import rr_numbering

from support import random_instances, two_connected_instances


def anchored_chains(chains, chain_len=1):
    """r->p,q; p->a, q->b; `chains` double-linked chains between anchors a, b."""
    arcs = [(0, 1), (0, 2), (1, 3), (2, 4)]
    nxt = 5
    for _ in range(chains):
        prev = 3
        for _ in range(chain_len):
            arcs += [(prev, nxt), (nxt, prev)]
            prev = nxt
            nxt += 1
        arcs += [(prev, 4), (4, prev)]
    return build(nxt, 0, arcs)


def test_weak_bipaths_empty_when_all_special():
    d = build(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 1)])  # oriented
    assert weak_bipaths(d) == []


def test_weak_bipaths_single_chain():
    d = anchored_chains(1, chain_len=3)
    paths = weak_bipaths(d)
    assert len(paths) == 1
    (p,) = paths
    assert p.vertices == (5, 6, 7)
    assert p.anchors == (3, 4)
    assert p.ends == (5, 7)


def test_weak_bipaths_on_t4_match_recount():
    d, _ = normalize(gen_t_l(4))
    cls = classify(d)
    paths = weak_bipaths(d, cls)
    covered = [v for p in paths for v in p.vertices]
    assert sorted(covered) == sorted(cls.nonspecial)
    for p in paths:
        for i, v in enumerate(p.vertices[1:-1], start=1):
            assert set(d.in_neighbors(v)) == {p.vertices[i - 1], p.vertices[i + 1]}
        for end, anchor in zip(p.ends, p.anchors):
            assert anchor in d.in_neighbors(end)
            assert anchor in cls.special


def test_weak_bipaths_singleton():
    d = anchored_chains(2, chain_len=1)
    paths = weak_bipaths(d)
    assert [len(p) for p in paths] == [1, 1]
    assert all(p.anchors == (3, 4) for p in paths)


def test_majbound_vacuous_without_chains():
    d = build(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 1)])
    t = majbound_tree(d)
    assert verify_outbranching(d, t).ok


def test_majbound_pendant_chains():
    d = anchored_chains(7)
    cls = classify(d)
    paths = weak_bipaths(d, cls)
    l, h = len(cls.special), len(paths)
    assert (l, h) == (4, 7)
    t = majbound_tree(d, cls, paths)
    assert verify_outbranching(d, t).ok
    assert t.leaf_count >= h - l == 3
    assert t.leaf_count <= maxleaf_exact(d).maxleaf <= l + 2 * h


def test_majbound_against_exact_on_corpus():
    for d in two_connected_instances(15, 5, 11, seed_base=7000):
        cls = classify(d)
        paths = weak_bipaths(d, cls)
        t = majbound_tree(d, cls, paths)
        assert verify_outbranching(d, t).ok
        assert t.leaf_count >= len(paths) - len(cls.special)
        assert t.leaf_count <= maxleaf_exact(d).maxleaf


def test_approximate_star_is_optimal():
    star = gen_star(6)
    tree, report = approximate(star)
    assert tree.leaf_count == 6 == maxleaf_exact(star).maxleaf
    assert report.upper >= 6


def test_approximate_t3():
    t3 = gen_t_l(3)
    tree, report = approximate(t3)
    exact = maxleaf_exact(t3).maxleaf
    assert exact == 4
    assert verify_outbranching(t3, tree).ok
    assert Fraction(tree.leaf_count) >= report.lower
    assert exact <= report.upper
    assert 92 * tree.leaf_count >= exact


def test_approximate_report_fields():
    d = two_connected_instances(1, 8, 11, seed_base=7100)[0]
    tree, report = approximate(d)
    text = report.format()
    for key in ("l=", "h=", "leaves_bound1=", "leaves_bound2=",
                "leaves_majbound=", "chosen=", "lower=", "upper="):
        assert key in text
    assert report.chosen in report.trees
    assert report.chosen_tree.leaf_count == max(
        t.leaf_count for t in report.trees.values())


def test_approximate_single_vertex_numbers_once(monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        return rr_numbering(d)

    monkeypatch.setattr("maxleaf.approx.rr_numbering", counted)
    monkeypatch.setattr("maxleaf.bounds.rr_numbering", counted)
    tree, report = approximate(build(1, 0, []))
    assert len(calls) == 1
    assert tree.leaf_count == 1 and report.upper == 1 and report.chosen == "bound1"


def test_approximate_rejects_unreachable():
    with pytest.raises(InfeasibleError):
        approximate(build(3, 0, [(0, 1)]))


def test_approximate_ratio_on_corpus():
    worst = 0.0
    for d in random_instances(60, 4, 10, seed_base=7300):
        tree, report = approximate(d)
        exact = maxleaf_exact(d).maxleaf
        assert verify_outbranching(d, tree).ok
        assert Fraction(tree.leaf_count) >= report.lower
        assert tree.leaf_count <= exact <= report.upper
        assert 92 * tree.leaf_count >= exact
        worst = max(worst, exact / tree.leaf_count)
    assert worst <= 92


def test_approximate_each_root():
    d = build(4, 0, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)])
    results = dict((root, tree.leaf_count)
                   for root, tree, _ in approximate_each_root(d))
    assert set(results) == {0, 1, 2, 3}  # the cycle makes every root feasible


def test_sqrt_opt_small_family():
    t3 = gen_t_l(3)
    tree = sqrt_opt_tree(t3)
    assert verify_outbranching(t3, tree).ok
    assert tree.leaf_count >= math.isqrt(19 // 90)  # vacuous at this scale


def test_sqrt_opt_large_family():
    t12 = gen_t_l(12)
    reduced, _ = kernelize(t12)
    tree = sqrt_opt_tree(t12)
    assert verify_outbranching(t12, tree).ok
    assert tree.leaf_count >= math.isqrt(reduced.n // 90) >= 2


def test_sqrt_opt_matches_approximate_on_collapsed_path():
    d = gen_dipath(4)
    a, _ = approximate(d)
    s = sqrt_opt_tree(d)
    assert verify_outbranching(d, a).ok and verify_outbranching(d, s).ok
    assert a.leaf_count == s.leaf_count == 1


def test_sqrt_opt_rejects_unreachable():
    with pytest.raises(InfeasibleError):
        sqrt_opt_tree(build(3, 0, [(0, 1)]))

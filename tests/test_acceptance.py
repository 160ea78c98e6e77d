"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the worst observed approximation ratio.
"""
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from maxleaf.approx import approximate, majbound_tree, sqrt_opt_tree, weak_bipaths
from maxleaf.bounds import (acyclic_many_leaves, bound1_tree, bound2_tree,
                            numbering_bound_trees, topological_order,
                            vertex_cover_third)
from maxleaf.digraph import (classify, is_2connected, reachable,
                             verify_outbranching)
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import gen_boloney, gen_t_l
from maxleaf.reduce import decide, kernelize, lift
from maxleaf.stnum import in_sides, rr_numbering

from support import (all_rule_applications, many_leaves_bound, mixed_rule_corpus,
                     numbered_sides, random_instances, random_undirected_graphs, split,
                     two_connected_instances)


@contextmanager
def criterion(label):
    info = {}
    try:
        yield info
    except Exception:
        print(f"criterion {label}: FAIL")
        raise
    detail = info.get("detail", "")
    print(f"criterion {label}: PASS{' (' + detail + ')' if detail else ''}")


@pytest.fixture(scope="module")
def corpus_2conn():
    return two_connected_instances(200, 5, 14, seed_base=100_000)


def test_criterion_01_t_family():
    with criterion("1 (T_l family)") as info:
        for l, n in [(2, 7), (3, 19), (4, 37)]:
            assert gen_t_l(l).n == n == 3 * l * (l - 1) + 1
        for l in (2, 3):
            t = gen_t_l(l)
            reduced, trace = kernelize(t)
            assert reduced == t and len(trace) == 0
        start = time.monotonic()
        for l in (2, 3):
            assert maxleaf_exact(gen_t_l(l)).maxleaf == 2 * (l - 1)
        elapsed = time.monotonic() - start
        assert elapsed < 60
        info["detail"] = f"oracle {elapsed:.1f}s"


def test_criterion_02_boloney_family():
    with criterion("2 (boloney family)"):
        for k in (2, 3, 4):
            d = gen_boloney(k)
            assert is_2connected(d)
            assert d.outdeg(d.root) == 3
            assert sum(1 for v in d.vertices if d.indeg(v) >= 2) == 3 * k - 2
            optimum = maxleaf_exact(d).maxleaf
            assert optimum == k + 2
            cls = classify(d)
            trees = (*numbering_bound_trees(d), majbound_tree(d, cls, weak_bipaths(d, cls)))
            for tree in trees:
                assert verify_outbranching(d, tree).ok
                assert tree.leaf_count <= k + 2


def test_criterion_03_rule_safety():
    with criterion("3 (rule safety)") as info:
        from maxleaf.reduce import apply_rule1, apply_rule2, apply_rule3
        counts = {"rule1": 0, "rule2": 0, "rule3": 0}
        corpus = mixed_rule_corpus(500, seed_base=200_000)
        assert len(corpus) >= 500 and all(d.n <= 10 for d in corpus)
        for d in corpus:
            before = maxleaf_exact(d).maxleaf
            for kind, payload in all_rule_applications(d):
                if kind == "rule1":
                    d2, _ = apply_rule1(d, payload)
                elif kind == "rule3":
                    d2, _ = apply_rule3(d, *payload)
                else:
                    d2, _ = apply_rule2(d, payload)
                assert maxleaf_exact(d2).maxleaf == before
                counts[kind] += 1
        assert all(c > 0 for c in counts.values()), counts
        info["detail"] = f"applications {counts}"


def test_criterion_04_kernel_decision_soundness():
    with criterion("4 (kernel decision)") as info:
        verdicts = {"TRUE": 0, "REDUCED": 0}
        corpus = random_instances(200, 4, 10, seed_base=300_000)
        for d in corpus:
            optimum = maxleaf_exact(d).maxleaf
            for k in (1, 2, 3, 4):
                dec = decide(d, k)
                if dec.verdict == "TRUE":
                    check = verify_outbranching(d, dec.witness)
                    assert check.ok and check.leaf_count >= k
                    assert optimum >= k
                else:
                    assert dec.verdict == "REDUCED"
                    assert dec.reduced.n < dec.threshold
                    reduced_optimum = maxleaf_exact(dec.reduced).maxleaf
                    assert (reduced_optimum >= k) == (optimum >= k)
                verdicts[dec.verdict] += 1
        assert verdicts["TRUE"] > 0 and verdicts["REDUCED"] > 0
        info["detail"] = f"verdicts {verdicts}"


def test_criterion_05_numbering_validity(corpus_2conn):
    with criterion("5 (numberings)"):
        from maxleaf.stnum import validate_numbering
        assert len(corpus_2conn) >= 200
        for d in corpus_2conn:
            num = rr_numbering(d)
            assert validate_numbering(d, num.order)
            parts = split(d, num)
            for part in (parts.forward, parts.backward):
                assert topological_order(part) is not None
                assert len(reachable(part)) == d.n
            dr = d.outdeg(d.root)
            assert 2 * (max(parts.forward.m, parts.backward.m) - dr) >= d.m - dr


def test_criterion_06_constructive_bounds(corpus_2conn):
    with criterion("6 (constructive bounds)"):
        for d in corpus_2conn:
            num = rr_numbering(d)
            parts = split(d, num)
            for part in (parts.forward, parts.backward):
                tree = acyclic_many_leaves(part)
                assert verify_outbranching(d, tree).ok
                assert Fraction(tree.leaf_count) >= many_leaves_bound(part)
            sides = in_sides(d, num)
            t1 = bound1_tree(d, sides)
            l3 = sum(1 for v in d.vertices if v != d.root and d.indeg(v) >= 3)
            assert verify_outbranching(d, t1).ok
            assert Fraction(t1.leaf_count) >= Fraction(l3, 6)
            t2 = bound2_tree(d, sides)
            lnice = len(classify(d).nice)
            assert verify_outbranching(d, t2).ok
            assert Fraction(t2.leaf_count) >= Fraction(lnice, 24)


def test_criterion_07_oriented_digraphs():
    with criterion("7 (oriented digraphs)") as info:
        corpus = two_connected_instances(50, 10, 40, seed_base=400_000,
                                         oriented=True, p_lo=0.08, p_hi=0.3)
        assert len(corpus) >= 50
        for d in corpus:
            assert all(not d.has_arc(v, u) for u, v in d.arc_set())
            tree = bound2_tree(d, numbered_sides(d))
            assert verify_outbranching(d, tree).ok
            assert Fraction(tree.leaf_count) >= Fraction(d.n - 1, 24)
        info["detail"] = f"n up to {max(d.n for d in corpus)}"


def test_criterion_08_approximation_guarantee():
    with criterion("8 (approximation factor)") as info:
        worst = Fraction(0)
        corpus = random_instances(350, 4, 10, seed_base=500_000) \
            + mixed_rule_corpus(150, seed_base=510_000)
        assert len(corpus) >= 500
        for d in corpus:
            tree, report = approximate(d)
            optimum = maxleaf_exact(d).maxleaf
            assert verify_outbranching(d, tree).ok
            assert 92 * tree.leaf_count >= optimum
            assert report.lower <= Fraction(tree.leaf_count)
            assert tree.leaf_count <= optimum <= report.upper
            worst = max(worst, Fraction(optimum, tree.leaf_count))
        info["detail"] = f"worst ratio {float(worst):.3f} over {len(corpus)} instances"


def test_criterion_09_lift_correctness():
    with criterion("9 (lifting)"):
        corpus = mixed_rule_corpus(120, seed_base=600_000) \
            + random_instances(80, 4, 10, seed_base=610_000)
        for d in corpus:
            reduced, trace = kernelize(d)
            solved = maxleaf_exact(reduced)
            lifted = lift(solved.witness, trace)
            check = verify_outbranching(d, lifted)
            assert check.ok, check.reason
            assert lifted.leaf_count >= solved.witness.leaf_count


def test_criterion_10_vertex_cover_by_thirds():
    with criterion("10 (vertex cover by thirds)"):
        graphs = random_undirected_graphs(500, 10, seed_base=700_000)
        assert len(graphs) >= 500
        for vertices, edges in graphs:
            cover = vertex_cover_third(vertices, edges)
            assert all(u in cover or v in cover for u, v in edges)
            assert 3 * len(cover) <= len(vertices) + len(edges)

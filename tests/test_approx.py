import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

from maxleaf import approx, bounds, digraph, reduce, stnum
from maxleaf.approx import (approximate, approximate_each_root, majbound_tree,
                            sqrt_opt_tree, weak_bipaths)
from maxleaf.digraph import (Classification, build, classify, is_connected, normalize,
                             verify_outbranching)
from maxleaf.errors import InfeasibleError, InternalInvariantError
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import gen_boloney, gen_dipath, gen_random, gen_star, gen_t_l
from maxleaf.graphio import format_tree
from maxleaf.reduce import kernelize, renormalize, strip_cutvertices
from maxleaf.stnum import rr_numbering

from support import (chain_cores, chain_planted_corpus, count_calls, legacy_gen_random,
                     legacy_weak_bipaths, random_instances, raw_digraph, relabelled,
                     rescanning_majbound_tree, two_connected_instances)


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
    assert weak_bipaths(d, classify(d)) == []


def test_weak_bipaths_single_chain():
    d = anchored_chains(1, chain_len=3)
    paths = weak_bipaths(d, classify(d))
    assert len(paths) == 1
    (p,) = paths
    assert p.vertices == (5, 6, 7)
    assert p.anchors == (3, 4)


def test_weak_bipaths_on_t4_match_recount():
    d, _ = normalize(gen_t_l(4))
    cls = classify(d)
    paths = weak_bipaths(d, cls)
    covered = [v for p in paths for v in p.vertices]
    assert sorted(covered) == sorted(cls.nonspecial)
    for p in paths:
        for i, v in enumerate(p.vertices[1:-1], start=1):
            assert set(d.in_neighbors(v)) == {p.vertices[i - 1], p.vertices[i + 1]}
        for end, anchor in zip((p.vertices[0], p.vertices[-1]), p.anchors):
            assert anchor in d.in_neighbors(end)
            assert anchor in cls.special


def test_weak_bipaths_singleton():
    d = anchored_chains(2, chain_len=1)
    paths = weak_bipaths(d, classify(d))
    assert [len(p.vertices) for p in paths] == [1, 1]
    assert all(p.anchors == (3, 4) for p in paths)


def _chains_or_error(d):
    cls = classify(d)
    try:
        return weak_bipaths(d, cls)
    except InternalInvariantError as exc:
        return str(exc)


def _legacy_chains_or_error(d):
    cls = classify(d)
    try:
        return legacy_weak_bipaths(d, cls)
    except InternalInvariantError as exc:
        return str(exc)


def test_weak_bipaths_matches_legacy_on_cores_and_raw_digraphs():
    cores = chain_cores()
    for core in cores:
        assert weak_bipaths(core, classify(core)) == legacy_weak_bipaths(core, classify(core))
    assert sum(len(weak_bipaths(c, classify(c))) for c in cores) > 200
    raw = [raw_digraph(seed) for seed in range(8000, 8200)]
    outcomes = [_chains_or_error(d) for d in raw]
    assert outcomes == [_legacy_chains_or_error(d) for d in raw]
    # raw digraphs both break the chain shape and split into chains
    assert {type(o) for o in outcomes if o} == {str, list}


@pytest.mark.parametrize("arcs, message", [
    # 2 has the in-neighbor 1 alone
    ([(0, 1), (1, 2), (2, 1)], "non-special vertex 2 lacks the two-2-circuit in-neighbor shape"),
    # the chain 1, 2 hangs off the root, which is never special
    ([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)], "chain anchor 0 is not special"),
    # the bidirected triangle 1, 2, 3 has no end
    ([(1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (1, 3)],
     "non-special vertices contain a 2-circuit cycle"),
])
def test_weak_bipaths_error_messages_unchanged(arcs, message):
    d = build(max(map(max, arcs)) + 1, 0, arcs)
    assert _chains_or_error(d) == message == _legacy_chains_or_error(d)


def test_weak_bipaths_checks_both_in_neighbors_against_its_out_list():
    # a classification that calls 2 non-special although its in-arc from
    # 1 is simple: 2's out-list holds 0 but not 1
    d = build(3, 0, [(0, 1), (0, 2), (1, 2), (2, 0)])
    cls = Classification(frozenset({1}), frozenset({1}), frozenset({2}))
    message = "non-special vertex 2 lacks the two-2-circuit in-neighbor shape"
    for chains in (weak_bipaths, legacy_weak_bipaths):
        with pytest.raises(InternalInvariantError, match=message):
            chains(d, cls)


def test_majbound_vacuous_without_chains():
    d = build(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 1)])
    cls = classify(d)
    t = majbound_tree(d, cls, weak_bipaths(d, cls))
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


def chain_skeleton(seed):
    """Specials joined only through chains: 5 to 12 skeleton vertices, each
    on at least 3 skeleton edges, every edge a chain of 1 to 3 vertices
    with 2-circuits, and root arcs to skeleton vertices 1 and 2."""
    rng = random.Random(seed)
    k = rng.randint(5, 12)
    edges = set()
    for v in range(1, k + 1):
        while sum(v in e for e in edges) < 3:
            w = rng.randint(1, k)
            if w != v:
                edges.add((min(v, w), max(v, w)))
    arcs = [(0, 1), (0, 2)]
    nxt = k + 1
    for a, b in sorted(edges):
        prev = a
        for _ in range(rng.randint(1, 3)):
            arcs += [(prev, nxt), (nxt, prev)]
            prev, nxt = nxt, nxt + 1
        arcs += [(prev, b), (b, prev)]
    return build(nxt, 0, arcs)


def test_majbound_matches_rescanning_reference(monkeypatch):
    corpus = [d for d in map(chain_skeleton, range(40)) if is_connected(d)]
    corpus += chain_planted_corpus(60, 9100, raw=False)
    for seed in range(30):
        n = random.Random(seed).randint(20, 80)
        corpus.append(legacy_gen_random(n, 4 / n, 9200 + seed))
        corpus.append(legacy_gen_random(n, 2 / n, 9300 + seed))
    corpus += [relabelled(gen_t_l(l), l) for l in range(3, 9)]
    corpus += [relabelled(gen_boloney(k), k) for k in (3, 5, 8, 13)]
    searches = []
    real_search = approx._path_to_pending

    def counted_search(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(approx, "_path_to_pending", counted_search)
    steps = 0
    for d in corpus:
        core = strip_cutvertices(renormalize(d, []), [])
        if core.n <= 2:
            continue
        cls = classify(core)
        paths = weak_bipaths(core, cls)
        assert majbound_tree(core, cls, paths) == rescanning_majbound_tree(core, cls, paths)
        steps += len(cls.special)
    # both the heap frontier and the search fallback pick specials
    assert len(searches) > 100 and steps - len(searches) > 1000


APPROX_PINS = {
    # sha256 of the report, the lifted tree and the three candidate trees
    "t_l(40)": (lambda: gen_t_l(40),
                "932633c782e315ba5cbcdca509e4364a58a61bb69e37b83c05be6900da002cc6"),
    "random(800)": (lambda: legacy_gen_random(800, 4 / 800, seed=1),
                    "df698373a3a2345a38aeab923397be7afe35d7390ca34cdadd65c04286fedca5"),
}


@pytest.mark.parametrize("name", sorted(APPROX_PINS))
def test_approximate_output_pinned_at_scale(name):
    make, digest = APPROX_PINS[name]
    tree, report = approximate(make())
    text = report.format() + "".join(format_tree(t) for t in (tree, *report.trees.values()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_approximate_numbers_and_classifies_once(monkeypatch):
    modules = [module for name, module in list(sys.modules.items()) if name.startswith("maxleaf")]
    classified = [count_calls(monkeypatch, module, "classify")
                  for module in modules if getattr(module, "classify", None) is classify]
    real_sides = stnum.in_sides
    sides = [count_calls(monkeypatch, module, "in_sides")
             for module in modules if getattr(module, "in_sides", None) is real_sides]
    builds = count_calls(monkeypatch, digraph.RootedDigraph, "__init__")
    bound_builds = []
    for name in ("bound1_tree", "bound2_tree"):
        def counted(*args, real=getattr(bounds, name)):
            before = len(builds)
            tree = real(*args)
            bound_builds.append(len(builds) - before)
            return tree

        monkeypatch.setattr(bounds, name, counted)
    approximate(gen_random(800, 4 / 800, seed=1))
    assert sum(map(len, classified)) == 1
    # the one split checks the numbering: no module keeps a validation walk
    assert not any(hasattr(module, "validate_numbering") for module in modules)
    # bound to stnum only; the numbering carries its one split to both bounds
    assert len(sides) == 1 and len(sides[0]) == 1
    # both trees grow on in-lists read from the split
    assert bound_builds == [0, 0]


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
    assert report.trees[report.chosen].leaf_count == max(
        t.leaf_count for t in report.trees.values())


def test_approximate_single_vertex_numbers_once(monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        return rr_numbering(d)

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


def test_approximate_each_root_skips_exactly_the_infeasible_roots(monkeypatch):
    # the strip's dominator pass is the only connectivity check: no root
    # pays a reachability search, and the roots kept are those rule 0 keeps
    corpus = [build(5, 0, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (3, 0)])]
    corpus += [raw_digraph(4000 + seed) for seed in range(60)]
    want = [[v for v in d.vertices if is_connected(digraph.RootedDigraph(d.vertices, v, d.arcs()))]
            for d in corpus]
    assert want[0] == [3, 4]
    assert sum(0 < len(w) < d.n for w, d in zip(want, corpus)) >= 10
    searches = [count_calls(monkeypatch, mod, "reachable")
                for mod in (digraph, reduce)]
    for d, roots in zip(corpus, want):
        got = [(v, tree) for v, tree, _ in approximate_each_root(d)]
        assert [v for v, _ in got] == roots
        assert all(verify_outbranching(digraph.RootedDigraph(d.vertices, v, d.arcs()), t).ok
                   for v, t in got)
    assert not any(searches)


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

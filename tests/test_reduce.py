import random
import sys
from collections import Counter

import pytest

from maxleaf import approx, digraph, reduce
from maxleaf.approx import approximate
from maxleaf.digraph import (NormDeleteStep, RootedDigraph, bfs_tree, build,
                             cutvertices, find_cutvertex, is_connected, normalize,
                             reachable, verify_outbranching)
from maxleaf.errors import InfeasibleError, InternalInvariantError
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import gen_dipath, gen_random, gen_star, gen_t_l
from maxleaf.reduce import (NormMergeStep, ReductionTrace, Rule1Step, Rule2Step,
                            Rule3Step, apply_rule1, apply_rule2, apply_rule3,
                            _bipath_at, decide, find_bipath4, find_rule3, kernelize,
                            large_indegree_witness, lift, strip_cutvertices)

from support import (all_rule_applications, brute_cutvertices, chain_planted_corpus,
                     count_calls, fan, fixpoint_kernelize, legacy_gen_random,
                     looped_large_indegree_witness, mixed_rule_corpus, per_arc_rule3,
                     random_instances, raw_digraph, rebuilt, recomputing_strip, relabelled,
                     rescanning_rule2_phase, rule3_pairs, stepwise_lift, walked_illegal_arcs, with_arcs)


def test_rule0():
    """Rule 0, every vertex reachable from the root, is `is_connected`."""
    assert is_connected(gen_star(2))
    assert not is_connected(build(3, 0, [(0, 1)]))
    assert is_connected(gen_random(8, 0.3, 3))


def test_rule1_smallest_case():
    d = build(3, 0, [(0, 1), (1, 2)])
    d2, step = apply_rule1(d, 1)
    assert d2.arcs() == [(0, 2)]
    assert step.x == 1


def test_rule1_shortcut_set():
    d = build(4, 0, [(0, 1), (1, 2), (1, 3), (2, 1)])
    d2, _ = apply_rule1(d, 1)
    assert d2.arcs() == [(0, 2), (0, 3), (2, 3)]
    assert maxleaf_exact(d).maxleaf == maxleaf_exact(d2).maxleaf == 2


def test_rule1_rejects_non_cutvertex():
    with pytest.raises(ValueError, match="cutvertex"):
        apply_rule1(gen_star(3), 1)


def test_rule1_check_matches_cutvertices():
    disconnected = accepted = 0
    for seed in range(150):
        d = raw_digraph(900 + seed)
        try:
            cuts = cutvertices(d)
        except InfeasibleError:
            cuts = None
            disconnected += 1
        for x in d.vertices:
            if cuts is None:
                with pytest.raises(InfeasibleError, match="unreachable"):
                    apply_rule1(d, x)
            elif x in cuts:
                d2, step = apply_rule1(d, x)
                assert step.x == x and x not in d2.vertices
                accepted += 1
            else:
                with pytest.raises(ValueError, match="cutvertex"):
                    apply_rule1(d, x)
    assert disconnected > 0 and accepted > 0


def test_rule1_accepts_exactly_the_brute_force_cutvertices():
    counts = Counter()
    for seed in range(150):
        raw = raw_digraph(12000 + seed)
        for d in (raw, relabelled(raw, seed)):
            if len(reachable(d)) < d.n:
                counts["disconnected"] += 1
                for x in (*d.vertices, max(d.vertices) + 1):
                    with pytest.raises(InfeasibleError, match="unreachable"):
                        apply_rule1(d, x)
                continue
            accepted = []
            for x in (*d.vertices, max(d.vertices) + 1):
                try:
                    d2, _ = apply_rule1(d, x)
                except ValueError:
                    continue
                accepted.append(x)
                ins, outs = d.in_neighbors(x), d.out_neighbors(x)
                kept = {(u, v) for u, v in d.arcs() if x not in (u, v)}
                assert set(d2.vertices) == set(d.vertices) - {x} and d2.root == d.root
                assert set(d2.arcs()) == kept | {(u, v) for u in ins for v in outs if u != v}
            assert accepted == brute_cutvertices(d)
            counts["cutvertices"] += len(accepted)
            counts["none"] += not accepted
    assert counts["disconnected"] >= 20 and counts["cutvertices"] >= 200
    assert counts["none"] >= 20


def test_rule1_certificate_from_the_dominator_tree():
    checked = 0
    for d in map(raw_digraph, range(1100, 1200)):
        if not is_connected(d):
            continue
        cuts = cutvertices(d)
        for x in d.vertices:
            if x in cuts:
                assert apply_rule1(d, x, set(cuts)) == apply_rule1(d, x)
                checked += 1
            else:
                with pytest.raises(ValueError, match="cutvertex"):
                    apply_rule1(d, x, set(cuts))
    assert checked > 50


def test_strip_checks_its_cutvertex_list(monkeypatch):
    # 3 dominates 4 and 5, and 4 dominates 5: a list that drops 4 hides a
    # cutvertex, and neither a kernel nor a core may keep it; only the
    # strip's binding is patched, since find_cutvertex and the numbering's
    # check share digraph's
    d = build(6, 0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    assert cutvertices(d) == [3, 4]
    monkeypatch.setattr(reduce, "cutvertices", lambda g: [v for v in cutvertices(g) if v != 4])
    with pytest.raises(InternalInvariantError, match="4 is still a cutvertex"):
        kernelize(d)
    with pytest.raises(InternalInvariantError, match="stripped core"):
        approximate(d)


def test_strip_rejects_input_not_connected_from_the_root():
    with pytest.raises(InfeasibleError, match="unreachable"):
        strip_cutvertices(build(4, 0, [(0, 1), (1, 2)]), [])


def test_strip_keeps_the_listed_cutvertices():
    # the root's only outneighbor 5 dominates everything; rule 1 takes 1
    # first, and the renormalization after it merges 5 into the root
    root_merge = build(6, 0, [(0, 5), (5, 1), (5, 2), (1, 4), (2, 3), (3, 2), (4, 0)])
    corpus = [root_merge] + [d for d in map(raw_digraph, range(2000, 2600)) if is_connected(d)]
    merges = events = 0
    for i, d in enumerate(corpus):
        listed, steps = cutvertices(d), []
        stripped = strip_cutvertices(d, steps)
        g = d
        for step in steps:
            g = step.apply(g)
            assert [x for x in listed if x in g.vertices] == cutvertices(g)
            merges += isinstance(step, NormMergeStep)
            events += 1
        assert g == stripped
        if i == 0:
            assert merges == 1
    assert merges >= 5 and events > 500


def test_strip_traces_match_recomputing_strip():
    corpus = [d for d in map(raw_digraph, range(2600, 2900)) if is_connected(d)]
    corpus += random_instances(40, 20, 80, seed_base=2900, p_lo=0.02, p_hi=0.08)
    total = 0
    for d in corpus:
        steps, want = [], []
        assert strip_cutvertices(d, steps) == recomputing_strip(d, want)
        assert steps == want
        total += len(steps)
    assert total > 500


def test_strip_and_first_rule3_scan_pass_counts(monkeypatch):
    d = legacy_gen_random(800, 1.5 / 800, seed=2)
    passes = count_calls(monkeypatch, digraph, "dominators_from_maps")
    steps = []
    core = strip_cutvertices(d, steps)
    assert len(steps) > 150 and len(passes) <= 2
    searches = count_calls(monkeypatch, reduce, "reachable")
    assert find_rule3(core)
    assert len(searches) <= 10


def five_vertex_bipath():
    return build(6, 0, [(0, 1), (0, 5), (1, 2), (2, 1), (2, 3), (3, 2),
                        (3, 4), (4, 3), (4, 5), (5, 4)])


def test_rule2_contracts_bipath():
    d = five_vertex_bipath()
    p = find_bipath4(d)
    assert p == (1, 2, 3, 4, 5)
    d2, step = apply_rule2(d, p)
    assert d2.n == d.n - 1
    assert maxleaf_exact(d).maxleaf == maxleaf_exact(d2).maxleaf
    assert find_bipath4(d2) is None  # only a length-3 bipath remains


def test_rule2_rejects_extra_arc():
    d = with_arcs(five_vertex_bipath(), [(3, 0)])  # internal vertex gains an out-arc
    with pytest.raises(ValueError, match="bipath"):
        apply_rule2(d, (1, 2, 3, 4, 5))
    assert find_bipath4(d) is None


def test_rule2_accepts_exactly_the_bipaths_read_at_their_middle():
    """`apply_rule2` takes every bipath `_bipath_at` finds, in both
    orientations, with the same step either way round, and nothing else."""
    checked = 0
    for d in chain_planted_corpus(20, 9100, raw=False) + [five_vertex_bipath()]:
        for p in filter(None, (_bipath_at(d, y) for y in d.vertices)):
            for q in (p, p[::-1], list(p)):
                d2, step = apply_rule2(d, q)
                assert (step.u, step.x, step.y, step.z, step.t) == tuple(q)
                assert d2 == d.contracted(q[1], q[2])
            checked += 1
    assert checked >= 20
    d = five_vertex_bipath()
    for bad in [(1, 2, 3, 4), (1, 2, 3, 4, 5, 4), (1, 2, 3, 2, 1), (2, 3, 4, 5, 4),
                (0, 1, 2, 3, 4), (5, 4, 3, 2, 0)]:
        with pytest.raises(ValueError, match="bipath"):
            apply_rule2(d, bad)
    third = with_arcs(d, [(3, 5)])  # the middle 3 gains a third neighbour
    with pytest.raises(ValueError, match="bipath"):
        apply_rule2(third, (1, 2, 3, 4, 5))


def test_rule2_rejects_the_root_as_an_inner_vertex():
    """On raw input the root may carry in-arcs and so sit in a chain of
    2-circuits; it is never paired, so no bipath has it inside."""
    d = build(6, 2, [(2, 1), (1, 2), (2, 3), (3, 2), (3, 4), (4, 3),
                     (1, 0), (0, 1), (4, 5), (5, 4)])
    assert d.in_neighbors(2) == d.out_neighbors(2) == (1, 3)
    for p in [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (4, 3, 2, 1, 0)]:
        with pytest.raises(ValueError, match="bipath"):
            apply_rule2(d, p)
    assert _bipath_at(d, 2) is None
    assert find_bipath4(d) is None


def test_rule2_chain_reaches_fixpoint():
    d = build(8, 0, [(0, 1)] + [a for v in range(1, 7) for a in ((v, v + 1), (v + 1, v))])
    contractions = 0
    while True:
        p = find_bipath4(d)
        if p is None:
            break
        d, _ = apply_rule2(d, p)
        contractions += 1
    assert contractions == 3  # chain of 7 shrinks to 4 double-linked vertices
    assert not any(_bipath_at(d, y) for y in d.vertices)


def bidirected_ring(n):
    """The ring 1..n with both arcs between cyclic neighbors and the root
    arcs (0, 1) and (0, n/2 + 1); raw, with ring arcs into both."""
    arcs = [(0, 1), (0, n // 2 + 1)]
    for v in range(1, n + 1):
        arcs += [(v, v % n + 1), (v % n + 1, v)]
    return build(n + 1, 0, arcs)


def test_rule2_phase_matches_rescanning():
    # a ring of 2-circuits entered only at 1: contracting the middle 3
    # leaves 4 with the bipath (1, 2, 4, 5, 1), which is no longer one
    ring = build(8, 0, [(0, 6), (0, 7), (6, 1), (7, 1)]
                 + [a for v, w in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1))
                    for a in ((v, w), (w, v))])
    # the first contraction's renormalization deletes the ring arcs into the
    # root outneighbors, so the walk restarts from the smallest vertex
    rings = [bidirected_ring(n) for n in (8, 12, 20, 40)]
    corpus = [ring] + rings + chain_planted_corpus(60, 4100, raw=True)
    corpus += chain_planted_corpus(60, 4100, raw=False)
    corpus += [strip_cutvertices(d, []) for d in corpus[-60:]]
    contractions = []
    rescans = 0
    for d in corpus:
        steps, want = [], []
        got = reduce._contract_bipaths(d.thaw(), steps).freeze()
        assert got == rescanning_rule2_phase(d, want)
        assert steps == want
        contractions.append(sum(isinstance(s, Rule2Step) for s in steps))
        rescans += any(isinstance(s, (NormDeleteStep, NormMergeStep)) for s in steps)
    assert contractions[0] == 1 and sum(contractions) > 500 and rescans > 50
    assert contractions[1:5] == [1, 2, 10, 30]  # N - 10 in all for N >= 12


def test_rule3_example():
    d = build(4, 0, [(0, 1), (1, 2), (2, 3), (1, 3)])
    assert find_rule3(d) == [(3, [2])]
    d2, _ = apply_rule3(d, 3, 2)
    assert d2.arcs() == [(0, 1), (1, 2), (1, 3)]
    assert maxleaf_exact(d).maxleaf == maxleaf_exact(d2).maxleaf


def test_rule3_none_on_star():
    assert find_rule3(gen_star(2)) == []


def test_rule3_rejects_bad_pair():
    d = build(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError):
        apply_rule3(d, 3, 1)  # {2} does not cut 1 from the root


def test_rule3_decisions_match_per_arc_oracle():
    disconnected = accepted = 0
    for seed in range(200):
        d = raw_digraph(500 + seed)
        disconnected += not is_connected(d)
        want = [(x, y) for x in d.vertices if x != d.root
                for y in d.in_neighbors(x) if y != d.root and per_arc_rule3(d, x, y)]
        assert rule3_pairs(d) == want
        for x in d.vertices:
            for y in d.in_neighbors(x):
                if per_arc_rule3(d, x, y):
                    d2, _ = apply_rule3(d, x, y)
                    assert not d2.has_arc(y, x)
                    accepted += 1
                else:
                    with pytest.raises(ValueError):
                        apply_rule3(d, x, y)
    assert disconnected > 0 and accepted > 0


def test_rule3_certificates_keep_every_decision(monkeypatch):
    corpus = random_instances(60, 40, 90, seed_base=4100, p_lo=0.02, p_hi=0.1)
    corpus += [strip_cutvertices(d, []) for d in corpus[:30]]
    searches = count_calls(monkeypatch, reduce, "reachable")
    deleted = heads = 0
    for d in corpus:
        want = [(x, y) for x in d.vertices if x != d.root
                for y in d.in_neighbors(x) if y != d.root and per_arc_rule3(d, x, y)]
        heads += sum(1 for x in d.vertices if sum(y != d.root for y in d.in_neighbors(x)) >= 2)
        searches.clear()
        assert rule3_pairs(d) == want
        heads -= len(searches)
        deleted += len(want)
    assert deleted > 0 and heads > 1000


def test_kernelize_collapses_dipath():
    red, trace = kernelize(gen_dipath(3))
    assert red.n == 2 and red.m == 1
    assert trace.replay(gen_dipath(3)) == red


def test_kernelize_fixpoints():
    for l in (2, 3):
        t = gen_t_l(l)
        red, trace = kernelize(t)
        assert red == t and len(trace) == 0


def test_kernelize_output_admits_no_rule():
    for d in mixed_rule_corpus(25, seed_base=5000):
        red, trace = kernelize(d)
        assert not all_rule_applications(red)
        assert trace.replay(d) == red
        assert maxleaf_exact(d).maxleaf == maxleaf_exact(red).maxleaf


def test_kernelize_matches_fixpoint_loop():
    raw = chain_planted_corpus(150, 7000, raw=True)
    corpus = raw + chain_planted_corpus(150, 7000, raw=False)
    corpus += [d for d in map(raw_digraph, range(7400, 7650)) if is_connected(d)][:150]
    for seed in range(7700, 7800):
        n = random.Random(seed).randint(10, 60)
        corpus.append(gen_random(n, random.Random(-seed).uniform(1.2 / n, 3 / n), seed))
    corpus += [fan(40), normalize(fan(40))[0]]
    fired = Counter()
    raw_first = Counter()
    for i, d in enumerate(corpus):
        red, trace = kernelize(d)
        want, want_trace = fixpoint_kernelize(d)
        assert red == want
        assert trace.to_text() == want_trace.to_text()
        kinds = [type(s) for s in trace.steps
                 if isinstance(s, (Rule1Step, Rule2Step, Rule3Step))]
        fired.update(kinds)
        if i < len(raw):
            raw_first.update(kinds[:1])
    assert len(corpus) == 552 and fired[Rule2Step] > 1000 and fired[Rule3Step] > 200
    # a raw input whose first rewrite is rule 3 takes the rest of the rule 3
    # phase from a scan of a digraph that was not yet normalized
    assert raw_first[Rule2Step] > 0 and raw_first[Rule3Step] > 0


def test_kernelize_skips_an_arc_that_a_renormalization_removed():
    """The scan lists tails 2, 6 and 9 at the root outneighbor 1 of a raw
    digraph without a cutvertex; the normalization after the first
    deletion removes the other two arcs, which the phase then skips."""
    d = raw_digraph(21686)
    assert find_cutvertex(d) is None and d.has_arc(d.root, 1)
    assert (1, [2, 6, 9]) in find_rule3(d, cut_free=True)
    red, trace = kernelize(d)
    assert [(s.y, s.x) for s in trace.steps if isinstance(s, Rule3Step)] == [(2, 1)]
    want, want_trace = fixpoint_kernelize(d)
    assert red == want and trace.to_text() == want_trace.to_text()


def test_kernelize_runs_each_rule_once(monkeypatch):
    corpus = chain_planted_corpus(40, 7900, raw=True)
    corpus += chain_planted_corpus(40, 7900, raw=False)
    scans = {name: count_calls(monkeypatch, reduce, name)
             for name in ("find_cutvertex", "find_rule3", "find_bipath4")}
    passes = count_calls(monkeypatch, digraph, "dominators_from_maps")
    probes = count_calls(monkeypatch, reduce, "_rule3_tails")
    searches = count_calls(monkeypatch, reduce, "reachable")
    real_apply = reduce.apply_rule3

    def apply_without_search(d, x, y, tails=None):
        before = len(searches)
        got = real_apply(d, x, y, tails)
        assert tails is not None and len(searches) == before
        return got

    monkeypatch.setattr(reduce, "apply_rule3", apply_without_search)
    fired = Counter()
    for d in corpus:
        for calls in [*scans.values(), passes, probes]:
            calls.clear()
        _, trace = kernelize(d)
        kinds = Counter(type(s) for s in trace.steps)
        # the strip's dominator tree, then one check when rule 1 fired
        assert len(scans["find_cutvertex"]) == (1 if kinds[Rule1Step] else 0)
        assert len(passes) == (2 if kinds[Rule1Step] else 1)
        assert len(scans["find_rule3"]) == 1
        heads = [x for _, x in probes]
        assert len(heads) == len(set(heads))  # no head is probed twice
        assert len(scans["find_bipath4"]) == 1  # later middles come from that scan
        fired.update(kinds)
    assert fired[Rule1Step] and fired[Rule2Step] and fired[Rule3Step]


def test_approximate_proves_its_core_once(monkeypatch):
    """The strip's dominator pass, then the numbering's one 2-connectivity
    check of the core: two passes whether rule 1 fires or not."""
    corpus = chain_planted_corpus(40, 7900, raw=True)
    corpus += chain_planted_corpus(40, 7900, raw=False)
    passes = count_calls(monkeypatch, digraph, "dominators_from_maps")
    rewrites = count_calls(monkeypatch, reduce, "apply_rule1")
    fired = Counter()
    for d in corpus:
        passes.clear()
        rewrites.clear()
        approximate(d)
        assert len(passes) == 2
        fired[bool(rewrites)] += 1
    assert fired[True] and fired[False]


def test_kernelize_builds_one_digraph(monkeypatch):
    """The kernel, and approximate's stripped core, is the working copy
    frozen in place: neither calls the validating constructor."""
    d = legacy_gen_random(800, 1.5 / 800, seed=2)
    dense = legacy_gen_random(800, 4 / 800, seed=1)
    builds = count_calls(monkeypatch, digraph.RootedDigraph, "__init__")
    _, trace = kernelize(d)
    assert len(trace) > 150 and builds == []
    approximate(dense)  # its strip rewrites 20 times
    assert builds == []


def depth_first_tree(d):
    """Depth-first spanning out-tree: its root paths are not shortest, so
    rule 3 can delete its arcs."""
    parent = {}
    stack = [(d.root, iter(sorted(d._out[d.root])))]
    while stack:
        u, it = stack[-1]
        for v in it:
            if v != d.root and v not in parent:
                parent[v] = u
                stack.append((v, iter(sorted(d._out[v]))))
                break
        else:
            stack.pop()
    return digraph.Outbranching(d.root, parent)


def test_kernelize_keeps_one_certificate_tree(monkeypatch):
    corpus = chain_planted_corpus(60, 8100, raw=True)
    corpus += [legacy_gen_random(n, 1.5 / n, 8200 + n) for n in range(40, 100, 2)]
    results = [kernelize(d) for d in corpus]
    grown = count_calls(monkeypatch, reduce, "grow_tree")
    deletions = 0
    for d, (red, trace) in zip(corpus, results):
        grown.clear()
        assert kernelize(d)[0] == red
        assert len(grown) <= 1  # one tree for the one scan
        deletions += sum(isinstance(s, Rule3Step) for s in trace.steps)
    assert deletions > 100
    # the tree is read only before the first deletion, so any spanning
    # out-tree certifies, even one whose arcs the phase then deletes
    trees = []

    def recorded_depth_first_tree(d):
        trees.append(depth_first_tree(d))
        return trees[-1]

    monkeypatch.setattr(reduce, "grow_tree", recorded_depth_first_tree)
    lost = 0
    for d, (red, trace) in zip(corpus, results):
        trees.clear()
        got, got_trace = kernelize(d)
        assert got == red and got_trace.to_text() == trace.to_text()
        assert len(trees) <= 1
        lost += sum(isinstance(s, Rule3Step) and trees[0].parent.get(s.x) == s.y
                    for s in trace.steps)
    assert lost > 20


def test_recorded_heads_match_the_full_illegal_arc_walk(monkeypatch):
    """After every rewrite of kernelize and approximate, normalize reads
    only the heads of the arcs added since the last normalization, and
    finds every illegal arc there."""
    corpus = chain_planted_corpus(60, 9100, raw=True)
    corpus += chain_planted_corpus(60, 9100, raw=False)
    corpus += [d for d in map(raw_digraph, range(9300, 9500)) if is_connected(d)]
    # a new root whose one arc enters the old root: normalization merges
    corpus += [RootedDigraph([*d.vertices, d.n], d.n, d.arcs() + [(d.n, d.root)])
               for d in corpus[:60]]
    corpus.append(legacy_gen_random(800, 1.5 / 800, seed=2))
    real = digraph._illegal_arcs
    found = Counter()

    def checked(d, heads=None):
        got = real(d, heads)
        assert got == walked_illegal_arcs(d)
        if heads is not None:
            found["reads"] += 1
            found["arcs"] += len(got)
        return got

    monkeypatch.setattr(digraph, "_illegal_arcs", checked)
    merges = 0
    for d in corpus:
        merges += sum(isinstance(s, NormMergeStep) for s in kernelize(d)[1].steps)
        approximate(d)
    assert found["reads"] > 3000 and found["arcs"] > 3000 and merges > 15


def test_lift_matches_stepwise_lift(monkeypatch):
    """Every tree that kernelize, decide and approximate lift, and two
    spanning trees of each kernel, lift as the step-by-step copies do."""
    corpus = chain_planted_corpus(60, 9600, raw=True)
    corpus += chain_planted_corpus(40, 9600, raw=False)
    corpus += [d for d in map(raw_digraph, range(9700, 9900)) if is_connected(d)]
    corpus += mixed_rule_corpus(40, seed_base=9900)
    corpus += [RootedDigraph([*d.vertices, d.n], d.n, d.arcs() + [(d.n, d.root)])
               for d in corpus[:60]]
    corpus.append(legacy_gen_random(800, 1.5 / 800, seed=2))
    real = reduce.lift
    lifted = Counter()

    def checked(tree, trace):
        got = real(tree, trace)
        assert got == stepwise_lift(tree, trace)
        lifted.update(type(s) for s in trace.steps)
        return got

    monkeypatch.setattr(reduce, "lift", checked)  # `verified_lift` serves approx too
    for d in corpus:
        red, trace = kernelize(d)
        for tree in (bfs_tree(red), depth_first_tree(red)):
            checked(tree, trace)
        decide(d, 2)
        approximate(d)
    assert lifted[Rule1Step] > 2000 and lifted[Rule2Step] > 2000 and lifted[NormMergeStep] > 100


def assert_same_digraph(work, d):
    """The working graph answers every query exactly as the frozen d."""
    assert not work.frozen and work == d
    assert (list(work.vertices), work.root, work.n, work.m) == (list(d.vertices), d.root, d.n, d.m)
    assert work.root_out() == d.root_out()
    for v in d.vertices:
        assert work.out_neighbors(v) == d.out_neighbors(v)
        assert work.in_neighbors(v) == d.in_neighbors(v)
        assert (work.outdeg(v), work.indeg(v)) == (d.outdeg(v), d.indeg(v))
    assert all(work.has_arc(u, v) for u, v in d.arcs())


def test_work_graph_rewrites_match_rebuilt_digraphs():
    """Random sequences of rule 1, rule 2, rule 3 and normalization rewrites,
    applied in place to one working graph and rebuilt from the arc list."""
    corpus = [d for d in map(raw_digraph, range(3000, 3300)) if is_connected(d)]
    corpus += chain_planted_corpus(80, 3300, raw=True)
    # a new root whose one arc enters the old root: normalization merges
    corpus += [RootedDigraph([*d.vertices, d.n], d.n, d.arcs() + [(d.n, d.root)])
               for d in corpus[:60]]
    kinds = Counter()
    for i, d in enumerate(corpus):
        rng = random.Random(i)
        work, ref = d.thaw(), d
        for _ in range(rng.randint(1, 12)):
            apps = all_rule_applications(ref)
            want_norm = normalize(ref)[1]
            if not apps and not want_norm:
                break
            if not apps or want_norm and rng.random() < 0.3:
                work, steps = normalize(work)
                assert steps == want_norm
            else:
                kind, payload = rng.choice(apps)
                if kind == "rule1":
                    work, step = apply_rule1(work, payload)
                elif kind == "rule3":
                    work, step = apply_rule3(work, *payload)
                else:
                    work, step = apply_rule2(work, payload)
                steps = (step,)
            for step in steps:
                ref = rebuilt(ref, step)
                kinds[type(step)] += 1
            assert_same_digraph(work, ref)
    assert min(kinds[k] for k in (Rule1Step, Rule2Step, Rule3Step, NormDeleteStep)) > 100
    assert kinds[NormMergeStep] > 40


def test_rule3_cut_free_scan_matches_full_scan(monkeypatch):
    corpus = [strip_cutvertices(d, []) for d in map(raw_digraph, range(3500, 3800)) if is_connected(d)]
    corpus += [strip_cutvertices(d, []) for d in chain_planted_corpus(100, 3800, raw=False)]
    corpus += [relabelled(gen_t_l(l), l) for l in range(3, 8)]
    searched = []  # the number of non-root in-neighbors of each head searched
    real = reduce._rule3_tails

    def counted(d, x):
        searched.append(sum(y != d.root for y in d.in_neighbors(x)))
        return real(d, x)

    monkeypatch.setattr(reduce, "_rule3_tails", counted)
    pairs = two_tail_searches = 0
    for d in corpus:
        assert find_cutvertex(d) is None
        searched.clear()
        full = find_rule3(d)
        two_tail_searches += searched.count(2)
        searched.clear()
        assert find_rule3(d, cut_free=True) == full
        assert 2 not in searched  # a head with two non-root in-neighbors keeps both arcs
        pairs += sum(len(tails) for _, tails in full)
    assert pairs > 100 and two_tail_searches > 100


def test_kernelize_deterministic():
    d = gen_random(10, 0.3, 77)
    assert kernelize(d)[0] == kernelize(d)[0]


def test_kernelize_rejects_unreachable():
    with pytest.raises(InfeasibleError):
        kernelize(build(3, 0, [(0, 1)]))


def test_trace_serialization_round_trip_text():
    d = mixed_rule_corpus(1, seed_base=5016)[0]
    red, trace = kernelize(d)
    text = trace.to_text()
    assert len(text.splitlines()) == len(trace)
    for line in text.splitlines():
        assert line.split()[0] in {"rule1", "rule2", "rule3", "norm-del", "norm-merge"}


def test_single_rule_applications_preserve_maxleaf():
    checked = 0
    for d in mixed_rule_corpus(40, seed_base=5100):
        before = maxleaf_exact(d).maxleaf
        for kind, payload in all_rule_applications(d):
            if kind == "rule1":
                d2, _ = apply_rule1(d, payload)
            elif kind == "rule3":
                d2, _ = apply_rule3(d, *payload)
            else:
                d2, _ = apply_rule2(d, payload)
            assert maxleaf_exact(d2).maxleaf == before, (kind, payload, d.arcs())
            checked += 1
    assert checked > 20


# -- witnesses and decision ------------------------------------------------


def test_large_indegree_witness_funnel():
    d = build(5, 0, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    w = large_indegree_witness(d, 4)
    assert verify_outbranching(d, w).ok
    assert w.leaf_count >= 3


def test_large_indegree_witness_with_root_outneighbor():
    # one in-neighbor of the hub is itself an outneighbor of the root
    d = build(5, 0, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2), (2, 1), (3, 4), (4, 3), (4, 1)])
    hub = max((v for v in d.vertices if v != 0), key=lambda v: d.indeg(v))
    w = large_indegree_witness(d, hub)
    assert verify_outbranching(d, w).ok
    assert w.leaf_count >= d.indeg(hub) - (1 if 0 in d.in_neighbors(hub) else 0)


def test_large_indegree_witness_rejects_unreduced():
    d = build(4, 0, [(0, 1), (1, 2), (2, 3), (1, 3)])  # rule 3 applies at (3, 2)
    with pytest.raises(ValueError, match="rule 3"):
        large_indegree_witness(d, 3)


def fan_in_sink(k):
    """root -> 1..k and i -> k + 1 for each i: the sink has indegree k, and
    every in-neighbor's tree path avoids the others."""
    return build(k + 2, 0, [(0, i) for i in range(1, k + 1)]
                 + [(i, k + 1) for i in range(1, k + 1)])


def test_large_indegree_witness_searches_only_for_blocked_tree_paths(monkeypatch):
    searches = count_calls(monkeypatch, reduce, "search")
    corpus = [kernelize(d)[0] for d in map(raw_digraph, range(200)) if is_connected(d)]
    corpus.append(fan_in_sink(300))
    witnesses = 0
    for d in corpus:
        for x in d.vertices:
            if d.indeg(x) >= 2:
                assert large_indegree_witness(d, x) == looped_large_indegree_witness(d, x)
                witnesses += 1
    # one shared tree per witness, and some in-neighbors still need a search
    assert witnesses > 500 and len(searches) > witnesses
    # the kernel of the legacy n = 3000 instance: 28 of the 30 in-neighbors
    # of its largest-indegree vertex are certified by the shared tree
    d, _ = kernelize(legacy_gen_random(3000, 0.001, seed=1))
    x = max(d.vertices, key=lambda v: (d.indeg(v), -v))
    del searches[:]
    witness = large_indegree_witness(d, x)
    assert d.indeg(x) == 30 and len(searches) == 3
    assert witness == looped_large_indegree_witness(d, x) and witness.leaf_count == 1730


def test_decide_star_true():
    dec = decide(gen_star(5), 3)
    assert dec.verdict == "TRUE"
    assert dec.witness.leaf_count == 5


def test_decide_t3():
    t3 = gen_t_l(3)
    dec = decide(t3, 5)
    assert dec.verdict == "REDUCED"
    assert dec.reduced.n < dec.threshold
    assert maxleaf_exact(t3).maxleaf < 5  # brute force confirms FALSE
    dec4 = decide(t3, 4)
    if dec4.verdict == "TRUE":
        assert verify_outbranching(t3, dec4.witness).ok
        assert dec4.witness.leaf_count >= 4


def test_decide_rejects_bad_k():
    with pytest.raises(ValueError):
        decide(gen_star(2), 0)


def test_decide_settles_the_one_vertex_instance():
    d = build(1, 0, [])
    dec = decide(d, 1)
    assert dec.verdict == "TRUE" and dec.witness == digraph.Outbranching(0, {})
    assert dec.witness.leaf_count == 1 and verify_outbranching(d, dec.witness).ok
    assert decide(d, 2).verdict == "REDUCED"


def test_decide_false_on_unreachable():
    assert decide(build(3, 0, [(0, 1)]), 1).verdict == "FALSE"


def test_entry_points_gate_connectivity_on_the_dominator_pass(monkeypatch):
    # only rule 3's probes search for reachability; an unreachable vertex
    # is reported by the first dominator pass
    raw = list(map(raw_digraph, range(13000, 13150)))
    probe_free = [gen_t_l(4), gen_star(3), gen_dipath(5)]
    connected = probe_free + [d for d in raw if is_connected(d)]
    unreachable = [build(3, 0, [(0, 1)])] + [d for d in raw if not is_connected(d)]
    callers = []
    real = digraph.reachable

    def traced(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    for module in (digraph, reduce):
        monkeypatch.setattr(module, "reachable", traced)
    passes = count_calls(monkeypatch, digraph, "dominators_from_maps")
    entry_points = {"approximate": approximate, "kernelize": kernelize,
                    "decide": lambda d: decide(d, 3), "sqrt_opt_tree": approx.sqrt_opt_tree}
    searched = Counter()
    for i, d in enumerate(connected):
        for name, run in entry_points.items():
            callers.clear()
            run(d)
            assert set(callers) <= {"_rule3_tails"}, name
            assert not (i < len(probe_free) and callers), name
            searched[name] += bool(callers)
    assert searched["approximate"] == 0 and searched["kernelize"] > 10
    assert len(unreachable) > 20
    for d in unreachable:
        for name, run in entry_points.items():
            callers.clear()
            passes.clear()
            if name == "decide":
                assert run(d).verdict == "FALSE"
            else:
                with pytest.raises(InfeasibleError, match="unreachable"):
                    run(d)
            assert not callers and len(passes) == 1, name


def layered_two_wide(layers):
    def vid(j, c):
        return 1 + 2 * j + c
    t = 2 * layers + 1
    arcs = [(0, vid(0, 0)), (0, vid(0, 1))]
    for j in range(layers - 1):
        for c in (0, 1):
            arcs.append((vid(j, c), vid(j + 1, 0)))
            arcs.append((vid(j, c), vid(j + 1, 1)))
    arcs += [(vid(layers - 1, 0), t), (vid(layers - 1, 1), t)]
    return build(2 * layers + 2, 0, arcs)


def test_decide_true_via_size_threshold():
    # all indegrees and the root outdegree stay below k=3, so only the
    # (3k-2)(30k-2) = 616 size threshold can fire
    d = layered_two_wide(308)
    assert d.n == 618
    assert max(d.indeg(v) for v in d.vertices) == 2
    red, trace = kernelize(d)
    assert red == d
    dec = decide(d, 3)
    assert dec.verdict == "TRUE"
    assert verify_outbranching(d, dec.witness).ok
    assert dec.witness.leaf_count >= 3


def test_decide_reduced_below_threshold():
    d = layered_two_wide(20)  # n = 42 < 616, indegrees 2, d(r) = 2
    dec = decide(d, 3)
    assert dec.verdict == "REDUCED"
    assert dec.reduced.n < dec.threshold


# -- lifting -----------------------------------------------------------------


def test_lift_single_rule1_forced():
    d = gen_dipath(2)  # 0 -> 1 -> 2
    red, trace = kernelize(d)
    tree = maxleaf_exact(red).witness
    lifted = lift(tree, trace)
    assert lifted.parent == {1: 0, 2: 1}
    assert lifted.leaf_count == tree.leaf_count == 1


def test_lift_through_rule2_family():
    d = five_vertex_bipath()
    p = find_bipath4(d)
    d2, step = apply_rule2(d, p)
    trace = ReductionTrace((step,))
    res = maxleaf_exact(d2)
    lifted = lift(res.witness, trace)
    check = verify_outbranching(d, lifted)
    assert check.ok
    assert lifted.leaf_count >= res.maxleaf
    assert lifted.leaf_count == maxleaf_exact(d).maxleaf


def test_lift_round_trips():
    for d in mixed_rule_corpus(30, seed_base=5500):
        red, trace = kernelize(d)
        res = maxleaf_exact(red)
        lifted = lift(res.witness, trace)
        check = verify_outbranching(d, lifted)
        assert check.ok, check.reason
        assert lifted.leaf_count >= res.maxleaf

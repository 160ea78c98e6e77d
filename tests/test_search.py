import random

from maxleaf.approx import _path_to_pending
from maxleaf.digraph import (Outbranching, classify, grow_tree, is_connected,
                             reachable, search, verify_outbranching)
from maxleaf.errors import InternalInvariantError
from maxleaf.gen import gen_t_l
from maxleaf.reduce import kernelize, large_indegree_witness, renormalize, strip_cutvertices
from maxleaf.stnum import root_path_tree

from support import (chain_planted_corpus, looped_grow_tree, looped_large_indegree_witness,
                     looped_path_to_pending, looped_reach, looped_root_path_tree,
                     looped_verify_outbranching, raw_digraph, relabelled,
                     root_path_lists, two_connected_instances)


def test_search_contract():
    out = {0: (1, 2), 1: (3,), 2: (3, 4), 3: (5,), 4: (5,), 5: (), 6: (0,)}
    # sources map to None; the dict lists vertices in discovery order
    assert list(search(out, [0]).items()) == [(0, None), (1, 0), (2, 0), (3, 1), (4, 2), (5, 3)]
    # sources are taken in the given order
    assert list(search(out, [2, 1]).items()) == [(2, None), (1, None), (3, 2), (4, 2), (5, 3)]
    # an avoided vertex is never discovered; the search goes around it
    assert list(search(out, [0], avoid={3}).items()) == [(0, None), (1, 0), (2, 0), (4, 2), (5, 4)]
    # a vertex outside `expand` is discovered but not expanded
    assert list(search(out, [0], expand={1, 2}).items()) == [
        (0, None), (1, 0), (2, 0), (3, 1), (4, 2)]
    # sources are expanded whatever `expand` holds
    assert list(search(out, [0], expand=set()).items()) == [(0, None), (1, 0), (2, 0)]


def _outcome(fn, *args):
    """fn's result, or the type and message of the ValueError or
    InternalInvariantError it raises."""
    try:
        return fn(*args)
    except (ValueError, InternalInvariantError) as exc:
        return type(exc), str(exc)


def _walk(target, prev, reached):
    path = [target]
    while path[-1] not in reached:
        path.append(prev[path[-1]])
    return path


def test_search_matches_the_loops_it_replaced():
    counts = dict.fromkeys(["unconnected", "partial", "witness", "stray", "rank",
                            "pending", "pending_deep", "pending_error"], 0)
    for seed in range(120):
        d = raw_digraph(seed)  # random root, arcs into it, some not connected
        rng = random.Random(seed)
        connected = is_connected(d)
        counts["unconnected"] += not connected
        for g in (d, d.thaw()):
            for v in d.vertices:
                if v != d.root:
                    assert reachable(g, [v]) == looped_reach(d.root, g._out, {v})
                tails = [y for y in g._in[v] if y != d.root]
                assert reachable(g, tails) == looped_reach(d.root, g._out, set(tails))
        for _ in range(6):
            internal = {v for v in d.vertices if rng.random() < 0.5}
            if rng.random() < 0.5:
                internal.add(d.root)  # as acyclic_many_leaves passes it; exact never does
            partial = {}
            full = looped_grow_tree(d).parent
            for v in rng.sample(sorted(full), min(3, len(full))):
                while v != d.root:
                    partial[v] = full[v]
                    v = full[v]
            counts["partial"] += bool(partial)
            assert grow_tree(d, internal) == looped_grow_tree(d, internal)
            assert grow_tree(d, parent=partial) == looped_grow_tree(d, parent=partial)
            assert grow_tree(d, internal, partial) == looped_grow_tree(d, internal, partial)
            # any in-neighbor as parent: cycles, gaps and missing arcs
            guess = {v: rng.choice(d.in_neighbors(v) or d.vertices) for v in d.vertices
                     if v != d.root and rng.random() < 0.95}
            expected = looped_verify_outbranching(d, Outbranching(d.root, guess))
            assert verify_outbranching(d, Outbranching(d.root, guess)) == expected
            counts["stray"] += "inside the tree" in (expected.reason or "")
        if connected:
            assert verify_outbranching(d, grow_tree(d)) == looped_verify_outbranching(d, grow_tree(d))
            kernel, _ = kernelize(d)
            for g in (d, kernel):
                for x in g.vertices:
                    expected = _outcome(looped_large_indegree_witness, g, x)
                    assert _outcome(large_indegree_witness, g, x) == expected
                    counts["witness"] += isinstance(expected, Outbranching)

    for d in two_connected_instances(30, 6, 24, 400):
        rng = random.Random(d.n)
        out = root_path_lists(d)
        for _ in range(12):
            tree, rank, top = root_path_tree(out, d.root)
            expected_tree, expected_rank = looped_root_path_tree(out, d.root)
            assert list(tree.items()) == list(expected_tree.items())
            assert rank == expected_rank
            for v in tree:  # the root child on v's tree path, None for the root
                u = v
                while tree[u] not in (None, d.root):
                    u = tree[u]
                assert top[v] == (None if v == d.root else u)
            counts["rank"] += 1
            live = [(u, v) for u in out for v in out[u]]
            if not live:
                break
            u, v = rng.choice(live)
            out[u].remove(v)

    cores = [relabelled(gen_t_l(k), k) for k in range(3, 13)]
    for d in chain_planted_corpus(40, 700, raw=False) + chain_planted_corpus(20, 800, raw=True):
        steps = []
        cores.append(strip_cutvertices(renormalize(d.thaw(), steps), steps).freeze())
    for d in cores:
        rng = random.Random(d.n)
        cls = classify(d)
        specials = sorted(cls.special)
        for trial in range(10):
            reached = {d.root, *rng.sample(specials, rng.randint(0, len(specials)))}
            pending = cls.special - reached
            if trial % 2:  # no pending special one arc away, as when majbound searches
                pending -= {b for a in reached for b in d.out_neighbors(a)}
            args = (d, reached, pending, cls.nonspecial)
            expected = _outcome(looped_path_to_pending, *args)
            if expected[0] is InternalInvariantError:
                assert _outcome(_path_to_pending, *args) == expected
                counts["pending_error"] += 1
                continue
            (target, prev), (old_target, old_prev) = _path_to_pending(*args), expected
            assert target == old_target
            assert _walk(target, prev, reached) == _walk(target, old_prev, reached)
            discovered = [(b, a) for b, a in prev.items() if a is not None]
            assert discovered[:len(old_prev)] == list(old_prev.items())
            counts["pending"] += 1
            counts["pending_deep"] += old_prev[target] not in reached

    assert counts["unconnected"] >= 10
    assert counts["partial"] >= 600 and counts["stray"] >= 150
    assert counts["witness"] >= 1500 and counts["rank"] >= 300
    assert counts["pending"] >= 300 and counts["pending_deep"] >= 50
    assert counts["pending_error"] >= 20

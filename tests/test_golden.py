"""Golden corpus: sha256 digests of the pipeline's outputs on ~200 seeded
instances and on every rooted digraph with at most three vertices.

Each instance is run through approximate, sqrt_opt_tree, kernelize, decide
(k = 2, 3, 5), rr_numbering on the cutvertex-free core that approximate
works on, and, for n <= 14, maxleaf_exact.  The outputs are serialized to
canonical JSON and hashed; `golden.json` holds one digest per instance and
one per facet (over all instances), so a mismatch names both the instances
and the stages that changed.

maxleaf_exact's witness tree is not pinned, only its leaf count: any optimal
tree is a correct witness.

To regenerate after an intended and explained change of output:

    PYTHONPATH=src python tests/test_golden.py --write
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from maxleaf.approx import approximate, sqrt_opt_tree
from maxleaf.digraph import RootedDigraph, build, find_cutvertex, is_connected, normalize
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import gen_boloney, gen_t_l
from maxleaf.graphio import format_graph
from maxleaf.reduce import apply_rule1, decide, kernelize
from maxleaf.stnum import rr_numbering

from support import legacy_gen_random, random_with_chain, raw_digraph

GOLDEN = Path(__file__).with_name("golden.json")
EXACT_MAX_N = 14
DECIDE_KS = (2, 3, 5)


# -- corpus ----------------------------------------------------------------


def layered_two_wide(layers):
    """Two-wide layered digraph: indegrees and root outdegree 2."""
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


def every_small_digraph(max_n):
    """Every digraph on 0..n-1 for n <= max_n, once with each root: loops
    are the only arcs left out, so arcs into the root and unreachable
    vertices occur."""
    out = []
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for root in range(n):
            for mask in range(1 << len(pairs)):
                arcs = [a for i, a in enumerate(pairs) if mask >> i & 1]
                out.append((f"small/{n}-{root}-{mask}", RootedDigraph(range(n), root, arcs)))
    return out


def corpus():
    """(name, digraph, decide ks, all facets?) tuples, deterministic."""
    out = []
    for i in range(116):
        out.append((f"raw/{i}", raw_digraph(7000 + i), DECIDE_KS, True))
    for i in range(8):
        n = random.Random(8000 + i).randint(20, 60)
        out.append((f"random-sparse/{i}", legacy_gen_random(n, 1.5 / n, 8000 + i), DECIDE_KS, True))
    for i in range(4):
        n = random.Random(8100 + i).randint(20, 60)
        out.append((f"random-dense/{i}", legacy_gen_random(n, 4 / n, 8100 + i), DECIDE_KS, True))
    for i in range(66):
        out.append((f"chain/{i}", random_with_chain(9000 + i), DECIDE_KS, True))
    for l in range(2, 7):
        out.append((f"t_l/{l}", gen_t_l(l), DECIDE_KS, True))
    for k in range(2, 9):
        out.append((f"boloney/{k}", gen_boloney(k), DECIDE_KS, True))
    # the size-threshold branch of decide: n = 618 >= 616 = (3k-2)(30k-2) at
    # k = 3; only kernelize and decide, the numbering on n = 618 is slow
    out.append(("layered/308", layered_two_wide(308), (3,), False))
    for name, d in every_small_digraph(3):
        out.append((name, d, DECIDE_KS, True))
    return out


# -- facets ----------------------------------------------------------------


def tree_rows(tree):
    return [tree.root, sorted(tree.parent.items())]


def guarded(fn):
    try:
        return fn()
    except Exception as exc:  # the exception type is part of the behaviour
        return {"error": type(exc).__name__}


def approx_facet(d):
    tree, rep = approximate(d)
    return {"tree": tree_rows(tree), "l": rep.l, "h": rep.h,
            "leaves": [rep.leaves_bound1, rep.leaves_bound2, rep.leaves_majbound],
            "chosen": rep.chosen, "lower": str(rep.lower), "upper": rep.upper,
            "trees": {k: tree_rows(t) for k, t in sorted(rep.trees.items())}}


def kernelize_facet(d):
    reduced, trace = kernelize(d)
    return {"trace": trace.to_text(), "root": reduced.root,
            "vertices": list(reduced.vertices), "arcs": reduced.arcs()}


def decide_facet(d, k):
    dec = decide(d, k)
    return {"verdict": dec.verdict,
            "witness": tree_rows(dec.witness) if dec.witness is not None else None}


def approx_core(d):
    """Normalize, then apply rule 1 until no cutvertex is left, normalizing
    after each rewrite: the core approximate builds its trees on."""
    core, _ = normalize(d)
    while True:
        x = find_cutvertex(core)
        if x is None:
            return core
        core, _ = apply_rule1(core, x)
        core, _ = normalize(core)


def numbering_facet(d):
    if not is_connected(d):
        return None
    core = approx_core(d)
    return list(rr_numbering(core).order) if core.n > 2 else None


def exact_facet(d):
    res = maxleaf_exact(d)
    return {"maxleaf": res.maxleaf, "witness_leaves": res.witness.leaf_count}


def facets(d, ks, every):
    out = {"kernelize": guarded(lambda: kernelize_facet(d))}
    for k in ks:
        out[f"decide_k{k}"] = guarded(lambda: decide_facet(d, k))
    if every:
        out["approximate"] = guarded(lambda: approx_facet(d))
        out["sqrt_opt_tree"] = guarded(lambda: tree_rows(sqrt_opt_tree(d)))
        out["rr_numbering"] = guarded(lambda: numbering_facet(d))
    if d.n <= EXACT_MAX_N:
        out["maxleaf_exact"] = guarded(lambda: exact_facet(d))
    return out


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compute():
    per_instance = {}
    per_facet = {}
    for name, d, ks, every in corpus():
        record = facets(d, ks, every)
        per_instance[name] = digest(record)
        for facet, value in record.items():
            per_facet.setdefault(facet, []).append([name, value])
    return {"instances": per_instance,
            "facets": {f: digest(rows) for f, rows in sorted(per_facet.items())}}


# -- the test --------------------------------------------------------------


def test_golden_corpus_matches():
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert len(got["instances"]) >= 190
    bad_facets = sorted(f for f in want["facets"]
                        if got["facets"].get(f) != want["facets"][f])
    bad_instances = sorted(n for n in want["instances"]
                           if got["instances"].get(n) != want["instances"][n])
    assert not bad_facets and not bad_instances, (
        f"changed facets {bad_facets}; changed instances {bad_instances[:20]}"
        f" ({len(bad_instances)} in all)")
    assert got == want


def test_kernelize_n3000_matches_pinned_digests():
    # the corpus above stops near n = 600; this pins one kernel an order of
    # magnitude larger, with its 156-step trace
    red, trace = kernelize(legacy_gen_random(3000, 0.001, seed=1))
    assert (red.n, red.m, len(trace)) == (2848, 14633, 156)
    assert hashlib.sha256(format_graph(red).encode()).hexdigest() == (
        "4ab7aced0cc345b201632c3f5321998000bd14b5998ff0cbdf3faefe836fd791")
    assert hashlib.sha256(trace.to_text().encode()).hexdigest() == (
        "5d6d79a0631ee26c6f09a6acff01b7ab24b7965cde0b4c735716e1e78a1cc7ec")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")

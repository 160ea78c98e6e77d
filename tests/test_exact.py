import random
from itertools import combinations

import pytest

from maxleaf.digraph import build, is_connected, reachable, verify_outbranching
from maxleaf.errors import InfeasibleError, PreconditionError
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import gen_bipath_chain, gen_random, gen_star, gen_t_l

from support import enumerating_exact, random_instances, raw_digraph, with_arcs
from test_golden import every_small_digraph


def test_star_maxleaf():
    for k in (1, 3, 6):
        assert maxleaf_exact(gen_star(k)).maxleaf == k


def test_t2_maxleaf():
    assert maxleaf_exact(gen_t_l(2)).maxleaf == 2


def test_single_vertex():
    res = maxleaf_exact(build(1, 0, []))
    assert res.maxleaf == 1 and res.witness.parent == {}


def test_bipath_chain_has_one_leaf():
    # chain of 2-circuits off the root admits only the path itself
    assert maxleaf_exact(gen_bipath_chain(5)).maxleaf == 1


def test_rejects_oversize_and_disconnected():
    with pytest.raises(PreconditionError, match="limit"):
        maxleaf_exact(gen_star(25))
    # reachability is checked first, as the CLI's exit code 3 reports it
    for d in (build(3, 0, [(0, 1)]), build(25, 0, [(0, 1)])):
        with pytest.raises(InfeasibleError, match="^some vertex is unreachable from the root$"):
            maxleaf_exact(d)
    assert maxleaf_exact(gen_star(25), limit=30).maxleaf == 25


def test_witness_and_explored():
    d = gen_random(9, 0.3, 17)
    res = maxleaf_exact(d)
    check = verify_outbranching(d, res.witness)
    assert check.ok and check.leaf_count == res.maxleaf
    assert res.explored >= 1


def test_adding_arcs_never_decreases_maxleaf():
    rng = random.Random(99)
    for d in random_instances(30, 4, 9, seed_base=4000):
        base = maxleaf_exact(d).maxleaf
        missing = [(u, v) for u in d.vertices for v in d.vertices
                   if u != v and v != d.root and not d.has_arc(u, v)
                   and v not in d.root_out()]
        if not missing:
            continue
        extra = rng.choice(missing)
        assert maxleaf_exact(with_arcs(d, [extra])).maxleaf >= base


def test_every_cutset_contains_an_internal_vertex():
    # on optimal witnesses, any set whose removal disconnects something
    # must contain a vertex with a child
    for d in random_instances(20, 4, 8, seed_base=4100):
        witness = maxleaf_exact(d).witness
        internal = set(witness.parent.values())
        others = [v for v in d.vertices if v != d.root]
        for size in (1, 2):
            for cut in combinations(others, size):
                if len(reachable(d, set(cut))) < d.n - size:
                    assert internal & set(cut), (cut, d.arcs())


def test_matches_enumerating_oracle():
    # lemmas A to C of the module docstring: skipping the forced and the
    # useless vertices finds the same first internal set, so the same tree
    cases = [d for _, d in every_small_digraph(3)]
    cases += random_instances(40, 4, 12, seed_base=4200)
    cases += [raw_digraph(seed) for seed in range(4300, 4380)]
    cases += [gen_star(k) for k in (1, 2, 5)]
    cases += [gen_bipath_chain(k) for k in (1, 2, 6)]
    cases += [gen_t_l(2), gen_t_l(3)]
    searched = 0
    for d in cases:
        if not is_connected(d):
            with pytest.raises(InfeasibleError, match="unreachable from the root"):
                maxleaf_exact(d)
            continue
        want = enumerating_exact(d)
        got = maxleaf_exact(d)
        assert got.maxleaf == want.maxleaf, d.arcs()
        assert got.witness.parent == want.witness.parent, d.arcs()
        assert got.explored <= want.explored
        searched += 1
    assert searched > 150

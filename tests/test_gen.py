import math
import random
from collections import Counter
from fractions import Fraction
from statistics import fmean, variance

import pytest

from maxleaf import gen
from maxleaf.approx import approximate, approximate_each_root, sqrt_opt_tree
from maxleaf.digraph import is_2connected, is_connected, verify_outbranching
from maxleaf.errors import PreconditionError
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import (FAMILIES, GenSpec, gen_bipath_chain, gen_boloney, gen_comb,
                         gen_dipath, gen_necklace, gen_random, gen_star, gen_t_l, generate)
from maxleaf.reduce import Rule3Step, decide, kernelize

from support import fixpoint_kernelize, is_normalized


def test_t_l_vertex_counts():
    for l in (2, 3, 4, 5):
        assert gen_t_l(l).n == 3 * l * (l - 1) + 1


def test_t_l_rejects_small():
    with pytest.raises(ValueError):
        gen_t_l(1)


def test_t_l_structure():
    d = gen_t_l(2)
    assert d.outdeg(0) == 2
    assert maxleaf_exact(d).maxleaf == 2


def test_boloney_properties_small():
    for k in (2, 3):
        d = gen_boloney(k)
        assert is_2connected(d)
        assert d.outdeg(d.root) == 3
        assert sum(1 for v in d.vertices if d.indeg(v) >= 2) == 3 * k - 2
        assert maxleaf_exact(d).maxleaf == k + 2


def test_boloney_rejects_small():
    with pytest.raises(ValueError):
        gen_boloney(1)


def test_random_basics():
    for p in (0.0, 0.5, 1.0):
        assert gen_random(2, p, 1).arcs() == [(0, 1)]
    planted = gen_random(8, 0.0, 5)
    assert planted.m == planted.n - 1  # arborescence only


def test_random_deterministic_and_normalized():
    for seed in range(15):
        a = gen_random(9, 0.35, seed)
        b = gen_random(9, 0.35, seed)
        assert a == b
        assert is_normalized(a)
        assert is_connected(a)


def test_star_dipath_bipath_shapes():
    assert gen_star(4).arcs() == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert gen_dipath(3).arcs() == [(0, 1), (1, 2), (2, 3)]
    chain = gen_bipath_chain(3)
    assert (1, 2) in chain.arc_set() and (2, 1) in chain.arc_set()
    assert (0, 1) in chain.arc_set() and (1, 0) not in chain.arc_set()


def test_generate_dispatch():
    sizes = {"necklace": 6}
    for family in FAMILIES:
        spec = GenSpec(family, sizes.get(family, 3), seed=2, arc_probability=0.3) \
            if family == "random" else GenSpec(family, sizes.get(family, 3), seed=2)
        d = generate(spec)
        assert generate(spec) == d
    with pytest.raises(ValueError, match="unknown family"):
        generate(GenSpec("nope", 3))


# -- the skip sampler ------------------------------------------------------


def noise(n, p, seed):
    return gen._noise_arcs(n, p, random.Random(seed))


def test_noise_arcs_are_seeded_distinct_non_loop_pairs_in_row_order():
    for seed in range(200):
        n = 2 + seed % 15
        p = random.Random(-seed).random()
        arcs = noise(n, p, seed)
        assert arcs == noise(n, p, seed)
        assert arcs == sorted(set(arcs))
        assert all(u != v and 0 <= u < n and 1 <= v < n for u, v in arcs)


def test_noise_arc_frequencies_match_the_probability():
    """Over 4000 seeds each of the (n - 1)^2 pairs comes up Bin(4000, p)
    times; every count lies within 5 standard deviations of its mean.  At
    p = 0.05 most gaps cross a row, at p = 0.3 most stay inside one."""
    seeds, n = 4000, 6
    for p in (0.05, 0.3):
        counts = Counter(a for seed in range(seeds) for a in noise(n, p, seed))
        pairs = [(u, v) for u in range(n) for v in range(1, n) if u != v]
        assert set(counts) == set(pairs)
        mean, sd = seeds * p, math.sqrt(seeds * p * (1 - p))
        assert all(abs(counts[a] - mean) <= 5 * sd for a in pairs)


def test_noise_arc_count_is_binomial():
    """The arc count is Bin((n - 1)^2, p): over 4000 seeds the sample mean
    lies within 5 standard errors of (n - 1)^2 p, and the sample variance
    within 10% of (n - 1)^2 p (1 - p), about 4.5 of its standard errors."""
    seeds, n, p = 4000, 30, 0.1
    sizes = [len(noise(n, p, seed)) for seed in range(seeds)]
    slots = (n - 1) ** 2
    mean, var = slots * p, slots * p * (1 - p)
    assert abs(fmean(sizes) - mean) <= 5 * math.sqrt(var / seeds)
    assert abs(variance(sizes) - var) <= 0.1 * var


def test_noise_arcs_at_probability_zero_and_one(monkeypatch):
    def no_log(*args):
        raise AssertionError("log called")

    monkeypatch.setattr(math, "log", no_log)
    monkeypatch.setattr(math, "log1p", no_log)
    for n in (2, 3, 7):
        assert noise(n, 0.0, 1) == []
        assert noise(n, 1.0, 1) == [(u, v) for u in range(n) for v in range(1, n) if u != v]
        # every vertex is a root outneighbor, so normalize leaves the star
        assert gen_random(n, 1.0, 1).arcs() == [(0, v) for v in range(1, n)]


def test_noise_arcs_skip_past_the_end():
    """The smallest positive probability draws nothing (its first gap is
    far past the last slot, or inf), and two vertices have the one slot
    (0, 1)."""
    assert noise(50, 5e-324, 3) == []
    assert {tuple(noise(2, 0.5, seed)) for seed in range(40)} == {(), ((0, 1),)}


def test_random_rejects_bad_parameters():
    for n, p in ((1, 0.5), (0, 0.5), (-3, 0.5), (5, -0.1), (5, 1.5), (5, math.nan)):
        with pytest.raises(PreconditionError):
            gen_random(n, p, 0)


# -- the ring families -----------------------------------------------------


def test_necklace_shape():
    assert gen_necklace(6).arcs() == [
        (0, 1), (0, 4), (1, 2), (1, 4), (1, 6), (2, 1), (2, 3), (3, 2), (3, 4), (3, 6),
        (4, 3), (4, 5), (5, 2), (5, 4), (5, 6), (6, 1), (6, 5)]
    for size in range(6, 41, 2):
        d = gen_necklace(size)
        assert (d.n, d.m, d.root) == (size + 1, 5 * size // 2 + 2, 0)
        assert sorted(d.root_out()) == [1, size // 2 + 1] and d.indeg(0) == 0
        for v in range(1, size + 1):
            assert d.outdeg(v) == 2 + v % 2
            assert d.indeg(v) == 3 - v % 2 + (v in (1, size // 2 + 1))
        assert is_2connected(d)
    for size in (4, 7, 5, 0):
        with pytest.raises(PreconditionError):
            gen_necklace(size)


def test_comb_shape():
    assert gen_comb(4).arcs() == [
        (0, 1), (0, 4), (1, 2), (1, 5), (2, 1), (2, 3), (2, 5), (2, 6), (3, 2), (3, 4),
        (3, 5), (3, 6), (4, 3), (4, 6), (5, 2), (6, 3)]
    for size in range(3, 41):
        d = gen_comb(size)
        assert (d.n, d.m, d.root) == (2 * size - 1, 6 * size - 8, 0)
        assert sorted(d.root_out()) == [1, size] and d.indeg(0) == 0
        for v in range(1, size + 1):
            teeth = min(size - 2, v) - max(1, v - 2) + 1
            assert d.outdeg(v) == (1 if v in (1, size) else 2) + teeth
            assert d.indeg(v) == (2 if v in (1, size) else 3)
        for tooth in range(size + 1, 2 * size - 1):
            assert (d.indeg(tooth), d.outdeg(tooth)) == (3, 1)
    with pytest.raises(PreconditionError):
        gen_comb(2)


def ring_corpus():
    return [gen_necklace(size) for size in range(6, 19, 2)] + \
        [gen_comb(size) for size in range(3, 11)]


def test_ring_families_through_every_entry_point():
    """Each entry point on necklaces N = 6..18 and combs N = 3..10, against
    the exhaustive optimum and the fixpoint-loop kernelizer."""
    rule3 = []
    for d in ring_corpus():
        optimum = maxleaf_exact(d).maxleaf
        red, trace = kernelize(d)
        want, want_trace = fixpoint_kernelize(d)
        assert red == want and trace.to_text() == want_trace.to_text()
        assert maxleaf_exact(red).maxleaf == optimum
        rule3.append(sum(isinstance(s, Rule3Step) for s in trace.steps))
        tree, report = approximate(d)
        assert verify_outbranching(d, tree).ok
        assert report.lower <= Fraction(tree.leaf_count)
        assert tree.leaf_count <= optimum <= report.upper
        for root, tree, _ in approximate_each_root(d):
            assert tree.root == root
        tree = sqrt_opt_tree(d)
        assert verify_outbranching(d, tree).ok and tree.leaf_count <= optimum
        for k in range(1, optimum + 2):
            dec = decide(d, k)
            assert dec.verdict in ("TRUE", "REDUCED")
            if dec.verdict == "TRUE":
                check = verify_outbranching(d, dec.witness)
                assert check.ok and k <= check.leaf_count <= optimum
    # rule 3 deletes nothing on a necklace but N = 8, and 2N - 4 arcs on a comb
    assert rule3 == [0, 2, 0, 0, 0, 0, 0] + [2 * size - 4 for size in range(3, 11)]

import pytest

from maxleaf.digraph import is_2connected, is_connected
from maxleaf.exact import maxleaf_exact
from maxleaf.gen import (FAMILIES, GenSpec, gen_bipath_chain, gen_boloney,
                         gen_dipath, gen_random, gen_star, gen_t_l, generate)

from support import is_normalized


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
    d = gen_random(2, 0.0, 1)
    assert d.arcs() == [(0, 1)]
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
    for family in FAMILIES:
        spec = GenSpec(family, 3, seed=2, arc_probability=0.3) if family == "random" \
            else GenSpec(family, 3, seed=2)
        d = generate(spec)
        assert generate(spec) == d
    with pytest.raises(ValueError, match="unknown family"):
        generate(GenSpec("nope", 3))

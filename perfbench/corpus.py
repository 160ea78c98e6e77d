"""Seeded corpus builder for the benchmark workloads.

Every instance is derived from the workload seed alone, so the same seed
gives byte-identical graph files.  The manifest records each instance's
family, parameters, instance seed, n, m and the sha256 of its file, which
lets two commits prove they ran identical inputs.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from maxleaf import gen, graphio
from maxleaf.digraph import build, normalize


@dataclass
class Instance:
    name: str
    family: str
    params: dict
    seed: int
    graph: object                 # the generated RootedDigraph
    ops: tuple                    # CLI commands run on this instance
    k: int = 0                    # decide parameter, when "decide" is in ops
    optimum: int | None = None    # known maximum leaf number, when known
    path: str = ""
    sha256: str = ""


def _instance_seed(seed, index):
    return seed * 1_000_003 + index


def _random_arcs(rng, n, root, p):
    """Planted spanning arborescence from `root` plus independent noise arcs."""
    order = [v for v in range(n) if v != root]
    rng.shuffle(order)
    placed = [root]
    arcs = []
    for v in order:
        arcs.append((rng.choice(placed), v))
        placed.append(v)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                arcs.append((u, v))
    return arcs


def plant_chains(rng, n, p, chains, length):
    """Sparse random instance with `chains` planted 2-circuit chains.

    Each chain is `length` fresh vertices joined by 2-circuits and tied by
    2-circuits to two random old vertices, so every interior triple is a
    length-4 bipath and rule 2 contracts the chain down to two vertices.
    The result is normalized, like `gen_random`'s output.
    """
    arcs = _random_arcs(rng, n, 0, p)
    total = n
    for _ in range(chains):
        a, b = rng.sample(range(1, n), 2)
        path = [a] + list(range(total, total + length)) + [b]
        total += length
        for u, v in zip(path, path[1:]):
            arcs.append((u, v))
            arcs.append((v, u))
    d, _ = normalize(build(total, 0, arcs))
    return d


def raw_small(rng, n, p, root_arcs):
    """Raw instance: random root, not normalized, with arcs into the root."""
    root = rng.randrange(n)
    arcs = _random_arcs(rng, n, root, p)
    others = [v for v in range(n) if v != root]
    for u in rng.sample(others, root_arcs):
        arcs.append((u, root))
    return build(n, root, arcs)


def relabel(d, rng):
    """Isomorphic copy of a dense digraph under a seeded vertex permutation."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    return build(d.n, perm[d.root], [(perm[u], perm[v]) for u, v in d.arc_set()])


# -- workloads -------------------------------------------------------------
#
# Sizes are fixed ladders; the seed only draws the random structure, so the
# per-pass work stays comparable across seeds.

APPROX_DENSE_NS = tuple(range(86, 116))
KERNEL_SPARSE_CHAIN_NS = tuple(range(40, 70))         # base n; chains added
KERNEL_SPARSE_RANDOM_NS = tuple(range(40, 70)) * 2
KERNEL_SPARSE_CHAINS = (3, 8)                           # chains, vertices each
KERNEL_SPARSE_KS = (3, 12, 40)
EXTREMAL_T_L = tuple(range(3, 17))
EXTREMAL_BOLONEY = (5, 10, 20, 40, 80, 120, 160, 200, 240)
SMALL_RAW_COUNT = 600


def _approx_dense(seed):
    out = []
    for i, n in enumerate(APPROX_DENSE_NS):
        s = _instance_seed(seed, i)
        d = gen.gen_random(n, 4 / n, s)
        out.append(Instance(f"ad{i:02d}", "random", {"n": n, "p": f"4/{n}"}, s, d,
                            ("approx",)))
    return out


def _kernel_sparse(seed):
    """A third of the instances carry planted chains, so that rule 2 fires;
    the rest are plain `gen_random` output, where it never does.  Every size
    appears twice, once for `kernelize` and once for `decide`."""
    chains, length = KERNEL_SPARSE_CHAINS
    specs = []
    for op in ("kernelize", "decide"):
        specs += [("random+chains", n, op) for n in KERNEL_SPARSE_CHAIN_NS]
        specs += [("random", n, op) for n in KERNEL_SPARSE_RANDOM_NS]
    out = []
    for i, (family, n, op) in enumerate(specs):
        s = _instance_seed(seed, i)
        params = {"n": n, "p": f"1.5/{n}"}
        if family == "random":
            d = gen.gen_random(n, 1.5 / n, s)
        else:
            d = plant_chains(random.Random(s), n, 1.5 / n, chains, length)
            params.update(chains=chains, chain_length=length)
        k = KERNEL_SPARSE_KS[i % len(KERNEL_SPARSE_KS)] if op == "decide" else 0
        out.append(Instance(f"ks{i:03d}", family, params, s, d, (op,), k=k))
    return out


def _extremal(seed):
    out = []
    i = 0
    for l in EXTREMAL_T_L:
        s = _instance_seed(seed, i)
        d = relabel(gen.gen_t_l(l), random.Random(s))
        out.append(Instance(f"ex{i:02d}", "t_l", {"l": l}, s, d,
                            ("approx", "kernelize"), optimum=2 * (l - 1)))
        i += 1
    for k in EXTREMAL_BOLONEY:
        s = _instance_seed(seed, i)
        d = relabel(gen.gen_boloney(k), random.Random(s))
        out.append(Instance(f"ex{i:02d}", "boloney", {"k": k}, s, d,
                            ("approx", "kernelize"), optimum=k + 2))
        i += 1
    return out


def _small_raw(seed):
    out = []
    for i in range(SMALL_RAW_COUNT):
        s = _instance_seed(seed, i)
        rng = random.Random(s)
        n = 10 + i % 9
        p = rng.choice((0.12, 0.18, 0.25))
        root_arcs = rng.randint(1, 3)
        d = raw_small(rng, n, p, root_arcs)
        k = rng.randint(2, 6)
        out.append(Instance(f"sr{i:03d}", "raw", {"n": n, "p": p, "root_arcs": root_arcs},
                            s, d, ("approx", "kernelize", "decide", "exact"), k=k))
    return out


WORKLOADS = {
    "approx-dense": _approx_dense,
    "kernel-sparse": _kernel_sparse,
    "extremal": _extremal,
    "small-raw": _small_raw,
}


def build_corpus(workload, seed, directory):
    """Generate the workload's instances and write one graph file each.

    Returns (instances, manifest); `directory` must exist.
    """
    instances = WORKLOADS[workload](seed)
    manifest = []
    for inst in instances:
        text = graphio.format_graph(inst.graph)
        inst.path = str(directory / f"{inst.name}.graph")
        with open(inst.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        inst.sha256 = hashlib.sha256(text.encode()).hexdigest()
        manifest.append({"name": inst.name, "family": inst.family, "params": inst.params,
                         "seed": inst.seed, "n": inst.graph.n, "m": inst.graph.m,
                         "k": inst.k or None, "sha256": inst.sha256})
    return instances, manifest

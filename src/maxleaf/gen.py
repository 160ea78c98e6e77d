"""Deterministic instance generators: extremal families and random instances."""
from __future__ import annotations

import random
from dataclasses import dataclass

from .digraph import RootedDigraph, build, normalize
from .errors import PreconditionError

FAMILIES = ("t_l", "boloney", "random", "star", "dipath", "bipath_chain")


@dataclass(frozen=True)
class GenSpec:
    """Reproducible description of a generated instance."""

    family: str
    size: int
    seed: int = 0
    arc_probability: float = 0.3


def gen_t_l(l):
    """Quadratic-size family that the reduction rules leave untouched.

    Rows i = 0..l-1 of length 3(l-1): the root feeds column 0, consecutive
    row vertices form 2-circuits, the last column carries a ring of wrap
    arcs between rows, and every column 3t (1-based) sends a skip arc to
    column 0 of row i+t.  Has 3l(l-1)+1 vertices and maximum leaf number
    2(l-1).
    """
    if l < 2:
        raise PreconditionError("row count l must be at least 2")
    cols = 3 * (l - 1)

    def vid(i, j):
        return 1 + i * cols + j

    arcs = []
    for i in range(l):
        arcs.append((0, vid(i, 0)))
        for j in range(cols - 1):
            arcs.append((vid(i, j), vid(i, j + 1)))
            arcs.append((vid(i, j + 1), vid(i, j)))
        arcs.append((vid(i, cols - 1), vid((i + 1) % l, cols - 1)))
        for t in range(1, l):
            arcs.append((vid(i, 3 * t - 1), vid((i + t) % l, 0)))
    return build(1 + l * cols, 0, arcs)


def gen_boloney(k):
    """Ring-layered acyclic family: d(r)=3, 3k-2 vertices of indegree >= 2,
    maximum leaf number k+2.

    The root feeds a width-3 layer; each of the k-1 following layers takes
    two in-arcs per vertex from the previous layer in a rotating pattern, and
    a single terminal vertex hangs from the last layer.  Every layer needs
    two internal vertices in any spanning out-tree, which pins the optimum at
    k+2 leaves.
    """
    if k < 2:
        raise PreconditionError("layer count k must be at least 2")

    def vid(j, c):
        return 1 + 3 * j + c

    t = 3 * k + 1
    arcs = [(0, vid(0, c)) for c in range(3)]
    for j in range(k - 1):
        for c in range(3):
            arcs.append((vid(j, c), vid(j + 1, c)))
            arcs.append((vid(j, c), vid(j + 1, (c + 1) % 3)))
    arcs.append((vid(k - 1, 0), t))
    arcs.append((vid(k - 1, 1), t))
    return build(3 * k + 2, 0, arcs)


def gen_random(n, arc_probability, seed):
    """Random normalized instance: planted spanning arborescence plus noise arcs."""
    if n < 2:
        raise PreconditionError("need at least two vertices")
    if not 0.0 <= arc_probability <= 1.0:
        raise PreconditionError("arc probability must lie in [0, 1]")
    rng = random.Random(seed)
    arcs = [(rng.randrange(v), v) for v in range(1, n)]
    for u in range(n):
        for v in range(1, n):
            if u != v and rng.random() < arc_probability:
                arcs.append((u, v))
    d, _ = normalize(build(n, 0, arcs))
    return d


def gen_star(k):
    """Root with k leaves."""
    if k < 1:
        raise PreconditionError("need at least one leaf")
    return build(k + 1, 0, [(0, v) for v in range(1, k + 1)])


def gen_dipath(length):
    """Directed path r -> 1 -> ... -> length."""
    if length < 1:
        raise PreconditionError("need at least one non-root vertex")
    return build(length + 1, 0, [(v, v + 1) for v in range(length)])


def gen_bipath_chain(length):
    """Root feeding a chain of `length` vertices linked by 2-circuits."""
    if length < 1:
        raise PreconditionError("need at least one chain vertex")
    arcs = [(0, 1)]
    for v in range(1, length):
        arcs.append((v, v + 1))
        arcs.append((v + 1, v))
    return build(length + 1, 0, arcs)


def generate(spec: GenSpec) -> RootedDigraph:
    if spec.family == "t_l":
        return gen_t_l(spec.size)
    if spec.family == "boloney":
        return gen_boloney(spec.size)
    if spec.family == "random":
        return gen_random(spec.size, spec.arc_probability, spec.seed)
    if spec.family == "star":
        return gen_star(spec.size)
    if spec.family == "dipath":
        return gen_dipath(spec.size)
    if spec.family == "bipath_chain":
        return gen_bipath_chain(spec.size)
    raise PreconditionError(f"unknown family {spec.family!r}; choose from {FAMILIES}")

"""Deterministic instance generators: extremal and ring-like families and random instances."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .digraph import RootedDigraph, build, normalize
from .errors import PreconditionError


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
    """Random normalized instance: planted spanning arborescence plus noise
    arcs, each non-loop pair (u, v) with v != 0 drawn independently with
    probability `arc_probability`, in O(n + m) time."""
    if n < 2:
        raise PreconditionError("need at least two vertices")
    if not 0.0 <= arc_probability <= 1.0:
        raise PreconditionError("arc probability must lie in [0, 1]")
    rng = random.Random(seed)
    arcs = [(rng.randrange(v), v) for v in range(1, n)]
    arcs += _noise_arcs(n, arc_probability, rng)
    d, _ = normalize(build(n, 0, arcs))
    return d


def _noise_arcs(n, p, rng):
    """Each pair (u, v) with u != v and v != 0, independently with
    probability p, in row-major order.

    Skip sampling (Batagelj & Brandes, "Efficient Generation of Large Random
    Networks", Phys. Rev. E 71, 036113, 2005): the n(n-1) slots (u, v) with
    v >= 1 are numbered row by row, and the gap to the next chosen slot is
    geometric, floor(log(1 - U) / log(1 - p)), so the work is one draw per
    chosen slot rather than one per slot.  A chosen loop slot (v, v) is
    dropped, which leaves every other slot independent.
    """
    if p == 0.0:
        return []
    if p == 1.0:
        return [(u, v) for u in range(n) for v in range(1, n) if u != v]
    width = n - 1
    last = n * width - 1
    log_q = math.log1p(-p)
    arcs = []
    slot = -1
    while True:
        gap = math.log(1.0 - rng.random()) / log_q
        if gap >= last - slot:  # a float compare: the gap may be inf
            return arcs
        slot += 1 + int(gap)
        u, v = divmod(slot, width)
        if u != v + 1:
            arcs.append((u, v + 1))


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


def gen_necklace(size):
    """Ring 1..N (N = `size`, even) with both arcs between cyclic neighbors,
    root arcs (0, 1) and (0, N/2 + 1), and a chord into each even v from
    u = (v + 2) mod N + 1.

    2-connected, with N/2 heads of indegree 3 and a breadth-first tree
    Theta(N) deep; rule 3 deletes nothing for every N but 8, where the
    chords wrap round.  Not normalized: the ring's arcs into the two root
    outneighbors stay.
    """
    if size < 6 or size % 2:
        raise PreconditionError("necklace size N must be even and at least 6")
    arcs = [(0, 1), (0, size // 2 + 1)]
    for v in range(1, size + 1):
        w = v % size + 1
        arcs += [(v, w), (w, v)]
        if v % 2 == 0:
            arcs.append(((v + 2) % size + 1, v))
    return build(size + 1, 0, arcs)


def gen_comb(size):
    """Path 1..N (N = `size`) with both arcs between neighbors, root arcs
    (0, 1) and (0, N), and for each i < N - 1 a tooth N + i with in-arcs
    from i, i + 1 and i + 2 and the one out-arc (N + i, i + 1).

    N - 2 teeth of indegree 3; rule 3 deletes 2N - 4 arcs, and the
    normalizations after it two more.
    """
    if size < 3:
        raise PreconditionError("comb size N must be at least 3")
    arcs = [(0, 1), (0, size)]
    for i in range(1, size):
        arcs += [(i, i + 1), (i + 1, i)]
    for i in range(1, size - 1):
        tooth = size + i
        arcs += [(i, tooth), (i + 1, tooth), (i + 2, tooth), (tooth, i + 1)]
    return build(2 * size - 1, 0, arcs)


_GENERATORS = {
    "t_l": lambda spec: gen_t_l(spec.size),
    "boloney": lambda spec: gen_boloney(spec.size),
    "random": lambda spec: gen_random(spec.size, spec.arc_probability, spec.seed),
    "star": lambda spec: gen_star(spec.size),
    "dipath": lambda spec: gen_dipath(spec.size),
    "bipath_chain": lambda spec: gen_bipath_chain(spec.size),
    "necklace": lambda spec: gen_necklace(spec.size),
    "comb": lambda spec: gen_comb(spec.size),
}
FAMILIES = tuple(_GENERATORS)


def generate(spec: GenSpec) -> RootedDigraph:
    make = _GENERATORS.get(spec.family)
    if make is None:
        raise PreconditionError(f"unknown family {spec.family!r}; choose from {FAMILIES}")
    return make(spec)

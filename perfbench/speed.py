"""Host-speed calibration for timed calls.

On a shared host the interpreter's speed drifts by a third or more over
tens of seconds, with CPU time tracking wall time: the code runs slower, it
is not descheduled.  So every timed duration is bracketed by runs of a fixed
reference loop and reported at reference speed:

    scaled = measured * REFERENCE_S / mean(reference loop before, after)

The reference loop belongs to the benchmark, not to the program, so a
change to the program moves scaled times exactly as it moves raw ones.
"""
from __future__ import annotations

import random
from collections import deque
from time import perf_counter

REFERENCE_S = 0.015     # the reference loop's duration at reference speed
INTERVAL_S = 0.25       # longest stretch of timed work between two samples

# A fixed random digraph.  The reference loop does what the program does
# most (build adjacency dicts, sort tuples, hash arc pairs, breadth-first
# search), because host contention slows such memory-bound code more than
# plain arithmetic.
_N = 400
_rng = random.Random(20090415)
_ARCS = [(_rng.randrange(_N), _rng.randrange(_N)) for _ in range(2400)]
_ROUNDS = 6


def reference_loop():
    """Run the fixed loop once; returns its duration in seconds."""
    start = perf_counter()
    for _ in range(_ROUNDS):
        out = {v: [] for v in range(_N)}
        seen = set()
        for u, v in _ARCS:
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                out[u].append(v)
        out = {v: tuple(sorted(ws)) for v, ws in out.items()}
        frozenset(seen)
        for s in range(0, _N, 40):
            dist = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v in out[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
    return perf_counter() - start


class Calibrated:
    """Raw durations plus their scaled values, sampling the reference loop
    whenever INTERVAL_S has passed since the last sample."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.raw = []
        self.scaled = []
        self.samples = []
        self._pending = []
        self._last = self._sample()

    def _sample(self):
        seconds = reference_loop()
        self.samples.append(seconds)
        self._since = perf_counter()
        return seconds

    def add(self, seconds):
        self.raw.append(seconds)
        self._pending.append(seconds)
        if perf_counter() - self._since >= self.interval:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        now = self._sample()
        factor = REFERENCE_S / ((self._last + now) / 2)
        self.scaled.extend(t * factor for t in self._pending)
        self._pending = []
        self._last = now

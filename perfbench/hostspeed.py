"""Host-speed reference for the timed runs.

The CPU time of the same solve on the same host swings by a factor of two
or more over periods of seconds to minutes (other tenants' load on shared
cores and caches), so the runs of one seed set disagree by more than any
useful bound.  ``reference`` is fixed pure-Python work, independent of the
program: integer arithmetic and a walk over a graph of small objects.  A
timed run samples it between its timed calls, about ``SHARE`` of their CPU
time in all, and reports every time divided by ``factor``, the median
sample over ``NOMINAL_S``: seconds at the host speed at which ``reference``
takes ``NOMINAL_S``.  The program cannot change the reference, so a slower
program still reads slower; the run prints its raw CPU time and the factor.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

CLOCK = time.process_time
NOMINAL_S = 0.01  # about one reference() on an unloaded x86_64 core, Python 3.11


class _Node:
    __slots__ = ("id", "nbrs")

    def __init__(self, i):
        self.id = i
        self.nbrs = []


def _graph(n=8000, degree=3, seed=5):
    rng = random.Random(seed)
    nodes = [_Node(i) for i in range(n)]
    for node in nodes:
        node.nbrs.extend(nodes[rng.randrange(n)] for _ in range(degree))
    return nodes


_NODES = _graph()


def reference() -> int:
    total = 0
    for i in range(50_000):
        total += i * i % 7
    seen = {0}
    stack = [_NODES[0]]
    for _ in range(6_000):
        if not stack:
            break
        for nbr in stack.pop().nbrs:
            if nbr.id not in seen:
                seen.add(nbr.id)
                stack.append(nbr)
    return total + len(seen)


class HostSpeed:
    """Reference samples spread over the timed calls of one run."""

    SHARE = 0.05

    def __init__(self):
        self.samples = []
        self.timed_s = self.reference_s = 0.0
        self.sample()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the reference
        start = CLOCK()
        reference()
        elapsed = CLOCK() - start
        if enabled:
            gc.enable()
        self.samples.append(elapsed)
        self.reference_s += elapsed

    def after(self, seconds: float) -> None:
        """Count a timed call of ``seconds`` CPU time, then sample until the
        samples have taken ``SHARE`` of the timed time."""
        self.timed_s += seconds
        while self.reference_s < self.SHARE * self.timed_s:
            self.sample()

    def factor(self) -> float:
        """Median slow-down of the host over the run, against nominal."""
        return statistics.median(self.samples) / NOMINAL_S

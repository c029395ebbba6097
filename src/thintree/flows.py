"""Max-flow, global min cuts, and min-cost circulations.

All routines work on small dense instances with exact arithmetic (int or
Fraction capacities) and deterministic tie-breaking.  Augmenting-path
max-flow is used because the number of augmentations is capacity-independent
(shortest augmenting paths), which keeps Fraction capacities exact and fast
at this scale.  One residual network serves all three: max-flow finds its
paths by BFS, min-cost flow by a Bellman-Ford queue over the same arcs.

A global min cut is a sweep of max-flows from vertex 0, each bounded by
the best cut so far: a flow stops augmenting once it reaches that value,
which it then cannot beat.  A directed sweep needs the flows into 0 too,
unless the arcs form a circulation: then every side sends out what it
takes in, and the flows out of 0 alone find the same cut.
"""

from __future__ import annotations

from collections import deque

from .embedding import EmbeddedGraph
from .errors import CirculationInfeasibleError, InvalidInputError


class FlowNetwork:
    """Residual network over n vertices; arcs stored as parallel lists."""

    def __init__(self, n: int):
        self.n = n
        self.head = []
        self.cap = []
        self.cost = []
        self.adj = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, capacity, cost=0) -> int:
        """Directed arc u->v; returns its index (reverse is index ^ 1)."""
        idx = len(self.head)
        self.head += (v, u)
        self.cap += (capacity, capacity * 0)  # zero of the capacity type
        self.cost += (cost, -cost)
        self.adj[u].append(idx)
        self.adj[v].append(idx + 1)
        return idx

    def _augment(self, s: int, t: int, prev_arc: list):
        """Push the bottleneck along the s-t path whose last arc into each
        vertex is ``prev_arc``; returns the amount pushed."""
        head, cap = self.head, self.cap
        path = []
        v = t
        while v != s:
            idx = prev_arc[v]
            path.append(idx)
            v = head[idx ^ 1]
        bottleneck = min(map(cap.__getitem__, path))
        for idx in path:
            cap[idx] -= bottleneck
            cap[idx ^ 1] += bottleneck
        return bottleneck

    def max_flow(self, s: int, t: int, enough=None):
        """Edmonds-Karp; returns the flow value.

        With ``enough``, augmenting stops once the flow reaches it, and the
        value returned is then some value >= ``enough``.  A flow that stays
        below ``enough`` runs the same augmentations as an unbounded one, so
        its value and ``min_cut_side`` are exact.  Each BFS stops when it
        labels t: t's path is fixed from then on.
        """
        head, cap, adj, n = self.head, self.cap, self.adj, self.n
        total = 0
        while enough is None or total < enough:
            prev_arc = [None] * n
            prev_arc[s] = -1
            queue = [s]
            for u in queue:  # a list grown while read is a FIFO queue
                for idx in adj[u]:
                    v = head[idx]
                    if prev_arc[v] is None and cap[idx] > 0:
                        prev_arc[v] = idx
                        queue.append(v)
                if prev_arc[t] is not None:
                    break
            else:
                return total
            total += self._augment(s, t, prev_arc)
        return total

    def min_cost_flow(self, s: int, t: int):
        """Successive shortest paths (Bellman-Ford queue, so residual arcs
        may carry negative costs); returns the value of a maximum s-t flow
        of minimum cost.  Arc costs must be >= 0."""
        total = 0
        while True:
            dist = [None] * self.n
            in_queue = [False] * self.n
            prev_arc = [-1] * self.n
            dist[s] = 0
            q = deque([s])
            in_queue[s] = True
            while q:
                u = q.popleft()
                in_queue[u] = False
                for idx in self.adj[u]:
                    if self.cap[idx] <= 0:
                        continue
                    v = self.head[idx]
                    nd = dist[u] + self.cost[idx]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        prev_arc[v] = idx
                        if not in_queue[v]:
                            q.append(v)
                            in_queue[v] = True
            if dist[t] is None:
                return total
            total += self._augment(s, t, prev_arc)

    def min_cut_side(self, s: int) -> frozenset:
        """Vertices reachable from s in the residual network (run after
        max_flow to read off a minimum cut)."""
        head, cap, adj = self.head, self.cap, self.adj
        seen = {s}
        queue = [s]
        for u in queue:
            for idx in adj[u]:
                v = head[idx]
                if v not in seen and cap[idx] > 0:
                    seen.add(v)
                    queue.append(v)
        return frozenset(seen)


def _min_cut_sweep(n: int, arcs, pairs):
    """First minimum (value, source side) of the s-t max-flows over
    ``pairs`` on one network with the directed ``arcs`` (u, v, capacity).

    The network is built once and its capacities restored before each
    pair.  Each flow is bounded by the best value so far: a flow that
    reaches it cannot replace the best, and one that stays below it is
    exact.  Stops at a zero, which no later pair can undercut; returns
    (None, None) when ``pairs`` is empty.
    """
    net = FlowNetwork(n)
    for u, v, w in arcs:
        net.add_arc(u, v, w)
    capacities = list(net.cap)
    best, best_side = None, None
    for s, t in pairs:
        net.cap[:] = capacities
        value = net.max_flow(s, t, best)
        if best is None or value < best:
            best, best_side = value, net.min_cut_side(s)
            if best == 0:
                break
    return best, best_side


def edge_connectivity(g: EmbeddedGraph) -> int:
    """Exact global min cut size of an undirected multigraph, as n-1
    max-flows against the fixed source 0 with each vertex pair's parallel
    copies (``g.pair_counts()``) as its capacity.

    Returns 0 when g is disconnected; loops never contribute.  Measured
    once per graph object and memoised on it, like faces() and components().
    """
    n = g.vertex_count
    if n < 2:
        raise InvalidInputError("edge connectivity needs at least 2 vertices")
    if g._connectivity is None:
        arcs = []
        for (u, v), w in sorted(g.pair_counts().items()):
            arcs += ((u, v, w), (v, u, w))
        g._connectivity = _min_cut_sweep(n, arcs, ((0, t) for t in range(1, n)))[0]
    return g._connectivity


def directed_global_min_cut(n: int, arcs: dict):
    """Most violated directed cut for arc weights ``arcs[(u, v)] -> w``.

    Returns (value, side) minimizing the weight leaving ``side`` over all
    proper sides; deterministic (first minimum found, scanning sinks in
    ascending order, source side before sink side).

    When the positive arcs form a circulation (every vertex balanced, as
    Held-Karp's degree rows make x), the weight leaving a side equals the
    weight entering it, so the (t, 0) flow repeats the (0, t) flow just
    before it and only the pairs (0, t) are swept: the first minimum, its
    value and its side are the ones the two-sided sweep finds.
    """
    positive = [(u, v, w) for (u, v), w in sorted(arcs.items()) if w > 0]
    balance = [0] * n
    for u, v, w in positive:
        balance[u] += w
        balance[v] -= w
    if any(balance):
        pairs = (p for t in range(1, n) for p in ((0, t), (t, 0)))
    else:
        pairs = ((0, t) for t in range(1, n))
    return _min_cut_sweep(n, positive, pairs)


def min_cost_circulation(n: int, arcs: list):
    """Minimum-cost integral circulation with lower bounds.

    ``arcs`` is a list of (u, v, lower, upper, cost) with exact costs,
    taken as given (ints on the ATSP path).  Returns a list of
    integral flow values aligned with ``arcs``.  Standard transformation:
    send the mandatory lower bounds, then balance the induced excess with a
    min-cost flow between two auxiliary terminals.

    Costs must be >= 0 (ValueError otherwise).  Raises
    CirculationInfeasibleError when no circulation satisfies the bounds.
    """
    excess = [0] * n
    net = FlowNetwork(n + 2)
    source, sink = n, n + 1
    arc_idx = []
    for u, v, lower, upper, cost in arcs:
        if lower > upper:
            raise CirculationInfeasibleError(f"lower {lower} > upper {upper}")
        if cost < 0:
            raise ValueError(f"arc ({u}, {v}) has negative cost {cost}")
        excess[v] += lower
        excess[u] -= lower
        arc_idx.append(net.add_arc(u, v, upper - lower, cost))
    need = 0
    for v in range(n):
        if excess[v] > 0:
            net.add_arc(source, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add_arc(v, sink, -excess[v])
    flow = net.min_cost_flow(source, sink)
    if flow != need:
        raise CirculationInfeasibleError(
            f"only {flow} of {need} units of mandatory flow routable")
    return [upper - net.cap[idx] for (_, _, _, upper, _), idx in zip(arcs, arc_idx)]

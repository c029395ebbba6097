"""Max-flow, global min cuts, and min-cost circulations.

All routines work on small dense instances with exact arithmetic (int or
Fraction capacities) and deterministic tie-breaking.  Augmenting-path
max-flow is used because the number of augmentations is capacity-independent
(shortest augmenting paths), which keeps Fraction capacities exact and fast
at this scale.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .embedding import EmbeddedGraph
from .errors import CirculationInfeasibleError


class FlowNetwork:
    """Residual network over n vertices; arcs stored as parallel lists."""

    def __init__(self, n: int):
        self.n = n
        self.head = []
        self.cap = []
        self.adj = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, capacity) -> int:
        """Directed arc u->v; returns its index (reverse is index ^ 1)."""
        idx = len(self.head)
        self.head.append(v)
        self.cap.append(capacity)
        self.adj[u].append(idx)
        self.head.append(u)
        self.cap.append(capacity * 0)  # zero of the capacity type
        self.adj[v].append(idx + 1)
        return idx

    def max_flow(self, s: int, t: int):
        """Edmonds-Karp; returns the flow value."""
        total = None
        while True:
            prev = [-1] * self.n
            prev_arc = [-1] * self.n
            prev[s] = s
            q = deque([s])
            while q:
                u = q.popleft()
                if u == t:
                    break
                for idx in self.adj[u]:
                    v = self.head[idx]
                    if prev[v] == -1 and self.cap[idx] > 0:
                        prev[v] = u
                        prev_arc[v] = idx
                        q.append(v)
            if prev[t] == -1:
                break
            bottleneck = None
            v = t
            while v != s:
                idx = prev_arc[v]
                if bottleneck is None or self.cap[idx] < bottleneck:
                    bottleneck = self.cap[idx]
                v = prev[v]
            v = t
            while v != s:
                idx = prev_arc[v]
                self.cap[idx] -= bottleneck
                self.cap[idx ^ 1] += bottleneck
                v = prev[v]
            total = bottleneck if total is None else total + bottleneck
        return 0 if total is None else total

    def min_cut_side(self, s: int) -> frozenset:
        """Vertices reachable from s in the residual network (run after
        max_flow to read off a minimum cut)."""
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for idx in self.adj[u]:
                v = self.head[idx]
                if v not in seen and self.cap[idx] > 0:
                    seen.add(v)
                    q.append(v)
        return frozenset(seen)


def edge_connectivity(g: EmbeddedGraph) -> int:
    """Exact global min cut size of an undirected multigraph.

    Returns 0 when g is disconnected; loops never contribute.  Measured
    once per graph object and memoised on it, like faces() and components().
    """
    if g.vertex_count < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    if g._connectivity is None:
        weight = {}
        for e in g.edges():
            u, v = g.endpoints(e)
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            weight[key] = weight.get(key, 0) + 1
        g._connectivity = pair_connectivity(g.vertex_count, weight)
    return g._connectivity


def pair_connectivity(n: int, weight: dict):
    """Global min cut of the undirected graph with ``weight[(u, v)]`` on
    each vertex pair, as n-1 max-flows against the fixed source 0.

    Stops early at 0 (disconnected); returns None when n < 2.
    """
    best = None
    items = sorted(weight.items())
    for t in range(1, n):
        net = FlowNetwork(n)
        for (u, v), w in items:
            net.add_arc(u, v, w)
            net.add_arc(v, u, w)
        value = net.max_flow(0, t)
        if best is None or value < best:
            best = value
        if best == 0:
            break
    return best


def directed_global_min_cut(n: int, arcs: dict):
    """Most violated directed cut for arc weights ``arcs[(u, v)] -> w``.

    Returns (value, side) minimizing the weight leaving ``side`` over all
    proper sides; deterministic (first minimum found, scanning sinks in
    ascending order, source side before sink side).
    """
    best = None
    best_side = None
    items = sorted(arcs.items())
    for t in range(1, n):
        for direction in (0, 1):
            net = FlowNetwork(n)
            for (u, v), w in items:
                if w > 0:
                    net.add_arc(u, v, w)
            s, sink = (0, t) if direction == 0 else (t, 0)
            value = net.max_flow(s, sink)
            if best is None or value < best:
                side = net.min_cut_side(s)
                best = value
                best_side = side
    return best, best_side


class MinCostFlow:
    """Successive shortest paths with Bellman-Ford (costs may grow sparse)."""

    def __init__(self, n: int):
        self.n = n
        self.head = []
        self.cap = []
        self.cost = []
        self.adj = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, capacity: int, cost) -> int:
        idx = len(self.head)
        self.head.append(v)
        self.cap.append(capacity)
        self.cost.append(cost)
        self.adj[u].append(idx)
        self.head.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        self.adj[v].append(idx + 1)
        return idx

    def run(self, s: int, t: int):
        """Max flow of min cost from s to t; returns (flow, cost)."""
        flow = 0
        total_cost = Fraction(0)
        while True:
            dist = [None] * self.n
            in_queue = [False] * self.n
            prev_arc = [-1] * self.n
            dist[s] = Fraction(0)
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
                break
            bottleneck = None
            v = t
            while v != s:
                idx = prev_arc[v]
                if bottleneck is None or self.cap[idx] < bottleneck:
                    bottleneck = self.cap[idx]
                v = self.head[idx ^ 1]
            v = t
            while v != s:
                idx = prev_arc[v]
                self.cap[idx] -= bottleneck
                self.cap[idx ^ 1] += bottleneck
                v = self.head[idx ^ 1]
            flow += bottleneck
            total_cost += dist[t] * bottleneck
        return flow, total_cost


def min_cost_circulation(n: int, arcs: list):
    """Minimum-cost integral circulation with lower bounds.

    ``arcs`` is a list of (u, v, lower, upper, cost).  Returns a list of
    integral flow values aligned with ``arcs``.  Standard transformation:
    send the mandatory lower bounds, then balance the induced excess with a
    min-cost flow between two auxiliary terminals.

    Raises CirculationInfeasibleError when no circulation satisfies the
    bounds.
    """
    excess = [0] * n
    solver = MinCostFlow(n + 2)
    source, sink = n, n + 1
    arc_idx = []
    for u, v, lower, upper, cost in arcs:
        if lower > upper:
            raise CirculationInfeasibleError(f"lower {lower} > upper {upper}")
        excess[v] += lower
        excess[u] -= lower
        arc_idx.append(solver.add_arc(u, v, upper - lower, Fraction(cost)))
    need = 0
    for v in range(n):
        if excess[v] > 0:
            solver.add_arc(source, v, excess[v], Fraction(0))
            need += excess[v]
        elif excess[v] < 0:
            solver.add_arc(v, sink, -excess[v], Fraction(0))
    flow, _ = solver.run(source, sink)
    if flow != need:
        raise CirculationInfeasibleError(
            f"only {flow} of {need} units of mandatory flow routable")
    out = []
    for (u, v, lower, upper, cost), idx in zip(arcs, arc_idx):
        residual = solver.cap[idx]
        sent = (upper - lower) - residual
        out.append(lower + sent)
    return out

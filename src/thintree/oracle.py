"""Independent brute-force verifiers.

Everything here recomputes adjacency from raw endpoint data and shares no
algorithmic code with the certified modules: these are the ground truth the
rest of the package is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dual import Cut
from .embedding import EmbeddedGraph
from .errors import EdgeAbsentError, NotHamiltonianError, TooLargeError

MAX_CUT_VERTICES = 24
MAX_DP_VERTICES = 12


@dataclass
class ThinnessReport:
    """Exact maximum cut ratio |F ∩ cut| / |E ∩ cut| with its witness."""

    max_ratio: Fraction
    witness_cut: Cut
    cuts_checked: int


def brute_force_thinness(g: EmbeddedGraph, f_edges) -> ThinnessReport:
    """Exact thinness of the edge set ``f_edges`` in g over all cuts.

    Enumerates every one of the 2^(V-1) - 1 cuts with vertex 0 fixed on one
    side, counting parallel copies per endpoint pair, so the cost is
    2^(V-1) times the number of distinct pairs.  Requires a connected g with
    at most MAX_CUT_VERTICES vertices; raises EdgeAbsentError when
    ``f_edges`` names an edge g does not have or holds an entry that is not
    a plain int (``True`` is not edge 1).
    """
    n = g.vertex_count
    if n > MAX_CUT_VERTICES:
        raise TooLargeError(f"{n} vertices exceeds the {MAX_CUT_VERTICES} cut budget")
    if n < 2:
        raise ValueError("need at least 2 vertices to have a cut")
    f_edges = list(f_edges)
    bad = [e for e in f_edges if type(e) is not int]
    if bad:
        raise EdgeAbsentError(f"edge ids are not plain ints: {bad}")
    f_set = set(f_edges)
    absent = f_set.difference(g.edges())
    if absent:
        raise EdgeAbsentError(f"edge ids not in the graph: {sorted(absent, key=repr)}")
    # independent adjacency recomputation from plain endpoints: parallel
    # copies grouped by endpoint pair into (copies, copies in F); loops never
    # cross a cut
    groups = {}
    for e in g.edges():
        u, v = g.endpoints(e)
        if u != v:
            key = (u, v) if u < v else (v, u)
            copies, in_f = groups.get(key, (0, 0))
            groups[key] = (copies + 1, in_f + (e in f_set))
    pairs = [(u, v, copies, in_f) for (u, v), (copies, in_f) in groups.items()]

    best = Fraction(0)
    best_mask = 1
    checked = 0
    # masks encode which of vertices 1..n-1 join vertex 0; the full set is
    # excluded so exactly 2^(n-1) - 1 proper cuts are visited
    for mask in range((1 << (n - 1)) - 1):
        side = mask << 1 | 1  # vertex 0 always on this side
        cnt_e = 0
        cnt_f = 0
        for u, v, copies, in_f in pairs:
            if (side >> u & 1) != (side >> v & 1):
                cnt_e += copies
                cnt_f += in_f
        checked += 1
        if cnt_e == 0:
            continue  # disconnected inputs: skip crossing-free splits
        ratio = Fraction(cnt_f, cnt_e)
        if ratio > best:
            best = ratio
            best_mask = side
    witness = Cut(frozenset(v for v in range(n) if best_mask >> v & 1))
    return ThinnessReport(best, witness, checked)


def brute_force_edge_connectivity(g: EmbeddedGraph) -> int:
    """Exact global min cut size by enumerating all cuts (loops ignored)."""
    n = g.vertex_count
    if n > MAX_CUT_VERTICES:
        raise TooLargeError(f"{n} vertices exceeds the {MAX_CUT_VERTICES} cut budget")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    pairs = [g.endpoints(e) for e in g.edges()]
    best = None
    for mask in range((1 << (n - 1)) - 1):
        side = mask << 1 | 1
        cnt = sum(1 for u, v in pairs if (side >> u & 1) != (side >> v & 1))
        if best is None or cnt < best:
            best = cnt
    return best


def brute_force_atsp(cost: list[list[Fraction]]) -> tuple[Fraction, list[int]]:
    """Exact ATSP optimum by subset dynamic programming.

    Returns (optimal cost, tour as a vertex order starting at 0).  Ties are
    broken toward smaller predecessor vertices, so the tour is deterministic.
    """
    n = len(cost)
    if n > MAX_DP_VERTICES:
        raise TooLargeError(f"{n} vertices exceeds the {MAX_DP_VERTICES} DP budget")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    full = (1 << n) - 1
    # dp[(mask, v)] = (cost of best 0->v path visiting exactly mask, parent)
    dp = {(1 | (1 << v), v): (cost[0][v], 0) for v in range(1, n)}
    for mask in range(1 << n):
        if not mask & 1:
            continue
        for v in range(1, n):
            if not mask >> v & 1:
                continue
            cur = dp.get((mask, v))
            if cur is None:
                continue
            base = cur[0]
            for w in range(1, n):
                if mask >> w & 1 or w == v:
                    continue
                cand = (base + cost[v][w], v)
                key = (mask | (1 << w), w)
                old = dp.get(key)
                if old is None or cand < old:
                    dp[key] = cand
    best = None
    best_end = None
    for v in range(1, n):
        entry = dp.get((full, v))
        if entry is None:
            continue
        total = entry[0] + cost[v][0]
        if best is None or (total, v) < (best, best_end):
            best = total
            best_end = v
    order = [best_end]
    mask = full
    while order[-1] != 0:
        v = order[-1]
        parent = dp[(mask, v)][1]
        mask ^= 1 << v
        order.append(parent)
    order.reverse()
    return best, order


def verify_tour(order, cost: list[list[Fraction]]) -> Fraction:
    """Validate a tour and return its exact cost.

    Raises NotHamiltonianError when ``order`` is not a permutation of all
    vertices given as plain ints (``True`` is not vertex 1).
    """
    n = len(cost)
    if any(type(v) is not int for v in order) or sorted(order) != list(range(n)):
        raise NotHamiltonianError(f"not a permutation of 0..{n - 1}: {list(order)}")
    total = Fraction(0)
    for i, u in enumerate(order):
        v = order[(i + 1) % n]
        total += cost[u][v]
    return total


def bfs_distances(n: int, adjacency_pairs, source: int) -> dict[int, int]:
    """Plain BFS over an edge list; used as the distance oracle in tests."""
    adj = [[] for _ in range(n)]
    for u, v in adjacency_pairs:
        adj[u].append(v)
        adj[v].append(u)
    dist = {source: 0}
    queue = [source]
    for u in queue:
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist

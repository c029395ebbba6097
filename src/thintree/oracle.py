"""Independent brute-force verifiers.

Everything here recomputes adjacency from raw endpoint data and shares no
algorithmic code with the certified modules: these are the ground truth the
rest of the package is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dual import Cut
from .embedding import EmbeddedGraph
from .errors import (
    DualCertificateError,
    EdgeAbsentError,
    InvalidInputError,
    NotHamiltonianError,
    TooLargeError,
)

MAX_CUT_VERTICES = 24
MAX_DP_VERTICES = 12
MAX_SUBTOUR_VERTICES = 10


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
        raise InvalidInputError(f"need at least 2 vertices to have a cut, got {n}")
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
        raise InvalidInputError(f"need at least 2 vertices to have a cut, got {n}")
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


def verify_hk_certificate(cost: list[list[Fraction]], x: dict, duals,
                          objective: Fraction) -> None:
    """Check a claimed Held-Karp optimum from raw data.

    ``x`` maps arcs (i, j) to values, ``duals`` carries integer numerators
    ``u_out``, ``u_in`` (one per vertex) and ``z`` (one per cut side in
    ``sides``) over ``denominator``.  Checks that x >= 0 with every out- and
    in-degree 1 and x(delta+(S)) >= 1 for every listed side S; that every
    z_S >= 0 and every arc's reduced cost c_ij - u_out[i] - u_in[j] -
    sum(z_S : i in S, j not in S), summed here arc by arc, is >= 0; and
    that sum(c x) = sum(u) + sum(z) = ``objective``.  By weak duality x is
    then optimal over every arc, the degree rows and the listed cuts.  For
    n <= MAX_SUBTOUR_VERTICES it also checks x(delta+(S)) >= 1 for every
    proper subset S, so x is optimal for the whole relaxation.  Raises
    DualCertificateError on the first check that fails.
    """
    n = len(cost)
    den = duals.denominator
    if type(den) is not int or den <= 0:
        raise DualCertificateError(f"denominator {den!r} is not a positive int")
    out_deg = [Fraction(0)] * n
    in_deg = [Fraction(0)] * n
    for (i, j), value in x.items():
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise DualCertificateError(f"({i}, {j}) is not an arc")
        if value < 0:
            raise DualCertificateError(f"x{(i, j)} = {value} < 0")
        out_deg[i] += value
        in_deg[j] += value
    for v in range(n):
        if out_deg[v] != 1 or in_deg[v] != 1:
            raise DualCertificateError(
                f"vertex {v} has out-degree {out_deg[v]} and in-degree {in_deg[v]}")
    sides = [frozenset(side) for side in duals.sides]
    for side in sides:
        crossing = sum((value for (i, j), value in x.items()
                        if i in side and j not in side), Fraction(0))
        if crossing < 1:
            raise DualCertificateError(f"x crosses the cut {sorted(side)} {crossing} < 1 times")

    u_out = [Fraction(u, den) for u in duals.u_out]
    u_in = [Fraction(u, den) for u in duals.u_in]
    z = [Fraction(zs, den) for zs in duals.z]
    if len(u_out) != n or len(u_in) != n or len(z) != len(sides):
        raise DualCertificateError("the duals do not match the rows")
    if any(zs < 0 for zs in z):
        raise DualCertificateError("a cut dual is negative")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            reduced = cost[i][j] - u_out[i] - u_in[j]
            for zs, side in zip(z, sides):
                if i in side and j not in side:
                    reduced -= zs
            if reduced < 0:
                raise DualCertificateError(f"arc ({i}, {j}) has reduced cost {reduced}")
    primal = sum((cost[i][j] * value for (i, j), value in x.items()), Fraction(0))
    dual = sum(u_out) + sum(u_in) + sum(z)
    if not primal == dual == objective:
        raise DualCertificateError(
            f"primal {primal}, dual {dual} and objective {objective} differ")

    if n > MAX_SUBTOUR_VERTICES:
        return
    # every subtour row by enumeration, in integers over a common denominator
    scale = math.lcm(*[value.denominator for value in x.values()])  # a list: see atsp.symmetrize
    support = [(i, j, int(value * scale)) for (i, j), value in x.items() if value]
    for mask in range(1, (1 << n) - 1):
        crossing = sum(w for i, j, w in support if mask >> i & 1 and not mask >> j & 1)
        if crossing < scale:
            side = [v for v in range(n) if mask >> v & 1]
            raise DualCertificateError(f"x crosses the cut {side} below 1")


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

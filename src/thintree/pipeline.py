"""End-to-end thin-tree construction and cost-bounded extraction.

``bounded_genus_thin_tree`` dispatches on genus: planar graphs go straight
to the selection algorithm (their dual girth is at least the edge
connectivity), positive genus first raises the dual girth by surgery, finds
a tree per component, and reconnects the pieces with a few cheap edges.

``weighted_thin_tree`` repeatedly extracts edge-disjoint thin trees from the
residual graph and keeps the cheapest, trading a factor 2 in thinness for
the same factor as a cost ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .embedding import EmbeddedGraph
from .errors import DisconnectedError, ExtractionFailureError
from .flows import edge_connectivity
from .spanning import ThinTreeResult, alpha, thin_spanning_tree
from .surgery import increase_dual_girth


def genus_bound(genus: int) -> Fraction:
    """The claimed thinness numerator f(genus): 10 when planar, else an
    exact rational upper bound on 7*sqrt(genus)*alpha(genus).

    For square genus the value is exact; otherwise sqrt(genus) is bounded
    above by genus/isqrt(genus).
    """
    if genus == 0:
        return Fraction(10)
    root = isqrt(genus)
    a = alpha(genus)
    if root * root == genus:
        return Fraction(7 * root * a)
    return Fraction(7 * genus * a, root)


def _connector_edges(g: EmbeddedGraph, forest_edges) -> list[int]:
    """Cheapest edges of g joining distinct components of the forest.

    Kruskal order: (cost, edge id) with cost 0 when g is unweighted.
    """
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in forest_edges:
        u, v = g.endpoints(e)
        parent[find(u)] = find(v)

    def cost_of(e):
        return g.edge_cost[e] if g.edge_cost is not None else Fraction(0)

    candidates = sorted(g.edges(), key=lambda e: (cost_of(e), e))
    out = []
    for e in candidates:
        u, v = g.endpoints(e)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out.append(e)
    return out


def bounded_genus_thin_tree(g: EmbeddedGraph) -> ThinTreeResult:
    """Spanning tree with thinness at most genus_bound(genus)/k.

    Planar branch: one selection run (bound 10/k).  Positive genus: surgery
    down to high dual girth, a thin tree per surviving component, then at
    most 2*sqrt(genus) connector edges, which cost at most that many /k in
    extra thinness.
    """
    if not g.is_connected():
        raise DisconnectedError("bounded_genus_thin_tree needs a connected graph")
    k = edge_connectivity(g)
    genus = g.genus()
    if genus == 0:
        result = thin_spanning_tree(g)
        return ThinTreeResult(
            tree_edges=result.tree_edges,
            far_set=result.far_set,
            thinness_bound=Fraction(10, k),
            certificate_distance=result.certificate_distance,
            g_star=result.g_star,
            alpha=result.alpha,
            cost_ratio=result.cost_ratio,
        )

    h, log = increase_dual_girth(g, k, genus)
    tree_edges = []
    far_edges = []
    g_star_min = None
    for component in h.components():
        if len(component) == 1:
            continue
        sub, _, edge_map = h.restrict_to_component(component)
        sub_result = thin_spanning_tree(sub)
        tree_edges.extend(edge_map[e] for e in sub_result.tree_edges)
        far_edges.extend(edge_map[e] for e in sub_result.far_set)
        if g_star_min is None or sub_result.g_star < g_star_min:
            g_star_min = sub_result.g_star
    connectors = _connector_edges(g, tree_edges)
    tree_edges = sorted(tree_edges + connectors)
    far_edges = sorted(set(far_edges) | set(connectors))
    assert len(tree_edges) == g.vertex_count - 1

    cost_ratio = None
    if g.edge_cost is not None:
        total = g.total_cost()
        if total > 0:
            cost_ratio = sum((g.edge_cost[e] for e in tree_edges), Fraction(0)) / total
    return ThinTreeResult(
        tree_edges=tuple(tree_edges),
        far_set=tuple(far_edges),
        thinness_bound=genus_bound(genus) / k,
        certificate_distance=1,
        g_star=g_star_min or 1,
        alpha=alpha(genus),
        cost_ratio=cost_ratio,
    )


@dataclass
class WeightedThinTree:
    """Cheapest of several edge-disjoint thin trees.

    ``thinness`` is the claimed bound 2*genus_bound(genus)/k; ``cost_ratio``
    is the measured c(T)/c(G).  ``connectivity_trace`` holds the measured edge
    connectivity of each residual round, and ``truncated`` flags an early
    stop because a residual graph disconnected.
    """

    tree_edges: tuple[int, ...]
    thinness: Fraction
    cost_ratio: Fraction
    c_tree: Fraction
    c_graph: Fraction
    rounds: int
    connectivity_trace: list = field(default_factory=list)
    truncated: bool = False


def weighted_thin_tree(g: EmbeddedGraph) -> WeightedThinTree:
    """Extract floor(k / 2g) edge-disjoint thin trees; keep the cheapest.

    The thinness numerator g is genus_bound(genus).  Each residual round
    must keep connectivity at least k - i*g; a connected violation raises
    ExtractionFailureError, while a disconnected residual truncates the
    round count (reported via ``truncated``).
    """
    if g.edge_cost is None:
        raise ValueError("weighted_thin_tree needs edge costs")
    if not g.is_connected():
        raise DisconnectedError("weighted_thin_tree needs a connected graph")
    k = edge_connectivity(g)
    g_val = genus_bound(g.genus())
    rounds = max(1, int(Fraction(k) / (2 * g_val)))

    trees = []
    trace = []
    truncated = False
    residual = g
    for i in range(rounds):
        k_i = edge_connectivity(residual) if residual.vertex_count > 1 else 0
        if k_i == 0:
            truncated = True
            break
        if Fraction(k_i) < Fraction(k) - i * g_val:
            raise ExtractionFailureError(
                f"round {i}: residual connectivity {k_i} below schedule "
                f"{Fraction(k) - i * g_val}")
        trace.append(k_i)
        result = bounded_genus_thin_tree(residual)
        trees.append(result.tree_edges)
        residual = residual.delete_edges(result.tree_edges)
    if not trees:
        raise ExtractionFailureError("no extraction round succeeded")

    c_graph = g.total_cost()
    costs = [sum((g.edge_cost[e] for e in t), Fraction(0)) for t in trees]
    best = min(range(len(trees)), key=lambda i: (costs[i], i))
    # averaging: the cheapest of t edge-disjoint trees costs <= c(G)/t
    assert costs[best] * len(trees) <= c_graph
    return WeightedThinTree(
        tree_edges=tuple(sorted(trees[best])),
        thinness=2 * g_val / k,
        cost_ratio=costs[best] / c_graph if c_graph else Fraction(0),
        c_tree=costs[best],
        c_graph=c_graph,
        rounds=len(trees),
        connectivity_trace=trace,
        truncated=truncated,
    )

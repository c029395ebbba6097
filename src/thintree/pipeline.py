"""End-to-end thin-tree construction and cost-bounded extraction.

``bounded_genus_thin_tree`` dispatches on genus: planar graphs go straight
to the selection algorithm (their dual girth equals the edge connectivity,
by bond-cycle duality, Whitney 1932), positive genus first raises the dual
girth by surgery, finds a tree per component, and reconnects the pieces
with a few cheap edges.

``weighted_thin_tree`` extracts edge-disjoint thin trees from the residual
graph, trading a factor 2 in thinness for a cost ratio of 1/t over t
planned trees.  The paper keeps the cheapest of the t trees; this build
keeps the first one with c(T)*t <= c(G), which averaging over t
edge-disjoint trees guarantees, and skips the remaining rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .embedding import EmbeddedGraph
from .errors import DisconnectedError, ExtractionFailureError, InvalidInputError
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


def _connector_edges(g: EmbeddedGraph, h: EmbeddedGraph, candidates) -> list[int]:
    """Cheapest edges among ``candidates`` joining distinct components of
    h, a subgraph of g on the same vertices.

    Kruskal order: (cost, edge id) with cost 0 when g is unweighted.
    """
    members = list(h.components())
    label = {v: i for i, component in enumerate(members) for v in component}

    def kruskal_key(e):
        return (g.edge_cost[e] if g.edge_cost is not None else 0, e)

    out = []
    for e in sorted(candidates, key=kruskal_key):
        u, v = g.endpoints(e)
        a, b = label[u], label[v]
        if a != b:
            for x in members[a]:
                label[x] = b
            members[b] = members[b] + members[a]  # h's own lists stay intact
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
        # planar dual girth is the edge connectivity, so k is a proven floor
        # for the girth search, and g* = k makes 2*alpha(0)/g* equal 10/k
        result = thin_spanning_tree(g, floor=k)
        assert result.g_star == k
        return result

    h, log = increase_dual_girth(g, k)
    tree_edges = []
    far_edges = []
    g_star_min = None
    for component in h.components():
        if len(component) == 1:
            continue
        piece = h.restrict_to_component(component)
        # a whole h is h itself, whose dual surgery has built and searched
        sub_result = thin_spanning_tree(piece, log.dual if piece is h else None)
        tree_edges.extend(sub_result.tree_edges)
        far_edges.extend(sub_result.far_set)
        if g_star_min is None or sub_result.g_star < g_star_min:
            g_star_min = sub_result.g_star
    # every edge of h lies inside one of its spanned components, so only
    # the edges surgery deleted can join two of them
    deleted = [e for it in log.iterations for e in it.cycle_edges]
    connectors = _connector_edges(g, h, deleted)
    tree_edges = sorted(tree_edges + connectors)
    far_edges = sorted(set(far_edges) | set(connectors))
    assert len(tree_edges) == g.vertex_count - 1
    return ThinTreeResult(
        tree_edges=tuple(tree_edges),
        far_set=tuple(far_edges),
        thinness_bound=genus_bound(genus) / k,
        g_star=g_star_min or 1,
        alpha=alpha(genus),
    )


@dataclass
class WeightedThinTree:
    """A thin tree that meets the averaging bound c(T)*rounds <= c(G).

    ``thinness`` is the claimed bound 2*genus_bound(genus)/k; ``cost_ratio``
    is the measured c(T)/c(G), and ``c_tree`` and ``c_graph`` are c(T) and
    c(G) in the input's units (divided by the graph's ``scale``).
    ``rounds`` is the planned number of edge-disjoint trees
    t = floor(k / 2*genus_bound(genus)), the divisor of the averaging
    bound.  ``connectivity_trace`` holds the measured edge
    connectivity of each residual round that ran.
    """

    tree_edges: tuple[int, ...]
    thinness: Fraction
    cost_ratio: Fraction
    c_tree: Fraction
    c_graph: Fraction
    rounds: int
    connectivity_trace: list = field(default_factory=list)


def weighted_thin_tree(g: EmbeddedGraph) -> WeightedThinTree:
    """First of up to t = floor(k / 2g) edge-disjoint thin trees with
    c(T)*t <= c(G).

    The thinness numerator g is genus_bound(genus).  Each residual round
    must keep connectivity at least k - i*g >= k/2, so every extracted tree
    is 2g/k-thin in g, and by averaging one of t edge-disjoint trees meets
    the cost bound.  A round below the schedule, a disconnected residual
    among them, raises ExtractionFailureError.
    """
    if g.edge_cost is None:
        raise InvalidInputError("weighted_thin_tree needs edge costs")
    if not g.is_connected():
        raise DisconnectedError("weighted_thin_tree needs a connected graph")
    k = edge_connectivity(g)
    g_val = genus_bound(g.genus())
    num, den = g_val.numerator, g_val.denominator
    # the schedule in integers: g = num/den, so t = floor(k*den / 2num), and
    # a round is below k - i*g when k_i*den is below k*den - i*num
    rounds = max(1, k * den // (2 * num))
    c_graph = g.total_cost()

    trace = []
    residual = g
    for i in range(rounds):
        k_i = edge_connectivity(residual)
        if k_i * den < k * den - i * num:
            raise ExtractionFailureError(
                f"round {i}: residual connectivity {k_i} below schedule "
                f"{Fraction(k) - i * g_val}")
        trace.append(k_i)
        tree = bounded_genus_thin_tree(residual).tree_edges
        c_tree = sum(g.edge_cost[e] for e in tree)
        if c_tree * rounds <= c_graph:
            break
        residual = residual.delete_edges(tree)
    else:
        raise ExtractionFailureError(
            f"none of {rounds} extracted trees costs at most c(G)/{rounds}: "
            "the trees were not edge-disjoint")
    return WeightedThinTree(
        tree_edges=tuple(sorted(tree)),
        thinness=2 * g_val / k,
        cost_ratio=Fraction(c_tree, c_graph) if c_graph else Fraction(0),
        c_tree=Fraction(c_tree, g.scale),
        c_graph=Fraction(c_graph, g.scale),
        rounds=rounds,
        connectivity_trace=trace,
    )

"""Rounding a Held-Karp solution to a Hamiltonian tour via a thin tree.

The fractional solution is symmetrized, scaled up to an integral multigraph
on the support (with the caller-supplied embedding), run through the
weighted thin-tree extraction, and finished with a minimum-cost integral
circulation whose Eulerian circuit is shortcut into a tour.  Every claimed
bound is re-asserted at run time with exact arithmetic against the measured
quantities, not the asymptotic ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .embedding import EmbeddedGraph, expand_parallel
from .errors import (
    CirculationInfeasibleError,
    ConnectivityShortfallError,
    CostBoundViolatedError,
    EmbeddingMismatchError,
    InvalidInputError,
)
from .flows import edge_connectivity, min_cost_circulation
from .heldkarp import ATSPInstance, HKSolution, solve_held_karp
from .pipeline import genus_bound, weighted_thin_tree


@dataclass
class Tour:
    """Hamiltonian tour, canonically rotated to start at vertex 0, and its
    exact cost in the input's units."""

    order: tuple[int, ...]
    cost: Fraction

    @staticmethod
    def from_order(order, inst: ATSPInstance) -> "Tour":
        start = order.index(0)
        rotated = tuple(order[start:]) + tuple(order[:start])
        cost = sum(inst.cost[u][rotated[(i + 1) % len(rotated)]]
                   for i, u in enumerate(rotated))
        return Tour(rotated, Fraction(cost, inst.scale))


def symmetrize(x: HKSolution, inst: ATSPInstance):
    """Undirected shadow of x: y{u,v} = x_uv + x_vu, c'{u,v} = min cost.

    Returns (y, c_prime) keyed by sorted vertex pairs; c' is in the
    instance's integer units.  The degree identity
    y(delta(v)) = 2 is asserted exactly.
    """
    xs = x.x
    y = {}
    for (i, j), val in xs.items():
        if i < j:
            back = xs.get((j, i))
            y[i, j] = val if back is None else val + back
        elif (j, i) not in xs:
            y[j, i] = val
    cost = inst.cost
    c_prime = {}
    # lcm of a list, not a generator: the argument tuple built from a
    # generator is resized to its length, and freed onto that length's
    # tuple free list, which so grows by one tuple per call
    den = math.lcm(*[val.denominator for val in y.values()])
    degree = [0] * inst.n  # y(delta(v)) * den
    for (a, b), val in y.items():
        c_prime[a, b] = min(cost[a][b], cost[b][a])
        units = val.numerator * (den // val.denominator)
        degree[a] += units
        degree[b] += units
    for v, total in enumerate(degree):
        assert total == 2 * den, f"y(delta({v})) = {Fraction(total, den)} != 2"
    return y, c_prime


def discretize(y: dict, denominator: int):
    """Integer multigraph multiplicities floor(D * y_e) per support pair.

    Returns (multiplicities, guaranteed_connectivity).  The guarantee is
    2D - |support|: each support edge loses strictly less than one copy to
    rounding and every cut carries y-value at least 2.  ``atsp_approx``
    measures the expanded multigraph against it.  Small denominators work
    only while the measured connectivity k stays above 2*f(genus), so that
    the thin tree's thinness 2*f(genus)/k is below 1; the guarantee then
    degenerates to zero and downstream bounds rest on the measured value.
    """
    if denominator < 1:
        raise InvalidInputError(f"denominator must be positive, got {denominator}")
    mult = {}
    for key in sorted(y):
        copies = (denominator * y[key].numerator) // y[key].denominator
        if copies > 0:
            mult[key] = copies
    return mult, max(0, 2 * denominator - len(y))


def expand_support_embedding(emb: EmbeddedGraph, mult: dict, c_prime: dict):
    """Embed the discretized multigraph using the support embedding.

    ``emb`` must cover every pair in ``mult``; extra edges are deleted,
    which can only lower the genus.  Returns (expanded graph, map new edge
    id -> the support edge it copies), each copy carrying the undirected
    cost of its pair.
    """
    pair_to_edge = {}
    for e in emb.edges():
        u, v = emb.endpoints(e)
        pair_to_edge.setdefault((min(u, v), max(u, v)), e)
    missing = [key for key in mult if key not in pair_to_edge]
    if missing:
        raise EmbeddingMismatchError(
            f"support pairs {missing} not covered by the embedding")

    chosen = {pair_to_edge[key]: key for key in mult}
    return expand_parallel(
        emb, {e: mult[key] for e, key in chosen.items()},
        {e: c_prime[key] for e, key in chosen.items()})


def orient_tree(tree_pairs, inst: ATSPInstance) -> list:
    """Orient each tree edge in its cheaper direction (ties toward the
    smaller tail), so the directed cost equals the undirected c'(T)."""
    arcs = []
    for u, v in tree_pairs:
        a, b = min(u, v), max(u, v)
        if inst.cost[a][b] <= inst.cost[b][a]:
            arcs.append((a, b))
        else:
            arcs.append((b, a))
    return sorted(arcs)


def round_to_tour(inst: ATSPInstance, x: HKSolution, tree_arcs,
                  alpha: Fraction, denominator: int) -> Tour:
    """Round x to a tour guided by an oriented thin spanning tree.

    ``alpha`` is the tree's thinness with respect to the discretized
    multigraph (below 1, else the denominator is too small) and
    ``denominator`` its scale, so the tree is alpha*denominator-thin with
    respect to x.  A minimum-cost integral circulation with lower bound 1 on
    the tree arcs and capacities ceil(2*alpha*D*x_a) + 1 exists whenever the
    thinness certificate is honest; its Eulerian circuit, shortcut by the
    triangle inequality, is the tour.  The final cost is asserted against
    2*alpha*D*c(x) + c(tree arcs).  The circulation and the checks run on
    the instance's integer costs; only ``Tour.cost`` is divided by its
    ``scale``.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InvalidInputError(
            f"thinness {alpha} outside (0, 1): denominator {denominator} "
            "is too small for a thin tree")
    n = inst.n
    tree_arcs = sorted(tree_arcs)
    if len(tree_arcs) != n - 1:
        raise ValueError(f"{len(tree_arcs)} tree arcs for {n} vertices")
    scale = 2 * alpha * denominator
    sn, sd = scale.numerator, scale.denominator

    arc_set = sorted(set(x.x) | set(tree_arcs))
    tree = set(tree_arcs)
    arcs = []
    for (u, v) in arc_set:
        x_a = x.x.get((u, v))
        upper = 1  # ceil(scale * x_a) + 1, as a floor of the negated product
        if x_a is not None:
            upper -= -sn * x_a.numerator // (sd * x_a.denominator)
        lower = 1 if (u, v) in tree else 0
        arcs.append((u, v, lower, max(upper, lower), inst.cost[u][v]))
    try:
        flow = min_cost_circulation(n, arcs)
    except CirculationInfeasibleError as exc:
        raise CirculationInfeasibleError(
            f"thinness certificate alpha={alpha} was wrong: {exc}") from exc

    circuit = _euler_circuit(n, arcs, flow)
    seen = set()
    order = []
    for v in circuit:
        if v not in seen:
            seen.add(v)
            order.append(v)
    assert len(order) == n, "Eulerian circuit missed vertices"
    tour = Tour.from_order(order, inst)

    tour_cost = tour.cost.numerator * (inst.scale // tour.cost.denominator)
    circuit_cost = sum(f * c for (_, _, _, _, c), f in zip(arcs, flow))
    assert tour_cost <= circuit_cost, "shortcutting increased the cost"
    # c(x) = c_x / den over the lcm den of x's denominators; the bound
    # scale * c(x) + c(T) is compared times sd * den
    den = math.lcm(*[val.denominator for val in x.x.values()])  # a list: see symmetrize
    c_x = sum(inst.cost[i][j] * val.numerator * (den // val.denominator)
              for (i, j), val in x.x.items())
    c_tree = sum(inst.cost[u][v] for u, v in tree_arcs)
    bound = sn * c_x + sd * den * c_tree
    if tour_cost * sd * den > bound:
        raise CostBoundViolatedError(
            f"tour cost {tour.cost} exceeds 2*alpha*D*c(x) + c(T) = "
            f"{Fraction(bound, sd * den * inst.scale)}")
    return tour


def _euler_circuit(n: int, arcs, flow) -> list:
    """Deterministic Hierholzer circuit over arcs with multiplicities."""
    succ = [[] for _ in range(n)]
    for (u, v, _, _, _), f in zip(arcs, flow):
        succ[u].extend([v] * f)
    for lst in succ:
        lst.sort(reverse=True)  # pop() yields the smallest head first
    start = next(v for v in range(n) if succ[v])
    stack = [start]
    circuit = []
    while stack:
        v = stack[-1]
        if succ[v]:
            stack.append(succ[v].pop())
        else:
            circuit.append(stack.pop())
    assert all(not lst for lst in succ), "circulation support is disconnected"
    circuit.reverse()
    return circuit


def atsp_approx(inst: ATSPInstance, support_embedding: EmbeddedGraph,
                denominator: int | None = None, exact=True):
    """Full pipeline: LP, symmetrize, discretize, thin tree, circulation.

    ``support_embedding`` must have the instance's n vertices and cover the
    support of the symmetrized LP solution.  The discretized multigraph H
    is measured once: its min cut k must reach the rounding guarantee, and
    the thin-tree extraction reads the same memoised k.  Returns (Tour,
    report) where the report carries every certificate value; the tour cost
    is asserted against 3*beta*(1 + 1/n)*c(x), beta = genus_bound(genus).
    The LP, the multigraph's costs and the circulation work in the
    instance's integer units; the tour cost, ``opt_hk``, ``tour_cost`` and
    ``bound`` of the report are in the input's units.
    ``exact`` must be true and is kept only for callers that still pass it.
    """
    if not exact:
        raise ValueError("the Held-Karp LP is always solved exactly")
    n = inst.n
    if support_embedding.vertex_count != n:
        raise EmbeddingMismatchError(
            f"support embedding has {support_embedding.vertex_count} vertices, "
            f"the instance {n}")
    if denominator is None:
        denominator = n ** 3
    x = solve_held_karp(inst)
    y, c_prime = symmetrize(x, inst)
    mult, k_guarantee = discretize(y, denominator)

    expanded, origin = expand_support_embedding(support_embedding, mult, c_prime)
    k = edge_connectivity(expanded)
    if k < k_guarantee:
        raise ConnectivityShortfallError(
            f"measured connectivity {k} below guarantee {k_guarantee}")
    genus = expanded.genus()
    beta = genus_bound(genus)
    weighted = weighted_thin_tree(expanded)
    c_x = x.objective
    # sigma = c'(T)/c'(H) bounds the tree by sigma*D*c(x) because c'(H) <= D*c(x)
    assert weighted.c_graph <= denominator * c_x * inst.scale
    tree_pairs = sorted({tuple(sorted(support_embedding.endpoints(origin[e])))
                         for e in weighted.tree_edges})
    assert len(tree_pairs) == n - 1, "thin tree reused a parallel pair"
    tree_arcs = orient_tree(tree_pairs, inst)

    tour = round_to_tour(inst, x, tree_arcs, weighted.thinness, denominator)
    bound = 3 * beta * (1 + Fraction(1, n)) * c_x
    if tour.cost > bound:
        raise CostBoundViolatedError(
            f"tour cost {tour.cost} exceeds 3*beta*(1+1/n)*c(x) = {bound}")
    report = {
        "n": n,
        "opt_hk": c_x,
        "tour_cost": tour.cost,
        "ratio": tour.cost / c_x if c_x else Fraction(0),
        "beta": beta,
        "genus": genus,
        "denominator": denominator,
        "support_size": len(y),
        "connectivity_measured": k,
        "connectivity_guarantee": k_guarantee,
        "connectivity_used": k,
        "alpha": weighted.thinness,
        "sigma": weighted.cost_ratio,
        "rounds": weighted.rounds,
        "connectivity_trace": weighted.connectivity_trace,
        "cuts_added": x.cuts_added,
        "bound": bound,
    }
    return tour, report

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
)
from .flows import min_cost_circulation, pair_connectivity
from .heldkarp import ATSPInstance, HKSolution, solve_held_karp
from .pipeline import genus_bound, weighted_thin_tree


@dataclass
class Tour:
    """Hamiltonian tour, canonically rotated to start at vertex 0."""

    order: tuple[int, ...]
    cost: Fraction

    @staticmethod
    def from_order(order, inst: ATSPInstance) -> "Tour":
        start = order.index(0)
        rotated = tuple(order[start:]) + tuple(order[:start])
        cost = Fraction(0)
        for i, u in enumerate(rotated):
            cost += inst.cost[u][rotated[(i + 1) % len(rotated)]]
        return Tour(rotated, cost)


def symmetrize(x: HKSolution, inst: ATSPInstance):
    """Undirected shadow of x: y{u,v} = x_uv + x_vu, c'{u,v} = min cost.

    Returns (y, c_prime) keyed by sorted vertex pairs.  The degree identity
    y(delta(v)) = 2 is asserted exactly.
    """
    y = {}
    for (i, j), val in x.x.items():
        key = (min(i, j), max(i, j))
        y[key] = y.get(key, Fraction(0)) + val
    n = inst.n
    c_prime = {key: min(inst.cost[key[0]][key[1]], inst.cost[key[1]][key[0]])
               for key in y}
    for v in range(n):
        total = sum((val for (a, b), val in y.items() if v in (a, b)), Fraction(0))
        assert total == 2, f"y(delta({v})) = {total} != 2"
    return y, c_prime


def discretize(y: dict, denominator: int, n: int):
    """Integer multigraph multiplicities floor(D * y_e) per support pair.

    Returns (multiplicities, measured_connectivity, guaranteed_connectivity).
    The guarantee is 2D - |support| (each support edge loses strictly less
    than one copy to rounding and every cut carries y-value at least 2);
    falling measurably below it raises ConnectivityShortfallError.  Small
    denominators are allowed for desk-scale runs; the guarantee then simply
    degenerates to zero and downstream bounds rest on the measured value.
    """
    if denominator < 1:
        raise ValueError("denominator must be positive")
    mult = {}
    for key in sorted(y):
        copies = (denominator * y[key].numerator) // y[key].denominator
        if copies > 0:
            mult[key] = copies
    guarantee = max(0, 2 * denominator - len(y))
    measured = pair_connectivity(n, mult)
    if measured < guarantee:
        raise ConnectivityShortfallError(
            f"measured connectivity {measured} below guarantee {guarantee}")
    return mult, measured, guarantee


def expand_support_embedding(emb: EmbeddedGraph, mult: dict, c_prime: dict):
    """Embed the discretized multigraph using the support embedding.

    ``emb`` must cover every pair in ``mult``; extra edges are deleted,
    which can only lower the genus.  Returns (expanded graph, map new edge
    id -> vertex pair), each copy carrying the undirected cost of its pair.
    """
    pair_to_edge = {}
    for e in emb.edges():
        u, v = emb.endpoints(e)
        pair_to_edge.setdefault((min(u, v), max(u, v)), e)
    missing = [key for key in mult if key not in pair_to_edge]
    if missing:
        raise EmbeddingMismatchError(
            f"support pairs {missing} not covered by the embedding")

    def pair_of(e):
        u, v = emb.endpoints(e)
        return (min(u, v), max(u, v))

    chosen = {pair_to_edge[key] for key in mult}
    per_edge = {e: (mult[pair_of(e)] if e in chosen else 0) for e in emb.edges()}
    expanded, origin = expand_parallel(
        emb, per_edge, cost_of=lambda e: c_prime[pair_of(e)])
    copy_pair = {i: pair_of(e) for i, e in origin.items()}
    return expanded, copy_pair


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
                  alpha: Fraction, denominator: int,
                  sigma: Fraction | None = None) -> Tour:
    """Round x to a tour guided by an oriented thin spanning tree.

    ``alpha`` is the tree's thinness with respect to the discretized
    multigraph (must be < 1) and ``denominator`` its scale, so the tree is
    alpha*denominator-thin with respect to x.  A minimum-cost integral
    circulation with lower bound 1 on the tree arcs and capacities
    ceil(2*alpha*D*x_a) + 1 exists whenever the thinness certificate is
    honest; its Eulerian circuit, shortcut by the triangle inequality, is
    the tour.  The final cost is asserted against
    2*alpha*D*c(x) + c(tree arcs).
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"thinness {alpha} outside (0, 1)")
    n = inst.n
    tree_arcs = sorted(tree_arcs)
    if len(tree_arcs) != n - 1:
        raise ValueError(f"{len(tree_arcs)} tree arcs for {n} vertices")
    scale = 2 * alpha * denominator

    arc_set = sorted(set(x.x) | set(tree_arcs))
    tree = set(tree_arcs)
    arcs = []
    for (u, v) in arc_set:
        x_a = x.x.get((u, v), Fraction(0))
        upper = math.ceil(scale * x_a) + 1
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

    circuit_cost = sum(f * Fraction(c) for (_, _, _, _, c), f in zip(arcs, flow))
    assert tour.cost <= circuit_cost, "shortcutting increased the cost"
    c_x = sum((inst.cost[i][j] * val for (i, j), val in x.x.items()), Fraction(0))
    c_tree = sum((inst.cost[u][v] for u, v in tree_arcs), Fraction(0))
    if sigma is not None:
        # the tree was promised to cost at most sigma * c'(H) <= sigma*D*c(x)
        assert c_tree <= Fraction(sigma) * denominator * c_x
    bound = scale * c_x + c_tree
    if tour.cost > bound:
        raise CostBoundViolatedError(
            f"tour cost {tour.cost} exceeds 2*alpha*D*c(x) + c(T) = {bound}")
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

    ``support_embedding`` must cover the support of the symmetrized LP
    solution.  Returns (Tour, report) where the report carries every
    certificate value; the tour cost is asserted against the end-to-end
    bound 3*beta*(1 + 1/n)*c(x) with beta = genus_bound(genus).  The LP is
    always solved exactly; ``exact`` must be true and is kept only for
    callers that still pass it.
    """
    if not exact:
        raise ValueError("the Held-Karp LP is always solved exactly")
    n = inst.n
    if denominator is None:
        denominator = n ** 3
    x = solve_held_karp(inst)
    y, c_prime = symmetrize(x, inst)
    mult, k_measured, k_guarantee = discretize(y, denominator, n)

    expanded, copy_pair = expand_support_embedding(support_embedding, mult, c_prime)
    genus = expanded.genus()
    beta = genus_bound(genus)
    weighted = weighted_thin_tree(expanded)
    k_h = weighted.connectivity_trace[0]
    tree_pairs = sorted({copy_pair[e] for e in weighted.tree_edges})
    assert len(tree_pairs) == n - 1, "thin tree reused a parallel pair"
    tree_arcs = orient_tree(tree_pairs, inst)

    tour = round_to_tour(inst, x, tree_arcs, weighted.thinness, denominator,
                         sigma=weighted.cost_ratio)
    c_x = x.objective
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
        "connectivity_measured": k_measured,
        "connectivity_guarantee": k_guarantee,
        "connectivity_used": k_h,
        "alpha": weighted.thinness,
        "sigma": weighted.cost_ratio,
        "rounds": weighted.rounds,
        "connectivity_trace": weighted.connectivity_trace,
        "cuts_added": x.cuts_added,
        "bound": bound,
    }
    return tour, report

"""Correctness gate, run on every result outside the timed region.

Each check returns a list of problems; an empty list means the result
passed.  The brute-force oracle is the ground truth; it is only called
where its cost, 2^(V-1) cuts times E edges, fits ``ORACLE_BUDGET``.
"""

from __future__ import annotations

from fractions import Fraction

ORACLE_BUDGET = 1 << 20


def oracle_affordable(g) -> bool:
    return (1 << (g.vertex_count - 1)) * g.edge_count <= ORACLE_BUDGET


def spanning_problems(g, tree_edges) -> list[str]:
    """A spanning tree of g has V-1 edges of g and connects every vertex."""
    problems = []
    n = g.vertex_count
    edges = list(tree_edges)
    if len(edges) != n - 1:
        problems.append(f"tree has {len(edges)} edges, expected {n - 1}")
    present = set(g.edges())
    missing = [e for e in edges if e not in present]
    if missing:
        problems.append(f"tree edges {missing[:5]} are not in the graph")
        return problems
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        u, v = g.endpoints(e)
        parent[find(u)] = find(v)
    roots = {find(v) for v in range(n)}
    if len(roots) != 1:
        problems.append(f"tree leaves {len(roots)} components")
    return problems


def tree_problems(api, g, tree_edges, claimed_thinness, cost_ratio):
    """Check a thin tree; returns (problems, oracle thinness report or None)."""
    problems = spanning_problems(g, tree_edges)
    if problems:
        return problems, None
    c_graph = g.total_cost()
    c_tree = sum((g.edge_cost[e] for e in tree_edges), Fraction(0))
    if c_graph and c_tree / c_graph != cost_ratio:
        problems.append(f"reported cost ratio {cost_ratio} != measured {c_tree / c_graph}")
    report = None
    if oracle_affordable(g):
        report = api.oracle.brute_force_thinness(g, tree_edges)
        if report.max_ratio > claimed_thinness:
            problems.append(
                f"oracle thinness {report.max_ratio} exceeds claimed {claimed_thinness}")
    return problems, report


def tour_problems(api, inst, order, tour_cost, opt_hk, beta) -> list[str]:
    """A tour visits every vertex once, costs what it claims, and meets
    3*beta*(1 + 1/n)*c(x); the LP optimum lies below the true optimum."""
    n = inst.n
    try:
        measured = api.oracle.verify_tour(order, inst.cost)
    except api.errors.NotHamiltonianError as exc:
        return [f"tour is not Hamiltonian: {exc}"]
    problems = []
    if measured != tour_cost:
        problems.append(f"tour cost {tour_cost} != measured {measured}")
    bound = 3 * beta * (1 + Fraction(1, n)) * opt_hk
    if measured > bound:
        problems.append(f"tour cost {measured} exceeds 3*beta*(1+1/n)*c(x) = {bound}")
    if n <= api.oracle.MAX_DP_VERTICES:
        optimum, _ = api.oracle.brute_force_atsp(inst.cost)
        if opt_hk > optimum:
            problems.append(f"Held-Karp value {opt_hk} above the optimum {optimum}")
        if measured < optimum:
            problems.append(f"tour cost {measured} below the optimum {optimum}")
    return problems

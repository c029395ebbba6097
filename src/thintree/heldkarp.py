"""Held-Karp LP relaxation via cutting planes and pricing, on one tableau.

The restricted LP keeps the degree equalities and the subtour constraints
found so far, over a restricted set of arc columns.  It is solved cold
once, from the basis of the tour 0 -> 1 -> ... -> n-1 -> 0, which is
feasible, so phase 1 makes no pivot; that tableau is kept to the end.
Separation is a global directed min cut on the current support (max-flow
pairs with the fractional values as capacities).  The most violated cut
is added and the LP re-solved by dual simplex on the kept tableau (Lemke
1954) until no directed cut falls below one.  Then every arc is priced
with the exact duals, and the arcs that price below zero join the same
tableau as columns, re-optimised by primal simplex (Dantzig-Fulkerson-
Johnson 1954; Applegate-Bixby-Chvatal-Cook 2006, ch. 12), and separation
resumes, until no arc prices below zero.  The simplex is exact, so the
final solution is exactly feasible and exactly optimal over the generated
constraint set at every n, and that optimality over every arc is the dual
certificate each solve re-asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DualCertificateError, InvalidInputError, IterationLimitError
from .flows import directed_global_min_cut
from .simplex import solve_lp

MAX_CUT_ROUNDS = 300
START_ARCS = 3  # cheapest out- and in-arcs per vertex in the first LP


@dataclass
class ATSPInstance:
    """Metric ATSP instance in integer costs; construction completes the
    metric.

    ``cost[i][j]`` is an int: the exact arc cost after all-pairs shortest
    paths, in units of 1/``scale``, so the triangle inequality always
    holds.  ``scale`` is the lcm of the input's denominators, 1 for an
    integral matrix.  The LP, the rounding and every bound check work in
    these units; a value leaves the package divided by ``scale``.
    """

    cost: list
    scale: int = 1

    @staticmethod
    def from_matrix(matrix) -> "ATSPInstance":
        """Scale the ints or Fractions of ``matrix`` to ints over their
        common denominator and close them under shortest paths.  Raises
        InvalidInputError unless the matrix is square, with a zero
        diagonal and no negative entry."""
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise InvalidInputError("cost matrix must be square")
        try:
            scale = math.lcm(*(c.denominator for row in matrix for c in row))
        except AttributeError:
            raise InvalidInputError("costs must be ints or Fractions") from None
        cost = [[c.numerator * (scale // c.denominator) for c in row]
                for row in matrix]
        for i in range(n):
            if cost[i][i] != 0:
                raise InvalidInputError("diagonal must be zero")
            if min(cost[i]) < 0:
                raise InvalidInputError(f"row {i} has a negative cost")
        for k in range(n):
            for i in range(n):
                cik = cost[i][k]
                row_k = cost[k]
                row_i = cost[i]
                for j in range(n):
                    via = cik + row_k[j]
                    if via < row_i[j]:
                        row_i[j] = via
        return ATSPInstance(cost=cost, scale=scale)

    @property
    def n(self) -> int:
        return len(self.cost)


@dataclass
class HKDuals:
    """Optimal duals of the final restricted LP, as integer numerators over
    one positive ``denominator``.

    ``u_out[v]`` and ``u_in[v]`` price the degree rows of vertex v, and
    ``z[r]`` the subtour row x(delta+(S)) >= 1 of ``sides[r]`` (a sorted
    tuple S), in the order the cuts were found.
    """

    u_out: list
    u_in: list
    z: list
    sides: list
    denominator: int


@dataclass
class HKSolution:
    """Optimal fractional solution of the Held-Karp relaxation.

    ``x`` maps arcs (i, j) to positive Fractions (zero arcs are omitted),
    ``objective`` is the LP optimum in the input's units, ``cuts_added``
    counts subtour constraints generated, ``columns`` is the number of arcs
    in the final LP and ``duals`` certifies the optimum over every arc in
    the instance's integer units: its value is ``objective * inst.scale``.
    """

    x: dict
    objective: Fraction
    cuts_added: int
    columns: int = 0
    duals: HKDuals | None = None


def negative_arcs(cost, duals: HKDuals) -> list:
    """Every arc (i, j) that prices below zero under ``duals``, in arc
    order: the reduced cost c_ij - u_out[i] - u_in[j] - sum(z_S : i in S,
    j not in S), computed exactly on the integer costs.  Raises
    DualCertificateError when the denominator is not positive or some
    z_S < 0.
    """
    n = len(cost)
    den = duals.denominator
    if den <= 0:
        raise DualCertificateError(f"denominator {den} is not positive")
    crossing = [[0] * n for _ in range(n)]
    for z, side in zip(duals.z, duals.sides, strict=True):
        if z < 0:
            raise DualCertificateError(f"cut {side} has dual {Fraction(z, den)} < 0")
        if z:
            inside = set(side)
            outside = [j for j in range(n) if j not in inside]
            for i in side:
                row = crossing[i]
                for j in outside:
                    row[j] += z
    negative = []
    for i in range(n):
        u_i, row, cost_i = duals.u_out[i], crossing[i], cost[i]
        for j in range(n):
            if i != j and cost_i[j] * den < u_i + duals.u_in[j] + row[j]:
                negative.append((i, j))
    return negative


def check_dual_certificate(cost, duals: HKDuals, objective: Fraction) -> None:
    """Raise DualCertificateError unless ``duals`` is a feasible dual of the
    Held-Karp LP over all arcs, restricted to the degree rows and the cuts
    of ``duals.sides``, whose value is ``objective`` (in the units of
    ``cost``).

    Checks, exactly: every z_S >= 0; no arc prices below zero
    (``negative_arcs``); and sum(u) + sum(z) equals ``objective``.  By weak
    duality the primal value is then optimal over every arc, the degree
    rows and these cuts.
    """
    negative = negative_arcs(cost, duals)
    if negative:
        raise DualCertificateError(f"arc {negative[0]} has a negative reduced cost")
    den = duals.denominator
    total = sum(duals.u_out) + sum(duals.u_in) + sum(duals.z)
    if total * objective.denominator != objective.numerator * den:
        raise DualCertificateError(
            f"dual value {Fraction(total, den)} != objective {objective}")


def start_arcs(cost) -> list:
    """The first LP's arcs, in arc order: each vertex's START_ARCS cheapest
    out-arcs and in-arcs (ties to the smaller other end) and the tour
    0 -> 1 -> ... -> n-1 -> 0, which keeps every degree and cut row
    feasible."""
    n = len(cost)
    arcs = {(v, (v + 1) % n) for v in range(n)}
    for v in range(n):
        others = [w for w in range(n) if w != v]
        out = sorted(others, key=cost[v].__getitem__)[:START_ARCS]
        into = sorted(others, key=lambda w: cost[w][v])[:START_ARCS]
        arcs.update((v, w) for w in out)
        arcs.update((w, v) for w in into)
    return sorted(arcs)


def _cut_row(arcs, side) -> list:
    inside = set(side)
    return [int(i in inside and j not in inside) for i, j in arcs]


def solve_held_karp(inst: ATSPInstance) -> HKSolution:
    """Solve the Held-Karp relaxation of ``inst`` exactly, on one tableau.

    The 0 <= x <= 1 bounds are implied by the degree equalities, so only
    those equalities plus the generated cut constraints reach the simplex.
    The LP starts on the columns of ``start_arcs``, and its one cold solve
    takes the 2n degree rows from the basis of the tour 0 -> 1 -> ... ->
    n-1 -> 0, which is feasible, so phase 1 makes no pivot.  Each cut
    found afterwards is appended to the optimal tableau as x(delta+(S)) -
    s = 1 with a new slack s, and dual simplex pivots restore the optimum.
    Once no cut is violated, every arc is priced with the exact duals
    (``negative_arcs``); the arcs that price below zero join the same
    tableau as columns and primal simplex restores the optimum, after
    which separation resumes.  The loop ends exactly when the all-arc
    ``check_dual_certificate`` passes.
    """
    n = inst.n
    if n < 3:
        raise InvalidInputError(f"Held-Karp needs at least 3 vertices, got {n}")
    cost = inst.cost
    arcs = start_arcs(cost)  # one per column, in the order they entered
    degree_rows = [[0] * len(arcs) for _ in range(2 * n)]  # out(v), then in(v)
    for col, (i, j) in enumerate(arcs):
        degree_rows[i][col] = 1
        degree_rows[n + j][col] = 1
    column = {arc: col for col, arc in enumerate(arcs)}
    tour = [column[v, (v + 1) % n] for v in range(n)]
    tableau = solve_lp([cost[i][j] for i, j in arcs], degree_rows, [1] * (2 * n),
                       start=tour)
    sides = []
    while True:
        while True:
            # separated on the tableau's integer numerators over d: scaling
            # every capacity by d > 0 keeps the same cuts, and the degree
            # rows balance the numerators at every vertex, so the sweep
            # runs the flows out of vertex 0 only
            flow = {a: v for a, v in zip(arcs, tableau.numerators()) if v > 0}
            value, side = directed_global_min_cut(n, flow)
            if value is None or value >= tableau.d:
                break
            key = tuple(sorted(side))
            if key in sides:
                raise IterationLimitError(f"separation repeated the cut {key}")
            sides.append(key)
            if len(sides) >= MAX_CUT_ROUNDS:
                raise IterationLimitError(f"{len(sides) + 1} cutting-plane rounds")
            tableau.add_row(_cut_row(arcs, side), 1)
        rows, z, den = tableau.duals()
        duals = HKDuals(u_out=rows[:n], u_in=rows[n:], z=z, sides=sides,
                        denominator=den)
        entering = negative_arcs(cost, duals)
        if not entering:
            break
        if not set(entering).isdisjoint(arcs):
            raise DualCertificateError("an arc of the LP prices below zero")
        for i, j in entering:
            degree = [0] * (2 * n)
            degree[i] = degree[n + j] = 1
            crossing = [int(i in side and j not in side) for side in sides]
            tableau.add_column(cost[i][j], degree, crossing)
        arcs += entering
        tableau.run_phase()

    objective, values = tableau.result()  # Fractions, final optimum only
    x = {a: val for a, val in sorted(zip(arcs, values)) if val > 0}
    check_dual_certificate(cost, duals, objective)
    return HKSolution(x=x, objective=objective / inst.scale,
                      cuts_added=len(sides), columns=len(arcs), duals=duals)

"""Held-Karp LP relaxation via cutting planes.

The restricted LP keeps the degree equalities and the subtour constraints
found so far; separation is a global directed min cut on the current support
(n-1 max-flow pairs with the fractional values as capacities).  The most
violated cut is added and the LP re-solved until no directed cut falls below
one.  The simplex is exact, so the final solution is exactly feasible and
exactly optimal over the generated constraint set at every n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IterationLimitError
from .flows import directed_global_min_cut
from .simplex import solve_lp

MAX_CUT_ROUNDS = 300


@dataclass
class ATSPInstance:
    """Metric ATSP instance; construction completes the metric.

    ``cost[i][j]`` is the exact arc cost after all-pairs shortest paths, so
    the triangle inequality always holds.
    """

    cost: list

    @staticmethod
    def from_matrix(matrix) -> "ATSPInstance":
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("cost matrix must be square")
        cost = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            if cost[i][i] != 0:
                raise ValueError("diagonal must be zero")
        for k in range(n):
            for i in range(n):
                cik = cost[i][k]
                row_k = cost[k]
                row_i = cost[i]
                for j in range(n):
                    via = cik + row_k[j]
                    if via < row_i[j]:
                        row_i[j] = via
        return ATSPInstance(cost=cost)

    @property
    def n(self) -> int:
        return len(self.cost)


@dataclass
class HKSolution:
    """Optimal fractional solution of the Held-Karp relaxation.

    ``x`` maps arcs (i, j) to positive Fractions (zero arcs are omitted),
    ``objective`` is the LP optimum and ``cuts_added`` counts subtour
    constraints generated.
    """

    x: dict
    objective: Fraction
    cuts_added: int

    def out_value(self, v: int) -> Fraction:
        return sum((val for (i, _), val in self.x.items() if i == v), Fraction(0))

    def cut_value(self, side) -> Fraction:
        return sum((val for (i, j), val in self.x.items()
                    if i in side and j not in side), Fraction(0))


def _arc_list(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def solve_held_karp(inst: ATSPInstance) -> HKSolution:
    """Solve the Held-Karp relaxation of ``inst`` exactly.

    The 0 <= x <= 1 bounds are implied by the degree equalities, so only
    those equalities plus the generated cut constraints reach the simplex.
    """
    n = inst.n
    if n < 3:
        raise ValueError("need at least 3 vertices")
    arcs = _arc_list(n)
    arc_index = {a: k for k, a in enumerate(arcs)}
    costs = [inst.cost[i][j] for i, j in arcs]

    cut_sides = []
    seen_sides = set()

    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_CUT_ROUNDS:
            raise IterationLimitError(f"{rounds} cutting-plane rounds")
        num_slack = len(cut_sides)
        width = len(arcs) + num_slack
        rows = []
        rhs = []
        for v in range(n):  # out-degree
            row = [0] * width
            for j in range(n):
                if j != v:
                    row[arc_index[(v, j)]] = 1
            rows.append(row)
            rhs.append(1)
        for v in range(n):  # in-degree
            row = [0] * width
            for i in range(n):
                if i != v:
                    row[arc_index[(i, v)]] = 1
            rows.append(row)
            rhs.append(1)
        for k, side in enumerate(cut_sides):  # x(delta+(S)) - slack = 1
            row = [0] * width
            for i in side:
                for j in range(n):
                    if j not in side and j != i:
                        row[arc_index[(i, j)]] = 1
            row[len(arcs) + k] = -1
            rows.append(row)
            rhs.append(1)
        padded_costs = list(costs) + [0] * num_slack
        result = solve_lp(padded_costs, rows, rhs)

        x = {}
        for k, a in enumerate(arcs):
            val = result.values[k]
            if val > 0:
                x[a] = val
        value, side = directed_global_min_cut(n, x)
        if value is not None and value < 1:
            key = tuple(sorted(side))
            if key in seen_sides:
                raise IterationLimitError(
                    f"separation repeated the cut {key}")
            seen_sides.add(key)
            cut_sides.append(frozenset(side))
            continue
        return HKSolution(x=x, objective=result.objective,
                          cuts_added=len(cut_sides))

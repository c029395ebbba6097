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


def solve_held_karp(inst: ATSPInstance) -> HKSolution:
    """Solve the Held-Karp relaxation of ``inst`` exactly.

    The 0 <= x <= 1 bounds are implied by the degree equalities, so only
    those equalities plus the generated cut constraints reach the simplex.
    Each row is built once: the 2n degree rows before the first round, a
    cut row when separation finds its side.  With k cuts every row is
    padded by k slack columns, and cut r reads x(delta+(S_r)) - s_r = 1.
    """
    n = inst.n
    if n < 3:
        raise ValueError("need at least 3 vertices")
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    costs = [inst.cost[i][j] for i, j in arcs]
    degree_rows = [[0] * len(arcs) for _ in range(2 * n)]  # out(v), then in(v)
    for col, (i, j) in enumerate(arcs):
        degree_rows[i][col] = 1
        degree_rows[n + j][col] = 1
    cut_rows = []
    seen_sides = set()

    while True:
        k = len(cut_rows)
        if k >= MAX_CUT_ROUNDS:
            raise IterationLimitError(f"{k + 1} cutting-plane rounds")
        rows = [row + [0] * k for row in degree_rows]
        rows += [row + [0] * r + [-1] + [0] * (k - 1 - r)
                 for r, row in enumerate(cut_rows)]
        result = solve_lp(costs + [0] * k, rows, [1] * len(rows))

        x = {a: val for a, val in zip(arcs, result.values) if val > 0}
        value, side = directed_global_min_cut(n, x)
        if value is None or value >= 1:
            return HKSolution(x=x, objective=result.objective, cuts_added=k)
        key = tuple(sorted(side))
        if key in seen_sides:
            raise IterationLimitError(f"separation repeated the cut {key}")
        seen_sides.add(key)
        cut_rows.append([int(i in side and j not in side) for i, j in arcs])

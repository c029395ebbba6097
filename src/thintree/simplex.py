"""Dense two-phase simplex for small LPs, in exact integer arithmetic.

Solves  min c.x  subject to  A x = b, x >= 0  with integer A and b >= 0.
The tableau holds ints T over one denominator d > 0 (the real tableau is
T/d); pivots are integer-preserving, exact by Sylvester's identity (Bareiss,
Math. Comp. 1968).  Pivoting is Dantzig's rule with smallest-index tie
breaks, switching to Bland's rule after a burn-in so degenerate instances
cannot cycle.  Everything is deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InfeasibleError


class LPResult:
    def __init__(self, objective, values):
        self.objective = objective
        self.values = values


def solve_lp(costs, rows, rhs):
    """Minimize costs.x over A x = b, x >= 0.

    Parameters:
        costs: per-variable objective coefficients (ints or Fractions).
        rows: list of integer constraint coefficient lists (dense, len == #vars).
        rhs: integer right-hand sides, all >= 0.

    Objective and values are Fractions.  Raises InfeasibleError when the
    feasible region is empty and ValueError on malformed input.
    Unboundedness raises AssertionError (our LPs are bounded by construction).
    """
    num_vars = len(costs)
    m = len(rows)
    costs = [Fraction(c) for c in costs]
    scale = math.lcm(*(c.denominator for c in costs))
    int_costs = [int(c * scale) for c in costs]

    # tableau columns: real vars, artificials, rhs; real tableau is T / d
    width = num_vars + m + 1
    tableau = []
    for i, row in enumerate(rows):
        if len(row) != num_vars:
            raise ValueError("ragged constraint row")
        t_row = [int(v) for v in row] + [0] * m + [int(rhs[i])]
        if t_row[:num_vars] != list(row) or t_row[-1] != rhs[i]:
            raise ValueError("constraint rows and rhs must be integers")
        if rhs[i] < 0:
            raise ValueError("rhs must be non-negative")
        t_row[num_vars + i] = 1
        tableau.append(t_row)
    basis = [num_vars + i for i in range(m)]
    d = 1

    def pivot(row_i, col_j):
        # every other row becomes (p*T[i] - T[i][s]*T[r]) / d, exactly
        nonlocal d
        p = tableau[row_i][col_j]
        prow = tableau[row_i]
        nonzero = [j for j, w in enumerate(prow) if w]
        for i, target in enumerate(tableau):
            if i == row_i:
                continue
            factor = target[col_j]
            if p == d:  # reduces to T[i] - T[i][s]*T[r]/d
                if factor != 0:
                    for j in nonzero:
                        target[j] -= factor * prow[j] // d
            elif factor == 0:
                tableau[i] = [p * v // d for v in target]
            else:
                tableau[i] = [(p * v - factor * w) // d
                              for v, w in zip(target, prow)]
        d = p
        if d < 0:  # only a drive-out pivot can be negative
            d = -d
            tableau[:] = [[-v for v in target] for target in tableau]
        basis[row_i] = col_j

    def run_phase(allowed_cols):
        iterations = 0
        bland_after = 20 * (m + num_vars) + 200
        while True:
            iterations += 1
            obj_row = tableau[m]
            enter = -1
            if iterations <= bland_after:
                best = 0
                for j in allowed_cols:
                    if obj_row[j] < best:
                        best = obj_row[j]
                        enter = j
            else:  # Bland: first improving column
                for j in allowed_cols:
                    if obj_row[j] < 0:
                        enter = j
                        break
            if enter < 0:
                return
            # min ratio T[i][rhs] / T[i][enter] over T[i][enter] > 0, ties
            # to the smallest basic index; compared by cross-multiplying
            leave = -1
            for i in range(m):
                a = tableau[i][enter]
                if a <= 0:
                    continue
                b = tableau[i][width - 1]
                if leave >= 0:
                    new, old = b * best_a, best_b * a
                    if new > old or (new == old and basis[i] > basis[leave]):
                        continue
                leave, best_a, best_b = i, a, b
            assert leave >= 0, "LP unbounded: invalid model"
            pivot(leave, enter)
            assert iterations < 200000, "simplex failed to terminate"

    # phase 1: minimize sum of artificials
    obj = [0] * num_vars + [1] * m + [0]
    for row in tableau:  # price out the artificial basis
        obj = [o - v for o, v in zip(obj, row)]
    tableau.append(obj)
    run_phase(range(num_vars))
    if tableau[m][width - 1] != 0:
        infeas = Fraction(-tableau[m][width - 1], d)
        raise InfeasibleError(f"phase-1 objective {infeas}")

    # drive leftover artificials out of the basis, dropping redundant rows
    drop = []
    for i in range(m):
        if basis[i] < num_vars:
            continue
        enter = next((j for j in range(num_vars) if tableau[i][j] != 0), -1)
        if enter == -1:
            drop.append(i)
        else:
            pivot(i, enter)
    if drop:
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
        m = len(basis)

    # phase 2: original objective over real variables, scaled to integers
    obj = [d * c for c in int_costs] + [0] * (width - num_vars)
    for i in range(m):
        factor = int_costs[basis[i]]
        if factor != 0:
            obj = [o - factor * v for o, v in zip(obj, tableau[i])]
    tableau[m] = obj
    run_phase(range(num_vars))

    values = [Fraction(0)] * num_vars
    for i in range(m):
        if basis[i] < num_vars:
            values[basis[i]] = Fraction(tableau[i][width - 1], d)
    objective = Fraction(-tableau[m][width - 1], d * scale)
    return LPResult(objective, values)

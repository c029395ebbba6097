"""Dense two-phase simplex for small LPs, in exact integer arithmetic.

Solves  min c.x  subject to  A x = b, x >= 0  with integer c, A and b >= 0.
The tableau holds ints T over one denominator d > 0 (the real tableau is
T/d), the objective row included; pivots are integer-preserving, exact by
Sylvester's identity (Bareiss, Math. Comp. 1968), and a negative pivot
element first negates its own row, so d stays positive.  Pivoting is
Dantzig's rule with smallest-index tie breaks, switching to Bland's rule
after a burn-in so degenerate instances cannot cycle.  Everything is
deterministic.

An optimal tableau takes further rows a.x - s = b, each with a new slack
s >= 0, and the LP is re-solved by dual simplex on the kept tableau (Lemke
1954): the new row starts with s basic, every reduced cost stays
non-negative, and pivots remove the rows with a negative right-hand side.
The objective row also carries the exact row duals (``Tableau.duals``).

An optimal tableau also takes further columns (``Tableau.add_column``), and
primal simplex re-optimises from the kept basis, which the new column
leaves primal feasible (Dantzig-Fulkerson-Johnson 1954).  The column is
B^-1 times the new variable's column, read off columns the tableau already
keeps: that of each original row's artificial, and minus that of each
added row's slack.

``solve_lp`` can start from a basis: the ``start`` columns are pivoted in
one at a time by the ratio test, so the basis stays primal feasible, and
phase 1 makes no pivot when they already zero every artificial.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InfeasibleError


class Tableau:
    """Integer simplex tableau over one denominator ``d``.

    Columns: ``num_vars`` real variables (those of ``add_column`` before the
    slacks of ``add_row``, which come last), one artificial per original
    row (kept through phase 2, so the objective row prices them), then the
    rhs.  The last row is the objective, over the same ``d``.  Row i has
    basic variable ``basis[i]``.  ``dropped`` holds, for each original row
    ``solve_lp`` dropped as redundant, its artificial part: multipliers
    under which the original rows sum to the zero row, right-hand side 0.
    """

    def __init__(self, rows, num_vars):
        self.tableau = rows
        self.basis = [num_vars + i for i in range(len(rows))]
        self.d = 1
        self.num_vars = num_vars
        self.num_rows = len(rows)  # original rows, one artificial each
        self.num_added = 0         # rows appended by add_row
        self.dropped = []

    def pivot(self, row_i, col_j):
        """Pivot on T[r][s] = p: every other row becomes
        (p*T[i] - T[i][s]*T[r]) / d, exactly, and d becomes p.  A negative
        p (dual simplex and drive-out pivots) first negates the pivot row,
        which represents the same equation, so d stays positive.  When p
        is d, each row only takes T[i][s]*T[r]/d off."""
        tableau = self.tableau
        d = self.d
        p = tableau[row_i][col_j]
        prow = tableau[row_i]
        if p < 0:
            prow[:] = [-v for v in prow]
            p = -p
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
        self.d = p
        self.basis[row_i] = col_j

    def run_phase(self):
        """Primal simplex from a primal feasible basis; only real variables
        enter, artificials never return to the basis."""
        tableau, num_vars = self.tableau, self.num_vars
        m = len(self.basis)
        iterations = 0
        bland_after = 20 * (m + num_vars) + 200
        while True:
            iterations += 1
            obj_row = tableau[m]
            enter = -1
            if iterations <= bland_after:
                best = 0
                for j in range(num_vars):
                    if obj_row[j] < best:
                        best = obj_row[j]
                        enter = j
            else:  # Bland: first improving column
                for j in range(num_vars):
                    if obj_row[j] < 0:
                        enter = j
                        break
            if enter < 0:
                return
            leave = self.ratio_row(enter)
            assert leave >= 0, "LP unbounded: invalid model"
            self.pivot(leave, enter)
            assert iterations < 200000, "simplex failed to terminate"

    def ratio_row(self, enter):
        """The row that leaves when column ``enter`` enters: the minimum
        ratio T[i][rhs] / T[i][enter] over T[i][enter] > 0, ties to the
        smallest basic index, compared by cross-multiplying; -1 when no
        entry is positive."""
        tableau, basis = self.tableau, self.basis
        leave = -1
        for i in range(len(basis)):
            a = tableau[i][enter]
            if a <= 0:
                continue
            b = tableau[i][-1]
            if leave >= 0:
                new, old = b * best_a, best_b * a
                if new > old or (new == old and basis[i] > basis[leave]):
                    continue
            leave, best_a, best_b = i, a, b
        return leave

    def run_dual(self):
        """Dual simplex from a dual feasible tableau: the row with the most
        negative rhs leaves (after the burn-in, the one with the smallest
        basic index), and the real column j with T[r][j] < 0 that minimises
        obj[j] / -T[r][j] enters, ties to the smallest j."""
        tableau, basis, num_vars = self.tableau, self.basis, self.num_vars
        m = len(basis)
        iterations = 0
        bland_after = 20 * (m + num_vars) + 200
        while True:
            iterations += 1
            leave = -1
            if iterations <= bland_after:
                best = 0
                for i in range(m):
                    if tableau[i][-1] < best:
                        best = tableau[i][-1]
                        leave = i
            else:  # Bland: infeasible row with the smallest basic index
                for i in range(m):
                    if tableau[i][-1] < 0 and (
                            leave < 0 or basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return
            row, obj_row = tableau[leave], tableau[m]
            enter = -1
            for j in range(num_vars):
                a = row[j]
                if a >= 0:
                    continue
                c = obj_row[j]
                # c / -a < best_c / -best_a, by cross-multiplying
                if enter < 0 or c * best_a > best_c * a:
                    enter, best_a, best_c = j, a, c
            if enter < 0:
                raise InfeasibleError(f"row {leave} cannot reach rhs >= 0")
            self.pivot(leave, enter)
            assert iterations < 200000, "dual simplex failed to terminate"

    def add_row(self, coeffs, rhs):
        """Append ``coeffs . x - s = rhs`` with a new slack s >= 0 and
        re-optimise by dual simplex.

        ``coeffs`` are integers for the first ``len(coeffs)`` real
        variables; the others have coefficient 0.  The slack becomes real
        variable ``num_vars`` (before the artificials, which shift right),
        basic in the new row; it costs 0, so the objective row is unchanged
        and stays dual feasible.  Raises InfeasibleError when no x >= 0
        satisfies the enlarged system.  Read the new optimum with
        ``numerators``, ``duals`` or ``result``.
        """
        tableau, basis, col = self.tableau, self.basis, self.num_vars
        coeffs = list(coeffs) + [0] * (col - len(coeffs))
        if len(coeffs) != col or any(int(a) != a for a in coeffs + [rhs]):
            raise ValueError("row must be integers over the real variables")
        for target in tableau:
            target.insert(col, 0)
        d = self.d
        # d * (a, -1, b) minus each basic column's multiple of its row,
        # negated so that s is basic with entry +d; every basic variable is
        # real, as solve_lp drives the artificials out
        new = [-d * int(a) for a in coeffs] + [d] + [0] * (
            len(tableau[0]) - col - 2) + [-d * int(rhs)]
        for i, b in enumerate(basis):
            factor = coeffs[b]
            if factor:
                new = [v + factor * w for v, w in zip(new, tableau[i])]
        tableau.insert(len(basis), new)
        basis.append(col)
        self.num_vars += 1
        self.num_added += 1
        self.run_dual()

    def add_column(self, cost, coeffs, added=()):
        """Append a real variable with integer objective coefficient
        ``cost``, coefficients ``coeffs`` in the original rows and ``added``
        in the rows of ``add_row``, in order (missing trailing entries are
        0).  Call ``run_phase`` after the last new column to re-optimise.

        The column enters after the other ``add_column`` variables, before
        the slacks.  Its entries are B^-1 times its column, a sum of kept
        columns: each original row's artificial times that row's
        coefficient, and each added row's slack times minus its
        coefficient (the slack's own column there is -1); the objective
        entry applies the same sum to the objective row, plus d * cost.
        The right-hand side does not change, so the basis stays primal
        feasible.  A row ``solve_lp`` dropped as redundant keeps its
        artificial column, and its dependency must hold for the new column
        too, or ValueError is raised.  That is exact for the arcs of a
        degree system: each has one out-row and one in-row coefficient,
        and the dependency is the sum of the out-rows minus that of the
        in-rows.
        """
        coeffs, added = list(coeffs), list(added)
        added += [0] * (self.num_added - len(added))
        if (len(coeffs) != self.num_rows or len(added) != self.num_added
                or any(int(a) != a for a in coeffs + added + [cost])):
            raise ValueError("column must be integers over the rows")
        for dependency in self.dropped:
            if sum(a * w for a, w in zip(coeffs, dependency)):
                raise ValueError("column breaks a dropped row's dependency")
        col = self.num_vars - self.num_added  # the first slack's place
        terms = [(self.num_vars + r, int(a)) for r, a in enumerate(coeffs) if a]
        terms += [(col + r, -int(a)) for r, a in enumerate(added) if a]
        tableau, basis = self.tableau, self.basis
        for row in tableau:
            row.insert(col, sum(a * row[j] for j, a in terms))
        tableau[len(basis)][col] += self.d * int(cost)
        basis[:] = [b + (b >= col) for b in basis]
        self.num_vars += 1

    def numerators(self):
        """The basic solution's real variables as integer numerators over
        ``d`` (which is positive)."""
        values = [0] * self.num_vars
        for row, b in zip(self.tableau, self.basis):
            if b < self.num_vars:
                values[b] = row[-1]
        return values

    def result(self):
        """(objective, values) of the basic solution, as Fractions."""
        d, m, zero = self.d, len(self.basis), Fraction(0)
        values = [Fraction(v, d) if v else zero for v in self.numerators()]
        return Fraction(-self.tableau[m][-1], d), values

    def duals(self):
        """Optimal row duals as integer numerators over ``d``.

        Returns (original-row duals, added-row duals, denominator).  The
        dual of original row i is minus the reduced cost of its
        artificial; that of the r-th added row is the reduced cost of its
        slack, the column -e_r.  A row dropped as redundant has dual 0.
        """
        obj_row = self.tableau[len(self.basis)]
        first_slack = self.num_vars - self.num_added
        rows = [-v for v in obj_row[self.num_vars:self.num_vars + self.num_rows]]
        added = obj_row[first_slack:self.num_vars]
        return rows, added, self.d


def solve_lp(costs, rows, rhs, start=()):
    """Minimize costs.x over A x = b, x >= 0.

    Parameters:
        costs: integer per-variable objective coefficients.
        rows: list of integer constraint coefficient lists (dense, len == #vars).
        rhs: integer right-hand sides, all >= 0.
        start: columns to pivot into the artificial basis first, in order,
            each by the ratio test (one with no positive entry is skipped).
            When they zero every artificial, phase 1 makes no pivot; with
            none, the path is that of a cold start.

    Returns the optimal ``Tableau``: ``result()`` reads the objective and
    values as Fractions, ``add_row`` takes further rows and
    ``add_column`` further columns.  Raises
    InfeasibleError when the feasible region is empty and ValueError on
    malformed input.  Unboundedness raises AssertionError (our LPs are
    bounded by construction).
    """
    num_vars = len(costs)
    m = len(rows)
    int_costs = [int(c) for c in costs]
    if int_costs != list(costs):
        raise ValueError("costs must be integers")

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
    t = Tableau(tableau, num_vars)

    # phase 1: minimize sum of artificials
    obj = [0] * num_vars + [1] * m + [0]
    for row in tableau:  # price out the artificial basis
        obj = [o - v for o, v in zip(obj, row)]
    tableau.append(obj)
    for j in start:
        if not 0 <= j < num_vars:
            raise ValueError(f"start column {j} out of range")
        leave = -1 if j in t.basis else t.ratio_row(j)
        if leave >= 0:
            t.pivot(leave, j)
    if not start or tableau[m][-1] != 0:
        t.run_phase()
    if tableau[m][-1] != 0:
        raise InfeasibleError(f"phase-1 objective {Fraction(-tableau[m][-1], t.d)}")

    # drive leftover artificials out of the basis, dropping redundant rows
    basis = t.basis
    drop = []
    for i in range(m):
        if basis[i] < num_vars:
            continue
        enter = next((j for j in range(num_vars) if tableau[i][j] != 0), -1)
        if enter == -1:
            drop.append(i)
        else:
            t.pivot(i, enter)
    t.dropped = [tableau[i][num_vars:num_vars + m] for i in drop]
    for i in reversed(drop):
        del tableau[i]
        del basis[i]
    m = len(basis)

    # phase 2: original objective over real variables
    obj = [t.d * c for c in int_costs] + [0] * (width - num_vars)
    for i in range(m):
        factor = int_costs[basis[i]]
        if factor != 0:
            obj = [o - factor * v for o, v in zip(obj, tableau[i])]
    tableau[m] = obj
    t.run_phase()
    return t

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thintree.errors import InfeasibleError
from thintree.genlab import lp_support_instance
from thintree.heldkarp import ATSPInstance, solve_held_karp
from thintree.prng import PCG32
from thintree.simplex import Tableau, solve_lp


def _solve_columns(rows, rhs, cols):
    """The unique x over ``cols`` with A_cols x = b, or None when the
    columns are dependent or the system is inconsistent (Fractions)."""
    k = len(cols)
    aug = [[Fraction(row[j]) for j in cols] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * p for a, p in zip(aug[i], aug[r])]
        r += 1
    if any(row[k] != 0 for row in aug[r:]):
        return None
    return [aug[i][k] for i in range(k)]


def _basis_oracle(costs, rows, rhs):
    """Optimum over every basic feasible solution: each set of at most m
    independent columns whose solution is non-negative."""
    best = None
    for size in range(len(rows) + 1):
        for cols in combinations(range(len(costs)), size):
            xs = _solve_columns(rows, rhs, cols)
            if xs is None or any(v < 0 for v in xs):
                continue
            value = sum((Fraction(costs[j]) * v for j, v in zip(cols, xs)),
                        Fraction(0))
            if best is None or value < best:
                best = value
    return best


@st.composite
def feasible_lps(draw):
    """Integer A, b = A x0 for some x0 >= 0 (rows negated so b >= 0),
    non-negative costs, so the LP is feasible and bounded."""
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-3, max_value=3)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    x0 = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    rhs = []
    for row in rows:
        b = sum(a * x for a, x in zip(row, x0))
        if b < 0:
            row[:] = [-a for a in row]
            b = -b
        rhs.append(b)
    costs = [draw(st.fractions(min_value=0, max_value=5, max_denominator=4))
             for _ in range(n)]
    return costs, rows, rhs


def _integer_costs(costs):
    """``costs`` times the lcm L of their denominators, and L."""
    scale = math.lcm(*(Fraction(c).denominator for c in costs))
    return [int(c * scale) for c in costs], scale


def _full_rescale_pivot(tableau, d, row_i, col_j):
    """The plain Bareiss step on a copy: every other row becomes
    (p*T[i] - T[i][s]*T[r]) / d, divided exactly, and a negative p negates
    the whole tableau.  Returns (tableau, new d)."""
    p = tableau[row_i][col_j]
    prow = tableau[row_i]
    new = []
    for i, row in enumerate(tableau):
        if i == row_i:
            new.append(list(row))
            continue
        f = row[col_j]
        scaled = [p * v - f * w for v, w in zip(row, prow)]
        assert all(v % d == 0 for v in scaled)
        new.append([v // d for v in scaled])
    if p < 0:
        new = [[-v for v in row] for row in new]
    return new, abs(p)


@contextmanager
def checked_pivots():
    """Patch ``Tableau.pivot`` so that every pivot must leave the tableau
    and d of the full-rescale step.  Yields the list of pivot kinds, one
    of "d", "-d", "negative" or "positive" per pivot, in order."""
    fast = Tableau.pivot
    kinds = []

    def checked(self, row_i, col_j):
        expected = _full_rescale_pivot(self.tableau, self.d, row_i, col_j)
        p = self.tableau[row_i][col_j]
        kinds.append("d" if p == self.d else "-d" if p == -self.d
                     else "negative" if p < 0 else "positive")
        fast(self, row_i, col_j)
        assert (self.tableau, self.d) == expected

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tableau, "pivot", checked)
        yield kinds


@given(feasible_lps())
@settings(max_examples=300, deadline=None)
def test_solve_lp_matches_basis_enumeration(lp):
    costs, rows, rhs = lp
    int_costs, scale = _integer_costs(costs)
    with checked_pivots():
        objective, x = solve_lp(int_costs, rows, rhs).result()
    assert objective / scale == _basis_oracle(costs, rows, rhs)
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b
    assert sum(c * v for c, v in zip(costs, x)) == objective / scale


# Degenerate LPs (zero right-hand sides, an all-zero row) whose phase 1 ends
# with artificials in the basis at level 0; the drive-out step then pivots
# on a negative entry in each of them.  Values recorded with the Fraction
# tableau this solver replaced; the costs of the third are scaled to
# integers in the test.
GOLDEN_LPS = [
    ([5, 2, 3], [[0, 0, -2], [0, 0, 0], [2, 3, -3]], [0, 0, 4],
     Fraction(8, 3), [0, Fraction(4, 3), 0]),
    ([5, 1, 2, 0], [[0, 2, -2, 0], [0, -1, 1, -2], [1, 2, 1, 0]], [0, 0, 2],
     Fraction(2), [0, Fraction(2, 3), Fraction(2, 3), 0]),
    ([4, Fraction(1, 2), Fraction(4, 3), 4],
     [[2, 0, 3, 1], [0, -1, -1, 2], [0, 0, 1, -2]], [4, 0, 0],
     Fraction(80, 21), [0, 0, Fraction(8, 7), Fraction(4, 7)]),
    ([4, 0, 4, 4], [[2, 0, 3, 1], [0, -1, -1, 2], [0, 0, 1, -2]], [4, 0, 0],
     Fraction(48, 7), [0, 0, Fraction(8, 7), Fraction(4, 7)]),
]


@pytest.mark.parametrize("costs,rows,rhs,objective,values", GOLDEN_LPS)
def test_degenerate_lps_golden(costs, rows, rhs, objective, values):
    int_costs, scale = _integer_costs(costs)
    with checked_pivots() as kinds:
        got, x = solve_lp(int_costs, rows, rhs).result()
    assert got / scale == objective
    assert x == values
    assert "-d" in kinds or "negative" in kinds, kinds


def test_solve_lp_rejects_non_integer_constraints():
    with pytest.raises(ValueError):
        solve_lp([Fraction(1, 2), 1], [[1, 1]], [1])
    with pytest.raises(ValueError):
        solve_lp([1, 1], [[Fraction(1, 2), 1]], [1])
    with pytest.raises(ValueError):
        solve_lp([1, 1], [[1, 1]], [Fraction(3, 2)])
    with pytest.raises(ValueError):
        solve_lp([1, 1], [[1, 1]], [-1])


@st.composite
def lps_with_rows(draw):
    """A feasible LP and 1-3 integer rows a.x - s = b to append to it."""
    costs, rows, rhs = draw(feasible_lps())
    entry = st.integers(min_value=-3, max_value=3)
    added = [([draw(entry) for _ in costs], draw(entry))
             for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return costs, rows, rhs, added


def _whole_system(costs, rows, rhs, added):
    """The appended LP as one cold system: slack s_r in column n + r, and
    rows negated where needed so that every rhs is non-negative."""
    k = len(added)
    all_rows = [row + [0] * k for row in rows]
    all_rhs = list(rhs)
    for r, (a, b) in enumerate(added):
        row = a + [0] * r + [-1] + [0] * (k - 1 - r)
        if b < 0:
            row, b = [-v for v in row], -b
        all_rows.append(row)
        all_rhs.append(b)
    return list(costs) + [0] * k, all_rows, all_rhs


@given(lps_with_rows())
@settings(max_examples=150, deadline=None)
def test_add_row_matches_a_cold_solve_and_the_oracle(lp):
    costs, rows, rhs, added = lp
    costs, _ = _integer_costs(costs)
    all_costs, all_rows, all_rhs = _whole_system(costs, rows, rhs, added)
    best = _basis_oracle(all_costs, all_rows, all_rhs)
    tableau = solve_lp(costs, rows, rhs)
    if best is None:  # some appended row makes the LP infeasible
        with pytest.raises(InfeasibleError):
            for a, b in added:
                tableau.add_row(a, b)
        with pytest.raises(InfeasibleError):
            solve_lp(all_costs, all_rows, all_rhs)
        return
    for a, b in added:
        tableau.add_row(a, b)
    objective, x = tableau.result()
    assert objective == best
    assert objective == solve_lp(all_costs, all_rows, all_rhs).result()[0]
    assert all(v >= 0 for v in x)
    for row, b in zip(all_rows, all_rhs):
        assert sum(a * v for a, v in zip(row, x)) == b
    # the duals price every column non-negatively and match the optimum
    row_duals, added_duals, den = tableau.duals()
    y = [Fraction(v, den) for v in row_duals]
    y += [Fraction(v, den) for v in added_duals]
    assert all(v >= 0 for v in added_duals)
    for j, c in enumerate(costs):
        assert c - sum(yi * row[j] for yi, row in zip(y, rows + [a for a, _ in added])) >= 0
    assert sum(yi * b for yi, b in zip(y, list(rhs) + [b for _, b in added])) == best


def test_add_row_restores_the_optimum_by_dual_simplex():
    # min x1 + 2 x2 + 3 x3 over x1 + x2 + x3 = 2 puts x1 = 2; the row
    # x2 + x3 - s = 1 makes the cheapest feasible point x1 = x2 = 1
    tableau = solve_lp([1, 2, 3], [[1, 1, 1]], [2])
    assert tableau.result()[1] == [2, 0, 0]
    tableau.add_row([0, 1, 1], 1)
    objective, values = tableau.result()
    assert objective == 3
    assert values == [1, 1, 0, 0]
    row_duals, added_duals, den = tableau.duals()
    assert (Fraction(row_duals[0], den), Fraction(added_duals[0], den)) == (1, 1)


def test_add_row_infeasible():
    # x1 + x2 = 1 leaves no room for x1 + x2 - s = 2 with s >= 0
    tableau = solve_lp([1, 1], [[1, 1]], [1])
    with pytest.raises(InfeasibleError):
        tableau.add_row([1, 1], 2)


def test_add_row_rejects_non_integer_rows():
    tableau = solve_lp([1, 1], [[1, 1]], [1])
    with pytest.raises(ValueError):
        tableau.add_row([Fraction(1, 2), 1], 1)
    with pytest.raises(ValueError):
        tableau.add_row([1, 1, 1], 1)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_minus_d_pivots_match_the_full_rescale(n):
    """Every pivot of the Held-Karp LPs, the tour start, the cold solve,
    the dual simplex rounds, the drive-out and the primal rounds after
    pricing, leaves the tableau and d of the full-rescale step.  Some of them pivot on -d and some on another negative element;
    for both, the pivot row alone is negated."""
    with checked_pivots() as kinds:
        for seed in (1, 2):
            matrix, _ = lp_support_instance(n, PCG32(seed))
            solve_held_karp(ATSPInstance.from_matrix(matrix))
    assert "-d" in kinds, f"no -d pivot among {len(kinds)}"
    assert "negative" in kinds, f"no other negative pivot among {len(kinds)}"


@st.composite
def lps_with_start(draw):
    """An LP whose rhs is A x0 for some x0 >= 0 (rows negated so b >= 0) or
    drawn at random, so it may be infeasible, and a start: 0-6 columns in
    any order, repeats allowed."""
    costs, rows, rhs = draw(feasible_lps())
    if draw(st.booleans()):
        rhs = [draw(st.integers(min_value=0, max_value=6)) for _ in rows]
    column = st.integers(min_value=0, max_value=len(costs) - 1)
    return costs, rows, rhs, draw(st.lists(column, max_size=6))


@given(lps_with_start())
@settings(max_examples=300, deadline=None)
def test_solve_lp_from_a_start_matches_basis_enumeration(lp):
    costs, rows, rhs, start = lp
    int_costs, scale = _integer_costs(costs)
    best = _basis_oracle(costs, rows, rhs)
    if best is None:
        with pytest.raises(InfeasibleError):
            solve_lp(int_costs, rows, rhs, start=start)
        return
    with checked_pivots():
        objective, x = solve_lp(int_costs, rows, rhs, start=start).result()
    assert objective / scale == best
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b


def test_a_feasible_start_skips_phase_1(monkeypatch):
    # x3 = 2 alone meets x1 + x2 + x3 = 2, so phase 1 makes no pivot and
    # phase 2 moves to x1 = 2
    phases = []
    run_phase = Tableau.run_phase
    monkeypatch.setattr(Tableau, "run_phase",
                        lambda self: phases.append(self.basis[:]) or run_phase(self))
    tableau = solve_lp([1, 2, 3], [[1, 1, 1]], [2], start=[2])
    assert phases == [[2]]
    assert tableau.result() == (2, [2, 0, 0])
    phases.clear()
    solve_lp([1, 2, 3], [[1, 1, 1]], [2])
    assert len(phases) == 2
    with pytest.raises(ValueError):
        solve_lp([1, 2, 3], [[1, 1, 1]], [2], start=[3])


@st.composite
def lps_with_rows_and_columns(draw):
    """A feasible LP, then 1-4 steps, each an integer row a.x - s = b over
    the real variables so far (slacks excluded), or a column with a cost
    >= 0 (so the LP stays bounded) and coefficients in every row so far."""
    costs, rows, rhs = draw(feasible_lps())
    entry = st.integers(min_value=-3, max_value=3)
    width, added, steps = len(costs), 0, []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            steps.append(("row", [draw(entry) for _ in range(width)], draw(entry)))
            added += 1
        else:
            steps.append(("column", draw(st.integers(min_value=0, max_value=5)),
                          [draw(entry) for _ in rows],
                          [draw(entry) for _ in range(added)]))
            width += 1
    return costs, rows, rhs, steps


def _grown_system(costs, rows, rhs, steps):
    """The LP after ``steps`` as one cold system a.x = b, rows as given (a
    rhs may be negative): the original variables, then the new columns,
    then slack s_r with coefficient -1 in the r-th appended row."""
    m = len(rows)
    variables = [(c, [row[j] for row in rows]) for j, c in enumerate(costs)]
    cut_rhs = []
    for step in steps:
        if step[0] == "row":
            for (_, column), a in zip(variables, step[1]):
                column.append(a)
            cut_rhs.append(step[2])
        else:
            variables.append((step[1], step[2] + step[3]))
    k = len(cut_rhs)
    variables += [(0, [0] * m + [-int(r == q) for q in range(k)]) for r in range(k)]
    all_rows = [[column[i] for _, column in variables] for i in range(m + k)]
    return [c for c, _ in variables], all_rows, list(rhs) + cut_rhs


@given(lps_with_rows_and_columns())
@settings(max_examples=200, deadline=None)
def test_add_column_matches_a_cold_solve_and_the_oracle(lp):
    costs, rows, rhs, steps = lp
    costs, _ = _integer_costs(costs)
    tableau = solve_lp(costs, rows, rhs)
    for done, step in enumerate(steps, 1):
        if step[0] == "row":
            try:
                tableau.add_row(step[1], step[2])
            except InfeasibleError:
                grown = _grown_system(costs, rows, rhs, steps[:done])
                assert _basis_oracle(*grown) is None
                return
            continue
        if any(sum(a * w for a, w in zip(step[2], dependency))
               for dependency in tableau.dropped):
            with pytest.raises(ValueError, match="dependency"):
                tableau.add_column(*step[1:])
            return
        tableau.add_column(*step[1:])
        tableau.run_phase()
    all_costs, all_rows, all_rhs = _grown_system(costs, rows, rhs, steps)
    best = _basis_oracle(all_costs, all_rows, all_rhs)
    objective, x = tableau.result()
    cold_rows = [row if b >= 0 else [-a for a in row] for row, b in zip(all_rows, all_rhs)]
    cold = solve_lp(all_costs, cold_rows, [abs(b) for b in all_rhs])
    assert objective == best == cold.result()[0]
    # x is an optimal point of the cold system, as the cold solve's is
    assert all(v >= 0 for v in x)
    for row, b in zip(all_rows, all_rhs):
        assert sum(a * v for a, v in zip(row, x)) == b
    assert sum(c * v for c, v in zip(all_costs, x)) == objective
    # the duals price every column non-negatively and match the optimum
    row_duals, added_duals, den = tableau.duals()
    y = [Fraction(v, den) for v in row_duals + added_duals]
    for j, c in enumerate(all_costs):
        assert c >= sum(yi * row[j] for yi, row in zip(y, all_rows))
    assert sum(yi * b for yi, b in zip(y, all_rhs)) == best


def test_add_column_enters_the_kept_optimum():
    # min x1 + 2 x2 over x1 + x2 = 2 and the row x2 - s = 1 puts x1 = x2 = 1;
    # a column x3 of cost 1 in both rows replaces x2 and the slack row
    tableau = solve_lp([1, 2], [[1, 1]], [2])
    tableau.add_row([0, 1], 1)
    assert tableau.result() == (3, [1, 1, 0])
    tableau.add_column(1, [1], [1])
    assert tableau.num_vars == 4
    tableau.run_phase()
    assert tableau.result() == (2, [1, 0, 1, 0])
    with pytest.raises(ValueError):
        tableau.add_column(1, [1, 1], [1])
    with pytest.raises(ValueError):
        tableau.add_column(Fraction(1, 2), [1], [1])

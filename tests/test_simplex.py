from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thintree.simplex import solve_lp


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


@given(feasible_lps())
@settings(max_examples=300, deadline=None)
def test_solve_lp_matches_basis_enumeration(lp):
    costs, rows, rhs = lp
    result = solve_lp(costs, rows, rhs)
    assert result.objective == _basis_oracle(costs, rows, rhs)
    x = result.values
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b
    assert sum(c * v for c, v in zip(costs, x)) == result.objective


# Degenerate LPs (zero right-hand sides, an all-zero row) whose phase 1 ends
# with artificials in the basis at level 0; the drive-out step then pivots
# on a negative entry in each of them.  Values recorded with the Fraction
# tableau this solver replaced.
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
    result = solve_lp(costs, rows, rhs)
    assert result.objective == objective
    assert result.values == values


def test_solve_lp_rejects_non_integer_constraints():
    with pytest.raises(ValueError):
        solve_lp([1, 1], [[Fraction(1, 2), 1]], [1])
    with pytest.raises(ValueError):
        solve_lp([1, 1], [[1, 1]], [Fraction(3, 2)])
    with pytest.raises(ValueError):
        solve_lp([1, 1], [[1, 1]], [-1])

from fractions import Fraction

import pytest

from thintree.errors import InfeasibleError
from thintree.flows import directed_global_min_cut
from thintree.heldkarp import ATSPInstance, solve_held_karp
from thintree.genlab import random_metric
from thintree.oracle import brute_force_atsp
from thintree.prng import PCG32
from thintree.simplex import solve_lp


def test_metric_completion():
    inst = ATSPInstance.from_matrix([[0, 1, 10], [5, 0, 1], [1, 9, 0]])
    # 0->2 direct costs 10, via 1 costs 2
    assert inst.cost[0][2] == 2
    assert inst.cost[1][0] == 2  # 1 -> 2 -> 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert inst.cost[i][j] <= inst.cost[i][k] + inst.cost[k][j]


def test_n3_cheapest_triangle():
    m = [[0, 2, 7], [3, 0, 4], [5, 6, 0]]
    inst = ATSPInstance.from_matrix(m)
    sol = solve_held_karp(inst)
    assert sol.objective == 11  # 0->1->2->0 beats 0->2->1->0
    assert all(v == 1 for v in sol.x.values())
    assert len(sol.x) == 3


def test_c4_unit_metric():
    c4 = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    sol = solve_held_karp(ATSPInstance.from_matrix(c4))
    assert sol.objective == 4
    assert all(v == 1 for v in sol.x.values())
    assert sol.out_value(0) == 1


def test_cluster_pair_needs_subtour_cut():
    mat = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            if i != j:
                mat[i][j] = 1 if (i < 3) == (j < 3) else 50
    sol = solve_held_karp(ATSPInstance.from_matrix(mat))
    assert sol.cuts_added >= 1
    assert sol.cut_value({0, 1, 2}) >= 1


def test_degree_constraints_exact():
    mat = random_metric(7, PCG32(42))
    sol = solve_held_karp(ATSPInstance.from_matrix(mat))
    for v in range(7):
        out_v = sum((val for (i, _), val in sol.x.items() if i == v),
                    Fraction(0))
        in_v = sum((val for (_, j), val in sol.x.items() if j == v),
                   Fraction(0))
        assert out_v == 1 and in_v == 1


def test_lp_below_dp_and_final_sweep_clean():
    for seed in (1, 2, 3, 4, 5):
        mat = random_metric(6, PCG32(seed))
        inst = ATSPInstance.from_matrix(mat)
        sol = solve_held_karp(inst)
        opt, _ = brute_force_atsp(inst.cost)
        assert sol.objective <= opt
        value, _ = directed_global_min_cut(inst.n, sol.x)
        assert value >= 1


def test_exact_flag_and_determinism():
    mat = random_metric(6, PCG32(9))
    inst = ATSPInstance.from_matrix(mat)
    a = solve_held_karp(inst)
    b = solve_held_karp(inst)
    assert a.x == b.x and a.objective == b.objective


def test_exact_above_former_float_limit():
    # n = 11 was solved in float before; every n is now exact
    for seed in range(4):
        inst = ATSPInstance.from_matrix(random_metric(11, PCG32(seed)))
        sol = solve_held_karp(inst)
        for v in range(11):
            assert sol.out_value(v) == 1
            assert sum(val for (_, j), val in sol.x.items() if j == v) == 1
        value, _ = directed_global_min_cut(11, sol.x)
        assert value >= 1
        opt, _ = brute_force_atsp(inst.cost)
        assert sol.objective <= opt


def test_small_n_rejected():
    with pytest.raises(ValueError):
        solve_held_karp(ATSPInstance.from_matrix([[0, 1], [1, 0]]))


def test_simplex_infeasible():
    # x1 + x2 = 1 and x1 + x2 = 3 cannot both hold
    with pytest.raises(InfeasibleError):
        solve_lp([1, 1], [[1, 1], [1, 1]], [1, 3])


def test_simplex_redundant_rows():
    result = solve_lp([1, 2], [[1, 1], [2, 2]], [1, 2])
    assert result.objective == 1
    assert result.values == [1, 0]

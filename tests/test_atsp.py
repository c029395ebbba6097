from fractions import Fraction

import pytest

from thintree.atsp import (
    Tour,
    atsp_approx,
    discretize,
    expand_support_embedding,
    orient_tree,
    round_to_tour,
    symmetrize,
)
from thintree.errors import (
    CirculationInfeasibleError,
    EmbeddingMismatchError,
)
from thintree.flows import min_cost_circulation
from thintree.genlab import cycle_graph, lp_support_instance
from thintree.heldkarp import ATSPInstance, HKSolution, solve_held_karp
from thintree.oracle import brute_force_atsp, verify_tour
from thintree.prng import PCG32


def integral_tour_solution(inst, order):
    n = inst.n
    x = {}
    for i, u in enumerate(order):
        x[(u, order[(i + 1) % n])] = Fraction(1)
    obj = sum((inst.cost[a][b] * v for (a, b), v in x.items()), Fraction(0))
    return HKSolution(x=x, objective=obj, cuts_added=0)


def test_symmetrize_integral_tour():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    x = integral_tour_solution(inst, [0, 1, 2, 3])
    y, cp = symmetrize(x, inst)
    assert all(v == 1 for v in y.values())
    assert set(y) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_symmetrize_merges_antiparallel():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    x = HKSolution(
        x={(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2),
           (1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2),
           (0, 2): Fraction(1, 2), (2, 0): Fraction(1, 2)},
        objective=Fraction(4), cuts_added=0)
    y, cp = symmetrize(x, inst)
    assert y == {(0, 1): Fraction(1), (1, 2): Fraction(1), (0, 2): Fraction(1)}


def test_symmetrized_cost_picks_min_direction():
    inst = ATSPInstance.from_matrix([[0, 1, 9], [9, 0, 1], [1, 9, 0]])
    x = integral_tour_solution(inst, [0, 1, 2])
    _, cp = symmetrize(x, inst)
    assert cp[(0, 1)] == 1 and cp[(1, 2)] == 1 and cp[(0, 2)] == 1


def test_discretize_unit_tour():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    x = integral_tour_solution(inst, [0, 1, 2, 3])
    y, _ = symmetrize(x, inst)
    mult, measured, guarantee = discretize(y, 8, 4)
    assert all(m == 8 for m in mult.values())
    assert measured == 16
    assert guarantee == 2 * 8 - 4


def test_discretize_split_paths():
    y = {(0, 1): Fraction(1), (1, 2): Fraction(1, 2), (1, 3): Fraction(1, 2),
         (2, 3): Fraction(1), (0, 2): Fraction(1, 2), (0, 3): Fraction(1, 2)}
    mult, measured, _ = discretize(y, 10, 4)
    assert mult[(0, 1)] == 10 and mult[(1, 2)] == 5
    degrees = {v: sum(m for (a, b), m in mult.items() if v in (a, b))
               for v in range(4)}
    assert all(d == 20 for d in degrees.values())
    assert measured == 20


def test_discretize_paper_scale_guarantee():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    x = integral_tour_solution(inst, [0, 1, 2, 3])
    y, _ = symmetrize(x, inst)
    d = 4 ** 3
    mult, measured, guarantee = discretize(y, d, 4)
    assert measured >= d * 2 - 16  # n^3 (2 - 1/n) = 112 at n = 4
    assert measured >= 112


def test_orient_tree_costs():
    inst = ATSPInstance.from_matrix([[0, 1, 5], [9, 0, 2], [5, 3, 0]])
    arcs = orient_tree([(0, 1), (1, 2)], inst)
    assert arcs == [(0, 1), (1, 2)]
    total = sum(inst.cost[u][v] for u, v in arcs)
    assert total == 1 + 2  # each edge in its cheaper direction


def test_round_to_tour_integral_identity():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    x = integral_tour_solution(inst, [0, 1, 2, 3])
    tree_arcs = [(0, 1), (1, 2), (2, 3)]
    tour = round_to_tour(inst, x, tree_arcs, Fraction(1, 4), 16)
    assert tour.order == (0, 1, 2, 3)
    assert tour.cost == 4


def test_round_to_tour_bound_on_fractional():
    mat = [[0, 3, 7, 2], [4, 0, 2, 6], [6, 3, 0, 2], [2, 5, 3, 0]]
    inst = ATSPInstance.from_matrix(mat)
    x = solve_held_karp(inst)
    opt, _ = brute_force_atsp(inst.cost)
    tree_arcs = orient_tree([(0, 1), (1, 2), (2, 3)], inst)
    alpha = Fraction(1, 4)
    d = 60
    tour = round_to_tour(inst, x, tree_arcs, alpha, d)
    c_tree = sum(inst.cost[u][v] for u, v in tree_arcs)
    assert tour.cost <= 2 * alpha * d * x.objective + c_tree
    assert tour.cost >= opt


def test_round_to_tour_rejects_alpha_out_of_range():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    x = integral_tour_solution(inst, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        round_to_tour(inst, x, [(0, 1), (1, 2), (2, 3)], Fraction(1), 16)


def test_circulation_infeasible_when_capacity_missing():
    # tree arc into a vertex with no way back under zero capacities
    with pytest.raises(CirculationInfeasibleError):
        min_cost_circulation(2, [(0, 1, 1, 1, Fraction(1))])


def test_discretize_shortfall_on_bogus_y():
    from thintree.errors import ConnectivityShortfallError
    # not a Held-Karp shadow: disconnected support violates y(delta) >= 2
    y = {(0, 1): Fraction(2), (2, 3): Fraction(2)}
    with pytest.raises(ConnectivityShortfallError):
        discretize(y, 30, 4)


def test_cutting_plane_iteration_limit(monkeypatch):
    from thintree import heldkarp
    from thintree.errors import IterationLimitError
    mat = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            if i != j:
                mat[i][j] = 1 if (i < 3) == (j < 3) else 50
    monkeypatch.setattr(heldkarp, "MAX_CUT_ROUNDS", 1)
    with pytest.raises(IterationLimitError):
        solve_held_karp(ATSPInstance.from_matrix(mat))


def test_expand_support_embedding_mismatch():
    emb = cycle_graph(4)
    with pytest.raises(EmbeddingMismatchError):
        expand_support_embedding(emb, {(0, 2): 3}, {(0, 2): Fraction(1)})


def test_atsp_approx_planar_instances():
    for n, seed in [(6, 1), (8, 2)]:
        matrix, emb = lp_support_instance(n, PCG32(seed))
        inst = ATSPInstance.from_matrix(matrix)
        tour, report = atsp_approx(inst, emb, denominator=60)
        opt, _ = brute_force_atsp(inst.cost)
        assert verify_tour(tour.order, inst.cost) == tour.cost
        assert tour.cost >= opt
        assert report["beta"] == 10
        bound = 3 * 10 * (1 + Fraction(1, n)) * report["opt_hk"]
        assert tour.cost <= bound
        assert report["alpha"] < 1


def test_atsp_approx_unit_c4():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    emb = cycle_graph(4)
    tour, report = atsp_approx(inst, emb, denominator=30)
    assert tour.cost == 4  # equals the DP optimum
    opt, _ = brute_force_atsp(inst.cost)
    assert opt == 4


def test_atsp_approx_rejects_inexact_request():
    matrix, emb = lp_support_instance(6, PCG32(1))
    inst = ATSPInstance.from_matrix(matrix)
    for exact in (False, None):
        with pytest.raises(ValueError):
            atsp_approx(inst, emb, denominator=60, exact=exact)


def test_atsp_approx_rejects_uncovered_support():
    matrix, emb = lp_support_instance(6, PCG32(1))
    inst = ATSPInstance.from_matrix(matrix)
    small = emb.delete_edges([0])  # remove one prism edge from the cover
    with pytest.raises(EmbeddingMismatchError):
        atsp_approx(inst, small, denominator=60)


def test_tour_canonical_rotation():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    t = Tour.from_order([2, 3, 0, 1], inst)
    assert t.order[0] == 0
    assert t.cost == 4

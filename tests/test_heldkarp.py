from fractions import Fraction

import pytest

from thintree import heldkarp
from thintree.errors import DualCertificateError, InfeasibleError, InvalidInputError
from thintree.flows import directed_global_min_cut
from thintree.heldkarp import (
    ATSPInstance,
    HKDuals,
    check_dual_certificate,
    solve_held_karp,
    start_arcs,
)
from thintree.genlab import lp_support_instance, random_metric
from thintree.oracle import brute_force_atsp, verify_hk_certificate
from thintree.prng import PCG32
from thintree.simplex import Tableau, solve_lp

pytestmark = pytest.mark.usefixtures("oracle_checked_held_karp")


def test_metric_completion():
    inst = ATSPInstance.from_matrix([[0, 1, 10], [5, 0, 1], [1, 9, 0]])
    # 0->2 direct costs 10, via 1 costs 2
    assert inst.cost[0][2] == 2
    assert inst.cost[1][0] == 2  # 1 -> 2 -> 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert inst.cost[i][j] <= inst.cost[i][k] + inst.cost[k][j]


def _fraction_closure(matrix):
    """Floyd-Warshall over Fractions, the closure before integer costs."""
    cost = [[Fraction(c) for c in row] for row in matrix]
    n = len(cost)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                cost[i][j] = min(cost[i][j], cost[i][k] + cost[k][j])
    return cost


@pytest.mark.parametrize("seed", range(4))
def test_integer_closure_matches_a_fraction_closure(seed):
    # random 1..100 costs over denominators 1, 2, 3, 4, 6 and 12 by position
    dens = (1, 2, 3, 4, 6, 12)
    matrix = [[c / dens[(5 * i + j) % 6] for j, c in enumerate(row)]
              for i, row in enumerate(random_metric(9, PCG32(seed)))]
    inst = ATSPInstance.from_matrix(matrix)
    assert inst.scale == 12
    assert all(type(c) is int for row in inst.cost for c in row)
    assert ([[Fraction(c, inst.scale) for c in row] for row in inst.cost]
            == _fraction_closure(matrix))


@pytest.mark.parametrize("entry", [0.5, "2"])
def test_costs_that_are_not_exact_numbers_are_rejected(entry):
    with pytest.raises(InvalidInputError):
        ATSPInstance.from_matrix([[0, 1, entry], [1, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize("entry", [-30, -3])
def test_negative_costs_are_rejected(entry):
    # lp-support n = 6 with one negative arc: -30 closes to a negative
    # diagonal, and -3 used to reach the circulation before failing
    matrix, _ = lp_support_instance(6, PCG32(1))
    matrix[0][1] = entry
    with pytest.raises(InvalidInputError, match="negative"):
        ATSPInstance.from_matrix(matrix)


def test_malformed_matrices_raise_a_typed_error():
    with pytest.raises(InvalidInputError, match="square"):
        ATSPInstance.from_matrix([[0, 1], [1, 0, 1]])
    with pytest.raises(InvalidInputError, match="diagonal"):
        ATSPInstance.from_matrix([[0, 1], [1, 2]])


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
    assert sum(val for (i, _), val in sol.x.items() if i == 0) == 1


def test_cluster_pair_needs_subtour_cut():
    mat = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            if i != j:
                mat[i][j] = 1 if (i < 3) == (j < 3) else 50
    sol = solve_held_karp(ATSPInstance.from_matrix(mat))
    assert sol.cuts_added >= 1
    side = {0, 1, 2}
    assert sum(val for (i, j), val in sol.x.items()
               if i in side and j not in side) >= 1


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
            assert sum(val for (i, _), val in sol.x.items() if i == v) == 1
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
    objective, values = solve_lp([1, 2], [[1, 1], [2, 2]], [1, 2]).result()
    assert objective == 1
    assert values == [1, 0]


# lp-support (even n >= 6) and random-metric instances for n = 3-14
CERTIFIED = ([("lp-support", n, seed) for n in range(6, 15, 2) for seed in (1, 2)]
             + [("random-metric", n, seed) for n in range(3, 15) for seed in (0, 1)])


def _instance(family, n, seed):
    if family == "lp-support":
        matrix, _ = lp_support_instance(n, PCG32(seed))
    else:
        matrix = random_metric(n, PCG32(seed))
    return ATSPInstance.from_matrix(matrix)


def _cold_objective(inst, sides):
    """A cold solve_lp over the degree rows and the cut rows of ``sides``."""
    n = inst.n
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    k = len(sides)
    rows = []
    for v in range(n):
        rows.append([int(i == v) for i, _ in arcs] + [0] * k)
    for v in range(n):
        rows.append([int(j == v) for _, j in arcs] + [0] * k)
    for r, side in enumerate(sides):
        rows.append([int(i in side and j not in side) for i, j in arcs]
                    + [-int(r == q) for q in range(k)])
    costs = [inst.cost[i][j] for i, j in arcs] + [0] * k
    return solve_lp(costs, rows, [1] * len(rows)).result()[0]


@pytest.mark.parametrize("family,n,seed", CERTIFIED)
def test_dual_certificate_and_cold_objective(family, n, seed):
    inst = _instance(family, n, seed)
    sol = solve_held_karp(inst)
    duals = sol.duals
    assert len(duals.z) == len(duals.sides) == sol.cuts_added
    assert len(duals.u_out) == len(duals.u_in) == n
    check_dual_certificate(inst.cost, duals, sol.objective)
    # a wrong warm pivot that still ends would leave a different value
    assert sol.objective == _cold_objective(inst, duals.sides)


def _perturbed(duals, **fields):
    values = {"u_out": list(duals.u_out), "u_in": list(duals.u_in),
              "z": list(duals.z), "sides": duals.sides,
              "denominator": duals.denominator}
    values.update(fields)
    return HKDuals(**values)


def test_perturbed_duals_are_rejected():
    inst = _instance("lp-support", 14, 1)
    sol = solve_held_karp(inst)
    duals = sol.duals
    assert duals.z, "the instance needs subtour cuts"
    check_dual_certificate(inst.cost, duals, sol.objective)
    for r in range(len(duals.z)):  # one z_S up by 1 / (d * scale)
        z = list(duals.z)
        z[r] += 1
        with pytest.raises(DualCertificateError):
            check_dual_certificate(inst.cost, _perturbed(duals, z=z), sol.objective)
    for v in range(inst.n):  # one u down by 1 / (d * scale)
        for name in ("u_out", "u_in"):
            u = list(getattr(duals, name))
            u[v] -= 1
            with pytest.raises(DualCertificateError):
                check_dual_certificate(inst.cost, _perturbed(duals, **{name: u}),
                                       sol.objective)
    # the same dual value, but an arc of the optimum x priced below zero
    i, j = min(sol.x)
    v = next(v for v in range(inst.n) if v not in (i, j))
    u_out, u_in = list(duals.u_out), list(duals.u_in)
    u_out[i] += 1
    u_in[v] -= 1
    with pytest.raises(DualCertificateError, match="reduced cost"):
        check_dual_certificate(inst.cost, _perturbed(duals, u_out=u_out, u_in=u_in),
                               sol.objective)
    # a negative cut dual is rejected even when the sum still matches
    z, u_out = list(duals.z), list(duals.u_out)
    shift = duals.z[0] + duals.denominator
    z[0] -= shift
    u_out[0] += shift
    with pytest.raises(DualCertificateError, match="< 0"):
        check_dual_certificate(inst.cost, _perturbed(duals, z=z, u_out=u_out),
                               sol.objective)
    with pytest.raises(DualCertificateError):
        check_dual_certificate(inst.cost, duals, sol.objective + Fraction(1, 7))


# duals.sides of lp-support seeds 0-8, recorded when separation still ran on
# Fraction capacities; min cuts do not move under a positive scale.  The
# sides follow the pivot path: (8, 8) was re-recorded when the LP started on
# a restricted arc set, which ends at the same value through a fourth cut,
# and (8, 2), (8, 3), (8, 8) and (10, 2) when one tableau started at the
# tour basis and took the priced arcs as columns, which lands on other
# optimal vertices of the same value.
LP_SUPPORT_SIDES = {
    (8, 0): [(0, 1), (0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 2, 3, 4, 5)],
    (8, 1): [(0, 1, 2, 3, 6, 7), (0, 1, 3, 4, 5, 7)],
    (8, 2): [(0, 1, 2, 3, 4, 5)],
    (8, 3): [(0, 1, 3, 4, 5, 7)],
    (8, 4): [(0, 3, 4, 7)],
    (8, 5): [],
    (8, 6): [(0, 1), (0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 2, 3, 4, 5), (0, 1, 4, 5, 6, 7)],
    (8, 7): [],
    (8, 8): [(0, 1), (0, 1, 2, 3), (0, 1, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6)],
    (10, 0): [(0, 4), (0, 1, 4, 5, 6, 9)],
    (10, 1): [(0, 5), (0, 1, 2, 5, 6, 7)],
    (10, 2): [(0, 5), (0, 1, 2, 3, 5, 6, 7, 8)],
    (10, 3): [(0, 1, 5, 6), (0, 1, 3, 4, 5, 6, 8, 9), (0, 1, 2, 5, 6, 7, 8, 9)],
    (10, 4): [(0, 4), (0, 4, 5, 9), (0, 2, 3, 4, 5, 7, 8, 9)],
    (10, 5): [(0, 4, 5, 9), (0, 1, 4, 5, 6, 7, 8, 9), (0, 5)],
    (10, 6): [(0, 1)],
    (10, 7): [(0, 5)],
    (10, 8): [(0, 4, 5, 9), (0, 3, 4, 5, 8, 9), (0, 1, 2, 5, 6, 7), (0, 1, 2, 4, 5, 6, 7, 9)],
}


@pytest.mark.parametrize("n, seed", sorted(LP_SUPPORT_SIDES))
def test_integer_separation_keeps_the_cuts(n, seed):
    matrix, _ = lp_support_instance(n, PCG32(seed))
    sol = solve_held_karp(ATSPInstance.from_matrix(matrix))
    assert sol.duals.sides == LP_SUPPORT_SIDES[n, seed]
    assert sol.cuts_added == len(LP_SUPPORT_SIDES[n, seed])


# the LP value of each LP_SUPPORT_SIDES instance, recorded while every solve
# still carried all n(n - 1) arc columns; unlike the sides it does not
# depend on the pivot path
LP_SUPPORT_OBJECTIVES = {
    (8, 0): 105, (8, 1): 111, (8, 2): 110, (8, 3): 102, (8, 4): 103,
    (8, 5): 103, (8, 6): Fraction(207, 2), (8, 7): 100, (8, 8): 112,
    (10, 0): 135, (10, 1): 132, (10, 2): 139, (10, 3): 132, (10, 4): 131,
    (10, 5): 137, (10, 6): 119, (10, 7): Fraction(269, 2), (10, 8): Fraction(271, 2),
}


@pytest.mark.parametrize("n, seed", sorted(LP_SUPPORT_OBJECTIVES))
def test_lp_value_is_path_independent(n, seed):
    matrix, _ = lp_support_instance(n, PCG32(seed))
    sol = solve_held_karp(ATSPInstance.from_matrix(matrix))
    assert sol.objective == LP_SUPPORT_OBJECTIVES[n, seed]


def test_start_arcs():
    cost = ATSPInstance.from_matrix(random_metric(9, PCG32(3))).cost
    arcs = start_arcs(cost)
    assert arcs == sorted(set(arcs))
    n = len(cost)
    for v in range(n):
        assert (v, (v + 1) % n) in arcs
        for w in sorted((w for w in range(n) if w != v),
                        key=lambda w: (cost[v][w], w))[:heldkarp.START_ARCS]:
            assert (v, w) in arcs
        for w in sorted((w for w in range(n) if w != v),
                        key=lambda w: (cost[w][v], w))[:heldkarp.START_ARCS]:
            assert (w, v) in arcs
    # n = 3 and 4 have at most 3 out-arcs per vertex: every arc is in
    for n in (3, 4):
        cost = ATSPInstance.from_matrix(random_metric(n, PCG32(1))).cost
        assert len(start_arcs(cost)) == n * (n - 1)


def test_pricing_restricts_the_columns():
    matrix, _ = lp_support_instance(30, PCG32(1))
    sol = solve_held_karp(ATSPInstance.from_matrix(matrix))
    assert len(sol.x) <= sol.columns < 30 * 29 / 4


def test_pricing_adds_every_negative_arc_in_one_round(monkeypatch):
    # lp-support n = 8, seed 2: the first optimum leaves six arcs that price
    # below zero, and one pricing round brings in all of them, so the next
    # round finds none (adding one arc per round takes three rounds); the
    # last pricing is check_dual_certificate's
    found = []
    pricing = heldkarp.negative_arcs
    monkeypatch.setattr(heldkarp, "negative_arcs",
                        lambda cost, duals: found.append(pricing(cost, duals)) or found[-1])
    inst = _instance("lp-support", 8, 2)
    sol = solve_held_karp(inst)
    assert [len(arcs) for arcs in found] == [6, 0, 0]
    assert sol.columns == len(start_arcs(inst.cost)) + 6
    assert sol.objective == 110


@pytest.mark.parametrize("family,n,seed", CERTIFIED[::3])
def test_one_cold_solve_and_one_row_per_cut(monkeypatch, family, n, seed):
    # the priced arcs join the kept tableau as columns, so nothing is
    # solved twice and no cut row is appended twice
    solves, rows = [], []
    monkeypatch.setattr(heldkarp, "solve_lp",
                        lambda *args, **kw: solves.append(args) or solve_lp(*args, **kw))
    add_row = Tableau.add_row
    monkeypatch.setattr(Tableau, "add_row",
                        lambda self, *args: rows.append(args) or add_row(self, *args))
    sol = solve_held_karp(_instance(family, n, seed))
    assert len(solves) == 1
    assert len(rows) == sol.cuts_added


@pytest.mark.parametrize("n", [10, 30])
def test_the_tour_start_skips_phase_1(monkeypatch, n):
    # the tour 0 -> 1 -> ... -> n-1 -> 0 meets every degree row, so the
    # cold solve pivots it in and runs phase 2 only
    phases, cold = [], []
    run_phase = Tableau.run_phase
    monkeypatch.setattr(Tableau, "run_phase",
                        lambda self: phases.append(self) or run_phase(self))

    def counted(*args, **kwargs):
        before = len(phases)
        tableau = solve_lp(*args, **kwargs)
        cold.append(len(phases) - before)
        return tableau

    monkeypatch.setattr(heldkarp, "solve_lp", counted)
    solve_held_karp(_instance("lp-support", n, 1))
    assert cold == [1]


def test_oracle_rejects_a_solve_whose_pricing_skips_a_needed_arc(monkeypatch):
    # random-metric n = 6, seed 7: the optimum uses the arc (3, 1), which
    # is not a start arc, so only pricing brings it in
    inst = ATSPInstance.from_matrix(random_metric(6, PCG32(7)))
    arc = (3, 1)
    assert arc not in start_arcs(inst.cost)
    sol = heldkarp.solve_held_karp(inst)
    assert sol.x[arc] == 1 and sol.columns > len(start_arcs(inst.cost))
    verify_hk_certificate(inst.cost, sol.x, sol.duals, sol.objective)

    pricing = heldkarp.negative_arcs
    monkeypatch.setattr(heldkarp, "negative_arcs",
                        lambda cost, duals: [a for a in pricing(cost, duals) if a != arc])
    # the solver's own certificate prices with the same function, so it
    # passes; the independent oracle does not
    mutant = heldkarp.solve_held_karp(inst)
    assert mutant.objective > sol.objective and arc not in mutant.x
    with pytest.raises(DualCertificateError, match=r"arc \(3, 1\) has reduced cost"):
        verify_hk_certificate(inst.cost, mutant.x, mutant.duals, mutant.objective)


def test_oracle_rejects_broken_primal_or_dual():
    inst = _instance("random-metric", 8, 1)
    sol = heldkarp.solve_held_karp(inst)
    cost, duals = inst.cost, sol.duals
    verify_hk_certificate(cost, sol.x, duals, sol.objective)
    with pytest.raises(DualCertificateError, match="objective"):
        verify_hk_certificate(cost, sol.x, duals, sol.objective + 1)
    (i, j), value = min(sol.x.items())
    moved = dict(sol.x)
    moved[i, j] = value / 2
    with pytest.raises(DualCertificateError, match="degree"):
        verify_hk_certificate(cost, moved, duals, sol.objective)
    with pytest.raises(DualCertificateError, match="reduced cost"):
        verify_hk_certificate(cost, sol.x, _perturbed(duals, u_out=[
            u + (v == i) * duals.denominator for v, u in enumerate(duals.u_out)]),
            sol.objective)
    # two 3-cycles meet every degree row but cross {0, 1, 2} zero times
    two_cycles = {(0, 1): 1, (1, 2): 1, (2, 0): 1, (3, 4): 1, (4, 5): 1, (5, 3): 1}
    mat = [[0 if i == j else 1 if (i < 3) == (j < 3) else 50 for j in range(6)]
           for i in range(6)]
    zero = HKDuals(u_out=[0] * 6, u_in=[1] * 6, z=[], sides=[], denominator=1)
    with pytest.raises(DualCertificateError, match="crosses the cut"):
        verify_hk_certificate(ATSPInstance.from_matrix(mat).cost, two_cycles, zero, 6)

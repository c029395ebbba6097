import math
from fractions import Fraction

import pytest

from thintree import atsp
from thintree.atsp import (
    Tour,
    atsp_approx,
    discretize,
    expand_support_embedding,
    orient_tree,
    round_to_tour,
    symmetrize,
)
from thintree.embedding import EmbeddedGraph
from thintree.errors import (
    CirculationInfeasibleError,
    ConnectivityShortfallError,
    CostBoundViolatedError,
    EmbeddingMismatchError,
)
from thintree.flows import edge_connectivity, min_cost_circulation
from thintree.genlab import cycle_graph, lp_support_instance, wheel_graph
from thintree.heldkarp import ATSPInstance, HKSolution, solve_held_karp
from thintree.oracle import brute_force_atsp, verify_tour
from thintree.prng import PCG32

pytestmark = pytest.mark.usefixtures("oracle_checked_held_karp")


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


def expanded_connectivity(emb, mult):
    """Min cut of the multigraph that atsp_approx expands from ``mult``."""
    unit = {key: Fraction(1) for key in mult}
    return edge_connectivity(expand_support_embedding(emb, mult, unit)[0])


def test_discretize_unit_tour():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    x = integral_tour_solution(inst, [0, 1, 2, 3])
    y, _ = symmetrize(x, inst)
    mult, guarantee = discretize(y, 8)
    assert all(m == 8 for m in mult.values())
    assert expanded_connectivity(cycle_graph(4), mult) == 16
    assert guarantee == 2 * 8 - 4


def test_discretize_split_paths():
    y = {(0, 1): Fraction(1), (1, 2): Fraction(1, 2), (1, 3): Fraction(1, 2),
         (2, 3): Fraction(1), (0, 2): Fraction(1, 2), (0, 3): Fraction(1, 2)}
    mult, _ = discretize(y, 10)
    assert mult[(0, 1)] == 10 and mult[(1, 2)] == 5
    degrees = {v: sum(m for (a, b), m in mult.items() if v in (a, b))
               for v in range(4)}
    assert all(d == 20 for d in degrees.values())
    assert expanded_connectivity(wheel_graph(3), mult) == 20  # the wheel is K4


def test_discretize_paper_scale_guarantee():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    x = integral_tour_solution(inst, [0, 1, 2, 3])
    y, _ = symmetrize(x, inst)
    d = 4 ** 3
    mult, guarantee = discretize(y, d)
    measured = expanded_connectivity(cycle_graph(4), mult)
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


def scale_12_instance():
    """Five vertices, every cost in [1, 2) over denominators whose lcm is
    12, so the triangle inequality is strict."""
    inst = ATSPInstance.from_matrix(
        [[Fraction(12 + (7 * i + 5 * j) % 11, 12) if i != j else 0
          for j in range(5)] for i in range(5)])
    assert inst.scale == 12
    return inst


# weights of the four arc-disjoint Hamiltonian cycles i -> i + k (mod 5),
# k = 1..4: x_a is the weight of a's cycle
CYCLE_WEIGHTS = [
    (Fraction(1, 2), Fraction(1, 2), 0, 0),
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0),
    (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7), Fraction(1, 7)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 42)),
]


def cycle_solution(inst, weights):
    x = {(i, (i + k) % 5): w for k, w in enumerate(weights, 1) for i in range(5) if w}
    obj = sum(inst.cost[i][j] * v for (i, j), v in x.items()) / inst.scale
    return HKSolution(x=x, objective=obj, cuts_added=0)


TREE_ARCS = [(0, 1), (1, 2), (2, 3), (3, 4)]  # the tour returns by 4 -> 0


@pytest.mark.parametrize("weights", CYCLE_WEIGHTS)
@pytest.mark.parametrize("alpha, d", [(Fraction(3, 5), 12), (Fraction(7, 9), 63),
                                      (Fraction(1, 11), 125)])
def test_round_to_tour_capacities_are_their_fraction_ceilings(monkeypatch, weights,
                                                              alpha, d):
    inst = scale_12_instance()
    x = cycle_solution(inst, weights)
    seen = []

    def recorded(n, arcs):
        seen.extend(arcs)
        return min_cost_circulation(n, arcs)

    monkeypatch.setattr(atsp, "min_cost_circulation", recorded)
    tour = round_to_tour(inst, x, TREE_ARCS, alpha, d)
    assert tour.order == (0, 1, 2, 3, 4)
    assert [(u, v) for u, v, *_ in seen] == sorted(set(x.x) | set(TREE_ARCS))
    for u, v, lower, upper, cost in seen:
        assert upper == math.ceil(2 * alpha * d * x.x.get((u, v), Fraction(0))) + 1
        assert lower == ((u, v) in TREE_ARCS) and cost == inst.cost[u][v]


@pytest.mark.parametrize("weights", CYCLE_WEIGHTS)
def test_round_to_tour_bound_holds_with_equality(weights):
    """The circulation is the tree path plus the direct arc 4 -> 0, so
    2*alpha*D*c(x) = c(4, 0) makes the tour cost the bound exactly: it
    passes, and one unit of 1/12 less in 2*alpha*D*c(x) raises."""
    inst = scale_12_instance()
    x = cycle_solution(inst, weights)
    c_x = x.objective * inst.scale
    d = 60
    back = inst.cost[4][0]
    tour = round_to_tour(inst, x, TREE_ARCS, back / (2 * d * c_x), d)
    assert tour.order == (0, 1, 2, 3, 4)
    c_tree = sum(inst.cost[u][v] for u, v in TREE_ARCS)
    assert tour.cost * inst.scale == c_tree + back
    bound = Fraction(c_tree + back - 1, inst.scale)
    with pytest.raises(CostBoundViolatedError,
                       match=rf"exceeds 2\*alpha\*D\*c\(x\) \+ c\(T\) = {bound}$"):
        round_to_tour(inst, x, TREE_ARCS, (back - 1) / (2 * d * c_x), d)


def test_symmetrize_asserts_each_degree_exactly():
    inst = scale_12_instance()
    for weights in CYCLE_WEIGHTS:
        x = cycle_solution(inst, weights)
        y, _ = symmetrize(x, inst)
        assert y == {(i, j): x.x.get((i, j), 0) + x.x.get((j, i), 0)
                     for i in range(5) for j in range(i + 1, 5)
                     if (i, j) in x.x or (j, i) in x.x}
    x.x[(0, 1)] -= Fraction(1, 7)
    with pytest.raises(AssertionError, match=r"y\(delta\(0\)\) = 13/7 != 2"):
        symmetrize(x, inst)


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


def test_atsp_approx_shortfall_on_bogus_y(monkeypatch):
    # not a Held-Karp solution: two disjoint 2-cycles give the shadow
    # y = 2 on (0, 1) and (2, 3), whose disconnected support violates
    # y(delta) >= 2
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    x = {(0, 1): Fraction(1), (1, 0): Fraction(1),
         (2, 3): Fraction(1), (3, 2): Fraction(1)}
    monkeypatch.setattr(atsp, "solve_held_karp",
                        lambda _: HKSolution(x=x, objective=Fraction(4), cuts_added=0))
    with pytest.raises(ConnectivityShortfallError):
        atsp_approx(inst, cycle_graph(4), denominator=30)


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


def test_expand_support_embedding_copies_and_costs():
    matrix, emb = lp_support_instance(8, PCG32(2))
    inst = ATSPInstance.from_matrix(matrix)
    y, c_prime = symmetrize(solve_held_karp(inst), inst)
    mult, _ = discretize(y, 60)
    expanded, origin = expand_support_embedding(emb, mult, c_prime)
    assert sorted(origin) == expanded.edges()
    copies = {}
    for i, e in origin.items():
        pair = tuple(sorted(emb.endpoints(e)))
        copies[pair] = copies.get(pair, 0) + 1
        assert expanded.edge_cost[i] == c_prime[pair]
        assert set(expanded.endpoints(i)) == set(pair)
    assert copies == mult


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
        # H is measured once, and the extraction's first round reads it
        assert (report["connectivity_measured"] == report["connectivity_used"]
                == report["connectivity_trace"][0])


@pytest.mark.parametrize("divisor", [7, 12])
def test_fractional_costs_round_like_the_integral_instance(divisor):
    """Every cost divided by 7, or by 12, which leaves denominators 1, 2, 3,
    4, 6 and 12: the same tour, at 1/divisor of the integral costs."""
    matrix, emb = lp_support_instance(8, PCG32(1))
    tour, report = atsp_approx(ATSPInstance.from_matrix(matrix), emb, denominator=60)
    matrix, emb = lp_support_instance(8, PCG32(1))
    scaled = [[Fraction(c, divisor) for c in row] for row in matrix]
    inst = ATSPInstance.from_matrix(scaled)
    assert inst.scale == divisor
    assert len({c.denominator for row in scaled for c in row}) > 1
    s_tour, s_report = atsp_approx(inst, emb, denominator=60)
    assert s_tour.order == tour.order
    assert type(s_tour.cost) is Fraction and s_tour.cost == tour.cost / divisor
    assert s_report["opt_hk"] == report["opt_hk"] / divisor
    assert s_report["bound"] == report["bound"] / divisor
    assert s_report["ratio"] == report["ratio"]
    assert verify_tour(s_tour.order, inst.cost) == s_tour.cost * divisor


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


def test_atsp_approx_rejects_extra_vertex():
    matrix, emb = lp_support_instance(6, PCG32(1))
    inst = ATSPInstance.from_matrix(matrix)
    padded = EmbeddedGraph(7, emb.dart_owner, emb.rotation_next, emb.edge_cost)
    with pytest.raises(EmbeddingMismatchError):
        atsp_approx(inst, padded, denominator=60)


def test_tour_canonical_rotation():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    t = Tour.from_order([2, 3, 0, 1], inst)
    assert t.order[0] == 0
    assert t.cost == 4

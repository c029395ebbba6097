from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thintree.dual import Cut
from thintree.embedding import expand_parallel
from thintree.errors import EdgeAbsentError, NotHamiltonianError, TooLargeError
from thintree.genlab import amplify, cycle_graph
from thintree.heldkarp import ATSPInstance
from thintree.oracle import (
    brute_force_atsp,
    brute_force_thinness,
    verify_tour,
)

from .test_embedding import rotation_systems


def test_full_edge_set_ratio_one(cube):
    report = brute_force_thinness(cube, cube.edges())
    assert report.max_ratio == 1
    assert report.cuts_checked == 2 ** 7 - 1


def test_empty_set_ratio_zero(cube):
    assert brute_force_thinness(cube, []).max_ratio == 0


def test_hamiltonian_path_in_doubled_cycle():
    # doubled C_n: every cut crosses 4t edges, a Hamiltonian path at most 2t
    g = amplify(cycle_graph(6), 2)
    path = []
    for e in g.edges():
        u, v = g.endpoints(e)
        if abs(u - v) == 1 and e % 2 == 0:
            path.append(e)
    assert len(path) == 5
    report = brute_force_thinness(g, path)
    assert report.max_ratio == Fraction(1, 2)


def test_witness_achieves_ratio(cube):
    doubled = amplify(cube, 2)
    tree = [e for e in range(0, 14, 2)][:7]
    report = brute_force_thinness(doubled, tree)
    side = report.witness_cut.side
    crossing = [e for e in doubled.edges()
                if (doubled.endpoints(e)[0] in side)
                != (doubled.endpoints(e)[1] in side)]
    in_f = [e for e in crossing if e in set(tree)]
    assert Fraction(len(in_f), len(crossing)) == report.max_ratio


def per_copy_thinness(g, f_edges):
    """Thinness by visiting every parallel copy for every cut, with the
    oracle's cut order and witness rule."""
    n = g.vertex_count
    f_set = set(f_edges)
    best, best_mask, checked = Fraction(0), 1, 0
    for mask in range((1 << (n - 1)) - 1):
        side = mask << 1 | 1
        crossing = [e for e in g.edges()
                    if (side >> g.endpoints(e)[0] & 1) != (side >> g.endpoints(e)[1] & 1)]
        checked += 1
        if crossing:
            ratio = Fraction(sum(e in f_set for e in crossing), len(crossing))
            if ratio > best:
                best, best_mask = ratio, side
    return best, Cut(frozenset(v for v in range(n) if best_mask >> v & 1)), checked


@given(rotation_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_grouped_thinness_matches_per_copy_enumeration(base, data):
    assume(base.vertex_count >= 2)
    multiplicity = {e: data.draw(st.integers(0, 4)) for e in base.edges()}
    g, _ = expand_parallel(base, multiplicity)
    f_edges = data.draw(st.sets(st.sampled_from(g.edges()))) if g.edges() else set()
    report = brute_force_thinness(g, f_edges)
    assert (report.max_ratio, report.witness_cut, report.cuts_checked) == (
        per_copy_thinness(g, f_edges))


def test_thinness_too_large():
    g = cycle_graph(30)
    with pytest.raises(TooLargeError):
        brute_force_thinness(g, [])


def test_atsp_n3():
    m = [[0, 2, 7], [3, 0, 4], [5, 6, 0]]
    cost, order = brute_force_atsp(ATSPInstance.from_matrix(m).cost)
    assert cost == 11
    assert order == [0, 1, 2]


def test_atsp_n4_symmetric_unit():
    inst = ATSPInstance.from_matrix(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    cost, order = brute_force_atsp(inst.cost)
    assert cost == 4
    assert verify_tour(order, inst.cost) == 4


def test_atsp_too_large():
    n = 13
    cost = [[Fraction(1)] * n for _ in range(n)]
    with pytest.raises(TooLargeError):
        brute_force_atsp(cost)


def test_verify_tour_identity_unit():
    n = 5
    cost = [[Fraction(0 if i == j else 1) for j in range(n)] for i in range(n)]
    assert verify_tour(list(range(n)), cost) == n


def test_verify_tour_rejects_repeats():
    cost = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    with pytest.raises(NotHamiltonianError):
        verify_tour([0, 0], cost)
    with pytest.raises(NotHamiltonianError):
        verify_tour([0], cost)


@pytest.mark.parametrize("order", [[True, 0, 2], [0, 1, "a"], [0, 1, 2.0], [0, 1, None]],
                         ids=["bool", "str", "float", "null"])
def test_verify_tour_rejects_non_int_entries(order):
    cost = [[Fraction(0 if i == j else 1) for j in range(3)] for i in range(3)]
    with pytest.raises(NotHamiltonianError):
        verify_tour(order, cost)


def test_thinness_rejects_absent_edge(cube):
    doubled = amplify(cube, 2)
    with pytest.raises(EdgeAbsentError):
        brute_force_thinness(doubled, [0, 1, 999])


@pytest.mark.parametrize("edges", [[[0]], [True, 0], [0, 1.0], [0, "1"], [None]],
                         ids=["list", "bool", "float", "str", "null"])
def test_thinness_rejects_non_int_edge_ids(cube, edges):
    with pytest.raises(EdgeAbsentError) as info:
        brute_force_thinness(amplify(cube, 2), edges)
    assert repr([e for e in edges if type(e) is not int]) in str(info.value)


def test_reversed_tour_same_cost_symmetric():
    inst = ATSPInstance.from_matrix(
        [[0, 2, 4, 3], [2, 0, 5, 1], [4, 5, 0, 7], [3, 1, 7, 0]])
    tour = [0, 2, 1, 3]
    assert verify_tour(tour, inst.cost) == verify_tour(tour[::-1], inst.cost)

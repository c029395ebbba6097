"""Flow routines against brute-force enumeration, plus golden values.

Every proper side of a small vertex set is enumerated for the min cuts, and
every integral flow within bounds for the circulation; these enumerations
share no code with ``flows``.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thintree.embedding import build_embedding
from thintree.errors import CirculationInfeasibleError
from thintree.flows import (
    FlowNetwork,
    directed_global_min_cut,
    edge_connectivity,
    min_cost_circulation,
)

WEIGHTS = st.fractions(min_value=0, max_value=4, max_denominator=6)


def proper_sides(n):
    for mask in range(1, 2 ** n - 1):
        yield frozenset(v for v in range(n) if mask >> v & 1)


def leaving(arcs: dict, side) -> Fraction:
    return sum((w for (u, v), w in arcs.items() if u in side and v not in side),
               Fraction(0))


def crossing(weight: dict, side) -> Fraction:
    return sum((w for (u, v), w in weight.items() if (u in side) != (v in side)),
               Fraction(0))


def multigraph(n: int, weight: dict):
    """``weight[(u, v)]`` parallel copies of each pair, darts in id order
    around each vertex."""
    rotations = [[] for _ in range(n)]
    e = 0
    for (u, v), w in sorted(weight.items()):
        for _ in range(w):
            rotations[u].append(2 * e)
            rotations[v].append(2 * e + 1)
            e += 1
    return build_embedding(n, rotations, [(2 * i, 2 * i + 1) for i in range(e)])


@st.composite
def weighted_pairs(draw, directed: bool, weights=WEIGHTS):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (directed or u < v)]
    return n, draw(st.dictionaries(st.sampled_from(pairs), weights))


@given(weighted_pairs(directed=True))
@settings(max_examples=200, deadline=None)
def test_directed_min_cut_matches_enumeration(case):
    n, arcs = case
    value, side = directed_global_min_cut(n, arcs)
    assert value == min(leaving(arcs, s) for s in proper_sides(n))
    assert 0 < len(side) < n
    assert leaving(arcs, side) == value


@given(weighted_pairs(directed=False, weights=st.integers(0, 4)))
@settings(max_examples=200, deadline=None)
def test_edge_connectivity_matches_enumeration(case):
    n, weight = case
    assert edge_connectivity(multigraph(n, weight)) == min(
        crossing(weight, s) for s in proper_sides(n))


def test_max_flow_cancels_through_reverse_arcs():
    """BFS takes 0-1-3-5 first; the maximum of 2 needs 0-1-4-5 and
    0-2-3-5, so the flow on 1->3 must go back."""
    net = FlowNetwork(6)
    for u, v in ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)):
        net.add_arc(u, v, 1)
    assert net.max_flow(0, 5) == 2
    assert net.min_cut_side(0) == {0}


def two_sided_sweep(n: int, arcs: dict):
    """The directed sweep over (0, t) and then (t, 0) for every sink t,
    each an unbounded flow on a fresh network: the first strict minimum
    (value, source side), stopping at a zero."""
    best, best_side = None, None
    for t in range(1, n):
        for s, sink in ((0, t), (t, 0)):
            net = FlowNetwork(n)
            for (u, v), w in sorted(arcs.items()):
                if w > 0:
                    net.add_arc(u, v, w)
            value = net.max_flow(s, sink)
            if best is None or value < best:
                best, best_side = value, net.min_cut_side(s)
                if best == 0:
                    return best, best_side
    return best, best_side


@st.composite
def circulations(draw):
    """Sums of up to five directed cycles of weight 1-4 on 2-9 vertices."""
    n = draw(st.integers(2, 9))
    arcs = {}
    for _ in range(draw(st.integers(0, 5))):
        order = draw(st.permutations(range(n)))
        cycle = order[:draw(st.integers(2, n))]
        w = draw(st.integers(1, 4))
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            arcs[u, v] = arcs.get((u, v), 0) + w
    return n, arcs


@given(circulations())
@settings(max_examples=200, deadline=None)
def test_circulation_sweep_matches_the_two_sided_sweep(case):
    n, arcs = case
    value, side = directed_global_min_cut(n, arcs)
    assert (value, side) == two_sided_sweep(n, arcs)
    assert value == min(leaving(arcs, s) for s in proper_sides(n))


def test_circulation_sweeps_one_side(monkeypatch):
    """A directed 5-cycle plus a chord's return path runs the 4 flows out
    of vertex 0; the same arcs with one unbalanced extra run all 8."""
    calls = []
    max_flow = FlowNetwork.max_flow

    def counted(self, s, t, enough=None):
        calls.append((s, t))
        return max_flow(self, s, t, enough)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    ring = {(0, 1): 2, (1, 2): 2, (2, 3): 2, (3, 4): 2, (4, 0): 2, (1, 3): 1,
            (3, 1): 1}
    assert directed_global_min_cut(5, ring) == (2, frozenset({0}))
    assert calls == [(0, 1), (0, 2), (0, 3), (0, 4)]
    calls.clear()
    assert directed_global_min_cut(5, {**ring, (2, 4): 1})[0] == 2
    assert calls == [p for t in range(1, 5) for p in ((0, t), (t, 0))]


@given(weighted_pairs(directed=True), st.data())
@settings(max_examples=200, deadline=None)
def test_bounded_max_flow(case, data):
    """Below ``enough`` the bounded flow is the flow, with the same
    residual side; otherwise it reaches ``enough`` without passing the
    flow."""
    n, arcs = case
    s = data.draw(st.integers(0, n - 1))
    t = data.draw(st.sampled_from([v for v in range(n) if v != s]))
    enough = data.draw(WEIGHTS)
    nets = []
    for _ in range(2):
        net = FlowNetwork(n)
        for (u, v), w in sorted(arcs.items()):
            net.add_arc(u, v, w)
        nets.append(net)
    full = nets[0].max_flow(s, t)
    bounded = nets[1].max_flow(s, t, enough)
    if full < enough:
        assert bounded == full
        assert nets[1].min_cut_side(s) == nets[0].min_cut_side(s)
    else:
        assert enough <= bounded <= full


@st.composite
def bounded_arcs(draw):
    """At most 6 arcs on at most 4 vertices, loops allowed, upper <= 3;
    lower exceeds upper by one now and then."""
    n = draw(st.integers(1, 4))
    arcs = []
    for _ in range(draw(st.integers(0, 6))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        upper = draw(st.integers(0, 3))
        lower = draw(st.integers(0, min(upper + 1, 3)))
        arcs.append((u, v, lower, upper, draw(st.integers(0, 5))))
    return n, arcs


def balanced(n, arcs, flow) -> bool:
    net = [0] * n
    for (u, v, *_), f in zip(arcs, flow):
        net[u] -= f
        net[v] += f
    return not any(net)


def cost_of(arcs, flow):
    return sum(c * f for (*_, c), f in zip(arcs, flow))


@given(bounded_arcs())
@settings(max_examples=200, deadline=None)
def test_circulation_matches_enumeration(case):
    n, arcs = case
    feasible = [flow for flow in product(*(range(lo, up + 1) for _, _, lo, up, _ in arcs))
                if balanced(n, arcs, flow)]
    if not feasible:
        with pytest.raises(CirculationInfeasibleError):
            min_cost_circulation(n, arcs)
        return
    flow = min_cost_circulation(n, arcs)
    assert all(lo <= f <= up for (_, _, lo, up, _), f in zip(arcs, flow))
    assert balanced(n, arcs, flow)
    assert cost_of(arcs, flow) == min(cost_of(arcs, f) for f in feasible)


def test_golden_values():
    """Values, sides and flow vectors, pinned so that a change of arc order
    or tie-breaking shows."""
    F = Fraction
    assert edge_connectivity(multigraph(4, {(0, 1): 2, (2, 3): 5})) == 0
    with pytest.raises(ValueError):
        edge_connectivity(multigraph(1, {}))

    arcs = {(0, 1): F(1, 2), (1, 2): F(1, 2), (2, 0): F(1, 2), (1, 0): F(1, 2),
            (2, 1): F(1, 2), (0, 2): F(1, 2), (2, 3): 1, (3, 4): F(3, 4),
            (4, 2): 1, (4, 3): F(1, 4), (3, 2): F(1, 3)}
    assert directed_global_min_cut(5, arcs) == (F(3, 4), frozenset({0, 1, 2, 3}))
    ring = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1, (0, 2): F(1, 3), (2, 0): 0}
    assert directed_global_min_cut(4, ring) == (1, frozenset({0, 2, 3}))
    assert directed_global_min_cut(3, {(0, 1): 1, (1, 0): 1}) == (0, frozenset({0, 1}))

    circ = [(0, 1, 1, 3, F(2)), (1, 2, 0, 2, F(1)), (2, 0, 0, 3, F(1)),
            (1, 0, 0, 2, F(5)), (0, 2, 0, 2, F(1, 2)), (2, 1, 1, 1, F(3))]
    assert min_cost_circulation(3, circ) == [1, 2, 1, 0, 0, 1]
    circ = [(0, 1, 0, 2, 4), (1, 2, 1, 2, 1), (2, 0, 0, 2, 1), (2, 1, 0, 1, 0),
            (0, 2, 0, 1, 7)]
    assert min_cost_circulation(3, circ) == [0, 1, 0, 1, 0]
    for bad, message in (
            ([(0, 1, 1, 1, F(1))], "only 0 of 1 units of mandatory flow routable"),
            ([(0, 1, 2, 1, F(1))], "lower 2 > upper 1"),
            ([(0, 1, 2, 3, 1), (1, 0, 0, 1, 1)],
             "only 1 of 2 units of mandatory flow routable")):
        with pytest.raises(CirculationInfeasibleError, match=message):
            min_cost_circulation(2, bad)


def test_circulation_rejects_negative_cost():
    # the arcs (0, 1, cost -3) and (1, 0, cost 1) form a negative cycle
    arcs = [(0, 1, 1, 1, 0), (1, 0, 0, 2, 0), (0, 1, 0, 1, -3), (1, 0, 0, 1, 1)]
    with pytest.raises(ValueError, match=r"arc \(0, 1\) has negative cost -3"):
        min_cost_circulation(2, arcs)

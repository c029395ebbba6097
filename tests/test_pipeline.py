from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thintree import pipeline
from thintree.dual import geometric_dual
from thintree.embedding import EmbeddedGraph, build_embedding
from thintree.errors import DisconnectedError, ExtractionFailureError
from thintree.flows import edge_connectivity
from thintree.formats import parse_cost, read_emb, write_emb
from thintree.genlab import amplify, cycle_graph, prism_graph, torus_grid
from thintree.oracle import (
    brute_force_edge_connectivity,
    brute_force_thinness,
)
from thintree.pipeline import (
    _connector_edges,
    bounded_genus_thin_tree,
    genus_bound,
    weighted_thin_tree,
)
from thintree.prng import PCG32
from thintree.spanning import thin_spanning_tree, tree_cost_ratio
from thintree.surgery import SurgeryLog, SurgeryState

from .conftest import add_edge
from .test_acceptance import _weighted_battery
from .test_embedding import rotation_systems


def test_edge_connectivity_examples(cube):
    assert edge_connectivity(amplify(cube, 2)) == 6
    assert edge_connectivity(cycle_graph(4)) == 2
    disconnected = build_embedding(4, [[0], [1], [2], [3]], [(0, 1), (2, 3)])
    assert edge_connectivity(disconnected) == 0
    with pytest.raises(ValueError):
        edge_connectivity(build_embedding(1, [[0, 1]], [(0, 1)]))


def test_edge_connectivity_matches_oracle(cube):
    for g in [cube, amplify(cube, 3), torus_grid(3, 3), cycle_graph(6),
              amplify(cycle_graph(5), 2), prism_graph(5)]:
        assert edge_connectivity(g) == brute_force_edge_connectivity(g)


def test_genus_bound_values():
    assert genus_bound(0) == 10
    assert genus_bound(1) == 42          # 7 * 1 * alpha(1) = 7 * 6
    assert genus_bound(4) == 14 * 8      # 7 * 2 * alpha(4) = 112
    # non-square: rational upper bound 7 * g * alpha / isqrt(g)
    assert genus_bound(2) == Fraction(7 * 2 * 7, 1)
    assert genus_bound(2) >= 7 * 2 ** 0.5 * 7


@pytest.mark.parametrize("q", [6, 12, 24])
def test_planar_branch_bound(cube, q):
    g = amplify(cube, q)
    result = bounded_genus_thin_tree(g)
    k = 3 * q
    assert result.thinness_bound == Fraction(10, k)
    report = brute_force_thinness(g, result.tree_edges)
    assert report.max_ratio <= Fraction(10, k)


@pytest.mark.parametrize("q", [2, 3, 12])
def test_torus_branch_bound(q):
    g = amplify(torus_grid(3, 3), q)
    k = 4 * q
    result = bounded_genus_thin_tree(g)
    assert result.thinness_bound == Fraction(42, k)
    assert len(result.tree_edges) == 8
    report = brute_force_thinness(g, result.tree_edges)
    assert report.max_ratio <= Fraction(42, k)


def test_genus_branch_with_real_surgery():
    g = add_edge(amplify(prism_graph(4), 4), 0, 2, 0, 0)
    assert g.genus() == 1
    result = bounded_genus_thin_tree(g)
    assert len(result.tree_edges) == 7
    k = edge_connectivity(g)
    report = brute_force_thinness(g, result.tree_edges)
    assert report.max_ratio <= Fraction(42, k)


def test_k1_vacuous_tree():
    g = cycle_graph(5)
    result = bounded_genus_thin_tree(g)
    assert len(result.tree_edges) == 4
    assert result.thinness_bound >= 1  # 10/k with k = 2: vacuous


def test_connector_edges_bounded():
    """Merged tree uses at most kappa(H) - 1 <= 2 sqrt(genus) connectors and
    each raises thinness by at most 1/k."""
    g = add_edge(amplify(prism_graph(4), 5), 0, 2, 0, 0)
    result = bounded_genus_thin_tree(g)
    assert len(result.tree_edges) == g.vertex_count - 1
    report = brute_force_thinness(g, result.tree_edges)
    assert report.max_ratio <= result.thinness_bound


def _kruskal(g, order, forest=()):
    """Edges of ``order`` that join two components, forest edges merged
    first: Kruskal's rule written out on its own."""
    label = list(range(g.vertex_count))
    picked = []
    for e in [*forest, *order]:
        u, v = g.endpoints(e)
        lu, lv = label[u], label[v]
        if lu != lv:
            label = [lv if x == lu else x for x in label]
            if e not in forest:
                picked.append(e)
    return picked


def assert_connectors_from_deleted(g, deleted):
    """Connectors chosen among the deleted edges equal a Kruskal over all
    of g, starting from a spanning forest of g minus the deleted edges."""
    h = g.delete_edges(deleted)
    forest = _kruskal(h, h.edges())
    everything = sorted(g.edges(), key=lambda e: (g.edge_cost[e], e))
    expected = _kruskal(g, everything, forest)
    assert _connector_edges(g, h, deleted) == expected
    return h, expected


def test_connectors_join_two_components(cube):
    # deleting the copies of the four edges between the cube's two squares
    # leaves the squares as two components, joined by the cheapest copy
    g = amplify(cube, 2)
    g.edge_cost = {e: Fraction(e % 5 + 1, 2) for e in g.edges()}
    between = [e for e in g.edges() if {u < 4 for u in g.endpoints(e)} == {True, False}]
    h, connectors = assert_connectors_from_deleted(g, between)
    assert len(h.components()) == 2
    assert len(connectors) == 1


def test_two_components_build_their_own_duals(monkeypatch):
    # surgery is stood in for by one split: deleting the copies of the
    # edges between the handled cube's two squares leaves two components,
    # so neither tree may read the dual of the whole surgered graph
    g = add_edge(amplify(prism_graph(4), 8), 0, 2, 0, 0)
    g.edge_cost = {e: Fraction(e % 5 + 1, 2) for e in g.edges()}
    between = [e for e in g.edges() if {u < 4 for u in g.endpoints(e)} == {True, False}]
    state = SurgeryState(g)
    step = state.delete_dual_cycle(between)
    h = state.graph()
    assert len(h.components()) == 2

    def split(graph, k):
        return h, SurgeryLog(k, graph.genus(), [step], dual=geometric_dual(h))

    handed = []

    def spanning_tree(piece, dual=None):
        handed.append(dual)
        return thin_spanning_tree(piece, dual)

    monkeypatch.setattr(pipeline, "increase_dual_girth", split)
    monkeypatch.setattr(pipeline, "thin_spanning_tree", spanning_tree)
    result = bounded_genus_thin_tree(g)
    assert handed == [None, None]
    # the tree before surgery handed its dual on
    assert result.tree_edges == (0, 24, 35, 43, 55, 65, 96)
    assert result.far_set == (*range(32), 35, 43, 55, 65, 96)
    assert (result.g_star, result.alpha, result.certificate_distance) == (1, 6, 1)
    assert result.thinness_bound == Fraction(7, 4)


@given(rotation_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_connectors_match_kruskal_over_all_edges(g, data):
    g.edge_cost = {e: Fraction(data.draw(st.integers(0, 3))) for e in g.edges()}
    assert_connectors_from_deleted(g, data.draw(st.sets(st.sampled_from(g.edges()))))


def test_disconnected_rejected():
    g = build_embedding(4, [[0], [1], [2], [3]], [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        bounded_genus_thin_tree(g)


# --- weighted extraction ----------------------------------------------

def seeded_costs(seed):
    rng = PCG32(seed)
    return lambda new, old: rng.randint(1, 100)


def test_weighted_rounds_and_schedule(cube):
    g = amplify(cube, 20, costs=seeded_costs(7))
    k = edge_connectivity(g)
    assert k == 60
    w = weighted_thin_tree(g)
    assert w.rounds == 3  # floor(60 / 20)
    g_val = genus_bound(0)
    for i, k_i in enumerate(w.connectivity_trace):
        assert Fraction(k_i) >= k - i * g_val
    assert w.thinness == Fraction(2 * 10, 60)
    assert w.cost_ratio <= w.thinness
    assert w.c_tree * w.rounds <= w.c_graph
    report = brute_force_thinness(g, w.tree_edges)
    assert report.max_ratio <= w.thinness


def test_weighted_tree_avoids_expensive_edge(cube):
    g = amplify(cube, 12, costs=lambda new, old: 1000 if new == 0 else 1)
    w = weighted_thin_tree(g)
    assert 0 not in w.tree_edges
    assert w.cost_ratio <= w.thinness


def test_weighted_unit_costs_averaging(cube):
    g = amplify(cube, 12, costs=lambda new, old: 1)
    w = weighted_thin_tree(g)
    assert w.cost_ratio == Fraction(7, 144)
    assert w.c_tree * w.rounds <= w.c_graph


def test_weighted_single_round_degenerate():
    g = amplify(cycle_graph(4), 5, costs=seeded_costs(3))
    w = weighted_thin_tree(g)
    assert w.rounds == 1  # k = 10 < 4 g(k)
    assert w.cost_ratio <= 1


def test_weighted_torus_instance():
    g = amplify(torus_grid(3, 3), 3)
    g.edge_cost = {e: Fraction(1 + (e * 37) % 100) for e in g.edges()}
    w = weighted_thin_tree(g)
    assert w.rounds == 1  # k = 12 < 4 * 42
    report = brute_force_thinness(g, w.tree_edges)
    k = 12
    assert report.max_ratio <= 2 * genus_bound(1) / k
    assert w.cost_ratio <= 2 * genus_bound(1) / k


def test_weighted_requires_costs(cube):
    with pytest.raises(ValueError):
        weighted_thin_tree(amplify(cube, 2))


def test_weighted_trees_are_edge_disjoint(cube):
    g = amplify(cube, 20, costs=seeded_costs(11))
    residual = g
    seen = set()
    for _ in range(3):
        result = bounded_genus_thin_tree(residual)
        assert not (set(result.tree_edges) & seen)
        seen |= set(result.tree_edges)
        residual = residual.delete_edges(result.tree_edges)


# --- non-integral EMB costs --------------------------------------------

def mixed_costs(g):
    """Integers plus 1/2, 1/3 or 1/4 by edge id: denominators 1 to 4."""
    return {e: 1 + (e * 37) % 100 + (Fraction(1, 1 + e % 4) if e % 4 else 0)
            for e in g.edges()}


def parsed_costs(text):
    """Edge id -> the exact Fraction of its cost string in an EMB/1 text,
    read apart from ``read_emb``: the oracle for the scaled ints."""
    rows = (ln.split() for ln in text.splitlines())
    return {int(row[1]): parse_cost(row[4]) for row in rows if row[0] == "edge"}


@pytest.mark.parametrize("base, q, genus", [
    (prism_graph(4), 20, 0),   # planar branch, 3 planned trees
    (torus_grid(3, 3), 22, 1),  # genus branch: surgery and connectors
], ids=["cube", "torus"])
def test_non_integral_costs_match_their_fractions(base, q, genus):
    drawn = amplify(base, q)
    drawn.edge_cost = mixed_costs(drawn)
    text = write_emb(drawn)
    g = read_emb(text)
    assert g.genus() == genus
    assert g.scale == 12
    assert all(type(c) is int for c in g.edge_cost.values())
    assert write_emb(g) == text
    costs = parsed_costs(text)
    assert costs == drawn.edge_cost

    # the same text with every cost multiplied by the scale
    drawn.edge_cost = {e: 12 * c for e, c in costs.items()}
    scaled = read_emb(write_emb(drawn))
    assert scaled.scale == 1

    w, w_scaled = weighted_thin_tree(g), weighted_thin_tree(scaled)
    assert (w.tree_edges, w.rounds, w.connectivity_trace, w.thinness) == (
        w_scaled.tree_edges, w_scaled.rounds, w_scaled.connectivity_trace,
        w_scaled.thinness)
    c_tree = sum((costs[e] for e in w.tree_edges), Fraction(0))
    c_graph = sum(costs.values(), Fraction(0))
    assert (w.c_tree, w.c_graph, w.cost_ratio) == (c_tree, c_graph, c_tree / c_graph)
    assert (w_scaled.c_tree, w_scaled.c_graph, w_scaled.cost_ratio) == (
        12 * c_tree, 12 * c_graph, c_tree / c_graph)
    assert tree_cost_ratio(g, w.tree_edges) == c_tree / c_graph
    assert brute_force_thinness(g, w.tree_edges).max_ratio <= w.thinness


@given(rotation_systems(), st.data())
@settings(max_examples=100, deadline=None)
def test_parsed_cost_sums_are_their_fraction_sums(g, data):
    g.edge_cost = {e: Fraction(data.draw(st.integers(0, 99)),
                               data.draw(st.sampled_from((1, 2, 3, 4))))
                   for e in g.edges()}
    text = write_emb(g)
    h = read_emb(text)
    assert write_emb(h) == text
    total = sum(g.edge_cost.values(), Fraction(0))
    assert Fraction(h.total_cost(), h.scale) == total
    part = data.draw(st.sets(st.sampled_from(g.edges())))
    ratio = sum((g.edge_cost[e] for e in part), Fraction(0)) / total if total else None
    assert tree_cost_ratio(h, part) == ratio
    kept = h.delete_edges(part)
    assert Fraction(kept.total_cost(), kept.scale) == total - sum(
        (g.edge_cost[e] for e in part), Fraction(0))


def expensive_first_tree():
    """Cube x20 whose round-0 tree costs 1000 per edge, so that it misses
    the averaging bound; returns the graph and that tree."""
    g = amplify(prism_graph(4), 20, costs=seeded_costs(7))
    first = bounded_genus_thin_tree(g).tree_edges
    for e in first:
        g.edge_cost[e] = Fraction(1000)
    return g, first


def test_weighted_early_stop_runs_past_an_expensive_first_tree():
    g, first = expensive_first_tree()
    w = weighted_thin_tree(g)
    assert w.rounds == 3  # the planned t, still the divisor of the bound
    assert len(w.connectivity_trace) == 2  # round 1 met it, round 2 never ran
    assert not set(w.tree_edges) & set(first)
    assert w.c_tree * w.rounds <= w.c_graph
    assert brute_force_thinness(g, w.tree_edges).max_ratio <= w.thinness


def test_weighted_disconnected_residual_breaks_the_schedule(monkeypatch):
    """A residual measured at connectivity 0 fails the schedule check like
    any other shortfall: there is no truncated run to fall back on."""
    g, _ = expensive_first_tree()
    monkeypatch.setattr(pipeline, "edge_connectivity",
                        lambda h: edge_connectivity(h) if h is g else 0)
    with pytest.raises(ExtractionFailureError, match="round 1"):
        weighted_thin_tree(g)


def test_weighted_repeated_trees_fail_typed(monkeypatch):
    """Residuals that kept the extracted edges would let the trees repeat,
    and then none need meet the averaging bound."""
    g, _ = expensive_first_tree()
    monkeypatch.setattr(EmbeddedGraph, "delete_edges", lambda self, edges: self)
    with pytest.raises(ExtractionFailureError, match="not edge-disjoint"):
        weighted_thin_tree(g)


def _all_trees(g):
    """Every one of the t planned edge-disjoint trees, until a residual
    disconnects: the paper's extraction without an early stop."""
    t = max(1, int(Fraction(edge_connectivity(g)) / (2 * genus_bound(g.genus()))))
    trees = []
    residual = g
    for _ in range(t):
        if not residual.is_connected():
            break
        trees.append(bounded_genus_thin_tree(residual).tree_edges)
        residual = residual.delete_edges(trees[-1])
    return t, trees


def test_weighted_keeps_first_tree_that_meets_the_averaging_bound():
    battery = [(name, g) for name, g, _ in _weighted_battery()]
    battery.append(("cube x20, expensive first tree", expensive_first_tree()[0]))
    for name, g in battery:
        t, trees = _all_trees(g)
        c_graph = g.total_cost()
        costs = [sum(g.edge_cost[e] for e in tree) for tree in trees]
        first = next(i for i, c in enumerate(costs) if c * t <= c_graph)
        w = weighted_thin_tree(g)
        assert w.tree_edges == tuple(sorted(trees[first])), name
        assert (w.rounds, w.c_tree) == (t, costs[first]), name
        assert len(w.connectivity_trace) == first + 1, name

"""Bundled multigraphs against their copies drawn one by one.

Each BundledGraph is compared with a fresh EmbeddedGraph built from its
materialised dart maps and costs, which has no seeded memo: the graph's
measurements, the dual's core threads, the girth search, the far set, the
tree and the weighted extraction must all agree, and so must every step of
the far-set selection.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thintree.atsp import discretize, expand_support_embedding, symmetrize
from thintree.bundles import BundledGraph
from thintree.dual import geometric_dual, min_pairwise_distance, shortest_dual_cycle
from thintree.embedding import EmbeddedGraph, build_embedding, expand_parallel
from thintree.errors import InvalidInputError, OddEulerDefectError, ThinTreeError
from thintree.flows import edge_connectivity
from thintree.genlab import (
    BASES,
    amplify,
    cycle_graph,
    lp_support_instance,
    prism_graph,
    torus_grid,
)
from thintree.heldkarp import ATSPInstance, solve_held_karp
from thintree.pipeline import bounded_genus_thin_tree, weighted_thin_tree
from thintree.prng import PCG32
from thintree.spanning import ThreadGraph, thin_spanning_tree

from .test_embedding import rotation_systems


def drawn(g):
    """A fresh EmbeddedGraph with g's copies drawn: its maps and costs."""
    h = g.explicit()
    return EmbeddedGraph(g.vertex_count, dict(h.dart_owner), dict(h.rotation_next),
                         None if g.edge_cost is None else dict(g.edge_cost))


def outcome(fn, *args, **kwargs):
    """fn's result, or the type of the package error it raised."""
    try:
        return fn(*args, **kwargs)
    except ThinTreeError as exc:
        return type(exc)


def planar_floor(g):
    """The edge connectivity where it is a proven floor on the dual girth."""
    return edge_connectivity(g) if g.genus() == 0 and g.is_connected() else 1


def assert_matches_its_copies(g, origin):
    """Every measurement of the bundled g equals that of its copies."""
    assert isinstance(g, BundledGraph)
    cold = drawn(g)
    edges = cold.edges()
    assert g.edges() == edges and g.edge_count == len(edges)
    assert [g.endpoints(e) for e in edges] == [cold.endpoints(e) for e in edges]
    assert all(g.support.endpoints(origin[e]) == cold.endpoints(e) for e in edges)
    assert all(g.has_edge(e) for e in edges)
    gone = sorted(set(origin) - set(edges))
    assert not any(g.has_edge(e) for e in gone)
    for e in gone[:3]:
        with pytest.raises(KeyError):
            g.endpoints(e)
    if g.edge_cost is not None:
        assert dict(g.edge_cost) == cold.edge_cost
        assert g.total_cost() == cold.total_cost()
    assert g.pair_counts() == cold.pair_counts()
    assert g.components() == cold.components()
    assert g.genus() == cold.genus()

    d, e = geometric_dual(g), geometric_dual(cold)
    assert (d.face_count, d.edge_count) == (e.face_count, e.edge_count)
    threads = d.core_threads()
    assert [(tuple(t.edges), tuple(t.vertices)) for t in threads] == \
        [(t.edges, t.vertices) for t in e.core_threads()]
    assert all(t.low == min(t.edges) for t in threads)
    assert sorted(d._pendant) == sorted(e._pendant)
    assert d.loops == e.loops
    floor = planar_floor(cold)
    assert shortest_dual_cycle(d, floor) == shortest_dual_cycle(e, floor)
    assert d.dual_edges == e.dual_edges
    assert [d.faces_of(x) for x in edges] == [e.faces_of(x) for x in edges]

    # pairwise distances on Ranges threads: a few copies of each bundle
    # (ends and middles) and, below, the far set
    some = [c for c in edges if c % 3 == 0 or not g.has_edge(c - 1)]
    assert min_pairwise_distance(d, some) == min_pairwise_distance(e, some)

    if g.vertex_count >= 2 and g.is_connected():
        ours, theirs = (outcome(thin_spanning_tree, h) for h in (g, cold))
        assert ours == theirs
        if not isinstance(ours, type):
            assert ours.certificate_distance == theirs.certificate_distance
            far = ours.far_set
            assert min_pairwise_distance(d, far) == min_pairwise_distance(e, far)
        if g.edge_cost is not None:
            assert outcome(weighted_thin_tree, g) == outcome(weighted_thin_tree, cold)


def lp_support_graph(n, denominator):
    matrix, emb = lp_support_instance(n, PCG32(1))
    inst = ATSPInstance.from_matrix(matrix)
    y, c_prime = symmetrize(solve_held_karp(inst), inst)
    mult, _ = discretize(y, denominator)
    return expand_support_embedding(emb, mult, c_prime)


@pytest.mark.usefixtures("oracle_checked_held_karp")
@pytest.mark.parametrize("n, denominator", [(6, 60), (8, 60), (10, 60), (12, 60),
                                            (6, 216), (8, 512), (10, 1000)])
def test_lp_support_bundles_match_their_copies(n, denominator):
    g, origin = lp_support_graph(n, denominator)
    assert_matches_its_copies(g, origin)
    # a residual round: one copy of each tree edge leaves its bundle
    tree = bounded_genus_thin_tree(g).tree_edges
    assert_matches_its_copies(g.delete_edges(tree), origin)


@st.composite
def bundled_graphs(draw):
    """Half the time a random rotation system on two or more vertices (with
    loops, so pendant dual faces, isolated vertices and several components),
    else a genlab base or the 3x3 torus grid; doubled first or not, so that
    the support may have faces of degree 2, with a multiplicity 0-6 per
    edge (1 often) and a cost per edge."""
    if draw(st.booleans()):
        # one vertex has no edge connectivity for planar_floor to measure
        base = draw(rotation_systems().filter(lambda g: g.vertex_count > 1))
    else:
        name = draw(st.sampled_from(sorted(BASES) + ["torus"]))
        base = torus_grid(3, 3) if name == "torus" else BASES[name](draw(st.integers(3, 6)))
    if draw(st.booleans()):
        base = amplify(base, 2)
    edges = base.edges()
    mult = {e: draw(st.sampled_from([0, 1, 1, 2, 3, 6])) for e in edges}
    if not any(mult.values()):
        mult[edges[0]] = 1
    cost = {e: Fraction(draw(st.integers(1, 20)), draw(st.integers(1, 3)))
            for e in edges}
    return expand_parallel(base, mult, cost)


@given(bundled_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_bundles_match_their_copies_through_deletions(case, data):
    """The bundled graph, then up to three deletions of copies in a row:
    whole bundles, single copies out of the middle of a bundle, or a
    spanning tree as a residual round takes it."""
    g, origin = case
    assert_matches_its_copies(g, origin)
    for _ in range(data.draw(st.integers(1, 3))):
        edges = g.edges()
        if not edges:
            break
        if data.draw(st.booleans()) and g.is_connected() and g.vertex_count >= 2:
            doomed = _bfs_tree(g)
        else:
            doomed = data.draw(st.lists(st.sampled_from(edges), max_size=len(edges)))
        g = g.delete_edges(doomed)
        assert_matches_its_copies(g, origin)


def _bfs_tree(g):
    """Some spanning tree of the connected g."""
    seen, tree = {0}, []
    for e in g.edges():
        u, v = g.endpoints(e)
        if (u in seen) != (v in seen):
            seen |= {u, v}
            tree.append(e)
    return tree if len(seen) == g.vertex_count else []


def test_a_support_face_of_degree_two():
    # two parallel support edges bound a face of degree 2 on each side, so
    # the dual is one cycle through both bundles: a whole component
    digon = build_embedding(2, [[0, 2], [1, 3]], [(0, 1), (2, 3)])
    for mult in ({0: 1, 1: 1}, {0: 3, 1: 1}, {0: 2, 1: 5}):
        g, origin = expand_parallel(digon, mult, {0: Fraction(1), 1: Fraction(2)})
        assert_matches_its_copies(g, origin)
        assert_matches_its_copies(g.delete_edges([1]), origin)


def test_drawn_copies_measure_their_own_genus():
    """The genus of the drawn copies is traced on their faces, not taken
    from the bundles, and must agree with the support's."""
    g, _ = expand_parallel(torus_grid(3, 3), {e: 2 for e in range(18)})
    h = g.explicit()
    assert h._faces is not None  # traced to measure the genus
    assert h.genus() == g.genus() == 1
    g, _ = expand_parallel(torus_grid(3, 3), {e: 2 for e in range(18)})
    g._genus = 0  # a wrong support genus: the drawn faces disagree
    with pytest.raises(OddEulerDefectError, match="genus"):
        g.explicit()


def test_extraction_rounds_leave_holes_in_the_bundles():
    """A first tree made dear: the weighted extraction deletes it and
    takes the next round's tree from bundles with holes."""
    g, origin = expand_parallel(prism_graph(4), {e: 20 for e in range(12)},
                                {e: Fraction(1 + e % 5) for e in range(12)})
    first = bounded_genus_thin_tree(g).tree_edges
    g.edge_cost = {e: Fraction(1000 if e in first else 1) for e in g.edges()}
    w = weighted_thin_tree(g)
    assert len(w.connectivity_trace) >= 2
    assert not set(w.tree_edges) & set(first)
    assert w == weighted_thin_tree(drawn(g))
    residual = g.delete_edges(first)
    assert any(len(copies.ranges) > 1 for copies in residual.bundles.values())
    assert_matches_its_copies(residual, origin)


def _start_face(live, chain, start):
    """The face at offset ``start`` along a live thread's chain."""
    faces = []
    for c, forward in chain:
        verts = live.core[c].vertices
        faces += verts[:-1] if forward else verts[:0:-1]
    return faces[start]


def test_selection_steps_match_and_cycles_start_at_bigons():
    """Every step of the far-set selection on a bundled dual picks what it
    picks on the copies, and some whole-component cycle among them starts
    its walk at a bigon.  That bigon is the face of the cycle's smallest
    dart, so it is a support face of degree 2: a bigon between two copies
    always follows the face of its bundle's first dart."""
    digon = build_embedding(2, [[0, 2], [1, 3]], [(0, 1), (2, 3)])
    at_bigon = 0
    for base, q in [(digon, 2), (cycle_graph(2), 3), (cycle_graph(4), 3),
                    (prism_graph(4), 4), (prism_graph(5), 3),
                    (BASES["wheel"](5), 4), (torus_grid(3, 3), 2)]:
        g, origin = expand_parallel(base, {e: q + e % 3 for e in base.edges()})
        cold = drawn(g)
        ours, theirs = ThreadGraph(geometric_dual(g)), ThreadGraph(geometric_dual(cold))
        bigons = {f for f, walk in enumerate(cold.faces()) if len(walk) == 2}
        while (t := theirs.longest()) is not None:
            assert ours.longest() == t
            assert ours.walk(t) == theirs.walk(t)
            assert ours.middle(t) == theirs.middle(t)
            a, b = theirs.ends[t]
            if a == b and len(theirs.at[a]) == 2:
                at_bigon += _start_face(theirs, *theirs.walk(t)) in bigons
            ours.delete(t)
            theirs.delete(t)
        assert ours.longest() is None
    assert at_bigon


@pytest.mark.parametrize("mult, match", [
    ({0: -1}, "non-negative integer"),
    ({0: 1.5}, "non-negative integer"),
    ({0: Fraction(2)}, "non-negative integer"),
    ({12: 1}, "not an edge"),
    ({"0": 1}, "not an edge"),
])
def test_expand_parallel_rejects_bad_multiplicities(mult, match):
    cube = prism_graph(4)
    with pytest.raises(InvalidInputError, match=match):
        expand_parallel(cube, {**{e: 1 for e in cube.edges()}, **mult})
    with pytest.raises(InvalidInputError, match=match):
        expand_parallel(cycle_graph(3), mult if 0 in mult else {0: 1, **mult})


def test_expand_parallel_rejects_bools():
    # True == 1 and isinstance(True, int), so a bool once passed for edge 1
    # or for one copy
    cube = prism_graph(4)
    with pytest.raises(InvalidInputError, match="True, not an edge"):
        expand_parallel(cube, {True: 2, 0: True})
    with pytest.raises(InvalidInputError, match="True of edge 0 is not"):
        expand_parallel(cube, {0: True})
    with pytest.raises(InvalidInputError, match="False of edge 1 is not"):
        expand_parallel(cube, {1: False})


@pytest.mark.parametrize("cost, match", [
    ({e: Fraction(1) for e in range(12) if e != 11}, "no cost given for edge 11"),
    ({e: Fraction(-5) for e in range(12)}, "negative cost -5 on edge 0"),
])
def test_expand_parallel_rejects_bad_costs(cost, match):
    # the first once raised a bare KeyError: 11, the second built a graph
    # on which the weighted extraction failed
    cube = prism_graph(4)
    with pytest.raises(InvalidInputError, match=match):
        expand_parallel(cube, {e: 2 for e in cube.edges()}, cost)
    # an edge of multiplicity 0 is deleted, and needs no cost
    g, _ = expand_parallel(cube, {e: 0 if e == 11 else 2 for e in cube.edges()},
                           {e: Fraction(1) for e in range(11)})
    assert g.edge_count == 22


def test_spanning_step_reads_no_drawn_copy():
    # the tree, its far set and its certificate run on the support's
    # threads: the copies are never drawn, nor their faces traced
    g, _ = expand_parallel(prism_graph(4), {e: 20 + e % 3 for e in range(12)})
    result = thin_spanning_tree(g)
    assert len(result.far_set) > 1 and result.certificate_distance > 1
    assert g._explicit is None and g._faces is None

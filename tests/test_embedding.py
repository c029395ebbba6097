from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thintree.atsp import discretize, expand_support_embedding, symmetrize
from thintree.dual import geometric_dual, shortest_dual_cycle
from thintree.embedding import (
    EmbeddedGraph,
    _splice,
    _trace,
    build_embedding,
    expand_parallel,
)
from thintree.errors import (
    BadTwinError,
    DisconnectedError,
    EdgeAbsentError,
    MalformedRotationError,
    OddEulerDefectError,
    ThinTreeError,
)
from thintree.flows import edge_connectivity
from thintree.genlab import (
    BASES,
    amplify,
    cycle_graph,
    lp_support_instance,
    prism_graph,
    torus_grid,
    wheel_graph,
)
from thintree.heldkarp import ATSPInstance, solve_held_karp
from thintree.oracle import brute_force_edge_connectivity
from thintree.prng import PCG32
from thintree.spanning import thin_spanning_tree
from thintree.surgery import increase_dual_girth

from .conftest import add_edge


def test_single_loop_on_sphere():
    g = build_embedding(1, [[0, 1]], [(0, 1)])
    assert g.vertex_count == 1
    assert g.edge_count == 1
    assert len(g.faces()) == 2
    assert g.genus() == 0


def test_planar_k4_faces():
    k4 = wheel_graph(3)
    assert len(k4.faces()) == 4
    assert k4.genus() == 0


def test_cube_faces_are_quads():
    cube = prism_graph(4)
    assert sorted(len(f) for f in cube.faces()) == [4] * 6
    assert cube.genus() == 0


def test_torus_grid_euler():
    t = torus_grid(3, 3)
    assert t.vertex_count == 9
    assert t.edge_count == 18
    assert len(t.faces()) == 9
    assert all(len(f) == 4 for f in t.faces())
    assert t.genus() == 1


def test_two_disjoint_triangles_genus_zero():
    a = cycle_graph(3)
    # shift the second triangle: vertices 3..5, edges 3..5
    rotations = []
    for v in range(3):
        rotations.append([2 * e + end for e, end in [(v, 0), ((v - 1) % 3, 1)]])
    for v in range(3):
        rotations.append(
            [2 * (e + 3) + end for e, end in [(v, 0), ((v - 1) % 3, 1)]])
    twins = [(2 * e, 2 * e + 1) for e in range(6)]
    g = build_embedding(6, rotations, twins)
    assert len(g.components()) == 2
    assert len(g.faces()) == 4
    assert g.genus() == 0
    assert a.genus() == 0


def test_repeated_dart_rejected():
    with pytest.raises(MalformedRotationError):
        build_embedding(2, [[0, 1], [1]], [(0, 1)])


def test_missing_dart_rejected():
    with pytest.raises(BadTwinError):
        build_embedding(2, [[0], [1, 2]], [(0, 1)])


def test_noncanonical_twin_rejected():
    with pytest.raises(BadTwinError):
        build_embedding(2, [[0, 2], [1, 3]], [(0, 3), (1, 2)])


def test_self_twin_rejected():
    with pytest.raises(BadTwinError):
        build_embedding(1, [[0, 1]], [(0, 0), (1, 1)])


def test_negative_cost_rejected():
    with pytest.raises(MalformedRotationError):
        build_embedding(1, [[0, 1]], [(0, 1)], costs={0: -1})


@pytest.mark.parametrize("cost", ["abc", None, True, "1/0"])
def test_cost_that_is_no_rational_rejected(cost):
    with pytest.raises(MalformedRotationError, match=f"bad cost {cost!r} on edge 0"):
        build_embedding(2, [[0], [1]], [(0, 1)], {0: cost})


def test_costs_are_ints_over_their_scale():
    costs = {0: "1/2", 1: Fraction(2, 3), 2: 3, 3: "0.25"}
    g = build_embedding(2, [[0, 2, 4, 6], [7, 5, 3, 1]],
                        [(0, 1), (2, 3), (4, 5), (6, 7)], costs)
    assert g.scale == 12
    assert g.edge_cost == {0: 6, 1: 8, 2: 36, 3: 3}
    assert g.total_cost() == 53
    # deletion and restriction keep the units their costs are in
    assert g.delete_edges([1]).scale == 12
    assert g.delete_edges([1]).total_cost() == 45
    apart = g.delete_edges([0, 1, 2, 3])
    assert apart.restrict_to_component([0]).scale == 12
    assert build_embedding(2, [[0], [1]], [(0, 1)], {0: 5}).scale == 1
    assert build_embedding(2, [[0], [1]], [(0, 1)]).scale == 1


def test_partial_costs_rejected():
    # costs on edge 0 of two parallel edges, none on edge 1
    with pytest.raises(MalformedRotationError, match="1 of 2 edges"):
        build_embedding(2, [[0, 2], [1, 3]], [(0, 1), (2, 3)], costs={0: 5})


def test_corrupted_rotation_raises_odd_defect():
    g = prism_graph(4)
    # cross-wire two darts of different vertices: rotation cycles no longer
    # partition by owner, and the face count parity breaks
    broken = EmbeddedGraph(g.vertex_count, dict(g.dart_owner),
                           dict(g.rotation_next))
    d0 = g.darts_at(0)[0]
    d1 = g.darts_at(1)[0]
    broken.rotation_next[d0], broken.rotation_next[d1] = (
        broken.rotation_next[d1], broken.rotation_next[d0])
    try:
        defect_is_odd = False
        broken.genus()
    except OddEulerDefectError:
        defect_is_odd = True
    # swapping successors changes F by one and flips parity
    assert defect_is_odd


def test_delete_edges_keeps_ids_and_euler():
    cube = prism_graph(4)
    h = cube.delete_edges([0, 5])
    assert h.edges() == [e for e in cube.edges() if e not in (0, 5)]
    assert h.genus() == 0
    assert h.vertex_count == 8
    # deleting a vertex star isolates it
    star = [e for e in cube.edges() if 0 in cube.endpoints(e)]
    h2 = cube.delete_edges(star)
    assert len(h2.components()) == 2
    assert h2.genus() == 0


def test_cached_queries_return_fresh_lists():
    g = prism_graph(4)
    edges, darts = g.edges(), g.darts_at(0)
    g.edges().clear()
    g.darts_at(0).append(99)
    assert g.edges() == edges
    assert g.darts_at(0) == darts


def test_isolated_vertex_has_no_darts():
    g = build_embedding(2, [[0, 1], []], [(0, 1)])
    assert g.darts_at(0) == [0, 1]
    assert g.darts_at(1) == []


def test_deletion_result_has_its_own_edges_and_connectivity():
    g = amplify(prism_graph(4), 2)
    assert edge_connectivity(g) == 6
    doomed = [d >> 1 for d in g.darts_at(0)[:2]]
    h = g.delete_edges(doomed)
    assert h.edges() == [e for e in g.edges() if e not in doomed]
    assert edge_connectivity(h) == brute_force_edge_connectivity(h) == 4
    assert edge_connectivity(g) == brute_force_edge_connectivity(g) == 6


def test_delete_missing_edge_rejected():
    with pytest.raises(ValueError):
        prism_graph(4).delete_edges([99])


def test_delete_missing_edge_raises_the_typed_error():
    cube = prism_graph(4)
    with pytest.raises(EdgeAbsentError, match=r"\[98, 99\]") as info:
        cube.delete_edges([0, 99, 98, 99])
    assert isinstance(info.value, ThinTreeError)
    assert cube.edges() == list(range(12)) and cube.genus() == 0


def test_restrict_to_component_roundtrip():
    cube = prism_graph(4)
    star = [e for e in cube.edges() if 0 in cube.endpoints(e)]
    h = cube.delete_edges(star)
    big = max(h.components(), key=len)
    sub = h.restrict_to_component(big)
    assert sub.vertex_count == 7
    assert sub.genus() == 0
    assert sub.edges() == h.edges()
    for e in sub.edges():
        su, sv = sub.endpoints(e)
        assert {big[su], big[sv]} == set(h.endpoints(e))


def squares_apart():
    """Weighted cube x2 without the copies between its two squares: two
    4-vertex components."""
    g = amplify(prism_graph(4), 2, costs=lambda new, old: new % 5 + 1)
    between = [e for e in g.edges() if {u < 4 for u in g.endpoints(e)} == {True, False}]
    return g.delete_edges(between)


def test_restrict_keeps_edge_ids_and_costs():
    h = squares_apart()
    assert [len(c) for c in h.components()] == [4, 4]
    parts = [h.restrict_to_component(c) for c in h.components()]
    for component, sub in zip(h.components(), parts):
        assert sub.vertex_count == 4
        for e in sub.edges():
            u, v = sub.endpoints(e)
            assert (component[u], component[v]) == h.endpoints(e)
            assert sub.edge_cost[e] == h.edge_cost[e]
    assert sorted(e for sub in parts for e in sub.edges()) == h.edges()
    assert sum(sub.genus() for sub in parts) == h.genus()


def test_restricted_thin_trees_span_their_components():
    h = squares_apart()
    for component in h.components():
        tree = thin_spanning_tree(h.restrict_to_component(component)).tree_edges
        assert len(tree) == len(component) - 1
        forest = h.delete_edges([e for e in h.edges() if e not in tree])
        assert component in forest.components()


def test_restrict_rejects_partial_component(cube):
    with pytest.raises(DisconnectedError):
        cube.restrict_to_component([0, 1])


def test_restrict_whole_graph_is_the_graph(cube):
    g = amplify(cube, 2, costs=lambda new, old: new % 5 + 1)
    (component,) = g.components()
    assert g.restrict_to_component(component) is g
    assert g.restrict_to_component(reversed(component)) is g
    with pytest.raises(DisconnectedError):
        g.restrict_to_component(component[:-1])


def test_expand_parallel_bigons():
    cube = prism_graph(4)
    doubled, origin = expand_parallel(cube, {e: 2 for e in cube.edges()})
    assert doubled.edge_count == 24
    assert doubled.genus() == 0
    assert sorted(len(f) for f in doubled.faces()) == [2] * 12 + [4] * 6
    assert all(origin[i] == i // 2 for i in range(24))


def test_expand_parallel_copies_share_their_edge_cost():
    cube = prism_graph(4)
    mult = {e: 1 + e % 3 for e in cube.edges()}
    cost = {e: Fraction(e + 1, 3) for e in cube.edges()}
    g, origin = expand_parallel(cube, mult, cost)
    assert g.edge_count == sum(mult.values())
    assert g.edge_cost == {i: cost[origin[i]] for i in origin}
    assert expand_parallel(cube, mult)[0].edge_cost is None


def test_expand_parallel_zero_deletes():
    cube = prism_graph(4)
    mult = {e: (0 if e == 0 else 1) for e in cube.edges()}
    g, origin = expand_parallel(cube, mult)
    assert g.edge_count == 11
    assert 0 not in set(origin.values())


def assert_seeded_memos_match_a_cold_walk(g):
    """The memos expand_parallel seeds from the support equal what a fresh
    graph with the same rotation system and costs measures on its copies."""
    cold = EmbeddedGraph(g.vertex_count, dict(g.dart_owner), dict(g.rotation_next),
                         None if g.edge_cost is None else dict(g.edge_cost))
    assert g.edges() == cold.edges()
    assert g.components() == cold.components()
    assert g.genus() == cold.genus()
    assert g.pair_counts() == cold.pair_counts()
    assert g.total_cost() == cold.total_cost()
    assert edge_connectivity(g) == edge_connectivity(cold)


@st.composite
def multiplied_bases(draw):
    """A genlab base (or the 3x3 torus grid) with a multiplicity 0-6 and a
    cost per edge."""
    name = draw(st.sampled_from(sorted(BASES) + ["torus"]))
    if name == "torus":
        base = torus_grid(3, 3)
    else:
        base = BASES[name](draw(st.integers(min_value=3, max_value=6)))
    mult = {e: draw(st.integers(min_value=0, max_value=6)) for e in base.edges()}
    cost = {e: Fraction(draw(st.integers(0, 20)), draw(st.integers(1, 4)))
            for e in base.edges()}
    return base, mult, cost


@given(multiplied_bases())
@settings(max_examples=60, deadline=None)
def test_expansion_memos_match_the_copies(case):
    base, mult, cost = case
    g, _ = expand_parallel(base, mult, cost)
    assert_seeded_memos_match_a_cold_walk(g)


@pytest.mark.usefixtures("oracle_checked_held_karp")
@pytest.mark.parametrize("n", [8, 10, 12])
def test_lp_support_expansion_memos_match_the_copies(n):
    matrix, emb = lp_support_instance(n, PCG32(1))
    inst = ATSPInstance.from_matrix(matrix)
    y, c_prime = symmetrize(solve_held_karp(inst), inst)
    mult, _ = discretize(y, 60)
    g, _ = expand_support_embedding(emb, mult, c_prime)
    assert_seeded_memos_match_a_cold_walk(g)


# --- randomized rotation systems -------------------------------------

@st.composite
def rotation_systems(draw):
    """Arbitrary valid rotation system: random dart ownership + orders."""
    n_edges = draw(st.integers(min_value=1, max_value=8))
    n_vertices = draw(st.integers(min_value=1, max_value=5))
    darts = list(range(2 * n_edges))
    owners = [draw(st.integers(min_value=0, max_value=n_vertices - 1))
              for _ in darts]
    rotations = [[] for _ in range(n_vertices)]
    for d, v in zip(darts, owners):
        rotations[v].append(d)
    for rotation in rotations:
        perm = draw(st.permutations(rotation))
        rotation[:] = perm
    twins = [(2 * e, 2 * e + 1) for e in range(n_edges)]
    return build_embedding(n_vertices, rotations, twins)


@given(rotation_systems())
@settings(max_examples=200, deadline=None)
def test_any_rotation_system_has_integer_genus(g):
    assert g.genus() >= 0


@given(rotation_systems())
@settings(max_examples=200, deadline=None)
def test_faces_partition_darts(g):
    darts = sorted(d for f in g.faces() for d in f)
    assert darts == sorted(g.dart_owner)


def cycles_of_phi(darts, rotation_next):
    """Each dart's cycle of phi, walked from it and turned to start at its
    smallest dart, sorted."""
    cycles = set()
    for d0 in darts:
        walk = [d0]
        d = rotation_next[d0 ^ 1]
        while d != d0:
            walk.append(d)
            d = rotation_next[d ^ 1]
        i = walk.index(min(walk))
        cycles.add(tuple(walk[i:] + walk[:i]))
    return sorted(cycles)


@given(rotation_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_partial_traces_walk_their_faces(g, data):
    """A trace of some faces' darts, on the graph and after a deletion
    that leaves dart ids unused, gives those faces; the whole trace fills
    the map it is handed."""
    edges = g.edges()
    doomed = data.draw(st.sets(st.sampled_from(edges), max_size=len(edges)))
    for h in (g, g.delete_edges(doomed)):
        faces = h.faces()
        chosen = data.draw(st.sets(st.sampled_from(faces), max_size=len(faces))
                           if faces else st.just(set()))
        darts = {d for f in chosen for d in f}
        assert _trace(darts, h.rotation_next) == sorted(chosen)
        assert _trace(darts, h.rotation_next) == cycles_of_phi(darts, h.rotation_next)
        face_of = [None] * (2 * max(edges) + 2)
        assert _trace(h.dart_owner, h.rotation_next, face_of) == faces
        assert face_of[:len(h.face_of_dart())] == h.face_of_dart()


@given(rotation_systems(), st.data())
@settings(max_examples=100, deadline=None)
def test_deletion_preserves_validity(g, data):
    edges = g.edges()
    doomed = data.draw(st.sets(st.sampled_from(edges), max_size=len(edges)))
    h = g.delete_edges(doomed)
    assert h.genus() >= 0
    assert len(h.edges()) == len(edges) - len(doomed)


def reference_splice(g, gone):
    """The rotations of g without the darts ``gone``, each vertex's
    rotation walked round with the deleted darts skipped, and the number of
    vertices that lost every dart."""
    rot, bare = {}, 0
    for v in range(g.vertex_count):
        darts = g.darts_at(v)
        kept = [d for d in darts if d not in gone]
        if darts and not kept:
            bare += 1
        rot.update(zip(kept, kept[1:] + kept[:1]))
    return rot, bare


@given(rotation_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_splice_matches_a_walk_round_each_vertex(g, data):
    edges = g.edges()
    doomed = set(data.draw(st.sets(st.sampled_from(edges), max_size=len(edges))))
    for v in data.draw(st.sets(st.integers(0, g.vertex_count - 1))):
        doomed.update(d >> 1 for d in g.darts_at(v))  # every edge at v
    gone = {d for e in doomed for d in (2 * e, 2 * e + 1)}
    walks = [f for f in g.faces() if gone.intersection(f)]
    rot = dict(g.rotation_next)
    survivors, bare = _splice(rot, gone, walks)
    expected, expected_bare = reference_splice(g, gone)
    assert rot == expected
    assert sorted(survivors) == sorted(d for w in walks for d in w if d not in gone)
    assert bare == expected_bare


# --- deletion seeds its memos from the graph it deletes from ------------

def assert_deletion_memos_match_a_cold_walk(h):
    """Every measurement of h, whose memos delete_edges seeded, equals what
    a fresh graph over copies of h's maps measures from scratch."""
    cold = EmbeddedGraph(h.vertex_count, dict(h.dart_owner), dict(h.rotation_next),
                         None if h.edge_cost is None else dict(h.edge_cost))
    assert h.faces() == cold.faces()
    assert h.face_of_dart() == cold.face_of_dart()
    assert h.pair_counts() == cold.pair_counts()
    assert h.components() == cold.components()
    assert h.edges() == cold.edges()
    assert h.genus() == cold.genus()
    assert h.total_cost() == cold.total_cost()


def _costed(g, draw):
    if g.edge_cost is None:
        g.edge_cost = {e: Fraction(draw(st.integers(0, 9)), draw(st.integers(1, 3)))
                       for e in g.edges()}
    return g


@st.composite
def graphs_to_delete_from(draw):
    """A genlab base, the torus grid, an expand_parallel multigraph, the
    handle instance of the surgery tests or an arbitrary rotation system
    (loops, isolated vertices), each with costs."""
    kind = draw(st.sampled_from(["base", "torus", "expanded", "handle", "rotation"]))
    if kind == "base":
        name = draw(st.sampled_from(sorted(BASES)))
        g = BASES[name](draw(st.integers(min_value=3, max_value=6)))
    elif kind == "torus":
        g = torus_grid(3, draw(st.integers(min_value=3, max_value=4)))
    elif kind == "expanded":
        base, mult, cost = draw(multiplied_bases())
        if not any(mult.values()):
            mult[base.edges()[0]] = 1
        g, _ = expand_parallel(base, mult, cost)
    elif kind == "handle":
        g = add_edge(amplify(prism_graph(4), draw(st.integers(1, 3))), 0, 2, 0, 0)
    else:
        g = draw(rotation_systems())
    return _costed(g, draw)


@st.composite
def deletions(draw, g):
    """Edge ids to delete from g, repeated ids allowed: one edge, a whole
    bundle, the shortest dual cycle, every edge at a vertex, a cut that
    splits a component, the loops, or any set."""
    edges = g.edges()
    kind = draw(st.sampled_from(
        ["single", "bundle", "dual cycle", "star", "bond", "loops", "any"]))
    if kind == "single":
        doomed = [draw(st.sampled_from(edges))]
    elif kind == "bundle":
        ends = set(g.endpoints(draw(st.sampled_from(edges))))
        doomed = [e for e in edges if set(g.endpoints(e)) == ends]
    elif kind == "dual cycle":
        found = shortest_dual_cycle(geometric_dual(g))
        doomed = list(found[1]) if found else [edges[0]]
    elif kind == "star":
        v = g.endpoints(draw(st.sampled_from(edges)))[0]
        doomed = [e for e in edges if v in g.endpoints(e)]
    elif kind == "bond":
        component = max(g.components(), key=len)
        side = set(draw(st.lists(st.sampled_from(component), min_size=1)))
        doomed = [e for e in edges
                  if len({u in side for u in g.endpoints(e)}) == 2]
    elif kind == "loops":
        doomed = [e for e in edges if len(set(g.endpoints(e))) == 1]
    else:
        doomed = draw(st.lists(st.sampled_from(edges), max_size=len(edges)))
    if doomed and draw(st.booleans()):
        doomed += draw(st.lists(st.sampled_from(doomed), min_size=1, max_size=3))
    return doomed


@given(graphs_to_delete_from(), st.booleans(), st.data())
@settings(max_examples=250, deadline=None)
def test_deletion_memos_match_a_cold_walk(g, warm, data):
    """Up to three deletions in a row, from a graph whose memos are all
    filled or from a copy whose memos were never filled."""
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if not g.edges():
            break
        doomed = data.draw(deletions(g))
        if warm:
            for measure in (g.faces, g.pair_counts, g.edges, g.genus):
                measure()
        else:
            g = EmbeddedGraph(g.vertex_count, dict(g.dart_owner),
                              dict(g.rotation_next), dict(g.edge_cost))
        h = g.delete_edges(doomed)
        if warm:
            assert h._faces is not None and h._pairs is not None
        assert_deletion_memos_match_a_cold_walk(h)
        g = h


def components_by_dart_walk(g):
    """Components by a depth-first search from each dart to its twin's
    owner, sharing no code with EmbeddedGraph.components."""
    adjacent = [set() for _ in range(g.vertex_count)]
    for d, v in g.dart_owner.items():
        adjacent[v].add(g.dart_owner[d ^ 1])
    seen = set()
    out = []
    for s in range(g.vertex_count):
        if s in seen:
            continue
        seen.add(s)
        stack, component = [s], []
        while stack:
            v = stack.pop()
            component.append(v)
            for w in adjacent[v] - seen:
                seen.add(w)
                stack.append(w)
        out.append(sorted(component))
    return out


@given(rotation_systems(), st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=200, deadline=None)
def test_components_match_a_dart_walk(g, isolated, data):
    """Loops, isolated vertices (some added at the end, some left by a
    deletion) and parallel edges."""
    rotations = [g.darts_at(v) for v in range(g.vertex_count)] + [[]] * isolated
    g = build_embedding(len(rotations), rotations,
                        [(2 * e, 2 * e + 1) for e in g.edges()])
    assert g.components() == components_by_dart_walk(g)
    doomed = data.draw(st.lists(st.sampled_from(g.edges())))
    h = g.delete_edges(doomed)
    assert h.components() == components_by_dart_walk(h)


# --- the dart -> face map, traced with the faces and shared -------------

def face_of_dart_by_double_loop(g):
    """The dart -> face list built from g.faces() by visiting every dart of
    every face, the way face_of_dart built it before it was memoised."""
    edges = g.edges()
    owner = [None] * (2 * edges[-1] + 2 if edges else 0)
    for i, walk in enumerate(g.faces()):
        for d in walk:
            owner[d] = i
    return owner


@given(rotation_systems(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_face_map_matches_a_double_loop_through_deletions(g, warm, data):
    """Traced at parse, then up to three deletions from a graph whose map
    was read (so delete_edges seeds the faces) or never traced."""
    assert g.face_of_dart() == face_of_dart_by_double_loop(g)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        edges = g.edges()
        if not edges:
            break
        doomed = data.draw(st.sets(st.sampled_from(edges), max_size=len(edges)))
        if warm:
            g.face_of_dart()
        else:
            g = EmbeddedGraph(g.vertex_count, dict(g.dart_owner), dict(g.rotation_next))
        h = g.delete_edges(doomed)
        assert h.face_of_dart() is h.face_of_dart()
        assert h.face_of_dart() == face_of_dart_by_double_loop(h)
        g = h


@pytest.mark.usefixtures("oracle_checked_held_karp")
@pytest.mark.parametrize("n", [8, 10])
def test_drawn_copies_face_map_matches_a_double_loop(n):
    """A bundled lp-support multigraph reads the map of its drawn copies,
    traced by explicit(), and after a deletion the map built from the
    faces the drawn graph's delete_edges seeded."""
    matrix, emb = lp_support_instance(n, PCG32(1))
    inst = ATSPInstance.from_matrix(matrix)
    y, c_prime = symmetrize(solve_held_karp(inst), inst)
    mult, _ = discretize(y, 60)
    g, _ = expand_support_embedding(emb, mult, c_prime)
    for _ in range(2):
        drawn = g.explicit()
        assert g.face_of_dart() is drawn.face_of_dart()
        assert g.face_of_dart() == face_of_dart_by_double_loop(drawn)
        g = g.delete_edges(g.edges()[::3])


@given(rotation_systems(), st.integers(min_value=2, max_value=4))
@settings(max_examples=100, deadline=None)
def test_surgery_result_face_map_matches_a_double_loop(g, q):
    g = amplify(g, q)
    assume(g.vertex_count >= 2 and g.is_connected() and g.genus() > 0)
    h, _ = increase_dual_girth(g, edge_connectivity(g))
    assert h.face_of_dart() == face_of_dart_by_double_loop(h)


def test_surgery_and_the_spanning_step_leave_the_face_map_as_it_was():
    """The dual of g shares g's map, and surgery edits its own copy."""
    planar = amplify(prism_graph(4), 3)
    handled = add_edge(add_edge(planar, 0, 2, 0, 0), 4, 6, 0, 0)  # genus 2
    for g in (planar, handled):
        face_of = g.face_of_dart()
        before = list(face_of)
        if g.genus():
            _, log = increase_dual_girth(g, edge_connectivity(g))
            assert log.iterations
        thin_spanning_tree(g)
        assert g.face_of_dart() is face_of
        assert face_of == before

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from thintree.atsp import discretize, expand_support_embedding, symmetrize
from thintree.dual import (
    DualGraph,
    Thread,
    dual_girth,
    find_threads,
    geometric_dual,
)
from thintree.embedding import build_embedding
from thintree.errors import DegreeOneVertexError, DisconnectedError, NoLongThreadError
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
from thintree.oracle import brute_force_thinness
from thintree.prng import PCG32
from thintree.spanning import (
    ThreadGraph,
    alpha,
    middle_edge,
    select_far_edge_set,
    thin_spanning_tree,
)

from .conftest import add_edge
from .dual_helpers import kind, neighbor_core_threads, neighbor_find_threads
from .test_dual import dual_degrees, dual_edge_ids, dual_graphs, oracle_edge_distances
from .test_embedding import rotation_systems


def bond(width):
    return amplify(build_embedding(2, [[0], [1]], [(0, 1)]), width)


# --- alpha -----------------------------------------------------------

def test_alpha_paper_values():
    assert alpha(0) == 5
    assert alpha(1) == 6
    assert alpha(3) == 8


def test_alpha_matches_float_formula():
    for genus in range(200):
        expected = 4 + math.floor(2 * math.log2(genus + 1.5))
        assert alpha(genus) == expected


def test_alpha_rejects_negative():
    with pytest.raises(ValueError):
        alpha(-1)


# --- threads ---------------------------------------------------------

def test_whole_cycle_component_is_one_thread():
    d = geometric_dual(bond(8))  # C8
    threads = find_threads(d)
    assert [(kind(t), t.length) for t in threads] == [("cycle", 8)]


def test_theta_graph_threads():
    theta = DualGraph(8, [
        (0, 0, 2), (1, 2, 1),
        (2, 0, 3), (3, 3, 4), (4, 4, 1),
        (5, 0, 5), (6, 5, 6), (7, 6, 7), (8, 7, 1)])
    threads = find_threads(theta)
    assert sorted((kind(t), t.length) for t in threads) == [
        ("path", 2), ("path", 3), ("path", 4)]


def test_octahedron_trivial_threads(cube):
    threads = find_threads(geometric_dual(cube))
    assert sorted(t.length for t in threads) == [1] * 12
    assert all(kind(t) == "path" for t in threads)


def test_lollipop_cycle_thread():
    # branch vertex 0 with a pendant cycle 0-1-2-0 and a doubled edge to 3
    d = DualGraph(4, [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 3), (4, 0, 3)])
    threads = find_threads(d)
    kinds = sorted((kind(t), t.length) for t in threads)
    assert kinds == [("cycle", 2), ("cycle", 3)]


def test_loop_at_branch_vertex_is_length_one_cycle():
    d = DualGraph(2, [(0, 0, 0), (1, 0, 1), (2, 0, 1)])
    threads = find_threads(d)
    assert sorted((kind(t), t.length) for t in threads) == [
        ("cycle", 1), ("cycle", 2)]


def test_threads_partition_edges():
    for g in [bond(9), amplify(prism_graph(4), 3), torus_grid(3, 4)]:
        d = geometric_dual(g)
        threads = find_threads(d)
        edges = sorted(e for t in threads for e in t.edges)
        assert edges == dual_edge_ids(d)


def test_degree_one_precondition():
    d = DualGraph(3, [(0, 0, 1), (1, 1, 2)])
    with pytest.raises(DegreeOneVertexError):
        find_threads(d)


def test_core_threads_peel_pendant_faces():
    # a triangle on faces 0, 1, 2 with a pendant face 3 on face 0
    d = DualGraph(4, [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 3)])
    with pytest.raises(DegreeOneVertexError):
        find_threads(d)
    assert [(kind(t), t.edges) for t in d.core_threads()] == [("cycle", (0, 1, 2))]
    assert d._pendant == [3]


def with_empty_loops(g, places):
    """g with one new loop per (vertex, position): its two darts sit next
    to each other in the vertex's rotation, so one of its sides is a face
    of its own, a pendant face of the dual."""
    rotations = [g.darts_at(v) for v in range(g.vertex_count)]
    e = max(g.edges(), default=-1) + 1
    for v, pos in places:
        at = rotations[v % g.vertex_count]
        at[pos % (len(at) + 1):pos % (len(at) + 1)] = [2 * e, 2 * e + 1]
        e += 1
    twins = [(d, d + 1) for at in rotations for d in at if not d & 1]
    return build_embedding(g.vertex_count, rotations, twins)


@st.composite
def dart_walk_graphs(draw):
    """A random rotation system (loops and bonds, whose duals are closed
    chains, included), amplified, with empty loops added and some edges
    deleted."""
    g = amplify(draw(rotation_systems()), draw(st.integers(1, 3)))
    places = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 20)), max_size=3))
    g = with_empty_loops(g, places)
    return g.delete_edges(draw(st.sets(st.sampled_from(g.edges()))))


def assert_dart_walk_matches_neighbor_maps(d):
    threads, pendant, loops = neighbor_core_threads(d.face_count, d.dual_edges)
    assert d.core_threads() == tuple(threads)
    assert d._pendant == pendant
    assert d.loops == loops
    try:
        expected = neighbor_find_threads(d.face_count, d.dual_edges)
    except DegreeOneVertexError:
        with pytest.raises(DegreeOneVertexError):
            find_threads(d)
    else:
        assert find_threads(d) == expected


@given(dart_walk_graphs())
@settings(max_examples=300, deadline=None)
def test_dart_walk_matches_neighbor_maps(g):
    assert_dart_walk_matches_neighbor_maps(geometric_dual(g))


@given(dual_graphs())
@settings(max_examples=200, deadline=None)
def test_dart_walk_matches_neighbor_maps_on_any_dual(d):
    assert_dart_walk_matches_neighbor_maps(d)


def test_empty_loop_is_a_pendant_dual_edge(cube):
    d = geometric_dual(with_empty_loops(amplify(cube, 2), [(0, 0)]))
    d.core_threads()
    assert d._pendant == [24]
    assert_dart_walk_matches_neighbor_maps(d)


def two_core(d):
    """The edges of d's 2-core: every edge at a face of degree 1 dropped,
    until none is left."""
    edges = d.dual_edges
    while True:
        degree = dual_degrees(DualGraph(d.face_count, edges))
        kept = [x for x in edges if degree[x[1]] != 1 and degree[x[2]] != 1]
        if kept == edges:
            return {e for e, _, _ in edges}
        edges = kept


@given(dual_graphs())
@settings(max_examples=200, deadline=None)
def test_core_threads_are_the_threads_of_the_rebuilt_core(d):
    threads = d.core_threads()
    core = [e for t in threads for e in t.edges]
    assert sorted(d._pendant + core) == dual_edge_ids(d)
    assert set(core) == two_core(d)
    pendant = set(d._pendant)
    rebuilt = DualGraph(d.face_count, [x for x in d.dual_edges if x[0] not in pendant])
    assert list(threads) == find_threads(rebuilt)


def test_threads_found_once_per_dual(monkeypatch):
    import thintree.dual
    import thintree.spanning

    duals, calls = [], []
    real_dual, real_find = thintree.spanning.geometric_dual, thintree.dual.find_threads
    monkeypatch.setattr(thintree.spanning, "geometric_dual",
                        lambda g: duals.append(real_dual(g)) or duals[-1])
    monkeypatch.setattr(thintree.dual, "find_threads",
                        lambda d: calls.append(d) or real_find(d))
    r = thin_spanning_tree(amplify(prism_graph(4), 12))
    assert r.g_star > 2 * r.alpha  # the far-set selection ran
    assert len(duals) == len(calls) == 1


def test_middle_edge_deterministic():
    # faces 3 and 7 are joined by edges 0 and 1 and by the path 3-6-5-7;
    # the thread through either of its inner faces runs from face 3
    d = DualGraph(8, [(0, 3, 7), (1, 3, 7), (2, 3, 6), (9, 6, 5), (4, 5, 7)])
    for f in (5, 6):
        (t,) = [t for t in find_threads(d) if f in t.vertices]
        assert (t.edges, t.vertices) == ((2, 9, 4), (3, 6, 5, 7))
        assert middle_edge(t) == 9
    # from face 1: position ceil(2/2) = 1 -> first edge
    d = DualGraph(6, [(0, 1, 3), (1, 1, 3), (4, 1, 5), (9, 5, 3)])
    (even,) = [t for t in find_threads(d) if 5 in t.vertices]
    assert (even.edges, even.vertices) == ((4, 9), (1, 5, 3))
    assert middle_edge(even) == 4


# --- far edge set ----------------------------------------------------

def test_far_set_on_cycle_dual_selects_single_bond_edge():
    g = bond(9)
    d = geometric_dual(g)
    assert dual_girth(d) == 9
    far = select_far_edge_set(d, 9, 5)
    assert len(far) == 1
    assert far[0] in g.edges()


def test_no_long_thread_surfaces_loudly(cube):
    d = geometric_dual(cube)  # octahedron: all threads have length 1
    with pytest.raises(NoLongThreadError):
        select_far_edge_set(d, 100, 5)


def test_far_set_hits_every_dual_cycle(cube):
    for g in [amplify(cube, 2), amplify(cube, 4), torus_grid(3, 3)]:
        d = geometric_dual(g)
        g_star = dual_girth(d)
        a = alpha(g.genus())
        far = select_far_edge_set(d, g_star, a)
        # the far set must cross every cut, i.e. (V, far) is connected+spanning
        from thintree.spanning import _bfs_spanning_tree
        tree = _bfs_spanning_tree(g, far)
        assert len(tree) == g.vertex_count - 1


def test_far_set_with_girth_one_dual_loops():
    # one-vertex torus map: both dual edges are loops (g* = 1); every dual
    # cycle must still receive an edge, so both get selected
    g = build_embedding(1, [[0, 2, 1, 3]], [(0, 1), (2, 3)])
    d = geometric_dual(g)
    assert select_far_edge_set(d, 1, alpha(1)) == [0, 1]


def test_threads_satisfy_shape_invariants():
    for g in [bond(8), amplify(prism_graph(4), 3), amplify(torus_grid(3, 3), 2)]:
        d = geometric_dual(g)
        degree = dual_degrees(d)
        for t in find_threads(d):
            for v in t.vertices[1:-1]:
                assert degree[v] == 2
            if kind(t) == "path":
                assert t.vertices[0] != t.vertices[-1]
                assert degree[t.vertices[0]] >= 3
                assert degree[t.vertices[-1]] >= 3
            else:
                assert t.vertices[0] == t.vertices[-1]
                off = [v for v in set(t.vertices) if degree[v] != 2]
                assert len(off) <= 1


def test_far_set_distances_cube12(cube):
    g = amplify(cube, 12)
    d = geometric_dual(g)
    far = select_far_edge_set(d, 36, 5)
    distances = oracle_edge_distances(d)
    worst = min(distances[e, f] for e in far for f in far if e != f)
    # non-vacuous regime: the run must achieve at least ceil(g*/(2 alpha))
    assert worst >= math.ceil(Fraction(36, 10))


# --- thin spanning tree ----------------------------------------------

def test_doubled_cube_vacuous_branch(cube):
    g = amplify(cube, 2)
    r = thin_spanning_tree(g)
    assert r.g_star == 6
    assert r.alpha == 5
    assert r.thinness_bound == Fraction(10, 6)
    assert r.certificate_distance == 1
    assert r.far_set == tuple(g.edges())
    assert len(r.tree_edges) == 7
    report = brute_force_thinness(g, r.tree_edges)
    assert report.max_ratio <= 1


@pytest.mark.parametrize("q", [6, 12, 24])
def test_cube_amplified_certificates(cube, q):
    g = amplify(cube, q)
    r = thin_spanning_tree(g)
    assert r.g_star == 3 * q
    assert r.thinness_bound == Fraction(10, 3 * q)
    report = brute_force_thinness(g, r.far_set)
    assert report.max_ratio <= Fraction(1, r.certificate_distance)
    tree_report = brute_force_thinness(g, r.tree_edges)
    assert tree_report.max_ratio <= Fraction(10, 3 * q)


def test_cycle_amplified(cube):
    g = amplify(cycle_graph(6), 12)
    r = thin_spanning_tree(g)
    assert r.g_star == 24  # dual girth of C_n is 2, amplified by 12
    report = brute_force_thinness(g, r.tree_edges)
    assert report.max_ratio <= Fraction(2 * 5, r.g_star)


def test_far_set_can_exceed_tree_and_is_pruned():
    g = amplify(torus_grid(3, 3), 12)
    r = thin_spanning_tree(g)
    assert len(r.far_set) == 10  # more than |V| - 1 = 8
    assert len(r.tree_edges) == 8
    assert set(r.tree_edges) < set(r.far_set)


def test_tree_is_subset_of_far_set(cube):
    for q in (2, 6, 12):
        r = thin_spanning_tree(amplify(cube, q))
        assert set(r.tree_edges) <= set(r.far_set)


@pytest.mark.parametrize("base, n, q", [("cube", 0, 8), ("wheel", 6, 8), ("prism", 5, 8),
                                        ("prism", 6, 20)])
def test_planar_tree_floors_its_search_at_a_measured_k(monkeypatch, base, n, q):
    """On a planar graph whose dual it builds, the spanning step floors the
    girth search at the edge connectivity once k is measured on the graph,
    and otherwise runs the full search without measuring k."""
    import thintree.dual

    searches = []
    real = thintree.dual._chain_distance
    monkeypatch.setattr(thintree.dual, "_chain_distance",
                        lambda *a: searches.append(a) or real(*a))

    def counted(fn, *args):
        del searches[:]
        return fn(*args), len(searches)

    fresh = amplify(BASES[base](n), q)
    r, unmeasured = counted(thin_spanning_tree, fresh)
    assert fresh._connectivity is None  # the spanning step measured no k
    measured = amplify(BASES[base](n), q)
    k = edge_connectivity(measured)
    s, spanning = counted(thin_spanning_tree, measured)
    h = amplify(BASES[base](n), q)
    _, floored = counted(dual_girth, geometric_dual(h), k)
    _, full = counted(dual_girth, geometric_dual(h))
    assert r.g_star == s.g_star == k
    assert (r.tree_edges, r.far_set) == (s.tree_edges, s.far_set)
    assert spanning == floored < full == unmeasured


def test_disconnected_rejected():
    rotations = [[0], [1], [2], [3]]
    g = build_embedding(4, rotations, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        thin_spanning_tree(g)


@given(rotation_systems())
@settings(max_examples=150, deadline=None)
def test_certificate_sound_on_random_embeddings(g):
    """End-to-end soundness on arbitrary rotation systems: the certified
    1/m thinness of the far set always dominates the exhaustive oracle."""
    if not g.is_connected() or g.vertex_count < 2:
        return
    r = thin_spanning_tree(g)
    assert len(r.tree_edges) == g.vertex_count - 1
    assert set(r.tree_edges) <= set(r.far_set)
    report = brute_force_thinness(g, r.far_set)
    assert report.max_ratio <= Fraction(1, r.certificate_distance)


def test_bridge_graph_girth_one_vacuous():
    # path of two edges: both are bridges, dual girth 1, bound vacuous
    from thintree.embedding import build_embedding
    g = build_embedding(3, [[0], [1, 2], [3]], [(0, 1), (2, 3)])
    r = thin_spanning_tree(g)
    assert r.g_star == 1
    assert sorted(r.tree_edges) == [0, 1]


def test_distance_preservation_during_loop(cube):
    """Replay the selection loop and recompute all pairwise distances per
    iteration: pairs closer than g*/alpha must keep their distance until one
    of them is deleted."""
    g = amplify(cube, 6)
    d = geometric_dual(g)
    g_star = dual_girth(d)
    a = alpha(g.genus())
    close = Fraction(g_star, a)

    live, deleted = ThreadGraph(d), set()
    previous = None
    while (best := live.longest()) is not None:
        core = {e for t in rest_of(d, deleted).core_threads() for e in t.edges}
        current = oracle_edge_distances(
            DualGraph(d.face_count, [x for x in d.dual_edges if x[0] in core]))
        if previous is not None:
            for pair, dist in previous.items():
                if dist < close and pair in current:
                    assert current[pair] == dist, (pair, dist, current[pair])
        previous = current
        delete_both(live, deleted, best, live.middle(best))


# --- threads kept up to date across rounds ---------------------------

def _selection_key(t):
    return (t.length, -min(t.edges))


def as_thread(live, t):
    """Live thread t of the thread graph, edge by edge, in its walk
    direction."""
    chain, start = live.walk(t)
    edges, verts = [], []
    for c, forward in chain:
        core = live.core[c]
        edges += core.edges if forward else core.edges[::-1]
        verts += core.vertices[:-1] if forward else core.vertices[:0:-1]
        end = core.vertices[-1] if forward else core.vertices[0]
    edges = edges[start:] + edges[:start]
    verts = verts[start:] + verts[:start] + [verts[start] if start else end]
    return Thread(tuple(edges), tuple(verts))


def rest_of(d, deleted):
    """The oracle: a fresh DualGraph of d without the deleted edges.  Its
    ``core_threads`` peels the rest of every deleted thread away."""
    return DualGraph(d.face_count, [x for x in d.dual_edges if x[0] not in deleted])


def delete_both(live, deleted, t, e):
    """Delete live thread t from the thread graph and add its edge e to the
    oracle's deleted edges."""
    assert e in as_thread(live, t).edges
    live.delete(t)
    deleted.add(e)


def assert_threads_current(live, d, deleted):
    """The thread graph's threads, the longest one and its middle edge equal
    the threads of the oracle's rebuilt 2-core."""
    rebuilt = rest_of(d, deleted).core_threads()
    assert {as_thread(live, t) for t in live.ends} == set(rebuilt)
    best = live.longest()
    if rebuilt:
        assert as_thread(live, best) == max(rebuilt, key=_selection_key)
        assert live.middle(best) == middle_edge(as_thread(live, best))
    else:
        assert best is None


def rebuild_every_round(d, g_star, alpha_value):
    """The selection loop with every thread found again after each deletion."""
    selected = set()
    while True:
        threads = rest_of(d, selected).core_threads()
        if not threads:
            return sorted(selected)
        best = max(threads, key=_selection_key)
        if best.length * alpha_value < g_star:
            raise NoLongThreadError(best.length)
        selected.add(middle_edge(best))


HANDLE = add_edge(amplify(prism_graph(4), 2), 0, 2, 0, 0)


@st.composite
def selection_graphs(draw):
    """A random rotation system or the handled cube, amplified q times, with
    a random set of edges deleted."""
    base = draw(st.one_of(rotation_systems(), st.just(HANDLE)))
    g = amplify(base, draw(st.integers(1, 4)))
    return g.delete_edges(draw(st.sets(st.sampled_from(g.edges()))))


def replay_against_rebuild(d, data):
    """Run the thread graph to the end, each round deleting the selection's
    middle edge or any live edge (the thread graph deletes that edge's whole
    thread), and check it against the oracle after every round."""
    live, deleted = ThreadGraph(d), set()
    assert_threads_current(live, d, deleted)
    while (best := live.longest()) is not None:
        if data.draw(st.booleans()):
            t, e = best, live.middle(best)
        else:
            thread_of = {e: t for t in live.ends for e in as_thread(live, t).edges}
            e = data.draw(st.sampled_from(sorted(thread_of)))
            t = thread_of[e]
        delete_both(live, deleted, t, e)
        assert_threads_current(live, d, deleted)


@given(selection_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_live_threads_match_full_rebuild(g, data):
    replay_against_rebuild(geometric_dual(g), data)


@given(dual_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_live_threads_match_full_rebuild_on_any_dual(d, data):
    replay_against_rebuild(d, data)


def test_cycle_left_at_a_cut_face_is_anchored_at_its_smallest_face():
    # two triangles share face 3; once one goes, the other is a whole
    # component, which find_threads anchors at its smallest face 2
    d = DualGraph(5, [(0, 3, 0), (1, 0, 1), (2, 1, 3),
                      (3, 3, 2), (4, 2, 4), (5, 4, 3)])
    live, deleted = ThreadGraph(d), set()
    (t,) = [t for t in live.ends if 1 in as_thread(live, t).edges]
    delete_both(live, deleted, t, 1)
    assert {as_thread(live, t).vertices[0] for t in live.ends} == {2}
    assert_threads_current(live, d, deleted)


@given(selection_graphs())
@settings(max_examples=150, deadline=None)
def test_far_set_matches_rebuild_every_round(g):
    d = geometric_dual(g)
    assert select_far_edge_set(d, 1, 1) == rebuild_every_round(d, 1, 1)


@given(dual_graphs())
@settings(max_examples=200, deadline=None)
def test_far_set_matches_rebuild_every_round_on_any_dual(d):
    assert select_far_edge_set(d, 1, 1) == rebuild_every_round(d, 1, 1)


def lp_support_expanded(n, seed, denominator):
    """The multigraph that atsp_approx expands from lp-support seed at
    denominator D: one parallel copy per unit of D·y on the support."""
    matrix, emb = lp_support_instance(n, PCG32(seed))
    inst = ATSPInstance.from_matrix(matrix)
    y, c_prime = symmetrize(solve_held_karp(inst), inst)
    mult, _ = discretize(y, denominator)
    return expand_support_embedding(emb, mult, c_prime)[0]


# the lp-support duals join threads of many lengths at their branch faces,
# so merged paths, cycles at a branch face and whole-cycle components all
# decide a middle edge there
LP_SEEDS = range(9)


@pytest.mark.usefixtures("oracle_checked_held_karp")
@pytest.mark.parametrize("build", [
    lambda: amplify(prism_graph(4), 12),
    lambda: amplify(prism_graph(5), 8),
    lambda: amplify(torus_grid(3, 3), 6),
    lambda: amplify(HANDLE, 6),
    *(lambda s=s: lp_support_expanded(10, s, 60) for s in LP_SEEDS),
], ids=["cube x12", "prism5 x8", "torus 3x3 x6", "handle x6",
        *(f"lp-support n10 seed{s} D60" for s in LP_SEEDS)])
def test_far_set_matches_rebuild_every_round_at_girth(build):
    g = build()
    d = geometric_dual(g)
    g_star, a = dual_girth(d), alpha(g.genus())
    assert select_far_edge_set(d, g_star, a) == rebuild_every_round(d, g_star, a)


@pytest.mark.usefixtures("oracle_checked_held_karp")
@pytest.mark.parametrize("build", [
    lambda: amplify(HANDLE, 6),
    lambda: lp_support_expanded(10, 1, 60),
], ids=["handle x6", "lp-support n10 seed1 D60"])
def test_selection_leaves_the_dual_as_it_was(build):
    g = build()
    d = geometric_dual(g)
    g_star, a = dual_girth(d), alpha(g.genus())
    core = d.core_threads()
    threads = [(t.edges, t.vertices) for t in core]
    dual_edges = list(d.dual_edges)
    faces, face_of = list(d.faces), list(d.face_of)
    first = select_far_edge_set(d, g_star, a)
    assert select_far_edge_set(d, g_star, a) == first
    assert d.core_threads() is core
    assert [(t.edges, t.vertices) for t in core] == threads
    assert d.dual_edges == dual_edges
    assert d.faces == faces and d.face_of == face_of

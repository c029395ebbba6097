import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thintree.dual import (
    Cut,
    DualGraph,
    dual_girth,
    geometric_dual,
    min_pairwise_distance,
    shortest_dual_cycle,
)
from thintree.embedding import build_embedding
from thintree.errors import EdgeAbsentError, InvalidInputError, NoCycleError
from thintree.flows import edge_connectivity
from thintree.genlab import BASES, amplify, cycle_graph, prism_graph, torus_grid
from thintree.oracle import bfs_distances, brute_force_edge_connectivity
from thintree.spanning import alpha, select_far_edge_set

from .conftest import add_edge
from .dual_helpers import cut_edges, cut_to_dual_cycles
from .test_embedding import rotation_systems


def bond(width):
    """Two vertices joined by ``width`` parallel edges; dual is a cycle."""
    return amplify(build_embedding(2, [[0], [1]], [(0, 1)]), width)


def dual_edge_ids(d):
    return [e for e, _, _ in d.dual_edges]


def dual_degrees(d):
    """Edge-ends per face, read off ``dual_edges`` (a loop counts twice)."""
    degree = [0] * d.face_count
    for _, l, r in d.dual_edges:
        degree[l] += 1
        degree[r] += 1
    return degree


def test_cube_dual_is_octahedron(cube):
    d = geometric_dual(cube)
    assert d.face_count == 6
    assert len(d.dual_edges) == 12
    assert dual_degrees(d) == [4] * 6
    assert dual_girth(d) == 3


def test_dual_bijection_shares_edge_ids(cube):
    d = geometric_dual(cube)
    assert dual_edge_ids(d) == cube.edges()


def test_doubled_cube_dual_girth_doubles(cube):
    doubled = amplify(cube, 2)
    d = geometric_dual(doubled)
    assert dual_girth(d) == 6
    assert dual_girth(d) >= edge_connectivity(doubled)


def test_dual_degrees_equal_face_lengths(cube):
    doubled = amplify(cube, 2)
    d = geometric_dual(doubled)
    lengths = sorted(len(f) for f in doubled.faces())
    degrees = sorted(dual_degrees(d))
    assert degrees == lengths


def test_single_loop_dual_is_path():
    g = build_embedding(1, [[0, 1]], [(0, 1)])
    d = geometric_dual(g)
    assert d.face_count == 2
    assert len(d.dual_edges) == 1
    with pytest.raises(NoCycleError):
        dual_girth(d)


def test_dual_loop_girth_one():
    # one-vertex torus map: two interleaved loops, single face
    g = build_embedding(1, [[0, 2, 1, 3]], [(0, 1), (2, 3)])
    d = geometric_dual(g)
    assert d.faces_of(0) == (0, 0) and d.faces_of(1) == (0, 0)
    assert dual_girth(d) == 1


@pytest.mark.parametrize("face_count, dual_edges", [
    (2, [(0, 0, 5)]),           # face id beyond face_count
    (2, [(0, -1, 1)]),          # negative face id
    (3, [(-1, 0, 1)]),          # negative edge id
    (3, [(0, 0, 1), (0, 1, 2)]),  # repeated edge id
], ids=["face beyond count", "negative face", "negative edge", "repeated edge"])
def test_abstract_dual_rejects_bad_ids(face_count, dual_edges):
    with pytest.raises(InvalidInputError):
        DualGraph(face_count, dual_edges)


def test_abstract_dual_puts_edges_on_darts():
    d = DualGraph(3, [(4, 2, 0), (1, 1, 1), (0, 0, 1)])
    assert d.faces == [(9, 0), (2, 3, 1), (8,)]
    assert d.face_of == [0, 1, 1, 1, None, None, None, None, 2, 0]
    assert d.dual_edges == [(0, 0, 1), (1, 1, 1), (4, 2, 0)]
    assert d.edge_count == 3 and d.face_count == 3


def oracle_edge_distances(d):
    """Closest distance between the endpoints of every pair of dual edges,
    by the oracle's BFS; pairs in different components are left out."""
    pairs = [(a, b) for _, a, b in d.dual_edges]
    dist = {f: bfs_distances(d.face_count, pairs, f) for f in range(d.face_count)}
    out = {}
    for e, a, b in d.dual_edges:
        for f, s, t in d.dual_edges:
            found = [dist[x][y] for x in (a, b) for y in (s, t) if y in dist[x]]
            if found:
                out[e, f] = min(found)
    return out


def test_edge_distance_cases():
    d = geometric_dual(bond(6))  # dual is C6
    assert dual_girth(d) == 6
    e_ids = dual_edge_ids(d)
    oracle_dist = oracle_edge_distances(d)
    assert oracle_dist[e_ids[0], e_ids[0]] == 0
    for i, e in enumerate(e_ids):
        for f in e_ids[i + 1:]:
            assert min_pairwise_distance(d, [e, f]) == oracle_dist[e, f]
    assert max(oracle_dist.values()) == 2  # opposite edges of C6


def test_edge_distance_absent():
    d = geometric_dual(bond(3))
    with pytest.raises(EdgeAbsentError):
        min_pairwise_distance(d, [0, 99])


def test_cut_validation(cube):
    d = geometric_dual(cube)
    with pytest.raises(ValueError):
        cut_to_dual_cycles(cube, d, Cut(frozenset()))
    with pytest.raises(ValueError):
        cut_to_dual_cycles(cube, d, Cut(frozenset(range(8))))
    loop = build_embedding(1, [[0, 1]], [(0, 1)])
    with pytest.raises(ValueError):
        cut_to_dual_cycles(loop, geometric_dual(loop), Cut(frozenset({0})))


def test_single_vertex_cut_gives_triangle(cube):
    d = geometric_dual(cube)
    cycles = cut_to_dual_cycles(cube, d, Cut(frozenset({0})))
    assert len(cycles) == 1
    assert len(cycles[0]) == 3
    assert sorted(cycles[0]) == sorted(cut_edges(cube, Cut(frozenset({0}))))


def test_torus_row_cut_gives_two_noncontractible_cycles():
    t = torus_grid(3, 3)
    d = geometric_dual(t)
    cycles = cut_to_dual_cycles(t, d, Cut(frozenset({0, 1, 2})))
    assert sorted(len(c) for c in cycles) == [3, 3]
    # each 3-cycle is non-separating: deleting it keeps one component
    for cyc in cycles:
        h = t.delete_edges(cyc)
        assert len(h.components()) == 1


def closed_walk_faces(d, cycle):
    """Faces visited, in order, by the closed walk along ``cycle``, or None
    when consecutive edges do not chain back to the start."""
    l, r = d.faces_of(cycle[0])
    for start in (l, r):
        at = start
        faces = []
        for e in cycle:
            faces.append(at)
            a, b = d.faces_of(e)
            if at == a:
                at = b
            elif at == b:
                at = a
            else:
                break
        else:
            if at == start:
                return faces
    return None


def assert_closed_walk(d, cycle):
    """Consecutive edges must chain through shared faces back to the start."""
    if len(cycle) == 1:
        return  # a dual loop is a closed walk by itself
    if closed_walk_faces(d, cycle) is None:
        raise AssertionError(f"not a closed walk: {cycle}")


def test_all_cuts_decompose_exactly(cube):
    graphs = [cube, amplify(cube, 2), torus_grid(3, 3), cycle_graph(5)]
    for g in graphs:
        d = geometric_dual(g)
        n = g.vertex_count
        for mask in range((1 << (n - 1)) - 1):
            side = frozenset(
                [0] + [v for v in range(1, n) if mask >> (v - 1) & 1])
            cut = Cut(side)
            cycles = cut_to_dual_cycles(g, d, cut)
            flattened = sorted(e for c in cycles for e in c)
            assert flattened == sorted(cut_edges(g, cut))
            for cycle in cycles:
                assert_closed_walk(d, cycle)


@given(rotation_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_cut_edges_match_an_endpoint_scan(g, data):
    side = frozenset(data.draw(st.sets(st.integers(0, g.vertex_count - 1))))
    scan = [e for e in g.edges()
            if (g.endpoints(e)[0] in side) != (g.endpoints(e)[1] in side)]
    assert cut_edges(g, Cut(side)) == scan


# Exact output (cycle order and walk order) of cut_to_dual_cycles, recorded
# from the original rescanning implementation, for cuts with several cycles.
GOLDEN_CUTS = [
    ("amplified cube", [0, 1, 2, 3, 4, 6],
     [[8, 9, 11, 10, 18, 19], [12, 13, 15, 14, 22, 23]]),
    ("amplified cube", [0, 1, 3, 4, 6],
     [[2, 3, 21, 20, 5, 4], [10, 11, 9, 8, 19, 18], [12, 13, 15, 14, 22, 23]]),
    ("torus", [0, 1, 2], [[9, 11, 10], [15, 17, 16]]),
    ("torus", [0, 4, 5, 6], [[0, 3, 6], [2, 8, 5], [9, 11, 10], [12, 14, 13]]),
    ("handle", [0, 2, 3, 4, 5, 6, 7], [[0], [1, 19, 18, 3, 2]]),
    ("handle", [0, 5, 7],
     [[0], [1, 16, 17, 7, 6], [8, 9, 11, 10, 18, 19], [12, 13, 15, 14, 22, 23],
      [24]]),
]
GOLDEN_GRAPHS = {
    "amplified cube": lambda: amplify(prism_graph(4), 2),
    "torus": lambda: torus_grid(3, 3),
    "handle": lambda: add_edge(amplify(prism_graph(4), 2), 0, 2, 0, 0),
}


@pytest.mark.parametrize("name, side, expected", GOLDEN_CUTS)
def test_cut_to_dual_cycles_golden(name, side, expected):
    g = GOLDEN_GRAPHS[name]()
    d = geometric_dual(g)
    cycles = cut_to_dual_cycles(g, d, Cut(frozenset(side)))
    assert cycles == expected
    for cycle in cycles:
        faces = closed_walk_faces(d, cycle)
        assert faces is not None
        assert len(set(faces)) == len(faces), f"{cycle} revisits a face"


def test_whitney_planar_girth_equals_connectivity():
    for g in [prism_graph(3), prism_graph(4), amplify(prism_graph(4), 3),
              cycle_graph(7), amplify(cycle_graph(5), 4)]:
        assert g.genus() == 0
        assert dual_girth(geometric_dual(g)) == edge_connectivity(g)


@given(rotation_systems())
@settings(max_examples=300, deadline=None)
def test_whitney_planar_girth_equals_oracle_connectivity(g):
    # bond-cycle duality: in a connected plane multigraph the minimal edge
    # cuts are exactly the simple dual cycles (Whitney 1932)
    if not (g.genus() == 0 and g.is_connected() and g.vertex_count >= 2):
        return
    assert dual_girth(geometric_dual(g)) == brute_force_edge_connectivity(g)


# the thin-planar workload's bases, each at its smallest and largest
# multiplicity there, and the amplified cycle
PLANAR_LADDER = [("cube", 0, 8), ("cube", 0, 48), ("wheel", 6, 8), ("wheel", 6, 32),
                 ("prism", 5, 8), ("prism", 5, 32), ("prism", 6, 8), ("prism", 6, 20),
                 ("cycle", 6, 12)]


@pytest.mark.parametrize("base, n, q", PLANAR_LADDER,
                         ids=[f"{b}{n or ''}x{q}" for b, n, q in PLANAR_LADDER])
def test_floored_search_matches_the_full_search(monkeypatch, base, n, q):
    import thintree.dual

    g = amplify(BASES[base](n), q)
    k = edge_connectivity(g)
    searches = []
    real = thintree.dual._chain_distance
    monkeypatch.setattr(thintree.dual, "_chain_distance",
                        lambda *a: searches.append(a) or real(*a))
    full = shortest_dual_cycle(geometric_dual(g))
    full_searches = len(searches)
    del searches[:]
    d = geometric_dual(g)
    assert shortest_dual_cycle(d, k) == full
    assert full[0] == k  # bond-cycle duality: the floor is the girth
    assert shortest_dual_cycle(d) == full  # the memo is the full search's
    # the search stops at its first cycle of length k
    assert len(searches) < full_searches


def test_shortest_cycle_prefers_loop():
    # a loop beats any short cycle regardless of edge order
    d = DualGraph(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 1, 1)])
    assert shortest_dual_cycle(d) == (1, [3])


def test_returned_cycle_is_a_copy_of_the_memo():
    d = geometric_dual(torus_grid(3, 3))
    length, cycle = shortest_dual_cycle(d)
    kept = list(cycle)
    cycle.append(99)
    cycle.reverse()
    assert shortest_dual_cycle(d) == (length, kept)
    assert dual_girth(d) == length


def test_shortest_cycle_deterministic_anchor():
    d = DualGraph(4, [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 2, 3), (4, 3, 0)])
    length, cycle = shortest_dual_cycle(d)
    assert length == 3
    assert sorted(cycle) == [0, 1, 2]


# Exact output of shortest_dual_cycle, walk order included, recorded from
# the implementation that ran a distance search and then a path search per
# edge.  The order comes from the path read back from the search.
GOLDEN_SHORTEST_CYCLES = [
    ("cube x3", lambda: geometric_dual(amplify(prism_graph(4), 3)),
     (9, [3, 4, 5, 27, 28, 29, 2, 1, 0])),
    ("torus 3x3", lambda: geometric_dual(torus_grid(3, 3)), (3, [6, 3, 0])),
    ("torus 3x3 x2", lambda: geometric_dual(amplify(torus_grid(3, 3), 2)),
     (6, [13, 12, 7, 6, 1, 0])),
    ("prism6 x4", lambda: geometric_dual(amplify(prism_graph(6), 4)),
     (12, [4, 5, 6, 7, 52, 53, 54, 55, 3, 2, 1, 0])),
    ("handled cube", lambda: geometric_dual(GOLDEN_GRAPHS["handle"]()), (1, [0])),
    # edges 3 and 5 are parallel; the triangle 0-1-2 via edge 6 is found first
    ("parallel", lambda: DualGraph(5, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4),
                                       (4, 4, 0), (5, 4, 3), (6, 2, 0)]),
     (2, [5, 3])),
    # a K_{2,3} (three 2-chains between faces 0 and 1) beside a component
    # that is one closed 3-chain
    ("closed chain", lambda: DualGraph(8, [(0, 0, 2), (1, 2, 1), (2, 0, 3), (3, 3, 1),
                                           (4, 0, 4), (6, 4, 1), (5, 5, 6), (7, 6, 7),
                                           (8, 7, 5)]),
     (3, [8, 7, 5])),
    # a 4-chain from face 0 back to face 0, a bridge 0-4, and a 5-chain from
    # face 4 back to face 4
    ("chain back to its face", lambda: DualGraph(9, [(1, 0, 1), (3, 1, 2), (5, 2, 3),
                                                     (7, 3, 0), (0, 0, 4), (2, 4, 5),
                                                     (4, 5, 6), (6, 6, 7), (8, 7, 8),
                                                     (9, 8, 4)]),
     (4, [7, 5, 3, 1])),
    # a square 0-1-2-3 with diagonal 0-2, leaf face 4 on face 1, and a chain
    # 3-5-6 ending at leaf face 6
    ("leaf face", lambda: DualGraph(7, [(4, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0),
                                        (0, 0, 2), (5, 1, 4), (6, 3, 5), (7, 5, 6)]),
     (3, [3, 2, 0])),
    # chains of lengths 2, 4 and 3 between faces 0 and 1
    ("parallel chains", lambda: DualGraph(8, [(6, 0, 2), (1, 2, 1), (0, 0, 3), (7, 3, 4),
                                              (2, 4, 5), (3, 5, 1), (5, 0, 6), (8, 6, 7),
                                              (4, 7, 1)]),
     (5, [6, 5, 8, 4, 1])),
    # three 2-chains between faces 0 and 1 and a closed 4-chain on faces 5-8
    # all give length 4; the chain with the smallest edge (2) anchors
    ("tied chains", lambda: DualGraph(9, [(4, 0, 2), (7, 2, 1), (2, 3, 0), (9, 1, 3),
                                          (6, 1, 4), (8, 4, 0), (10, 5, 6), (11, 6, 7),
                                          (12, 7, 8), (13, 8, 5)]),
     (4, [9, 6, 8, 2])),
]


@pytest.mark.parametrize("name, build, expected", GOLDEN_SHORTEST_CYCLES,
                         ids=[c[0] for c in GOLDEN_SHORTEST_CYCLES])
def test_shortest_dual_cycle_golden(name, build, expected):
    assert shortest_dual_cycle(build()) == expected


def brute_force_girth(d):
    """Minimum over dual edges e = (l, r) of 1 + dist(l, r) without e."""
    lengths = []
    for e, l, r in d.dual_edges:
        rest = [(a, b) for other, a, b in d.dual_edges if other != e]
        dist = bfs_distances(d.face_count, rest, l)
        if r in dist:
            lengths.append(1 + dist[r])
    return min(lengths, default=None)


@given(rotation_systems())
@settings(max_examples=200, deadline=None)
def test_shortest_cycle_matches_brute_force(g):
    d = geometric_dual(g)
    found = shortest_dual_cycle(d)
    expected = brute_force_girth(d)
    if expected is None:
        assert found is None
        return
    length, cycle = found
    assert length == expected == len(cycle) == len(set(cycle))
    faces = closed_walk_faces(d, cycle)
    assert faces is not None, f"not a closed walk: {cycle}"
    assert len(set(faces)) == len(faces), f"{cycle} revisits a face"


def every_edge_shortest_cycle(d):
    """shortest_dual_cycle without the chain skip, sharing no code with it:
    one breadth-first search from l for every edge e = (l, r), in edge
    order, that avoids e, visits neighbours in edge-id order and keeps the
    first edge reaching each face; only a strictly shorter cycle replaces
    the best."""
    for e, l, r in d.dual_edges:
        if l == r:
            return 1, [e]
    adj = [[] for _ in range(d.face_count)]
    for e, l, r in sorted(d.dual_edges):
        adj[l].append((e, r))
        adj[r].append((e, l))
    best = None
    for e, l, r in sorted(d.dual_edges):
        reached_by = {l: None}
        frontier = [l]
        while frontier and r not in reached_by:
            nxt = []
            for u in frontier:
                for f, w in adj[u]:
                    if f != e and w not in reached_by:
                        reached_by[w] = f, u
                        nxt.append(w)
            frontier = nxt
        if r not in reached_by:
            continue
        path, at = [], r
        while reached_by[at] is not None:
            f, at = reached_by[at]
            path.append(f)
        if best is None or len(path) + 1 < best[0]:
            best = len(path) + 1, path[::-1] + [e]
    return best


@given(rotation_systems(), st.integers(2, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_chain_skip_matches_every_edge_search(g, q, data):
    # amplified duals are made of chains of bigon faces; deleting some
    # copies leaves residual chains of every length from 0 to q
    amplified = amplify(g, q)
    doomed = data.draw(st.sets(st.sampled_from(amplified.edges())))
    for h in (amplified, amplified.delete_edges(doomed)):
        d = geometric_dual(h)
        assert shortest_dual_cycle(d) == every_edge_shortest_cycle(d)


def brute_force_min_pairwise(d, ids):
    pairs = [(a, b) for _, a, b in d.dual_edges]
    dist = {f: bfs_distances(d.face_count, pairs, f) for f in range(d.face_count)}
    found = [dist[s][t] for i, e in enumerate(ids) for f in ids[i + 1:]
             for s in d.faces_of(e) for t in d.faces_of(f) if t in dist[s]]
    return min(found, default=None)


@pytest.mark.parametrize("build", [
    lambda: amplify(prism_graph(4), 12),
    lambda: amplify(prism_graph(5), 8),
    lambda: amplify(torus_grid(3, 3), 6),
], ids=["cube x12", "prism5 x8", "torus 3x3 x6"])
def test_far_set_min_pairwise_matches_brute_force(build):
    g = build()
    d = geometric_dual(g)
    far = select_far_edge_set(d, dual_girth(d), alpha(g.genus()))
    assert len(far) >= 2
    assert min_pairwise_distance(d, far) == brute_force_min_pairwise(d, far)


@given(rotation_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_min_pairwise_matches_brute_force_random(g, data):
    d = geometric_dual(g)
    ids = sorted(data.draw(st.sets(st.sampled_from(g.edges()))))
    assert min_pairwise_distance(d, ids) == brute_force_min_pairwise(d, ids)


@st.composite
def dual_graphs(draw):
    """Any dual multigraph: random edges on a few faces (loops and parallel
    edges included), each one a chain of 1-3 edges, under shuffled face and
    edge ids.  Pendant trees, whole-cycle components and long threads all
    occur."""
    base = draw(st.integers(1, 6))
    face = st.integers(0, base - 1)
    faces, edges = base, []
    for a, b in draw(st.lists(st.tuples(face, face), max_size=12)):
        steps = draw(st.integers(1, 3))
        chain = [a, *range(faces, faces + steps - 1), b]
        faces += steps - 1
        edges += zip(chain, chain[1:])
    name = draw(st.permutations(range(faces)))
    ids = draw(st.permutations(range(len(edges))))
    return DualGraph(faces, [(i, name[l], name[r]) for i, (l, r) in zip(ids, edges)])


@given(dual_graphs())
@settings(max_examples=300, deadline=None)
def test_shortest_cycle_matches_every_edge_search_on_any_dual(d):
    # cycle threads at branch faces, whole-cycle components and pendant
    # trees all occur; the walk order must match too
    assert shortest_dual_cycle(d) == every_edge_shortest_cycle(d)


@given(dual_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_min_pairwise_matches_brute_force_on_any_dual(d, data):
    # the edges may lie on threads, on pruned pendant trees or be loops
    ids = sorted(data.draw(st.sets(st.sampled_from(dual_edge_ids(d))))) if d.dual_edges else []
    assert min_pairwise_distance(d, ids) == brute_force_min_pairwise(d, ids)


def test_min_pairwise_reaches_into_pendant_trees():
    # cycle 0-1-2-3-0 with the path 1-4-5 hanging from the thread face 1:
    # edge 5 (4-5) and edge 2 (2-3) are 2 apart, through faces 4, 1, 2
    d = DualGraph(6, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0),
                      (4, 1, 4), (5, 4, 5)])
    assert min_pairwise_distance(d, [2, 5]) == 2
    assert min_pairwise_distance(d, [0, 5]) == 1
    assert min_pairwise_distance(d, [4, 5]) == 0


def test_min_pairwise_finds_a_shorter_pair_after_a_longer_one():
    # edges 10 and 11 hang from faces 1 and 2 of a cycle through face 6;
    # the link 1-4-5-2 of length 3 is met first, the path 1-6-2 of length
    # 2 only from face 6, at distance 1
    d = DualGraph(8, [(10, 0, 1), (11, 2, 3), (12, 1, 4), (13, 4, 5),
                      (14, 5, 2), (15, 1, 6), (16, 6, 2), (17, 6, 7), (18, 7, 6)])
    assert min_pairwise_distance(d, [10, 11]) == 2 == brute_force_min_pairwise(d, [10, 11])


@given(rotation_systems())
@settings(max_examples=200, deadline=None)
def test_dual_edge_bijection_random(g):
    d = geometric_dual(g)
    assert dual_edge_ids(d) == g.edges()
    assert sum(dual_degrees(d)) == 2 * g.edge_count


@given(rotation_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_random_cut_decomposition(g, data):
    if not (g.is_connected() and g.vertex_count >= 2):
        return
    d = geometric_dual(g)
    side = data.draw(st.sets(st.integers(0, g.vertex_count - 1),
                             min_size=1, max_size=g.vertex_count - 1))
    cut = Cut(frozenset(side))
    cycles = cut_to_dual_cycles(g, d, cut)
    assert sorted(e for c in cycles for e in c) == sorted(cut_edges(g, cut))


@given(rotation_systems(), st.data())
@settings(max_examples=100, deadline=None)
def test_edge_distance_symmetric_and_near_triangle(g, data):
    edges = g.edges()
    if not g.is_connected() or len(edges) < 3:
        return
    d = geometric_dual(g)
    e, f, h = (data.draw(st.sampled_from(edges)) for _ in range(3))
    oracle_dist = oracle_edge_distances(d)

    def dist(a, b):
        return 0 if a == b else min_pairwise_distance(d, [a, b])

    for a, b in ((e, f), (f, h), (e, h)):
        assert dist(a, b) == oracle_dist[a, b] == oracle_dist[b, a]
    # midpoint metric: d(e,h) <= d(e,f) + d(f,h) + 1
    assert dist(e, h) <= dist(e, f) + dist(f, h) + 1

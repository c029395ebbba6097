from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

import thintree
from thintree import pipeline
from thintree.dual import (
    Cut,
    DualGraph,
    dual_girth,
    geometric_dual,
    shortest_dual_cycle,
)
from thintree.embedding import _components, build_embedding
from thintree.errors import (
    DualMismatchError,
    EdgeAbsentError,
    InvalidInputError,
    NotEdgeConnectedError,
    ZeroGenusError,
)
from thintree.flows import edge_connectivity
from thintree.genlab import amplify, prism_graph, torus_grid
from thintree.spanning import thin_spanning_tree
from thintree.surgery import (
    SurgeryIteration,
    SurgeryState,
    below_threshold,
    increase_dual_girth,
)

from .conftest import add_edge
from .dual_helpers import cut_edges
from .test_embedding import rotation_systems
from .test_spanning import with_empty_loops


def handled_cube(q):
    """Cube x q plus one extra edge over a handle: genus 1, dual girth 1."""
    g = add_edge(amplify(prism_graph(4), q), 0, 2, 0, 0)
    assert g.genus() == 1
    return g


def twice_handled_cube(q):
    """handled_cube(q) with a second handle edge, between the other square's
    opposite corners: genus 2, two dual loops."""
    g = add_edge(handled_cube(q), 4, 6, 0, 0)
    assert g.genus() == 2
    return g


def delete_dual_cycle(g, cycle_edges):
    """One deletion on a fresh working state: (H, its SurgeryIteration)."""
    state = SurgeryState(g)
    step = state.delete_dual_cycle(cycle_edges)
    return state.graph(), step


def one_vertex_torus():
    return build_embedding(1, [[0, 2, 1, 3]], [(0, 1), (2, 3)])


def test_exact_threshold_form():
    # length < k / (3 sqrt(genus)) without floating point
    assert below_threshold(1, 4, 1)        # 1 < 4/3
    assert not below_threshold(2, 4, 1)    # 2 > 4/3
    assert not below_threshold(3, 9, 1)    # 3 = 9/3 not strictly below
    assert below_threshold(2, 13, 4)       # 2 < 13/6


def test_delete_noncontractible_cycle_drops_genus():
    t = torus_grid(3, 3)
    length, cycle = shortest_dual_cycle(geometric_dual(t))
    assert length == 3
    h, step = delete_dual_cycle(t, cycle)
    assert step == SurgeryIteration(tuple(sorted(cycle)), 3, 1, 0, 1, 1)
    assert h.genus() == 0
    assert len(h.components()) == 1


def test_delete_bond_splits_component(cube):
    bond = cut_edges(cube, Cut(frozenset({0})))
    h, _ = delete_dual_cycle(cube, bond)
    assert h.genus() == 0
    assert len(h.components()) == 2


def test_delete_dual_loop_on_torus():
    t = one_vertex_torus()
    h, _ = delete_dual_cycle(t, [0])
    assert h.genus() == 0
    assert len(h.components()) == 1


def test_increase_girth_noop_when_girth_high():
    t3 = amplify(torus_grid(3, 3), 3)
    h, log = increase_dual_girth(t3, 12)
    assert log.iterations == []
    assert h.edge_count == t3.edge_count
    girth = dual_girth(geometric_dual(h))
    assert 9 * 1 * girth * girth >= 12 * 12


def test_increase_girth_threshold_below_one_is_noop():
    # k so small that k/(3 sqrt(genus)) <= 1: girth >= 1 always
    t = torus_grid(3, 3)
    h, log = increase_dual_girth(t, 3)
    assert log.iterations == []
    assert h.edge_count == t.edge_count


def test_increase_girth_deletes_handle_edge():
    g = handled_cube(4)
    k = edge_connectivity(g)
    assert k == 12
    h, log = increase_dual_girth(g, k)
    assert len(log.iterations) >= 1
    for it in log.iterations:
        assert below_threshold(it.cycle_length, k, 1)
        assert (it.genus_after < it.genus_before
                or it.components_after > it.components_before)
    assert len(h.components()) <= 2  # 2 sqrt(genus)
    girth = dual_girth(geometric_dual(h))
    assert 9 * 1 * girth * girth >= k * k
    # telescoping bound on the iteration count
    m = len(log.iterations)
    assert m <= (g.genus() - h.genus()) + (len(h.components()) - len(g.components()))
    assert log.total_deleted == sum(it.cycle_length for it in log.iterations)


def test_two_vertex_toy_with_short_dual_cycles():
    """Search tiny rotation systems for a genus-1 parallel-edge toy whose
    dual has girth < k/3, then run the full loop on it."""
    from itertools import permutations
    base = None
    for perm in permutations(range(1, 4)):
        rot_v = [2 * e + 1 for e in (0,) + perm]
        g = build_embedding(2, [[0, 2, 4, 6], rot_v],
                            [(2 * e, 2 * e + 1) for e in range(4)])
        if g.genus() == 1 and dual_girth(geometric_dual(g)) == 1:
            base = g
            break
    assert base is not None, "no genus-1 toy with a dual loop found"
    k = edge_connectivity(base)
    assert k == 4
    h, log = increase_dual_girth(base, k)
    assert len(log.iterations) >= 1
    girth_ok = True
    found = shortest_dual_cycle(geometric_dual(h))
    if found is not None:
        girth_ok = 9 * found[0] ** 2 >= k * k
    assert girth_ok
    assert len(h.components()) <= 2


@given(rotation_systems())
@settings(max_examples=250, deadline=None)
def test_dichotomy_on_random_embeddings(g):
    """Plain dart deletion must satisfy the genus-or-components dichotomy
    for any dual cycle of any rotation system."""
    found = shortest_dual_cycle(geometric_dual(g))
    if found is not None:
        delete_dual_cycle(g, found[1])  # raises on violation


def test_zero_genus_guard(cube):
    with pytest.raises(ZeroGenusError):
        increase_dual_girth(cube, 3)


def test_not_edge_connected_guard():
    t = torus_grid(3, 3)
    with pytest.raises(NotEdgeConnectedError):
        increase_dual_girth(t, 5)


@pytest.mark.parametrize("k", [0, -12, -40])
def test_k_below_one_raises_the_typed_error(k):
    # -40 once passed the connectivity guard and cut the torus into 9
    # components, failing only at the component bound's assertion
    with pytest.raises(InvalidInputError, match="k >= 1"):
        increase_dual_girth(amplify(torus_grid(3, 3), 3), k)


# --- surgery hands the dual of its result to the spanning step -----------

@st.composite
def surgery_inputs(draw):
    """A torus grid, an amplified torus grid or the handled cube (the
    conftest handle instance is q = 2), with k up to its connectivity."""
    kind = draw(st.sampled_from(["torus", "amplified torus", "handle"]))
    if kind == "torus":
        g = torus_grid(draw(st.integers(3, 4)), draw(st.integers(3, 4)))
    elif kind == "amplified torus":
        g = amplify(torus_grid(3, draw(st.integers(3, 4))), draw(st.integers(2, 4)))
    else:
        g = handled_cube(draw(st.integers(1, 6)))
    k = draw(st.integers(1, edge_connectivity(g)))
    return g, k


def assert_same_dual(d, ref):
    """d is the canonical dual ``ref`` up to face renumbering: the same
    live faces, the same face tuple at every dart, the same pruned edges,
    threads (as edge sets) and girth answer."""
    assert (d.face_count, d.edge_count) == (ref.face_count, ref.edge_count)
    assert sorted(f for f in d.faces if f) == ref.faces
    darts = max(len(d.face_of), len(ref.face_of))
    for x in range(darts):
        f = d.face_of[x] if x < len(d.face_of) else None
        r = ref.face_of[x] if x < len(ref.face_of) else None
        assert (f is None) == (r is None)
        if f is not None:
            assert d.faces[f] == ref.faces[r]
    threads = [sorted(sorted(t.edges) for t in e.core_threads()) for e in (d, ref)]
    assert threads[0] == threads[1]
    assert sorted(d._pendant) == sorted(ref._pendant)
    assert shortest_dual_cycle(d) == shortest_dual_cycle(ref)


def spanning_answer(h, d=None):
    """What the spanning step makes of h on the dual d (built if None):
    the tree, the far set, g*, the bound and the certificate."""
    r = thin_spanning_tree(h, d)
    return r.tree_edges, r.far_set, r.g_star, r.thinness_bound, r.certificate_distance


def assert_spans_as_a_fresh_dual(h, log):
    """The tree on surgery's handed dual is the tree on a dual built anew,
    where the spanning step runs on h itself."""
    if h.vertex_count >= 2 and h.is_connected():
        assert spanning_answer(h, log.dual) == spanning_answer(h)


@given(surgery_inputs())
@settings(max_examples=60, deadline=None)
def test_handed_dual_is_the_dual_of_the_result(case):
    g, k = case
    h, log = increase_dual_girth(g, k)
    assert_same_dual(log.dual, geometric_dual(h))
    assert_spans_as_a_fresh_dual(h, log)


def test_stale_dual_is_rejected():
    g = handled_cube(4)
    h, log = increase_dual_girth(g, edge_connectivity(g))
    assert log.iterations
    # the dual of the graph before the last deletion
    before = g.delete_edges([e for it in log.iterations[:-1] for e in it.cycle_edges])
    with pytest.raises(DualMismatchError):
        thin_spanning_tree(h, geometric_dual(before))
    with pytest.raises(InvalidInputError):
        thin_spanning_tree(before, log.dual)


def test_genus_branch_builds_one_dual_per_solve(monkeypatch):
    # surgery builds and walks g's dual only, however often it iterates:
    # the deletions edit one working dual, whose last view the spanning
    # step reads as h's dual.  Each graph surgery meets is searched once.
    cases = []
    for g in (handled_cube(4), twice_handled_cube(4)):
        h, log = increase_dual_girth(g, edge_connectivity(g))
        assert len(log.iterations) == g.genus()
        sizes = [g.edge_count]
        for it in log.iterations:
            sizes.append(sizes[-1] - it.cycle_length)
        cases.append((g, h, sizes))
    built, walked, searched = [], [], []
    real_dual, real_walk = geometric_dual, thintree.dual.find_threads
    real_search = thintree.dual._shortest_cycle

    def counted(graph):
        built.append(graph.edge_count)
        return real_dual(graph)

    def walk(d):
        walked.append(d.edge_count)
        return real_walk(d)

    def search(d, floor):
        searched.append(d.edge_count)
        return real_search(d, floor)

    for module in ("dual", "surgery", "spanning"):
        monkeypatch.setattr(f"thintree.{module}.geometric_dual", counted)
    monkeypatch.setattr(thintree.dual, "find_threads", walk)
    monkeypatch.setattr(thintree.dual, "_shortest_cycle", search)
    for g, h, sizes in cases:
        for seen in (built, walked, searched):
            seen.clear()
        pipeline.bounded_genus_thin_tree(g)
        assert built == [g.edge_count]
        assert walked == [g.edge_count]  # g has no pendant
        assert searched == sizes
        assert sizes[-1] == h.edge_count


# --- one working dual across the iterations -------------------------------

def test_repeated_edge_id_is_rejected():
    t = torus_grid(3, 3)
    h, step = delete_dual_cycle(t, [6, 3, 0])
    assert (step.cycle_edges, step.cycle_length) == ((0, 3, 6), 3)
    state = SurgeryState(t)
    with pytest.raises(InvalidInputError, match="repeats"):
        state.delete_dual_cycle([6, 3, 0, 6])
    # nothing changed: the same cycle is still there to delete
    assert state.delete_dual_cycle([6, 3, 0]) == step
    with pytest.raises(EdgeAbsentError):
        state.delete_dual_cycle([0])
    assert state.graph().dart_owner == h.dart_owner


def test_part_of_a_thread_is_no_dual_cycle():
    # one copy of a bundle of three is no dual cycle: every cycle through
    # it runs through all three
    g = amplify(torus_grid(3, 3), 3)
    state = SurgeryState(g)
    with pytest.raises(InvalidInputError, match="whole threads"):
        state.delete_dual_cycle([0])
    with pytest.raises(EdgeAbsentError):
        state.delete_dual_cycle([-1])
    assert state.graph() is g


@st.composite
def renumbered_duals(draw):
    """A dual of a random rotation system (pendant faces and loops
    included) or of a handled cube, and the same dual under shuffled face
    ids, built from its edge triples."""
    if draw(st.booleans()):
        g = draw(surgery_graphs())
    else:
        g = draw(st.sampled_from([handled_cube, twice_handled_cube]))(draw(st.integers(1, 4)))
    d = geometric_dual(g)
    name = draw(st.permutations(range(d.face_count)))
    return d, DualGraph(d.face_count, [(e, name[l], name[r]) for e, l, r in d.dual_edges])


@given(renumbered_duals())
@settings(max_examples=200, deadline=None)
def test_girth_search_ignores_face_numbering(duals):
    # the fact the working dual rests on: its face ids are not canonical
    d, renumbered = duals
    assert shortest_dual_cycle(renumbered) == shortest_dual_cycle(d)


@st.composite
def surgery_graphs(draw):
    """A random rotation system, amplified, with empty loops (pendant dual
    faces) and up to three extra edges spliced in at random corners; an
    edge between two faces is a handle, and a dual loop."""
    g = amplify(draw(rotation_systems()), draw(st.integers(3, 6)))
    assume(g.vertex_count >= 2 and g.is_connected())
    places = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 30)), max_size=2))
    g = with_empty_loops(g, places)
    for _ in range(draw(st.integers(0, 3))):
        u, v = (draw(st.integers(0, g.vertex_count - 1)) for _ in range(2))
        pu, pv = (draw(st.integers(0, 200)) for _ in range(2))
        g = add_edge(g, u, v, pu % len(g.darts_at(u)), pv % len(g.darts_at(v)))
    return g


def rebuilt_surgery(g, k):
    """The girth-raising loop as it ran before the working dual: every
    intermediate graph is built, and its dual built and searched, anew.
    Returns (H, [(cycle, its SurgeryIteration, the graph after)], the dual
    of H)."""
    genus = g.genus()
    h, steps = g, []
    while True:
        d = geometric_dual(h)
        found = shortest_dual_cycle(d)
        if found is None or not below_threshold(found[0], k, genus):
            return h, steps, d
        after = h.delete_edges(found[1])
        steps.append((found[1], SurgeryIteration(
            tuple(sorted(found[1])), found[0], h.genus(), after.genus(),
            len(h.components()), len(after.components())), after))
        h = after


def working_picture(state):
    """What the working dual holds, face ids left out: its live faces, its
    pruned edges and its threads as edge sets."""
    work = state.work
    return (sorted(f for f in work.faces if f), sorted(work.pendant),
            sorted(sorted(t.edges) for t in work.threads.values()))


def fresh_picture(g):
    d = geometric_dual(g)
    threads = d.core_threads()
    return g.faces(), sorted(d._pendant), sorted(sorted(t.edges) for t in threads)


def assert_matches_rebuilt_surgery(g, k):
    """increase_dual_girth against ``rebuilt_surgery``, step by step: the
    same cycle and record, and a working dual that holds the faces, the
    pruned edges and the threads of the dual built anew.  The handed dual
    is that of H up to face renumbering, and the spanning step makes the
    same tree on it.  Returns the number of iterations."""
    ref_h, ref_steps, ref_dual = rebuilt_surgery(g, k)
    seen = []
    real = SurgeryState.delete_dual_cycle

    def recorded(self, cycle_edges):
        step = real(self, cycle_edges)
        assert step.components_after == len(_components(self.g.vertex_count, self.pairs))
        seen.append((list(cycle_edges), step, working_picture(self)))
        return step

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SurgeryState, "delete_dual_cycle", recorded)
        h, log = increase_dual_girth(g, k)
    assert len(seen) == len(ref_steps)
    for (cycle, step, picture), (ref_cycle, ref_step, after) in zip(seen, ref_steps):
        assert cycle == ref_cycle
        assert step == ref_step
        assert picture == fresh_picture(after)
    assert (h.dart_owner, h.rotation_next, h.edges()) == (
        ref_h.dart_owner, ref_h.rotation_next, ref_h.edges())
    assert log.records() == [asdict(step) for _, step, _ in ref_steps]
    assert_same_dual(log.dual, ref_dual)
    assert_spans_as_a_fresh_dual(h, log)
    if log.iterations:
        assert h.genus() == log.iterations[-1].genus_after
    return len(log.iterations)


@given(surgery_inputs())
@settings(max_examples=40, deadline=None)
def test_working_dual_matches_rebuilt_surgery(case):
    assert_matches_rebuilt_surgery(*case)


@pytest.mark.parametrize("q", range(1, 7))
@pytest.mark.parametrize("make", [handled_cube, twice_handled_cube])
def test_working_dual_matches_rebuilt_surgery_on_handles(make, q):
    g = make(q)
    iterations = assert_matches_rebuilt_surgery(g, edge_connectivity(g))
    assert iterations == (g.genus() if q > 1 else 0)


@given(surgery_graphs())
@settings(max_examples=150, deadline=None)
def test_working_dual_matches_rebuilt_surgery_on_random_graphs(g):
    genus, k = g.genus(), edge_connectivity(g)
    assume(genus >= 1 and k >= 1)
    target(float(assert_matches_rebuilt_surgery(g, k)))


@given(surgery_graphs())
@settings(max_examples=150, deadline=None)
def test_working_dual_until_the_dual_is_a_forest(g):
    """Delete the shortest dual cycle of the working dual, whatever its
    length, until none is left: many iterations, pendant faces, loops,
    splits and isolated vertices.  Every step must match the graph and the
    dual built anew."""
    state = SurgeryState(g)
    h, d = g, geometric_dual(g)
    while True:
        found = shortest_dual_cycle(d)
        fresh = shortest_dual_cycle(geometric_dual(h))
        assert found == fresh
        if found is None:
            break
        step = state.delete_dual_cycle(found[1])
        assert step.components_after == len(_components(g.vertex_count, state.pairs))
        after = h.delete_edges(found[1])
        assert step == SurgeryIteration(
            tuple(sorted(found[1])), found[0], h.genus(), after.genus(),
            len(h.components()), len(after.components()))
        assert working_picture(state) == fresh_picture(after)
        h, d = after, state.work
    assert state.graph().dart_owner == h.dart_owner
    assert state.genus == h.genus() and state.components == len(h.components())

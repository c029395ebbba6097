import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thintree import pipeline
from thintree.dual import Cut, dual_girth, geometric_dual, shortest_dual_cycle
from thintree.embedding import build_embedding
from thintree.errors import (
    DualMismatchError,
    InvalidInputError,
    NotEdgeConnectedError,
    ZeroGenusError,
)
from thintree.flows import edge_connectivity
from thintree.genlab import amplify, prism_graph, torus_grid
from thintree.spanning import thin_spanning_tree
from thintree.surgery import (
    SurgeryIteration,
    below_threshold,
    delete_dual_cycle,
    increase_dual_girth,
)

from .conftest import add_edge
from .dual_helpers import cut_edges
from .test_embedding import rotation_systems


def handled_cube(q):
    """Cube x q plus one extra edge over a handle: genus 1, dual girth 1."""
    g = add_edge(amplify(prism_graph(4), q), 0, 2, 0, 0)
    assert g.genus() == 1
    return g


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


@given(surgery_inputs())
@settings(max_examples=60, deadline=None)
def test_handed_dual_is_the_dual_of_the_result(case):
    g, k = case
    h, log = increase_dual_girth(g, k)
    fresh = geometric_dual(h)
    assert log.dual.face_count == fresh.face_count
    assert log.dual.dual_edges == fresh.dual_edges
    assert shortest_dual_cycle(log.dual) == shortest_dual_cycle(fresh)
    if h.is_connected():
        assert thin_spanning_tree(h, log.dual) == thin_spanning_tree(h)


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


def test_genus_branch_builds_one_dual_per_surgered_graph(monkeypatch):
    g = handled_cube(4)
    _, log = increase_dual_girth(g, edge_connectivity(g))
    assert log.iterations
    sizes = [g.edge_count]
    for it in log.iterations:
        sizes.append(sizes[-1] - it.cycle_length)
    built = []

    def counted(graph):
        built.append(graph.edge_count)
        return geometric_dual(graph)

    for module in ("dual", "surgery", "spanning"):
        monkeypatch.setattr(f"thintree.{module}.geometric_dual", counted)
    pipeline.bounded_genus_thin_tree(g)
    # one dual per graph surgery searched; the tree reads the last of them
    assert built == sizes

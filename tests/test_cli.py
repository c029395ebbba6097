import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from thintree.cli import main
from thintree.formats import read_atsp, read_emb, write_atsp, write_emb
from thintree.genlab import amplify, prism_graph

from .conftest import add_edge

pytestmark = pytest.mark.usefixtures("oracle_checked_held_karp")


def run_cli(args):
    code = main(args)
    assert code == 0
    return code


def test_gen_and_thin_tree(tmp_path):
    emb = tmp_path / "g.emb"
    tree = tmp_path / "tree.json"
    run_cli(["gen", "--family", "planar-amplified", "--base", "cube",
             "--mult", "12", "--seed", "0", "--out", str(emb)])
    run_cli(["thin-tree", "--in", str(emb), "--out", str(tree), "--certify"])
    payload = json.loads(tree.read_text())
    assert payload["g_star"] == 36
    assert payload["alpha"] == 5
    assert payload["thinness_bound"] == "5/18"
    assert len(payload["tree_edges"]) == 7
    assert payload["certificate_distance"] >= 4
    # certified ratio is a fraction string like "1/12"
    num, den = payload["certified_max_ratio"].split("/")
    assert int(den) >= payload["certificate_distance"] * int(num)


def test_thin_tree_certify_refuses_large(tmp_path):
    emb = tmp_path / "g.emb"
    tree = tmp_path / "tree.json"
    run_cli(["gen", "--family", "planar-amplified", "--base", "cycle",
             "--n", "30", "--mult", "1", "--seed", "0", "--out", str(emb)])
    code = main(["thin-tree", "--in", str(emb), "--out", str(tree),
                 "--certify"])
    assert code == 2


def test_surgery_cli(tmp_path):
    emb = tmp_path / "g.emb"
    out = tmp_path / "h.emb"
    log = tmp_path / "log.json"
    run_cli(["gen", "--family", "torus-grid", "--rows", "3", "--cols", "3",
             "--mult", "3", "--seed", "7", "--out", str(emb)])
    run_cli(["surgery", "--in", str(emb), "--k", "12",
             "--out", str(out), "--log", str(log)])
    lines = log.read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["total_deleted"] == 0
    assert summary["k"] == 12
    from thintree.formats import read_emb
    h = read_emb(out.read_text())
    assert h.edge_count == 54


@pytest.mark.parametrize("k", ["0", "-12", "-40"])
def test_surgery_cli_rejects_k_below_one(tmp_path, capsys, k):
    emb = tmp_path / "g.emb"
    out = tmp_path / "h.emb"
    run_cli(["gen", "--family", "torus-grid", "--rows", "3", "--cols", "3",
             "--mult", "3", "--seed", "7", "--weighted", "--out", str(emb)])
    code = main(["surgery", "--in", str(emb), "--k", k,
                 "--out", str(out), "--log", str(tmp_path / "log.json")])
    assert code == 2
    assert "k >= 1" in assert_one_error_line(capsys)
    assert not out.exists()


def test_pipeline_cli_weighted(tmp_path):
    emb = tmp_path / "g.emb"
    out = tmp_path / "result.json"
    run_cli(["gen", "--family", "planar-amplified", "--base", "cube",
             "--mult", "20", "--seed", "3", "--cost-model", "uniform-range",
             "--weighted", "--out", str(emb)])
    run_cli(["pipeline", "--in", str(emb), "--weighted", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["rounds"] == 3
    assert payload["thinness"] == "1/3"
    # round 0 already meets the averaging bound, so extraction stops there
    assert payload["connectivity_trace"] == [60]


def test_pipeline_cli_unweighted(tmp_path):
    emb = tmp_path / "g.emb"
    out = tmp_path / "result.json"
    run_cli(["gen", "--family", "torus-grid", "--rows", "3", "--cols", "3",
             "--mult", "12", "--seed", "0", "--out", str(emb)])
    run_cli(["pipeline", "--in", str(emb), "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["genus"] == 1
    assert payload["edge_connectivity"] == 48
    assert payload["thinness_bound"] == "0.875"


def test_atsp_and_verify_cli(tmp_path):
    inst = tmp_path / "inst.atsp"
    emb = tmp_path / "support.emb"
    tour = tmp_path / "tour.json"
    run_cli(["gen", "--family", "lp-support-instance", "--n", "6",
             "--seed", "1", "--out", str(inst), "--emb-out", str(emb)])
    run_cli(["atsp", "--in", str(inst), "--emb", str(emb),
             "--denominator", "60", "--out", str(tour)])
    payload = json.loads(tour.read_text())
    assert payload["beta"] == "10"
    assert len(payload["order"]) == 6
    run_cli(["verify", "tour", "--in", str(inst), "--tour", str(tour)])

    tree = tmp_path / "tree.json"
    g = tmp_path / "g.emb"
    run_cli(["gen", "--family", "planar-amplified", "--base", "cube",
             "--mult", "6", "--seed", "0", "--out", str(g)])
    run_cli(["thin-tree", "--in", str(g), "--out", str(tree)])
    run_cli(["verify", "thinness", "--in", str(g), "--edges", str(tree)])


def test_atsp_and_verify_on_fractional_costs(tmp_path, capsys):
    """The lp-support n = 8 instance with every cost divided by 12, written
    as '5/6', '1.25' or '1': atsp and verify tour agree on the cost, 1/12
    of the integral instance's, and the tour is the same."""
    inst = tmp_path / "inst.atsp"
    emb = tmp_path / "support.emb"
    run_cli(["gen", "--family", "lp-support-instance", "--n", "8",
             "--seed", "1", "--out", str(inst), "--emb-out", str(emb)])
    frac = tmp_path / "frac.atsp"
    matrix = read_atsp(inst.read_text())
    frac.write_text(write_atsp([[c / 12 for c in row] for row in matrix]))
    assert "/" in frac.read_text() and "." in frac.read_text()
    tours = {}
    for name in ("inst", "frac"):
        tour = tmp_path / f"{name}-tour.json"
        run_cli(["atsp", "--in", str(tmp_path / f"{name}.atsp"), "--emb", str(emb),
                 "--denominator", "60", "--out", str(tour)])
        capsys.readouterr()
        run_cli(["verify", "tour", "--in", str(tmp_path / f"{name}.atsp"),
                 "--tour", str(tour)])
        verified = json.loads(capsys.readouterr().out)
        tours[name] = json.loads(tour.read_text())
        assert verified["cost"] == tours[name]["cost"]
    assert tours["frac"]["order"] == tours["inst"]["order"]
    assert Fraction(tours["frac"]["cost"]) == Fraction(tours["inst"]["cost"]) / 12
    assert Fraction(tours["frac"]["opt_hk"]) == Fraction(tours["inst"]["opt_hk"]) / 12


@pytest.mark.parametrize("command,key", [(["thin-tree"], "thinness_bound"),
                                         (["pipeline", "--weighted"], "thinness")],
                         ids=["thin-tree", "pipeline"])
def test_verify_thinness_gates_on_the_claimed_bound(tmp_path, capsys, command, key):
    """A tree file whose tree_edges are every edge of the amplified cube
    claims a bound below 1 but has thinness 1: exit 2, one error line.  The
    true tree passes, and a bare list of every edge claims nothing."""
    g = tmp_path / "cube.emb"
    tree = tmp_path / "tree.json"
    run_cli(["gen", "--family", "planar-amplified", "--base", "cube", "--mult", "12",
             "--seed", "0", "--cost-model", "uniform-range", "--weighted",
             "--out", str(g)])
    run_cli(command + ["--in", str(g), "--out", str(tree)])
    payload = json.loads(tree.read_text())
    assert Fraction(payload[key]) < 1
    run_cli(["verify", "thinness", "--in", str(g), "--edges", str(tree)])
    every_edge = list(read_emb(g.read_text()).edges())
    bare = tmp_path / "all.json"
    bare.write_text(json.dumps(every_edge))
    capsys.readouterr()
    run_cli(["verify", "thinness", "--in", str(g), "--edges", str(bare)])
    assert json.loads(capsys.readouterr().out)["max_ratio"] == "1"
    thick = tmp_path / "thick.json"
    thick.write_text(json.dumps({**payload, "tree_edges": every_edge}))
    assert main(["verify", "thinness", "--in", str(g), "--edges", str(thick)]) == 2
    assert "exceeds the claimed" in assert_one_error_line(capsys)


@pytest.mark.parametrize("tour", ['{"cost": "3"}', "[true, 0, 2]", '[0, 1, "a"]',
                                  '{"order": 5}', "[0, 1,"],
                         ids=["no order", "bool", "str", "not a list", "not json"])
def test_verify_tour_rejects_malformed_tour(tmp_path, capsys, tour):
    inst = tmp_path / "inst.atsp"
    inst.write_text("ATSP 1 3\n0 1 1\n1 0 1\n1 1 0\n")
    (tmp_path / "tour.json").write_text(tour)
    code = main(["verify", "tour", "--in", str(inst), "--tour", str(tmp_path / "tour.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["thin-tree"], ["pipeline", "--weighted"]],
                         ids=["thin-tree", "pipeline"])
def test_partially_costed_emb_rejected(tmp_path, capsys, command):
    # two parallel edges, a cost on edge 0 only
    g = tmp_path / "g.emb"
    g.write_text("EMB 1 2 2\nrot 0 0 2\nrot 1 1 3\nedge 0 0 1 5\nedge 1 2 3\n")
    code = main(command + ["--in", str(g), "--out", str(tmp_path / "out.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("command,emb", [
    (["pipeline", "--weighted"], "EMB 1 2 2\nrot 0 0 2\nrot 1 1 3\nedge 0 0 1\nedge 1 2 3\n"),
    (["pipeline", "--weighted"], "EMB 1 1 2\nrot 0 0 1 2 3\nedge 0 0 1 1\nedge 1 2 3 1\n"),
    (["pipeline"], "EMB 1 1 2\nrot 0 0 1 2 3\nedge 0 0 1 1\nedge 1 2 3 1\n"),
], ids=["weighted without costs", "weighted one vertex", "unweighted one vertex"])
def test_pipeline_rejects_unusable_graph(tmp_path, capsys, command, emb):
    g = tmp_path / "g.emb"
    g.write_text(emb)
    code = main(command + ["--in", str(g), "--out", str(tmp_path / "out.json")])
    assert code == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("emb", [
    "EMB 1 0 0\n",
    "EMB 1 1 2\nrot 0 0 1 2 3\nedge 0 0 1 1\nedge 1 2 3 1\n",
], ids=["no vertex", "one vertex"])
def test_thin_tree_rejects_fewer_than_two_vertices(tmp_path, capsys, emb):
    g = tmp_path / "g.emb"
    g.write_text(emb)
    code = main(["thin-tree", "--in", str(g), "--out", str(tmp_path / "out.json")])
    assert code == 2
    assert "at least 2 vertices" in assert_one_error_line(capsys)


def test_verify_thinness_rejects_fewer_than_two_vertices(tmp_path, capsys):
    g = tmp_path / "g.emb"
    g.write_text("EMB 1 1 2\nrot 0 0 1 2 3\nedge 0 0 1 1\nedge 1 2 3 1\n")
    edges = tmp_path / "edges.json"
    edges.write_text("[]")
    code = main(["verify", "thinness", "--in", str(g), "--edges", str(edges)])
    assert code == 2
    assert "at least 2 vertices" in assert_one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["thin-tree", "--in", "{missing}", "--out", "{tmp}/out.json"],
    ["atsp", "--in", "{missing}", "--emb", "{emb}", "--out", "{tmp}/tour.json"],
    ["verify", "tour", "--in", "{inst}", "--tour", "{missing}"],
], ids=["thin-tree input", "atsp input", "verify tour"])
def test_missing_input_file_is_a_typed_error(tmp_path, capsys, argv):
    inst, emb = lp_support_6(tmp_path)
    missing = tmp_path / "nope"
    names = {"missing": missing, "tmp": tmp_path, "inst": inst, "emb": emb}
    code = main([arg.format(**names) for arg in argv])
    assert code == 2
    assert f"{missing}: No such file or directory" in assert_one_error_line(capsys)


def test_missing_output_directory_is_a_typed_error(tmp_path, capsys):
    inst, emb = lp_support_6(tmp_path)
    out = tmp_path / "nodir" / "tour.json"
    code = main(["atsp", "--in", str(inst), "--emb", str(emb),
                 "--denominator", "60", "--out", str(out)])
    assert code == 2
    assert f"{out}: No such file or directory" in assert_one_error_line(capsys)
    assert not out.parent.exists()


def test_atsp_rejects_two_vertices(tmp_path, capsys):
    inst = tmp_path / "inst.atsp"
    inst.write_text("ATSP 1 2\n0 1\n1 0\n")
    g = tmp_path / "g.emb"
    g.write_text("EMB 1 2 2\nrot 0 0 2\nrot 1 1 3\nedge 0 0 1\nedge 1 2 3\n")
    code = main(["atsp", "--in", str(inst), "--emb", str(g),
                 "--out", str(tmp_path / "tour.json")])
    assert code == 2
    assert "at least 3 vertices" in assert_one_error_line(capsys)


def lp_support_6(tmp_path):
    inst = tmp_path / "inst.atsp"
    emb = tmp_path / "support.emb"
    run_cli(["gen", "--family", "lp-support-instance", "--n", "6",
             "--seed", "1", "--out", str(inst), "--emb-out", str(emb)])
    return inst, emb


# lp-support n = 6 has thinness 20/k with k = 2D, so D <= 10 is too small
@pytest.mark.parametrize("denominator,message", [
    ("0", "must be positive"), ("-3", "must be positive"),
    ("1", "too small"), ("2", "too small"), ("5", "too small"), ("10", "too small"),
])
def test_atsp_rejects_bad_denominator(tmp_path, capsys, denominator, message):
    inst, emb = lp_support_6(tmp_path)
    code = main(["atsp", "--in", str(inst), "--emb", str(emb),
                 "--denominator", denominator, "--out", str(tmp_path / "tour.json")])
    assert code == 2
    assert message in assert_one_error_line(capsys)


def test_atsp_rejects_support_embedding_with_extra_vertex(tmp_path, capsys):
    inst, emb = lp_support_6(tmp_path)
    lines = emb.read_text().splitlines(keepends=True)
    assert lines[0].startswith("EMB 1 6 ") and lines[6].startswith("rot 5 ")
    lines[0] = lines[0].replace("EMB 1 6 ", "EMB 1 7 ")
    lines.insert(7, "rot 6\n")  # an isolated vertex
    emb.write_text("".join(lines))
    code = main(["atsp", "--in", str(inst), "--emb", str(emb),
                 "--denominator", "60", "--out", str(tmp_path / "tour.json")])
    assert code == 2
    assert "7 vertices" in assert_one_error_line(capsys)


def test_verify_thinness_rejects_absent_edge(tmp_path, capsys):
    g = tmp_path / "g.emb"
    edges = tmp_path / "edges.json"
    g.write_text(write_emb(amplify(prism_graph(4), 2)))
    edges.write_text("[0, 1, 999]")
    assert main(["verify", "thinness", "--in", str(g), "--edges", str(edges)]) == 2
    assert "999" in capsys.readouterr().err


@pytest.mark.parametrize("edges", ["[0, 1,", '{"far_set": [0]}', '{"tree_edges": 5}', "5",
                                   "[[0]]", "[true, 0]", '{"tree_edges": [0, 1.5]}'],
                         ids=["not json", "no tree_edges", "not a list", "bare number",
                              "nested list", "bool", "float"])
def test_verify_thinness_rejects_malformed_edges(tmp_path, capsys, edges):
    g = tmp_path / "g.emb"
    g.write_text(write_emb(amplify(prism_graph(4), 2)))
    edges_file = tmp_path / "edges.json"
    edges_file.write_text(edges)
    code = main(["verify", "thinness", "--in", str(g), "--edges", str(edges_file)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_atsp_default_denominator(tmp_path):
    # without --denominator the paper's D = n**3 is used
    inst = tmp_path / "inst.atsp"
    emb = tmp_path / "support.emb"
    tour = tmp_path / "tour.json"
    run_cli(["gen", "--family", "lp-support-instance", "--n", "8",
             "--seed", "1", "--out", str(inst), "--emb-out", str(emb)])
    run_cli(["atsp", "--in", str(inst), "--emb", str(emb), "--out", str(tour)])
    payload = json.loads(tour.read_text())
    assert payload["denominator"] == 8 ** 3
    assert sorted(payload["order"]) == list(range(8))
    run_cli(["verify", "tour", "--in", str(inst), "--tour", str(tour)])
    assert hashlib.sha256(tour.read_bytes()).hexdigest() == (
        "071c53d1d44a1be9bdfbe0a8e4cacdb1f19e6ed2293b55de91e6cfc47f9bd98a")


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "torus-grid", "--rows", "3", "--cols", "4",
     "--mult", "2", "--seed", "5", "--out", "OUT"],
    ["gen", "--family", "random-metric", "--n", "7", "--seed", "9",
     "--cost-model", "asymmetric-skew", "--out", "OUT"],
    ["gen", "--family", "planar-amplified", "--base", "prism", "--n", "5",
     "--mult", "4", "--seed", "2", "--cost-model", "uniform-range",
     "--weighted", "--out", "OUT"],
])
def test_cli_outputs_byte_identical(tmp_path, argv):
    out1 = tmp_path / "a.out"
    out2 = tmp_path / "b.out"
    run_cli([a if a != "OUT" else str(out1) for a in argv])
    run_cli([a if a != "OUT" else str(out2) for a in argv])
    assert out1.read_bytes() == out2.read_bytes()


def test_outputs_independent_of_hash_seed(tmp_path, cli_env):
    outs = []
    for seed in ("1", "99"):
        out = tmp_path / f"g{seed}.emb"
        env = dict(cli_env, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "thintree", "gen", "--family",
             "lp-support-instance", "--n", "8", "--seed", "2",
             "--out", str(out), "--emb-out", str(out) + ".emb"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes() + (tmp_path / (out.name + ".emb")).read_bytes())
    assert outs[0] == outs[1]


def test_module_entrypoint_runs(tmp_path, cli_env):
    out = tmp_path / "g.emb"
    proc = subprocess.run(
        [sys.executable, "-m", "thintree", "gen", "--family", "torus-grid",
         "--rows", "3", "--cols", "3", "--mult", "1", "--seed", "0",
         "--out", str(out)],
        capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("EMB 1 9 18")


# The sha256 of every output file of a fixed command list, by file name.  A
# change that keeps behaviour keeps these files byte-identical.  The handled
# cube is the conftest handle instance with costs: its surgery iterates, so
# the surgery log and the genus branch's connector edges are covered.  The
# twice-handled prism (genus 2) keeps one component after surgery, so its
# tree is built on surgery's working dual, whose face ids are not
# canonical; its threads of even length make the tree depend on how the
# spanning step ranks those faces.
CLI_GOLDEN_COMMANDS = [
    ["gen", "--family", "planar-amplified", "--base", "cube", "--mult", "12",
     "--seed", "0", "--cost-model", "uniform-range", "--weighted",
     "--out", "cube.emb"],
    ["gen", "--family", "torus-grid", "--rows", "3", "--cols", "3",
     "--mult", "4", "--seed", "1", "--cost-model", "uniform-range",
     "--weighted", "--out", "torus.emb"],
    ["gen", "--family", "random-metric", "--n", "7", "--seed", "9",
     "--out", "metric.atsp"],
    ["gen", "--family", "lp-support-instance", "--n", "8", "--seed", "1",
     "--out", "lp8.atsp", "--emb-out", "lp8.emb"],
    ["thin-tree", "--in", "cube.emb", "--out", "cube-tree.json", "--certify"],
    ["pipeline", "--in", "cube.emb", "--out", "cube-pipeline.json"],
    ["surgery", "--in", "torus.emb", "--k", "16", "--out", "torus-h.emb",
     "--log", "torus-surgery.log"],
    ["pipeline", "--in", "torus.emb", "--out", "torus-pipeline.json"],
    ["pipeline", "--in", "torus.emb", "--weighted",
     "--out", "torus-weighted.json"],
    ["surgery", "--in", "handle.emb", "--k", "12", "--out", "handle-h.emb",
     "--log", "handle-surgery.log"],
    ["pipeline", "--in", "handle.emb", "--out", "handle-pipeline.json"],
    ["pipeline", "--in", "handle.emb", "--weighted",
     "--out", "handle-weighted.json"],
    ["pipeline", "--in", "handles.emb", "--weighted",
     "--out", "handles-weighted.json"],
    ["atsp", "--in", "lp8.atsp", "--emb", "lp8.emb", "--denominator", "60",
     "--out", "lp8-tour.json"],
]
CLI_GOLDEN_DIGESTS = {
    "cube-pipeline.json":
        "04e6731a5b64cf6e1f329aa51034de01dfc17208cae90c85cce4d24fdbfc2042",
    "cube-tree.json":
        "4de46c8499c07b1051deef163dca2f414ff5e04c9d0082030f5956035dd24120",
    "cube.emb":
        "79671466e10b6b26091ecaef813cbc78ec2a325c79dffbf4d6cb271f9a86fef4",
    "handle-h.emb":
        "3113e2a6d3f032b72911647d4546d334848530795fccab8dac2889a32d6ebeed",
    "handle-pipeline.json":
        "5f3d5a2ff929f693607461b0d8f01a81cdaf55393dd169ec2fada5684339ef34",
    "handle-surgery.log":
        "1b1de519905ebb81703e6ab889998825bd19fa43c9b410c805069ed8134dddb1",
    "handle-weighted.json":
        "bed0a80e85bcb16265599d9c3769d6dd2e2710bb6929cce3f43670487c260949",
    "handles-weighted.json":
        "934d9442fb3e13a4c9e09091c4944aa92c86556a2a79a6c4c87dc17d044cca8e",
    "lp8-tour.json":
        "223480e7fc5cdb28a87782712e49b3c3b05e8145da94d16ac2420f7ba95f2e96",
    "lp8.atsp":
        "5d8522d58ce50c01c30a15df311227a750f1ee654a80f5b06a81ccadf3cbd13e",
    "lp8.emb":
        "69204ec93302a7231fc7adbbdd9262492c41716663895c495c3648d9304f2a6d",
    "metric.atsp":
        "464d54ed6f49c4514e1bbffbd897932fba7974565aa6c54b9714afa36dd1862b",
    "torus-h.emb":
        "4a6c22180bb831bde7c307bc53ebe2cada81e91b6dbcbdcd418afd369a2cf6eb",
    "torus-pipeline.json":
        "07f2612872dde929aa8cba7fc6b28cf36fb8ab0db68f26e588a8aa4a0ac3ceb1",
    "torus-surgery.log":
        "36bbe9c7ab03937a139ee73e521e276f3203dd7a2900c140f7230cde66e3f98b",
    "torus-weighted.json":
        "636eb8d33da2bcc9238ca212d3d01a8f63d08e5f576aaf3916d5f126a7e5f392",
    "torus.emb":
        "4a6c22180bb831bde7c307bc53ebe2cada81e91b6dbcbdcd418afd369a2cf6eb",
}


# The sha256 of the stdout of ``verify`` run on the golden files above.
VERIFY_GOLDEN_COMMANDS = {
    "thinness cube-tree": ["verify", "thinness", "--in", "cube.emb",
                           "--edges", "cube-tree.json"],
    "tour lp8-tour": ["verify", "tour", "--in", "lp8.atsp", "--tour", "lp8-tour.json"],
}
VERIFY_GOLDEN_DIGESTS = {
    "thinness cube-tree":
        "0a3b0d6008594c3949d615347ce72eb60f0a19020ee783edbeab58284ee41f74",
    "tour lp8-tour":
        "8222bbdd06790721c70e209acab420923797479338284952cd65ead9bd8aaa79",
}


def test_cli_outputs_match_recorded_digests(tmp_path, capsys):
    def costs(new, old):
        return 1 + (7 * new + old) % 50

    g = amplify(prism_graph(4), 4, costs=costs)
    (tmp_path / "handle.emb").write_text(write_emb(add_edge(g, 0, 2, 0, 0)))
    g = amplify(prism_graph(5), 6, costs=costs)
    (tmp_path / "handles.emb").write_text(
        write_emb(add_edge(add_edge(g, 0, 2, 0, 0), 4, 8, 0, 0)))
    inputs = ("handle.emb", "handles.emb")

    def in_tmp(argv):
        return [str(tmp_path / a) if a.endswith((".emb", ".atsp", ".json", ".log"))
                else a for a in argv]

    for argv in CLI_GOLDEN_COMMANDS:
        run_cli(in_tmp(argv))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir()) if p.name not in inputs}
    assert digests == CLI_GOLDEN_DIGESTS
    capsys.readouterr()
    stdout = {}
    for name, argv in VERIFY_GOLDEN_COMMANDS.items():
        run_cli(in_tmp(argv))
        stdout[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert stdout == VERIFY_GOLDEN_DIGESTS

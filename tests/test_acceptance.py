"""Acceptance suite.

Each test prints one PASS line (visible with ``pytest -s``); the pytest
verdict per test is the official pass/fail signal.  All tolerances are
exact: every comparison is integer or Fraction arithmetic.
"""

import subprocess
import sys
from fractions import Fraction

import pytest

from thintree.atsp import atsp_approx
from thintree.dual import Cut, dual_girth, geometric_dual
from thintree.flows import directed_global_min_cut, edge_connectivity
from thintree.genlab import (
    amplify,
    cycle_graph,
    lp_support_instance,
    prism_graph,
    random_metric,
    torus_grid,
    wheel_graph,
)
from thintree.heldkarp import ATSPInstance, solve_held_karp
from thintree.oracle import brute_force_atsp, brute_force_thinness, verify_tour
from thintree.pipeline import (
    bounded_genus_thin_tree,
    genus_bound,
    weighted_thin_tree,
)
from thintree.prng import PCG32
from thintree.spanning import thin_spanning_tree
from thintree.surgery import below_threshold, increase_dual_girth

from .dual_helpers import cut_edges, cut_to_dual_cycles

pytestmark = pytest.mark.usefixtures("oracle_checked_held_karp")


def _sweep_500():
    """Deterministic battery of 500 embeddings, planar + torus, n <= 50."""
    out = []
    for n in range(5, 25):
        for q in range(1, 9):
            out.append(amplify(cycle_graph(n), q))
    for m in range(3, 13):
        for q in range(1, 7):
            out.append(amplify(wheel_graph(m), q))
    for m in range(3, 13):
        for q in range(1, 7):
            out.append(amplify(prism_graph(m), q))
    for r in (3, 4, 5):
        for c in (3, 4, 5):
            for q in range(1, 5):
                out.append(amplify(torus_grid(r, c), q))
    for n in range(25, 49):
        out.append(cycle_graph(n))
    for m in range(13, 25):
        out.append(prism_graph(m))
    for m in range(13, 25):
        out.append(wheel_graph(m))
    for r in (3, 4):
        for c in range(6, 13):
            for q in (1, 2):
                out.append(amplify(torus_grid(r, c), q))
    for n in range(5, 25):
        for q in (9, 10, 11, 12):
            out.append(amplify(cycle_graph(n), q))
    for m in range(3, 13):
        for q in (7, 8, 9):
            out.append(amplify(prism_graph(m), q))
    out = out[:500]
    assert len(out) == 500
    assert all(g.vertex_count <= 50 for g in out)
    return out


@pytest.fixture(scope="module")
def sweep():
    return _sweep_500()


def test_criterion_01_euler_and_dual_integrity(sweep):
    enumerated = 0
    for g in sweep:
        d = geometric_dual(g)
        faces = len(g.faces())
        kappa = len(g.components())
        assert (g.vertex_count - g.edge_count + faces
                == 2 * kappa - 2 * g.genus())
        assert g.genus() in (0, 1)
        assert [e for e, _, _ in d.dual_edges] == g.edges()
        if g.vertex_count <= 12:
            enumerated += 1
            n = g.vertex_count
            for mask in range((1 << (n - 1)) - 1):
                side = frozenset(
                    [0] + [v for v in range(1, n) if mask >> (v - 1) & 1])
                cut = Cut(side)
                cycles = cut_to_dual_cycles(g, d, cut)
                assert sorted(e for c in cycles for e in c) == \
                    sorted(cut_edges(g, cut))
    print(f"\nACCEPTANCE 1 PASS: Euler formula, dual bijection on 500 "
          f"embeddings; all cuts of {enumerated} instances (n <= 12) "
          f"decompose into dual cycles")


def test_criterion_02_whitney_bound(sweep):
    checked = 0
    for g in sweep:
        if g.genus() != 0:
            continue
        checked += 1
        assert dual_girth(geometric_dual(g)) >= edge_connectivity(g)
    print(f"\nACCEPTANCE 2 PASS: dual girth >= edge connectivity on "
          f"{checked} planar instances")


def _thin_tree_battery():
    out = []
    for q in (2, 3, 6, 12, 24):
        out.append(amplify(prism_graph(4), q))
    for n in (4, 6, 8):
        for q in (2, 6, 12):
            out.append(amplify(cycle_graph(n), q))
    for m in (3, 4, 5):
        for q in (2, 5):
            out.append(amplify(wheel_graph(m), q))
    for q in (1, 2, 6):
        out.append(amplify(prism_graph(5), q))
    for q in (1, 2, 4):
        out.append(amplify(torus_grid(3, 3), q))
    out.append(amplify(prism_graph(6), 4))
    return [g for g in out if g.vertex_count <= 12]


def test_criterion_03_certificate_soundness():
    runs = 0
    for g in _thin_tree_battery():
        result = thin_spanning_tree(g)
        m = result.certificate_distance
        assert 1 <= m <= result.g_star
        report = brute_force_thinness(g, result.far_set)
        assert report.max_ratio <= Fraction(1, m)
        runs += 1
    print(f"\nACCEPTANCE 3 PASS: brute thinness(F) <= 1/m on {runs} "
          f"thin-tree runs (n <= 12)")


@pytest.mark.parametrize("q", [6, 12, 24])
def test_criterion_04_planar_thinness(q):
    g = amplify(prism_graph(4), q)
    k = 3 * q
    assert edge_connectivity(g) == k
    assert Fraction(10, k) < 1
    result = bounded_genus_thin_tree(g)
    report = brute_force_thinness(g, result.tree_edges)
    assert report.max_ratio <= Fraction(10, k)
    print(f"\nACCEPTANCE 4 PASS: cube x{q}: tree thinness "
          f"{report.max_ratio} <= 10/{k}")


@pytest.mark.parametrize("q", [1, 2, 3, 12])
def test_criterion_05_surgery_bounds(q):
    g = amplify(torus_grid(3, 3), q)
    k = 4 * q
    assert edge_connectivity(g) == k
    h, log = increase_dual_girth(g, k)
    kappa = len(h.components())
    assert kappa <= 2  # 2 sqrt(1)
    girth = dual_girth(geometric_dual(h))
    assert girth * girth * 9 * 1 >= k * k
    for it in log.iterations:
        assert below_threshold(it.cycle_length, k, 1)
        assert (it.genus_after < it.genus_before
                or it.components_after > it.components_before)
    assert len(log.iterations) <= (g.genus() - h.genus()) + (kappa - 1)
    if kappa >= 2:  # inter-component edge accounting, eq. only binds then
        assert 9 * 1 * kappa * kappa <= 4 * len(log.iterations) ** 2
    print(f"\nACCEPTANCE 5 PASS: torus x{q}: kappa(H) = {kappa} <= 2, "
          f"girth {girth} meets k/(3 sqrt(g)), {len(log.iterations)} "
          f"iterations, dichotomy clean")


@pytest.mark.parametrize("q", [2, 3, 12])
def test_criterion_06_genus_branch_thinness(q):
    g = amplify(torus_grid(3, 3), q)
    assert g.vertex_count <= 16
    k = 4 * q
    result = bounded_genus_thin_tree(g)
    report = brute_force_thinness(g, result.tree_edges)
    bound = genus_bound(1) / k  # 7 sqrt(1) alpha(1) / k = 42/k, exact
    assert report.max_ratio <= bound
    print(f"\nACCEPTANCE 6 PASS: torus x{q}: merged tree thinness "
          f"{report.max_ratio} <= 42/{k}")


def _weighted_battery():
    def costs(seed):
        rng = PCG32(seed)
        return lambda new, old: rng.randint(1, 100)

    return [
        ("cube x20", amplify(prism_graph(4), 20, costs=costs(7)), 0),
        ("cube x12", amplify(prism_graph(4), 12, costs=costs(8)), 0),
        ("cube x24", amplify(prism_graph(4), 24, costs=costs(9)), 0),
        ("C6 x12", amplify(cycle_graph(6), 12, costs=costs(10)), 0),
        ("prism5 x8", amplify(prism_graph(5), 8, costs=costs(11)), 0),
        ("torus x3", amplify(torus_grid(3, 3), 3, costs=costs(12)), 1),
    ]


def test_criterion_07_weighted_thin_trees():
    for name, g, genus in _weighted_battery():
        assert g.vertex_count <= 12
        assert g.genus() == genus
        k = edge_connectivity(g)
        g_val = genus_bound(genus)
        w = weighted_thin_tree(g)
        claimed = 2 * g_val / k
        report = brute_force_thinness(g, w.tree_edges)
        assert report.max_ratio <= claimed
        assert w.c_tree <= claimed * w.c_graph
        for i, k_i in enumerate(w.connectivity_trace):
            assert Fraction(k_i) >= k - i * g_val
    print(f"\nACCEPTANCE 7 PASS: {len(_weighted_battery())} weighted "
          f"instances meet (2g/k, 2g/k) with residual schedule intact")


def test_criterion_08_held_karp_solver():
    count = 0
    for seed in range(25):
        for n in (5, 6, 7, 8):
            inst = ATSPInstance.from_matrix(
                random_metric(n, PCG32(1000 * seed + n)))
            sol = solve_held_karp(inst)
            opt, _ = brute_force_atsp(inst.cost)
            assert sol.objective <= opt
            value, _ = directed_global_min_cut(n, sol.x)
            assert value >= 1
            count += 1
    assert count == 100
    print(f"\nACCEPTANCE 8 PASS: 100 instances: LP objective <= DP optimum "
          f"and final separation sweep clean (exact)")


@pytest.mark.parametrize("n,seed", [(6, 1), (8, 2), (10, 3)])
def test_criterion_09_end_to_end_atsp(n, seed):
    matrix, emb = lp_support_instance(n, PCG32(seed))
    inst = ATSPInstance.from_matrix(matrix)
    tour, report = atsp_approx(inst, emb, denominator=60)
    assert verify_tour(tour.order, inst.cost) == tour.cost
    opt, _ = brute_force_atsp(inst.cost)
    assert tour.cost >= opt
    assert report["beta"] == 10
    bound = 3 * 10 * (1 + Fraction(1, n)) * report["opt_hk"]
    assert tour.cost <= bound
    ratio = tour.cost / report["opt_hk"]
    print(f"\nACCEPTANCE 9 PASS: n={n}: tour {tour.cost} within bound "
          f"{bound} (ratio to OPT_HK = {float(ratio):.3f}, far below 30)")


def _run_cli(args, cwd, env):
    proc = subprocess.run([sys.executable, "-m", "thintree"] + args,
                          capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_10_cli_determinism(tmp_path, cli_env):
    gen_cases = [
        ["gen", "--family", "planar-amplified", "--base", "cube",
         "--mult", "12", "--seed", "5", "--cost-model", "uniform-range",
         "--weighted"],
        ["gen", "--family", "torus-grid", "--rows", "3", "--cols", "3",
         "--mult", "3", "--seed", "7"],
        ["gen", "--family", "random-metric", "--n", "7", "--seed", "9"],
        ["gen", "--family", "lp-support-instance", "--n", "6", "--seed", "1"],
    ]
    outputs = {}
    for rep in ("a", "b"):
        base = tmp_path / rep
        base.mkdir()
        cube = base / "cube.emb"
        torus = base / "torus.emb"
        metric = base / "metric.atsp"
        inst = base / "inst.atsp"
        support = base / "support.emb"
        _run_cli(gen_cases[0] + ["--out", str(cube)], tmp_path, cli_env)
        _run_cli(gen_cases[1] + ["--out", str(torus)], tmp_path, cli_env)
        _run_cli(gen_cases[2] + ["--out", str(metric)], tmp_path, cli_env)
        _run_cli(gen_cases[3] + ["--out", str(inst),
                                 "--emb-out", str(support)], tmp_path, cli_env)
        tree = base / "tree.json"
        _run_cli(["thin-tree", "--in", str(cube), "--out", str(tree),
                  "--certify"], tmp_path, cli_env)
        h = base / "h.emb"
        log = base / "log.json"
        _run_cli(["surgery", "--in", str(torus), "--k", "12",
                  "--out", str(h), "--log", str(log)], tmp_path, cli_env)
        pipe = base / "pipe.json"
        _run_cli(["pipeline", "--in", str(cube), "--weighted",
                  "--out", str(pipe)], tmp_path, cli_env)
        tour = base / "tour.json"
        _run_cli(["atsp", "--in", str(inst), "--emb", str(support),
                  "--denominator", "60", "--out", str(tour)],
                 tmp_path, cli_env)
        v1 = _run_cli(["verify", "thinness", "--in", str(cube),
                       "--edges", str(tree)], tmp_path, cli_env)
        v2 = _run_cli(["verify", "tour", "--in", str(inst),
                       "--tour", str(tour)], tmp_path, cli_env)
        outputs[rep] = [p.read_bytes() for p in
                        (cube, torus, metric, inst, support, tree, h, log,
                         pipe, tour)] + [v1, v2]
    assert outputs["a"] == outputs["b"]
    print("\nACCEPTANCE 10 PASS: all CLI commands byte-identical across "
          "two runs")

"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

import check
import handles
import hostspeed
import layers
import run
import workloads
from tracing import Tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def api():
    return run.Api()


def cube(api, q):
    g = api.genlab.amplify(api.genlab.prism_graph(4), q)
    g.edge_cost = {e: Fraction(1 + e % 7) for e in g.edges()}
    return g


def test_checker_accepts_a_real_thin_tree(api):
    g = cube(api, 8)
    out = api.pipeline.weighted_thin_tree(g)
    problems, report = check.tree_problems(
        api, g, out.tree_edges, out.thinness, out.cost_ratio)
    assert problems == []
    assert report is not None and report.max_ratio <= out.thinness


def test_checker_rejects_non_spanning_tree(api):
    g = cube(api, 8)
    tree = list(api.pipeline.weighted_thin_tree(g).tree_edges)
    # V-1 edges, but two parallel copies among them: the graph falls apart
    u, v = g.endpoints(tree[0])
    twin = next(e for e in g.edges() if e not in tree and set(g.endpoints(e)) == {u, v})
    bad = tree[:-1] + [twin]
    assert check.spanning_problems(g, bad)
    assert check.spanning_problems(g, tree[:-1])
    problems, _ = check.tree_problems(api, g, bad, Fraction(1), Fraction(0))
    assert any("component" in p for p in problems)


def test_checker_rejects_non_hamiltonian_tour(api):
    rng = api.prng.PCG32(3)
    inst = api.heldkarp.ATSPInstance.from_matrix(api.genlab.random_metric(6, rng))
    optimum, order = api.oracle.brute_force_atsp(inst.cost)
    assert check.tour_problems(api, inst, order, optimum, optimum, Fraction(10)) == []
    repeated = order[:-1] + [order[0]]
    problems = check.tour_problems(api, inst, repeated, optimum, optimum, Fraction(10))
    assert problems and "Hamiltonian" in problems[0]


def test_checker_rejects_lp_value_above_optimum(api):
    rng = api.prng.PCG32(4)
    inst = api.heldkarp.ATSPInstance.from_matrix(api.genlab.random_metric(6, rng))
    optimum, order = api.oracle.brute_force_atsp(inst.cost)
    assert check.tour_problems(api, inst, order, optimum, optimum + 1, Fraction(10))


@pytest.mark.parametrize("h", [1, 2, 4])
def test_handle_instances_have_genus_h_and_surgery_iterates(api, h):
    g = handles.handle_instance(api, 4, 8, h, seed=11)
    assert g.genus() == h
    _, log = api.surgery.increase_dual_girth(g, api.flows.edge_connectivity(g))
    assert len(log.iterations) == h


def test_relabel_presents_an_isomorphic_instance(api):
    files = api.genlab.generate(
        api.genlab.GenSpec("lp-support-instance", {"n": 6, "seed": 2}))
    perm = [3, 0, 5, 1, 4, 2]
    atsp_text, emb_text = workloads.relabel(files, perm)
    before = api.formats.read_atsp(files["instance.atsp"])
    after = api.formats.read_atsp(atsp_text)
    assert all(after[perm[i]][perm[j]] == before[i][j]
               for i in range(6) for j in range(6))
    old, new = api.formats.read_emb(files["support.emb"]), api.formats.read_emb(emb_text)
    assert new.genus() == old.genus() == 0
    assert all(new.endpoints(e) == tuple(perm[v] for v in old.endpoints(e))
               for e in old.edges())


def test_percentile_is_nearest_rank():
    assert run.percentile(list(range(1, 201)), 90.0) == 180
    assert run.percentile(list(range(1, 201)), 95.0) == 190
    assert run.percentile(list(range(1, 19)), 50.0) == 9


def test_host_speed_samples_a_share_of_timed_time_and_reads_its_slow_down():
    speed = hostspeed.HostSpeed()
    speed.after(40 * speed.samples[0])
    assert speed.reference_s >= speed.SHARE * speed.timed_s
    assert len(speed.samples) >= 2
    speed.samples = [2 * hostspeed.NOMINAL_S] * 3
    assert speed.factor() == pytest.approx(2.0)


def test_tracer_rebinds_every_site_and_restores_them(api):
    original = api.flows.edge_connectivity
    sites = (api.flows, api.pipeline, api.surgery)
    assert all(m.edge_connectivity is original for m in sites)
    tracer = Tracer(api)
    tracer.install()
    try:
        assert all(m.edge_connectivity is not original for m in sites)
        tracer.instance = 0
        api.pipeline.weighted_thin_tree(cube(api, 8))
    finally:
        tracer.uninstall()
    assert all(m.edge_connectivity is original for m in sites)
    spans, _, counts, _ = tracer.summary([0])
    assert spans["flows.edge_connectivity"]["calls"] >= 2
    assert counts["embedding.edges"] > 0


def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


def test_declared_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metrics_match_benchmark_json(trace):
    code, result = _result(["--workload", "thin-genus", "--seed", "5",
                            "--seconds", "0.1", "--trace", trace])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    key = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "1":
        assert result["metrics"]["surgery.iterations"]["value"] >= 1

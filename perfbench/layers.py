"""The program's layers as the benchmark sees them.

``WRAPPED`` names each public function the traced run wraps, ``PER_LAYER``
the per-layer metrics it reports (the same list, in the same order, as
``per_layer`` in BENCHMARK.json), and ``LAYER_MAP`` which end-to-end metric
each layer should move and on which workloads its functions must run.  The
traced run's self-check reads ``LAYER_MAP`` and ``MUST_BE_IDLE``, so a
missed rebinding site shows up as a failed run rather than a silent 0.

Every per-layer value is a mean per traced instance, set-up of that
instance included, except the ratios (``*_ratio``, ``*_frac``), the
verification metrics (per verified instance) and ``trace.instances``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Wrap:
    name: str                # metric prefix, e.g. "dual.shortest_dual_cycle"
    module: str              # thintree submodule that defines it
    attr: str
    cls: str | None = None   # owning class, for methods
    mode: str = "span"       # "span", or "count" for functions too hot to span
    hook: object = None      # (args, result) -> {quantity: value}


WRAPPED = (
    Wrap("dual.shortest_dual_cycle", "dual", "shortest_dual_cycle",
         hook=lambda a, r: {"dual_edges": len(a[0].dual_edges),
                            "dual_faces": a[0].face_count}),
    Wrap("dual.geometric_dual", "dual", "geometric_dual"),
    Wrap("spanning.thin_spanning_tree", "spanning", "thin_spanning_tree"),
    Wrap("spanning.select_far_edge_set", "spanning", "select_far_edge_set"),
    Wrap("spanning.find_threads", "spanning", "find_threads", mode="count"),
    Wrap("surgery.increase_dual_girth", "surgery", "increase_dual_girth",
         hook=lambda a, r: {"iterations": len(r[1].iterations)}),
    Wrap("pipeline.weighted_thin_tree", "pipeline", "weighted_thin_tree",
         hook=lambda a, r: {"rounds": r.rounds}),
    Wrap("pipeline.bounded_genus_thin_tree", "pipeline", "bounded_genus_thin_tree"),
    Wrap("embedding.expand_parallel", "embedding", "expand_parallel"),
    Wrap("embedding.delete_edges", "embedding", "delete_edges", cls="EmbeddedGraph"),
    Wrap("embedding.genus", "embedding", "genus", cls="EmbeddedGraph", mode="count"),
    Wrap("embedding.edges", "embedding", "edges", cls="EmbeddedGraph", mode="count"),
    Wrap("flows.edge_connectivity", "flows", "edge_connectivity"),
    Wrap("flows.max_flow", "flows", "max_flow", cls="FlowNetwork", mode="count"),
    Wrap("flows.directed_global_min_cut", "flows", "directed_global_min_cut"),
    Wrap("flows.min_cost_circulation", "flows", "min_cost_circulation"),
    Wrap("simplex.solve_lp", "simplex", "solve_lp",
         hook=lambda a, r: {"tableau_cells": len(a[1]) * len(a[0])}),
    Wrap("heldkarp.solve_held_karp", "heldkarp", "solve_held_karp",
         hook=lambda a, r: {"cuts_added": r.cuts_added}),
    Wrap("heldkarp.ATSPInstance.from_matrix", "heldkarp", "from_matrix",
         cls="ATSPInstance"),
    Wrap("atsp.atsp_approx", "atsp", "atsp_approx"),
    Wrap("atsp.discretize", "atsp", "discretize"),
    Wrap("atsp.expand_support_embedding", "atsp", "expand_support_embedding",
         hook=lambda a, r: {"expanded_edges": r[0].edge_count}),
    Wrap("atsp.round_to_tour", "atsp", "round_to_tour"),
    Wrap("genlab.generate", "genlab", "generate"),
    Wrap("formats.read_emb", "formats", "read_emb"),
    Wrap("formats.read_atsp", "formats", "read_atsp"),
)

THIN = ("thin-planar", "thin-genus")
ALL = ("thin-planar", "thin-genus", "atsp-lp")

# layer -> functions -> the end-to-end metric they should move -> the
# workloads on which each of the functions must be called.
LAYER_MAP = (
    ("dual", ("dual.shortest_dual_cycle", "dual.geometric_dual"),
     "instance_s.p50, instances_per_s", THIN),
    ("spanning", ("spanning.thin_spanning_tree", "spanning.select_far_edge_set",
                  "spanning.find_threads"),
     "instance_s.p50 on thin-planar", ALL),
    ("surgery", ("surgery.increase_dual_girth",), "instance_s.p50", ("thin-genus",)),
    ("pipeline", ("pipeline.weighted_thin_tree", "pipeline.bounded_genus_thin_tree"),
     "instance_s.p50 (multi-round on thin-planar)", ALL),
    ("embedding", ("embedding.expand_parallel", "embedding.edges"),
     "setup_s, peak_rss_mb (thin-*); instance_s.p50 (atsp-lp)", ALL),
    ("embedding", ("embedding.delete_edges", "embedding.genus"),
     "instance_s.p50", ("thin-genus",)),
    ("flows", ("flows.edge_connectivity", "flows.max_flow"),
     "none expected (about 1% of time)", ALL),
    ("flows", ("flows.directed_global_min_cut", "flows.min_cost_circulation"),
     "instance_s.p50", ("atsp-lp",)),
    ("simplex", ("simplex.solve_lp",), "instance_s.p50", ("atsp-lp",)),
    ("heldkarp", ("heldkarp.solve_held_karp",), "instance_s.p50", ("atsp-lp",)),
    ("atsp", ("atsp.atsp_approx", "atsp.discretize", "atsp.expand_support_embedding",
              "atsp.round_to_tour"),
     "instance_s.p50, peak_rss_mb", ("atsp-lp",)),
    ("setup", ("genlab.generate",), "setup_s", ("thin-planar", "atsp-lp")),
    ("setup", ("formats.read_emb",), "setup_s", ALL),
    ("setup", ("formats.read_atsp", "heldkarp.ATSPInstance.from_matrix"),
     "setup_s", ("atsp-lp",)),
)

# Functions that must not run at all on a workload.
MUST_BE_IDLE = {
    "thin-planar": ("surgery.increase_dual_girth", "simplex.solve_lp"),
}

# (metric name, unit, better), in BENCHMARK.json order.
PER_LAYER = (
    ("dual.shortest_dual_cycle.calls", "count", "lower"),
    ("dual.shortest_dual_cycle.self_s", "s", "lower"),
    ("dual.shortest_dual_cycle.dual_edges", "count", "lower"),
    ("dual.shortest_dual_cycle.dual_faces", "count", "lower"),
    ("dual.geometric_dual.calls", "count", "lower"),
    ("dual.geometric_dual.self_s", "s", "lower"),
    ("spanning.thin_spanning_tree.calls", "count", "lower"),
    ("spanning.thin_spanning_tree.self_s", "s", "lower"),
    ("spanning.select_far_edge_set.calls", "count", "lower"),
    ("spanning.select_far_edge_set.self_s", "s", "lower"),
    ("spanning.find_threads.calls", "count", "lower"),
    ("surgery.increase_dual_girth.calls", "count", "lower"),
    ("surgery.increase_dual_girth.self_s", "s", "lower"),
    ("surgery.increase_dual_girth.total_s", "s", "lower"),
    ("surgery.iterations", "count", "lower"),
    ("surgery.hit_ratio", "ratio", "higher"),
    ("pipeline.weighted_thin_tree.calls", "count", "lower"),
    ("pipeline.weighted_thin_tree.self_s", "s", "lower"),
    ("pipeline.weighted_thin_tree.rounds", "count", "lower"),
    ("pipeline.bounded_genus_thin_tree.calls", "count", "lower"),
    ("pipeline.bounded_genus_thin_tree.self_s", "s", "lower"),
    ("embedding.expand_parallel.calls", "count", "lower"),
    ("embedding.expand_parallel.self_s", "s", "lower"),
    ("embedding.delete_edges.calls", "count", "lower"),
    ("embedding.delete_edges.self_s", "s", "lower"),
    ("embedding.genus.calls", "count", "lower"),
    ("embedding.edges.calls", "count", "lower"),
    ("flows.edge_connectivity.calls", "count", "lower"),
    ("flows.edge_connectivity.self_s", "s", "lower"),
    ("flows.max_flow.calls", "count", "lower"),
    ("flows.directed_global_min_cut.calls", "count", "lower"),
    ("flows.directed_global_min_cut.self_s", "s", "lower"),
    ("flows.min_cost_circulation.calls", "count", "lower"),
    ("flows.min_cost_circulation.self_s", "s", "lower"),
    ("simplex.solve_lp.calls", "count", "lower"),
    ("simplex.solve_lp.self_s", "s", "lower"),
    ("simplex.solve_lp.tableau_cells", "count", "lower"),
    ("heldkarp.solve_held_karp.calls", "count", "lower"),
    ("heldkarp.solve_held_karp.self_s", "s", "lower"),
    ("heldkarp.solve_held_karp.total_s", "s", "lower"),
    ("heldkarp.cut_rounds", "count", "lower"),
    ("heldkarp.cut_hit_ratio", "ratio", "higher"),
    ("atsp.atsp_approx.self_s", "s", "lower"),
    ("atsp.discretize.self_s", "s", "lower"),
    ("atsp.expand_support_embedding.self_s", "s", "lower"),
    ("atsp.expanded_edges", "count", "lower"),
    ("atsp.round_to_tour.self_s", "s", "lower"),
    ("genlab.generate.total_s", "s", "lower"),
    ("formats.read_emb.total_s", "s", "lower"),
    ("formats.read_atsp.total_s", "s", "lower"),
    ("heldkarp.ATSPInstance.from_matrix.total_s", "s", "lower"),
    ("oracle.verify_s", "s", "lower"),
    ("oracle.cuts_checked", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.cpu_s", "s", "lower"),
    ("trace.instances", "count", "higher"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(summary, traced, untraced_s, traced_s, verify_s,
                      verified, cuts_checked) -> dict:
    """Per-layer metric values from a tracer summary and run totals.

    ``traced`` is the number of traced instances; ``untraced_s`` and
    ``traced_s`` are the CPU times of the same instances solved without
    and with the wrappers.
    """
    spans, parents, counts, extra = summary
    per = max(traced, 1)
    raw = {}
    for name, row in spans.items():
        for key, value in row.items():
            raw[f"{name}.{key}"] = value
    for name, value in counts.items():
        raw[f"{name}.calls"] = value
    raw.update(extra)
    raw["surgery.iterations"] = extra.get("surgery.increase_dual_girth.iterations", 0)
    raw["atsp.expanded_edges"] = extra.get(
        "atsp.expand_support_embedding.expanded_edges", 0)
    raw["heldkarp.cut_rounds"] = parents.get(
        ("simplex.solve_lp", "heldkarp.solve_held_karp"), 0)

    out = {}
    for name, _, _ in PER_LAYER:
        out[name] = raw.get(name, 0) / per
    surgery_searches = parents.get(
        ("dual.shortest_dual_cycle", "surgery.increase_dual_girth"), 0)
    out["surgery.hit_ratio"] = _ratio(raw["surgery.iterations"], surgery_searches)
    separations = parents.get(
        ("flows.directed_global_min_cut", "heldkarp.solve_held_karp"), 0)
    out["heldkarp.cut_hit_ratio"] = _ratio(
        extra.get("heldkarp.solve_held_karp.cuts_added", 0), separations)
    out["oracle.verify_s"] = _ratio(verify_s, verified)
    out["oracle.cuts_checked"] = _ratio(cuts_checked, verified)
    out["trace.overhead_frac"] = _ratio(traced_s, untraced_s) - 1 if untraced_s else 0.0
    out["trace.cpu_s"] = traced_s / per
    out["trace.instances"] = traced
    return out


def self_check(workload: str, summary) -> list[str]:
    """Problems with the trace of one workload: functions that should have
    run but were never seen, and functions that ran but must not."""
    spans, _, counts, _ = summary
    calls = {name: row["calls"] for name, row in spans.items()}
    calls.update(counts)
    problems = []
    for layer, functions, _, workloads in LAYER_MAP:
        if workload not in workloads:
            continue
        for fn in functions:
            if calls.get(fn, 0) == 0:
                problems.append(f"{layer}: {fn} has no calls on {workload}")
    for fn in MUST_BE_IDLE.get(workload, ()):
        if calls.get(fn, 0):
            problems.append(f"{fn} ran {calls[fn]} times on {workload}")
    return problems

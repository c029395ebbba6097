"""Command-line front ends.

Every command is exposed both as a console script (gen, thin-tree, surgery,
pipeline, atsp, verify) and as a subcommand of ``python -m thintree``.  All
outputs are deterministic: JSON is sorted, fractions are rendered exactly,
and no timestamps or floats enter the files.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import genlab, oracle
from .atsp import atsp_approx
from .errors import ThinTreeError, TooLargeError
from .flows import edge_connectivity
from .formats import format_cost, read_atsp, read_emb
from .heldkarp import ATSPInstance
from .pipeline import bounded_genus_thin_tree, weighted_thin_tree
from .spanning import thin_spanning_tree
from .surgery import increase_dual_girth


def _frac(value) -> str:
    return format_cost(Fraction(value))


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def cmd_gen(args) -> int:
    params = {"seed": args.seed}
    if args.family == "planar-amplified":
        params.update(base=args.base, n=args.n, mult=args.mult,
                      weighted=args.weighted)
    elif args.family == "torus-grid":
        params.update(rows=args.rows, cols=args.cols, mult=args.mult,
                      weighted=args.weighted)
    else:
        params.update(n=args.n)
    spec = genlab.GenSpec(args.family, params, args.cost_model)
    files = genlab.generate(spec)
    if args.family == "lp-support-instance":
        _write(args.out, files["instance.atsp"])
        _write(args.emb_out or args.out + ".emb", files["support.emb"])
    else:
        _write(args.out, next(iter(files.values())))
    return 0


def cmd_thin_tree(args) -> int:
    g = read_emb(_read(args.infile))
    result = thin_spanning_tree(g)
    payload = {
        "tree_edges": sorted(result.tree_edges),
        "far_set": sorted(result.far_set),
        "g_star": result.g_star,
        "alpha": result.alpha,
        "thinness_bound": _frac(result.thinness_bound),
        "certificate_distance": result.certificate_distance,
    }
    if result.cost_ratio is not None:
        payload["cost_ratio"] = _frac(result.cost_ratio)
    if args.certify:
        if g.vertex_count > oracle.MAX_CUT_VERTICES:
            raise TooLargeError(
                f"--certify refuses graphs with more than "
                f"{oracle.MAX_CUT_VERTICES} vertices (got {g.vertex_count})")
        report = oracle.brute_force_thinness(g, result.far_set)
        payload["certified_max_ratio"] = _frac(report.max_ratio)
        payload["witness_cut"] = sorted(report.witness_cut.side)
        payload["cuts_checked"] = report.cuts_checked
    _write(args.out, _dump(payload))
    return 0


def cmd_surgery(args) -> int:
    g = read_emb(_read(args.infile))
    h, log = increase_dual_girth(g, args.k)
    from .formats import write_emb
    _write(args.out, write_emb(h))
    lines = [json.dumps(rec, sort_keys=True) for rec in log.records()]
    lines.append(json.dumps({"total_deleted": log.total_deleted,
                             "k": log.k, "genus": log.genus}, sort_keys=True))
    _write(args.log, "\n".join(lines) + "\n")
    return 0


def cmd_pipeline(args) -> int:
    g = read_emb(_read(args.infile))
    if args.weighted:
        result = weighted_thin_tree(g)
        payload = {
            "tree_edges": sorted(result.tree_edges),
            "thinness": _frac(result.thinness),
            "cost_ratio": _frac(result.cost_ratio),
            "c_tree": _frac(result.c_tree),
            "c_graph": _frac(result.c_graph),
            "rounds": result.rounds,
            "connectivity_trace": result.connectivity_trace,
            "truncated": result.truncated,
        }
    else:
        result = bounded_genus_thin_tree(g)
        payload = {
            "tree_edges": sorted(result.tree_edges),
            "far_set": sorted(result.far_set),
            "thinness_bound": _frac(result.thinness_bound),
            "certificate_distance": result.certificate_distance,
            "g_star": result.g_star,
            "alpha": result.alpha,
            "genus": g.genus(),
            "edge_connectivity": edge_connectivity(g),
        }
        if result.cost_ratio is not None:
            payload["cost_ratio"] = _frac(result.cost_ratio)
    _write(args.out, _dump(payload))
    return 0


def cmd_atsp(args) -> int:
    inst = ATSPInstance.from_matrix(read_atsp(_read(args.infile)))
    emb = read_emb(_read(args.emb))
    tour, report = atsp_approx(inst, emb, denominator=args.denominator)
    payload = {"order": list(tour.order), "cost": _frac(tour.cost)}
    for key, value in report.items():
        if isinstance(value, Fraction):
            payload[key] = _frac(value)
        else:
            payload[key] = value
    _write(args.out, _dump(payload))
    return 0


def cmd_verify(args) -> int:
    if args.what == "thinness":
        g = read_emb(_read(args.infile))
        edges = json.loads(_read(args.edges))
        edge_set = edges["tree_edges"] if isinstance(edges, dict) else edges
        report = oracle.brute_force_thinness(g, edge_set)
        payload = {
            "max_ratio": _frac(report.max_ratio),
            "witness_cut": sorted(report.witness_cut.side),
            "cuts_checked": report.cuts_checked,
        }
    else:
        inst = ATSPInstance.from_matrix(read_atsp(_read(args.infile)))
        tour = json.loads(_read(args.tour))
        order = tour["order"] if isinstance(tour, dict) else tour
        cost = oracle.verify_tour(order, inst.cost)
        payload = {"cost": _frac(cost), "hamiltonian": True}
    sys.stdout.write(_dump(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thintree",
        description="Thin spanning trees on embedded graphs and ATSP rounding.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument("--family", required=True, choices=genlab.FAMILIES)
    p.add_argument("--base", default="cube", help="planar base graph")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--mult", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cost-model", choices=genlab.COST_MODELS,
                   help="default: unit for embeddings, asymmetric-skew "
                        "for random-metric")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--emb-out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("thin-tree", help="thin spanning tree of an embedding")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--certify", action="store_true",
                   help="run the exhaustive cut oracle (V <= 24)")
    p.set_defaults(func=cmd_thin_tree)

    p = sub.add_parser("surgery", help="raise dual girth by cycle deletion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", required=True)
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("pipeline", help="bounded-genus / weighted thin tree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("atsp", help="round a Held-Karp solution to a tour")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--denominator", type=int)
    p.add_argument("--exact", action="store_true",
                   help="accepted for old command lines; does nothing, "
                        "every Held-Karp solve is exact")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_atsp)

    p = sub.add_parser("verify", help="brute-force verification")
    vsub = p.add_subparsers(dest="what", required=True)
    v = vsub.add_parser("thinness")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--edges", required=True)
    v.set_defaults(func=cmd_verify)
    v = vsub.add_parser("tour")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--tour", required=True)
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ThinTreeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _entry(command):
    def run():
        sys.exit(main([command] + sys.argv[1:]))
    return run


main_gen = _entry("gen")
main_thin_tree = _entry("thin-tree")
main_surgery = _entry("surgery")
main_pipeline = _entry("pipeline")
main_atsp = _entry("atsp")
main_verify = _entry("verify")

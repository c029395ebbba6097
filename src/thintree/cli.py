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
from dataclasses import asdict

from . import genlab, oracle
from .atsp import atsp_approx
from .errors import (
    FormatError,
    InvalidInputError,
    ThinnessBoundViolatedError,
    ThinTreeError,
    TooLargeError,
)
from .flows import edge_connectivity
from .formats import format_cost, parse_cost, read_atsp, read_emb, write_emb
from .heldkarp import ATSPInstance
from .pipeline import bounded_genus_thin_tree, weighted_thin_tree
from .spanning import thin_spanning_tree, tree_cost_ratio
from .surgery import increase_dual_girth


def _dump(obj) -> str:
    """Sorted, indented JSON; every Fraction written by ``format_cost``."""
    return json.dumps(obj, sort_keys=True, indent=2, default=format_cost) + "\n"


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror}") from None


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror}") from None


def _tree_payload(g, result) -> dict:
    """The fields of a ThinTreeResult and its certificate_distance, plus
    cost_ratio when g is weighted."""
    payload = asdict(result)
    payload["certificate_distance"] = result.certificate_distance
    cost_ratio = tree_cost_ratio(g, result.tree_edges)
    if cost_ratio is not None:
        payload["cost_ratio"] = cost_ratio
    return payload


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
    payload = _tree_payload(g, result)
    if args.certify:
        if g.vertex_count > oracle.MAX_CUT_VERTICES:
            raise TooLargeError(
                f"--certify refuses graphs with more than "
                f"{oracle.MAX_CUT_VERTICES} vertices (got {g.vertex_count})")
        report = oracle.brute_force_thinness(g, result.far_set)
        payload["certified_max_ratio"] = report.max_ratio
        payload["witness_cut"] = sorted(report.witness_cut.side)
        payload["cuts_checked"] = report.cuts_checked
    _write(args.out, _dump(payload))
    return 0


def cmd_surgery(args) -> int:
    g = read_emb(_read(args.infile))
    h, log = increase_dual_girth(g, args.k)
    _write(args.out, write_emb(h))
    lines = [json.dumps(rec, sort_keys=True) for rec in log.records()]
    lines.append(json.dumps({"total_deleted": log.total_deleted,
                             "k": log.k, "genus": log.genus}, sort_keys=True))
    _write(args.log, "\n".join(lines) + "\n")
    return 0


def cmd_pipeline(args) -> int:
    g = read_emb(_read(args.infile))
    if args.weighted:
        payload = asdict(weighted_thin_tree(g))
    else:
        payload = _tree_payload(g, bounded_genus_thin_tree(g))
        payload.update(genus=g.genus(), edge_connectivity=edge_connectivity(g))
    _write(args.out, _dump(payload))
    return 0


def cmd_atsp(args) -> int:
    inst = ATSPInstance.from_matrix(read_atsp(_read(args.infile)))
    emb = read_emb(_read(args.emb))
    tour, report = atsp_approx(inst, emb, denominator=args.denominator)
    _write(args.out, _dump({"order": tour.order, "cost": tour.cost, **report}))
    return 0


def _json_list(path: str, key: str):
    """The JSON file at ``path`` and the list in it: the whole file, or
    the ``key`` entry of an object."""
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    value = data.get(key) if isinstance(data, dict) else data
    if not isinstance(value, list):
        raise FormatError(f"{path}: want a list or an object with a {key!r} list")
    return data, value


def cmd_verify(args) -> int:
    if args.what == "thinness":
        g = read_emb(_read(args.infile))
        data, edges = _json_list(args.edges, "tree_edges")
        report = oracle.brute_force_thinness(g, edges)
        # a tree file claims thinness_bound (thin-tree, pipeline) or
        # thinness (pipeline --weighted); a bare list claims nothing
        claimed = None
        if isinstance(data, dict):
            claimed = data.get("thinness_bound", data.get("thinness"))
        if claimed is not None and report.max_ratio > parse_cost(str(claimed)):
            raise ThinnessBoundViolatedError(
                f"{args.edges}: measured thinness {report.max_ratio} exceeds "
                f"the claimed {claimed}")
        payload = {**asdict(report), "witness_cut": sorted(report.witness_cut.side)}
    else:
        inst = ATSPInstance.from_matrix(read_atsp(_read(args.infile)))
        _, order = _json_list(args.tour, "order")
        cost = oracle.verify_tour(order, inst.cost) / inst.scale
        payload = {"cost": cost, "hamiltonian": True}
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

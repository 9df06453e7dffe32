"""Command-line front end.

JSON-first: every command prints a single JSON document (pretty-printed
with --pretty) and signals its outcome through the exit code:

    0  solved / check passed
    1  unsolvable / counterexample / violation found
    2  input error
    3  node budget exceeded
    4  known exceptional shape reported
    5  internal error (a bug in edgeext, never a verdict)

All solving commands re-verify any printed colouring before exiting.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import traceback

from .core import (InputError, INFINITE_DISTANCE, MultiGraph, edge_distance,
                   _is_int)
from .colouring import (Palette, colouring_from_json_obj, colouring_to_json_obj,
                        is_proper, max_precoloured_degree, _resolve_edge_key)
from . import exact, kernels, gallai, planar, instances


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_graph(path: str) -> MultiGraph:
    return MultiGraph.from_json_obj(_load_json(path))


def _load_colouring(g: MultiGraph, path: str):
    obj = _load_json(path)
    return colouring_from_json_obj(g, obj)


def _load_lists(g: MultiGraph, path: str):
    obj = _load_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("lists"), dict):
        raise InputError(f"{path}: expected an object with a 'lists' map")
    lists = {}
    for key, value in obj["lists"].items():
        eid = _resolve_edge_key(g, key, f"{path}: 'lists'")
        if not isinstance(value, list) or not all(
                _is_int(c) and c >= 1 for c in value):
            raise InputError(f"list for edge {key!r} must hold colours >= 1")
        lists[eid] = frozenset(value)
    return lists


def _emit(obj: dict, args) -> None:
    if not getattr(args, "no_timestamp", False):
        obj = dict(obj)
        obj["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    if getattr(args, "pretty", False):
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(json.dumps(obj, sort_keys=True))


_EXIT = {exact.SOLVED: 0, exact.UNSOLVABLE: 1, exact.BUDGET: 3}


def _finish_outcome(g: MultiGraph, outcome, args, extra=None, palette=None,
                    fixed=(), forbidden=()) -> int:
    if outcome.solved:
        col = outcome.colouring
        if not is_proper(g, col):
            raise AssertionError("refusing to print an improper colouring")
        if len(col) != len(g.edges):
            raise AssertionError("refusing to print a partial colouring")
        if (palette is not None and any(c not in palette for c in col.values())
                or any(col[e] != fixed[e] for e in fixed)
                or any(col[e] == forbidden[e] for e in forbidden)):
            raise AssertionError("refusing to print a colouring that leaves "
                                 "the palette or breaks a fixed colour")
    if outcome.solved and getattr(args, "dot", None):
        _write(args.dot, g.to_dot(outcome.colouring))
    obj = outcome.to_json_obj()
    if extra:
        obj.update(extra)
    _emit(obj, args)
    return _EXIT[outcome.status]


# -- commands ------------------------------------------------------------

def _cmd_extend(args) -> int:
    g = _load_graph(args.graph)
    pre, declared = _load_colouring(g, args.colours)
    palette = declared if args.palette is None else Palette(args.palette)
    method = args.method
    if method == "auto":
        method = _pick_method(g, pre, palette)
    if method == "exact":
        outcome = exact.extend(g, pre, palette, budget=args.budget)
    elif method == "kernel":
        extra = palette.k - g.delta()
        if extra < 1:
            raise InputError("kernel method needs palette size above Delta")
        outcome = kernels.extend_bipartite(g, None, pre, extra,
                                           budget=args.budget)
    elif method == "subcubic":
        if palette.k != 4:
            raise InputError("subcubic method needs palette size 4")
        outcome = gallai.extend_subcubic(g, pre, budget=args.budget)
    elif method == "gallai":
        extra = palette.k - g.delta()
        if extra < 0:
            raise InputError("gallai method needs palette size >= Delta")
        result = gallai.extend_gallai(g, pre, extra, budget=args.budget)
        if isinstance(result, gallai.ExceptionReport):
            _emit({"status": "exception", **result.to_json_obj()}, args)
            return 4
        outcome = result
    elif method == "planar":
        delta = g.delta()
        if palette.k == delta + 1:
            mode = planar.VARIANT_MATCHING
        elif palette.k == delta:
            mode = planar.VARIANT_DISTANCE3
        else:
            raise InputError(
                "planar method needs palette size Delta or Delta+1")
        outcome = planar.extend_planar(g, pre, mode, budget=args.budget)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown method {method!r}")
    return _finish_outcome(g, outcome, args, palette=palette, fixed=pre)


def _pick_method(g, pre, palette) -> str:
    extra = palette.k - g.delta()
    worst = max_precoloured_degree(g, pre)
    if extra >= 1 and worst <= extra:
        try:
            kernels.find_bipartition(g)
        except InputError:
            pass
        else:
            return "kernel"
    if g.delta() <= 3 and palette.k == 4 and worst <= 1:
        # extend_subcubic's hypothesis; unlike extend_gallai it colours a
        # disconnected graph component by component
        return "subcubic"
    return "exact"


def _cmd_avoid(args) -> int:
    g = _load_graph(args.graph)
    forbidden, declared = _load_colouring(g, args.colours)
    palette = declared if args.palette is None else Palette(args.palette)
    outcome = exact.avoid(g, forbidden, palette, budget=args.budget)
    return _finish_outcome(g, outcome, args, palette=palette,
                           forbidden=forbidden)


def _cmd_solve_list(args) -> int:
    g = _load_graph(args.graph)
    lists = _load_lists(g, args.lists)
    outcome = exact.solve_list(g, lists, budget=args.budget)
    return _finish_outcome(g, outcome, args)


def _cmd_chi(args) -> int:
    g = _load_graph(args.graph)
    try:
        value = exact.chromatic_index(g, budget=args.budget)
    except exact.BudgetSpent as spent:
        spent_outcome = exact.SolveOutcome(exact.BUDGET, nodes=spent.nodes,
                                           depth=spent.depth)
        return _finish_outcome(g, spent_outcome, args,
                               {"delta": g.delta(), "mu": g.mu()})
    _emit({"chi": value, "delta": g.delta(), "mu": g.mu()}, args)
    return 0


def _cmd_rho(args) -> int:
    g = _load_graph(args.graph)
    value = instances.compute_rho(g)
    _emit({"rho": str(value),
           "numerator": value.numerator,
           "denominator": value.denominator}, args)
    return 0


def _cmd_vizing(args) -> int:
    g = _load_graph(args.graph)
    colouring = exact.vizing_colour(g)
    obj = {"status": "solved",
           "colours_used": max(colouring.values(), default=0),
           "bound": exact.vizing_bound(g),
           "colouring": {str(eid): c for eid, c in colouring.items()}}
    if args.dot:
        _write(args.dot, g.to_dot(colouring))
    _emit(obj, args)
    return 0


_FAMILIES = {
    instances.SUBDIVIDED_STAR: 1,
    instances.CHAIN_BLOCKS: 2,
    instances.SHANNON_TRIANGLE: 3,
    instances.MULTI_STAR: 2,
}


def _cmd_gen(args) -> int:
    want = _FAMILIES[args.family]
    if len(args.params) != want:
        raise InputError(
            f"family {args.family} takes {want} parameter(s), "
            f"got {len(args.params)}")
    g, pre, palette = instances.generate(
        instances.FamilySpec(args.family, tuple(args.params)))
    graph_obj = g.to_json_obj()
    colours_obj = colouring_to_json_obj(pre, palette)
    if args.graph_out:
        _write(args.graph_out, json.dumps(graph_obj) + "\n")
    if args.colours_out:
        _write(args.colours_out, json.dumps(colours_obj) + "\n")
    _emit({"family": args.family, "params": list(args.params),
           "graph": graph_obj, "precolouring": colours_obj}, args)
    return 0


def _cmd_verify(args) -> int:
    try:
        report = instances.verify(
            args.claim, max_n=args.max_n, max_e=args.max_e,
            max_mu=args.max_mu, max_k=args.max_k,
            palette_offset=args.palette_offset, jobs=args.jobs,
            budget=args.budget, delta_max=args.delta_max)
    except exact.BudgetSpent as spent:
        spent_outcome = exact.SolveOutcome(exact.BUDGET, nodes=spent.nodes,
                                           depth=spent.depth)
        return _finish_outcome(None, spent_outcome, args,
                               {"claim": args.claim})
    _emit(report.to_json_obj(timestamp=not args.no_timestamp), args)
    return 0 if report.ok else 1


def _cmd_audit(args) -> int:
    g = _load_graph(args.graph)
    rot = planar.RotationSystem.from_json_obj(g, _load_json(args.rotation))
    matching = []
    if args.colours:
        pre, _ = _load_colouring(g, args.colours)
        matching = sorted(pre, key=str)
    ledger = planar.audit_discharge(g, rot, matching, args.variant,
                                    delta=args.delta,
                                    literal_rules=args.literal_rules)
    _emit(ledger.to_json_obj(), args)
    return 0 if not ledger.violations else 1


def _cmd_distance(args) -> int:
    g = _load_graph(args.graph)
    e, f = (_resolve_edge_key(g, key, "--edges") for key in args.edges)
    d = edge_distance(g, e, f)
    _emit({"distance": "infinite" if d == INFINITE_DISTANCE else d}, args)
    return 0


# -- parser --------------------------------------------------------------

def _at_least(least):
    """An argparse type: an integer no smaller than ``least``."""
    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _common(p, budget=True):
    p.add_argument("--pretty", action="store_true",
                   help="indent the JSON output")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the generated_at field (reproducible output)")
    if budget:
        p.add_argument("--budget", type=_at_least(0), default=None,
                       help="search-node budget; exceeding it exits 3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeext",
        description="Extend precoloured matchings to proper edge-colourings.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("extend", help="extend a precolouring")
    p.add_argument("--graph", required=True)
    p.add_argument("--colours", required=True)
    p.add_argument("--palette", type=int, default=None)
    p.add_argument("--method", default="auto",
                   choices=["auto", "exact", "kernel", "subcubic", "gallai",
                            "planar"])
    p.add_argument("--dot", default=None, help="write the result as DOT")
    _common(p)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("avoid", help="colour while avoiding an assignment")
    p.add_argument("--graph", required=True)
    p.add_argument("--colours", required=True,
                   help="forbidden colour assignment")
    p.add_argument("--palette", type=int, default=None)
    p.add_argument("--dot", default=None)
    _common(p)
    p.set_defaults(func=_cmd_avoid)

    p = sub.add_parser("solve-list", help="solve a list-colouring instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--dot", default=None)
    _common(p)
    p.set_defaults(func=_cmd_solve_list)

    p = sub.add_parser("chi", help="chromatic index")
    p.add_argument("--graph", required=True)
    _common(p)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("rho", help="odd-set density")
    p.add_argument("--graph", required=True)
    _common(p, budget=False)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("vizing", help="constructive fan colouring")
    p.add_argument("--graph", required=True)
    p.add_argument("--dot", default=None)
    _common(p, budget=False)
    p.set_defaults(func=_cmd_vizing)

    p = sub.add_parser("gen", help="generate a named family instance")
    p.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    p.add_argument("--params", type=int, nargs="+", required=True)
    p.add_argument("--graph-out", default=None)
    p.add_argument("--colours-out", default=None)
    _common(p, budget=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="exhaustive desk-scale verification")
    p.add_argument("--claim", required=True,
                   choices=sorted(instances.CLAIMS))
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-e", type=int, default=7)
    p.add_argument("--max-mu", type=int, default=2)
    p.add_argument("--max-k", type=int, default=1)
    p.add_argument("--palette-offset", type=int, default=0)
    p.add_argument("--delta-max", type=int, default=None)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    _common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="recompute the discharging ledger")
    p.add_argument("--graph", required=True)
    p.add_argument("--rotation", required=True)
    p.add_argument("--colours", default=None,
                   help="precoloured matching (only its edge set is used)")
    p.add_argument("--variant", default=planar.VARIANT_MATCHING,
                   choices=[planar.VARIANT_MATCHING, planar.VARIANT_DISTANCE3])
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--literal-rules", action="store_true",
                   help="apply the self-referential transfer rules verbatim")
    _common(p, budget=False)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("distance", help="line-graph distance of two edges")
    p.add_argument("--graph", required=True)
    p.add_argument("--edges", nargs=2, required=True, metavar="EDGE")
    _common(p, budget=False)
    p.set_defaults(func=_cmd_distance)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:
        # Any other failure is ours; exit 1 would read as "unsolvable".
        json.dump({"error": f"internal error: {type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc()}, sys.stderr)
        sys.stderr.write("\n")
        return 5


def main() -> None:  # console-script entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()

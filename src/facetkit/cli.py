"""Command-line surface.

Exit codes: 0 = success / property holds, 1 = property fails or a
counterexample (or an incomplete search), 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bits import vertices_of
from .atlas import (
    cyclic_complementary_complex,
    cycle,
    kuehnel_complex,
    projective_plane_6,
    standard_sphere,
)
from .collapse import is_collapsible, is_point, parse_trace, replay_trace
from .complexes import PSEUDOMANIFOLD, WEAK_PM, Complex
from .complementarity import is_complementary
from .enumeration import enumerate_complexes, enumerate_weak_pseudomanifolds
from .formats import FacetParseError, load_complex, save_complex
from .homology import homology
from .lemmas import LONG, REGISTRY, run_check
from .search import search_complementary

CONSTRUCTORS = {
    "standard-sphere": (standard_sphere, 1),
    "cycle": (cycle, 1),
    "kuehnel": (kuehnel_complex, 1),
    "cyclic-7": (cyclic_complementary_complex, 0),
    "rp2-6": (projective_plane_6, 0),
}


def _emit(args, data: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        for line in text_lines:
            print(line)


def _max_neighbourliness(complex_: Complex) -> int:
    k = 1
    while k + 1 <= complex_.dim + 1 and complex_.is_k_neighbourly(k + 1):
        k += 1
    return k


def _cmd_inspect(args) -> int:
    complex_ = load_complex(args.file)
    fp = complex_.face_profile()
    data = {
        "vertices": complex_.n_vertices,
        "dimension": complex_.dim,
        "facets": len(complex_.facet_masks),
        "f_vector": list(fp.counts),
        "euler": fp.euler,
        "classification": complex_.classify_pseudomanifold(),
        "neighbourliness": _max_neighbourliness(complex_),
        "complementary": is_complementary(complex_),
    }
    _emit(
        args,
        data,
        [
            f"vertices:       {data['vertices']}",
            f"dimension:      {data['dimension']}",
            f"facets:         {data['facets']}",
            f"f-vector:       {tuple(fp.counts)}",
            f"euler:          {fp.euler}",
            f"classification: {data['classification']}",
            f"neighbourly:    {data['neighbourliness']}",
            f"complementary:  {data['complementary']}",
        ],
    )
    return 0


def _cmd_check(args) -> int:
    complex_ = load_complex(args.file)
    prop = args.property
    if prop == "complementary":
        holds = is_complementary(complex_)
    elif prop == "weak-pm":
        holds = complex_.classify_pseudomanifold() in (WEAK_PM, PSEUDOMANIFOLD)
    elif prop == "pseudomanifold":
        holds = complex_.classify_pseudomanifold() == PSEUDOMANIFOLD
    elif prop == "collapsible":
        trace = is_collapsible(complex_)
        holds = trace is not None and trace.is_point
    elif prop.startswith("k-neighbourly:"):
        try:
            k = int(prop.split(":", 1)[1])
        except ValueError:
            raise FacetParseError(f"bad neighbourliness spec {prop!r}") from None
        holds = complex_.is_k_neighbourly(k)
    else:
        print(f"unknown property {prop!r}", file=sys.stderr)
        return 2
    _emit(args, {"property": prop, "holds": holds}, [f"{prop}: {holds}"])
    return 0 if holds else 1


def _cmd_homology(args) -> int:
    complex_ = load_complex(args.file)
    profile = homology(complex_)
    data = {
        "groups": [{"rank": r, "torsion": list(t)} for r, t in profile.groups],
        "trivial": profile.is_trivial(),
    }
    _emit(args, data, [str(profile)])
    return 0


def _cmd_link(args) -> int:
    complex_ = load_complex(args.file)
    try:
        simplex = [int(t) for t in args.simplex.split()]
    except ValueError:
        print(f"--simplex wants integer labels, got {args.simplex!r}", file=sys.stderr)
        return 2
    link = complex_.link(simplex)
    if args.output:
        save_complex(link, args.output, [f"link of {simplex}"])
    _emit(
        args,
        {"facets": [list(f) for f in link.facets]},
        [" ".join(map(str, f)) for f in link.facets],
    )
    return 0


def _cmd_construct(args) -> int:
    if args.name not in CONSTRUCTORS:
        known = ", ".join(sorted(CONSTRUCTORS))
        print(f"unknown constructor {args.name!r}; known: {known}", file=sys.stderr)
        return 2
    fn, arity = CONSTRUCTORS[args.name]
    if len(args.params) != arity:
        print(f"{args.name} takes {arity} parameter(s)", file=sys.stderr)
        return 2
    complex_ = fn(*[int(p) for p in args.params])
    header = [f"facetkit construct {args.name} {' '.join(args.params)}".strip()]
    if args.output:
        save_complex(complex_, args.output, header)
    _emit(
        args,
        {"facets": [list(f) for f in complex_.facets]},
        [" ".join(map(str, f)) for f in complex_.facets],
    )
    return 0


def _cmd_enumerate(args) -> int:
    if args.weak_pm:
        if args.dim is None:
            print("--weak-pm needs --dim", file=sys.stderr)
            return 2
        report = enumerate_weak_pseudomanifolds(args.vertices, args.dim)
    else:
        filter_ = None
        if args.dim is not None:
            dim = args.dim
            filter_ = lambda c: c.dim == dim  # noqa: E731
        report = enumerate_complexes(args.vertices, filter_)
    if args.output:
        report.write_dir(args.output)
    data = {
        "parameters": report.parameters,
        "class_count": report.class_count,
        "labeled_count": report.labeled_count,
        "complete": report.complete,
        "nodes": report.nodes,
    }
    _emit(
        args,
        data,
        [
            f"classes: {report.class_count} (labeled objects: {report.labeled_count})",
            f"complete: {report.complete}; nodes: {report.nodes}; "
            f"wall: {report.wall_time:.2f}s",
        ],
    )
    return 0


def _cmd_search(args) -> int:
    report = search_complementary(
        args.n,
        args.d,
        node_budget=args.budget,
        checkpoint_path=args.checkpoint,
        resume_from=args.resume,
    )
    if args.output:
        report.write_dir(args.output)
    data = {
        "parameters": report.parameters,
        "class_count": report.class_count,
        "labeled_count": report.labeled_count,
        "complete": report.complete,
        "nodes": report.nodes,
    }
    _emit(
        args,
        data,
        [
            f"classes: {report.class_count} (labeled solutions: {report.labeled_count})",
            f"complete: {report.complete}; nodes: {report.nodes}; "
            f"wall: {report.wall_time:.2f}s",
        ],
    )
    return 0 if report.complete else 1


def _cmd_verify_lemma(args) -> int:
    check_id = args.id
    check = REGISTRY.get(check_id)
    if check is not None and check.tier == LONG and args.tier != LONG:
        print(
            f"{check_id} is a long-tier check (expect minutes); rerun with --tier long",
            file=sys.stderr,
        )
        return 2
    try:
        result = run_check(check_id)
    except KeyError as exc:  # unknown id; run_check's message names the known ones
        print(exc.args[0], file=sys.stderr)
        return 2
    verdict = "PASS" if result.passed else "FAIL"
    _emit(
        args,
        {
            "id": check_id,
            "passed": result.passed,
            "elapsed": result.elapsed,
            **result.data,
            "expected": result.expected,
        },
        result.lines + [f"{check_id}: {verdict} ({result.elapsed:.2f}s)"],
    )
    return 0 if result.passed else 1


def _cmd_collapse(args) -> int:
    complex_ = load_complex(args.file)
    if args.replay:
        steps = parse_trace(Path(args.replay).read_text())
        try:
            residue = replay_trace(complex_, steps)
        except ValueError as exc:
            print(f"trace invalid: {exc}", file=sys.stderr)
            return 1
        point = is_point(residue.facet_masks)
        _emit(
            args,
            {"valid": True, "residue_facets": [list(f) for f in residue.facets], "point": point},
            [f"trace valid; residue {'is a point' if point else residue.facets}"],
        )
        return 0
    trace = is_collapsible(complex_)
    if trace is None:
        _emit(args, {"collapsible": False}, ["not collapsible"])
        return 1
    _emit(
        args,
        {
            "collapsible": True,
            "steps": [[list(vertices_of(m)) for m in step] for step in trace.steps],
        },
        [trace.render().rstrip("\n"), "collapsible: residue is a point"],
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facetkit",
        description="exact combinatorics of small simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=fn)
        return p

    p = add("inspect", _cmd_inspect, help="f-vector, euler, classification, neighbourliness")
    p.add_argument("file")

    p = add("check", _cmd_check, help="test a property; exit 0 iff it holds")
    p.add_argument(
        "property",
        help="complementary | weak-pm | pseudomanifold | collapsible | k-neighbourly:K",
    )
    p.add_argument("file")

    p = add("homology", _cmd_homology, help="reduced integral homology")
    p.add_argument("file")

    p = add("link", _cmd_link, help="link of a simplex")
    p.add_argument("file")
    p.add_argument("--simplex", required=True, help='vertex labels, e.g. "0 3 5"')
    p.add_argument("-o", "--output")

    p = add("construct", _cmd_construct, help="build a named complex")
    p.add_argument("name", help=" | ".join(sorted(CONSTRUCTORS)))
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output")

    p = add("enumerate", _cmd_enumerate, help="isomorph-free exhaustive generation")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--weak-pm", action="store_true", help="closed weak pseudomanifolds only")
    p.add_argument("-o", "--output", help="directory for report.json + class files")

    p = add("search-complementary", _cmd_search, help="complementary weak pseudomanifold search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**9, help="total node budget (raise it when resuming)")
    p.add_argument("--checkpoint", help="state file to write every 10^7 nodes")
    p.add_argument("--resume", help="state file from an interrupted run")
    p.add_argument("-o", "--output", help="directory for report.json + class files")

    p = add("verify-lemma", _cmd_verify_lemma, help="run a named verification check")
    p.add_argument("id", help=" | ".join(sorted(REGISTRY)))
    p.add_argument("--tier", choices=["fast", "long"], default="fast")

    p = add("collapse", _cmd_collapse, help="find or replay a collapse trace")
    p.add_argument("file")
    p.add_argument("--replay", help="trace file to validate against FILE")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FacetParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

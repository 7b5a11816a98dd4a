"""Command-line front door.

Every subcommand reads complexes in the facet-list text format (or the
JSON object form) from a file argument, with "-" or no argument meaning
stdin.  Exit codes: 0 success / predicate true, 1 predicate false or
violation found, 2 usage or input errors.

Start-up is most of a short command's time, so this module imports only
io, complex and errors at top level; each cmd_* imports the layers it
calls, and no command loads a layer it does not run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as cio
from .complex import SimplicialComplex, from_facets
from .errors import ParseError, WalkupError


def _read_complex(path: str | None) -> SimplicialComplex:
    if path is None or path == "-":
        return cio.loads(sys.stdin.read())
    return cio.load(path)


def _emit(args, result: dict, lines: list[str]) -> None:
    if args.porcelain:
        print(json.dumps(result, indent=None, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ------------------------------------------------------------------ commands

def cmd_info(args) -> int:
    from .homology import homology_profile

    X = _read_complex(args.file)
    dg = X.dual_graph()
    prof = homology_profile(X)
    fvec = X.f_vector()
    result = {
        "command": "info",
        "dimension": X.dimension,
        "f_vector": list(fvec),
        "weak_pseudomanifold": dg.is_weak_pseudomanifold,
        "closed": dg.is_closed,
        "pseudomanifold": dg.is_weak_pseudomanifold and dg.is_connected(),
        "euler": prof.euler,
    }
    lines = [
        f"dimension: {X.dimension}",
        f"f-vector: {' '.join(str(c) for c in fvec)}",
        f"weak pseudomanifold: {'yes' if dg.is_weak_pseudomanifold else 'no'}"
        + ("" if not dg.is_weak_pseudomanifold else
           f" ({'closed' if dg.is_closed else 'with boundary'})"),
        f"pseudomanifold (connected dual graph): "
        f"{'yes' if result['pseudomanifold'] else 'no'}",
        f"euler characteristic: {prof.euler}",
    ]
    _emit(args, result, lines)
    return 0


def cmd_homology(args) -> int:
    from .homology import homology_profile

    X = _read_complex(args.file)
    prof = homology_profile(X)
    orient = {True: "orientable", False: "non-orientable", None: "not-applicable"}
    result = {
        "command": "homology",
        "betti": list(prof.betti),
        "euler": prof.euler,
        "connected": prof.connected,
        "orientable": prof.orientable,
    }
    lines = [
        f"betti (Z2): {' '.join(str(b) for b in prof.betti)}",
        f"euler characteristic: {prof.euler}",
        f"connected: {'yes' if prof.connected else 'no'}",
        f"orientable: {orient[prof.orientable]}",
    ]
    _emit(args, result, lines)
    return 0


def cmd_check_walkup(args) -> int:
    from .theory import in_walkup_class

    X = _read_complex(args.file)
    ok = in_walkup_class(X)
    _emit(
        args,
        {"command": "check walkup", "member": ok},
        [f"walkup class member: {'yes' if ok else 'no'}"],
    )
    return 0 if ok else 1


def cmd_check_stacked(args) -> int:
    from .stacked import (
        is_stacked_ball,
        is_stacked_sphere,
        is_stacked_sphere_by_reduction,
    )

    X = _read_complex(args.file)
    closed = X.is_closed_pseudomanifold()
    if closed:
        ok = is_stacked_sphere(X) and is_stacked_sphere_by_reduction(X)
        kind = "sphere"
    else:
        ok = is_stacked_ball(X)
        kind = "ball"
    _emit(
        args,
        {"command": "check stacked", "kind": kind, "stacked": ok},
        [f"detected: {'closed, testing sphere' if closed else 'boundary, testing ball'}",
         f"stacked {kind}: {'yes' if ok else 'no'}"],
    )
    return 0 if ok else 1


def cmd_check_bounds4(args) -> int:
    from .theory import check_bounds_4manifold

    X = _read_complex(args.file)
    rep = check_bounds_4manifold(X)
    ok = rep.edge_bound.holds and rep.vertex_bound.holds
    result = {
        "command": "check bounds4",
        "euler": rep.euler,
        "two_neighborly": rep.two_neighborly,
        "bounds": [
            {
                "name": b.name,
                "lhs": b.lhs,
                "rhs": b.rhs,
                "holds": b.holds,
                "tight": b.tight,
            }
            for b in (rep.edge_bound, rep.vertex_bound)
        ],
        "overall_equality": rep.overall_equality,
    }
    lines = [
        f"euler characteristic: {rep.euler}",
        f"{rep.edge_bound.name}: {rep.edge_bound.lhs} >= {rep.edge_bound.rhs}"
        f" ({'tight' if rep.edge_bound.tight else 'strict' if rep.edge_bound.holds else 'VIOLATED'})",
        f"{rep.vertex_bound.name}: {rep.vertex_bound.lhs} >= {rep.vertex_bound.rhs}"
        f" ({'tight' if rep.vertex_bound.tight else 'strict' if rep.vertex_bound.holds else 'VIOLATED'})",
        f"2-neighborly: {'yes' if rep.two_neighborly else 'no'}",
    ]
    _emit(args, result, lines)
    return 0 if ok else 1


def cmd_check_tight(args) -> int:
    from .tightness import DEFAULT_EXHAUSTIVE_CEILING, is_tight_z2

    X = _read_complex(args.file)
    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    if args.sample is not None:
        report = is_tight_z2(
            X, mode="sampled", sample_count=args.sample, seed=args.seed,
            jobs=jobs,
        )
    else:
        ceiling = DEFAULT_EXHAUSTIVE_CEILING if args.ceiling is None else args.ceiling
        report = is_tight_z2(X, mode="exhaustive", ceiling=ceiling, jobs=jobs)
    result = {
        "command": "check tight",
        "mode": report.mode,
        "checked": report.checked,
        "evaluated": report.evaluated,
        "verdict": report.verdict,
        "violations": [
            {"subset": list(s), "degree": k} for s, k in report.violations
        ],
    }
    lines = [
        f"mode: {report.mode}",
        f"subsets checked: {report.checked}",
        f"subsets evaluated: {report.evaluated}",
        f"verdict: {report.verdict}",
    ]
    if report.violations:
        s, k = report.violations[0]
        lines.append(f"first violation: subset {{{' '.join(s)}}} in degree {k}")
    _emit(args, result, lines)
    return 0 if not report.violations else 1


def cmd_fvector(args) -> int:
    from .theory import (
        fvector_from_f0_f1,
        stacked_sphere_fvector,
        walkup_fvector_even,
    )

    if args.kind == "stacked":
        f = stacked_sphere_fvector(args.dim, args.n)
    elif args.kind == "walkup":
        f = walkup_fvector_even(args.dim, args.n, args.chi)
    else:
        f = fvector_from_f0_f1(args.dim, args.n, args.f1)
    _emit(
        args,
        {"command": f"fvector {args.kind}", "f_vector": list(f)},
        [" ".join(str(c) for c in f)],
    )
    return 0


def cmd_generate(args) -> int:
    from .constructions import (
        build_b5_30,
        build_m4_15,
        build_n5_15,
        random_stacked_sphere,
        standard_sphere,
    )

    if args.what == "m4-15":
        X = build_m4_15()
    elif args.what == "b5-30":
        X = build_b5_30()
    elif args.what == "n5-15":
        X = build_n5_15()
    elif args.what == "sphere":
        if args.dim is None:
            raise WalkupError("generate sphere requires --dim")
        X = standard_sphere(args.dim)
    else:  # stacked
        if args.dim is None or args.n is None:
            raise WalkupError("generate stacked requires --dim and --n")
        X = random_stacked_sphere(args.dim, args.n, args.seed)
    sys.stdout.write(cio.serialize(X))
    return 0


def _ledger_to_json(ledger) -> dict:
    return {
        "base": {"facets": [list(f) for f in ledger.base.facets]},
        "handles": [
            {
                "source_facet": list(p.source_facet),
                "target_facet": list(p.target_facet),
                "pairs": [[a, b] for a, b in p.pairs],
            }
            for p in ledger.handles
        ],
    }


def _ledger_base(rows) -> SimplicialComplex:
    """The ledger's base, validated like a facet file but clone labels
    allowed; each facet must already be sorted, as the handles' are."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError('ledger base "facets" must be a list of label lists', 1)
    base = from_facets(rows, clones=True)
    for row in rows:
        if row != sorted(row):
            raise ParseError(f"ledger base facet {row} is not sorted", 1)
    return base


def _ledger_from_json(text: str):
    from .surgery import HandleLedger, VertexBijection

    obj = cio.decode_json(text)
    try:
        base = _ledger_base(obj["base"]["facets"])
        handles = tuple(
            VertexBijection(
                source_facet=tuple(h["source_facet"]),
                target_facet=tuple(h["target_facet"]),
                pairs=tuple((a, b) for a, b in h["pairs"]),
            )
            for h in obj["handles"]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(
            'expected a ledger {"base": {"facets": [...]}, "handles": [...]}'
            f" ({type(e).__name__}: {e})",
            1,
        ) from e
    return HandleLedger(base=base, handles=handles)


def cmd_decompose(args) -> int:
    from .surgery import kalai_decompose

    X = _read_complex(args.file)
    ledger = kalai_decompose(X)
    doc = _ledger_to_json(ledger)
    if args.ledger:
        with open(args.ledger, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    result = {
        "command": "decompose",
        "handles": len(ledger.handles),
        "base_vertices": len(ledger.base.vertices),
        "base_facets": len(ledger.base.facets),
        "ledger_file": args.ledger,
    }
    lines = [
        f"handles: {len(ledger.handles)}",
        f"base: stacked sphere with {len(ledger.base.vertices)} vertices, "
        f"{len(ledger.base.facets)} facets",
    ]
    if args.ledger:
        lines.append(f"ledger written to {args.ledger}")
    _emit(args, result, lines)
    return 0


def cmd_replay(args) -> int:
    with open(args.ledger, "r", encoding="utf-8") as fh:
        ledger = _ledger_from_json(fh.read())
    X = ledger.replay()
    sys.stdout.write(cio.serialize(X))
    return 0


def cmd_automorphisms(args) -> int:
    from .symmetry import automorphism_group, cycle_notation, generating_set

    X = _read_complex(args.file)
    group = automorphism_group(X)
    gens = generating_set(group)
    result = {
        "command": "automorphisms",
        "order": len(group),
        "generators": [cycle_notation(g) for g in gens],
    }
    lines = [f"group order: {len(group)}"]
    lines += [f"generator: {cycle_notation(g)}" for g in gens]
    if not gens:
        lines.append("generator: () (trivial group)")
    _emit(args, result, lines)
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkup",
        description="Stacked spheres, Walkup-class manifolds, handle surgery "
        "and tightness checks on facet-list files.",
    )
    parser.add_argument(
        "--porcelain",
        action="store_true",
        help="emit only the machine-readable JSON report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="f-vector, dimension, pseudomanifold status")
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("homology", help="mod-2 homology profile")
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=cmd_homology)

    check = sub.add_parser("check", help="predicates with 0/1 exit codes")
    csub = check.add_subparsers(dest="predicate", required=True)

    p = csub.add_parser("walkup", help="every vertex link a stacked sphere")
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=cmd_check_walkup)

    p = csub.add_parser("stacked", help="stacked ball/sphere (auto-detected)")
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=cmd_check_stacked)

    p = csub.add_parser("bounds4", help="4-manifold lower bounds")
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=cmd_check_bounds4)

    p = csub.add_parser("tight", help="mod-2 tightness scan")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="check N randomly sampled subsets instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ceiling", type=int, default=None,
                   help="max vertex count for exhaustive scans")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes, N >= 1 (default: available parallelism)")
    p.set_defaults(func=cmd_check_tight)

    fv = sub.add_parser("fvector", help="closed-form face vectors")
    fsub = fv.add_subparsers(dest="kind", required=True)
    p = fsub.add_parser("stacked")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_fvector, kind="stacked")
    p = fsub.add_parser("walkup")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chi", type=int, required=True)
    p.set_defaults(func=cmd_fvector, kind="walkup")
    p = fsub.add_parser("from-f1")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f1", type=int, required=True)
    p.set_defaults(func=cmd_fvector, kind="from-f1")

    p = sub.add_parser("generate", help="built-in complexes to stdout")
    p.add_argument(
        "what", choices=["m4-15", "b5-30", "n5-15", "sphere", "stacked"]
    )
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", help="stacked-sphere base plus handles")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--ledger", default=None, metavar="OUT",
                   help="write the replayable ledger JSON here")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("replay", help="rebuild a complex from a ledger")
    p.add_argument("ledger")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("automorphisms", help="automorphism group order and generators")
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=cmd_automorphisms)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WalkupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

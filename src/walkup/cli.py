"""Command-line front door.

Every subcommand reads complexes in the facet-list text format (or the
JSON object form) from a file argument, with "-" or no argument meaning
stdin.  Exit codes: 0 success / predicate true, 1 predicate false or
violation found, 2 usage or input errors.

Command contract: a report command returns (exit code, report dict), a
complex command (generate, replay) returns the complex, and main() alone
reads the input file and prints.  It prints a report as JSON under
--porcelain and otherwise as the text _text renders from that same dict.

Start-up is most of a short command's time, so this module imports only
io, complex and errors at top level; each cmd_* imports the layers it
calls, and no command loads a layer it does not run.  No layer imports
dataclasses, and only homology and check tight load the homology layer.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from . import io as cio
from .complex import SimplicialComplex, from_facets
from .errors import ParseError, WalkupError


def _read_complex(path: str | None) -> SimplicialComplex:
    if path is None or path == "-":
        return cio.loads(cio.read_text(sys.stdin))
    return cio.load(path)


# ------------------------------------------------------------------ commands

def cmd_info(X: SimplicialComplex, args) -> tuple[int, dict]:
    dg = X.dual_graph()
    return 0, {
        "command": "info",
        "dimension": X.dimension,
        "f_vector": list(X.f_vector()),
        "weak_pseudomanifold": dg.is_weak_pseudomanifold,
        "closed": dg.is_closed,
        "pseudomanifold": dg.is_weak_pseudomanifold and dg.is_connected(),
        "euler": X.euler_characteristic(),
    }


def cmd_homology(X: SimplicialComplex, args) -> tuple[int, dict]:
    from .homology import homology_profile

    prof = homology_profile(X)
    return 0, {
        "command": "homology",
        "betti": list(prof.betti),
        "euler": prof.euler,
        "connected": prof.connected,
        "orientable": prof.orientable,
    }


def cmd_check_walkup(X: SimplicialComplex, args) -> tuple[int, dict]:
    from .theory import in_walkup_class

    ok = in_walkup_class(X)
    return (0 if ok else 1), {"command": "check walkup", "member": ok}


def cmd_check_stacked(X: SimplicialComplex, args) -> tuple[int, dict]:
    from .stacked import is_stacked_ball, is_stacked_sphere

    if X.is_closed_pseudomanifold():
        ok = is_stacked_sphere(X)
        kind = "sphere"
    elif X.dual_graph().is_weak_pseudomanifold:
        ok = is_stacked_ball(X)
        kind = "ball"
    else:
        ok, kind = False, "not-pseudomanifold"
    return (0 if ok else 1), {"command": "check stacked", "kind": kind, "stacked": ok}


def cmd_check_bounds4(X: SimplicialComplex, args) -> tuple[int, dict]:
    from .theory import check_bounds_4manifold

    rep = check_bounds_4manifold(X)
    ok = rep.edge_bound.holds and rep.vertex_bound.holds
    return (0 if ok else 1), {
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


def _check_tight_flags(args) -> None:
    """Refuse a flag mix of check tight; main() calls it before reading input."""
    if args.sample is not None:
        if args.jobs is not None or args.ceiling is not None:
            raise WalkupError("--jobs and --ceiling apply only without --sample")
    elif args.seed is not None:
        raise WalkupError("--seed applies only with --sample")


def cmd_check_tight(X: SimplicialComplex, args) -> tuple[int, dict]:
    from .tightness import DEFAULT_EXHAUSTIVE_CEILING, is_tight_z2

    if args.sample is not None:
        seed = 0 if args.seed is None else args.seed
        report = is_tight_z2(X, mode="sampled", sample_count=args.sample, seed=seed)
    else:
        jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
        ceiling = DEFAULT_EXHAUSTIVE_CEILING if args.ceiling is None else args.ceiling
        report = is_tight_z2(X, mode="exhaustive", ceiling=ceiling, jobs=jobs)
    return (0 if not report.violations else 1), {
        "command": "check tight",
        "mode": report.mode,
        "checked": report.checked,
        "evaluated": report.evaluated,
        "verdict": report.verdict,
        "violations": [
            {"subset": list(s), "degree": k} for s, k in report.violations
        ],
    }


def cmd_fvector(args) -> tuple[int, dict]:
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
    return 0, {"command": f"fvector {args.kind}", "f_vector": list(f)}


def cmd_generate(args) -> SimplicialComplex:
    from .constructions import (
        build_b5_30,
        build_m4_15,
        build_n5_15,
        random_stacked_sphere,
        standard_sphere,
    )

    if args.what == "sphere":
        return standard_sphere(args.dim)
    if args.what == "stacked":
        return random_stacked_sphere(args.dim, args.n, args.seed)
    return {"m4-15": build_m4_15, "b5-30": build_b5_30, "n5-15": build_n5_15}[args.what]()


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

    obj = cio.decode_json(cio.unmarked(text))
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


def cmd_decompose(X: SimplicialComplex, args) -> tuple[int, dict]:
    from .surgery import kalai_decompose

    ledger = kalai_decompose(X)
    if args.ledger:
        # Write over an old ledger and cut it to length afterwards: on ext4,
        # truncating a recently written file on open (O_TRUNC, or a rename
        # over it) blocks for tens of ms.  Only a regular file is cut, so
        # --ledger /dev/null still works.
        fd = os.open(args.ledger, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            json.dump(_ledger_to_json(ledger), fh, indent=2)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    return 0, {
        "command": "decompose",
        "handles": len(ledger.handles),
        "base_vertices": len(ledger.base.vertices),
        "base_facets": len(ledger.base.facets),
        "ledger_file": args.ledger,
    }


def cmd_replay(args) -> SimplicialComplex:
    with open(args.ledger, "rb") as fh:
        ledger = _ledger_from_json(cio.read_text(fh))
    return ledger.replay()


def cmd_automorphisms(X: SimplicialComplex, args) -> tuple[int, dict]:
    from .symmetry import automorphism_group, cycle_notation, generating_set

    group = automorphism_group(X)
    return 0, {
        "command": "automorphisms",
        "order": len(group),
        "generators": [cycle_notation(g) for g in generating_set(group)],
    }


# -------------------------------------------------------------------- text

def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _words(values) -> str:
    return " ".join(str(v) for v in values)


def _text(report: dict) -> list[str]:
    """The text lines of a report, read from the --porcelain dict alone."""
    command = report["command"]
    if command == "info":
        weak = _yes(report["weak_pseudomanifold"])
        if report["weak_pseudomanifold"]:
            weak += " (closed)" if report["closed"] else " (with boundary)"
        return [
            f"dimension: {report['dimension']}",
            f"f-vector: {_words(report['f_vector'])}",
            f"weak pseudomanifold: {weak}",
            f"pseudomanifold (connected dual graph): {_yes(report['pseudomanifold'])}",
            f"euler characteristic: {report['euler']}",
        ]
    if command == "homology":
        orient = {True: "orientable", False: "non-orientable", None: "not-applicable"}
        return [
            f"betti (Z2): {_words(report['betti'])}",
            f"euler characteristic: {report['euler']}",
            f"connected: {_yes(report['connected'])}",
            f"orientable: {orient[report['orientable']]}",
        ]
    if command == "check walkup":
        return [f"walkup class member: {_yes(report['member'])}"]
    if command == "check stacked":
        kind = report["kind"]
        if kind == "not-pseudomanifold":
            return ["detected: not a weak pseudomanifold", "stacked: no"]
        detected = "closed, testing sphere" if kind == "sphere" else "boundary, testing ball"
        return [f"detected: {detected}", f"stacked {kind}: {_yes(report['stacked'])}"]
    if command == "check bounds4":
        return [
            f"euler characteristic: {report['euler']}",
            *(
                f"{b['name']}: {b['lhs']} >= {b['rhs']}"
                f" ({'tight' if b['tight'] else 'strict' if b['holds'] else 'VIOLATED'})"
                for b in report["bounds"]
            ),
            f"2-neighborly: {_yes(report['two_neighborly'])}",
        ]
    if command == "check tight":
        return [
            f"mode: {report['mode']}",
            f"subsets checked: {report['checked']}",
            f"subsets evaluated: {report['evaluated']}",
            f"verdict: {report['verdict']}",
            *(
                f"first violation: subset {{{_words(v['subset'])}}} in degree {v['degree']}"
                for v in report["violations"][:1]
            ),
        ]
    if command == "decompose":
        lines = [
            f"handles: {report['handles']}",
            f"base: stacked sphere with {report['base_vertices']} vertices, "
            f"{report['base_facets']} facets",
        ]
        if report["ledger_file"]:
            lines.append(f"ledger written to {report['ledger_file']}")
        return lines
    if command == "automorphisms":
        gens = report["generators"] or ["() (trivial group)"]
        return [f"group order: {report['order']}", *(f"generator: {g}" for g in gens)]
    # fvector stacked | walkup | from-f1
    return [_words(report["f_vector"])]


# -------------------------------------------------------------------- parser

def _file_command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand that reads one complex from an optional file argument."""
    p = sub.add_parser(name, help=help)
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=func)
    return p


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

    _file_command(sub, "info", cmd_info, "f-vector, dimension, pseudomanifold status")
    _file_command(sub, "homology", cmd_homology, "mod-2 homology profile")

    check = sub.add_parser("check", help="predicates with 0/1 exit codes")
    csub = check.add_subparsers(dest="predicate", required=True)
    _file_command(csub, "walkup", cmd_check_walkup, "every vertex link a stacked sphere")
    _file_command(csub, "stacked", cmd_check_stacked, "stacked ball/sphere (auto-detected)")
    _file_command(csub, "bounds4", cmd_check_bounds4, "4-manifold lower bounds")
    p = _file_command(csub, "tight", cmd_check_tight, "mod-2 tightness scan")
    p.set_defaults(check_flags=_check_tight_flags)
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="check N randomly sampled subsets instead of all")
    p.add_argument("--seed", type=int, default=None,
                   help="sampling seed, only with --sample (default 0)")
    p.add_argument("--ceiling", type=int, default=None,
                   help="max vertex count, only without --sample (default 20)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="at most N worker processes, N >= 1, only without "
                   "--sample; never more than the CPU count, the default")

    fv = sub.add_parser("fvector", help="closed-form face vectors")
    fv.set_defaults(func=cmd_fvector)
    fsub = fv.add_subparsers(dest="kind", required=True)
    for kind, extra in (("stacked", ()), ("walkup", ("--chi",)), ("from-f1", ("--f1",))):
        p = fsub.add_parser(kind)
        for flag in ("--dim", "--n", *extra):
            p.add_argument(flag, type=int, required=True)

    gen = sub.add_parser("generate", help="built-in complexes to stdout")
    gen.set_defaults(func=cmd_generate)
    gsub = gen.add_subparsers(dest="what", required=True)
    for name in ("m4-15", "b5-30", "n5-15"):
        gsub.add_parser(name)
    gsub.add_parser("sphere").add_argument("--dim", type=int, required=True)
    p = gsub.add_parser("stacked")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = _file_command(sub, "decompose", cmd_decompose, "stacked-sphere base plus handles")
    p.add_argument("--ledger", default=None, metavar="OUT",
                   help="write the replayable ledger JSON here")

    p = sub.add_parser("replay", help="rebuild a complex from a ledger")
    p.add_argument("ledger")
    p.set_defaults(func=cmd_replay)

    _file_command(sub, "automorphisms", cmd_automorphisms,
                  "automorphism group order and generators")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "file" in args:
            if "check_flags" in args:
                args.check_flags(args)
            result = args.func(_read_complex(args.file), args)
        else:
            result = args.func(args)
        if isinstance(result, SimplicialComplex):
            sys.stdout.write(cio.serialize(result))
            return 0
        code, report = result
        print(json.dumps(report, sort_keys=True) if args.porcelain
              else "\n".join(_text(report)))
        return code
    except (WalkupError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

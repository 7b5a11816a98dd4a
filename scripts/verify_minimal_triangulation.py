#!/usr/bin/env python3
"""End-to-end verification of the 15-vertex tight 4-manifold triangulation.

Runs one `walkup` command per claim of the paper on b5-30, its boundary
s4-30, m4-15 and n5-15, and prints each report as the CLI renders it;
claims with no command print one `label: yes/no` line.  Exit codes: 0 every
check holds, 1 some check fails (each named on stderr), 2 a command exited 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from walkup import build_s4_30, dehn_sommerville_4
from walkup import io as cio
from walkup.cli import _text, main as walkup_main

B, S, M, N = "b5-30.txt", "s4-30.txt", "m4-15.txt", "n5-15.txt"
F = [15, 105, 230, 240, 96]


def walkup(*argv: str) -> tuple[int, str]:
    """Exit code and stdout of one in-process `walkup` command (exit 2 with it)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = walkup_main(list(argv))
    if code == 2:
        raise SystemExit(2)
    return code, out.getvalue()


# A step is a command with the report fields it must show (and exit 0), or
# a label with a check that has no command.
STEPS = [
    (["info", B], {"f_vector": [30, 135, 260, 255, 126, 25]}),
    (["check", "stacked", B], {"kind": "ball", "stacked": True}),
    (["info", S], {"f_vector": [30, 135, 260, 255, 102]}),
    (["check", "stacked", S], {"kind": "sphere", "stacked": True}),
    (["homology", S], {"betti": [1, 0, 0, 0, 1], "orientable": True}),
    (["info", M], {"f_vector": F, "euler": -4}),
    (["fvector", "walkup", "--dim", "4", "--n", "15", "--chi", "-4"], {"f_vector": F}),
    ("f-vector of m4-15 is the 4-manifold completion of f0 = 15, f1 = 105, chi = -4",
     lambda: dehn_sommerville_4(15, 105, -4) == cio.load(M).f_vector()),
    (["check", "walkup", M], {"member": True}),
    (["check", "bounds4", M], {"euler": -4, "two_neighborly": True, "overall_equality": True}),
    (["homology", M], {"betti": [1, 3, 0, 3, 1], "euler": -4, "connected": True,
                       "orientable": False}),
    ("boundary of n5-15 is m4-15", lambda: cio.load(N).boundary_complex() == cio.load(M)),
    ("dual graph of n5-15 has 27 edges (a tree plus 3)",
     lambda: len(cio.load(N).dual_graph().edges) == 27),
    (["automorphisms", M], {"order": 3}),
    (["decompose", M, "--ledger", "ledger.json"], {"handles": 3, "base_vertices": 30}),
    ("walkup replay ledger.json prints walkup generate m4-15 byte for byte",
     lambda: walkup("replay", "ledger.json")[1] == Path(M).read_text(encoding="utf-8")),
]
SAMPLED = {"mode": "sampled", "checked": 2000, "verdict": "tight-on-sample"}
EXHAUSTIVE = {"mode": "exhaustive", "checked": 32766, "verdict": "tight"}


def run(steps) -> list[str]:
    """Print every step, in the working directory, and return the failures."""
    for name in ("b5-30", "m4-15", "n5-15"):
        Path(f"{name}.txt").write_text(walkup("generate", name)[1], encoding="utf-8")
    Path(S).write_text(cio.serialize(build_s4_30()), encoding="utf-8")
    failures = []
    for what, expected in steps:
        if callable(expected):
            ok = expected()
            print(f"\n{what}: {'yes' if ok else 'no'}")
            failures += [] if ok else [what]
            continue
        command = "walkup " + " ".join(what)
        code, out = walkup("--porcelain", *what)
        report = json.loads(out)
        print(f"\n== {command}", *_text(report), sep="\n")
        failures += [f"{command}: exited {code}"] if code else []
        failures += [
            f"{command}: {key} is {report[key]!r}, expected {value!r}"
            for key, value in expected.items() if report[key] != value
        ]
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Verify the paper's claims on m4-15.")
    ap.add_argument("--tight", action="store_true",
                    help="scan all 2^15 subsets instead of 2000 sampled ones")
    ap.add_argument("--jobs", type=int, default=None, metavar="N",
                    help="at most N worker processes for the exhaustive scan "
                    "(with --tight), never more than the CPU count")
    args = ap.parse_args(argv)
    if args.jobs is not None and not args.tight:
        ap.error("--jobs needs --tight")
    scan = [] if args.tight else ["--sample", "2000", "--seed", "0"]
    jobs = [] if args.jobs is None else ["--jobs", str(args.jobs)]
    tight = (["check", "tight", *scan, *jobs, M], EXHAUSTIVE if args.tight else SAMPLED)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            failures = run([*STEPS, tight])
        finally:
            os.chdir(cwd)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Time the exhaustive tightness scan at several worker counts.

The scan covers all 2^f0 - 2 proper vertex subsets, so the 15-vertex
manifold is the standard stress case (32766 subsets, three nontrivial
homology degrees each).  Z2 duality lets it evaluate only the subsets of
at most half the vertices, so both rates are printed: subsets covered
per second and subsets evaluated per second.
"""

from __future__ import annotations

import argparse
import time

from walkup import build_m4_15, is_tight_z2


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", type=int, nargs="*", default=[1, 2, 4, 8])
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()

    M = build_m4_15()
    print(f"complex: f = {M.f_vector()}, subsets = {2 ** len(M.vertices) - 2}")
    for jobs in args.jobs:
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            rep = is_tight_z2(M, mode="exhaustive", jobs=jobs)
            best = min(best, time.perf_counter() - t0)
            assert rep.verdict == "tight" and rep.checked == 32766
        print(
            f"jobs={jobs:2d}: {best:6.2f}s  ({rep.checked / best:,.0f} covered/s, "
            f"{rep.evaluated / best:,.0f} evaluated/s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

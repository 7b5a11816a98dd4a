"""Workload definitions: inputs from a seed, request lists and output checks.

This module imports nothing from walkup.  `make_inputs` returns the
files a workload reads; `certify_requests` returns the CLI request list
of certify-cli with a check per request.  The library workloads'
requests live in worker.py, which is the only part that imports walkup.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import gen

# One sentence per workload: the layer it stresses and the one it bypasses.
WORKLOADS = {
    "certify-cli": "Stresses the tightness scan (serial, pooled, sampled, early stop) and "
                   "the cli/io start-up floor of ~48 walkup processes; bypasses large "
                   "complexes and the reduction route.",
    "stacked-scale": "Stresses complex construction, the two stacked-sphere recognizers "
                     "(reduce_to_core dominates) and the random generator on a doubling "
                     "ladder; bypasses tightness and surgery.",
    "surgery-search": "Stresses surgery (find_admissible_bijection with graph_distance, "
                      "handle addition/deletion, decomposition) and isomorphism; bypasses "
                      "tightness and large complexes.",
}

M4_15_F = [15, 105, 230, 240, 96]
# sha256 prefix of the canonical text of `walkup generate m4-15`
M4_15_DIGEST = "7f59a265f25f25e1"
KUHNEL_DIMS = (4, 5, 6)
TUBES = 40
TUBE_N = 26


def _seeds(seed: int, tag: str, k: int) -> list[int]:
    rng = random.Random(f"{seed}:{tag}")
    return [rng.randrange(1, 2**31) for _ in range(k)]


def stacked_ladder(seed: int) -> list[tuple[int, int, int]]:
    """(d, n, generator seed) for the positive stacked-scale chains."""
    out = []
    for d in (3, 4):
        for n, copies in ((40, 6), (80, 7), (160, 2), (320, 1)):
            out += [(d, n, s) for s in _seeds(seed, f"ladder{d}.{n}", copies)]
    return out


def make_inputs(workload: str, seed: int) -> tuple[dict[str, str], dict]:
    """Input files (name -> text) and the manifest the requests read."""
    files: dict[str, str] = {}
    manifest: dict = {"workload": workload, "seed": seed}
    if workload == "certify-cli":
        for d in KUHNEL_DIMS:
            files[f"k{d}.txt"] = gen.canonical_text(gen.kuhnel(d))
        files["malformed.txt"] = gen.malformed(random.Random(seed))
        manifest["stacked_seeds"] = _seeds(seed, "ns12", 2)
        manifest["sample_seed"] = _seeds(seed, "sample", 1)[0]
    elif workload == "stacked-scale":
        manifest["ladder"] = stacked_ladder(seed)
        negatives = []
        for n in range(9, 13):
            files[f"cyclic{n}.txt"] = gen.canonical_text(gen.cyclic_polytope_boundary(5, n))
            negatives.append(f"cyclic{n}.txt")
        for n in (80, 80, 160, 160):
            name = f"sum{n}-{len(negatives)}.txt"
            rng = random.Random(_seeds(seed, name, 1)[0])
            files[name] = gen.canonical_text(gen.stacked_sum_cyclic(n, rng))
            negatives.append(name)
        manifest["negatives"] = negatives
    elif workload == "surgery-search":
        # A fixed corpus, the same for every seed.  A tube's request costs
        # 50-350 ms, so a fresh draw of 40 tubes moves req_p75_ms by ~20 %
        # between seeds; and scanning in any order but the canonical one
        # meets kalai_decompose failures on ~14 % of the handles found.
        tubes = []
        for i in range(TUBES):
            name = f"tube{i:02d}.txt"
            files[name] = gen.canonical_text(
                gen.stacked_sphere(4, TUBE_N, random.Random(f"tube{i}"), path=True)
            )
            tubes.append(name)
        manifest["tubes"] = tubes
        files["k4.txt"] = gen.canonical_text(gen.kuhnel(4))
        files["k4q.txt"] = gen.canonical_text(
            [tuple("q" + v[1:] for v in f) for f in gen.kuhnel(4)]
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest["digests"] = {name: gen.digest(text) for name, text in sorted(files.items())}
    return files, manifest


# ------------------------------------------------------------- certify-cli

@dataclass
class CliRequest:
    """One user command: a pipeline of walkup invocations and its check.

    check(codes, stdout, stderr, notes) returns None when the output is
    right and a message otherwise; it may leave facts in notes.
    """

    name: str
    stages: list[list[str]]
    check: Callable[[list[int], str, str, dict], str | None]
    save_as: str | None = None
    tags: dict = field(default_factory=dict)


def _porcelain(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _json_check(want_codes, test):
    """Expected exit codes, then test() on the --porcelain JSON report."""
    def check(codes, out, err, notes):
        if codes != want_codes:
            return f"exit codes {codes}, expected {want_codes}: {err[-200:]!r}"
        return test(_porcelain(out))
    return check


def _eq(key, want):
    return lambda r: None if r[key] == want else f"{key} = {r[key]!r}, expected {want!r}"


def _tight_check(n_vertices: int):
    def test(r):
        if r["verdict"] != "tight" or r["checked"] != 2**n_vertices - 2:
            return f"verdict {r['verdict']} after {r['checked']} subsets"
        return None
    return _json_check([0], test)


def _error_line_check(codes, out, err, notes):
    lines = err.strip().splitlines()
    if codes != [2] or len(lines) != 1 or not lines[0].startswith("error:") or out:
        return f"expected exit 2 and one error line, got {codes} {err[:200]!r}"
    return None


def _text_check(want_digest: str):
    """Exit 0 and output byte-identical to the text with this digest."""
    def check(codes, out, err, notes):
        if codes != [0] or gen.digest(out) != want_digest:
            return f"exit {codes}, output digest {gen.digest(out)}, expected {want_digest}"
        return None
    return check


def _handles_check(handles: int, base_vertices: int):
    """Each handle cut clones d+1 vertices, so the base grows by that much."""
    def test(r):
        if (r["handles"], r["base_vertices"]) != (handles, base_vertices):
            return f"{r['handles']} handles over {r['base_vertices']} vertices"
        return None
    return test


def _stacked_text_check(codes, out, err, notes):
    facets = [tuple(line.split()) for line in out.splitlines()]
    verts = {v for f in facets for v in f}
    # a stacked 4-sphere on 12 vertices: 6 facets plus 4 per added vertex, closed
    if codes != [0] or len(verts) != 12 or len(facets) != 6 + 4 * 6 or gen.boundary(facets):
        return f"generate stacked: exit {codes}, {len(verts)} vertices, {len(facets)} facets"
    return None


def _nontight_check(codes, out, err, notes):
    if codes != [1]:
        return f"exit codes {codes}, expected [1]: {err[-200:]!r}"
    r = _porcelain(out)
    if r["verdict"] != "not-tight" or not r["violations"]:
        return f"verdict {r['verdict']} with {len(r['violations'])} violations"
    notes["checked"] = r["checked"]
    notes["violations"] = [(v["subset"], v["degree"]) for v in r["violations"]]
    return None


def certify_requests(work: str, manifest: dict, texts: dict[str, str]) -> list[CliRequest]:
    """The fixed request list of one certify-cli pass.

    `texts` maps input file names to their contents; m4-15.txt is the
    program's own `generate m4-15`, written at set-up.
    """
    p = f"{work}/"
    reqs: list[CliRequest] = []
    complexes = [("m4-15", "m4-15.txt", 4)] + [(f"K{d}", f"k{d}.txt", d) for d in KUHNEL_DIMS]
    for label, fname, d in complexes:
        path = p + fname
        facets = [tuple(line.split()) for line in texts[fname].splitlines()]
        fvec = list(gen.face_counts(facets))
        n = fvec[0]
        m4 = label == "m4-15"
        betti = [1, 3, 0, 3, 1] if m4 else [1, 1] + [0] * (d - 3) + [1, 1]
        ledger = f"{p}ledger-{label}.json"
        reqs += [
            CliRequest(f"{label} info", [["--porcelain", "info", path]],
                       _json_check([0], _eq("f_vector", M4_15_F if m4 else fvec))),
            CliRequest(f"{label} homology", [["--porcelain", "homology", path]],
                       _json_check([0], _eq("betti", betti))),
            CliRequest(f"{label} check walkup", [["--porcelain", "check", "walkup", path]],
                       _json_check([0], _eq("member", True))),
        ]
        if d == 4:
            reqs.append(CliRequest(
                f"{label} check bounds4", [["--porcelain", "check", "bounds4", path]],
                _json_check([0], lambda r: None if all(b["tight"] for b in r["bounds"])
                            else f"bounds {r['bounds']}")))
        else:
            reqs.append(CliRequest(f"{label} check bounds4",
                                   [["--porcelain", "check", "bounds4", path]], _error_line_check))
        reqs += [
            CliRequest(f"{label} automorphisms", [["--porcelain", "automorphisms", path]],
                       _json_check([0], _eq("order", 3 if m4 else 2 * (2 * d + 3)))),
            CliRequest(f"{label} decompose", [["--porcelain", "decompose", path, "--ledger", ledger]],
                       _json_check([0], _handles_check(3 if m4 else 1, 30 if m4 else n + d + 1))),
            CliRequest(f"{label} replay", [["replay", ledger]],
                       _text_check(M4_15_DIGEST if m4 else gen.digest(texts[fname]))),
            CliRequest(f"{label} check tight", [["--porcelain", "check", "tight", path]],
                       _tight_check(n), tags={"tight": label}),
        ]
    m4 = p + "m4-15.txt"
    reqs += [
        CliRequest("generate m4-15", [["generate", "m4-15"]], _text_check(M4_15_DIGEST)),
        CliRequest("generate b5-30 | check stacked",
                   [["generate", "b5-30"], ["--porcelain", "check", "stacked"]],
                   _json_check([0, 0], lambda r: None if (r["kind"], r["stacked"]) == ("ball", True)
                               else f"{r['kind']} stacked={r['stacked']}")),
        CliRequest("generate n5-15 | info", [["generate", "n5-15"], ["--porcelain", "info"]],
                   _json_check([0, 0], lambda r: None
                               if (r["dimension"], r["f_vector"][0], r["f_vector"][-1], r["closed"],
                                   r["weak_pseudomanifold"]) == (5, 15, 25, False, True)
                               else f"n5-15 info {r}")),
        CliRequest("m4-15 check tight --jobs 1", [["--porcelain", "check", "tight", "--jobs", "1", m4]],
                   _tight_check(15), tags={"tight": "m4-15", "jobs1": True}),
        CliRequest("K5 check tight --jobs 1",
                   [["--porcelain", "check", "tight", "--jobs", "1", p + "k5.txt"]],
                   _tight_check(13), tags={"tight": "K5", "jobs1": True}),
        CliRequest("m4-15 check tight --sample 3000",
                   [["--porcelain", "check", "tight", "--sample", "3000",
                     "--seed", str(manifest["sample_seed"]), m4]],
                   _json_check([0], lambda r: None
                               if (r["verdict"], r["checked"]) == ("tight-on-sample", 3000)
                               else f"sampled {r['verdict']} after {r['checked']}")),
    ]
    for i, s in enumerate(manifest["stacked_seeds"]):
        path = f"{p}ns12-{i}.txt"
        reqs += [
            CliRequest(f"generate stacked #{i}",
                       [["generate", "stacked", "--dim", "4", "--n", "12", "--seed", str(s)]],
                       _stacked_text_check, save_as=path),
            CliRequest(f"ns12-{i} check tight", [["--porcelain", "check", "tight", path]],
                       _nontight_check, tags={"nontight": path}),
            CliRequest(f"ns12-{i} check tight --jobs 1",
                       [["--porcelain", "check", "tight", "--jobs", "1", path]],
                       _nontight_check, tags={"nontight": path, "jobs1": True}),
            CliRequest(f"ns12-{i} check walkup", [["--porcelain", "check", "walkup", path]],
                       _json_check([0], _eq("member", True))),
        ]
    reqs += [
        CliRequest("malformed info", [["info", p + "malformed.txt"]], _error_line_check),
        CliRequest("fvector walkup", [["--porcelain", "fvector", "walkup", "--dim", "4",
                                       "--n", "15", "--chi", "-4"]],
                   _json_check([0], _eq("f_vector", M4_15_F))),
    ]
    return reqs


# reference_loop() on a quiet core of the 2-vCPU Xeon host on which the
# bounds in BENCHMARK.json were set
REFERENCE_S = 0.0092


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a probe of the host's speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return time.perf_counter() - t0


class Clock:
    """Times requests in nominal seconds.

    On a shared host the speed of the same code drifts by up to ~45 % in
    phases of a few seconds.  Each request's seconds are scaled by
    REFERENCE_S over the mean of reference_loop() just before and just
    after it, which removes most of that drift from the metrics.
    """

    def __init__(self):
        self.probe = reference_loop()

    def time(self, fn):
        """(fn(), raw seconds, nominal seconds)."""
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        after = reference_loop()
        nominal = raw * 2 * REFERENCE_S / (self.probe + after)
        self.probe = after
        return out, raw, nominal


def repeat_passes(one_pass, seconds: float) -> list:
    """At least two passes, then more while the next should end within
    `seconds` of the first pass's start."""
    passes, t0 = [], time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - t0
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def run_cli_pass(requests: list[CliRequest], execute) -> list[dict]:
    """Issue every request once, in order; returns one record per request.

    execute(stages) runs a pipeline and returns (exit codes, stdout,
    stderr).  Only execute is timed, by a Clock; checks and saving
    outputs are not.
    """
    records = []
    clock = Clock()
    for req in requests:
        (codes, out, err), raw, latency = clock.time(lambda: execute(req.stages))
        notes: dict = {}
        try:
            error = req.check(codes, out, err, notes)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            error = f"unreadable output ({e!r}): {out[:120]!r} {err[:120]!r}"
        if req.save_as and error is None:
            with open(req.save_as, "w", encoding="utf-8") as fh:
                fh.write(out)
        records.append({"name": req.name, "latency": latency, "raw": raw, "error": error,
                        "notes": notes})
    return records


def scan_facts(requests: list[CliRequest], records: list[dict], n_vertices: dict[str, int]) -> dict:
    """Tightness facts of one certify-cli pass.

    subsets: subsets covered by exhaustive scans that answered tight, and
    their seconds; mismatches: non-tight inputs whose `checked` differs
    between the default --jobs and --jobs 1; violations: every reported
    violation as (file, subset, degree), for independent confirmation.
    """
    covered = seconds = 0.0
    checked: dict[str, dict] = {}
    violations = set()
    for req, rec in zip(requests, records):
        if rec["error"] is not None:
            continue
        if "tight" in req.tags:
            covered += 2 ** n_vertices[req.tags["tight"]] - 2
            seconds += rec["latency"]
        if "nontight" in req.tags:
            path = req.tags["nontight"]
            checked.setdefault(path, {})[bool(req.tags.get("jobs1"))] = rec["notes"]["checked"]
            violations.update((path, tuple(s), k) for s, k in rec["notes"]["violations"])
    mismatches = sum(1 for c in checked.values() if len(c) == 2 and c[True] != c[False])
    return {"covered": covered, "seconds": seconds, "mismatches": mismatches,
            "checked": checked, "violations": sorted(violations)}


def first_admissible_pair(facets: list[tuple[str, ...]]):
    """First pair of disjoint facets, in canonical order, that admits a
    bijection with every pair at graph distance >= 3; None if none does.

    Independent of walkup: distance >= 3 means neither adjacent nor
    sharing a neighbour, read off adjacency bitmasks.
    """
    facets = sorted(facets)
    verts = sorted({v for f in facets for v in f})
    bit = {v: 1 << i for i, v in enumerate(verts)}
    adj = {v: 0 for v in verts}
    for f in facets:
        for u, v in combinations(f, 2):
            adj[u] |= bit[v]
            adj[v] |= bit[u]
    near = {}
    for v in verts:
        ball = adj[v] | bit[v]
        for u in verts:
            if adj[v] & bit[u]:
                ball |= adj[u]
        near[v] = ball

    def matchable(src, allowed, used=0):
        if not src:
            return True
        return any(not used & bit[w] and matchable(src[1:], allowed, used | bit[w])
                   for w in allowed[src[0]])

    for f1, f2 in combinations(facets, 2):
        if set(f1) & set(f2):
            continue
        allowed = {u: [w for w in f2 if not near[u] & bit[w]] for u in f1}
        if all(allowed.values()) and matchable(list(f1), allowed):
            return f1, f2
    return None

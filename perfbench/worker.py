"""Benchmark worker: the only part of the benchmark that imports walkup.

    python3 perfbench/worker.py setup  --workload W --seed N --dir D
    python3 perfbench/worker.py run    --workload W --dir D --seconds S
    python3 perfbench/worker.py trace  --workload W --dir D --spans FILE
    python3 perfbench/worker.py verify --dir D  < violations.json

run.py starts each command in a fresh interpreter with the checkout's
src/ on PYTHONPATH, and reads the one JSON object it prints last.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import combinations, count

import gen
import workloads
from tracing import LAYERS, Tracer

CLI = "import sys; from walkup.cli import main; sys.exit(main())"


def load(work: str) -> tuple[dict, dict[str, str]]:
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    texts = {}
    for name in manifest["digests"]:
        with open(os.path.join(work, name), encoding="utf-8") as fh:
            texts[name] = fh.read()
        if gen.digest(texts[name]) != manifest["digests"][name]:
            raise SystemExit(f"input {name} changed since set-up")
    return manifest, texts


# ------------------------------------------------------------------ set-up

def cmd_setup(args) -> dict:
    import walkup  # noqa: F401  (importing the program is part of set-up)
    from walkup.constructions import build_m4_15
    from walkup.io import serialize

    files, manifest = workloads.make_inputs(args.workload, args.seed)
    if args.workload == "certify-cli":
        files["m4-15.txt"] = serialize(build_m4_15())
        manifest["digests"]["m4-15.txt"] = gen.digest(files["m4-15.txt"])
    os.makedirs(args.dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(args.dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(args.dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return {"inputs": len(files)}


# -------------------------------------------------------- library requests

def _sphere_betti(d: int) -> tuple[int, ...]:
    return (1,) + (0,) * (d - 1) + (1,)


def stacked_requests(manifest, texts):
    """(name, meta, timed, check) for one stacked-scale pass."""
    import walkup as W
    import walkup.io  # noqa: F401  (W.io)

    def chain(d, n, s):
        def timed():
            X = W.random_stacked_sphere(d, n, s)
            text = W.io.serialize(X)
            Y = W.io.loads(text)
            return (X, text, Y, W.is_stacked_sphere(Y), W.is_stacked_sphere_by_reduction(Y),
                    W.homology_profile(Y), Y.f_vector() == W.stacked_sphere_fvector(d, n))

        def check(out):
            X, text, Y, clique, reduction, prof, fvec_ok = out
            facets = [tuple(line.split()) for line in text.splitlines()]
            if not (clique and reduction):
                return f"recognizers said clique={clique} reduction={reduction}"
            if Y != X or len(Y.vertices) != n or prof.betti != _sphere_betti(d):
                return f"round trip or homology wrong: betti {prof.betti}"
            if not fvec_ok or gen.face_counts(facets) != Y.f_vector():
                return f"f-vector {Y.f_vector()}"
            return None
        return timed, check

    def negative(name):
        text = texts[name]
        want_f = gen.face_counts([tuple(line.split()) for line in text.splitlines()])

        def timed():
            Y = W.io.loads(text)
            return Y, W.is_stacked_sphere(Y), W.is_stacked_sphere_by_reduction(Y), W.homology_profile(Y)

        def check(out):
            Y, clique, reduction, prof = out
            if clique or reduction:
                return f"not stacked, but clique={clique} reduction={reduction}"
            if prof.betti != _sphere_betti(4) or Y.f_vector() != want_f:
                return f"betti {prof.betti}, f-vector {Y.f_vector()}"
            return None
        return timed, check

    reqs = [(f"chain d={d} n={n} seed={s}", {"d": d, "n": n}, *chain(d, n, s))
            for d, n, s in manifest["ladder"]]
    reqs += [(f"negative {name}", {}, *negative(name)) for name in manifest["negatives"]]
    return reqs


def surgery_requests(manifest, texts):
    """(name, meta, timed, check) for one surgery-search pass."""
    import walkup as W
    import walkup.io  # noqa: F401  (W.io)

    def tube(name):
        text = texts[name]
        expected = []  # the independent answer, computed once, outside the timed region

        def timed():
            X = W.io.loads(text)
            psi = None
            for f1, f2 in combinations(X.facets, 2):
                if not set(f1) & set(f2):
                    psi = W.find_admissible_bijection(X, f1, f2)
                    if psi is not None:
                        break
            if psi is None:
                return (psi,)
            Y = W.handle_addition(X, psi)
            member = W.in_walkup_class(Y)
            chi_drop = W.homology_profile(X).euler - W.homology_profile(Y).euler
            cut, back = W.handle_deletion(Y, psi.target_facet)
            restored = W.handle_addition(cut, back)
            ledger = W.kalai_decompose(Y)
            return psi, Y, member, chi_drop, restored, ledger, ledger.replay(), W.is_isomorphic(cut, X)

        def check(out):
            if not expected:
                expected.append(workloads.first_admissible_pair(
                    [tuple(line.split()) for line in text.splitlines()]))
            psi = out[0]
            if psi is None:
                return None if expected[0] is None else f"no pair found, expected {expected[0]}"
            _, Y, member, chi_drop, restored, ledger, replay, iso = out
            if (psi.source_facet, psi.target_facet) != expected[0]:
                return f"pair {psi.source_facet} {psi.target_facet}, expected {expected[0]}"
            if not member or chi_drop != 2:
                return f"handle addition gave member={member}, chi drop {chi_drop}"
            if restored != Y or len(ledger.handles) != 1 or replay != Y or iso is None:
                return "deletion, decomposition or isomorphism round trip failed"
            return None
        return timed, check

    def summed(a, b):
        def timed():
            A, B = W.io.loads(texts[a]), W.io.loads(texts[b])
            Y = W.connected_sum(A, B, dict(zip(A.facets[0], B.facets[0])))
            ledger = W.kalai_decompose(Y)
            return Y, W.in_walkup_class(Y), ledger, ledger.replay()

        def check(out):
            Y, member, ledger, replay = out
            if len(Y.vertices) != 2 * 11 - 5 or not member:
                return f"connected sum has {len(Y.vertices)} vertices, member={member}"
            if len(ledger.handles) != 2 or replay != Y:
                return f"{len(ledger.handles)} handles, replay equal: {replay == Y}"
            return None
        return timed, check

    reqs = [(f"tube {name}", {}, *tube(name)) for name in manifest["tubes"]]
    # Two K4 summands: one handle each, and a connecting sphere whose cut
    # splits the complex, so kalai_decompose takes its split path.
    reqs += [("sum K4 # K4", {}, *summed("k4.txt", "k4.txt")),
             ("sum K4q # K4", {}, *summed("k4q.txt", "k4.txt"))]
    return reqs


def _attempt(timed):
    try:
        return timed(), None
    except Exception as e:  # a failed request is counted, the pass goes on
        return None, f"{type(e).__name__}: {e}"


def library_pass(reqs, tracer=None) -> list[dict]:
    records = []
    clock = workloads.Clock()
    for i, (name, meta, timed, check) in enumerate(reqs):
        if tracer:
            tracer.start_request(i)
        (out, error), raw, latency = clock.time(lambda: _attempt(timed))
        if error is None:
            error = check(out)
        records.append({"name": name, "latency": latency, "raw": raw, "error": error})
    return records


# ------------------------------------------------------ certify in-process

def inprocess(stages):
    """Run a pipeline through walkup.cli.main with redirected stdio."""
    import walkup.cli

    codes, data, err = [], "", ""
    saved = sys.stdin, sys.stdout, sys.stderr
    for argv in stages:
        out, errs = io.StringIO(), io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(data), out, errs
        try:
            codes.append(walkup.cli.main(list(argv)))
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        data, err = out.getvalue(), errs.getvalue()
    return codes, data, err


def certify_setup(work):
    manifest, texts = load(work)
    reqs = workloads.certify_requests(work, manifest, texts)
    n_vertices = {"m4-15": 15, **{f"K{d}": 2 * d + 3 for d in workloads.KUHNEL_DIMS}}
    return reqs, n_vertices


# ------------------------------------------------------------------- run

def cmd_run(args) -> dict:
    manifest, texts = load(args.dir)
    reqs = (stacked_requests if args.workload == "stacked-scale" else surgery_requests)(
        manifest, texts)
    passes = workloads.repeat_passes(lambda: library_pass(reqs), args.seconds)
    return {"passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


# ----------------------------------------------------------------- verify

def confirm_violations(work, violations) -> list[str]:
    """Every reported (file, subset, degree) must fail the direct test."""
    from walkup import io as wio
    from walkup.tightness import homology_map_injective

    wrong = []
    for path, subset, k in violations:
        X = wio.load(os.path.join(work, os.path.basename(path)))
        if homology_map_injective(X, subset, k):
            wrong.append(f"{os.path.basename(path)}: {subset} in degree {k} is injective")
    return wrong


def cmd_verify(args) -> dict:
    return {"wrong": confirm_violations(args.dir, json.load(sys.stdin))}


# ------------------------------------------------------------------ trace

def _slope(times: dict[int, float], meta: list[dict], d: int) -> float:
    """Log-log slope of time against n, smallest to largest n at dimension d."""
    by_n: dict[int, list[float]] = {}
    for i, m in enumerate(meta):
        if m.get("d") == d:
            by_n.setdefault(m["n"], []).append(times.get(i, 0.0))
    if len(by_n) < 2:
        return 0.0
    lo, hi = min(by_n), max(by_n)
    t_lo, t_hi = statistics.mean(by_n[lo]), statistics.mean(by_n[hi])
    return math.log(t_hi / t_lo) / math.log(hi / lo) if t_lo > 0 and t_hi > 0 else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr, names, meta, facts) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  *_s and *_ms are totals
    over the pass unless the name says per call; layers a workload does
    not reach read 0."""
    T, C, K = tr.total, tr.calls, tr.count
    SC = "complex.SimplicialComplex."
    engine_s = T["tightness.TightnessEngine.__init__"]
    steps = K["reduction_steps"]
    scan = tr.request_time("tightness.is_tight_z2")
    scan_by_name = {name: scan[i] for i, name in enumerate(names)}
    m = {
        "cli.self_ms": 1000 * _ratio(tr.layer_self("cli"), C["cli.main"]),
        "io.loads_ms": 1000 * T["io.loads"],
        "io.bytes_parsed": K["bytes_parsed"],
        "io.serialize_ms": 1000 * T["io.serialize"],
        "complex.constructed": C[SC + "__init__"],
        "complex.construct_s": T[SC + "__init__"],
        "complex.faces_enumerated": K["faces_enumerated"],
        "complex.faces_by_dim_s": T[SC + "faces_by_dim"],
        "complex.memo_hit_ratio": _ratio(K["memo_hits"], K["memo_calls"]),
        "complex.clique_complex_s": T[SC + "clique_complex"],
        "complex.dual_graph_s": T[SC + "dual_graph"],
        "complex.boundary_complex_s": T[SC + "boundary_complex"],
        "complex.vertex_link_calls": C[SC + "vertex_link"],
        "complex.graph_distance_calls": C[SC + "graph_distance"],
        "complex.graph_distance_s": T[SC + "graph_distance"],
        "homology.homology_profile_s": T["homology.homology_profile"],
        "homology.rank_gf2_calls": C["homology.rank_gf2"],
        "homology.rows_reduced": K["rows_reduced"],
        "homology.gf2_s": sum(tr.self_time[f"homology.{f}"]
                              for f in ("rank_gf2", "rref_gf2", "nullspace_gf2")),
        "stacked.clique_route_s": T["stacked.is_stacked_sphere"],
        "stacked.reduction_route_s": T["stacked.is_stacked_sphere_by_reduction"],
        "stacked.reduction_steps": steps,
        "stacked.us_per_reduction_step": 1e6 * _ratio(T["stacked.reduce_to_core"], steps),
        "stacked.reduction_exponent": _slope(
            tr.request_time("stacked.is_stacked_sphere_by_reduction"), meta, 4),
        "stacked.route_disagreements": K["route_disagreements"],
        "theory.in_walkup_class_s": T["theory.in_walkup_class"],
        "theory.links_checked": K["links_checked"],
        "theory.bounds_s": T["theory.check_bounds_4manifold"],
        "surgery.bijection_search_s": T["surgery.find_admissible_bijection"],
        "surgery.bijection_searches": C["surgery.find_admissible_bijection"],
        "surgery.admissible_hit_ratio": _ratio(K["admissible_found"],
                                               C["surgery.find_admissible_bijection"]),
        "surgery.handle_addition_s": T["surgery.handle_addition"],
        "surgery.handle_deletion_s": T["surgery.handle_deletion"],
        "surgery.decompose_s": T["surgery.kalai_decompose"],
        "surgery.sphere_search_s": T["surgery.find_induced_standard_spheres"],
        "surgery.handles_cut": K["handles_cut"],
        "surgery.replay_s": T["surgery.HandleLedger.replay"],
        "constructions.random_sphere_s": T["constructions.random_stacked_sphere"],
        "constructions.random_sphere_exponent": _slope(
            tr.request_time("constructions.random_stacked_sphere"), meta, 4),
        "symmetry.automorphism_s": T["symmetry.automorphism_group"],
        "symmetry.isomorphism_s": T["symmetry.is_isomorphic"],
        "symmetry.isomorphism_calls": C["symmetry.is_isomorphic"],
        "tightness.engine_setup_s": engine_s,
        "tightness.scan_s": T["tightness.is_tight_z2"] - engine_s,
        "tightness.subsets_evaluated": K["subsets_evaluated"],
        "tightness.subsets_covered": K["subsets_covered"],
        "tightness.evaluated_ratio": _ratio(K["subsets_evaluated"], K["subsets_covered"]),
        "tightness.subsets_per_scan_s": _ratio(K["subsets_covered"], K["exhaustive_s"]),
        "tightness.pool_s": K["pool_s"],
        "tightness.parallel_speedup": _ratio(scan_by_name.get("m4-15 check tight --jobs 1", 0.0),
                                             scan_by_name.get("m4-15 check tight", 0.0)),
        "tightness.sampled_subsets_per_s": _ratio(K["sampled_subsets"], K["sampled_s"]),
        "tightness.report_mismatch": facts.get("mismatches", 0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tr.layer_self(layer)
    return m


def cmd_trace(args) -> dict:
    from walkup.constructions import build_m4_15

    facts = {}
    if args.workload == "certify-cli":
        reqs, n_vertices = certify_setup(args.dir)
        names, meta = [r.name for r in reqs], [{} for _ in reqs]

        def one_pass(tracer=None):
            ids = count()

            def execute(stages):
                if tracer:
                    tracer.start_request(next(ids))
                return inprocess(stages)
            return workloads.run_cli_pass(reqs, execute)
    else:
        manifest, texts = load(args.dir)
        make = stacked_requests if args.workload == "stacked-scale" else surgery_requests
        lib = make(manifest, texts)
        names, meta = [r[0] for r in lib], [r[1] for r in lib]

        def one_pass(tracer=None):
            return library_pass(lib, tracer)

    plain = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    failures = [f"{r['name']}: {r['error']}" for r in plain + traced if r["error"]]
    if args.workload == "certify-cli":
        facts = workloads.scan_facts(reqs, traced, n_vertices)
        failures += confirm_violations(args.dir, facts["violations"])

    wall_plain = sum(r["latency"] for r in plain)
    wall_traced = sum(r["latency"] for r in traced)
    raw_traced = sum(r["raw"] for r in traced)
    # shares of the traced pass, in the raw seconds the spans are kept in
    shares = {f"{layer} self": tracer.layer_self(layer) / raw_traced for layer in LAYERS}
    for name in ("tightness.is_tight_z2", "surgery.find_admissible_bijection",
                 "stacked.is_stacked_sphere_by_reduction"):
        shares[name] = tracer.total[name] / raw_traced
    metrics = layer_metrics(tracer, names, meta, facts)
    metrics["cli.startup_ms"] = 1000 * statistics.median(
        _timed(lambda: subprocess.run([sys.executable, "-c", CLI, "--help"],
                                      stdout=subprocess.DEVNULL, check=True))
        for _ in range(5))
    metrics["constructions.build_m4_15_ms"] = 1000 * statistics.median(
        _timed(build_m4_15) for _ in range(3))
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    tracer.dump(args.spans, names)
    return {"metrics": metrics, "attempted": len(plain) + len(traced), "failures": failures,
            "wall_s": {"plain": wall_plain, "traced": wall_traced}, "shares": shares}


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("command", choices=["setup", "run", "trace", "verify"])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans")
    args = ap.parse_args()
    handler = {"setup": cmd_setup, "run": cmd_run, "trace": cmd_trace, "verify": cmd_verify}
    print(json.dumps(handler[args.command](args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

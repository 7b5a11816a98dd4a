"""The walkup benchmark: one command, three single-client closed-loop workloads.

    python3 perfbench/run.py --workload certify-cli --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it imports walkup from ./src.

  certify-cli     the paper's certification story as ~48 `walkup`
                  subprocesses per pass, on m4-15 and Kühnel's K4..K6
  stacked-scale   library calls in one fresh worker: random stacked
                  spheres on a doubling ladder through both recognizers
  surgery-search  library calls in one fresh worker: admissible handle
                  search on path-grown 4-spheres, handle surgery and
                  decomposition

Each run first sets up seven times (fresh interpreter, import walkup,
generate and write the inputs) and reports the median as setup_s.  It
then repeats passes over the workload's fixed request list for about
--seconds (at least two passes), checking the output of every request.

End-to-end times are nominal seconds: each is scaled by how fast a fixed
reference loop ran just before and after it, which takes out most of
the shared host's drift in speed (workloads.Clock).  A request's latency
is its median over the passes; wall_s is the sum of these, one pass, and
req_p50_ms and req_p75_ms are their quantiles over the request list
(>= 40 samples).  peak_rss_mb is ru_maxrss of the library worker itself,
or of the largest CLI child (RUSAGE_CHILDREN).  fail_ratio is failed /
attempted of the result line; certify-cli also reports
scan_subsets_per_s, the subsets covered by exhaustive scans that
answered tight per second of their latency, in the record.

--trace 1 instead runs one pass untraced and one traced, in a fresh
worker (certify-cli through walkup.cli.main in-process), and reports
the per-layer metrics; the spans go to .perfbench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json.  A fuller record, with the machine, the input digests
and every failure, is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys

import workloads
from worker import CLI, certify_setup

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUPS = 7
ENV = dict(os.environ, PYTHONPATH=SRC)
# `check tight` with a pool can hang after stopping early on a non-tight
# input; such a request fails instead of stalling the run.
REQUEST_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 120


def finish(procs: list[subprocess.Popen], timeout: float, stdin: str | None = None):
    """Communicate with the last process; on timeout kill every process
    group (each was started in its own session) and reap them all."""
    try:
        out, err = procs[-1].communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        for p in procs:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:  # that stage had already exited
                pass
        out, err = procs[-1].communicate()
        err += f"\nkilled after {timeout:g} s without an answer"
    for p in procs[:-1]:
        p.wait()
    return out, err


def worker(command: str, *args: str, stdin: str = "") -> dict:
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), command, *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=ENV, start_new_session=True,
    )
    out, err = finish([proc], WORKER_TIMEOUT_S, stdin)
    if proc.returncode != 0:
        raise SystemExit(f"worker {command} failed ({proc.returncode}):\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def execute(stages: list[list[str]]) -> tuple[list[int], str, str]:
    """Run a pipeline of walkup processes, as a shell pipe would."""
    procs = []
    for i, argv in enumerate(stages):
        last = i == len(stages) - 1
        procs.append(subprocess.Popen(
            [sys.executable, "-c", CLI, *argv],
            stdin=procs[-1].stdout if procs else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if last else subprocess.DEVNULL,
            env=ENV, text=True, start_new_session=True,
        ))
        if i:
            procs[-2].stdout.close()  # the reader owns the pipe now
    out, err = finish(procs, REQUEST_TIMEOUT_S)
    return [p.returncode for p in procs], out, err


def machine(when: str, rec: dict) -> None:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        rec[f"load1_{when}"] = float(fh.read().split()[0])
    if when == "start":
        rec["nproc"] = os.cpu_count()
        rec["python"] = platform.python_version()
        rec["cpu"] = platform.processor() or platform.machine()
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu"] = line.split(":", 1)[1].strip()
                    break


def run_certify(work: str, seconds: float, rec: dict) -> dict:
    reqs, n_vertices = certify_setup(work)
    passes = workloads.repeat_passes(lambda: workloads.run_cli_pass(reqs, execute), seconds)
    facts = [workloads.scan_facts(reqs, p, n_vertices) for p in passes]
    violations = sorted({tuple(v) for f in facts for v in f["violations"]})
    wrong = worker("verify", "--dir", work, stdin=json.dumps(violations))["wrong"]
    rec["violations_confirmed"] = len(violations) - len(wrong)
    rec["report_mismatch_per_pass"] = [f["mismatches"] for f in facts]
    rec["checked_default_vs_jobs1"] = [f["checked"] for f in facts]
    scan_s = sum(f["seconds"] for f in facts)
    rec["scan_subsets_per_s"] = sum(f["covered"] for f in facts) / scan_s if scan_s else 0.0
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = summarize(passes, rss, rec)
    rec["failures"] += wrong
    return metrics


def run_library(workload: str, work: str, seconds: float, rec: dict) -> dict:
    res = worker("run", "--workload", workload, "--dir", work, "--seconds", str(seconds))
    return summarize(res["passes"], res["peak_rss_mb"], rec)


def summarize(passes: list[list[dict]], rss_mb: float, rec: dict) -> dict:
    """End-to-end metrics from the passes of one run.

    Each request's latency is the median over the run's passes of its
    nominal seconds (see workloads.Clock); wall_s is their sum, one
    pass, and the quantiles are taken over the request list.
    """
    latency = [statistics.median(p[i]["latency"] for p in passes) for i in range(len(passes[0]))]
    rec["pass_walls_s"] = [sum(r["latency"] for r in p) for p in passes]
    rec["pass_walls_raw_s"] = [sum(r["raw"] for r in p) for p in passes]
    rec["request_ms"] = {r["name"]: 1000 * t for r, t in zip(passes[0], latency)}
    rec["requests_per_pass"] = len(latency)
    rec["attempted"] = sum(len(p) for p in passes)
    rec["failures"] = [f"{r['name']}: {r['error']}" for p in passes for r in p if r["error"]]
    return {"wall_s": sum(latency),
            "req_p50_ms": 1000 * statistics.median(latency),
            "req_p75_ms": 1000 * statistics.quantiles(latency, n=4)[2],
            "peak_rss_mb": rss_mb}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "walkup", "__init__.py")):
        print(f"error: no walkup sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    rec = {"workload": args.workload, "why": workloads.WORKLOADS[args.workload],
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "machine": {}}
    machine("start", rec["machine"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        setups, digests = [], []
        clock = workloads.Clock()
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            setups.append(clock.time(lambda: worker(
                "setup", "--workload", args.workload, "--seed", str(args.seed), "--dir", work))[2])
            with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
                digests.append(json.load(fh)["digests"])
        rec["setup_runs_s"] = setups
        rec["input_digests"] = digests[0]
        failures = [] if all(d == digests[0] for d in digests) else ["set-ups made different inputs"]
        if args.trace:
            res = worker("trace", "--workload", args.workload, "--dir", work,
                         "--spans", os.path.join(OUT, f"spans-{tag}.json"))
            metrics, attempted = res["metrics"], res["attempted"]
            failures += res["failures"]
            rec["wall_s_plain_vs_traced"] = res["wall_s"]
            rec["traced_shares"] = res["shares"]
        else:
            if args.workload == "certify-cli":
                metrics = run_certify(work, args.seconds, rec)
            else:
                metrics = run_library(args.workload, work, args.seconds, rec)
            metrics["setup_s"] = statistics.median(setups)
            attempted = rec["attempted"]
            failures += rec["failures"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine("end", rec["machine"])

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    rec["fail_ratio"] = len(failures) / attempted
    rec["failures"] = failures
    rec["result"] = result
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)

    print(f"workload {args.workload} (seed {args.seed}): {rec['why']}")
    if args.trace:
        print("share of the traced pass: " + ", ".join(
            f"{k} {v:.0%}" for k, v in rec["traced_shares"].items() if v >= 0.005))
    else:
        print(f"{len(rec['pass_walls_s'])} passes x {rec['requests_per_pass']} requests "
              f"(latency samples: {rec['requests_per_pass']} per-request medians), "
              f"fail_ratio {rec['fail_ratio']:.4f}")
        if "scan_subsets_per_s" in rec:
            print(f"scan_subsets_per_s {rec['scan_subsets_per_s']:.0f} 1/s")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

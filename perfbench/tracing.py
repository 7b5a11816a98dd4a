"""In-memory tracing of calls into walkup, from outside the program.

`Tracer.install` wraps every public function of the ten layer modules
and a few methods of the central classes, and patches every walkup
module attribute that binds one of them (walkup.tightness.is_tight_z2
and walkup.cli.is_tight_z2 alike), so calls made inside the program are
seen too.  The program's source is not touched.

Each call keeps a frame on a stack, so a function's self time is its
duration minus the time of the traced calls it made.  Spans (name,
start, end, parent span, request id) are kept in memory and written once
by `dump`.  Functions of the complex layer and the GF(2) kernels run up
to ~10^6 times a pass; they keep aggregate counts and times only.

Pool workers forked by the tightness scan inherit the patched functions
but record into their own memory, which is discarded: only the parent
side of a pooled scan is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "io", "complex", "homology", "stacked", "theory",
          "surgery", "constructions", "symmetry", "tightness")

# Methods traced besides each layer's module-level public functions.
METHODS = {
    "complex": ("SimplicialComplex", ("__init__", "faces_by_dim", "adjacency", "dual_graph",
                                      "clique_complex", "boundary_complex", "vertex_link",
                                      "graph_distance", "connected_components")),
    "surgery": ("HandleLedger", ("replay",)),
    "tightness": ("TightnessEngine", ("__init__",)),
}
AGGREGATE_ONLY_LAYERS = {"complex"}
AGGREGATE_ONLY = {"homology.rank_gf2", "homology.rref_gf2", "homology.nullspace_gf2"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # [name, child seconds, span id]
        self.spans: list[tuple] = []         # (name, start, end, parent id, request)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self.routes: dict[int, tuple] = {}   # id(complex) -> (complex, verdicts)
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn):
        stack, spans = self.stack, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time
        keep_span = name not in AGGREGATE_ONLY and name.split(".")[0] not in AGGREGATE_ONLY_LAYERS
        key = name.replace(".", "_")
        pre = getattr(self, "_before_" + key, None)
        post = getattr(self, "_after_" + key, None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(args) if pre else None
            parent = stack[-1][2] if stack else None
            span_id = None
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0.0, span_id if keep_span else parent]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[1]
                if keep_span:
                    spans.append((name, t0, t1, parent, self.request, span_id))
            if post:
                post(args, kwargs, result, dur, state)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"walkup.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "walkup" and not modname.startswith("walkup."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[f"walkup.{layer}"], cls_name)
            for m in methods:
                orig = cls.__dict__[m]
                self._restore.append((cls, m, orig))
                setattr(cls, m, self.wrap(f"{layer}.{cls_name}.{m}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def start_request(self, index: int) -> None:
        self.request = index
        self.routes.clear()

    # -- counters at the layer boundaries ------------------------------------

    def _memo_probe(self, key, args):
        # SimplicialComplex memoizes these per object in its _cache dict
        self.count["memo_calls"] += 1
        hit = key in getattr(args[0], "_cache", ())
        self.count["memo_hits"] += hit
        return hit

    def _before_complex_SimplicialComplex_faces_by_dim(self, args):
        return self._memo_probe("faces_by_dim", args)

    def _before_complex_SimplicialComplex_adjacency(self, args):
        return self._memo_probe("adjacency", args)

    def _before_complex_SimplicialComplex_dual_graph(self, args):
        return self._memo_probe("dual_graph", args)

    def _before_tightness_is_tight_z2(self, args):
        return self.total["tightness.TightnessEngine.__init__"]

    def _after_complex_SimplicialComplex_faces_by_dim(self, args, kwargs, result, dur, hit):
        if not hit:
            self.count["faces_enumerated"] += sum(len(fs) for fs in result.values())

    def _after_complex_SimplicialComplex_vertex_link(self, args, kwargs, result, dur, state):
        if any(frame[0] == "theory.in_walkup_class" for frame in self.stack):
            self.count["links_checked"] += 1

    def _after_io_loads(self, args, kwargs, result, dur, state):
        self.count["bytes_parsed"] += len(args[0])

    def _after_homology_rank_gf2(self, args, kwargs, result, dur, state):
        self.count["rows_reduced"] += len(args[0])

    _after_homology_rref_gf2 = _after_homology_rank_gf2

    def _after_stacked_reduce_to_core(self, args, kwargs, result, dur, state):
        self.count["reduction_steps"] += len(result[1])

    def _route(self, X, route, verdict):
        # holding X keeps its id from being reused within the request
        seen = self.routes.setdefault(id(X), (X, {}))[1]
        seen[route] = verdict
        if len(seen) == 2:
            self.count["route_disagreements"] += len(set(seen.values())) - 1
            del self.routes[id(X)]

    def _after_stacked_is_stacked_sphere(self, args, kwargs, result, dur, state):
        self._route(args[0], "clique", result)

    def _after_stacked_is_stacked_sphere_by_reduction(self, args, kwargs, result, dur, state):
        self._route(args[0], "reduction", result)

    def _after_surgery_find_admissible_bijection(self, args, kwargs, result, dur, state):
        self.count["admissible_found"] += result is not None

    def _after_surgery_kalai_decompose(self, args, kwargs, result, dur, state):
        self.count["handles_cut"] += len(result.handles)

    def _after_surgery_handle_deletion(self, args, kwargs, result, dur, state):
        self.count["handles_cut"] += 1

    def _after_tightness_is_tight_z2(self, args, kwargs, report, dur, engine_s_before):
        n = len(args[0].vertices)
        if report.mode == "sampled":
            self.count["sampled_subsets"] += report.checked
            self.count["sampled_s"] += dur
            return
        # a tight verdict covers every proper subset, whatever was evaluated
        self.count["subsets_evaluated"] += report.checked
        self.count["subsets_covered"] += 2**n - 2 if report.verdict == "tight" else report.checked
        self.count["exhaustive_s"] += dur
        if kwargs.get("jobs", 1) > 1:
            engine_s = self.total["tightness.TightnessEngine.__init__"] - engine_s_before
            self.count["pool_s"] += dur - engine_s

    # -- output ---------------------------------------------------------------

    def request_time(self, name: str) -> dict[int, float]:
        """Seconds spent in spans called `name`, per request."""
        out: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[0] == name:
                out[span[4]] += span[2] - span[1]
        return out

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".")[0] == layer)

    def dump(self, path: str, requests: list[str]) -> None:
        doc = {
            "requests": requests,
            "span_fields": ["name", "start", "end", "parent", "request", "id"],
            "spans": self.spans,
            "aggregates": {
                name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "counters": dict(self.count),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

"""Per-layer spans for the traced run, installed from outside the package.

A `Tracer` replaces the public entry points of each fvx layer with wrappers
that append a span (name, parent span, start, end) to an in-memory list and
feed a few exact counters from the call's arguments and result.  Every
module attribute bound to a wrapped function is patched, so a call is seen
whichever module it goes through (`fvx.oracles.solve_lp`,
`fvx.verify.solve_lp`, ...).  Oracle `minimize` is patched on each concrete
oracle class and not on the counting wrapper, so no call is counted twice.

`fvx.core` is not wrapped: it is called hundreds of thousands of times per
pass, so wrapping it would measure the wrapper; its cost shows up in the self
time of its callers.  No layer has queues or threads, so there is no waiting
time to report.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict


def _count_faces(counts, name, args, result):
    counts["separation.faces"] += len(result)


def _count_boxes(counts, name, args, result):
    counts["integral.boxes"] += len(result)


def _count_kept_blocks(counts, name, args, result):
    counts["integral.kept_blocks"] += result.meta["kept_blocks"]
    counts["integral.candidate_blocks"] += result.meta["boxes"]


def _count_feasible(counts, name, args, result):
    counts["oracles.feasible"] += result.feasible


def _count_formulation(counts, name, args, result):
    counts["extension.vars"] += len(result.variables)
    counts["extension.rows"] += len(result.rows)
    counts["extension.counted_over_certified"] += result.meta["counted"] / result.meta["certified"]


def _count_lp(counts, name, args, result):
    system = args[0]  # every fvx call site passes the system positionally
    counts["exactlp.rows"] += len(system.rows)
    counts["exactlp.vars"] += len(system.variables)
    if name == "exactlp.solve_lp":
        counts["exactlp.solve_lp.optimal"] += result.is_optimal
    else:
        counts["exactlp.feasible_with_fixings.feasible"] += bool(result)


def _count_bytes(counts, name, args, result):
    counts["lp_format.bytes"] += len(result.encode())


# (span name, module, attribute path, counter hook).  Functions called through
# a module attribute are wrapped wherever fvx binds them; methods on a class.
_TARGETS = (
    ("cli.main", "fvx.cli", "main", None),
    ("cli.load_problem", "fvx.cli", "load_problem", None),
    ("cli.enumerate_allowed", "fvx.cli", "Problem.enumerate_allowed", None),
    ("cli.compile_system", "fvx.cli", "compile_system", None),
    ("separation.separating_faces", "fvx.separation", "separating_faces", _count_faces),
    ("separation.solve_forbidden", "fvx.separation", "solve_forbidden", None),
    ("separation.kbest", "fvx.separation", "kbest", None),
    ("integral.box_decomposition", "fvx.integral", "box_decomposition", _count_boxes),
    ("integral.solve_forbidden_integral", "fvx.integral", "solve_forbidden_integral", None),
    ("integral.kbest_integral", "fvx.integral", "kbest_integral", None),
    ("integral.forbI_formulation", "fvx.integral", "forbI_formulation", _count_kept_blocks),
    ("oracles.minimize", "fvx.oracles", "CubeOracle.minimize", _count_feasible),
    ("oracles.minimize", "fvx.oracles", "CardinalityOracle.minimize", _count_feasible),
    ("oracles.minimize", "fvx.oracles", "SpanningTreeOracle.minimize", _count_feasible),
    ("oracles.minimize", "fvx.oracles", "HrepBinaryOracle.minimize", _count_feasible),
    ("oracles.minimize", "fvx.oracles", "LatticeBoxOracle.minimize", _count_feasible),
    ("oracles.minimize", "fvx.oracles", "BruteForceBinaryOracle.minimize", _count_feasible),
    ("oracles.minimize", "fvx.oracles", "BruteForceIntegralOracle.minimize", _count_feasible),
    ("extension.build", "fvx.extension", "interval_formulation", _count_formulation),
    ("extension.build", "fvx.extension", "recursive_formulation", _count_formulation),
    ("extension.build", "fvx.extension", "face_formulation", _count_formulation),
    ("extension.build", "fvx.extension", "facet_intersection_formulation", _count_formulation),
    ("extension.disjunctive_hull", "fvx.extension", "disjunctive_hull", None),
    ("linsys.with_bounds", "fvx.linsys", "LinearSystem.with_bounds", None),
    ("exactlp.solve_lp", "fvx.exactlp", "solve_lp", _count_lp),
    ("exactlp.feasible_with_fixings", "fvx.exactlp", "feasible_with_fixings", _count_lp),
    ("lp_format.write_lp", "fvx.lp_format", "write_lp", _count_bytes),
    ("lp_format.parse_lp", "fvx.lp_format", "parse_lp", None),
    ("verify.verify_formulation", "fvx.verify", "verify_formulation", None),
    ("verify.in_convex_hull", "fvx.verify", "in_convex_hull", None),
    ("alldiff.solve_alldiff", "fvx.alldiff", "solve_alldiff", None),
    ("alldiff.build_candidates", "fvx.alldiff", "build_candidates", None),
    ("alldiff.min_weight_R_matching", "fvx.alldiff", "min_weight_R_matching", None),
)

LAYERS = ("cli", "separation", "integral", "oracles", "extension", "linsys",
          "lp_format", "exactlp", "verify", "alldiff")

# The per-layer metrics of a traced run: (name, unit, better).
METRICS = (
    ("oracles.minimize.calls", "count", "lower"),
    ("oracles.minimize.self_s", "s", "lower"),
    ("oracles.feasible_ratio", "ratio", "higher"),
    ("separation.separating_faces.calls", "count", "lower"),
    ("separation.separating_faces.busy_s", "s", "lower"),
    ("separation.faces", "count", "lower"),
    ("separation.solve_forbidden.self_s", "s", "lower"),
    ("integral.box_decomposition.calls", "count", "lower"),
    ("integral.box_decomposition.busy_s", "s", "lower"),
    ("integral.boxes", "count", "lower"),
    ("integral.solve_forbidden_integral.self_s", "s", "lower"),
    ("integral.forbI_formulation.busy_s", "s", "lower"),
    ("integral.kept_block_ratio", "ratio", "higher"),
    ("exactlp.solve_lp.calls", "count", "lower"),
    ("exactlp.solve_lp.busy_s", "s", "lower"),
    ("exactlp.solve_lp.optimal_ratio", "ratio", "higher"),
    ("exactlp.feasible_with_fixings.calls", "count", "lower"),
    ("exactlp.feasible_with_fixings.busy_s", "s", "lower"),
    ("exactlp.feasible_with_fixings.feasible_ratio", "ratio", "higher"),
    ("exactlp.rows_per_call", "rows", "lower"),
    ("exactlp.vars_per_call", "vars", "lower"),
    ("extension.build.calls", "count", "lower"),
    ("extension.build.busy_s", "s", "lower"),
    ("extension.vars", "vars", "lower"),
    ("extension.rows", "rows", "lower"),
    ("extension.counted_over_certified", "ratio", "lower"),
    ("linsys.with_bounds.calls", "count", "lower"),
    ("linsys.with_bounds.busy_s", "s", "lower"),
    ("lp_format.write_lp.busy_s", "s", "lower"),
    ("lp_format.parse_lp.busy_s", "s", "lower"),
    ("lp_format.bytes", "bytes", "lower"),
    ("verify.verify_formulation.self_s", "s", "lower"),
    ("verify.in_convex_hull.calls", "count", "lower"),
    ("verify.in_convex_hull.busy_s", "s", "lower"),
    ("alldiff.build_candidates.busy_s", "s", "lower"),
    ("alldiff.min_weight_R_matching.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.load_problem.busy_s", "s", "lower"),
    ("cli.enumerate_allowed.busy_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "cli") + (
    ("trace.overhead_ratio", "ratio", "higher"),
)


class Tracer:
    """In-memory spans and counters; install with `installed()`."""

    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        undo = []
        try:
            for name, module_name, path, hook in _TARGETS:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    original = owner.__dict__.get(attr) if owner is not None else None
                    if original is None:
                        continue  # the program no longer has this entry point
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, hook))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "fvx" and not mod_name.startswith("fvx."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Calls, busy time, self time and derived ratios from the spans.

    Busy time of a name sums only its outermost spans, so recursion through
    the same entry point is not counted twice.  Self time is a span's
    duration minus the time its direct child spans cover.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    for i, (name, parent, start, end) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - covered[i]
        outer = True
        while parent >= 0:
            if spans[parent][0] == name:
                outer = False
                break
            parent = spans[parent][1]
        if outer:
            busy[name] += end - start
    counts = tracer.counts
    lp_calls = calls["exactlp.solve_lp"] + calls["exactlp.feasible_with_fixings"]
    builds = calls["extension.build"]
    derived = {
        "oracles.feasible_ratio": _ratio(counts["oracles.feasible"], calls["oracles.minimize"]),
        "separation.faces": counts["separation.faces"],
        "integral.boxes": counts["integral.boxes"],
        "integral.kept_block_ratio": _ratio(counts["integral.kept_blocks"],
                                            counts["integral.candidate_blocks"]),
        "exactlp.solve_lp.optimal_ratio": _ratio(counts["exactlp.solve_lp.optimal"],
                                                 calls["exactlp.solve_lp"]),
        "exactlp.feasible_with_fixings.feasible_ratio": _ratio(
            counts["exactlp.feasible_with_fixings.feasible"],
            calls["exactlp.feasible_with_fixings"]),
        "exactlp.rows_per_call": _ratio(counts["exactlp.rows"], lp_calls),
        "exactlp.vars_per_call": _ratio(counts["exactlp.vars"], lp_calls),
        "extension.vars": _ratio(counts["extension.vars"], builds),
        "extension.rows": _ratio(counts["extension.rows"], builds),
        "extension.counted_over_certified": _ratio(counts["extension.counted_over_certified"],
                                                   builds),
        "lp_format.bytes": counts["lp_format.bytes"],
    }
    out = {}
    for metric, _, _ in METRICS:
        prefix, _, kind = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif kind == "calls":
            out[metric] = calls[prefix]
        elif kind == "busy_s":
            out[metric] = busy[prefix]
        elif kind == "self_s" and prefix in LAYERS:
            out[metric] = sum((v for k, v in own.items() if k.split(".")[0] == prefix), 0.0)
        elif kind == "self_s":
            out[metric] = own[prefix]
    return out  # trace.overhead_ratio needs an untraced pass; the runner adds it

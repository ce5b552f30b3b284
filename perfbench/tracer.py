"""In-memory span tracer that wraps duffinglab from outside.

Modules bind names they import with ``from .x import y``, so a function
is wrapped in every module namespace that holds it: the caller finds the
wrapper where it looks the name up (``actionangle.even_circle_mean``,
``harness.averaged_potential``, ``dynamics.orbit``, ...).  A span records
its name, start, end, the span that caused it and the experiment it
belongs to; a layer is the module that defines the function.  Self time
is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import statistics
import time
import types

LAYERS = ("cli", "harness", "dynamics", "functions", "quadrature",
          "actionangle", "oscillatory", "conditions", "fitting")

# private functions that mark a layer boundary worth a span
PRIVATE = {"dynamics": ("_lift_advance",)}

# Gauss-Legendre nodes per panel in quadrature.gl_panel
_GL_NODES = 16


def _payload_for(name):
    """Work count of one span, read from its arguments and result."""
    if name == "dynamics.integrate_with_stats":
        return lambda args, result: (result[1].steps, result[1].rejected)
    if name == "dynamics.orbit":
        return lambda args, result: len(result.iterates) - 1
    if name in ("quadrature.periodic_mean", "quadrature.even_circle_mean"):
        return lambda args, result: result[1]
    if name == "quadrature.gl_panel":
        return lambda args, result: _GL_NODES
    if name == "quadrature.CumulativeIntegral":
        return lambda args, result: _GL_NODES * args[0].n_panels
    if name == "functions.evaluate":
        return lambda args, result: int(getattr(args[1], "size", 1))
    if name in ("harness.write_csv", "harness.write_json"):
        return lambda args, result: os.path.getsize(args[0])
    return None


class Tracer:
    """Installs wrappers, collects spans, restores the originals."""

    def __init__(self):
        self.spans = []      # (id, parent, name, start, end, experiment, payload)
        self.experiment = -1
        self._stack = [-1]
        self._ids = itertools.count()
        self._patches = []   # (owner, attribute, original)

    def reset(self):
        self.spans = []
        self._stack = [-1]

    def _wrap(self, fn, name):
        payload = _payload_for(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack
            parent = stack[-1]
            stack.append(sid)
            result = done = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                work = payload(args, result) if (done and payload) else None
                tracer.spans.append(
                    (sid, parent, name, start, end, tracer.experiment, work))
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        modules = {layer: importlib.import_module(f"duffinglab.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("duffinglab.") or home not in LAYERS:
                    continue
                if obj.__name__.startswith("_") and \
                        obj.__name__ not in PRIVATE.get(home, ()):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{home}.{obj.__name__}")
                self._patch(module, attr, wrappers[id(obj)])
        # the generator panels of the normal form are quadrature work
        cumulative = modules["quadrature"].CumulativeIntegral
        self._patch(cumulative, "__init__",
                    self._wrap(cumulative.__init__, "quadrature.CumulativeIntegral"))
        self._patch(cumulative, "__call__",
                    self._wrap(cumulative.__call__,
                               "quadrature.CumulativeIntegral.__call__"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def write_spans(path, spans):
    """One JSON list per span: id, parent, name, start, end, experiment, work."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_of(name):
    return name.partition(".")[0]


def tail_percentile(n):
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100.0) >= 10:
            return p
    return 50


def percentile(values, p):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p * len(ordered) / 100.0) - 1)]


def analyse(spans, wall_s):
    """Counts, layer self times and span totals of one traced repeat."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    integrate_children = {}
    for sid, parent, name, start, end, _, _ in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        if name == "dynamics.integrate_with_stats":
            integrate_children[parent] = integrate_children.get(parent, 0) + 1

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    self_by_name = {}
    total_by_name = {}
    calls_by_name = {}
    work_by_name = {}
    outer_quadrature_s = 0.0
    orbit_s = []
    fallbacks = 0
    for sid, parent, name, start, end, _, work in spans:
        duration = end - start
        own = duration - child_time.get(sid, 0.0)
        self_by_layer[layer_of(name)] += own
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        total_by_name[name] = total_by_name.get(name, 0.0) + duration
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
        if work is not None:
            if isinstance(work, tuple):
                old = work_by_name.get(name, (0,) * len(work))
                work_by_name[name] = tuple(a + b for a, b in zip(old, work))
            else:
                work_by_name[name] = work_by_name.get(name, 0) + work
        if layer_of(name) == "quadrature" and (
                parent not in by_id or layer_of(by_id[parent][2]) != "quadrature"):
            outer_quadrature_s += duration
        if name == "dynamics.orbit":
            orbit_s.append(duration)
        if name == "dynamics._lift_advance" and integrate_children.get(sid, 0) > 1:
            fallbacks += 1

    def total(*names):
        return sum(total_by_name.get(n, 0.0) for n in names)

    def calls(*names):
        return sum(calls_by_name.get(n, 0) for n in names)

    def work(*names):
        return sum(work_by_name.get(n, 0) for n in names)

    steps, rejected = work_by_name.get("dynamics.integrate_with_stats", (0, 0))
    attempted = steps + rejected
    integrate_calls = calls("dynamics.integrate_with_stats")
    strobes = work("dynamics.orbit")
    nodes = work("quadrature.periodic_mean", "quadrature.even_circle_mean",
                 "quadrature.gl_panel", "quadrature.CumulativeIntegral")
    step_self = self_by_name.get("dynamics.integrate_with_stats", 0.0)
    self_sum = sum(self_by_layer.values())
    counts = {
        "dynamics.orbits": len(orbit_s),
        "dynamics.strobes": strobes,
        "dynamics.integrate_calls": integrate_calls,
        "dynamics.steps": steps,
        "dynamics.rejected": rejected,
        "dynamics.lift_fallbacks": fallbacks,
        # each DOPRI call evaluates the RHS twice before its first step
        # (start point and initial-step probe), then six times per attempt
        "functions.rhs_evals": 2 * integrate_calls + 6 * attempted,
        "functions.evaluate_calls": calls("functions.evaluate"),
        "functions.evaluate_elems": work("functions.evaluate"),
        "quadrature.calls": calls(
            "quadrature.periodic_mean", "quadrature.even_circle_mean",
            "quadrature.gl_panel", "quadrature.CumulativeIntegral"),
        "quadrature.nodes": nodes,
        "oscillatory.circle_mean_calls": calls("oscillatory.circle_mean"),
        "actionangle.averaged_potential_calls": calls("actionangle.averaged_potential"),
        "fitting.fit_calls": calls("fitting.loglog_fit"),
        "harness.write_bytes": work("harness.write_csv", "harness.write_json"),
        "trace.spans": len(spans),
    }
    times = {
        "dynamics.reject_ratio": rejected / attempted if attempted else 0.0,
        "dynamics.steps_per_strobe": steps / strobes if strobes else 0.0,
        "dynamics.step_us": 1e6 * step_self / attempted if attempted else 0.0,
        "dynamics.classify_s": total("dynamics.classify_orbit"),
        "functions.evaluate_s": total("functions.evaluate"),
        "quadrature.s": outer_quadrature_s,
        "quadrature.ns_per_node": 1e9 * outer_quadrature_s / nodes if nodes else 0.0,
        "oscillatory.circle_mean_s": total("oscillatory.circle_mean"),
        "actionangle.averaged_potential_s": total("actionangle.averaged_potential"),
        "actionangle.normal_form_s": total("actionangle.normal_form_residuals"),
        "conditions.beta_profile_s": total("conditions.beta_profile"),
        "conditions.report_s": total("conditions.lazer_leach_report"),
        "fitting.fit_s": self_by_layer["fitting"],
        "harness.write_s": total("harness.write_csv", "harness.write_json"),
        "harness.run_self_s": self_by_name.get("harness.run", 0.0),
        "cli.main_self_s": self_by_name.get("cli.main", 0.0),
        "trace.wall_s": wall_s,
        "trace.self_sum_s": self_sum,
        "trace.unexplained_s": wall_s - self_sum,
    }
    times.update({f"self.{layer}_s": self_by_layer[layer] for layer in LAYERS})
    return {"counts": counts, "times": times, "orbit_s": orbit_s}


def combine(repeats):
    """Per-layer metrics over traced repeats: counts must repeat exactly,
    times come from the repeat with the median traced wall."""
    problems = []
    first = repeats[0]["counts"]
    for rep in repeats[1:]:
        for key, value in first.items():
            if rep["counts"][key] != value:
                problems.append(f"count {key} differs between traced repeats: "
                                f"{value} vs {rep['counts'][key]}")
    walls = [rep["times"]["trace.wall_s"] for rep in repeats]
    median_rep = repeats[walls.index(statistics.median_low(walls))]
    metrics = dict(median_rep["counts"])
    metrics.update(median_rep["times"])
    orbit_s = [d for rep in repeats for d in rep["orbit_s"]]
    pct = tail_percentile(len(orbit_s))
    metrics["dynamics.orbit_samples"] = len(orbit_s)
    metrics["dynamics.orbit_p50_s"] = percentile(orbit_s, 50)
    metrics["dynamics.orbit_tail_pct"] = pct
    metrics["dynamics.orbit_tail_s"] = percentile(orbit_s, pct)
    return metrics, repeats.index(median_rep), problems

"""Layer probes: single layers measured from outside on fixed inputs.

They run untraced after the traced repeats and do not depend on the
seed, so a change to one layer shows here even when a workload dilutes it.
"""
import math
import os
import statistics
import time

from duffinglab import actionangle, dynamics, functions, harness, oscillatory

TWO_PI = 2.0 * math.pi

# ROADMAP item 1's strobe grid
PROBE_SYSTEMS = ("ding", "ll-bounded", "critical-pair-above")
PROBE_ACTIONS = (("1e2", 1.0e2), ("1e4", 1.0e4), ("1e6", 1.0e6))
PROBE_TOLS = (("1e-9", 1.0e-9), ("1e-12", 1.0e-12))
PROBE_STROBES = 8
CSV_ROWS = 100_000
RHS_POINTS = 2_000
RHS_BATCHES = 7


def _median_time(fn, times):
    samples = []
    for _ in range(times):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def strobe_probes():
    """µs and accepted steps per strobe via dynamics.integrate_with_stats."""
    out = {}
    for name in PROBE_SYSTEMS:
        system = harness.scenario_system(name)
        for I_label, I0 in PROBE_ACTIONS:
            for tol_label, tol in PROBE_TOLS:
                state = actionangle.PhaseState(
                    x=math.sqrt(2.0 * I0 / system.n), y=0.0, t=0.0)
                samples = []
                steps = 0
                for _ in range(PROBE_STROBES):
                    start = time.perf_counter()
                    state, stats = dynamics.integrate_with_stats(
                        system, state, state.t + TWO_PI, tol)
                    samples.append(time.perf_counter() - start)
                    steps += stats.steps
                key = f"probe.{name}.I{I_label}.tol{tol_label}"
                out[f"{key}.us_per_strobe"] = 1e6 * statistics.median(samples)
                out[f"{key}.steps_per_strobe"] = steps / PROBE_STROBES
    return out


def rhs_ns(systems):
    """ns for one call each of the compiled g, psi' and p closures, averaged
    over the workload's distinct systems."""
    per_system = []
    seen = set()
    for system in systems:
        if system.system_id() in seen:
            continue
        seen.add(system.system_id())
        g = functions.compile_scalar(system.g)
        sp = functions.compile_scalar(system.psi_prime)
        p = functions.compile_scalar(system.p)
        xs = [150.0 * math.cos(0.37 * k) for k in range(RHS_POINTS)]

        def batch():
            for x in xs:
                g(x)
                sp(x)
                p(x)

        per_system.append(1e9 * _median_time(batch, RHS_BATCHES) / RHS_POINTS)
    return statistics.fmean(per_system)


def run_all(systems, work_dir):
    out = strobe_probes()
    out["functions.rhs_ns"] = rhs_ns(systems)
    ding = harness.scenario_system("ding")
    out["probe.averaged_potential_us"] = 1e6 * _median_time(
        lambda: actionangle.averaged_potential(ding, 1.0e8), 5)
    out["probe.circle_mean_ms"] = 1e3 * _median_time(
        lambda: oscillatory.circle_mean(1.0e6, "cos"), 3)
    rows = [(k, TWO_PI * k / CSV_ROWS, "BoundedEvidence", 1.0e4 + k,
             1.0e4 - k / 7.0, None, "") for k in range(CSV_ROWS)]
    header = ("phase_index", "t0", "verdict", "max_I", "min_I",
              "growth_slope", "error")
    path = os.path.join(work_dir, "probe.csv")
    out["probe.write_csv_ms"] = 1e3 * _median_time(
        lambda: harness.write_csv(path, header, rows), 3)
    os.remove(path)
    return out

"""Workload definitions: seeded inputs and the correctness gate.

A workload turns a seed into a list of experiments, each a slug and the
argv that ``duffinglab.cli.main`` receives, plus the input files those
argv name.  The seed only jitters inputs inside the ranges stated here, so
every seed does about the same work.  ``check`` reads the artifacts one
repeat left behind and returns the ways they contradict the paper's
closed forms; an empty list means the outputs are correct.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random

TWO_PI = 2.0 * math.pi
STROBES = 200
TOL = "1e-9"
PHASES = 32
SWEEP_ACTIONS = 10
# closed-form level of the averaged-potential derivative for ding:
# (1/2) (sqrt2/pi) n^(-3/2) (g(+inf) - g(-inf)) with n = 1, gap = pi
DING_LEVEL = math.sqrt(2.0) / 2.0


def _jitter(rng, value, decades):
    return value * 10.0 ** rng.uniform(-decades, decades)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# escape-scan: uniform independent strobe orbits on the critical pair
# ---------------------------------------------------------------------------

def _escape_scan(rng, inputs_dir):
    I0 = repr(_jitter(rng, 1.0e4, 0.02))
    return [
        (member, ["escape-scan", "--scenario", f"critical-pair-{member}",
                  "--I0", I0, "--phases", str(PHASES),
                  "--strobes", str(STROBES), "--tol", TOL])
        for member in ("below", "above")
    ]


def _check_escape_scan(out):
    problems = []
    for member in ("below", "above"):
        scan = _json(os.path.join(out, member, "escape_scan.json"))
        rows = _csv_rows(os.path.join(out, member, "escape_scan.csv"))
        if scan["phases"] != PHASES or len(rows) != PHASES:
            problems.append(f"{member}: expected {PHASES} phase rows")
        escaping = scan["n_escaping"]
        # the confining member (d < 1) never escapes; the open one (d > 1) does
        if member == "below" and escaping != 0:
            problems.append(f"below: n_escaping = {escaping}, expected 0")
        if member == "above" and escaping < 1:
            problems.append("above: no escaping phase, expected at least 1")
    return problems


# ---------------------------------------------------------------------------
# sweep-wide: one bounded system over three decades of action
# ---------------------------------------------------------------------------

def _sweep_wide(rng, inputs_dir):
    grid = [
        _jitter(rng, 50.0 * 1000.0 ** (k / (SWEEP_ACTIONS - 1)), 0.01)
        for k in range(SWEEP_ACTIONS)
    ]
    return [
        ("sweep", ["sweep", "--scenario", "ll-bounded",
                   "--I0", ",".join(repr(v) for v in grid),
                   "--strobes", str(STROBES), "--tol", TOL]),
    ]


def _check_sweep_wide(out):
    problems = []
    rows = _csv_rows(os.path.join(out, "sweep", "sweep.csv"))
    if len(rows) != SWEEP_ACTIONS:
        problems.append(f"sweep: expected {SWEEP_ACTIONS} rows, got {len(rows)}")
    # strictly below the Lazer-Leach equality every orbit stays bounded
    for row in rows:
        if row["verdict"] != "BoundedEvidence":
            problems.append(f"sweep: I0={row['I0']} verdict {row['verdict']}")
    return problems


# ---------------------------------------------------------------------------
# averaging: quadrature ladders only, no integrator
# ---------------------------------------------------------------------------

OSC_POINTS = 97


def _averaging(rng, inputs_dir):
    lo = _jitter(rng, 1.0e4, 0.05)
    hi = _jitter(rng, 1.0e9, 0.05)
    window = f"{lo!r},{hi!r},12"
    actions = ",".join(repr(_jitter(rng, 10.0 ** e, 0.05)) for e in range(4, 10))
    # psi with two cos harmonics of period 2*pi/10: circle-mean phase
    # amplitudes reach 2 * 10 * sqrt(2e8), about 2.8e5, at the top of the scan
    system = {
        "n": 1,
        "g": {"kind": "arctan", "scale": 1.0},
        "psi": {"kind": "trig_poly", "period": TWO_PI / 10.0,
                "cos": [rng.uniform(0.5, 1.0), rng.uniform(0.2, 0.5)],
                "sin": []},
        "p": {"kind": "trig_poly", "period": TWO_PI, "cos": [1.0], "sin": []},
    }
    system_path = os.path.join(inputs_dir, "oscillatory-system.json")
    with open(system_path, "w") as fh:
        json.dump(system, fh, indent=2, sort_keys=True)
    # h in [0.9e10, 1.1e10] keeps the generator panel count at 2^20
    h = repr(_jitter(rng, 1.0e10, 0.04))
    return [
        ("below-conditions", ["conditions", "--scenario", "critical-pair-below",
                              "--beta-window", window]),
        ("above-conditions", ["conditions", "--scenario", "critical-pair-above",
                              "--beta-window", window]),
        ("averages", ["averages", "--scenario", "ding", "--I", actions,
                      "--check-asymptotics"]),
        ("oscillatory", ["oscillatory", "--system", system_path,
                         "--h-window", f"1e4,1e8,{OSC_POINTS}"]),
        ("normalform", ["normalform-check", "--scenario", "ding", "--h", h]),
    ]


def _check_averaging(out):
    problems = []
    for member, bounded in (("below", True), ("above", False)):
        report = _json(os.path.join(out, f"{member}-conditions", "conditions.json"))
        # both members sit on the equality A = B = 2*pi
        if report["regime"] != "Critical":
            problems.append(f"{member}: regime {report['regime']}, expected Critical")
        for key in ("lhs_A", "rhs_B"):
            if abs(report[key] - TWO_PI) > 1e-9 * TWO_PI:
                problems.append(f"{member}: {key} = {report[key]!r}, expected 2*pi")
        dfit = _json(os.path.join(out, f"{member}-conditions", "dfit.json"))
        d = dfit["implied_d"]
        if bounded and not d < 1.0:
            problems.append(f"below: implied_d = {d!r}, expected < 1")
        if not bounded and not d > 1.0:
            problems.append(f"above: implied_d = {d!r}, expected > 1")
    asym = _json(os.path.join(out, "averages", "asymptotics.json"))
    if abs(asym["slope"] + 0.5) > 0.01:
        problems.append(f"averages: slope {asym['slope']!r}, expected -1/2 +- 0.01")
    if abs(asym["predicted_level"] / DING_LEVEL - 1.0) > 1e-12:
        problems.append(f"averages: predicted level {asym['predicted_level']!r}, "
                        f"expected sqrt2/2")
    if abs(asym["measured_level"] / DING_LEVEL - 1.0) > 1e-3:
        problems.append(f"averages: measured level {asym['measured_level']!r}, "
                        f"expected sqrt2/2 within 1e-3")
    osc = _json(os.path.join(out, "oscillatory", "oscillatory.json"))
    # stationary endpoints give the h^(-1/4) envelope
    if osc["n_points"] != OSC_POINTS or abs(osc["envelope_slope"] + 0.25) > 0.05:
        problems.append(f"oscillatory: envelope slope {osc['envelope_slope']!r}, "
                        f"expected -1/4 +- 0.05")
    nf = _json(os.path.join(out, "normalform", "normalform.json"))
    # integrand scale of the forcing generator: |x p| <= 4 sqrt(2h)
    scale = 4.0 * math.sqrt(2.0 * nf["h"])
    for key in ("closure_potential", "closure_forcing"):
        if not nf[key] <= 1e-9 * TWO_PI * scale:
            problems.append(f"normalform: {key} = {nf[key]!r} above 1e-9 of scale")
    for key in ("cancellation_potential", "cancellation_forcing"):
        if not nf[key] <= 1e-6 * scale:
            problems.append(f"normalform: {key} = {nf[key]!r} above 1e-6 of scale")
    return problems


class Workload:
    def __init__(self, name, make, check, orbit_artifacts):
        self.name = name
        self._make = make
        self.check = check
        # (slug, csv name) pairs whose rows are orbit slots with an error column
        self.orbit_artifacts = orbit_artifacts

    def experiments(self, seed, inputs_dir, out_root):
        """[(slug, argv)] for this seed; argv already carries --out."""
        rng = random.Random(f"{self.name}:{seed}")
        return [(slug, argv + ["--out", os.path.join(out_root, slug)])
                for slug, argv in self._make(rng, inputs_dir)]

    def orbit_slots(self, out_root):
        """(slots, slots with a non-empty error column) in one repeat."""
        slots = errors = 0
        for slug, name in self.orbit_artifacts:
            for row in _csv_rows(os.path.join(out_root, slug, name)):
                slots += 1
                errors += bool(row["error"])
        return slots, errors


WORKLOADS = {
    w.name: w for w in (
        Workload("escape-scan", _escape_scan, _check_escape_scan,
                 (("below", "escape_scan.csv"), ("above", "escape_scan.csv"))),
        Workload("sweep-wide", _sweep_wide, _check_sweep_wide,
                 (("sweep", "sweep.csv"),)),
        Workload("averaging", _averaging, _check_averaging, ()),
    )
}

"""End-to-end quantitative gate.

Each test pins one deliverable property of the laboratory with explicit
tolerances and a wall-clock budget.  Expected values come from closed
forms or the independent oracles in _oracles.py; nothing here was tuned
to the implementation.
"""
import csv
import json
import math
import os
import time
import warnings

import numpy as np
import pytest

import _oracles as oracle
from _selfchecks import calibration_system, endpoint_law, twist_fit
from duffinglab.actionangle import (
    PhaseState,
    averaged_forcing,
    averaged_potential,
    averaged_potential_slope_check,
)
from duffinglab.conditions import critical_d_estimate
from duffinglab.dynamics import integrate
from duffinglab.fitting import envelope_fit, geometric_grid
from duffinglab.functions import (
    Arctan,
    Constant,
    TrigPoly,
    compile_scalar,
    evaluate,
    make_system,
)
from duffinglab.oscillatory import circle_mean, psi_average

TWO_PI = 2.0 * math.pi


def _tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_averaged_forcing_closed_form_vs_quadrature():
    # 100 random (forcing, energy, time) draws, closed form against the
    # spectral-grid oracle, 1e-9 relative with a matching-scale floor
    rng = np.random.default_rng(20260822)
    t_start = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(1, 4))
        cos_c = tuple(rng.uniform(-2.0, 2.0, int(rng.integers(1, 5))))
        sin_c = tuple(rng.uniform(-2.0, 2.0, int(rng.integers(0, 5))))
        h = 10.0 ** rng.uniform(2.0, 8.0)
        t = float(rng.uniform(0.0, TWO_PI))
        p = TrigPoly(TWO_PI, cos_c, sin_c)
        system = make_system(n, Arctan(), p=p)
        want = oracle.forcing_circle_mean(
            lambda v: evaluate(p, v), h, t, n, max(len(cos_c), len(sin_c)))
        got = averaged_forcing(system, h, t)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * math.sqrt(h))
    assert time.monotonic() - t_start < 5.0


def test_scaled_potential_approaches_gap_level():
    t_start = time.monotonic()
    I = 1.0e8
    for n, limit in ((1, math.sqrt(2.0)), (2, 0.5)):
        system = make_system(n, Arctan())
        scaled = averaged_potential(system, I) / math.sqrt(I)
        assert scaled == pytest.approx(limit, rel=0.02), n
    assert time.monotonic() - t_start < 10.0


def test_potential_derivative_scaling_over_six_decades():
    t_start = time.monotonic()
    check = averaged_potential_slope_check(
        make_system(1, Arctan()), I_grid=geometric_grid(1.0e4, 1.0e10, 13))
    assert check.fit.slope == pytest.approx(-0.5, abs=0.05)
    assert time.monotonic() - t_start < 30.0


def test_tail_exponent_recovery():
    t_start = time.monotonic()
    for d in (0.25, 1.0 / 3.0, 0.5, 0.75, 1.5, 2.0):
        system = calibration_system(d)
        est = critical_d_estimate(system, h_min=1.0e4, h_max=1.0e9, points=12)
        assert est.fit.slope == pytest.approx((1.0 - d) / 2.0, abs=0.03), d
    assert time.monotonic() - t_start < 60.0


def test_oscillatory_decay_laws():
    t_start = time.monotonic()
    # single cos harmonic: the averaged periodic term inherits the
    # quarter-power envelope in energy
    system = make_system(1, Arctan(), psi=TrigPoly(TWO_PI, (1.0,), ()))
    grid = geometric_grid(1.0e4, 1.0e8, 65)
    fit = envelope_fit(grid, [psi_average(system, h) for h in grid], 4.0)
    assert fit.slope == pytest.approx(-0.25, abs=0.03)

    # the half-period model integral loses half a power per decade of
    # phase amplitude (both endpoints stationary)
    fit, _ = endpoint_law(geometric_grid(1.0e2, 1.0e6, 257))
    assert fit.slope == pytest.approx(-0.5, abs=0.05)

    # odd-parity means cancel to quadrature accuracy
    for a in (0.5, 3.0, 25.0, 400.0, 1.0e3):
        assert abs(circle_mean(a, "sin")) <= 1e-12
    assert time.monotonic() - t_start < 60.0


def test_integrator_energy_identity_and_resonance():
    t_start = time.monotonic()

    # autonomous energy conservation over 1e4 time units
    system = make_system(1, Arctan())
    G = compile_scalar(system.potential)
    def energy(s):
        return 0.5 * (s.x * s.x + s.y * s.y) + G(s.x)
    state = PhaseState(x=math.sqrt(50.0), y=0.0, t=0.0)
    e0 = energy(state)
    drift = 0.0
    for k in range(1, 21):
        state = integrate(system, state, k * 500.0, 1.0e-12)
        drift = max(drift, abs(energy(state) - e0) / abs(e0))
    assert drift < 1e-8

    # free oscillator strobe is the identity
    linear = make_system(1, Constant(0.0))
    s0 = PhaseState(x=math.sqrt(200.0), y=0.0, t=0.0)
    back = integrate(linear, s0, s0.t + TWO_PI, 1.0e-12)
    assert math.hypot(back.x - s0.x, back.y - s0.y) <= 1e-9

    # exact resonance: secular growth matches the closed form after 50
    # forcing periods, from rest
    t_end = 50.0 * TWO_PI
    for n in (1, 2):
        sin_c = tuple(0.0 for _ in range(n - 1)) + (1.0,)
        forced = make_system(n, Constant(0.0), p=TrigPoly(TWO_PI, (), sin_c))
        s = integrate(forced, PhaseState(x=0.0, y=0.0, t=0.0), t_end, 1.0e-12)
        want_x = oracle.linear_resonant_x(t_end, n)
        want_y = oracle.linear_resonant_xdot(t_end, n) / n
        err = math.hypot(s.x - want_x, s.y - want_y)
        assert err / math.hypot(want_x, want_y) <= 1e-6, n

    assert time.monotonic() - t_start < 60.0


def test_forced_regime_reproduction(scenario_results):
    ding = scenario_results["ding"]["out"]
    report = _load(ding / "conditions" / "conditions.json")
    assert report["regime"] == "StrictlyAbove"
    assert report["predicted"] == "Unbounded"
    verdict = _load(ding / "classify" / "classify.json")
    assert verdict["verdict"] == "Escaping"
    assert verdict["max_I"] >= 4.0 * 25.0
    assert verdict["horizon_strobes"] <= 500

    llb = scenario_results["ll-bounded"]["out"]
    report = _load(llb / "conditions" / "conditions.json")
    assert report["regime"] == "StrictlyBelow"
    assert report["predicted"] == "Bounded"
    stats = _load(llb / "sweep" / "sweep.json")
    assert stats["n_orbits"] == 20
    assert stats["counts"] == {"BoundedEvidence": 20}

    combined = (scenario_results["ding"]["elapsed"]
                + scenario_results["ll-bounded"]["elapsed"])
    assert combined < 600.0


def test_twist_deviation_scaling():
    t_start = time.monotonic()
    system = make_system(1, Arctan())
    fit, deviations = twist_fit(system, np.geomspace(1.0e4, 1.0e8, 9), 256)
    assert fit.slope == pytest.approx(-0.5, abs=0.1)
    expected_sign = math.copysign(1.0, system.gap)
    assert expected_sign == 1.0  # arctan gap is +pi
    assert all(d != 0.0 and math.copysign(1.0, d) == expected_sign
               for d in deviations)
    assert time.monotonic() - t_start < 300.0


def test_critical_pair_confinement_and_channel(scenario_results):
    root = scenario_results["critical-pair"]["out"]

    below_report = _load(root / "below-conditions" / "conditions.json")
    assert below_report["regime"] == "Critical"
    below_fit = _load(root / "below-conditions" / "dfit.json")
    assert 0.0 < below_fit["implied_d"] < 1.0
    assert below_fit["predicted_with_d"] == "Bounded"

    # hard branch: the confining member never earns an Escaping verdict
    with open(root / "below-escape" / "escape_scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64
    assert all(r["verdict"] in ("BoundedEvidence", "Undecided") for r in rows)
    scan = _load(root / "below-escape" / "escape_scan.json")
    assert scan["n_escaping"] == 0

    above_report = _load(root / "above-conditions" / "conditions.json")
    assert above_report["regime"] == "Critical"
    above_fit = _load(root / "above-conditions" / "dfit.json")
    assert above_fit["implied_d"] > 1.0
    assert above_fit["predicted_with_d"] == "Unbounded"

    # soft branch: the open member's best orbit is reported, and a
    # missing climbing channel is a warning, not a failure
    above_scan = _load(root / "above-escape" / "escape_scan.json")
    slope = above_scan["best_tail_slope"]
    assert isinstance(slope, float)
    if slope <= 0.0:
        warnings.warn(
            "open-member phase scan found no climbing channel "
            f"(best tail slope {slope:.3f}); soft expectation unmet")

    assert scenario_results["critical-pair"]["elapsed"] < 900.0


def test_scenario_artifacts_are_byte_identical(scenario_results):
    for name, info in scenario_results.items():
        first = _tree_bytes(info["first"])
        second = _tree_bytes(info["out"])
        assert sorted(first) == sorted(second), name
        for rel in first:
            assert first[rel] == second[rel], (name, rel)

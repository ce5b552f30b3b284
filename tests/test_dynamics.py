import math

import numpy as np
import pytest

from _selfchecks import rotation_number, twist_fit
from duffinglab import dynamics
from duffinglab.actionangle import PhaseState
from duffinglab.dynamics import (
    IntegratorStats,
    OrbitIterate,
    OrbitRecord,
    classify_orbit,
    critical_escape_scan,
    integrate,
    orbit,
    sweep,
)
from duffinglab.errors import DegenerateStateError, SpecValidationError
from duffinglab.functions import Arctan, Constant, TrigPoly, make_system
from duffinglab.harness import scenario_system

TWO_PI = 2.0 * math.pi

LINEAR = make_system(1, Constant(0.0))
AUTO_ARCTAN = make_system(1, Arctan())
DING = make_system(1, Arctan(), p=TrigPoly(TWO_PI, (4.0,), ()))


def _dist(a: PhaseState, b: PhaseState) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


# ---------------------------------------------------------------------------
# integrator basics
# ---------------------------------------------------------------------------

def test_tol_range_enforced():
    s0 = PhaseState(x=1.0, y=0.0, t=0.0)
    for bad in (1.0e-5, 1.0e-15, 0.0, -1.0e-9):
        with pytest.raises(SpecValidationError):
            integrate(LINEAR, s0, 1.0, bad)
    integrate(LINEAR, s0, 1.0, 1.0e-6)
    integrate(LINEAR, s0, 1.0, 1.0e-14)


def test_linear_strobe_is_identity():
    for x0, y0 in ((3.0, 4.0), (50.0, -20.0)):
        s0 = PhaseState(x=x0, y=y0, t=0.0)
        back = integrate(LINEAR, s0, s0.t + TWO_PI, 1.0e-12)
        assert _dist(back, s0) <= 1e-9
        assert back.t == pytest.approx(TWO_PI, rel=1e-15)


def test_flow_semigroup():
    s0 = PhaseState(x=7.0, y=0.0, t=0.0)
    tol = 1.0e-10
    direct = integrate(DING, s0, 4.0 * TWO_PI, tol)
    half = integrate(DING, s0, 2.0 * TWO_PI, tol)
    stitched = integrate(DING, half, 4.0 * TWO_PI, tol)
    assert _dist(direct, stitched) <= 10.0 * tol


def test_reversibility_round_trip():
    # forward one strobe, back to the start; error measured relative to
    # the state magnitude, the same scaling the step controller uses.
    # The stiff below-critical member at small action exceeds the bound
    # (its restoring slope at the origin is ~22), so the grid sticks to
    # action levels where the restoring term is a perturbation.
    tol = 1.0e-10
    cases = [
        ("ding", 25.0), ("ding", 1.0e3),
        ("ll-bounded", 25.0), ("ll-bounded", 1.0e3),
        ("critical-pair-below", 1.0e3),
        ("critical-pair-above", 25.0), ("critical-pair-above", 1.0e3),
    ]
    for name, I0 in cases:
        system = scenario_system(name)
        x0 = math.sqrt(2.0 * I0 / system.n)
        s0 = PhaseState(x=x0, y=0.0, t=0.0)
        forward = integrate(system, s0, s0.t + TWO_PI, tol)
        back = integrate(system, forward, 0.0, tol)
        scale = 1.0 + math.hypot(s0.x, s0.y)
        assert _dist(back, s0) / scale <= 10.0 * tol, (name, I0)


def test_time_translation_equivariance():
    tol = 1.0e-10
    tau = 1.3
    # DING's forcing 4 cos t, shifted by tau: 4 cos(t + tau)
    shifted = make_system(1, Arctan(), p=TrigPoly(
        TWO_PI, (4.0 * math.cos(tau),), (-4.0 * math.sin(tau),)))
    a = integrate(DING, PhaseState(x=5.0, y=2.0, t=tau), tau + 7.0, tol)
    b = integrate(shifted, PhaseState(x=5.0, y=2.0, t=0.0), 7.0, tol)
    assert _dist(a, b) <= 10.0 * tol


def test_error_scales_with_tol():
    # two decades of tol must buy at least the advertised 4x; measured
    # reduction is ~180x (autonomous) and ~350x (forced)
    for system in (AUTO_ARCTAN, DING):
        s0 = PhaseState(x=math.sqrt(50.0), y=0.0, t=0.0)
        ref = integrate(system, s0, s0.t + TWO_PI, 1.0e-13)
        coarse = _dist(integrate(system, s0, s0.t + TWO_PI, 1.0e-6), ref)
        fine = _dist(integrate(system, s0, s0.t + TWO_PI, 1.0e-8), ref)
        assert coarse >= 4.0 * fine


def _strobes(kernel, x, y, t, tol):
    out = []
    for _ in range(20):
        x, y = kernel(t, x, y, t + TWO_PI, tol)[:2]
        t += TWO_PI
        out.append((x, y))
    return out


def test_rotating_kernel_accuracy():
    # psi' = 0 systems run in the rotating frame at a scaled tol; at each
    # tol the worst relative strobe error over the grid must stay within
    # 3x that of the lab kernel.  The reference is the lab kernel at 1e-14,
    # which test_kernel.py holds bit for bit to the hand-written integrator.
    scale = dynamics._ROTATING_TOL_SCALE
    worst = {}  # (frame, tol) -> worst relative strobe error / tol
    for system in (scenario_system("ding"), scenario_system("critical-pair-below"),
                   scenario_system("critical-pair-above"), AUTO_ARCTAN):
        lab = dynamics._compile_kernel(dynamics._lab_frame(system))
        rotating = dynamics._compile_kernel(dynamics._rotating_frame(system))
        for I0 in (1.0e2, 1.0e4, 1.0e6):
            for t0 in (0.0, 0.7, 1.3, 2.2, 3.0, 4.5):
                x0 = math.sqrt(2.0 * I0)
                ref = _strobes(lab, x0, 0.0, t0, dynamics.TOL_MIN)
                for tol in (1.0e-9, 1.0e-12):
                    for frame, kernel, run_tol in (
                            ("lab", lab, tol),
                            ("rotating", rotating, max(tol * scale, dynamics.TOL_MIN))):
                        got = _strobes(kernel, x0, 0.0, t0, run_tol)
                        err = max(math.hypot(x - xr, y - yr) / math.hypot(xr, yr)
                                  for (x, y), (xr, yr) in zip(got, ref)) / tol
                        worst[frame, tol] = max(worst.get((frame, tol), 0.0), err)
    for tol in (1.0e-9, 1.0e-12):
        assert worst["rotating", tol] <= 3.0 * worst["lab", tol], worst


# ---------------------------------------------------------------------------
# orbits and rotation numbers
# ---------------------------------------------------------------------------

def test_orbit_validation():
    s0 = PhaseState(x=1.0, y=0.0, t=0.0)
    with pytest.raises(SpecValidationError):
        orbit(LINEAR, s0, 0, 1.0e-9)
    with pytest.raises(SpecValidationError):
        orbit(LINEAR, s0, True, 1.0e-9)
    with pytest.raises(DegenerateStateError):
        orbit(LINEAR, PhaseState(x=0.0, y=0.0, t=0.0), 10, 1.0e-9)


def test_orbit_record_shape():
    rec = orbit(DING, PhaseState(x=7.0, y=0.0, t=0.0), 5, 1.0e-9)
    assert [it.k for it in rec.iterates] == [0, 1, 2, 3, 4, 5]
    assert all(it.I > 0.0 for it in rec.iterates)
    assert rec.system_id == DING.system_id()
    assert not rec.escaped
    assert rec.integrator_stats.steps > 0


def test_rotation_number_linear_is_n():
    for n, x0 in ((1, 3.0), (1, 200.0), (2, 3.0)):
        system = make_system(n, Constant(0.0))
        rec = orbit(system, PhaseState(x=x0, y=0.0, t=0.0), 64, 1.0e-12)
        assert abs(rotation_number(rec) - n) <= 1e-9


def test_rotation_number_stable_in_horizon():
    s0 = PhaseState(x=math.sqrt(50.0), y=0.0, t=0.0)
    r64 = rotation_number(orbit(AUTO_ARCTAN, s0, 64, 1.0e-10))
    r128 = rotation_number(orbit(AUTO_ARCTAN, s0, 128, 1.0e-10))
    assert abs(r64 - r128) < 5e-4


def _synthetic_record(actions, escaped=False, t0=0.0):
    iterates = tuple(
        OrbitIterate(k, float(I), TWO_PI * k, math.sqrt(2.0 * I), 0.0)
        for k, I in enumerate(actions)
    )
    return OrbitRecord(
        system_id="synthetic",
        initial=PhaseState(x=iterates[0].x, y=0.0, t=t0),
        iterates=iterates,
        integrator_stats=IntegratorStats(0, 0, 0.0),
        escaped=escaped,
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_bounded_branch():
    actions = [25.0 * (1.0 + 0.1 * math.sin(k)) for k in range(101)]
    v = classify_orbit(_synthetic_record(actions))
    assert v.verdict == "BoundedEvidence"
    assert v.growth_fit is None


def test_classify_escaping_branch():
    actions = [25.0 * (1.0 + k) ** 2 for k in range(101)]
    v = classify_orbit(_synthetic_record(actions))
    assert v.verdict == "Escaping"
    assert v.growth_fit is not None and v.growth_fit.slope > 0.0


def test_classify_undecided_between_factors():
    actions = [25.0 + 65.0 * k / 100.0 for k in range(101)]  # tops out at 3.6x
    v = classify_orbit(_synthetic_record(actions))
    assert v.verdict == "Undecided"


def test_classify_undecided_when_high_but_falling():
    # spikes past the escape factor early, then decays: no growth trend
    actions = [25.0] + [25.0 + 125.0 / k for k in range(1, 101)]
    v = classify_orbit(_synthetic_record(actions))
    assert v.verdict == "Undecided"
    assert v.growth_fit is not None and v.growth_fit.slope < 0.0


def test_classify_escaped_flag_blocks_bounded():
    v = classify_orbit(_synthetic_record([25.0] * 101, escaped=True))
    assert v.verdict == "Undecided"


def test_every_verdict_carries_its_tail_fit_and_stats():
    branches = {
        "BoundedEvidence": [25.0 * (1.0 + 0.1 * math.sin(k)) for k in range(101)],
        "Escaping": [25.0 * (1.0 + k) ** 2 for k in range(101)],
        "Undecided": [25.0 + 65.0 * k / 100.0 for k in range(101)],
    }
    for name, actions in branches.items():
        rec = _synthetic_record(actions)
        v = classify_orbit(rec)
        assert v.verdict == name
        # the fit covers the final half of the record: strobes 50..100
        assert v.tail_fit.n_points == 51
        assert v.stats is rec.integrator_stats
    # (1 + k)^2 against t = 2 pi k over k in [50, 100]: slope near 2
    escaping = classify_orbit(_synthetic_record(branches["Escaping"]))
    assert escaping.growth_fit is escaping.tail_fit
    assert escaping.tail_fit.slope == pytest.approx(2.0, abs=0.05)
    rec = orbit(DING, PhaseState(x=math.sqrt(50.0), y=0.0, t=0.0), 8, 1.0e-9)
    v = classify_orbit(rec)
    assert v.stats == rec.integrator_stats and v.stats.steps > 0
    assert v.tail_fit.n_points == 5


def test_classify_ding_escapes_quickly():
    rec = orbit(DING, PhaseState(x=math.sqrt(50.0), y=0.0, t=0.0), 60, 1.0e-9)
    v = classify_orbit(rec)
    assert v.verdict == "Escaping"
    assert v.max_I >= 4.0 * 25.0
    # amplitude grows linearly in time, so the action trend is ~t^2
    assert v.growth_fit.slope == pytest.approx(2.0, abs=0.4)


def test_sweep_deterministic_and_error_isolating():
    system = scenario_system("ll-bounded")
    grid = [PhaseState(x=math.sqrt(2.0 * I), y=0.0, t=0.0)
            for I in (25.0, 50.0, 100.0)]
    first = sweep(system, grid, 64, 1.0e-9)
    second = sweep(system, grid, 64, 1.0e-9)
    assert first == second
    assert [v.verdict for v in first] == ["BoundedEvidence"] * 3

    with_bad = sweep(
        system, [PhaseState(x=0.0, y=0.0, t=0.0)] + grid, 64, 1.0e-9)
    assert with_bad[0].verdict == "Undecided"
    assert "DegenerateStateError" in with_bad[0].error
    assert [v.verdict for v in with_bad[1:]] == ["BoundedEvidence"] * 3

    with pytest.raises(SpecValidationError):
        sweep(system, [], 64, 1.0e-9)


# ---------------------------------------------------------------------------
# twist scaling
# ---------------------------------------------------------------------------

def test_twist_scaling_small_grid():
    fit, deviations = twist_fit(AUTO_ARCTAN, np.geomspace(1.0e4, 1.0e7, 4), 64)
    assert fit.slope == pytest.approx(-0.5, abs=0.1)
    # the arctan gap is +pi, so omega approaches n from above
    assert AUTO_ARCTAN.gap > 0.0
    assert len(deviations) == 4 and all(d > 0.0 for d in deviations)


# ---------------------------------------------------------------------------
# escape scan
# ---------------------------------------------------------------------------

def test_escape_scan_validation():
    with pytest.raises(SpecValidationError):
        critical_escape_scan(DING, 25.0, 16, 40, 1.0e-9)
    with pytest.raises(SpecValidationError):
        critical_escape_scan(DING, -5.0, 32, 40, 1.0e-9)


def test_escape_scan_finds_ding_channel():
    scan = critical_escape_scan(DING, 25.0, 32, 40, 1.0e-9)
    assert scan.n_escaping == 32
    assert scan.n_positive_tail == 32
    assert scan.best.verdict == "Escaping"
    assert scan.best_tail_slope > 0.0
    assert len(scan.verdicts) == 32
    assert scan.to_json_dict()["phases"] == 32

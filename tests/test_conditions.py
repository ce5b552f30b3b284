import json
import math

import pytest
from hypothesis import given, strategies as st

from _selfchecks import calibration_system
from duffinglab import conditions as cond
from duffinglab.conditions import Predicted, Regime
from duffinglab.errors import FitDegenerateError, UnsupportedExponentError
from duffinglab.functions import Arctan, Constant, TrigPoly, make_system
from duffinglab.harness import scenario_system

TWO_PI = 2.0 * math.pi

coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_forcing_strength_closed_form():
    s = make_system(1, Arctan(), p=TrigPoly(TWO_PI, (3.0,), (4.0,)))
    assert cond.forcing_strength(s) == pytest.approx(5.0 * math.pi, rel=1e-14)
    s2 = make_system(2, Arctan(), p=TrigPoly(TWO_PI, (1.0, 2.0), (0.0, 0.0)))
    assert cond.forcing_strength(s2) == pytest.approx(2.0 * math.pi, rel=1e-14)


@given(st.lists(coeff, min_size=1, max_size=4),
       st.lists(coeff, min_size=0, max_size=4),
       st.integers(min_value=1, max_value=3))
def test_report_cross_check_passes(cos_coeffs, sin_coeffs, n):
    # the closed-form A and its quadrature cross-check must agree for any
    # trig poly forcing; the report raises if they drift apart
    s = make_system(n, Arctan(),
                    p=TrigPoly(TWO_PI, tuple(cos_coeffs), tuple(sin_coeffs)))
    report = cond.lazer_leach_report(s)
    assert report.lhs_A >= 0.0
    assert report.rhs_B == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_regimes_of_builtin_systems():
    above = cond.lazer_leach_report(scenario_system("ding"))
    assert above.regime is Regime.STRICTLY_ABOVE
    assert above.predicted is Predicted.UNBOUNDED
    assert above.lhs_A == pytest.approx(4.0 * math.pi, rel=1e-14)

    below = cond.lazer_leach_report(scenario_system("ll-bounded"))
    assert below.regime is Regime.STRICTLY_BELOW
    assert below.predicted is Predicted.BOUNDED
    assert below.relative_gap < 0.0

    for name in ("critical-pair-below", "critical-pair-above"):
        report = cond.lazer_leach_report(scenario_system(name))
        assert report.regime is Regime.CRITICAL
        assert report.predicted is Predicted.CRITICAL_NEEDS_D
        assert report.relative_gap == pytest.approx(0.0, abs=1e-9)


def test_degenerate_zero_system_is_critical():
    # A = B = 0: the equality holds exactly, even if vacuously
    report = cond.lazer_leach_report(make_system(1, Constant(0.0)))
    assert report.lhs_A == 0.0
    assert report.rhs_B == 0.0
    assert report.regime is Regime.CRITICAL
    assert report.predicted is Predicted.CRITICAL_NEEDS_D


def test_report_serializes():
    report = cond.lazer_leach_report(scenario_system("ding"))
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["regime"] == "StrictlyAbove"
    assert back["predicted"] == "Unbounded"


def test_beta_profile_shape_and_guards():
    # the h^((1-d)/2) law grows for d < 1 and decays for d > 1
    s = calibration_system(0.5)
    profile = cond.beta_profile(s, [1.0e4, 1.0e5, 1.0e6])
    hs = [h for h, _ in profile]
    vs = [b for _, b in profile]
    assert hs == [1.0e4, 1.0e5, 1.0e6]
    assert all(v > 0.0 for v in vs)
    assert vs[2] / vs[0] == pytest.approx(100.0 ** 0.25, rel=0.2)

    s_dec = calibration_system(1.5)
    dec = [b for _, b in cond.beta_profile(s_dec, [1.0e4, 1.0e6])]
    assert abs(dec[1]) < abs(dec[0])

    with pytest.raises(ValueError):
        cond.beta_profile(s, [10.0, 1.0e4])
    with pytest.raises(ValueError):
        cond.beta_profile(s, [1.0e5, 1.0e4])


def test_d_estimate_recovers_known_exponent():
    s = calibration_system(0.5)
    est = cond.critical_d_estimate(s, h_min=1.0e4, h_max=1.0e8, points=9)
    assert est.fit.slope == pytest.approx(0.25, abs=0.03)
    assert est.implied_d == pytest.approx(0.5, abs=0.06)


def test_d_estimate_window_guards():
    s = calibration_system(0.5)
    with pytest.raises(ValueError):
        cond.critical_d_estimate(s, points=5)
    with pytest.raises(ValueError):
        cond.critical_d_estimate(s, h_min=1.0e4, h_max=1.0e6, points=9)


def test_classify_theorem_branches():
    below = scenario_system("critical-pair-below")
    assert cond.classify_theorem(below) is Predicted.CRITICAL_NEEDS_D
    assert cond.classify_theorem(below, 0.3) is Predicted.BOUNDED
    assert cond.classify_theorem(below, 1.5) is Predicted.UNBOUNDED
    assert cond.classify_theorem(below, 1.02) is Predicted.OUT_OF_THEORY
    # non-critical systems ignore the fitted d entirely
    assert cond.classify_theorem(scenario_system("ding"), 0.3) is Predicted.UNBOUNDED


def test_calibration_family_guards():
    # d = 1 would need the unit tail exponent, which has no closed potential
    with pytest.raises(UnsupportedExponentError):
        calibration_system(1.0)
    # every member has zero limit gap by construction
    for d in (0.25, 0.75, 1.5, 2.0):
        s = calibration_system(d)
        report = cond.lazer_leach_report(s)
        assert report.rhs_B == 0.0

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import _oracles as oracle
from duffinglab import actionangle, quadrature
from duffinglab.actionangle import (
    _forcing_shift_integral,
    _potential_shift_integral,
    averaged_forcing,
    averaged_potential,
    averaged_potential_asymptote,
    averaged_potential_slope_check,
    forcing_projections,
    normal_form_residuals,
)
from duffinglab.errors import AmplitudeTooLargeError, DegenerateStateError
from duffinglab.functions import (
    Arctan,
    TrigPoly,
    compile_scalar,
    evaluate,
    make_system,
)
from duffinglab.harness import scenario_system

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# averaged potential
# ---------------------------------------------------------------------------

def test_averaged_potential_against_mpmath():
    s = make_system(1, Arctan())
    G = compile_scalar(s.potential)
    for I in (10.0, 1.0e3):
        amp = math.sqrt(2.0 * I)
        want = oracle.potential_circle_mean(
            lambda v: float(G(float(v))), amp, 1)
        assert averaged_potential(s, I) == pytest.approx(want, rel=1e-9)


def test_averaged_potential_at_large_action():
    # the doubling ladder settles at 2^21 full-circle nodes here
    s = scenario_system("critical-pair-below")
    G = compile_scalar(s.potential)
    I = 1.4e10
    want = oracle.potential_circle_mean(
        lambda v: float(G(float(v))), math.sqrt(2.0 * I / s.n), s.n)
    assert averaged_potential(s, I) == pytest.approx(want, rel=1e-9)


def test_averaged_potential_degenerate_cases():
    s = make_system(1, Arctan())
    assert averaged_potential(s, 0.0) == 0.0
    with pytest.raises(DegenerateStateError):
        averaged_potential(s, -2.0)


def test_asymptote_and_slope_check():
    s = make_system(1, Arctan())
    assert averaged_potential_asymptote(s) == pytest.approx(
        math.sqrt(2.0), rel=1e-14)
    check = averaged_potential_slope_check(s)
    assert check.fit.slope == pytest.approx(-0.5, abs=0.05)
    assert check.measured_level == pytest.approx(check.predicted_level, rel=0.01)
    # (sqrt2/pi) * 2^(-3/2) * pi = 1/2 for the n=2 arctan system
    s2 = make_system(2, Arctan())
    assert averaged_potential_asymptote(s2) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# averaged forcing (closed form)
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1,
                max_size=4),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=0,
                max_size=4),
       st.floats(min_value=100.0, max_value=1.0e8),
       st.floats(min_value=-10.0, max_value=10.0),
       st.integers(min_value=1, max_value=3))
def test_averaged_forcing_matches_spectral_sum(cos_c, sin_c, h, t, n):
    p = TrigPoly(TWO_PI, tuple(cos_c), tuple(sin_c))
    s = make_system(n, Arctan(), p=p)
    want = oracle.forcing_circle_mean(
        lambda v: evaluate(p, v), h, t, n, max(len(cos_c), len(sin_c)))
    got = averaged_forcing(s, h, t)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * math.sqrt(h))


def test_forcing_peak_bounds_forcing():
    s = make_system(1, Arctan(), p=TrigPoly(TWO_PI, (1.0,), (2.0,)))
    h = 1.0e4
    # (sqrt2 / 2 pi) n^(-3/2) h^(1/2) A with A = |(C, S)|
    peak = ((math.sqrt(2.0) / TWO_PI) * s.n ** -1.5 * math.sqrt(h)
            * math.hypot(*forcing_projections(s)))
    ts = np.linspace(0.0, TWO_PI, 257)
    vals = [abs(averaged_forcing(s, h, float(t))) for t in ts]
    assert max(vals) <= peak * (1.0 + 1e-12)
    assert max(vals) == pytest.approx(peak, rel=1e-3)


def test_negative_action_rejected():
    with pytest.raises(DegenerateStateError):
        averaged_forcing(make_system(1, Arctan()), -1.0, 0.0)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def test_shift_generators_close_over_circle():
    s = make_system(1, Arctan(), p=TrigPoly(TWO_PI, (1.0,), (0.5,)))
    h = 1.0e4
    assert _potential_shift_integral(s, h)(0.0) == 0.0
    assert abs(_potential_shift_integral(s, h)(TWO_PI)) < 1e-10
    assert abs(_forcing_shift_integral(s, h, 0.3)(TWO_PI)) < 1e-10


def test_potential_generator_derivative_cancels_oscillation():
    # d/dtheta of the generator equals the potential term minus its mean
    s = make_system(1, Arctan())
    h = 1.0e4
    amp = math.sqrt(2.0 * h)
    mean = averaged_potential(s, h)
    S = _potential_shift_integral(s, h)
    for theta in (0.4, 2.0, 5.5):
        step = 1e-6
        dS = (S(theta + step) - S(theta - step)) / (2 * step)
        x = amp * math.cos(theta)
        want = evaluate(s.potential, x) - mean
        assert dS == pytest.approx(want, rel=1e-5, abs=1e-6 * amp)


@pytest.mark.parametrize("h", [1.0e5, 1.0e10])
@pytest.mark.parametrize("name", ["ding", "critical-pair-below"])
def test_potential_generator_against_mpmath(name, h):
    s = scenario_system(name)
    G = compile_scalar(s.potential)
    thetas = [TWO_PI * (k + 0.37) / 16 for k in range(16)] + [TWO_PI]
    want = oracle.potential_generator(
        lambda v: float(G(float(v))), math.sqrt(2.0 * h / s.n), s.n, thetas)
    S = _potential_shift_integral(s, h)
    got = [S(theta) for theta in thetas]
    top = max(abs(w) for w in want)
    # S carries theta times averaged_potential, which is good to its
    # ladder's 1e-11 relative gap; the line through S(2 pi) holds that
    # term, so both sides less their line measure the panels alone
    mean = abs(averaged_potential(s, h))
    for theta, g, w in zip(thetas, got, want):
        assert abs(g - w) <= 1e-12 * top + theta * actionangle.AVG_REL_TOL * mean
        line = theta / TWO_PI
        assert abs((g - line * got[-1]) - (w - line * want[-1])) <= 1e-12 * top
    # refined only near the two zeros of cos(theta), where 2^20 uniform
    # panels were once spent
    assert S.n_panels <= 128


def test_normal_form_residuals_small():
    s = make_system(1, Arctan(), p=TrigPoly(TWO_PI, (1.0,), ()))
    res = normal_form_residuals(s, 1.0e5)
    assert res["closure_potential"] < 1e-10
    assert res["closure_forcing"] < 1e-10
    assert res["cancellation_potential"] < 1e-5
    assert res["cancellation_forcing"] < 1e-5
    # the potential generator closes up to 2 pi times the error of the
    # averaged potential it subtracts, which its ladder holds to
    # AVG_REL_TOL relative; for linear both sides are 0
    for name in ("ding", "ll-bounded", "critical-pair-below",
                 "critical-pair-above", "linear"):
        system = scenario_system(name)
        for h in (1.0e3, 1.0e6, 1.0e10):
            closure = normal_form_residuals(system, h)["closure_potential"]
            bound = TWO_PI * actionangle.AVG_REL_TOL * abs(averaged_potential(system, h))
            assert closure <= bound, (name, h, closure, bound)


def test_generator_panel_cap_refuses_before_allocating(monkeypatch):
    real = actionangle.CumulativeIntegral

    def capped(f, n_panels):
        assert n_panels <= 2 ** 20, f"{n_panels} panels allocated"
        return real(f, n_panels)

    levels = []  # panels per refinement level
    real_level = quadrature._panel_level

    def level(f, lows, width):
        levels.append(lows.size)
        return real_level(f, lows, width)

    monkeypatch.setattr(actionangle, "CumulativeIntegral", capped)
    monkeypatch.setattr(quadrature, "_panel_level", level)
    # the potential generator refines only near the zeros of cos(n theta),
    # so h = 1e14, which once asked for 4 sqrt(2hn) > 2^20 panels, closes
    # within 1e-9 of 2 pi times the 4 sqrt(2h) scale of its integrand
    h = 1.0e14
    res = normal_form_residuals(make_system(1, Arctan()), h)
    assert res["closure_potential"] <= 1e-9 * TWO_PI * 4.0 * math.sqrt(2.0 * h)
    assert res["panels_potential"] <= 256
    # 8 (n + m) panels for the forcing, where m is the number of harmonics
    # of p: 8 (1 + 131073) > 2^20
    p = TrigPoly(TWO_PI, (1.0,) + (0.0,) * 131072)
    with pytest.raises(AmplitudeTooLargeError):
        normal_form_residuals(make_system(1, Arctan(), p=p), 1.0)
    # with the cap at 100 panels, ding at h = 1e10 (about 110) is refused
    # before a level that would hold more than the cap is evaluated
    monkeypatch.setattr(quadrature, "PANEL_CAP", 100)
    levels.clear()
    with pytest.raises(AmplitudeTooLargeError, match="not resolved") as info:
        normal_form_residuals(scenario_system("ding"), 1.0e10)
    assert info.value.details["panels"] > info.value.details["cap"] == 100
    assert 0 < max(levels) <= 100

import math

import pytest
from hypothesis import given, strategies as st

import _oracles as oracle
from duffinglab import oscillatory
from duffinglab.errors import (
    AmplitudeTooLargeError,
    HTooSmallError,
    InadmissibleFunctionError,
    SpecValidationError,
)
from duffinglab.fitting import geometric_grid
from duffinglab.functions import Arctan, TrigPoly, make_system
from duffinglab.oscillatory import (
    circle_mean,
    decay_fit_envelope,
    endpoint_expansion_check,
    psi_average,
)
from duffinglab.quadrature import _pow2_at_least, even_circle_mean

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# circle means
# ---------------------------------------------------------------------------

def test_circle_mean_cos_is_j0():
    # also the endpoint check's V(a) = pi * J0(a) at the amplitudes it scans;
    # at 31 and 63, 2(1+a) is a power of two, so the first level has the
    # fewest nodes per unit amplitude; 31.5 and 1023.5 sit just past such
    # an edge, and 1e6 is the top of the endpoint scan
    for a in (0.0, 1.0, 5.0, 10.0, 31.0, 31.5, 63.0, 137.5, 1.0e3, 1023.5,
              1.0e5, 2.8e5, 1.0e6):
        assert circle_mean(a, "cos", 1) == pytest.approx(
            oracle.j0(a), abs=1e-12)


def test_circle_mean_starts_at_two_nodes_per_amplitude(monkeypatch):
    # the first trapezoid level already meets the tolerance, so one
    # doubling confirms it and the ladder stops there
    seen = []

    def recording(f_even, **kwargs):
        value, nodes = even_circle_mean(f_even, **kwargs)
        seen.append((kwargs["n_start"], nodes))
        return value, nodes

    monkeypatch.setattr(oscillatory, "even_circle_mean", recording)
    for a in (0.0, 3.0, 31.0, 31.5, 100.0, 1023.5, 4.0e3, 6.5e4, 1.0e6):
        seen.clear()
        circle_mean(a, "cos", 1)
        n_start = _pow2_at_least(2.0 * (1.0 + a))
        assert seen == [(n_start, 2 * n_start)], a


def test_circle_mean_independent_of_n():
    assert circle_mean(7.3, "cos", 2) == pytest.approx(
        circle_mean(7.3, "cos", 1), abs=1e-15)


@given(st.floats(min_value=0.0, max_value=300.0))
def test_circle_mean_sin_parity_cancels(a):
    assert abs(circle_mean(a, "sin", 1)) <= 1e-12


def test_circle_mean_validation():
    with pytest.raises(SpecValidationError):
        circle_mean(-1.0, "cos", 1)
    with pytest.raises(SpecValidationError):
        circle_mean(1.0, "tan", 1)
    with pytest.raises(SpecValidationError):
        circle_mean(1.0, "cos", 0)
    with pytest.raises(SpecValidationError):
        circle_mean(1.0, "cos", True)
    with pytest.raises(AmplitudeTooLargeError):
        circle_mean(2.0e7, "cos", 1)


# ---------------------------------------------------------------------------
# averaged spatially-periodic term
# ---------------------------------------------------------------------------

def test_psi_average_single_harmonic():
    # psi = 0.7 cos x: the mean is 0.7 * J0(sqrt(2h/n)) / n
    h = 5.0e3
    for n in (1, 2):
        s = make_system(n, Arctan(), psi=TrigPoly(TWO_PI, (0.7,), ()))
        amp = math.sqrt(2.0 * h / n)
        assert psi_average(s, h) == pytest.approx(
            0.7 * oracle.j0(amp) / n, abs=1e-13)


def test_psi_average_respects_period():
    # period pi doubles the circular frequency, hence the phase amplitude
    s = make_system(1, Arctan(), psi=TrigPoly(math.pi, (0.4,), ()))
    h = 3.0e3
    amp = math.sqrt(2.0 * h)
    assert psi_average(s, h) == pytest.approx(
        0.4 * oracle.j0(2.0 * amp), abs=1e-13)


def test_psi_average_is_linear_over_harmonics():
    s = make_system(1, Arctan(), psi=TrigPoly(TWO_PI, (0.3, 0.2), ()))
    h = 2.0e3
    amp = math.sqrt(2.0 * h)
    want = 0.3 * oracle.j0(amp) + 0.2 * oracle.j0(2.0 * amp)
    assert psi_average(s, h) == pytest.approx(want, abs=1e-13)


def test_psi_average_sin_only_is_exactly_zero():
    s = make_system(1, Arctan(), psi=TrigPoly(TWO_PI, (), (0.9,)))
    assert psi_average(s, 1.0e4) == 0.0


def test_psi_average_h_floor():
    s = make_system(1, Arctan(), psi=TrigPoly(TWO_PI, (1.0,), ()))
    with pytest.raises(HTooSmallError):
        psi_average(s, 0.5)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_decay_fit_envelope_on_j0_profile():
    xs = geometric_grid(10.0, 1.0e4, 200)
    fit = decay_fit_envelope([(a, oracle.j0(a)) for a in xs], 4.0)
    assert fit.slope == pytest.approx(-0.5, abs=0.05)


def test_decay_fit_envelope_guards():
    good = [(10.0 ** (1 + 3 * k / 9), 1.0) for k in range(10)]
    with pytest.raises(SpecValidationError):
        decay_fit_envelope(good[:5], 4.0)
    with pytest.raises(SpecValidationError):
        decay_fit_envelope(good, 1.5)
    narrow = [(10.0 + k, 1.0) for k in range(10)]
    with pytest.raises(SpecValidationError):
        decay_fit_envelope(narrow, 4.0)
    with pytest.raises(SpecValidationError):
        decay_fit_envelope([(0.0, 1.0)] + good, 4.0)


# ---------------------------------------------------------------------------
# endpoint model integral
# ---------------------------------------------------------------------------

def test_endpoint_expansion_check_small_grid():
    rep = endpoint_expansion_check(geometric_grid(1.0e2, 1.0e5, 65))
    assert rep.fit.slope == pytest.approx(-0.5, abs=0.05)
    assert rep.prefactor_mean == pytest.approx(rep.predicted_prefactor, rel=0.05)
    assert rep.prefactor_cv < 0.05
    d = rep.to_json_dict()
    assert d["n_points"] == 65
    assert d["predicted_prefactor"] == pytest.approx(math.sqrt(TWO_PI), rel=1e-15)


def test_endpoint_expansion_check_grid_guards():
    with pytest.raises(SpecValidationError):
        endpoint_expansion_check([100.0, 200.0, 400.0])
    with pytest.raises(SpecValidationError):
        endpoint_expansion_check(geometric_grid(10.0, 1.0e5, 16))
    with pytest.raises(SpecValidationError):
        endpoint_expansion_check([100.0 + k for k in range(16)])
    decreasing = list(reversed(geometric_grid(1.0e2, 1.0e5, 16)))
    with pytest.raises(SpecValidationError):
        endpoint_expansion_check(decreasing)

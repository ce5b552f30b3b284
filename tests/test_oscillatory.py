import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import _oracles as oracle
from _selfchecks import endpoint_law
from duffinglab import oscillatory
from duffinglab.errors import (
    AmplitudeTooLargeError,
    HTooSmallError,
    InadmissibleFunctionError,
    SpecValidationError,
)
from duffinglab.fitting import envelope_fit, geometric_grid
from duffinglab.functions import Arctan, TrigPoly, make_system
from duffinglab.oscillatory import circle_mean, psi_average
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
        assert circle_mean(a, "cos") == pytest.approx(
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
        circle_mean(a, "cos")
        n_start = _pow2_at_least(2.0 * (1.0 + a))
        assert seen == [(n_start, 2 * n_start)], a


@given(st.floats(min_value=0.0, max_value=300.0))
def test_circle_mean_sin_parity_cancels(a):
    assert abs(circle_mean(a, "sin")) <= 1e-12


def test_circle_mean_validation():
    with pytest.raises(SpecValidationError):
        circle_mean(-1.0, "cos")
    with pytest.raises(SpecValidationError):
        circle_mean(1.0, "tan")
    with pytest.raises(AmplitudeTooLargeError):
        circle_mean(2.0e7, "cos")


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
    fit = envelope_fit(xs, [oracle.j0(a) for a in xs], 4.0)
    assert fit.slope == pytest.approx(-0.5, abs=0.05)


# ---------------------------------------------------------------------------
# endpoint model integral
# ---------------------------------------------------------------------------

def test_endpoint_expansion_check_small_grid():
    fit, prefactors = endpoint_law(geometric_grid(1.0e2, 1.0e5, 65))
    assert fit.slope == pytest.approx(-0.5, abs=0.05)
    # the two stationary endpoints predict max |V| sqrt(a) -> sqrt(2 pi)
    assert np.mean(prefactors) == pytest.approx(math.sqrt(TWO_PI), rel=0.05)
    assert np.std(prefactors) / np.mean(prefactors) < 0.05

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from duffinglab import quadrature
from duffinglab.errors import AmplitudeTooLargeError, PrecisionFailureError
from duffinglab.quadrature import (
    CumulativeIntegral,
    even_circle_mean,
    gl_panel,
    periodic_mean,
)

TWO_PI = 2.0 * math.pi


def test_periodic_mean_trig_identities():
    value, nodes = periodic_mean(lambda u: np.cos(u) ** 2, rel_tol=1e-12)
    assert value == pytest.approx(0.5, rel=1e-12)
    assert nodes >= 128
    value, _ = periodic_mean(lambda u: np.sin(3 * u) + 2.0, rel_tol=1e-12)
    assert value == pytest.approx(2.0, rel=1e-12)


def test_periodic_mean_smooth_nontrivial():
    # mean of exp(cos u) over the circle is I_0(1) (modified Bessel)
    import mpmath
    expected = float(mpmath.besseli(0, 1))
    value, _ = periodic_mean(lambda u: np.exp(np.cos(u)), rel_tol=1e-13)
    assert value == pytest.approx(expected, rel=1e-12)


def test_even_circle_mean_matches_full_circle():
    # F(cos u) with F(v) = exp(-v^2): compare the folded evaluation
    # against a brute-force full-circle mean
    folded, nodes = even_circle_mean(lambda c: np.exp(-c ** 2), rel_tol=1e-12)
    us = np.arange(1 << 16) * (TWO_PI / (1 << 16))
    brute = float(np.mean(np.exp(-np.cos(us) ** 2)))
    assert folded == pytest.approx(brute, rel=1e-11)
    assert nodes % 4 == 0


def test_tolerance_argument_required():
    with pytest.raises(ValueError):
        periodic_mean(lambda u: np.cos(u))
    with pytest.raises(ValueError):
        even_circle_mean(lambda c: c)


def test_node_cap_precision_failure():
    # a kink the trapezoid ladder cannot resolve to 1e-13 by 512 nodes
    f = lambda u: np.abs(np.cos(u))
    with pytest.raises(PrecisionFailureError):
        periodic_mean(f, rel_tol=1e-13, n_cap=512)


def test_abs_tol_accepts_when_rel_cannot():
    f = lambda u: np.abs(np.cos(u))
    value, _ = periodic_mean(f, rel_tol=1e-16, abs_tol=1e-6, n_cap=1 << 18)
    assert value == pytest.approx(2.0 / math.pi, abs=1e-5)


def test_gl_panel_polynomial_exactness():
    # 16-point Gauss-Legendre integrates degree-31 polynomials exactly
    f = lambda x: x ** 31 + 3.0 * x ** 10
    exact = (2.0 ** 32 - 1.0) / 32.0 + 3.0 * (2.0 ** 11 - 1.0) / 11.0
    assert gl_panel(f, 1.0, 2.0) == pytest.approx(exact, rel=1e-14)


@given(st.floats(min_value=0.0, max_value=TWO_PI))
def test_cumulative_integral_matches_closed_form(theta):
    F = CumulativeIntegral(np.sin, 64)
    assert F(theta) == pytest.approx(1.0 - math.cos(theta), abs=1e-13)


def test_cumulative_integral_full_turn_and_beyond():
    F = CumulativeIntegral(lambda u: np.cos(u) ** 2, 128)
    assert F(TWO_PI) == pytest.approx(math.pi, rel=1e-13)
    assert F(TWO_PI + 0.5) == pytest.approx(
        math.pi + 0.25 + 0.25 * math.sin(1.0), rel=1e-12)
    assert F(-0.3) == pytest.approx(-(0.15 - 0.25 * math.sin(-0.6)), rel=1e-10)
    assert F(0.0) == 0.0


def test_cumulative_integral_blocks_match_one_pass(monkeypatch):
    # 1000 panels in blocks of 64 end in a partial block of 40
    block = 64
    monkeypatch.setattr(quadrature, "_PANEL_BLOCK", block)
    sizes = []

    def f(u):
        sizes.append(u.size)
        return np.exp(np.cos(u)) * u

    n = 1000
    F = CumulativeIntegral(f, n)
    assert max(sizes) <= block * 16
    assert sum(sizes) == n * 16
    # the one-pass formula over every panel at once
    width = TWO_PI / n
    half = 0.5 * width
    centers = (np.arange(n + 1) * width)[:-1] + half
    x = centers[:, None] + half * quadrature._GL_NODES[None, :]
    vals = (np.exp(np.cos(x.ravel())) * x.ravel()).reshape(n, 16)
    prefix = np.concatenate(([0.0], np.cumsum(half * vals @ quadrature._GL_WEIGHTS)))
    assert np.array_equal(F.prefix, prefix)
    monkeypatch.undo()  # n is below the default block: one pass
    one_pass = CumulativeIntegral(lambda u: np.exp(np.cos(u)) * u, n)
    assert np.array_equal(one_pass.prefix, prefix)
    for theta in (0.37, 3.0 * width, 5.5, TWO_PI, TWO_PI + 0.25, -0.4):
        assert F(theta) == one_pass(theta)


def test_cumulative_integral_refines_only_at_a_kink():
    # |u - 1| turns at u = 1, inside a starting panel: only the panels
    # around the kink are bisected, and the integral is exact to rounding
    F = CumulativeIntegral(lambda u: np.abs(u - 1.0), 64)
    assert 64 < F.n_panels < 256
    assert np.all(np.diff(F.edges) > 0.0) and F.edges[-1] == TWO_PI
    for theta in (0.5, 1.0, 1.7, TWO_PI):
        want = 0.5 + 0.5 * math.copysign((theta - 1.0) ** 2, theta - 1.0)
        assert F(theta) == pytest.approx(want, rel=1e-13)


def test_cumulative_integral_refusals():
    # a jump never converges: bisection stops at the width floor, long
    # before the panel cap
    with pytest.raises(AmplitudeTooLargeError) as info:
        CumulativeIntegral(lambda u: np.where(u < 1.0, 0.0, 1.0), 64)
    assert info.value.details["width"] < quadrature.MIN_PANEL_WIDTH
    assert info.value.details["panels"] < 256
    # a nan integrand is never converged: every panel splits until the cap
    with pytest.raises(AmplitudeTooLargeError) as info:
        CumulativeIntegral(lambda u: np.full(u.shape, np.nan), 64)
    assert info.value.details["panels"] > quadrature.PANEL_CAP

"""Resonant averaging for the strobe-normalized system.

Conventions: y = x'/n, action I = n(x^2+y^2)/2, angle theta in [0, 2*pi/n).
On the circle of action I the position is x = sqrt(2I/n) cos(n theta).
The time-dependent Hamiltonian splits as H = I + (potential + forcing +
oscillating)/n pieces; the circle averages of the potential and forcing
pieces and their first-order generating functions are computed here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functions as fx
from .errors import AmplitudeTooLargeError, DegenerateStateError, FitDegenerateError
from .fitting import DecayFit, geometric_grid, loglog_fit
from .quadrature import CumulativeIntegral, _pow2_at_least, even_circle_mean

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhaseState:
    x: float
    y: float
    t: float


# ---------------------------------------------------------------------------
# circle average of the potential term
# ---------------------------------------------------------------------------

AVG_REL_TOL = 1e-11
AVG_NODE_CAP = 2 ** 22


def averaged_potential(system, I, abs_tol=None) -> float:
    """Circle average of G(x)/n at action I (trapezoid doubling ladder).

    cos(n theta) sweeps n full periods over the circle, so the average is
    n-independent and is computed on one period. Admissible restoring
    forces are odd apart from constants, so the potential is even plus an
    exact linear term; the linear term averages to zero exactly and the
    even part folds onto a quarter period.

    The ladder accepts when a doubling moves the estimate by less than
    1e-11 relative; ``abs_tol`` optionally adds an absolute acceptance gap
    for callers fitting decaying residuals, where the relative test is
    stricter than the node cap allows.
    """
    if I < 0.0:
        raise DegenerateStateError("action must be non-negative", I=I)
    value, _ = _averaged_potential_info(system, float(I), abs_tol)
    return value


def _averaged_potential_info(system, I, abs_tol=None):
    even_part = system.even_potential
    if even_part is None or I == 0.0:
        # potential is linear (mean zero) or the circle is a point at x=0
        return (0.0, 0)
    amplitude = math.sqrt(2.0 * I / system.n)
    inv_n = 1.0 / system.n

    def f_even(u):
        return fx.evaluate(even_part, amplitude * np.cos(u)) * inv_n

    return even_circle_mean(
        f_even, rel_tol=AVG_REL_TOL, abs_tol=abs_tol,
        n_start=64, n_cap=AVG_NODE_CAP,
    )


def averaged_potential_asymptote(system) -> float:
    """Limit of I^(-1/2) * averaged potential: (sqrt2/pi) n^(-3/2) (g(+inf)-g(-inf))."""
    return (math.sqrt(2.0) / math.pi) * system.n ** -1.5 * system.gap


@dataclass(frozen=True)
class SlopeCheck:
    """Decay fit of a derivative curve plus its asymptotic level."""

    fit: DecayFit
    measured_level: float
    predicted_level: float


def averaged_potential_slope_check(system, I_grid=None) -> SlopeCheck:
    """Central-difference derivative of the averaged potential vs. I.

    The derivative should decay like I^(-1/2) with prefactor half the
    averaged-potential asymptote. Systems with equal limits at infinity
    have no I^(1/2) growth to differentiate: degenerate.
    """
    if system.gap == 0.0:
        raise FitDegenerateError(
            "restoring force has equal limits; derivative scaling undefined"
        )
    if I_grid is None:
        I_grid = geometric_grid(1e4, 1e8, 9)
    I_grid = np.asarray(I_grid, dtype=float)
    rel_step = 1e-4
    derivs = np.empty(I_grid.size)
    for i, I in enumerate(I_grid):
        hi = averaged_potential(system, I * (1.0 + rel_step))
        lo = averaged_potential(system, I * (1.0 - rel_step))
        derivs[i] = (hi - lo) / (2.0 * rel_step * I)
    fit = loglog_fit(I_grid, derivs)
    I_last = float(I_grid[-1])
    measured = derivs[-1] * math.sqrt(I_last)
    predicted = 0.5 * averaged_potential_asymptote(system)
    return SlopeCheck(fit=fit, measured_level=float(measured),
                      predicted_level=predicted)


# ---------------------------------------------------------------------------
# circle average of the forcing term (closed form)
# ---------------------------------------------------------------------------

def forcing_projections(system) -> tuple:
    """(C, S) = pi * (cos, sin) coefficients of the resonant harmonic of p."""
    a_n, b_n = fx.harmonic(system.p, system.n)
    return (math.pi * a_n, math.pi * b_n)


def averaged_forcing(system, h, t) -> float:
    """Circle average of the forcing term at energy h, start time t.

    Only the resonant harmonic of p survives the average:
    -(sqrt2 / 2 pi) n^(-3/2) h^(1/2) [C cos(nt) + S sin(nt)].
    """
    if h < 0.0:
        raise DegenerateStateError("energy must be non-negative", h=h)
    c_proj, s_proj = forcing_projections(system)
    n = system.n
    return (-(math.sqrt(2.0) / (2.0 * math.pi)) * n ** -1.5 * math.sqrt(h)
            * (c_proj * math.cos(n * t) + s_proj * math.sin(n * t)))


# ---------------------------------------------------------------------------
# first-order generating functions
# ---------------------------------------------------------------------------

# most 16-node panels a generator may take
GENERATOR_PANEL_CAP = 2 ** 20


def _generator_panels(need: float, h: float) -> int:
    if not need <= GENERATOR_PANEL_CAP:
        raise AmplitudeTooLargeError(
            "generator panel count exceeds the node budget",
            h=h, panels=need, cap=GENERATOR_PANEL_CAP,
        )
    return _pow2_at_least(need)


def _potential_shift_integral(system, h):
    """Integral from 0 to theta of (potential term - its average) at action h.

    The generating function removing the angle dependence of the potential
    term at first order; closes to 0 over a full circle.
    """
    n = system.n
    amplitude = math.sqrt(2.0 * h / n)
    panels = _generator_panels(4.0 * n * amplitude, h)
    mean = averaged_potential(system, h)
    pot = system.potential
    inv_n = 1.0 / n

    def integrand(theta):
        x = amplitude * np.cos(n * theta)
        return fx.evaluate(pot, x) * inv_n - mean

    return CumulativeIntegral(integrand, panels)


def _forcing_shift_integral(system, h, t):
    """Integral from 0 to theta of the forcing term along the rotating angle,
    minus its average; closes to 0 over a full circle."""
    n = system.n
    amplitude = math.sqrt(2.0 * h / n)
    mean = averaged_forcing(system, h, t)
    p_spec = system.p
    inv_n = 1.0 / n

    def integrand(theta):
        x = amplitude * np.cos(n * theta)
        return -x * fx.evaluate(p_spec, t + theta) * inv_n - mean

    m_max = max(len(p_spec.cos_coeffs), len(p_spec.sin_coeffs), 1)
    panels = _generator_panels(8.0 * (n + m_max), h)
    return CumulativeIntegral(integrand, panels)


def normal_form_residuals(system, h, t=0.0, n_samples=16, step=1e-6) -> dict:
    """Closure and derivative-cancellation residuals of both generators.

    Central differences at interior angles, against each generator's own
    integrand; the fixed panel grid makes the shared panels cancel
    exactly, so the finite-difference noise floor is far below the
    reported residuals.
    """
    h, t = float(h), float(t)
    generators = (("potential", _potential_shift_integral(system, h)),
                  ("forcing", _forcing_shift_integral(system, h, t)))
    out = {"h": h, "t": t}
    for name, s in generators:
        worst = 0.0
        for k in range(n_samples):
            theta = TWO_PI * (k + 0.5) / n_samples
            fd = (s(theta + step) - s(theta - step)) / (2.0 * step)
            worst = max(worst, abs(fd - s.f(theta)))
        out["closure_" + name] = abs(s(TWO_PI))
        out["cancellation_" + name] = float(worst)
    return out

"""Oscillatory circle means and their stationary-endpoint decay laws.

The averaged spatially-periodic term turns into means of cos/sin of a large
phase ``a * cos(n theta)`` over the circle.  This module evaluates those
means by brute periodic quadrature and verifies the two decay laws that
make the term harmless at high energy: the h^(-1/4) envelope of the
averaged term and the a^(-1/2) endpoint law of the model half-period
integral.  That integral is pi times the cos circle mean (DLMF 10.9.1),
so the endpoint check measures the same circle means every run uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeTooLargeError, HTooSmallError, SpecValidationError
from .fitting import DecayFit, envelope_fit, envelope_points, geometric_grid
from .quadrature import _pow2_at_least, even_circle_mean

TWO_PI = 2.0 * math.pi

AMPLITUDE_CAP = 1.0e7
CIRCLE_ABS_TOL = 1.0e-12
# full-circle nodes per unit amplitude.  By Jacobi-Anger (DLMF 10.12.2
# with u shifted by pi/2), cos(a cos u) = J0(a) + 2 sum_k (-1)^k J_2k(a)
# cos(2k u), and the N-node trapezoid keeps exactly the harmonics that are
# multiples of N: it returns J0(a) plus aliased terms +-2 J_kN(a).  J_m(a)
# falls off exponentially once m passes a, so N = 2(1+a) already leaves
# them below 1e-12, and the first doubling confirms it (Trefethen &
# Weideman, SIAM Rev. 56, 2014)
NODES_PER_AMPLITUDE = 2.0


# ---------------------------------------------------------------------------
# circle means
# ---------------------------------------------------------------------------

def circle_mean(a: float, parity: str, n: int = 1) -> float:
    """Mean of cos/sin(a cos(n theta)) over theta in [0, 2*pi).

    For parity "cos" the exact value is J0(a), computed by periodic
    trapezoid with at least 2*(1+a) nodes, doubled until successive
    levels agree to 1e-12 absolute.  The substitution u = n*theta makes
    the mean independent of n, so the quadrature runs on the n = 1
    profile.  Work and memory grow linearly with a.  For "sin" the mean
    is exactly zero by odd symmetry over the period, and 0.0 is
    returned without quadrature.
    """
    a = float(a)
    if a < 0.0:
        raise SpecValidationError(f"amplitude must be nonnegative, got {a}")
    if parity not in ("cos", "sin"):
        raise SpecValidationError(f"parity must be 'cos' or 'sin', got {parity!r}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SpecValidationError(f"n must be a positive integer, got {n!r}")
    if a > AMPLITUDE_CAP:
        raise AmplitudeTooLargeError(
            "phase amplitude exceeds the node budget",
            amplitude=a, cap=AMPLITUDE_CAP,
        )
    if parity == "sin":
        return 0.0
    floor = _pow2_at_least(NODES_PER_AMPLITUDE * (1.0 + a))
    value, _ = even_circle_mean(
        lambda c: np.cos(a * c),
        abs_tol=CIRCLE_ABS_TOL, n_start=floor, n_cap=max(4 * floor, 2 ** 22),
    )
    return float(value)


# ---------------------------------------------------------------------------
# averaged spatially-periodic term
# ---------------------------------------------------------------------------

def psi_average(system, h: float) -> float:
    """Mean of psi(sqrt(2h/n) cos(n theta)) / n over the circle.

    Assembled harmonic by harmonic: the cos harmonic of circular
    frequency m*w contributes its coefficient times the quadrature
    circle mean at amplitude a_m = m*w*sqrt(2h/n); sin harmonics
    contribute exactly zero and are skipped.
    """
    h = float(h)
    if h < 1.0:
        raise HTooSmallError("averaged periodic term needs h >= 1", h=h)
    n = system.n
    amp = math.sqrt(2.0 * h / n)
    w = TWO_PI / system.psi.period
    value = 0.0
    for m, c in enumerate(system.psi.cos_coeffs, start=1):
        if c != 0.0:
            value += c * circle_mean(m * w * amp, "cos", n)
    return value / n


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def decay_fit_envelope(samples, window_factor: float) -> DecayFit:
    """Envelope decay fit of (x, v) samples, sidestepping sign changes.

    Needs at least 8 samples spanning at least three decades and a
    window factor of at least 2; windows take max|v| so the zeros of an
    oscillating profile do not drag the fit down.
    """
    pairs = [(float(x), float(v)) for x, v in samples]
    if len(pairs) < 8:
        raise SpecValidationError(
            f"need at least 8 samples, got {len(pairs)}"
        )
    if window_factor < 2.0:
        raise SpecValidationError(
            f"window_factor must be >= 2, got {window_factor}"
        )
    pairs.sort()
    xs = np.array([p[0] for p in pairs])
    vs = np.array([p[1] for p in pairs])
    if xs[0] <= 0.0:
        raise SpecValidationError("sample abscissae must be positive")
    if xs[-1] < 1.0e3 * xs[0] * (1.0 - 1.0e-12):
        raise SpecValidationError(
            "samples must span at least three decades",
            span=float(xs[-1] / xs[0]),
        )
    return envelope_fit(xs, np.abs(vs), window_factor)


# ---------------------------------------------------------------------------
# endpoint model integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointReport:
    """Fitted endpoint decay of the model integral against a^(-1/2)."""

    fit: DecayFit
    prefactors: tuple
    prefactor_mean: float
    prefactor_cv: float
    predicted_prefactor: float
    n_points: int
    window_factor: float

    def to_json_dict(self) -> dict:
        return {
            "slope": self.fit.slope,
            "slope_rms_residual": self.fit.rms_residual,
            "prefactor_mean": self.prefactor_mean,
            "prefactor_cv": self.prefactor_cv,
            "predicted_prefactor": self.predicted_prefactor,
            "n_points": self.n_points,
            "window_factor": self.window_factor,
        }


def endpoint_expansion_check(a_grid=None, window_factor: float = 4.0) -> EndpointReport:
    """Scan |integral of exp(i a cos theta) over [0, pi]| on a geometric grid.

    The sin part cancels over the half period, so the integral is
    V(a) = pi * J0(a) = pi * circle_mean(a, "cos").  Both endpoints are
    stationary points of the phase, so the magnitude decays like
    a^(-1/2) with an oscillating Bessel-type profile.  Fits the windowed
    envelope (expected slope -1/2) and reports the stability of the
    scaled prefactor max |V| * sqrt(a) per window against the
    two-endpoint prediction sqrt(2*pi).
    """
    if a_grid is None:
        a_grid = geometric_grid(1.0e2, 1.0e6, 257)
    grid = np.asarray(a_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 8:
        raise SpecValidationError("a_grid needs at least 8 points")
    if np.any(np.diff(grid) <= 0.0):
        raise SpecValidationError("a_grid must be strictly increasing")
    if grid[0] < 1.0e2 * (1.0 - 1.0e-9) or grid[-1] > 1.0e6 * (1.0 + 1.0e-9):
        raise SpecValidationError(
            "a_grid must lie inside [1e2, 1e6]",
            lo=float(grid[0]), hi=float(grid[-1]),
        )
    ratios = grid[1:] / grid[:-1]
    if np.max(ratios) > np.min(ratios) * (1.0 + 1.0e-6):
        raise SpecValidationError("a_grid must be geometric (constant ratio)")

    magnitude = np.array([math.pi * abs(circle_mean(a, "cos")) for a in grid])
    fit = envelope_fit(grid, magnitude, window_factor)
    _, prefactors = envelope_points(grid, magnitude * np.sqrt(grid), window_factor)
    mean = float(np.mean(prefactors))
    cv = float(np.std(prefactors) / mean)
    return EndpointReport(
        fit=fit,
        prefactors=tuple(float(p) for p in prefactors),
        prefactor_mean=mean,
        prefactor_cv=cv,
        predicted_prefactor=math.sqrt(TWO_PI),
        n_points=int(grid.size),
        window_factor=float(window_factor),
    )

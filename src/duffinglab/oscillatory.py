"""Oscillatory circle means and their stationary-endpoint decay laws.

The averaged spatially-periodic term turns into means of cos/sin of a large
phase ``a * cos(n theta)`` over the circle.  This module evaluates those
means by brute periodic quadrature and verifies the two decay laws that
make the term harmless at high energy: the h^(-1/4) envelope of the
averaged term and the a^(-1/2) endpoint law of the model half-period
integral.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeTooLargeError, HTooSmallError, SpecValidationError
from .fitting import DecayFit, envelope_fit, envelope_points, geometric_grid
from .quadrature import _pow2_at_least, even_circle_mean, periodic_mean

TWO_PI = 2.0 * math.pi

AMPLITUDE_CAP = 1.0e7
CIRCLE_ABS_TOL = 1.0e-12
# full-circle nodes per unit amplitude; 16 samples per oscillation of
# cos(a cos u) keeps the trapezoid's aliasing error far below 1e-12
NODES_PER_AMPLITUDE = 16.0


# ---------------------------------------------------------------------------
# circle means
# ---------------------------------------------------------------------------

def circle_mean(a: float, parity: str, n: int = 1) -> float:
    """Mean of cos/sin(a cos(n theta)) over theta in [0, 2*pi).

    Computed by periodic trapezoid with at least 16*(1+a) nodes, doubled
    until successive levels agree to 1e-12 absolute.  The substitution
    u = n*theta makes the mean independent of n, so the quadrature runs
    on the n = 1 profile.  For parity "cos" the exact value is J0(a);
    for "sin" it is exactly zero by odd symmetry over the period.
    Work and memory grow linearly with a.
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
    floor = _pow2_at_least(NODES_PER_AMPLITUDE * (1.0 + a))
    cap = max(4 * floor, 2 ** 22)
    if parity == "cos":
        value, _ = even_circle_mean(
            lambda u: np.cos(a * np.cos(u)),
            abs_tol=CIRCLE_ABS_TOL, n_start=floor, n_cap=cap,
        )
    else:
        value, _ = periodic_mean(
            lambda u: np.sin(a * np.cos(u)),
            abs_tol=CIRCLE_ABS_TOL, n_start=floor, n_cap=cap,
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

_CHUNK = 1 << 20


def _half_integral_reflected(a: float) -> complex:
    """Half-period model integral via the full-period trapezoid.

    The phase cos(theta) is even about theta = 0 and pi, so the integral
    over [0, pi] is half the full-period one; the periodic trapezoid on
    the full circle converges spectrally (4 nodes per oscillation leave
    aliasing far below double precision).
    """
    n = _pow2_at_least(4.0 * (1.0 + a))
    step = TWO_PI / n
    sum_cos = 0.0
    sum_sin = 0.0
    for lo in range(0, n, _CHUNK):
        theta = np.arange(lo, min(lo + _CHUNK, n)) * step
        phase = a * np.cos(theta)
        sum_cos += float(np.sum(np.cos(phase)))
        sum_sin += float(np.sum(np.sin(phase)))
    return complex(math.pi * sum_cos / n, math.pi * sum_sin / n)


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

    Both endpoints are stationary points of the phase, so the magnitude
    decays like a^(-1/2) with an oscillating Bessel-type profile.  Fits
    the windowed envelope (expected slope -1/2) and reports the
    stability of the scaled prefactor max |V| * sqrt(a) per window
    against the two-endpoint prediction sqrt(2*pi).
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

    magnitude = np.array([abs(_half_integral_reflected(a)) for a in grid])
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

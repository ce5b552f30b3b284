"""Oscillatory circle means and the averaged spatially-periodic term.

The averaged spatially-periodic term turns into means of cos/sin of a large
phase ``a * cos(n theta)`` over the circle.  This module evaluates those
means by brute periodic quadrature and assembles the averaged term from
them, harmonic by harmonic; its h^(-1/4) envelope is what makes the term
harmless at high energy.
"""
from __future__ import annotations

import math
import numpy as np

from .errors import AmplitudeTooLargeError, HTooSmallError, SpecValidationError
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

def circle_mean(a: float, parity: str) -> float:
    """Mean of cos/sin(a cos(n theta)) over theta in [0, 2*pi), any n >= 1.

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
            value += c * circle_mean(m * w * amp, "cos")
    return value / n

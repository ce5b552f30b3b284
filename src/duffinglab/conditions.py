"""Resonance threshold evaluation and critical-exponent estimation.

The forcing strength A = |integral of p(t) e^{int} dt| is compared against
the restoring-force barrier B = 2|g(+inf) - g(-inf)|. Strictly below means
every solution stays bounded; strictly above means escape; equality is the
critical regime where the tail exponent d of the averaged-potential
residual beta(h) ~ h^((1-d)/2) decides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import functions as fx
from .actionangle import averaged_potential, averaged_potential_asymptote
from .errors import FitDegenerateError, PrecisionFailureError
from .fitting import DecayFit, geometric_grid, loglog_fit
from .quadrature import periodic_mean

TWO_PI = 2.0 * math.pi

CRITICAL_REL_TOL = 1e-9
CLASSIFY_MARGIN = 0.05
# absolute acceptance gap for the averaging ladder when computing beta:
# the relative contract is unattainable at the node cap once the mean decays
BETA_ABS_TOL = 1e-8


class Regime(str, Enum):
    STRICTLY_BELOW = "StrictlyBelow"
    STRICTLY_ABOVE = "StrictlyAbove"
    CRITICAL = "Critical"


class Predicted(str, Enum):
    BOUNDED = "Bounded"
    UNBOUNDED = "Unbounded"
    CRITICAL_NEEDS_D = "CriticalNeedsD"
    OUT_OF_THEORY = "OutOfTheory"


@dataclass(frozen=True)
class ConditionReport:
    lhs_A: float
    rhs_B: float
    regime: Regime
    relative_gap: float
    predicted: Predicted

    def to_json_dict(self) -> dict:
        return {
            "lhs_A": self.lhs_A,
            "rhs_B": self.rhs_B,
            "regime": self.regime.value,
            "relative_gap": self.relative_gap,
            "predicted": self.predicted.value,
        }


def forcing_strength(system) -> float:
    """A = |integral_0^{2pi} p(t) e^{int} dt| = pi * hypot(a_n, b_n)."""
    a_n, b_n = fx.harmonic(system.p, system.n)
    return math.pi * math.hypot(a_n, b_n)


def _forcing_strength_quadrature(system) -> float:
    n = system.n

    def re_part(t):
        return fx.evaluate(system.p, t) * np.cos(n * t)

    def im_part(t):
        return fx.evaluate(system.p, t) * np.sin(n * t)

    re_val, _ = periodic_mean(re_part, abs_tol=1e-13, n_start=256)
    im_val, _ = periodic_mean(im_part, abs_tol=1e-13, n_start=256)
    return TWO_PI * math.hypot(re_val, im_val)


def restoring_barrier(system) -> float:
    """B = 2 |g(+inf) - g(-inf)|."""
    return 2.0 * abs(system.gap)


def lazer_leach_report(system) -> ConditionReport:
    """Closed-form A vs B with an independent quadrature cross-check on A."""
    lhs = forcing_strength(system)
    check = _forcing_strength_quadrature(system)
    if abs(check - lhs) > 1e-10 * max(1.0, lhs):
        raise PrecisionFailureError(
            "closed-form forcing strength disagrees with quadrature",
            closed_form=lhs, quadrature=check,
        )
    rhs = restoring_barrier(system)
    gap = lhs - rhs
    scale = max(lhs, rhs, 1.0)
    if abs(gap) <= CRITICAL_REL_TOL * scale:
        regime, predicted = Regime.CRITICAL, Predicted.CRITICAL_NEEDS_D
    elif gap < 0.0:
        regime, predicted = Regime.STRICTLY_BELOW, Predicted.BOUNDED
    else:
        regime, predicted = Regime.STRICTLY_ABOVE, Predicted.UNBOUNDED
    relative_gap = gap / max(lhs, rhs, 1e-12)
    return ConditionReport(
        lhs_A=lhs, rhs_B=rhs, regime=regime,
        relative_gap=relative_gap, predicted=predicted,
    )


# ---------------------------------------------------------------------------
# beta profile and the implied tail exponent
# ---------------------------------------------------------------------------

def beta_profile(system, h_grid):
    """(h, beta(h)) with beta = averaged potential minus its sqrt growth.

    beta(h) = [avg potential](h) - (sqrt2/pi) n^(-3/2) |gap| h^(1/2).
    """
    h_grid = [float(h) for h in h_grid]
    if any(h < 100.0 for h in h_grid):
        raise ValueError("beta profile needs h >= 100")
    if sorted(h_grid) != h_grid:
        raise ValueError("h grid must be increasing")
    growth = abs(averaged_potential_asymptote(system))
    out = []
    for h in h_grid:
        try:
            mean = averaged_potential(system, h, abs_tol=BETA_ABS_TOL)
        except PrecisionFailureError as err:
            raise PrecisionFailureError(
                "beta quadrature did not converge", h=h, **err.details
            ) from err
        value = mean - growth * math.sqrt(h)
        if not math.isfinite(value):
            raise PrecisionFailureError("beta value not finite", h=h)
        out.append((h, value))
    return out


@dataclass(frozen=True)
class CriticalDEstimate:
    fit: DecayFit
    implied_d: float
    profile: tuple  # the (h, beta) pairs the fit was made on

    def to_json_dict(self) -> dict:
        return {
            "slope": self.fit.slope,
            "intercept": self.fit.intercept,
            "rms_residual": self.fit.rms_residual,
            "implied_d": self.implied_d,
        }


def critical_d_estimate(system, h_min=1e4, h_max=1e9, points=12) -> CriticalDEstimate:
    """Fit log|beta| vs log h on a geometric grid; implied d = 1 - 2*slope.

    A sign change of beta inside the window leaves no single power law to
    fit: degenerate.
    """
    if points < 8:
        raise ValueError("need at least 8 grid points")
    if h_max / h_min < 1e4:
        raise ValueError("window must span at least 4 decades")
    grid = geometric_grid(h_min, h_max, points)
    profile = beta_profile(system, list(grid))
    values = np.array([b for _, b in profile])
    if np.any(values == 0.0) or (np.min(values) < 0.0 < np.max(values)):
        raise FitDegenerateError(
            "beta crosses zero inside the fit window",
            h_min=h_min, h_max=h_max,
        )
    fit = loglog_fit(grid, values)
    return CriticalDEstimate(fit=fit, implied_d=1.0 - 2.0 * fit.slope,
                             profile=tuple(profile))


def classify_theorem(system, d_fit=None) -> Predicted:
    """Boundedness prediction from the regime, using d in the critical case.

    ``d_fit`` may be a CriticalDEstimate or a bare fitted d value.
    """
    report = lazer_leach_report(system)
    if report.regime is not Regime.CRITICAL:
        return report.predicted
    if d_fit is None:
        return Predicted.CRITICAL_NEEDS_D
    d = d_fit.implied_d if isinstance(d_fit, CriticalDEstimate) else float(d_fit)
    if d < 1.0 - CLASSIFY_MARGIN:
        return Predicted.BOUNDED
    if d > 1.0 + CLASSIFY_MARGIN:
        return Predicted.UNBOUNDED
    return Predicted.OUT_OF_THEORY

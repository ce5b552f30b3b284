"""The paper's numerical self-checks, rebuilt from the library calls runs make.

Three facts the proof rests on are checked here rather than in the
library: the a^(-1/2) decay of the oscillating term at its stationary
endpoints, the tail exponent d recovered from systems of known d, and the
twist omega(I) - n ~ I^(-1/2) that Moser's theorem needs.
"""
import math

import numpy as np

from duffinglab.actionangle import PhaseState
from duffinglab.dynamics import orbit
from duffinglab.fitting import envelope_fit, envelope_points, loglog_fit
from duffinglab.functions import AlgebraicTail, Sum, make_system
from duffinglab.oscillatory import circle_mean

TWO_PI = 2.0 * math.pi


def endpoint_law(a_grid):
    """Envelope fit of |V(a)| and the prefactors max |V| sqrt(a) per window.

    V(a), the integral of exp(i a cos theta) over [0, pi], is pi J0(a) =
    pi * circle_mean(a, "cos") (DLMF 10.9.1).  Both endpoints are
    stationary points of the phase, so |V| decays like a^(-1/2) and the
    prefactors approach the two-endpoint value sqrt(2 pi).
    """
    magnitude = np.array([math.pi * abs(circle_mean(a, "cos")) for a in a_grid])
    _, prefactors = envelope_points(a_grid, magnitude * np.sqrt(a_grid), 4.0)
    return envelope_fit(a_grid, magnitude, 4.0), prefactors


def calibration_system(d):
    """System with zero limit gap whose beta has envelope exponent (1-d)/2.

    Built from compensated tail pairs whose potential constants cancel, so
    beta is the bare circle mean with no additive constant:

    * d in (0,1) or (1,2): tails (1-d, (1+d)/2) and (2, 2) give
      G = (1+x^2)^((1-d)/2) - (1+x^2)^(-1); the first mean carries the
      h^((1-d)/2) law, the second decays like h^(-1/2) exactly.
    * d = 2: tails (4, 2) and (-8, 3) give
      G = -2(1+x^2)^(-1) + 2(1+x^2)^(-2), whose circle mean is exactly
      -a^2 (1+a^2)^(-3/2) with a^2 = 2h: a clean h^(-1/2) envelope.
      (A bare (1+x^2)^(-1/2) potential picks up a ln h factor instead.)
    """
    if d == 2.0:
        g = Sum((AlgebraicTail(4.0, 2.0), AlgebraicTail(-8.0, 3.0)))
    else:
        g = Sum((AlgebraicTail(1.0 - d, (1.0 + d) / 2.0), AlgebraicTail(2.0, 2.0)))
    return make_system(1, g)


def rotation_number(rec):
    """Mean lifted rotation per strobe, in turns: (lift_N - lift_0)/(2 pi N)."""
    n_iter = len(rec.iterates) - 1
    return (rec.iterates[-1].theta_lift - rec.iterates[0].theta_lift) / (TWO_PI * n_iter)


def twist_fit(system, I_grid, n_strobes):
    """Log-log fit of |omega(I) - n| over I_grid, and the deviations omega(I) - n.

    omega is the rotation number of the autonomous system (g alone, no
    forcing or periodic term) strobed n_strobes times at tol 1e-10 from
    (sqrt(2I/n), 0).
    """
    autonomous = make_system(system.n, system.g)
    deviations = []
    for I in I_grid:
        s0 = PhaseState(x=math.sqrt(2.0 * I / system.n), y=0.0, t=0.0)
        rec = orbit(autonomous, s0, n_strobes, 1.0e-10)
        deviations.append(rotation_number(rec) - system.n)
    return loglog_fit(I_grid, np.abs(deviations)), deviations

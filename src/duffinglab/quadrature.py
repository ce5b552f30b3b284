"""Quadrature kernels shared by the averaging and oscillatory modules."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AmplitudeTooLargeError, PrecisionFailureError

TWO_PI = 2.0 * math.pi


def _pow2_at_least(m: float) -> int:
    """Smallest power of two that is at least 64 and at least m."""
    n = 64
    while n < m:
        n *= 2
    return n


def _doubling_ladder(first_sum, midpoint_sum, panels, per_panel,
                     rel_tol, abs_tol, n_cap, what):
    """Trapezoid sum refined by node doubling until it settles.

    ``first_sum`` is the weighted sum of f over ``panels`` panels, and
    ``midpoint_sum(k)`` the sum of f over the midpoints of k panels; each
    doubling adds the midpoints, so every earlier node is reused.
    Converged when one doubling moves the mean by less than the
    tolerance; reaching the node cap without converging is a precision
    failure.  Node counts are panels * per_panel.

    Returns (mean, nodes_used).
    """
    if rel_tol is None and abs_tol is None:
        raise ValueError("need rel_tol or abs_tol")
    total = first_sum()
    mean = total / panels
    gap = math.inf
    while panels * per_panel < n_cap:
        total += midpoint_sum(panels)
        panels *= 2
        new = total / panels
        gap = abs(new - mean)
        tol = 0.0
        if rel_tol is not None:
            tol = rel_tol * abs(new)
        if abs_tol is not None:
            tol = max(tol, abs_tol)
        mean = new
        if gap <= tol:
            return mean, panels * per_panel
    raise PrecisionFailureError(
        f"{what} did not converge before the node cap",
        nodes=panels * per_panel, cap=n_cap, last_gap=gap,
    )


def periodic_mean(f, rel_tol=None, abs_tol=None, n_start=64, n_cap=2 ** 20):
    """Mean of a 2*pi-periodic function by trapezoid with node doubling.

    ``f`` maps an angle array to a value array. Each doubling reuses all
    previous nodes (only midpoints are new). Converged when one doubling
    moves the estimate by less than the tolerance; hitting the node cap
    without converging is a precision failure.

    Returns (mean, nodes_used).
    """
    n = int(n_start)
    return _doubling_ladder(
        lambda: float(np.sum(f(np.arange(n) * (TWO_PI / n)))),
        lambda k: float(np.sum(f((np.arange(k) + 0.5) * (TWO_PI / k)))),
        n, 1, rel_tol, abs_tol, n_cap, "periodic mean")


@lru_cache(maxsize=8)
def _quarter_cosines(m, midpoints):
    """cos u on the m-panel trapezoid grid of [0, pi/2]: at its m + 1
    panel edges, or with ``midpoints`` at its m panel midpoints.  Read
    only, since the cache hands the same array to every caller."""
    step = (0.5 * math.pi) / m
    u = (np.arange(m) + 0.5) * step if midpoints else np.arange(m + 1) * step
    c = np.cos(u)
    c.flags.writeable = False
    return c


def even_circle_mean(F, rel_tol=None, abs_tol=None, n_start=64, n_cap=2 ** 20):
    """Mean over the circle of u -> F(cos u) for even F, folded to [0, pi/2].

    ``F`` maps an array of cosines cos u, u in [0, pi/2], to F(cos u).
    By the symmetries cos(pi - u) = -cos u and evenness of F, the
    full-circle N-node trapezoid equals the quarter-period (N/4)-panel
    trapezoid with half weights at both ends; this computes the latter.
    The cosines of each level depend only on its panel count, so they
    come from a small cache shared by every call.  Node counts (n_start,
    n_cap, the returned count) are in full-circle equivalents.

    Returns (mean, effective_full_circle_nodes).
    """
    n = int(n_start)
    if n % 4:
        n = 4 * (n // 4 + 1)
    m = n // 4

    def first_sum():
        vals = F(_quarter_cosines(m, False))
        return float(np.sum(vals[1:-1])) + 0.5 * (float(vals[0]) + float(vals[-1]))

    return _doubling_ladder(
        first_sum, lambda k: float(np.sum(F(_quarter_cosines(k, True)))),
        m, 4, rel_tol, abs_tol, n_cap, "circle mean")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Legendre coefficients 14 and 15 of the degree-15 polynomial through a
# panel's 16 node values, c_k = (2k + 1)/2 sum_i w_i P_k(x_i) f(x_i): the
# 16-point rule integrates P_k P_j exactly for k, j <= 15, so these are
# exact.  Both small means the panel's interpolant, and with it the
# panel's integral, has converged (Gonnet, ACM TOMS 37:3, 2010)
_LEGENDRE_TAIL = np.stack(
    [(k + 0.5) * _GL_WEIGHTS * np.polynomial.legendre.legval(
        _GL_NODES, np.eye(16)[k]) for k in (14, 15)], axis=1)
# a panel is kept when both tail coefficients are at most this fraction of
# the largest |f| at the nodes of the starting grid, and bisected otherwise.
# Rounding noise sets the floor: in the potential generator at n = 1000 the
# phase n*theta carries about 1e-12 relative error, and at 3e-13 the noise
# alone splits panels until the cap
TAIL_FRACTION = 1.0e-11
# most panels a CumulativeIntegral may hold, and the narrowest it may split
# a panel into; refinement past either ends in AmplitudeTooLargeError
PANEL_CAP = 2 ** 20
MIN_PANEL_WIDTH = TWO_PI / 2 ** 40
# panels per integrand call in CumulativeIntegral: 16 nodes each, so one
# block is 262 144 nodes and 2 MB per float temporary
_PANEL_BLOCK = 1 << 14


def gl_panel(f, a, b):
    """16-point Gauss-Legendre integral of f over [a, b]."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_NODES
    return half * float(np.dot(_GL_WEIGHTS, f(x)))


def _panel_level(f, lows, width):
    """Integrals, Legendre tails and the largest |f| of panels of one width.

    The panels are evaluated _PANEL_BLOCK at a time, so memory is bounded
    by one block whatever the panel count.
    """
    half = 0.5 * width
    ints = np.empty(lows.size)
    tails = np.empty(lows.size)
    peak = 0.0
    for start in range(0, lows.size, _PANEL_BLOCK):
        stop = min(start + _PANEL_BLOCK, lows.size)
        x = (lows[start:stop] + half)[:, None] + half * _GL_NODES[None, :]
        vals = f(x.ravel()).reshape(stop - start, 16)
        ints[start:stop] = half * vals @ _GL_WEIGHTS
        tails[start:stop] = np.max(np.abs(vals @ _LEGENDRE_TAIL), axis=1)
        peak = max(peak, float(np.max(np.abs(vals))))
    return ints, tails, peak


class CumulativeIntegral:
    """Integral from 0 to theta on a fixed panelization of [0, 2*pi].

    ``n_panels`` uniform panels are the starting grid.  Level by level,
    a panel is kept once its Legendre tail is small against the
    integrand's scale (its largest |f| on the starting grid) and bisected
    otherwise, so panels shrink only where the integrand turns.  The
    final grid depends only on f and the starting count, never on theta,
    so two evaluations at nearby theta share every complete panel
    bit-for-bit and central differences of the result are noise-free.
    ``n_panels`` ends as the final panel count.  A grid kept whole on the
    first level gives the same panel integrals, and the same running sum,
    bit for bit as one pass over the uniform panels.
    """

    def __init__(self, f, n_panels):
        self.f = f
        width = TWO_PI / int(n_panels)
        lows = np.arange(int(n_panels)) * width
        kept_lows, kept_ints = [], []
        held = 0
        tol = None
        while True:
            ints, tails, peak = _panel_level(f, lows, width)
            if tol is None:
                tol = TAIL_FRACTION * peak
            done = tails <= tol
            kept_lows.append(lows[done])
            kept_ints.append(ints[done])
            held += kept_lows[-1].size
            split = lows[~done]
            if split.size == 0:
                break
            width *= 0.5
            if held + 2 * split.size > PANEL_CAP or width < MIN_PANEL_WIDTH:
                raise AmplitudeTooLargeError(
                    "integrand not resolved within the panel budget",
                    panels=held + 2 * split.size, cap=PANEL_CAP,
                    width=width, min_width=MIN_PANEL_WIDTH)
            lows = np.concatenate((split, split + width))
        lows = np.concatenate(kept_lows)
        order = np.argsort(lows)
        self.n_panels = int(lows.size)
        self.edges = np.append(lows[order], TWO_PI)
        panel_ints = np.concatenate(kept_ints)[order]
        self.prefix = np.concatenate(([0.0], np.cumsum(panel_ints)))

    def __call__(self, theta):
        if theta <= 0.0:
            return 0.0 if theta == 0.0 else -self._backward(-theta)
        k = int(np.searchsorted(self.edges, theta, side="right")) - 1
        base = float(self.prefix[k])
        lo = float(self.edges[k])
        if theta > lo:
            base += gl_panel(self.f, lo, min(theta, TWO_PI))
            if theta > TWO_PI:
                base += gl_panel(self.f, TWO_PI, theta)
        return base

    def _backward(self, t):
        return gl_panel(self.f, -t, 0.0)

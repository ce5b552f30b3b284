"""Quadrature kernels shared by the averaging and oscillatory modules."""
from __future__ import annotations

import math

import numpy as np

from .errors import PrecisionFailureError

TWO_PI = 2.0 * math.pi


def _pow2_at_least(m: float) -> int:
    """Smallest power of two that is at least 64 and at least m."""
    n = 64
    while n < m:
        n *= 2
    return n


def _doubling_ladder(f, first_sum, panels, step, per_panel,
                     rel_tol, abs_tol, n_cap, what):
    """Trapezoid sum refined by node doubling until it settles.

    ``first_sum()`` is the weighted sum of f over ``panels`` panels of
    width ``step``; each doubling adds the midpoints, so every earlier node
    is reused.  Converged when one doubling moves the mean by less than the
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
        total += float(np.sum(f((np.arange(panels) + 0.5) * step)))
        panels *= 2
        step *= 0.5
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
    step = TWO_PI / n
    return _doubling_ladder(
        f, lambda: float(np.sum(f(np.arange(n) * step))), n, step, 1,
        rel_tol, abs_tol, n_cap, "periodic mean")


def even_circle_mean(f_even, rel_tol=None, abs_tol=None, n_start=64, n_cap=2 ** 20):
    """Mean over the circle of u -> F(cos u) for even F, folded to [0, pi/2].

    ``f_even`` maps an array of angles u in [0, pi/2] to F(cos u). By the
    symmetries cos(pi - u) = -cos u and evenness of F, the full-circle
    N-node trapezoid equals the quarter-period (N/4)-panel trapezoid with
    half weights at both ends; this computes the latter. Node counts
    (n_start, n_cap, the returned count) are in full-circle equivalents.

    Returns (mean, effective_full_circle_nodes).
    """
    n = int(n_start)
    if n % 4:
        n = 4 * (n // 4 + 1)
    m = n // 4
    h = (0.5 * math.pi) / m

    def first_sum():
        vals = f_even(np.arange(m + 1) * h)
        return float(np.sum(vals[1:-1])) + 0.5 * (float(vals[0]) + float(vals[-1]))

    return _doubling_ladder(f_even, first_sum, m, h, 4,
                            rel_tol, abs_tol, n_cap, "circle mean")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# panels per integrand call in CumulativeIntegral: 16 nodes each, so one
# block is 262 144 nodes and 2 MB per float temporary
_PANEL_BLOCK = 1 << 14


def gl_panel(f, a, b):
    """16-point Gauss-Legendre integral of f over [a, b]."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_NODES
    return half * float(np.dot(_GL_WEIGHTS, f(x)))


class CumulativeIntegral:
    """Integral from 0 to theta on a fixed panelization of [0, 2*pi].

    The panel grid depends only on the panel count, never on theta, so two
    evaluations at nearby theta share every complete panel bit-for-bit and
    central differences of the result are noise-free.

    The panels are evaluated _PANEL_BLOCK at a time, so memory is bounded
    by one block whatever the panel count; each panel's integral, and the
    one running sum over them, is the same bit for bit as in one pass.
    """

    def __init__(self, f, n_panels):
        self.f = f
        self.n_panels = int(n_panels)
        self.width = TWO_PI / self.n_panels
        half = 0.5 * self.width
        panel_ints = np.empty(self.n_panels)
        for start in range(0, self.n_panels, _PANEL_BLOCK):
            stop = min(start + _PANEL_BLOCK, self.n_panels)
            centers = np.arange(start, stop) * self.width + half
            x = centers[:, None] + half * _GL_NODES[None, :]
            vals = f(x.ravel()).reshape(stop - start, 16)
            panel_ints[start:stop] = half * vals @ _GL_WEIGHTS
        self.prefix = np.concatenate(([0.0], np.cumsum(panel_ints)))

    def __call__(self, theta):
        if theta <= 0.0:
            return 0.0 if theta == 0.0 else -self._backward(-theta)
        k = min(int(theta / self.width), self.n_panels)
        base = float(self.prefix[k])
        lo = k * self.width
        if theta > lo:
            base += gl_panel(self.f, lo, min(theta, TWO_PI))
            if theta > TWO_PI:
                base += gl_panel(self.f, TWO_PI, theta)
        return base

    def _backward(self, t):
        return gl_panel(self.f, -t, 0.0)


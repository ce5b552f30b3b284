"""Independent reference computations for test expectations.

Everything here goes through mpmath or plain spectral summation, never
through the package's own quadrature or special-function code, so a test
comparing against these values exercises two genuinely different routes.
"""
import math

import mpmath
import numpy as np

mpmath.mp.dps = 30

TWO_PI = 2.0 * math.pi


def j0(a: float) -> float:
    return float(mpmath.besselj(0, a))


def circle_mean_cos(a: float, n: int = 1) -> float:
    """(1/2pi) int_0^2pi cos(a sin(n u)) du via mpmath quadrature."""
    f = lambda u: mpmath.cos(a * mpmath.sin(n * u))
    val = mpmath.quad(f, [0, mpmath.pi / (2 * n)])
    return float(val * 2 * n / mpmath.pi / 2)


def circle_mean_sin(a: float, n: int = 1) -> float:
    f = lambda u: mpmath.sin(a * mpmath.sin(n * u))
    return float(mpmath.quad(f, [0, 2 * mpmath.pi]) / (2 * mpmath.pi))


def potential_circle_mean(G, amplitude: float, n: int) -> float:
    """(1/2pi n) int_0^2pi G(amplitude cos u) du via mpmath quadrature.

    Subdivided at the zeros of cos: for large amplitude the integrand
    crosses between its small-argument and tail behaviour in a window of
    width ~1/amplitude there, and an unsplit quad loses digits on it.
    """
    f = lambda u: G(amplitude * mpmath.cos(u))
    pts = [0, mpmath.pi / 2, mpmath.pi, 3 * mpmath.pi / 2, 2 * mpmath.pi]
    val = mpmath.quad(f, pts, maxdegree=10)
    return float(val / (2 * mpmath.pi) / n)


def potential_generator(G, amplitude: float, n: int, thetas) -> list:
    """S(theta) = int_0^theta (G(amplitude cos n u)/n - mean) du at each theta.

    The mean is potential_circle_mean's.  mpmath quadrature on the
    pieces between 0, the zeros of cos n u and the sorted thetas, summed
    in order: the integrand turns between its small-argument and tail
    behaviour within about 1/(n amplitude) of each zero, and tanh-sinh
    nodes cluster at the piece ends.
    """
    mean = potential_circle_mean(G, amplitude, n)
    f = lambda u: G(amplitude * mpmath.cos(n * u)) / n
    top = max(thetas)
    zeros = [(mpmath.pi / 2 + k * mpmath.pi) / n for k in range(2 * n)]
    pts = sorted({mpmath.mpf(0)} | {z for z in zeros if z < top}
                 | {mpmath.mpf(t) for t in thetas})
    total = mpmath.mpf(0)
    at = {}
    for lo, hi in zip(pts, pts[1:]):
        total += mpmath.quad(f, [lo, hi])
        at[hi] = total
    return [float(at[mpmath.mpf(t)] - mpmath.mpf(t) * mean) for t in thetas]


def forcing_circle_mean(p, h: float, t: float, n: int,
                        max_harmonic: int) -> float:
    """Spectral-grid average of the forcing term along the free flow.

    -(1/(2pi n)) int_0^2pi sqrt(2h/n) cos(n s) p(t+s) ds, evaluated by a
    uniform sum with enough nodes to be exact for trigonometric
    polynomials (the trapezoid rule is spectral on the circle).
    """
    N = 8 * (max_harmonic + n + 2)
    s = np.arange(N) * (TWO_PI / N)
    amp = math.sqrt(2.0 * h / n)
    vals = -amp * np.cos(n * s) * p(t + s) / n
    return float(np.mean(vals))


def linear_resonant_x(t: float, n: int) -> float:
    """x(t) for x'' + n^2 x = sin(n t), x(0) = x'(0) = 0."""
    return (-t / (2.0 * n)) * math.cos(n * t) + math.sin(n * t) / (2.0 * n * n)


def linear_resonant_xdot(t: float, n: int) -> float:
    return (t / 2.0) * math.sin(n * t)

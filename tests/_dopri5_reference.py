"""The hand-written evaluators and integrator, kept as references.

These are the evaluators the library ran before every evaluator was
generated from ``scalar_source``: the ``isinstance`` ladder of the old
``evaluate`` (``_eval``), the closure ladder of the old
``compile_scalar``, the RHS built from it, and the hand-written
Dormand-Prince loop, unchanged.  The property tests in test_kernel.py
require the generated evaluators and kernels to reproduce them bit for bit.
"""
import math
from typing import Callable

import numpy as np

from duffinglab.dynamics import IntegratorStats, MAX_STEPS, MIN_STEP
from duffinglab.errors import (
    SolverFailureError,
    SpecValidationError,
    StiffnessFailureError,
)
from duffinglab.functions import (
    AlgebraicTail,
    Arctan,
    Constant,
    Linear,
    LogSquarePlusOne,
    PowerSquarePlusOne,
    Rational1,
    Scaled,
    Sum,
    TrigPoly,
    XArctan,
)

TWO_PI = 2.0 * math.pi


def _eval(spec, x):
    if isinstance(spec, Constant):
        return spec.c if not isinstance(x, np.ndarray) else np.full_like(x, spec.c, dtype=float)
    if isinstance(spec, Arctan):
        return spec.scale * np.arctan(x)
    if isinstance(spec, AlgebraicTail):
        return spec.c * x * (1.0 + x * x) ** (-spec.e)
    if isinstance(spec, Rational1):
        return spec.c * x / (1.0 + x * x)
    if isinstance(spec, TrigPoly):
        w = TWO_PI / spec.period
        acc = spec.constant if not isinstance(x, np.ndarray) else np.full_like(x, spec.constant, dtype=float)
        for m, a in enumerate(spec.cos_coeffs, start=1):
            if a != 0.0:
                acc = acc + a * np.cos((m * w) * x)
        for m, b in enumerate(spec.sin_coeffs, start=1):
            if b != 0.0:
                acc = acc + b * np.sin((m * w) * x)
        return acc
    if isinstance(spec, Sum):
        acc = _eval(spec.children[0], x)
        for ch in spec.children[1:]:
            acc = acc + _eval(ch, x)
        return acc
    if isinstance(spec, Scaled):
        return spec.k * _eval(spec.child, x)
    if isinstance(spec, XArctan):
        return spec.k * x * np.arctan(x)
    if isinstance(spec, LogSquarePlusOne):
        return spec.k * np.log1p(x * x)
    if isinstance(spec, PowerSquarePlusOne):
        return spec.k * (1.0 + x * x) ** spec.q
    if isinstance(spec, Linear):
        return spec.k * x
    raise SpecValidationError(f"unknown spec node {type(spec).__name__}")


def evaluate(spec, x):
    """Evaluate at a float or ndarray argument."""
    if isinstance(x, np.ndarray):
        return _eval(spec, x.astype(float, copy=False))
    return float(_eval(spec, float(x)))


def compile_scalar(spec) -> Callable[[float], float]:
    """Build a plain-Python scalar callable (fast path for ODE loops)."""
    if isinstance(spec, Constant):
        c = spec.c
        return lambda x: c
    if isinstance(spec, Arctan):
        s, atan = spec.scale, math.atan
        return lambda x: s * atan(x)
    if isinstance(spec, AlgebraicTail):
        c, me = spec.c, -spec.e
        return lambda x: c * x * (1.0 + x * x) ** me
    if isinstance(spec, Rational1):
        c = spec.c
        return lambda x: c * x / (1.0 + x * x)
    if isinstance(spec, TrigPoly):
        w = TWO_PI / spec.period
        const = spec.constant
        terms = []
        for m, a in enumerate(spec.cos_coeffs, start=1):
            if a != 0.0:
                terms.append((m * w, a, math.cos))
        for m, b in enumerate(spec.sin_coeffs, start=1):
            if b != 0.0:
                terms.append((m * w, b, math.sin))
        if not terms:
            return lambda x: const
        if len(terms) == 1 and const == 0.0:
            w1, c1, f1 = terms[0]
            return lambda x: c1 * f1(w1 * x)
        terms = tuple(terms)

        def tp(x):
            acc = const
            for wm, cm, fm in terms:
                acc += cm * fm(wm * x)
            return acc

        return tp
    if isinstance(spec, Sum):
        kids = tuple(compile_scalar(ch) for ch in spec.children)
        if len(kids) == 1:
            return kids[0]
        if len(kids) == 2:
            f0, f1 = kids
            return lambda x: f0(x) + f1(x)
        if len(kids) == 3:
            f0, f1, f2 = kids
            return lambda x: f0(x) + f1(x) + f2(x)

        def sm(x):
            acc = 0.0
            for f in kids:
                acc += f(x)
            return acc

        return sm
    if isinstance(spec, Scaled):
        k, f = spec.k, compile_scalar(spec.child)
        return lambda x: k * f(x)
    if isinstance(spec, XArctan):
        k, atan = spec.k, math.atan
        return lambda x: k * x * atan(x)
    if isinstance(spec, LogSquarePlusOne):
        k, log1p = spec.k, math.log1p
        return lambda x: k * log1p(x * x)
    if isinstance(spec, PowerSquarePlusOne):
        k, q = spec.k, spec.q
        return lambda x: k * (1.0 + x * x) ** q
    if isinstance(spec, Linear):
        k = spec.k
        return lambda x: k * x
    raise SpecValidationError(f"unknown spec node {type(spec).__name__}")


# Dormand-Prince 5(4) tableau; row 7 doubles as the 5th-order weights so
# stage 7 is the derivative at the accepted point (FSAL)
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
    49.0 / 176.0, -5103.0 / 18656.0,
)
_A71, _A73, _A74, _A75, _A76 = (
    35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0,
)
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
    -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)

_SAFE = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA


def _make_rhs(system) -> Callable:
    n = float(system.n)
    inv_n = 1.0 / n
    gf = compile_scalar(system.g)
    sf = compile_scalar(system.psi_prime)
    pf = compile_scalar(system.p)
    def rhs(t, x, y):
        return n * y, -n * x - (gf(x) + sf(x) - pf(t)) * inv_n
    return rhs


def _initial_step(rhs, t0, x0, y0, fx0, fy0, span, direction, tol):
    scx = tol + tol * abs(x0)
    scy = tol + tol * abs(y0)
    d0 = math.sqrt(0.5 * ((x0 / scx) ** 2 + (y0 / scy) ** 2))
    d1 = math.sqrt(0.5 * ((fx0 / scx) ** 2 + (fy0 / scy) ** 2))
    h0 = 1.0e-6 if (d0 < 1.0e-5 or d1 < 1.0e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    fx1, fy1 = rhs(t0 + direction * h0, x0 + direction * h0 * fx0,
                   y0 + direction * h0 * fy0)
    d2 = math.sqrt(
        0.5 * (((fx1 - fx0) / scx) ** 2 + ((fy1 - fy0) / scy) ** 2)
    ) / h0
    if max(d1, d2) <= 1.0e-15:
        h1 = max(1.0e-6, h0 * 1.0e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _dopri5(rhs, t0, x0, y0, t1, tol):
    """Adaptive 5(4) integration of the pair (x, y) from t0 to t1.

    Error per step is measured in the mixed absolute/relative norm with
    both tolerances equal to tol; the step controller is the standard
    proportional-integral rule with growth held back right after a
    rejection.  Returns (x, y, IntegratorStats).
    """
    span = abs(t1 - t0)
    if span == 0.0:
        return x0, y0, IntegratorStats(0, 0, 0.0)
    direction = 1.0 if t1 > t0 else -1.0
    t, x, y = t0, x0, y0
    fx, fy = rhs(t, x, y)
    h = direction * _initial_step(rhs, t0, x0, y0, fx, fy, span, direction, tol)
    facold = 1.0e-4
    rejected_last = False
    n_accept = 0
    n_reject = 0
    worst = 0.0
    while (t1 - t) * direction > 0.0:
        if n_accept + n_reject > MAX_STEPS:
            raise SolverFailureError(
                "step budget exhausted", t=t, steps=n_accept + n_reject,
            )
        if abs(h) < MIN_STEP:
            raise StiffnessFailureError(
                "step size underflow", t=t, step=h,
            )
        if (t + h - t1) * direction > 0.0:
            h = t1 - t

        k2x, k2y = rhs(t + _C2 * h, x + h * _A21 * fx, y + h * _A21 * fy)
        k3x, k3y = rhs(t + _C3 * h,
                       x + h * (_A31 * fx + _A32 * k2x),
                       y + h * (_A31 * fy + _A32 * k2y))
        k4x, k4y = rhs(t + _C4 * h,
                       x + h * (_A41 * fx + _A42 * k2x + _A43 * k3x),
                       y + h * (_A41 * fy + _A42 * k2y + _A43 * k3y))
        k5x, k5y = rhs(t + _C5 * h,
                       x + h * (_A51 * fx + _A52 * k2x + _A53 * k3x + _A54 * k4x),
                       y + h * (_A51 * fy + _A52 * k2y + _A53 * k3y + _A54 * k4y))
        k6x, k6y = rhs(t + h,
                       x + h * (_A61 * fx + _A62 * k2x + _A63 * k3x
                                + _A64 * k4x + _A65 * k5x),
                       y + h * (_A61 * fy + _A62 * k2y + _A63 * k3y
                                + _A64 * k4y + _A65 * k5y))
        xn = x + h * (_A71 * fx + _A73 * k3x + _A74 * k4x
                      + _A75 * k5x + _A76 * k6x)
        yn = y + h * (_A71 * fy + _A73 * k3y + _A74 * k4y
                      + _A75 * k5y + _A76 * k6y)
        k7x, k7y = rhs(t + h, xn, yn)

        ex = h * (_E1 * fx + _E3 * k3x + _E4 * k4x
                  + _E5 * k5x + _E6 * k6x + _E7 * k7x)
        ey = h * (_E1 * fy + _E3 * k3y + _E4 * k4y
                  + _E5 * k5y + _E6 * k6y + _E7 * k7y)
        scx = tol + tol * max(abs(x), abs(xn))
        scy = tol + tol * max(abs(y), abs(yn))
        err = math.sqrt(0.5 * ((ex / scx) ** 2 + (ey / scy) ** 2))

        fac11 = err ** _EXPO
        if err <= 1.0:
            t = t + h
            x, y = xn, yn
            fx, fy = k7x, k7y
            n_accept += 1
            worst = max(worst, err)
            fac = fac11 / facold ** _BETA
            fac = max(0.1, min(5.0, fac / _SAFE))
            hnew = h / fac
            if rejected_last:
                hnew = direction * min(abs(hnew), abs(h))
            facold = max(err, 1.0e-4)
            h = hnew
            rejected_last = False
        else:
            h = h / min(5.0, fac11 / _SAFE)
            n_reject += 1
            rejected_last = True
    return x, y, IntegratorStats(n_accept, n_reject, worst * tol)

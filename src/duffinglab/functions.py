"""Closed function grammar for restoring, oscillating, and forcing terms.

Everything the laboratory integrates is assembled from a small fixed set of
shapes, so limits at infinity, antiderivatives and Fourier data are
computed structurally from the expression tree rather than numerically.
Four extra shapes (XArctan, LogSquarePlusOne, PowerSquarePlusOne, Linear)
exist only so antiderivatives stay inside the grammar; they never appear in
configs.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import (
    ArithmeticFailureError,
    InadmissibleFunctionError,
    SpecValidationError,
    UnsupportedExponentError,
)

TWO_PI = 2.0 * math.pi
# largest n a system file may ask for: one strobe from I0 = 100 takes
# about 86 000 steps at n = 1000, under a tenth of the step budget
MAX_N = 1000


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    c: float


@dataclass(frozen=True)
class Arctan:
    """scale * arctan(x)."""

    scale: float = 1.0


@dataclass(frozen=True)
class AlgebraicTail:
    """c * x * (1 + x^2)^(-e), decaying like |x|^(1-2e); requires e > 1/2."""

    c: float
    e: float

    def __post_init__(self):
        if not (self.e > 0.5):
            raise SpecValidationError(
                "algebraic tail needs exponent e > 1/2", e=self.e
            )


@dataclass(frozen=True)
class TrigPoly:
    """Finite trigonometric polynomial, harmonics indexed from 1.

    value(x) = constant + sum_m cos_coeffs[m-1]*cos(2 pi m x / period)
                        + sum_m sin_coeffs[m-1]*sin(2 pi m x / period)
    """

    period: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()
    constant: float = 0.0

    def __post_init__(self):
        if not (self.period > 0.0):
            raise SpecValidationError("trig poly needs period > 0", period=self.period)
        object.__setattr__(self, "cos_coeffs", tuple(float(v) for v in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(v) for v in self.sin_coeffs))


@dataclass(frozen=True)
class Rational1:
    """c * x / (1 + x^2)."""

    c: float


@dataclass(frozen=True)
class Sum:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise SpecValidationError("empty sum")


@dataclass(frozen=True)
class Scaled:
    k: float
    child: "FunctionSpec"


# antiderivative-only shapes

@dataclass(frozen=True)
class XArctan:
    """k * x * arctan(x)."""

    k: float


@dataclass(frozen=True)
class LogSquarePlusOne:
    """k * ln(1 + x^2)."""

    k: float


@dataclass(frozen=True)
class PowerSquarePlusOne:
    """k * (1 + x^2)^q."""

    k: float
    q: float


@dataclass(frozen=True)
class Linear:
    """k * x."""

    k: float


FunctionSpec = Union[
    Constant, Arctan, AlgebraicTail, TrigPoly, Rational1, Sum, Scaled,
    XArctan, LogSquarePlusOne, PowerSquarePlusOne, Linear,
]

_CONFIG_KINDS = ("constant", "arctan", "algebraic_tail", "trig_poly",
                 "rational1", "sum", "scaled")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# names that scalar_source expressions may use besides their variable
SCALAR_NAMESPACE = {
    "atan": math.atan, "cos": math.cos, "sin": math.sin,
    "log1p": math.log1p, "inf": math.inf, "nan": math.nan,
}


def literal(v) -> str:
    """Python source for the number v that evaluates to the same bits.

    Python ints stay ints; other numbers go through float.  Non-finite
    values are spelled with the ``inf``/``nan`` names of SCALAR_NAMESPACE.
    """
    if not isinstance(v, int):
        v = float(v)
        if not math.isfinite(v):
            return "nan" if math.isnan(v) else ("inf" if v > 0.0 else "(-inf)")
    return f"({v!r})"


def times_source(k, expr: str) -> str:
    """Source for k * expr.  Multiplying by 1 is exact, so it is left out."""
    return expr if k == 1 else f"{literal(k)} * {expr}"


def scalar_source(spec: FunctionSpec, x: str) -> str:
    """One Python expression for spec at the float variable named x.

    The operation order is part of the contract: trig terms accumulate
    from the constant, cos harmonics before sin, skipping zero
    coefficients; sums of four or more children start from 0.0.  Every
    evaluator (compile_scalar, evaluate, the dynamics kernels) is built
    from this source.
    """
    if isinstance(spec, Constant):
        return literal(spec.c)
    if isinstance(spec, Arctan):
        return f"({times_source(spec.scale, f'atan({x})')})"
    if isinstance(spec, AlgebraicTail):
        power = f"{x} * (1.0 + {x} * {x}) ** {literal(-spec.e)}"
        return f"({times_source(spec.c, power)})"
    if isinstance(spec, Rational1):
        return f"({times_source(spec.c, f'{x} / (1.0 + {x} * {x})')})"
    if isinstance(spec, TrigPoly):
        w = TWO_PI / spec.period
        terms = [times_source(a, f"{fn}({times_source(m * w, x)})")
                 for fn, coeffs in (("cos", spec.cos_coeffs), ("sin", spec.sin_coeffs))
                 for m, a in enumerate(coeffs, start=1) if a != 0.0]
        if not terms:
            return literal(spec.constant)
        if len(terms) == 1 and spec.constant == 0.0:
            return f"({terms[0]})"
        return f"({' + '.join([literal(spec.constant)] + terms)})"
    if isinstance(spec, Sum):
        kids = [scalar_source(ch, x) for ch in spec.children]
        if len(kids) > 3:
            kids.insert(0, "0.0")
        return kids[0] if len(kids) == 1 else f"({' + '.join(kids)})"
    if isinstance(spec, Scaled):
        return f"({times_source(spec.k, scalar_source(spec.child, x))})"
    if isinstance(spec, XArctan):
        return f"({times_source(spec.k, f'{x} * atan({x})')})"
    if isinstance(spec, LogSquarePlusOne):
        return f"({times_source(spec.k, f'log1p({x} * {x})')})"
    if isinstance(spec, PowerSquarePlusOne):
        power = f"(1.0 + {x} * {x}) ** {literal(spec.q)}"
        return f"({times_source(spec.k, power)})"
    if isinstance(spec, Linear):
        return f"({times_source(spec.k, x)})"
    raise SpecValidationError(f"unknown spec node {type(spec).__name__}")


def compile_scalar(spec: FunctionSpec) -> Callable[[float], float]:
    """Build a plain-Python scalar callable from scalar_source."""
    return eval(f"lambda x: {scalar_source(spec, 'x')}", dict(SCALAR_NAMESPACE))


# the same source evaluated with numpy's functions, for floats and arrays
_NUMPY_NAMESPACE = dict(SCALAR_NAMESPACE, atan=np.arctan, cos=np.cos,
                        sin=np.sin, log1p=np.log1p)


@lru_cache(maxsize=256)
def _compile_numpy(spec: FunctionSpec) -> Callable:
    return eval(f"lambda x: {scalar_source(spec, 'x')}", dict(_NUMPY_NAMESPACE))


def evaluate(spec: FunctionSpec, x):
    """Evaluate at a float or ndarray argument.

    An invalid operation (inf - inf, 0 * inf) or an overflow inside the
    expression raises ArithmeticFailureError naming the spec and x.
    """
    f = _compile_numpy(spec)
    try:
        with np.errstate(invalid="raise", over="raise"):
            if not isinstance(x, np.ndarray):
                return float(f(float(x)))
            x = x.astype(float, copy=False)
            value = f(x)
    except FloatingPointError as exc:
        at = (f"x = {x!r}" if np.ndim(x) == 0 else
              f"{x.size} points in [{x.min()}, {x.max()}]")
        raise ArithmeticFailureError(f"{exc} evaluating {spec!r} at {at}") from None
    if value is x:  # the source of Linear(1) is x itself
        return x.copy()
    if isinstance(value, (np.ndarray, np.generic)):
        return value
    # the source of a constant spec never reads x
    return np.full(x.shape, value, dtype=float)


# ---------------------------------------------------------------------------
# structural calculus
# ---------------------------------------------------------------------------

def antiderivative(spec: FunctionSpec) -> FunctionSpec:
    """Antiderivative F with F(0) = 0, closed over the grammar.

    AlgebraicTail with e = 1 has a logarithmic antiderivative not expressible
    with a finite limit structure here; it is rejected (use Rational1, which
    is that shape with the log handled explicitly).
    """
    if isinstance(spec, Constant):
        return Linear(spec.c)
    if isinstance(spec, Arctan):
        # d/dx [x*atan(x) - ln(1+x^2)/2] = atan(x); value 0 at x=0.
        return Sum((XArctan(spec.scale), LogSquarePlusOne(-0.5 * spec.scale)))
    if isinstance(spec, AlgebraicTail):
        if spec.e == 1.0:
            raise UnsupportedExponentError(
                "algebraic tail with e = 1 integrates to a logarithm; "
                "use rational1 instead", e=spec.e,
            )
        k = spec.c / (2.0 * (1.0 - spec.e))
        return Sum((PowerSquarePlusOne(k, 1.0 - spec.e), Constant(-k)))
    if isinstance(spec, Rational1):
        return LogSquarePlusOne(0.5 * spec.c)
    if isinstance(spec, TrigPoly):
        w = TWO_PI / spec.period
        n_cos = len(spec.sin_coeffs)
        n_sin = len(spec.cos_coeffs)
        new_cos = [0.0] * n_cos
        new_sin = [0.0] * n_sin
        for m, a in enumerate(spec.cos_coeffs, start=1):
            new_sin[m - 1] = a / (m * w)
        shift = 0.0
        for m, b in enumerate(spec.sin_coeffs, start=1):
            new_cos[m - 1] = -b / (m * w)
            shift += b / (m * w)
        parts = [TrigPoly(spec.period, tuple(new_cos), tuple(new_sin), 0.0)]
        if spec.constant != 0.0:
            parts.append(Linear(spec.constant))
        if shift != 0.0:
            parts.append(Constant(shift))
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))
    if isinstance(spec, Sum):
        return Sum(tuple(antiderivative(ch) for ch in spec.children))
    if isinstance(spec, Scaled):
        return Scaled(spec.k, antiderivative(spec.child))
    raise InadmissibleFunctionError(
        f"no antiderivative rule for {type(spec).__name__}"
    )


def derivative_periodic(spec: FunctionSpec) -> FunctionSpec:
    """Derivative of a periodic (trig poly based) spec."""
    if isinstance(spec, TrigPoly):
        w = TWO_PI / spec.period
        n = max(len(spec.cos_coeffs), len(spec.sin_coeffs))
        new_cos = [0.0] * n
        new_sin = [0.0] * n
        for m, a in enumerate(spec.cos_coeffs, start=1):
            new_sin[m - 1] -= a * m * w
        for m, b in enumerate(spec.sin_coeffs, start=1):
            new_cos[m - 1] += b * m * w
        return TrigPoly(spec.period, tuple(new_cos), tuple(new_sin), 0.0)
    if isinstance(spec, Constant):
        return Constant(0.0)
    if isinstance(spec, Sum):
        return Sum(tuple(derivative_periodic(ch) for ch in spec.children))
    if isinstance(spec, Scaled):
        return Scaled(spec.k, derivative_periodic(spec.child))
    raise InadmissibleFunctionError(
        f"derivative only defined for periodic specs, got {type(spec).__name__}"
    )


def limits_at_infinity(spec: FunctionSpec) -> tuple:
    """(limit at -inf, limit at +inf); raises if either does not exist."""
    if isinstance(spec, Constant):
        return (spec.c, spec.c)
    if isinstance(spec, Arctan):
        half_pi = 0.5 * math.pi
        return (-spec.scale * half_pi, spec.scale * half_pi)
    if isinstance(spec, (AlgebraicTail, Rational1)):
        return (0.0, 0.0)
    if isinstance(spec, Sum):
        lo = hi = 0.0
        for ch in spec.children:
            a, b = limits_at_infinity(ch)
            lo += a
            hi += b
        return (lo, hi)
    if isinstance(spec, Scaled):
        a, b = limits_at_infinity(spec.child)
        return (spec.k * a, spec.k * b)
    raise InadmissibleFunctionError(
        f"{type(spec).__name__} has no finite limits at infinity"
    )


def limit_gap(spec: FunctionSpec) -> float:
    """g(+inf) - g(-inf)."""
    lo, hi = limits_at_infinity(spec)
    return hi - lo


def zero_mean_normalize(spec: FunctionSpec, period: float) -> FunctionSpec:
    """Remove the mean over one period from a periodic spec.

    The grammar's periodic shapes carry their mean entirely in constant
    terms (harmonics integrate to zero), so normalization strips constants
    structurally. Idempotent bit-for-bit.
    """
    stripped = _strip_constants(spec, period)
    if stripped is None:
        return TrigPoly(period)
    return stripped


def _strip_constants(spec, period):
    if isinstance(spec, Constant):
        return None
    if isinstance(spec, TrigPoly):
        if not math.isclose(spec.period, period, rel_tol=1e-12, abs_tol=0.0):
            raise InadmissibleFunctionError(
                "trig poly period does not match the declared period",
                found=spec.period, declared=period,
            )
        if all(a == 0.0 for a in spec.cos_coeffs) and all(b == 0.0 for b in spec.sin_coeffs):
            return None
        if spec.constant == 0.0:
            return spec
        return TrigPoly(spec.period, spec.cos_coeffs, spec.sin_coeffs, 0.0)
    if isinstance(spec, Sum):
        kept = [s for s in (_strip_constants(ch, period) for ch in spec.children)
                if s is not None]
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        return Sum(tuple(kept))
    if isinstance(spec, Scaled):
        child = _strip_constants(spec.child, period)
        if child is None or spec.k == 0.0:
            return None
        return Scaled(spec.k, child)
    raise InadmissibleFunctionError(
        f"{type(spec).__name__} is not periodic; cannot normalize"
    )


# ---------------------------------------------------------------------------
# trig poly helpers
# ---------------------------------------------------------------------------

def harmonic(tp: TrigPoly, m: int) -> tuple:
    """(cos, sin) coefficient pair of harmonic m >= 1 (0.0 when absent)."""
    a = tp.cos_coeffs[m - 1] if 1 <= m <= len(tp.cos_coeffs) else 0.0
    b = tp.sin_coeffs[m - 1] if 1 <= m <= len(tp.sin_coeffs) else 0.0
    return (a, b)


def trig_shift(tp: TrigPoly, tau: float) -> TrigPoly:
    """The trig poly representing x -> tp(x + tau)."""
    w = TWO_PI / tp.period
    n = max(len(tp.cos_coeffs), len(tp.sin_coeffs))
    new_cos = [0.0] * n
    new_sin = [0.0] * n
    for m in range(1, n + 1):
        a, b = harmonic(tp, m)
        cw = math.cos(m * w * tau)
        sw = math.sin(m * w * tau)
        new_cos[m - 1] = a * cw + b * sw
        new_sin[m - 1] = b * cw - a * sw
    return TrigPoly(tp.period, tuple(new_cos), tuple(new_sin), tp.constant)


def split_even_linear(spec: FunctionSpec) -> tuple:
    """Split an antiderivative tree into (even part, linear coefficient).

    Valid for antiderivatives of admissible restoring forces: every node is
    even in x except Linear terms. Returns (spec_without_linear, k_total).
    """
    if isinstance(spec, Linear):
        return (None, spec.k)
    if isinstance(spec, (Constant, XArctan, LogSquarePlusOne, PowerSquarePlusOne)):
        return (spec, 0.0)
    if isinstance(spec, Sum):
        evens = []
        k = 0.0
        for ch in spec.children:
            ev, kc = split_even_linear(ch)
            k += kc
            if ev is not None:
                evens.append(ev)
        if not evens:
            return (None, k)
        return (evens[0] if len(evens) == 1 else Sum(tuple(evens)), k)
    if isinstance(spec, Scaled):
        ev, kc = split_even_linear(spec.child)
        return (None if ev is None else Scaled(spec.k, ev), spec.k * kc)
    raise InadmissibleFunctionError(
        f"{type(spec).__name__} not expected inside a potential"
    )


# ---------------------------------------------------------------------------
# JSON config schema
# ---------------------------------------------------------------------------

def spec_to_config(spec: FunctionSpec) -> dict:
    if isinstance(spec, Constant):
        return {"kind": "constant", "c": spec.c}
    if isinstance(spec, Arctan):
        return {"kind": "arctan", "scale": spec.scale}
    if isinstance(spec, AlgebraicTail):
        return {"kind": "algebraic_tail", "c": spec.c, "e": spec.e}
    if isinstance(spec, TrigPoly):
        out = {"kind": "trig_poly", "period": spec.period,
               "cos": list(spec.cos_coeffs), "sin": list(spec.sin_coeffs)}
        if spec.constant != 0.0:
            out["constant"] = spec.constant
        return out
    if isinstance(spec, Rational1):
        return {"kind": "rational1", "c": spec.c}
    if isinstance(spec, Sum):
        return {"kind": "sum", "terms": [spec_to_config(ch) for ch in spec.children]}
    if isinstance(spec, Scaled):
        return {"kind": "scaled", "k": spec.k, "child": spec_to_config(spec.child)}
    raise SpecValidationError(
        f"{type(spec).__name__} is internal and has no config form"
    )


def _require_number(obj, key, path):
    if key not in obj:
        raise SpecValidationError(f"{path}: missing key {key!r}")
    v = obj[key]
    if not _is_finite_number(v):
        raise SpecValidationError(f"{path}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _is_finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def spec_from_config(obj, path: str = "spec") -> FunctionSpec:
    if not isinstance(obj, dict):
        raise SpecValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in _CONFIG_KINDS:
        raise SpecValidationError(f"{path}: unknown kind {kind!r}")
    if kind == "constant":
        return Constant(_require_number(obj, "c", path))
    if kind == "arctan":
        return Arctan(_require_number(obj, "scale", path))
    if kind == "algebraic_tail":
        return AlgebraicTail(_require_number(obj, "c", path),
                             _require_number(obj, "e", path))
    if kind == "trig_poly":
        period = _require_number(obj, "period", path)
        cos = obj.get("cos", [])
        sin = obj.get("sin", [])
        for name, seq in (("cos", cos), ("sin", sin)):
            if not isinstance(seq, list) or not all(map(_is_finite_number, seq)):
                raise SpecValidationError(
                    f"{path}.{name}: expected a list of finite numbers")
        constant = _require_number(obj, "constant", path) if "constant" in obj else 0.0
        return TrigPoly(period, tuple(float(v) for v in cos),
                        tuple(float(v) for v in sin), constant)
    if kind == "rational1":
        return Rational1(_require_number(obj, "c", path))
    if kind == "sum":
        terms = obj.get("terms")
        if not isinstance(terms, list) or not terms:
            raise SpecValidationError(f"{path}.terms: expected a non-empty list")
        return Sum(tuple(spec_from_config(t, f"{path}.terms[{i}]")
                         for i, t in enumerate(terms)))
    if kind == "scaled":
        return Scaled(_require_number(obj, "k", path),
                      spec_from_config(obj.get("child"), f"{path}.child"))
    raise SpecValidationError(f"{path}: unhandled kind {kind!r}")


# ---------------------------------------------------------------------------
# admissibility and the assembled system
# ---------------------------------------------------------------------------

def validate_restoring(spec: FunctionSpec, path: str = "g") -> None:
    """g must be bounded with finite limits at infinity (grammar shapes only)."""
    if isinstance(spec, (Constant, Arctan, AlgebraicTail, Rational1)):
        return
    if isinstance(spec, Sum):
        for i, ch in enumerate(spec.children):
            validate_restoring(ch, f"{path}[{i}]")
        return
    if isinstance(spec, Scaled):
        validate_restoring(spec.child, f"{path}.child")
        return
    raise InadmissibleFunctionError(
        f"{path}: {type(spec).__name__} is not admissible as a restoring force"
    )


def periodic_leaves(spec: FunctionSpec, scale: float = 1.0):
    """Yield (scale, leaf) for the TrigPoly and Constant leaves of a periodic
    spec, depth first; scale is the product of the enclosing Scaled factors."""
    if isinstance(spec, (TrigPoly, Constant)):
        yield scale, spec
    elif isinstance(spec, Sum):
        for ch in spec.children:
            yield from periodic_leaves(ch, scale)
    elif isinstance(spec, Scaled):
        yield from periodic_leaves(spec.child, scale * spec.k)
    else:
        raise InadmissibleFunctionError(
            f"{type(spec).__name__} is not admissible as a periodic term"
        )


def periodic_period(spec: FunctionSpec, default: float = None) -> float:
    """Common period of a periodic spec's trig polys (required to agree).

    A spec with no trig poly (pure constant) has any period; ``default``
    is used when given, otherwise that is an error.
    """
    periods = [leaf.period for _, leaf in periodic_leaves(spec)
               if isinstance(leaf, TrigPoly)]
    if not periods:
        if default is not None:
            return default
        raise InadmissibleFunctionError("no trig poly inside periodic spec")
    first = periods[0]
    for p in periods[1:]:
        if not math.isclose(p, first, rel_tol=1e-12, abs_tol=0.0):
            raise InadmissibleFunctionError(
                "mixed periods inside one periodic term", periods=periods
            )
    return first


@dataclass(frozen=True)
class DuffingSystem:
    """x'' + n^2 x + g(x) + psi'(x) = p(t), with derived pieces cached.

    potential is the antiderivative of g with value 0 at x = 0;
    psi is stored zero-mean; psi_prime is its exact derivative.
    """

    n: int
    g: FunctionSpec
    psi: FunctionSpec
    p: TrigPoly
    potential: FunctionSpec
    psi_prime: FunctionSpec
    psi_period: float

    def system_id(self) -> str:
        blob = json.dumps(system_to_config(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def __getstate__(self):
        # only the fields: caches kept on the instance (the dynamics
        # kernel) are rebuilt on first use and cannot be pickled
        return {f.name: getattr(self, f.name) for f in fields(self)}


def make_system(n: int, g: FunctionSpec, psi=None, p: TrigPoly = None) -> DuffingSystem:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SpecValidationError(f"n must be a positive integer, got {n!r}")
    validate_restoring(g)
    if p is None:
        p = TrigPoly(TWO_PI)
    if not isinstance(p, TrigPoly):
        raise InadmissibleFunctionError("forcing must be a single trig poly")
    if not math.isclose(p.period, TWO_PI, rel_tol=1e-12, abs_tol=0.0):
        raise InadmissibleFunctionError(
            "forcing period must be 2*pi", period=p.period
        )
    if p.constant != 0.0:
        raise InadmissibleFunctionError("forcing must have zero mean")
    if psi is None:
        psi = TrigPoly(TWO_PI)
    psi_period = periodic_period(psi, default=TWO_PI)
    psi = zero_mean_normalize(psi, psi_period)
    return DuffingSystem(
        n=int(n), g=g, psi=psi, p=p,
        potential=antiderivative(g),
        psi_prime=derivative_periodic(psi),
        psi_period=psi_period,
    )


def system_to_config(system: DuffingSystem) -> dict:
    return {
        "n": system.n,
        "g": spec_to_config(system.g),
        "psi": spec_to_config(system.psi),
        "p": spec_to_config(system.p),
    }


def system_from_config(obj, path: str = "system") -> DuffingSystem:
    if not isinstance(obj, dict):
        raise SpecValidationError(f"{path}: expected an object")
    unknown = set(obj) - {"n", "g", "psi", "p"}
    if unknown:
        raise SpecValidationError(f"{path}: unknown keys {sorted(unknown)}")
    n = obj.get("n")
    if not _is_finite_number(n) or not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise SpecValidationError(
            f"{path}.n: expected an integer in [1, {MAX_N}]")
    if "g" not in obj:
        raise SpecValidationError(f"{path}: missing key 'g'")
    g = spec_from_config(obj["g"], f"{path}.g")
    psi = None
    if obj.get("psi") is not None:
        psi = spec_from_config(obj["psi"], f"{path}.psi")
    p = None
    if obj.get("p") is not None:
        p = spec_from_config(obj["p"], f"{path}.p")
        if not isinstance(p, TrigPoly):
            raise InadmissibleFunctionError(f"{path}.p: forcing must be a trig poly")
    return make_system(n, g, psi, p)

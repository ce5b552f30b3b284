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
from typing import Callable, NamedTuple, Optional, Union

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

# each config kind and the keys its nodes may hold besides "kind"
_CONFIG_KEYS = {
    "constant": {"c"},
    "arctan": {"scale"},
    "algebraic_tail": {"c", "e"},
    "trig_poly": {"period", "cos", "sin", "constant"},
    "rational1": {"c"},
    "sum": {"terms"},
    "scaled": {"k", "child"},
}


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

class RestoringParts(NamedTuple):
    """What a system needs of its restoring force g, from one walk.

    potential is the antiderivative of g with value 0 at x = 0;
    even_potential is the potential without its Linear terms, which is
    even in x (None when nothing else is left); lo and hi are g(-inf) and
    g(+inf).
    """

    potential: FunctionSpec
    even_potential: Optional[FunctionSpec]
    lo: float
    hi: float


def restoring_parts(spec: FunctionSpec, path: str = "g") -> RestoringParts:
    """Potential, even part and limits of a restoring force, closed over
    the grammar.  This is also the admissibility check on g: a rejection
    names the node by its config path, rooted at ``path``.

    In the even part, Linear terms are dropped, a sum left with one term
    is that term and Scaled factors are kept.  Sums add their children's
    limits in child order.

    AlgebraicTail with e = 1 has a logarithmic antiderivative not expressible
    with a finite limit structure here; it is rejected (use Rational1, which
    is that shape with the log handled explicitly).
    """
    if isinstance(spec, Constant):
        return RestoringParts(Linear(spec.c), None, spec.c, spec.c)
    if isinstance(spec, Arctan):
        # d/dx [x*atan(x) - ln(1+x^2)/2] = atan(x); value 0 at x=0.
        potential = Sum((XArctan(spec.scale), LogSquarePlusOne(-0.5 * spec.scale)))
        hi = spec.scale * (0.5 * math.pi)
        return RestoringParts(potential, potential, -hi, hi)
    if isinstance(spec, AlgebraicTail):
        if spec.e == 1.0:
            raise UnsupportedExponentError(
                f"{path}: algebraic tail with e = 1 integrates to a logarithm; "
                "use rational1 instead", e=spec.e,
            )
        k = spec.c / (2.0 * (1.0 - spec.e))
        potential = Sum((PowerSquarePlusOne(k, 1.0 - spec.e), Constant(-k)))
        return RestoringParts(potential, potential, 0.0, 0.0)
    if isinstance(spec, Rational1):
        potential = LogSquarePlusOne(0.5 * spec.c)
        return RestoringParts(potential, potential, 0.0, 0.0)
    if isinstance(spec, Sum):
        kids = [restoring_parts(ch, f"{path}.terms[{i}]")
                for i, ch in enumerate(spec.children)]
        evens = tuple(kid.even_potential for kid in kids
                      if kid.even_potential is not None)
        lo = hi = 0.0
        for kid in kids:
            lo += kid.lo
            hi += kid.hi
        return RestoringParts(
            Sum(tuple(kid.potential for kid in kids)),
            (evens[0] if len(evens) == 1 else Sum(evens)) if evens else None,
            lo, hi,
        )
    if isinstance(spec, Scaled):
        kid = restoring_parts(spec.child, f"{path}.child")
        even = kid.even_potential
        return RestoringParts(
            Scaled(spec.k, kid.potential),
            None if even is None else Scaled(spec.k, even),
            spec.k * kid.lo, spec.k * kid.hi,
        )
    raise InadmissibleFunctionError(
        f"{path}: {type(spec).__name__} is not admissible as a restoring force"
    )


def derivative_periodic(tp: TrigPoly) -> TrigPoly:
    """Exact derivative of a trig poly; its constant drops out."""
    w = TWO_PI / tp.period
    n = max(len(tp.cos_coeffs), len(tp.sin_coeffs))
    new_cos = [0.0] * n
    new_sin = [0.0] * n
    for m, a in enumerate(tp.cos_coeffs, start=1):
        new_sin[m - 1] -= a * m * w
    for m, b in enumerate(tp.sin_coeffs, start=1):
        new_cos[m - 1] += b * m * w
    return TrigPoly(tp.period, tuple(new_cos), tuple(new_sin), 0.0)


# ---------------------------------------------------------------------------
# trig poly helpers
# ---------------------------------------------------------------------------

def harmonic(tp: TrigPoly, m: int) -> tuple:
    """(cos, sin) coefficient pair of harmonic m >= 1 (0.0 when absent)."""
    a = tp.cos_coeffs[m - 1] if 1 <= m <= len(tp.cos_coeffs) else 0.0
    b = tp.sin_coeffs[m - 1] if 1 <= m <= len(tp.sin_coeffs) else 0.0
    return (a, b)


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


def _checked(path, shape, *args):
    """shape(*args), naming path when the shape's own check refuses them."""
    try:
        return shape(*args)
    except SpecValidationError as exc:
        raise SpecValidationError(f"{path}: {exc}", **exc.details) from None


def spec_from_config(obj, path: str = "spec") -> FunctionSpec:
    if not isinstance(obj, dict):
        raise SpecValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in _CONFIG_KEYS:
        raise SpecValidationError(f"{path}: unknown kind {kind!r}")
    unknown = sorted(set(obj) - _CONFIG_KEYS[kind] - {"kind"})
    if unknown:
        raise SpecValidationError(
            f"{path}.{unknown[0]}: unknown key for kind {kind!r}")
    if kind == "constant":
        return Constant(_require_number(obj, "c", path))
    if kind == "arctan":
        return Arctan(_require_number(obj, "scale", path))
    if kind == "algebraic_tail":
        return _checked(path, AlgebraicTail, _require_number(obj, "c", path),
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
        return _checked(path, TrigPoly, period, cos, sin, constant)
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

def _periodic_leaves(spec: FunctionSpec, path: str, scale: float = 1.0):
    """Yield (path, scale, leaf) for the TrigPoly leaves of a periodic spec,
    depth first; scale is the product of the enclosing Scaled factors.
    Constant leaves carry only mean, so they yield nothing."""
    if isinstance(spec, TrigPoly):
        yield path, scale, spec
    elif isinstance(spec, Constant):
        return
    elif isinstance(spec, Sum):
        for i, ch in enumerate(spec.children):
            yield from _periodic_leaves(ch, f"{path}.terms[{i}]", scale)
    elif isinstance(spec, Scaled):
        yield from _periodic_leaves(spec.child, f"{path}.child", scale * spec.k)
    else:
        raise InadmissibleFunctionError(
            f"{path}: {type(spec).__name__} is not admissible as a periodic term"
        )


def _zero_mean_poly(spec: FunctionSpec, path: str) -> TrigPoly:
    """A periodic spec summed into one TrigPoly with constant 0.0.

    Each leaf's harmonics enter times the product of its enclosing Scaled
    factors, depth first; the constants, which carry the whole mean, never
    reach it.  The first leaf to reach a harmonic sets it, so a spec that is
    already one TrigPoly keeps its coefficient tuples bit for bit, trailing
    zeros and -0.0 included.  All-zero harmonics give TrigPoly(period).
    """
    period = None
    sums = ([], [])  # cos, sin
    for where, scale, leaf in _periodic_leaves(spec, path):
        if period is None:
            period = leaf.period
        elif not math.isclose(leaf.period, period, rel_tol=1e-12, abs_tol=0.0):
            raise InadmissibleFunctionError(
                f"{where}.period: mixed periods inside one periodic term",
                found=leaf.period, first=period,
            )
        for acc, coeffs in zip(sums, (leaf.cos_coeffs, leaf.sin_coeffs)):
            for i, c in enumerate(coeffs):
                if i < len(acc):
                    acc[i] += scale * c
                else:
                    acc.append(scale * c)
    if not any(sums[0] + sums[1]):
        return TrigPoly(TWO_PI if period is None else period)
    return TrigPoly(period, tuple(sums[0]), tuple(sums[1]))


@dataclass(frozen=True)
class DuffingSystem:
    """x'' + n^2 x + g(x) + psi'(x) = p(t), with derived pieces cached.

    potential is the antiderivative of g with value 0 at x = 0, and
    even_potential its even part (see restoring_parts); gap is
    g(+inf) - g(-inf).  psi is stored as one zero-mean TrigPoly;
    psi_prime is its exact derivative.
    """

    n: int
    g: FunctionSpec
    psi: TrigPoly
    p: TrigPoly
    potential: FunctionSpec
    even_potential: Optional[FunctionSpec]
    gap: float
    psi_prime: TrigPoly

    def system_id(self) -> str:
        blob = json.dumps(system_to_config(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def __getstate__(self):
        # only the fields: caches kept on the instance (the dynamics
        # kernel) are rebuilt on first use and cannot be pickled
        return {f.name: getattr(self, f.name) for f in fields(self)}


def make_system(n: int, g: FunctionSpec, psi=None, p: TrigPoly = None,
                path: str = "system") -> DuffingSystem:
    """Check and assemble a system; a rejection names the config path of
    the piece at fault, rooted at ``path``.

    psi may be a TrigPoly or a sum, scaled or constant tree of them; it is
    summed into one zero-mean TrigPoly here, once.  g is walked once, by
    restoring_parts.
    """
    _check_n(n, path)
    if p is None:
        p = TrigPoly(TWO_PI)
    if not isinstance(p, TrigPoly):
        raise InadmissibleFunctionError(f"{path}.p: forcing must be a single trig poly")
    if not math.isclose(p.period, TWO_PI, rel_tol=1e-12, abs_tol=0.0):
        raise InadmissibleFunctionError(
            f"{path}.p.period: forcing period must be 2*pi", period=p.period
        )
    if p.constant != 0.0:
        raise InadmissibleFunctionError(f"{path}.p.constant: forcing must have zero mean")
    psi = _zero_mean_poly(TrigPoly(TWO_PI) if psi is None else psi, f"{path}.psi")
    parts = restoring_parts(g, f"{path}.g")
    return DuffingSystem(
        n=int(n), g=g, psi=psi, p=p,
        potential=parts.potential, even_potential=parts.even_potential,
        gap=parts.hi - parts.lo,
        psi_prime=derivative_periodic(psi),
    )


def _check_n(n, path: str) -> None:
    if not _is_finite_number(n) or not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise SpecValidationError(f"{path}.n: expected an integer in [1, {MAX_N}]")


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
    _check_n(n, path)
    if "g" not in obj:
        raise SpecValidationError(f"{path}: missing key 'g'")
    g = spec_from_config(obj["g"], f"{path}.g")
    psi = None
    if obj.get("psi") is not None:
        psi = spec_from_config(obj["psi"], f"{path}.psi")
    p = None
    if obj.get("p") is not None:
        p = spec_from_config(obj["p"], f"{path}.p")
    return make_system(n, g, psi, p, path)

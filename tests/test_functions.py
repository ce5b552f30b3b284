import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from duffinglab.errors import (
    InadmissibleFunctionError,
    SpecValidationError,
    UnsupportedExponentError,
)
from duffinglab import functions as fx
from duffinglab.functions import (
    AlgebraicTail,
    Arctan,
    Constant,
    Rational1,
    Scaled,
    Sum,
    TrigPoly,
    make_system,
)

TWO_PI = 2.0 * math.pi

coeff = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                  allow_infinity=False)
nonzero_coeff = coeff.filter(lambda v: abs(v) > 1e-3)
# e = 1 has no antiderivative in the grammar (test_unit_exponent_tail_rejected)
tail_exponent = st.floats(min_value=0.55, max_value=3.0).filter(lambda e: e != 1.0)


def trig_polys(max_harmonics=3):
    return st.builds(
        TrigPoly,
        period=st.just(TWO_PI),
        cos_coeffs=st.lists(coeff, max_size=max_harmonics).map(tuple),
        sin_coeffs=st.lists(coeff, max_size=max_harmonics).map(tuple),
        constant=coeff,
    )


def restoring_leaves():
    return st.one_of(
        st.builds(Constant, c=coeff),
        st.builds(Arctan, scale=coeff),
        st.builds(AlgebraicTail, c=coeff, e=tail_exponent),
        st.builds(Rational1, c=coeff),
    )


def restoring_specs():
    return st.recursive(
        restoring_leaves(),
        lambda inner: st.one_of(
            st.builds(Scaled, k=coeff, child=inner),
            st.lists(inner, min_size=1, max_size=3).map(
                lambda chs: Sum(tuple(chs))),
        ),
        max_leaves=6,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_known_values():
    assert fx.evaluate(Arctan(), 1.0) == pytest.approx(math.pi / 4)
    assert fx.evaluate(Arctan(scale=-2.0), 1.0) == pytest.approx(-math.pi / 2)
    assert fx.evaluate(AlgebraicTail(2.0, 1.0), 1.0) == pytest.approx(1.0)
    assert fx.evaluate(Rational1(3.0), 2.0) == pytest.approx(6.0 / 5.0)
    p = TrigPoly(TWO_PI, (1.0, 0.5), (0.25,))
    t = 0.7
    expected = math.cos(t) + 0.5 * math.cos(2 * t) + 0.25 * math.sin(t)
    assert fx.evaluate(p, t) == pytest.approx(expected, rel=1e-15)
    combo = Sum((Scaled(2.0, Arctan()), Constant(1.0)))
    assert fx.evaluate(combo, 1.0) == pytest.approx(math.pi / 2 + 1.0)


@given(restoring_specs(), st.floats(min_value=-50.0, max_value=50.0))
def test_compiled_matches_evaluate(spec, x):
    f = fx.compile_scalar(spec)
    assert f(x) == pytest.approx(fx.evaluate(spec, x), rel=1e-14, abs=1e-14)


def test_evaluate_vectorized():
    xs = np.linspace(-10.0, 10.0, 41)
    spec = Sum((Arctan(0.5), AlgebraicTail(1.0, 0.75)))
    vec = fx.evaluate(spec, xs)
    pointwise = np.array([fx.evaluate(spec, float(x)) for x in xs])
    npt.assert_allclose(vec, pointwise, rtol=1e-15)


# ---------------------------------------------------------------------------
# the walk over g: potential, even part, limits
# ---------------------------------------------------------------------------

def _potential(spec):
    return fx.restoring_parts(spec).potential


@given(restoring_specs(),
       st.floats(min_value=-20.0, max_value=20.0))
def test_antiderivative_differentiates_back(spec, x):
    G = _potential(spec)
    step = 1e-5 * max(1.0, abs(x))
    approx = (fx.evaluate(G, x + step) - fx.evaluate(G, x - step)) / (2 * step)
    assert approx == pytest.approx(fx.evaluate(spec, x), rel=1e-5, abs=1e-5)
    assert fx.evaluate(G, 0.0) == 0.0


def test_arctan_antiderivative_closed_form():
    G = _potential(Arctan(1.5))
    for x in (-3.0, -0.5, 0.0, 1.0, 7.0):
        expected = 1.5 * (x * math.atan(x) - 0.5 * math.log1p(x * x))
        assert fx.evaluate(G, x) == pytest.approx(expected, rel=1e-14, abs=1e-15)


def test_tail_antiderivative_closed_form():
    c, e = 2.0, 0.75
    G = _potential(AlgebraicTail(c, e))
    k = c / (2.0 * (1.0 - e))
    for x in (-4.0, 0.3, 10.0):
        expected = k * ((1.0 + x * x) ** (1.0 - e) - 1.0)
        assert fx.evaluate(G, x) == pytest.approx(expected, rel=1e-13)


def test_unit_exponent_tail_rejected():
    with pytest.raises(UnsupportedExponentError):
        fx.restoring_parts(AlgebraicTail(1.0, 1.0))


def test_rational1_antiderivative_is_log():
    G = _potential(Rational1(2.0))
    assert fx.evaluate(G, 3.0) == pytest.approx(math.log(10.0), rel=1e-14)


def test_trig_derivative():
    p = TrigPoly(TWO_PI, (1.0,), (2.0,), 0.5)
    dp = fx.derivative_periodic(p)
    for t in (0.1, 1.3, 4.0):
        expected = -math.sin(t) + 2.0 * math.cos(t)
        assert fx.evaluate(dp, t) == pytest.approx(expected, rel=1e-13)


def _limits(spec):
    parts = fx.restoring_parts(spec)
    return (parts.lo, parts.hi)


def test_limits_at_infinity():
    assert _limits(Arctan()) == (-math.pi / 2, math.pi / 2)
    assert _limits(AlgebraicTail(5.0, 0.8)) == (0.0, 0.0)
    assert _limits(Constant(2.0)) == (2.0, 2.0)
    lo, hi = _limits(Sum((Arctan(), Constant(1.0))))
    assert (lo, hi) == pytest.approx((1.0 - math.pi / 2, 1.0 + math.pi / 2))


def test_negative_scale_keeps_limit_order():
    # the pair is positionally (limit at -inf, limit at +inf) even when
    # scaling flips the ordering of the two values
    lo, hi = _limits(Scaled(-1.0, Arctan()))
    assert lo == pytest.approx(math.pi / 2)
    assert hi == pytest.approx(-math.pi / 2)
    gap = make_system(1, Scaled(-2.0, Arctan())).gap
    assert gap == pytest.approx(-2.0 * math.pi)


def test_limits_reject_periodic():
    with pytest.raises(InadmissibleFunctionError):
        fx.restoring_parts(TrigPoly(TWO_PI, (1.0,), ()))


# ---------------------------------------------------------------------------
# periodic helpers
# ---------------------------------------------------------------------------

def test_harmonic_extraction():
    p = TrigPoly(TWO_PI, (1.0, 0.0, 3.0), (0.5,))
    assert fx.harmonic(p, 1) == (1.0, 0.5)
    assert fx.harmonic(p, 3) == (3.0, 0.0)
    assert fx.harmonic(p, 7) == (0.0, 0.0)


def test_split_even_linear():
    # the constant 0.3 of g is the potential's whole linear term
    s = make_system(1, Sum((Arctan(), Constant(0.3))))
    G, even, k = s.potential, s.even_potential, 0.3
    for x in (0.7, 2.5, 9.0):
        total = fx.evaluate(G, x)
        assert fx.evaluate(even, x) + k * x == pytest.approx(total, rel=1e-13)
        assert fx.evaluate(even, x) == pytest.approx(
            fx.evaluate(even, -x), rel=1e-13)


def test_even_part_structure():
    # Linear terms go, a lone survivor is unwrapped, Scaled factors stay
    arctan = _potential(Arctan())
    parts = fx.restoring_parts(Scaled(2.0, Sum((Constant(1.0), Arctan()))))
    assert parts.even_potential == Scaled(2.0, arctan)
    assert fx.restoring_parts(Sum((Constant(1.0), Scaled(3.0, Constant(2.0))))
                              ).even_potential is None
    assert make_system(1, Constant(0.0)).even_potential is None


def test_periodic_period_consistency():
    spec = Sum((TrigPoly(TWO_PI, (1.0,), ()), TrigPoly(TWO_PI, (), (2.0,))))
    assert make_system(1, Arctan(), psi=spec).psi.period == TWO_PI
    mixed = Sum((TrigPoly(TWO_PI, (1.0,), ()), TrigPoly(1.0, (1.0,), ())))
    with pytest.raises(InadmissibleFunctionError, match=r"psi\.terms\[1\]\.period"):
        make_system(1, Arctan(), psi=mixed)


# ---------------------------------------------------------------------------
# config round trips
# ---------------------------------------------------------------------------

@given(st.one_of(restoring_specs(), trig_polys()))
def test_spec_config_round_trip(spec):
    blob = json.dumps(fx.spec_to_config(spec))
    assert fx.spec_from_config(json.loads(blob)) == spec


def test_config_errors_carry_paths():
    with pytest.raises(SpecValidationError, match="unknown kind"):
        fx.spec_from_config({"c": 1.0})
    with pytest.raises(SpecValidationError, match="g: missing key 'scale'"):
        fx.spec_from_config({"kind": "arctan"}, path="g")
    with pytest.raises(SpecValidationError, match="e > 1/2"):
        fx.spec_from_config({"kind": "algebraic_tail", "c": 1.0, "e": 0.25})


@pytest.mark.parametrize("node", [
    {"kind": "constant", "c": 1.0},
    {"kind": "arctan", "scale": 1.0},
    {"kind": "algebraic_tail", "c": 1.0, "e": 1.5},
    {"kind": "trig_poly", "period": 1.0, "cos": [1.0], "sin": [], "constant": 0.5},
    {"kind": "rational1", "c": 1.0},
    {"kind": "sum", "terms": [{"kind": "arctan", "scale": 1.0}]},
    {"kind": "scaled", "k": 2.0, "child": {"kind": "arctan", "scale": 1.0}},
])
def test_unknown_node_key_is_named(node):
    fx.spec_from_config(node, path="g")
    with pytest.raises(SpecValidationError, match=r"^g\.extra: unknown key"):
        fx.spec_from_config(dict(node, extra=0.0), path="g")


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------

def test_make_system_guards():
    with pytest.raises(SpecValidationError):
        make_system(0, Arctan())
    with pytest.raises(SpecValidationError):
        make_system(True, Arctan())
    with pytest.raises(SpecValidationError, match=r"system\.n: expected an integer"):
        make_system(fx.MAX_N + 1, Arctan())
    assert make_system(fx.MAX_N, Arctan()).n == fx.MAX_N
    with pytest.raises(InadmissibleFunctionError):
        make_system(1, TrigPoly(TWO_PI, (1.0,), ()))
    with pytest.raises(InadmissibleFunctionError):
        make_system(1, Arctan(), p=TrigPoly(1.0, (1.0,), ()))
    with pytest.raises(InadmissibleFunctionError):
        make_system(1, Arctan(), p=TrigPoly(TWO_PI, (1.0,), (), constant=1.0))


def test_make_system_normalizes_psi():
    s = make_system(1, Arctan(),
                    psi=Sum((Constant(3.0), TrigPoly(TWO_PI, (1.0,), ()))))
    ts = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    assert abs(float(np.mean(fx.evaluate(s.psi, ts)))) < 1e-14
    # psi_prime really is the derivative
    for x in (0.2, 1.1):
        step = 1e-6
        diff = (fx.evaluate(s.psi, x + step)
                - fx.evaluate(s.psi, x - step)) / (2 * step)
        assert fx.evaluate(s.psi_prime, x) == pytest.approx(diff, rel=1e-8)


@given(trig_polys())
def test_single_poly_psi_builds_unchanged(tp):
    # the tuples pass through as given, trailing zeros and -0.0 included;
    # only the constant goes, and all-zero harmonics leave TrigPoly(period)
    if all(v == 0.0 for v in tp.cos_coeffs + tp.sin_coeffs):
        want = TrigPoly(tp.period)
    else:
        want = TrigPoly(tp.period, tp.cos_coeffs, tp.sin_coeffs, 0.0)
    s = make_system(1, Arctan(), psi=tp)
    assert repr(s.psi) == repr(want)


def test_composite_psi_is_summed_into_one_poly():
    tree = Sum((Constant(3.0),
                Scaled(2.0, TrigPoly(TWO_PI, (0.5, 0.25), (1.0,), constant=1.0)),
                TrigPoly(TWO_PI, (0.1,), (0.0, -0.3))))
    s = make_system(1, Arctan(), psi=tree)
    assert isinstance(s.psi, TrigPoly) and s.psi.constant == 0.0
    xs = np.linspace(-10.0, 10.0, 401)
    mean = 3.0 + 2.0 * 1.0  # the tree's constants
    npt.assert_allclose(fx.evaluate(s.psi, xs), fx.evaluate(tree, xs) - mean,
                        rtol=0.0, atol=1e-14)
    echo = json.loads(json.dumps(fx.system_to_config(s), sort_keys=True))
    assert echo["psi"]["kind"] == "trig_poly"
    again = fx.system_from_config(echo)
    assert again == s
    assert again.system_id() == s.system_id()


def test_system_config_round_trip_and_id():
    s = make_system(2, Sum((Arctan(), AlgebraicTail(1.0, 1.5))),
                    psi=TrigPoly(TWO_PI, (0.5,), ()),
                    p=TrigPoly(TWO_PI, (), (1.0, 0.25)))
    blob = json.dumps(fx.system_to_config(s), sort_keys=True)
    s2 = fx.system_from_config(json.loads(blob))
    assert s2 == s
    assert s2.system_id() == s.system_id()
    other = make_system(1, Arctan())
    assert other.system_id() != s.system_id()

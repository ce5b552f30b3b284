"""The generated evaluators against the hand-written references, bit for bit.

_dopri5_reference.py keeps the evaluators and the integrator as they were
before they were generated from scalar_source: the ladder of the old
evaluate, the closure compile_scalar, the RHS built from it and the
hand-written Dormand-Prince loop.  Outcomes are compared through repr, so
every float must match to the last bit (nan included) and every exception
must carry the same type, message and details.  The reference integrates
in the lab frame, so the comparisons run every system, psi' = 0 included,
on the lab-frame kernel; the rotating-frame kernel that psi' = 0 systems
get is held to the lab kernel's accuracy in test_dynamics.py.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _dopri5_reference as ref
from test_functions import coeff, restoring_leaves, restoring_specs, trig_polys
from duffinglab import dynamics
from duffinglab import functions as fx
from duffinglab.actionangle import PhaseState
from duffinglab.errors import (
    ArithmeticFailureError,
    SolverFailureError,
    StiffnessFailureError,
)
from duffinglab.functions import (
    Arctan,
    Rational1,
    Scaled,
    Sum,
    TrigPoly,
    make_system,
)
from duffinglab.harness import scenario_system

TWO_PI = 2.0 * math.pi


def forcings():
    return st.builds(
        TrigPoly,
        period=st.just(TWO_PI),
        cos_coeffs=st.lists(coeff, max_size=3).map(tuple),
        sin_coeffs=st.lists(coeff, max_size=3).map(tuple),
    )


def restoring_forces():
    return st.one_of(
        restoring_specs(),
        st.lists(restoring_leaves(), min_size=4, max_size=6).map(
            lambda chs: Sum(tuple(chs))),
        st.builds(Scaled, k=coeff, child=restoring_specs()),
    )


def _potential(g):
    return fx.restoring_parts(g).potential


def systems():
    return st.builds(
        make_system,
        n=st.integers(min_value=1, max_value=3),
        g=restoring_forces(),
        psi=trig_polys(max_harmonics=4),
        p=forcings(),
    )


tolerances = st.floats(min_value=-14.0, max_value=-6.0).map(
    lambda e: min(max(10.0 ** e, dynamics.TOL_MIN), dynamics.TOL_MAX))
positions = st.floats(min_value=-60.0, max_value=60.0)
# forward and backward spans of up to one forcing period
spans = st.tuples(st.floats(min_value=0.05, max_value=TWO_PI), st.booleans()).map(
    lambda pair: pair[0] if pair[1] else -pair[0])


def _outcome(call):
    try:
        return repr(call())
    except Exception as exc:
        return repr((type(exc).__name__, exc.args, getattr(exc, "details", None)))


@pytest.fixture
def small_budget(monkeypatch):
    """A step budget of 40 in the reference and in kernels built from now on."""
    monkeypatch.setitem(dynamics._TABLEAU, "MAX_STEPS", 40)
    monkeypatch.setattr(ref, "MAX_STEPS", 40)


def _reference(system, t0, x0, y0, t1, tol):
    return _outcome(lambda: ref._dopri5(ref._make_rhs(system), t0, x0, y0, t1, tol))


def _lab_kernel(system):
    return dynamics._compile_kernel(dynamics._lab_frame(system))


def _kernel_level(system, t0, x0, y0, t1, tol):
    # the kernel alone, before integrate_with_stats maps float exceptions
    def call():
        x, y, steps, rejected, worst = _lab_kernel(system)(t0, x0, y0, t1, tol)
        return x, y, dynamics.IntegratorStats(steps, rejected, worst * tol)
    return _outcome(call)


def _generated(system, t0, x0, y0, t1, tol):
    # integrate_with_stats on the lab kernel, kept on the system in place
    # of the one its psi would pick
    vars(system)["_dopri5_kernel"] = (_lab_kernel(system), 1.0)

    def call():
        state, stats = dynamics.integrate_with_stats(
            system, PhaseState(x=x0, y=y0, t=t0), t1, tol)
        return state.x, state.y, stats
    return _outcome(call)


@settings(max_examples=100)
@given(systems(), positions, positions,
       st.floats(min_value=-10.0, max_value=10.0),
       spans, tolerances)
def test_kernel_matches_reference(system, x0, y0, t0, span, tol):
    args = (system, t0, x0, y0, t0 + span, tol)
    assert _generated(*args) == _reference(*args)


@given(st.one_of(restoring_forces(), restoring_forces().map(_potential),
                 trig_polys(max_harmonics=4)),
       st.floats(min_value=-1.0e3, max_value=1.0e3))
def test_compile_scalar_matches_reference(spec, x):
    assert repr(fx.compile_scalar(spec)(x)) == repr(ref.compile_scalar(spec)(x))


@given(st.one_of(restoring_specs(), restoring_specs().map(_potential),
                 trig_polys(max_harmonics=4)),
       st.one_of(st.floats(), st.lists(st.floats(), max_size=8).map(np.array)))
def test_evaluate_matches_reference(spec, x):
    # evaluate raises on an invalid operation or an overflow: exactly where
    # the reference meets one under the same errstate
    try:
        with np.errstate(invalid="raise", over="raise"):
            want = ref.evaluate(spec, x)
    except FloatingPointError:
        with pytest.raises(ArithmeticFailureError):
            fx.evaluate(spec, x)
        return
    got = fx.evaluate(spec, x)
    assert type(got) is type(want)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_behave_as_reference(bad, small_budget):
    # the library API (unlike a config file) accepts non-finite numbers;
    # the kernel spells them by name instead of failing on a repr literal.
    # A nan step size never shrinks, so such runs end on the step budget.
    cases = [
        make_system(1, Arctan(bad), p=TrigPoly(TWO_PI, (4.0,), ())),
        make_system(1, Sum((Arctan(), Rational1(bad))),
                    p=TrigPoly(TWO_PI, (2.0,), ())),
        make_system(1, Arctan(), p=TrigPoly(TWO_PI, (bad,), ())),
    ]
    for system in cases:
        args = (system, 0.0, 10.0, 0.0, TWO_PI, 1.0e-9)
        want = _reference(*args)
        assert _kernel_level(*args) == want
        if "ZeroDivisionError" in want:  # inf slope: the initial step is 0
            assert ArithmeticFailureError.__name__ in _generated(*args)
        else:
            assert _generated(*args) == want


def test_step_budget_failure_matches_reference(small_budget):
    system = scenario_system("ll-bounded")
    for span in (TWO_PI, -TWO_PI):
        args = (system, 0.0, 100.0, 0.0, span, 1.0e-12)
        got = _generated(*args)
        assert got == _reference(*args)
        assert SolverFailureError.__name__ in got


def test_stiffness_failure_matches_reference():
    system = make_system(1, Sum((Arctan(), Rational1(1.0e20))),
                         p=TrigPoly(TWO_PI, (2.0,), ()))
    for t1 in (TWO_PI, -TWO_PI):
        args = (system, 0.0, 10.0, 1.0, t1, 1.0e-9)
        got = _generated(*args)
        assert got == _reference(*args)
        assert StiffnessFailureError.__name__ in got


def _rotating(system, x0, y0, t1):
    # integrate_with_stats on the kernel psi' = 0 picks
    assert not any(system.psi_prime.cos_coeffs + system.psi_prime.sin_coeffs)
    return dynamics.integrate_with_stats(
        system, PhaseState(x=x0, y=y0, t=0.0), t1, 1.0e-9)


def test_rotating_kernel_stiffness_failure():
    system = make_system(1, Sum((Arctan(), Rational1(1.0e20))),
                         p=TrigPoly(TWO_PI, (2.0,), ()))
    for t1 in (TWO_PI, -TWO_PI):
        with pytest.raises(StiffnessFailureError):
            _rotating(system, 10.0, 1.0, t1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rotating_kernel_non_finite_coefficients_fail_numerically(bad):
    # at the default budget of 10^6 steps.  The rotating frame has no zero
    # initial step to divide by: a non-finite force makes the initial step
    # nan, which never underflows MIN_STEP, so without the check before
    # the loop each run would spend the whole budget
    for system in (
        make_system(1, Arctan(bad), p=TrigPoly(TWO_PI, (4.0,), ())),
        make_system(1, Sum((Arctan(), Rational1(bad))),
                    p=TrigPoly(TWO_PI, (2.0,), ())),
        make_system(1, Arctan(), p=TrigPoly(TWO_PI, (bad,), ())),
    ):
        with pytest.raises(ArithmeticFailureError, match="non-finite initial step"):
            _rotating(system, 10.0, 0.0, TWO_PI)
        with pytest.raises(ArithmeticFailureError, match="non-finite initial step"):
            _rotating(system, 0.0, 3.0, -TWO_PI)


def test_kernel_follows_psi():
    # ll-bounded (psi' != 0) keeps the lab kernel, bit for bit the
    # reference; ding (psi' = 0) runs the rotating kernel at the scaled
    # tol, and its error estimate is stated in that tol
    s0 = PhaseState(x=30.0, y=0.0, t=0.0)
    lab = scenario_system("ll-bounded")
    state, stats = dynamics.integrate_with_stats(lab, s0, TWO_PI, 1.0e-9)
    assert repr((state.x, state.y, stats)) == _reference(
        lab, 0.0, 30.0, 0.0, TWO_PI, 1.0e-9)
    ding = scenario_system("ding")
    rotating = dynamics._compile_kernel(dynamics._rotating_frame(ding))
    for tol, run_tol in ((1.0e-9, 1.0e-9 * dynamics._ROTATING_TOL_SCALE),
                         (1.0e-14, dynamics.TOL_MIN)):
        x, y, steps, rejected, worst = rotating(0.0, 30.0, 0.0, TWO_PI, run_tol)
        assert dynamics.integrate_with_stats(ding, s0, TWO_PI, tol) == (
            PhaseState(x=x, y=y, t=TWO_PI),
            dynamics.IntegratorStats(steps, rejected, worst * run_tol))


def test_scenario_strobes_match_reference():
    for name, I0 in (("ding", 25.0), ("ll-bounded", 1.0e4),
                     ("critical-pair-below", 1.0e4),
                     ("critical-pair-above", 1.0e4)):
        system = scenario_system(name)
        x, y, t = math.sqrt(2.0 * I0), 0.0, 0.0
        for _ in range(5):
            args = (system, t, x, y, t + TWO_PI, 1.0e-9)
            assert _generated(*args) == _reference(*args)
            zero_span = (system, t, x, y, t, 1.0e-9)
            assert _generated(*zero_span) == _reference(*zero_span)
            x, y, _ = ref._dopri5(ref._make_rhs(system), t, x, y, t + TWO_PI, 1.0e-9)
            t += TWO_PI


def test_kernel_built_lazily_once_per_system():
    system = scenario_system("ding")
    assert "_dopri5_kernel" not in vars(system)
    dynamics.integrate(system, PhaseState(x=5.0, y=0.0, t=0.0), 1.0, 1.0e-9)
    kernel = vars(system)["_dopri5_kernel"]
    dynamics.integrate(system, PhaseState(x=5.0, y=0.0, t=0.0), 2.0, 1.0e-9)
    assert vars(system)["_dopri5_kernel"] is kernel


def test_numpy_state_is_coerced_to_float():
    system = scenario_system("critical-pair-above")
    x0 = math.sqrt(2.0e4)
    plain = PhaseState(x=x0, y=0.0, t=0.0)
    numpy = PhaseState(x=np.float64(x0), y=np.float64(0.0), t=np.float64(0.0))
    a, sa = dynamics.integrate_with_stats(system, plain, TWO_PI, 1.0e-9)
    b, sb = dynamics.integrate_with_stats(system, numpy, np.float64(TWO_PI), 1.0e-9)
    assert repr((a, sa)) == repr((b, sb))
    assert all(type(v) is float for v in (b.x, b.y, b.t, sb.max_error_estimate))

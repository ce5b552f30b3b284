"""Long-horizon integration, strobe orbits, classification.

The equation is integrated in the symmetric first-order form x' = n y,
y' = -n x - (g(x) + psi'(x) - p(t)) / n with an adaptive Dormand-Prince
5(4) pair.  Each system gets one generated kernel, the step loop with its
RHS inlined, compiled on the system's first integration and kept on the
system object.  When psi' = 0 the kernel integrates instead in the frame
that turns with the free oscillator, where only the slow drift of g and
p is left to the steps; it returns the lab-frame state all the same.
Both kernels come from one template.  An orbit strobes the flow once per
forcing period 2*pi and records the action and the unwrapped rotation
angle at each strobe; on top of those iterates sits the
bounded/escaping orbit classification.  The independent orbits of a
sweep or an escape scan are spread over one forked child process per
usable CPU.
"""
from __future__ import annotations

import math
import os
import pickle
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .actionangle import PhaseState
from .errors import (
    ArithmeticFailureError,
    DegenerateStateError,
    DuffingLabError,
    FitDegenerateError,
    SolverFailureError,
    SpecValidationError,
    StiffnessFailureError,
)
from .fitting import DecayFit, loglog_fit
from .functions import (
    SCALAR_NAMESPACE,
    literal,
    scalar_source,
    times_source,
)

TWO_PI = 2.0 * math.pi

TOL_MIN = 1.0e-14
TOL_MAX = 1.0e-6
ESCAPE_CEILING = 1.0e12
MAX_STEPS = 1_000_000
MIN_STEP = 1.0e-14

# Dormand-Prince 5(4) tableau; row 7 doubles as the 5th-order weights so
# stage 7 is the derivative at the accepted point (FSAL).  Each system's
# kernel is generated from _KERNEL_TEMPLATE with these values as literals.
_TABLEAU = dict(
    A21=1.0 / 5.0,
    A31=3.0 / 40.0, A32=9.0 / 40.0,
    A41=44.0 / 45.0, A42=-56.0 / 15.0, A43=32.0 / 9.0,
    A51=19372.0 / 6561.0, A52=-25360.0 / 2187.0, A53=64448.0 / 6561.0,
    A54=-212.0 / 729.0,
    A61=9017.0 / 3168.0, A62=-355.0 / 33.0, A63=46732.0 / 5247.0,
    A64=49.0 / 176.0, A65=-5103.0 / 18656.0,
    A71=35.0 / 384.0, A73=500.0 / 1113.0, A74=125.0 / 192.0,
    A75=-2187.0 / 6784.0, A76=11.0 / 84.0,
    C2=1.0 / 5.0, C3=3.0 / 10.0, C4=4.0 / 5.0, C5=8.0 / 9.0,
    E1=71.0 / 57600.0, E3=-71.0 / 16695.0, E4=71.0 / 1920.0,
    E5=-17253.0 / 339200.0, E6=22.0 / 525.0, E7=-1.0 / 40.0,
    SAFE=0.9, BETA=0.04, EXPO=0.2 - 0.75 * 0.04,
    MAX_STEPS=MAX_STEPS, MIN_STEP=MIN_STEP,
)

# Adaptive 5(4) integration of a pair (x, y) from t0 to t1.  Error per
# step is measured against the scales scx, scy in the mixed
# absolute/relative norm with both tolerances equal to tol; the step
# controller is the standard proportional-integral rule with growth held
# back right after a rejection.  Every RHS evaluation binds (ts, xs, ys).
# A line "@hook arg ..." stands for the lines a _Frame's hook gives, and
# goes away when it gives none.
# Returns (x, y, accepted, rejected, worst error).
_KERNEL_TEMPLATE = """
def kernel(t0, x0, y0, t1, tol):
    span = abs(t1 - t0)
    if span == 0.0:
        return x0, y0, 0, 0, 0.0
    direction = 1.0 if t1 > t0 else -1.0
    t, x, y = t0, x0, y0
    ts, xs, ys = t, x, y
    @rhs fx fy

    # initial step size
    @scale x0 y0
    d0 = sqrt(0.5 * ((x0 / scx) ** 2 + (y0 / scy) ** 2))
    d1 = sqrt(0.5 * ((fx / scx) ** 2 + (fy / scy) ** 2))
    h0 = 1.0e-6 if (d0 < 1.0e-5 or d1 < 1.0e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    ts = t0 + direction * h0
    xs = x0 + direction * h0 * fx
    ys = y0 + direction * h0 * fy
    @rhs k2x k2y
    d2 = sqrt(0.5 * (((k2x - fx) / scx) ** 2 + ((k2y - fy) / scy) ** 2)) / h0
    if max(d1, d2) <= 1.0e-15:
        h1 = max(1.0e-6, h0 * 1.0e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = direction * min(100.0 * h0, h1, span)
    @start

    facold = 1.0e-4
    rejected_last = False
    n_accept = 0
    n_reject = 0
    worst = 0.0
    while (t1 - t) * direction > 0.0:
        if n_accept + n_reject > {MAX_STEPS}:
            raise SolverFailureError(
                "step budget exhausted", t=t, steps=n_accept + n_reject)
        if abs(h) < {MIN_STEP}:
            raise StiffnessFailureError("step size underflow", t=t, step=h)
        if (t + h - t1) * direction > 0.0:
            h = t1 - t

        ts = t + {C2} * h
        xs = x + h * {A21} * fx
        ys = y + h * {A21} * fy
        @rhs k2x k2y
        ts = t + {C3} * h
        xs = x + h * ({A31} * fx + {A32} * k2x)
        ys = y + h * ({A31} * fy + {A32} * k2y)
        @rhs k3x k3y
        ts = t + {C4} * h
        xs = x + h * ({A41} * fx + {A42} * k2x + {A43} * k3x)
        ys = y + h * ({A41} * fy + {A42} * k2y + {A43} * k3y)
        @rhs k4x k4y
        ts = t + {C5} * h
        xs = x + h * ({A51} * fx + {A52} * k2x + {A53} * k3x + {A54} * k4x)
        ys = y + h * ({A51} * fy + {A52} * k2y + {A53} * k3y + {A54} * k4y)
        @rhs k5x k5y
        ts = t + h
        xs = x + h * ({A61} * fx + {A62} * k2x + {A63} * k3x
                      + {A64} * k4x + {A65} * k5x)
        ys = y + h * ({A61} * fy + {A62} * k2y + {A63} * k3y
                      + {A64} * k4y + {A65} * k5y)
        @rhs k6x k6y
        xn = x + h * ({A71} * fx + {A73} * k3x + {A74} * k4x
                      + {A75} * k5x + {A76} * k6x)
        yn = y + h * ({A71} * fy + {A73} * k3y + {A74} * k4y
                      + {A75} * k5y + {A76} * k6y)
        xs, ys = xn, yn
        @rhs k7x k7y

        ex = h * ({E1} * fx + {E3} * k3x + {E4} * k4x
                  + {E5} * k5x + {E6} * k6x + {E7} * k7x)
        ey = h * ({E1} * fy + {E3} * k3y + {E4} * k4y
                  + {E5} * k5y + {E6} * k6y + {E7} * k7y)
        @scale x y xn yn
        err = sqrt(0.5 * ((ex / scx) ** 2 + (ey / scy) ** 2))

        fac11 = err ** {EXPO}
        if err <= 1.0:
            t = t + h
            x, y = xn, yn
            fx, fy = k7x, k7y
            n_accept += 1
            worst = max(worst, err)
            fac = fac11 / facold ** {BETA}
            fac = max(0.1, min(5.0, fac / {SAFE}))
            hnew = h / fac
            if rejected_last:
                hnew = direction * min(abs(hnew), abs(h))
            facold = max(err, 1.0e-4)
            h = hnew
            rejected_last = False
        else:
            h = h / min(5.0, fac11 / {SAFE})
            n_reject += 1
            rejected_last = True
    @return
"""


@dataclass(frozen=True)
class IntegratorStats:
    steps: int
    rejected: int
    max_error_estimate: float


def _merge_stats(a: IntegratorStats, b: IntegratorStats) -> IntegratorStats:
    return IntegratorStats(
        steps=a.steps + b.steps,
        rejected=a.rejected + b.rejected,
        max_error_estimate=max(a.max_error_estimate, b.max_error_estimate),
    )


def _largest(terms: list) -> str:
    return terms[0] if len(terms) == 1 else f"max({', '.join(terms)})"


class _Frame(NamedTuple):
    """The hooks that make _KERNEL_TEMPLATE one system's kernel.

    rhs(kx, ky) gives the lines that set kx, ky to the derivative at
    (ts, xs, ys); scale(x, y, ...) the lines that set the error scales
    scx, scy from the states named; start() the lines run once between
    the initial step size h and the step loop; ret() the lines that
    return the lab-frame (x, y) at t1 and the counts.  The kernel runs
    at the caller's tol times tol_scale, clamped at TOL_MIN.
    """

    rhs: Callable
    scale: Callable
    start: Callable
    ret: Callable
    tol_scale: float


def _lab_frame(system) -> _Frame:
    """x' = n y, y' = -n x - (g(x) + psi'(x) - p(t)) / n, with n, 1/n and
    each function's scalar_source inlined, and an error scale per
    component."""
    n = float(system.n)
    force = (f"{scalar_source(system.g, 'xs')} + "
             f"{scalar_source(system.psi_prime, 'xs')} - "
             f"{scalar_source(system.p, 'ts')}")
    fx = times_source(n, "ys")
    fy = f"{literal(-n)} * xs - {times_source(1.0 / n, f'({force})')}"

    def scale(*names):
        return [f"sc{axis} = tol + tol * "
                f"{_largest([f'abs({v})' for v in names[i::2]])}"
                for i, axis in enumerate("xy")]

    return _Frame(
        rhs=lambda kx, ky: [f"{kx} = {fx}", f"{ky} = {fy}"],
        scale=scale,
        start=lambda: [],
        ret=lambda: ["return x, y, n_accept, n_reject, worst"],
        tol_scale=1.0,
    )


# The rotating kernel runs at this fraction of the caller's tol: at equal
# tol its strobe errors reach about 20x the lab kernel's on some systems,
# and at 0.3 the worst of them stays within 3x (tests/test_dynamics.py
# test_rotating_kernel_accuracy) while it still takes about a third fewer
# steps on the critical pair.
_ROTATING_TOL_SCALE = 0.3


def _rotating_frame(system) -> _Frame:
    """The frame that turns with the free oscillator, for psi' = 0.

    With tau = t - t0, the state is u = (a, b), x = a cos n tau + b sin n
    tau and y = -a sin n tau + b cos n tau, so
    u' = (sin n tau, -cos n tau) (g(x) - p(t)) / n.  The fast rotation is
    exact and the steps follow only the drift of u.  The error scale
    tol + tol * |u| is the same on both components, so it does not turn
    with the frame.
    """
    n = float(system.n)
    force = f"{scalar_source(system.g, 'xl')} - {scalar_source(system.p, 'ts')}"

    def turn(t):
        angle = times_source(n, f"({t} - t0)")
        return [f"cn = cos({angle})", f"sn = sin({angle})"]

    def rhs(kx, ky):
        return turn("ts") + [
            "xl = xs * cn + ys * sn",
            f"force = {times_source(1.0 / n, f'({force})')}",
            f"{kx} = sn * force",
            f"{ky} = -cn * force",
        ]

    def scale(*names):
        sizes = [f"hypot({x}, {y})" for x, y in zip(names[::2], names[1::2])]
        return [f"scx = scy = tol + tol * {_largest(sizes)}"]

    # At tau = 0, where sin n tau = 0, a non-finite force gives a nan
    # derivative and so a nan h; a nan step never underflows MIN_STEP and
    # would spend the whole step budget.
    def start():
        return ["if not isfinite(h):",
                "    raise ArithmeticFailureError(",
                "        'non-finite initial step: the force is not finite', t=t0)"]

    return _Frame(
        rhs=rhs,
        scale=scale,
        start=start,
        ret=lambda: turn("t1") + [
            "return x * cn + y * sn, y * cn - x * sn, n_accept, n_reject, worst"],
        tol_scale=_ROTATING_TOL_SCALE,
    )


# a hook line of _KERNEL_TEMPLATE: indent, "@", hook name, its arguments,
# and the line's end
_HOOK_LINE = re.compile(r"^( *)@(\w+)(.*)\n", re.MULTILINE)


def _compile_kernel(frame: _Frame) -> Callable:
    """_KERNEL_TEMPLATE with the tableau as literals and each hook line
    replaced by the frame's lines, compiled."""
    hooks = {"rhs": frame.rhs, "scale": frame.scale, "start": frame.start,
             "return": frame.ret}
    source = _HOOK_LINE.sub(
        lambda m: "".join(f"{m[1]}{line}\n" for line in hooks[m[2]](*m[3].split())),
        _KERNEL_TEMPLATE.format(
            **{name: literal(v) for name, v in _TABLEAU.items()}))
    namespace = dict(SCALAR_NAMESPACE, sqrt=math.sqrt, hypot=math.hypot,
                     isfinite=math.isfinite,
                     ArithmeticFailureError=ArithmeticFailureError,
                     SolverFailureError=SolverFailureError,
                     StiffnessFailureError=StiffnessFailureError)
    exec(compile(source, "<dopri5 kernel>", "exec"), namespace)
    return namespace["kernel"]


def _build_kernel(system) -> tuple:
    """(kernel, tol scale) of one system: the rotating frame when psi' has
    no nonzero coefficient, the lab frame otherwise."""
    psi_prime = system.psi_prime
    rotating = not any(psi_prime.cos_coeffs + psi_prime.sin_coeffs)
    frame = (_rotating_frame if rotating else _lab_frame)(system)
    return _compile_kernel(frame), frame.tol_scale


def _kernel(system) -> tuple:
    """The system's (kernel, tol scale), built on its first integration
    and kept on it."""
    cache = vars(system)
    kernel = cache.get("_dopri5_kernel")
    if kernel is None:
        kernel = cache["_dopri5_kernel"] = _build_kernel(system)
    return kernel


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise SpecValidationError(
            f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {tol:g}"
        )
    return tol


def _check_N(N) -> None:
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise SpecValidationError(f"N must be a positive integer, got {N!r}")


def integrate_with_stats(system, s0: PhaseState, t1: float, tol: float):
    tol = _check_tol(tol)
    kernel, tol_scale = _kernel(system)
    tol = max(tol * tol_scale, TOL_MIN)  # the tol the kernel runs at
    t0, t1 = float(s0.t), float(t1)
    try:
        x, y, steps, rejected, worst = kernel(
            t0, float(s0.x), float(s0.y), t1, tol)
    except ArithmeticError as exc:
        # float ** overflows and x / 0.0 raise instead of giving inf or nan
        raise ArithmeticFailureError(
            f"{type(exc).__name__} in the integrator: {exc}", t0=t0, t1=t1,
        ) from exc
    return PhaseState(x=x, y=y, t=t1), IntegratorStats(steps, rejected, worst * tol)


def integrate(system, s0: PhaseState, t1: float, tol: float) -> PhaseState:
    """Flow from s0 to time t1 (either direction) at tolerance tol."""
    state, _ = integrate_with_stats(system, s0, t1, tol)
    return state


# ---------------------------------------------------------------------------
# strobe orbits with angle lift
# ---------------------------------------------------------------------------

class OrbitIterate(NamedTuple):
    k: int
    I: float
    theta_lift: float
    x: float
    y: float


@dataclass(frozen=True)
class OrbitRecord:
    system_id: str
    initial: PhaseState
    iterates: tuple
    integrator_stats: IntegratorStats
    escaped: bool


def _polar(x: float, y: float) -> float:
    # the physical flow winds clockwise in (x, y); measuring the angle of
    # (x, -y) makes the linear rotation number come out +n
    return math.atan2(-y, x)


def _lift_advance(system, state, tol, expected):
    """One strobe plus the lift increment of the rotation angle.

    The increment is resolved to the branch nearest the free rotation
    2*pi*n.  A residual beyond 2.5 is ambiguous (the true increment may
    have wound past a half turn), so the strobe is re-run in quarter-turn
    sub-steps where the branch is unambiguous.
    """
    new, stats = integrate_with_stats(system, state, state.t + TWO_PI, tol)
    delta = math.remainder(_polar(new.x, new.y) - _polar(state.x, state.y)
                           - expected, TWO_PI)
    if abs(delta) <= 2.5:
        return new, expected + delta, stats
    n_sub = max(8, 4 * system.n)
    sub_expected = expected / n_sub
    advance = 0.0
    cur = state
    stats = None
    for j in range(1, n_sub + 1):
        nxt, st = integrate_with_stats(
            system, cur, state.t + TWO_PI * j / n_sub, tol)
        stats = st if stats is None else _merge_stats(stats, st)
        advance += sub_expected + math.remainder(
            _polar(nxt.x, nxt.y) - _polar(cur.x, cur.y) - sub_expected, TWO_PI)
        cur = nxt
    return cur, advance, stats


def _action(system, x: float, y: float) -> float:
    return 0.5 * system.n * (x * x + y * y)


def orbit(system, s0: PhaseState, N: int, tol: float) -> OrbitRecord:
    """N strobe iterates from s0 with action and lifted angle per iterate.

    Terminates early (escaped=True) when the action exceeds the hard
    ceiling 1e12; the record keeps whatever was computed.
    """
    _check_N(N)
    tol = _check_tol(tol)
    I0 = _action(system, s0.x, s0.y)
    if I0 == 0.0:
        raise DegenerateStateError("orbit started at the origin")
    expected = TWO_PI * system.n
    lift = _polar(s0.x, s0.y)
    iterates = [OrbitIterate(0, I0, lift, s0.x, s0.y)]
    stats = IntegratorStats(0, 0, 0.0)
    state = s0
    escaped = False
    sid = system.system_id()
    for k in range(1, N + 1):
        state, advance, st = _lift_advance(system, state, tol, expected)
        stats = _merge_stats(stats, st)
        lift += advance
        I = _action(system, state.x, state.y)
        if I == 0.0:
            raise DegenerateStateError("orbit passed through the origin", k=k)
        iterates.append(OrbitIterate(k, I, lift, state.x, state.y))
        if I > ESCAPE_CEILING:
            escaped = True
            break
    return OrbitRecord(
        system_id=sid,
        initial=s0,
        iterates=tuple(iterates),
        integrator_stats=stats,
        escaped=escaped,
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

VERDICT_BOUNDED = "BoundedEvidence"
VERDICT_ESCAPING = "Escaping"
VERDICT_UNDECIDED = "Undecided"


@dataclass(frozen=True)
class ClassificationVerdict:
    verdict: str
    max_I: float
    min_I: float
    growth_fit: Optional[DecayFit]
    horizon_strobes: int
    error: Optional[str] = None
    # classify_orbit's fit of log I against log t on the final half of the
    # record (None if degenerate) and the orbit's integrator work; both
    # None on a failed scan slot, and neither goes into the JSON
    tail_fit: Optional[DecayFit] = None
    stats: Optional[IntegratorStats] = None

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "max_I": self.max_I,
            "min_I": self.min_I,
            "horizon_strobes": self.horizon_strobes,
        }
        if self.growth_fit is not None:
            out["growth_slope"] = self.growth_fit.slope
        if self.error is not None:
            out["error"] = self.error
        return out


def _tail_fit(rec: OrbitRecord) -> Optional[DecayFit]:
    """Fit of log I against log t on the final half of a record, if any."""
    tail = rec.iterates[len(rec.iterates) // 2:]
    times = np.array([rec.initial.t + TWO_PI * it.k for it in tail])
    vals = np.array([it.I for it in tail])
    keep = times > 0.0
    try:
        return loglog_fit(times[keep], vals[keep])
    except (FitDegenerateError, ValueError):
        return None


def classify_orbit(rec: OrbitRecord, escape_factor: float = 4.0,
                   confine_factor: float = 3.0) -> ClassificationVerdict:
    """Bounded/escaping verdict from a strobe record.

    Escaping needs the action to reach escape_factor times its initial
    value and a positive growth slope of log I against log t on the
    final half of the record; BoundedEvidence needs the whole record to
    stay within confine_factor times the initial action.  Everything
    else is Undecided.  Every verdict carries that tail fit and the
    record's integrator stats; its growth_fit is the tail fit once the
    action has reached escape_factor times its start, else None.
    """
    its = rec.iterates
    I0 = its[0].I
    actions = np.array([it.I for it in its])
    max_I = float(actions.max())
    min_I = float(actions.min())
    fit = _tail_fit(rec)
    growth_fit = None
    if max_I >= escape_factor * I0:
        growth_fit = fit
        escaping = fit is not None and fit.slope > 0.0
        verdict = VERDICT_ESCAPING if escaping else VERDICT_UNDECIDED
    elif not rec.escaped and max_I <= confine_factor * I0:
        verdict = VERDICT_BOUNDED
    else:
        verdict = VERDICT_UNDECIDED
    return ClassificationVerdict(
        verdict, max_I, min_I, growth_fit, len(its) - 1,
        tail_fit=fit, stats=rec.integrator_stats)


def sweep(system, initial_grid, N: int, tol: float):
    """Orbit and classify every initial state, in input order.

    A failure on one orbit is recorded in its slot (verdict Undecided
    with the error message) and never aborts the rest.
    """
    initials = list(initial_grid)
    if not initials:
        raise SpecValidationError("initial grid must be nonempty")
    return _orbit_slots(system, initials, N, tol)


def _orbit_slot(system, s0: PhaseState, N: int,
                tol: float) -> ClassificationVerdict:
    """The classify_orbit verdict of one orbit of a scan.

    A failure fills the slot with an Undecided verdict that carries the
    error message, NaN actions, no tail fit and no stats, so it never
    aborts the rest of the scan.
    """
    try:
        return classify_orbit(orbit(system, s0, N, tol))
    except DuffingLabError as exc:
        return ClassificationVerdict(
            verdict=VERDICT_UNDECIDED, max_I=math.nan, min_I=math.nan,
            growth_fit=None, horizon_strobes=0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _orbit_slots(system, initials: list, N: int, tol: float) -> list:
    """_orbit_slot of every initial state, in input order.

    The orbits are independent, so with W >= 2 usable CPUs they run in W
    forked children: child w computes the slots of its share (_deal)
    exactly as the serial loop would and pickles them back over a pipe,
    and the parent puts each slot back at its input index.  With one usable
    CPU (e.g. under `taskset -c 0`) nothing is forked.  A child that fails
    outside _orbit_slot's own error handling makes this call raise, and no
    child outlives it.  N and tol are checked once, before any fork.
    """
    _check_N(N)
    _check_tol(tol)
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    workers = min(cpus, len(initials))
    if workers < 2:
        return [_orbit_slot(system, s0, N, tol) for s0 in initials]
    shares = _deal(len(initials), workers)
    pids = []
    reads = []  # read ends the parent has not yet taken over, else None
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            reads.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _slots_child(write_fd, reads, system,
                                 [initials[i] for i in shares[w]], N, tol)
            finally:
                os.close(write_fd)
            pids.append(pid)
        slots = [None] * len(initials)
        for w in range(workers):
            fd, reads[w] = reads[w], None
            with os.fdopen(fd, "rb") as pipe:
                payload = pipe.read()
            status = os.waitpid(pids[w], 0)[1]
            pids[w] = None
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RuntimeError(
                    f"orbit worker {w} of {workers} exited with status {code}")
            ok, part = pickle.loads(payload)
            if not ok:
                raise RuntimeError(f"orbit worker {w} of {workers} failed: {part}")
            for i, slot in zip(shares[w], part):
                slots[i] = slot
        return slots
    finally:
        # a child blocked writing to a pipe nobody reads would never exit,
        # so close the unread pipes before killing and reaping
        for fd in reads:
            if fd is not None:
                os.close(fd)
        live = [pid for pid in pids if pid is not None]
        if live:
            import signal
            for pid in live:
                os.kill(pid, signal.SIGKILL)
            for pid in live:
                os.waitpid(pid, 0)


def _deal(count: int, workers: int) -> list:
    """Input indices of each of `workers` children, dealt back and forth.

    Round r hands one index to every child, in child order when r is even
    and in reverse when odd (0, 3, 4, 7, ... and 1, 2, 5, 6, ... for two),
    so on a grid whose orbit cost rises with the index no child always
    gets the dearer end of each round.
    """
    shares = [[] for _ in range(workers)]
    for i in range(count):
        rnd, pos = divmod(i, workers)
        shares[workers - 1 - pos if rnd % 2 else pos].append(i)
    return shares


def _slots_child(write_fd, reads, system, initials, N, tol):
    """Body of one forked child of _orbit_slots; never returns.

    os._exit skips the parent's atexit handlers and never flushes the
    stdio buffers the child inherited, so nothing is written twice.
    """
    code = 1
    try:
        for fd in reads:  # every child forks before the parent reads any
            os.close(fd)
        try:
            payload = (True, [_orbit_slot(system, s0, N, tol) for s0 in initials])
        except Exception as exc:
            payload = (False, f"{type(exc).__name__}: {exc}")
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


@dataclass(frozen=True)
class EscapeScan:
    """Best escape channel over a grid of forcing phases."""

    best_phase_index: int
    best_t0: float
    best: ClassificationVerdict
    best_tail_slope: Optional[float]
    n_escaping: int
    n_positive_tail: int
    verdicts: tuple

    def to_json_dict(self) -> dict:
        return {
            "best_phase_index": self.best_phase_index,
            "best_t0": self.best_t0,
            "best": self.best.to_json_dict(),
            "best_tail_slope": self.best_tail_slope,
            "n_escaping": self.n_escaping,
            "n_positive_tail": self.n_positive_tail,
            "phases": len(self.verdicts),
        }


def critical_escape_scan(system, I0: float, phases: int, N: int,
                         tol: float) -> EscapeScan:
    """Probe escape over forcing phases t0 = 2*pi*k/phases from action I0.

    Reports the phase whose orbit climbs highest together with counts of
    escaping orbits and of positive tail growth slopes.  The expectation
    that some phase escapes is soft: it is reported, never enforced.
    """
    if isinstance(phases, bool) or not isinstance(phases, int) or phases < 32:
        raise SpecValidationError(f"need at least 32 phases, got {phases!r}")
    I0 = float(I0)
    if I0 <= 0.0:
        raise SpecValidationError(f"I0 must be positive, got {I0}")
    x0 = math.sqrt(2.0 * I0 / system.n)
    initials = [PhaseState(x=x0, y=0.0, t=TWO_PI * k / phases)
                for k in range(phases)]
    verdicts = _orbit_slots(system, initials, N, tol)
    best_idx = 0
    for k, v in enumerate(verdicts):
        best_max = verdicts[best_idx].max_I
        if not math.isnan(v.max_I) and (
                math.isnan(best_max) or v.max_I > best_max):
            best_idx = k
    n_escaping = sum(1 for v in verdicts if v.verdict == VERDICT_ESCAPING)
    n_positive = sum(
        1 for v in verdicts
        if v.growth_fit is not None and v.growth_fit.slope > 0.0
    )
    best_fit = verdicts[best_idx].tail_fit
    return EscapeScan(
        best_phase_index=best_idx,
        best_t0=TWO_PI * best_idx / phases,
        best=verdicts[best_idx],
        best_tail_slope=None if best_fit is None else best_fit.slope,
        n_escaping=n_escaping,
        n_positive_tail=n_positive,
        verdicts=tuple(verdicts),
    )

"""Experiment orchestration: configs, runners, artifacts, builtin scenarios.

An experiment is a (system, experiment name, numeric knobs, output sink)
bundle.  Runners dispatch to the module operations, and every run drops a
resolved config echo next to its artifacts so a result directory is
self-describing.  Builtin scenarios pin the canonical reproduction setups
with exact coefficients.

Determinism contract: identical configs produce byte-identical artifacts.
Everything is sequential, floats are printed with 17 significant digits,
JSON keys are sorted, and no artifact embeds a timestamp.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import conditions as cond
from . import dynamics as dyn
from . import oscillatory as osc
from .actionangle import (
    PhaseState,
    averaged_potential,
    averaged_potential_slope_check,
    normal_form_residuals,
)
from .errors import FitDegenerateError, NumericFailureError, SpecValidationError
from .fitting import geometric_grid
from .functions import (
    DuffingSystem,
    _is_finite_number,
    system_from_config,
    system_to_config,
)

TWO_PI = 2.0 * math.pi

FORMATS = ("csv", "json")

DEFAULT_TOL = 1.0e-9
DEFAULT_N = 500
DEFAULT_HORIZON = 200.0
# most points an energy window ([lo, hi, points]) or a phase scan may ask for
MAX_GRID_POINTS = 10_000
# most strobes an orbit may ask for: 50 times the largest default
MAX_STROBES = 100_000


@dataclass(frozen=True)
class Knob:
    """One knob of an experiment: its kind, help line, default and bound.

    A grid key is a list of numbers: "actions" (required, any length),
    "window" ([lo, hi, points] with lo >= `lo`, hi >= `span` * lo and 8 to
    MAX_GRID_POINTS points), "count" (whole), "flag" (0 or 1), "scalar" or
    "initial" ([x0, y0, t0] in place of I0 and t0; config files only).
    tol, N and horizon are bare numbers.  Numbers lie in [lo, hi], or
    (lo, hi] when `above`; a default of None leaves the knob out.
    """
    kind: str
    help: str
    default: object = None
    lo: float = -math.inf
    hi: float = math.inf
    above: bool = False
    span: float = 1.0


@dataclass(frozen=True)
class Experiment:
    """A row of the experiment table: the command-line blurb, the numeric
    knobs the experiment reads and its grid keys, in command-line order."""
    help: str
    grids: dict
    numeric: dict = field(default_factory=dict)


def _orbit_knobs(N: int, **extra) -> dict:
    return {
        "tol": Knob("scalar", "integration tolerance", DEFAULT_TOL,
                    lo=dyn.TOL_MIN, hi=dyn.TOL_MAX),
        "N": Knob("count", "strobe count", N, lo=1, hi=MAX_STROBES),
        **extra,
    }


_T0 = Knob("scalar", "initial time", 0.0)
_START = {
    "I0": Knob("scalar", "initial action", 100.0, lo=0.0, above=True),
    "t0": _T0,
    "initial": Knob("initial", "initial state [x0, y0, t0]"),
}

TABLE = {
    "conditions": Experiment(
        "resonance balance report, optional tail fit",
        {"beta_window": Knob(
            "window", "energy window for the correction-decay fit "
            "(default: none, no fit)", lo=100.0, span=1.0e4)}),
    "averages": Experiment(
        "averaged potential over an action grid",
        {"I": Knob("actions", "comma-separated action values", lo=0.0),
         "check_asymptotics": Knob(
             "flag", "also fit the sqrt growth law and report levels", False)}),
    "oscillatory": Experiment(
        "periodic-perturbation average decay scan",
        {"h_window": Knob("window", "energy window for the scan",
                          (1.0e4, 1.0e8, 65), lo=1.0, span=1.0e3)}),
    "simulate": Experiment(
        "dense trajectory samples over a time horizon", _START,
        _orbit_knobs(256, horizon=Knob("scalar", "time span to cover",
                                       DEFAULT_HORIZON, lo=0.0, above=True))),
    "poincare": Experiment("period-strobe orbit samples", _START,
                           _orbit_knobs(DEFAULT_N)),
    "classify": Experiment("strobe orbit plus growth verdict", _START,
                           _orbit_knobs(DEFAULT_N)),
    "sweep": Experiment(
        "verdicts over a grid of initial actions",
        {"I0": Knob("actions", "comma-separated initial actions",
                    lo=0.0, above=True),
         "t0": _T0},
        _orbit_knobs(2000)),
    "escape_scan": Experiment(
        "verdicts over a grid of strobe phases",
        {"I0": Knob("scalar", "initial action", 1.0e4, lo=0.0, above=True),
         "phases": Knob("count", "number of strobe phases to scan", 64,
                        lo=32, hi=MAX_GRID_POINTS)},
        _orbit_knobs(2000)),
    "normalform_check": Experiment(
        "averaging-generator closure residuals",
        {"h": Knob("scalar", "energy level", 1.0e4, lo=0.0)}),
}

EXPERIMENTS = tuple(TABLE)


@dataclass(frozen=True)
class NumericConfig:
    """Typed knobs: int counts, bool flags, float scalars, tuples."""
    tol: float = DEFAULT_TOL
    N: int = DEFAULT_N
    horizon: float = DEFAULT_HORIZON
    grids: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "."
    formats: tuple = FORMATS


@dataclass(frozen=True)
class ExperimentConfig:
    system: DuffingSystem
    experiment: str
    numeric: NumericConfig = NumericConfig()
    output: OutputConfig = OutputConfig()


def _read(knob: Knob, raw, path: str):
    """The typed value of a knob given as a list of numbers."""
    if not isinstance(raw, list) or not raw:
        raise SpecValidationError(f"{path}: expected a nonempty list")
    if knob.kind == "flag":
        if len(raw) != 1 or raw[0] not in (0, 1):
            raise SpecValidationError(f"{path}: expected [0] or [1], got {raw!r}")
        return bool(raw[0])
    if not all(_is_finite_number(v) for v in raw):
        raise SpecValidationError(f"{path}: expected finite numbers, got {raw!r}")
    size = {"window": 3, "initial": 3, "actions": len(raw)}.get(knob.kind, 1)
    if len(raw) != size:
        raise SpecValidationError(f"{path}: expected {size} numbers, got {len(raw)}")
    values = tuple(float(v) for v in raw)
    if knob.kind == "window":
        lo, hi, points = values
        if not (lo >= knob.lo and hi / lo >= knob.span and points.is_integer()
                and 8 <= points <= MAX_GRID_POINTS):
            raise SpecValidationError(
                f"{path}: need lo >= {knob.lo:g}, hi >= {knob.span:g} * lo and "
                f"a whole number of points in [8, {MAX_GRID_POINTS}], got {raw!r}")
        return lo, hi, int(points)
    count = knob.kind == "count"
    for v, entry in zip(values, raw):
        if (not (v > knob.lo if knob.above else v >= knob.lo) or v > knob.hi
                or (count and not v.is_integer())):
            raise SpecValidationError(
                f"{path}: must be a {'whole ' if count else ''}number in "
                f"{'(' if knob.above else '['}{knob.lo:g}, {knob.hi:g}], "
                f"got {entry!r}")
    if knob.kind == "initial" and values[0] == 0.0 and values[1] == 0.0:
        raise SpecValidationError(
            f"{path}: the start [x0, y0] is the origin, where the action "
            f"and the angle are undefined; got {raw!r}")
    if knob.kind in ("actions", "initial"):
        return values
    return int(values[0]) if count else values[0]


def numeric_config(experiment: str, num) -> NumericConfig:
    """Check a config's numeric block against the table and fill defaults.

    This is the one validator of every entry point: a knob or grid key the
    experiment does not read, a value outside its bound and `initial`
    given together with I0 or t0 are refused naming their config path.
    """
    row = TABLE[experiment]
    given = num.get("grids", {}) if isinstance(num, dict) else None
    for path, block, reads in (("config.numeric", num, {"grids", *row.numeric}),
                               ("config.numeric.grids", given, row.grids)):
        if not isinstance(block, dict):
            raise SpecValidationError(f"{path}: expected an object")
        unread = sorted(set(block) - set(reads))
        if unread:
            raise SpecValidationError(
                f"{path}.{unread[0]}: not read by {experiment}")
    knobs = {key: (_read(knob, [num[key]], f"config.numeric.{key}")
                   if key in num else knob.default)
             for key, knob in row.numeric.items()}
    if "initial" in given and given.keys() & {"I0", "t0"}:
        raise SpecValidationError(
            "config.numeric.grids.initial: give either initial or I0 and t0")
    grids = {}
    for key, knob in row.grids.items():
        path = f"config.numeric.grids.{key}"
        if key in given:
            grids[key] = _read(knob, given[key], path)
        elif knob.kind == "actions":
            raise SpecValidationError(f"{path}: required by {experiment}")
        elif knob.default is not None and "initial" not in given:
            grids[key] = knob.default
    return NumericConfig(**knobs, grids=grids)


def parse_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise SpecValidationError("config: expected an object")
    unknown = set(obj) - {"system", "experiment", "numeric", "output"}
    if unknown:
        raise SpecValidationError(f"config: unknown keys {sorted(unknown)}")
    if "system" not in obj or "experiment" not in obj:
        raise SpecValidationError("config: 'system' and 'experiment' are required")
    system = system_from_config(obj["system"])
    experiment = obj["experiment"]
    if experiment not in EXPERIMENTS:  # a tuple: the value may be unhashable
        raise SpecValidationError(
            f"config: unknown experiment {experiment!r}; "
            f"choose one of {', '.join(EXPERIMENTS)}"
        )
    numeric = numeric_config(experiment, obj.get("numeric", {}))
    out = obj.get("output", {})
    if not isinstance(out, dict):
        raise SpecValidationError("config.output: expected an object")
    unknown = set(out) - {"dir", "formats"}
    if unknown:
        raise SpecValidationError(f"config.output: unknown keys {sorted(unknown)}")
    formats = out.get("formats", list(FORMATS))
    if (not isinstance(formats, (list, tuple)) or not formats
            or any(f not in FORMATS for f in formats)):
        raise SpecValidationError(
            f"config.output.formats: need a nonempty subset of {FORMATS}"
        )
    return ExperimentConfig(
        system=system,
        experiment=experiment,
        numeric=numeric,
        output=OutputConfig(
            dir=str(out.get("dir", ".")),
            formats=tuple(f for f in FORMATS if f in formats),
        ),
    )


def resolved_config(cfg: ExperimentConfig) -> dict:
    """The config echo: exactly the knobs the experiment reads."""
    numeric = {key: getattr(cfg.numeric, key)
               for key in TABLE[cfg.experiment].numeric}
    numeric["grids"] = {
        k: list(v) if isinstance(v, tuple) else [int(v) if isinstance(v, bool) else v]
        for k, v in sorted(cfg.numeric.grids.items())}
    return {
        "system": system_to_config(cfg.system),
        "experiment": cfg.experiment,
        "numeric": numeric,
        "output": {
            "dir": cfg.output.dir,
            "formats": list(cfg.output.formats),
        },
    }


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_atomic(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_csv(path: str, header, rows) -> None:
    """RFC-4180 CSV: CRLF line endings, mandatory header, %.17g floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _write_atomic(path, buf.getvalue())


def write_json(path: str, obj) -> None:
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# experiment runners; each returns a list of artifacts to persist:
# ("name.csv", header, rows) or ("name.json", payload)
# ---------------------------------------------------------------------------

def _start(cfg: ExperimentConfig, I0: float, t0: float) -> PhaseState:
    """The state at time t0 on the x axis with action I0."""
    return PhaseState(x=math.sqrt(2.0 * I0 / cfg.system.n), y=0.0, t=t0)


def _initial_state(cfg: ExperimentConfig) -> PhaseState:
    grids = cfg.numeric.grids
    if "initial" in grids:
        return PhaseState(*grids["initial"])
    return _start(cfg, grids["I0"], grids["t0"])


def _run_conditions(cfg: ExperimentConfig):
    report = cond.lazer_leach_report(cfg.system)
    artifacts = [("conditions.json", report.to_json_dict())]
    if "beta_window" in cfg.numeric.grids:
        lo, hi, points = cfg.numeric.grids["beta_window"]
        est = cond.critical_d_estimate(
            cfg.system, h_min=lo, h_max=hi, points=points)
        payload = est.to_json_dict()
        payload["predicted_with_d"] = cond.classify_theorem(cfg.system, est).value
        artifacts.append(("dfit.json", payload))
        artifacts.append(("beta.csv", ("h", "beta"), est.profile))
    return artifacts


def _run_averages(cfg: ExperimentConfig):
    rows = []
    for I in cfg.numeric.grids["I"]:
        value = averaged_potential(cfg.system, I)
        scaled = value / math.sqrt(I) if I > 0.0 else 0.0
        rows.append((I, value, scaled))
    artifacts = [("averages.csv", ("I", "avg_f1", "scaled"), rows)]
    if cfg.numeric.grids["check_asymptotics"]:
        check = averaged_potential_slope_check(cfg.system)
        artifacts.append(("asymptotics.json", {
            "slope": check.fit.slope,
            "measured_level": check.measured_level,
            "predicted_level": check.predicted_level,
            "rms_residual": check.fit.rms_residual,
        }))
    return artifacts


def _run_oscillatory(cfg: ExperimentConfig):
    if not any(cfg.system.psi.cos_coeffs):
        raise FitDegenerateError(
            "system.psi has no cos harmonic: its circle average is exactly 0 "
            "at every energy, so there is no decay envelope to fit")
    grid = geometric_grid(*cfg.numeric.grids["h_window"])
    rows = [(h, osc.psi_average(cfg.system, h)) for h in grid]
    fit = osc.decay_fit_envelope(rows, 4.0)
    return [
        ("psi_scan.csv", ("h", "psi_avg"), rows),
        ("oscillatory.json", {
            "envelope_slope": fit.slope,
            "rms_residual": fit.rms_residual,
            "n_points": len(rows),
        }),
    ]


def _run_simulate(cfg: ExperimentConfig):
    state = _initial_state(cfg)
    n = cfg.system.n
    n_samples = cfg.numeric.N
    step = cfg.numeric.horizon / n_samples
    t_base = state.t
    rows = [(state.t, state.x, state.y,
             0.5 * n * (state.x * state.x + state.y * state.y))]
    for j in range(1, n_samples + 1):
        state = dyn.integrate(cfg.system, state, t_base + j * step,
                              cfg.numeric.tol)
        rows.append((state.t, state.x, state.y,
                     0.5 * n * (state.x * state.x + state.y * state.y)))
    return [("simulate.csv", ("t", "x", "y", "I"), rows)]


def _orbit_rows(rec):
    t0 = rec.initial.t
    return [(it.k, t0 + TWO_PI * it.k, it.x, it.y, it.I, it.theta_lift)
            for it in rec.iterates]


def _run_poincare(cfg: ExperimentConfig):
    rec = dyn.orbit(cfg.system, _initial_state(cfg), cfg.numeric.N,
                    cfg.numeric.tol)
    return [
        ("poincare.csv",
         ("k", "t", "x", "y", "I", "theta_lift"), _orbit_rows(rec)),
        ("poincare.json", {
            "system_id": rec.system_id,
            "escaped": rec.escaped,
            "steps": rec.integrator_stats.steps,
            "rejected": rec.integrator_stats.rejected,
            "max_error_estimate": rec.integrator_stats.max_error_estimate,
        }),
    ]


def _run_classify(cfg: ExperimentConfig):
    rec = dyn.orbit(cfg.system, _initial_state(cfg), cfg.numeric.N,
                    cfg.numeric.tol)
    verdict = dyn.classify_orbit(rec)
    return [
        ("orbit.csv",
         ("k", "t", "x", "y", "I", "theta_lift"), _orbit_rows(rec)),
        ("classify.json", verdict.to_json_dict()),
    ]


def _work(v) -> tuple:
    """(steps, rejected) of a scan slot's orbit; empty for a failed one."""
    return (None, None) if v.stats is None else (v.stats.steps, v.stats.rejected)


def _run_sweep(cfg: ExperimentConfig):
    I0_grid = cfg.numeric.grids["I0"]
    t0 = cfg.numeric.grids["t0"]
    initials = [_start(cfg, I0, t0) for I0 in I0_grid]
    verdicts = dyn.sweep(cfg.system, initials, cfg.numeric.N, cfg.numeric.tol)
    rows = []
    counts: dict = {}
    for I0, v in zip(I0_grid, verdicts):
        counts[v.verdict] = counts.get(v.verdict, 0) + 1
        rows.append((
            I0, v.verdict, v.max_I, v.min_I,
            None if v.growth_fit is None else v.growth_fit.slope,
            v.horizon_strobes, v.error, *_work(v),
        ))
    return [
        ("sweep.csv",
         ("I0", "verdict", "max_I", "min_I", "growth_slope",
          "horizon_strobes", "error", "steps", "rejected"), rows),
        ("sweep.json", {"counts": counts, "n_orbits": len(rows)}),
    ]


def _run_escape_scan(cfg: ExperimentConfig):
    phases = cfg.numeric.grids["phases"]
    scan = dyn.critical_escape_scan(
        cfg.system, cfg.numeric.grids["I0"], phases, cfg.numeric.N,
        cfg.numeric.tol)
    rows = [
        (k, TWO_PI * k / phases, v.verdict, v.max_I, v.min_I,
         None if v.growth_fit is None else v.growth_fit.slope, v.error,
         *_work(v))
        for k, v in enumerate(scan.verdicts)
    ]
    return [
        ("escape_scan.csv",
         ("phase_index", "t0", "verdict", "max_I", "min_I",
          "growth_slope", "error", "steps", "rejected"), rows),
        ("escape_scan.json", scan.to_json_dict()),
    ]


def _run_normalform(cfg: ExperimentConfig):
    return [("normalform.json",
             normal_form_residuals(cfg.system, cfg.numeric.grids["h"]))]


_RUNNERS = {
    "conditions": _run_conditions,
    "averages": _run_averages,
    "oscillatory": _run_oscillatory,
    "simulate": _run_simulate,
    "poincare": _run_poincare,
    "classify": _run_classify,
    "sweep": _run_sweep,
    "escape_scan": _run_escape_scan,
    "normalform_check": _run_normalform,
}


def run(cfg: ExperimentConfig) -> list:
    """Execute one experiment; returns the list of file paths written.

    An input the runner refuses writes no file.  Otherwise the resolved
    config echo is always written; a numeric failure writes errors.json
    with the failure details next to it and re-raises for the caller to
    map onto an exit status.
    """
    try:
        os.makedirs(cfg.output.dir, exist_ok=True)
    except OSError as exc:  # e.g. the path, or a parent of it, is a file
        raise SpecValidationError(
            f"config.output.dir: cannot create {cfg.output.dir!r}: "
            f"{exc.strerror or exc}") from None
    failure = None
    try:
        artifacts = [a for a in _RUNNERS[cfg.experiment](cfg)
                     if a[0].rsplit(".", 1)[1] in cfg.output.formats]
    except NumericFailureError as exc:
        failure = exc
        artifacts = [("errors.json", {
            "error": type(exc).__name__,
            "message": str(exc),
            "details": {k: _fmt(v) for k, v in sorted(exc.details.items())},
        })]
    written = []
    for name, *content in [("config.json", resolved_config(cfg)), *artifacts]:
        path = os.path.join(cfg.output.dir, name)
        if name.endswith(".csv"):
            write_csv(path, *content)
        else:
            write_json(path, *content)
        written.append(path)
    if failure is not None:
        raise failure
    return written


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------

# the builtin systems, as system documents (the echo in their config.json)
_TRIG_ZERO = {"kind": "trig_poly", "period": TWO_PI, "cos": [], "sin": []}
_FORCING_2COS = {"kind": "trig_poly", "period": TWO_PI, "cos": [2.0], "sin": []}
_ARCTAN = {"kind": "arctan", "scale": 1.0}

# critical pair: both members sit exactly on the Lazer-Leach equality
# (restoring gap pi against forcing 2 cos t).  The tail of the first adds
# a growing potential correction (fitted d < 1, confining); the second
# mirrors the arctan + x/(1+x^2) trick, cancelling the 1/x tail so the
# correction decays (fitted d > 1, escape channel open).  The first tail
# is 32 (1 - d) x (1 + x^2)^(-(1 + d)/2) with d = 1/3.
_SCENARIO_SYSTEMS = {
    "ding": {
        "n": 1, "g": _ARCTAN, "psi": _TRIG_ZERO,
        "p": {"kind": "trig_poly", "period": TWO_PI, "cos": [4.0], "sin": []},
    },
    "ll-bounded": {
        "n": 1, "g": _ARCTAN,
        "psi": {"kind": "trig_poly", "period": TWO_PI, "cos": [], "sin": [1.0]},
        "p": {"kind": "trig_poly", "period": TWO_PI, "cos": [1.0], "sin": []},
    },
    "critical-pair-below": {
        "n": 1,
        "g": {"kind": "sum", "terms": [
            _ARCTAN,
            {"kind": "algebraic_tail", "c": 21.333333333333336,
             "e": 0.6666666666666666},
        ]},
        "psi": _TRIG_ZERO, "p": _FORCING_2COS,
    },
    "critical-pair-above": {
        "n": 1,
        "g": {"kind": "sum", "terms": [
            _ARCTAN,
            {"kind": "rational1", "c": 1.0},
            {"kind": "algebraic_tail", "c": 1.0, "e": 1.5},
        ]},
        "psi": _TRIG_ZERO, "p": _FORCING_2COS,
    },
    "linear": {
        "n": 1, "g": {"kind": "constant", "c": 0.0}, "psi": _TRIG_ZERO,
        "p": _TRIG_ZERO,
    },
}


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    # rows of (slug, system alias, experiment, numeric block of a config);
    # the table's defaults fill whatever a block leaves out
    runs: tuple


_BETA_WINDOW = {"grids": {"beta_window": [1.0e4, 1.0e9, 12]}}

SCENARIOS = (
    Scenario(
        name="ding",
        description=(
            "Resonant forcing strong enough to beat the restoring gap "
            "(strictly above the Lazer-Leach equality); every orbit "
            "climbs, reproduced as an Escaping verdict from I0=25."
        ),
        runs=(
            ("conditions", "ding", "conditions", {}),
            ("classify", "ding", "classify", {"grids": {"I0": [25.0]}}),
        ),
    ),
    Scenario(
        name="ll-bounded",
        description=(
            "Forcing strictly below the Lazer-Leach equality with a "
            "spatially periodic perturbation; a 20-orbit sweep from "
            "I0 in [50, 500] stays confined (BoundedEvidence)."
        ),
        runs=(
            ("conditions", "ll-bounded", "conditions", {}),
            ("sweep", "ll-bounded", "sweep",
             {"grids": {"I0": list(geometric_grid(50.0, 500.0, 20))}}),
        ),
    ),
    Scenario(
        name="critical-pair",
        description=(
            "Two systems pinned exactly on the Lazer-Leach equality whose "
            "potential corrections decay differently: the confining member "
            "(fitted d < 1) never earns an Escaping verdict over a 64-phase "
            "scan, the open member (fitted d > 1) shows climbing orbits."
        ),
        runs=(
            ("below-conditions", "critical-pair-below", "conditions",
             _BETA_WINDOW),
            ("below-escape", "critical-pair-below", "escape_scan", {}),
            ("above-conditions", "critical-pair-above", "conditions",
             _BETA_WINDOW),
            ("above-escape", "critical-pair-above", "escape_scan", {}),
        ),
    ),
    Scenario(
        name="linear",
        description=(
            "Free linear oscillator baseline: strobe map is the identity, "
            "action is conserved, classification is BoundedEvidence."
        ),
        runs=(
            ("conditions", "linear", "conditions", {}),
            ("classify", "linear", "classify", {"tol": 1.0e-12, "N": 100}),
        ),
    ),
)

_SCENARIO_INDEX = {s.name: s for s in SCENARIOS}


def scenario_system(name: str) -> DuffingSystem:
    """A builtin system by its `--scenario` alias."""
    if name in _SCENARIO_SYSTEMS:
        return system_from_config(_SCENARIO_SYSTEMS[name])
    raise SpecValidationError(
        f"unknown scenario system {name!r}; "
        f"choose one of {', '.join(sorted(_SCENARIO_SYSTEMS))}"
    )


def list_scenarios() -> list:
    """Stable catalog of builtin scenarios."""
    return [
        {
            "name": s.name,
            "description": s.description,
            "runs": [row[0] for row in s.runs],
        }
        for s in SCENARIOS
    ]


def run_scenario(name: str, out_dir: str, tol: float = None,
                 strobes: int = None) -> list:
    """Execute a builtin scenario bundle into out_dir/<slug>/ directories."""
    if name not in _SCENARIO_INDEX:
        raise SpecValidationError(
            f"unknown scenario {name!r}; "
            f"choose one of {', '.join(s.name for s in SCENARIOS)}"
        )
    configs = []
    for slug, alias, experiment, numeric in _SCENARIO_INDEX[name].runs:
        overrides = {k: v for k, v in (("tol", tol), ("N", strobes))
                     if v is not None and k in TABLE[experiment].numeric}
        configs.append(ExperimentConfig(
            system=scenario_system(alias),
            experiment=experiment,
            numeric=numeric_config(experiment, {**numeric, **overrides}),
            output=OutputConfig(dir=os.path.join(out_dir, slug)),
        ))
    # every run is checked before the first one starts
    return [path for cfg in configs for path in run(cfg)]

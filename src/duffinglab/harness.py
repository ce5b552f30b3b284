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
from contextlib import contextmanager
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
from .errors import NumericFailureError, SpecValidationError
from .fitting import geometric_grid
from .functions import (
    AlgebraicTail,
    Arctan,
    Constant,
    Rational1,
    Sum,
    TrigPoly,
    DuffingSystem,
    _require_number,
    make_system,
    system_from_config,
    system_to_config,
)

TWO_PI = 2.0 * math.pi

EXPERIMENTS = (
    "conditions",
    "averages",
    "oscillatory",
    "simulate",
    "poincare",
    "classify",
    "sweep",
    "escape_scan",
    "normalform_check",
)

FORMATS = ("csv", "json")

DEFAULT_TOL = 1.0e-9
DEFAULT_N = 500
DEFAULT_HORIZON = 200.0
# most points an energy window ([lo, hi, points]) or a phase scan may ask for
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class NumericConfig:
    tol: float = DEFAULT_TOL
    N: int = DEFAULT_N
    horizon: float = DEFAULT_HORIZON
    grids: dict = field(default_factory=dict)

    def __post_init__(self):
        # a nan or inf knob would otherwise run to the step budget or
        # write nan rows; reject it before anything runs
        checks = {"tol": (self.tol,), "horizon": (self.horizon,)}
        checks.update((f"grids.{k}", v) for k, v in self.grids.items())
        for key, values in checks.items():
            if not all(math.isfinite(v) for v in values):
                raise SpecValidationError(
                    f"config.numeric.{key}: expected finite numbers, "
                    f"got {list(values)}")
        if self.horizon <= 0.0:
            raise SpecValidationError("config.numeric.horizon: must be positive")
        # the integrator's own checks, run here where the knob can be named
        for key, check in (("N", dyn._check_N), ("tol", dyn._check_tol)):
            try:
                check(getattr(self, key))
            except SpecValidationError as exc:
                raise SpecValidationError(f"config.numeric.{key}: {exc}") from None


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
    if experiment not in EXPERIMENTS:
        raise SpecValidationError(
            f"config: unknown experiment {experiment!r}; "
            f"choose one of {', '.join(EXPERIMENTS)}"
        )
    num = obj.get("numeric", {})
    if not isinstance(num, dict):
        raise SpecValidationError("config.numeric: expected an object")
    unknown = set(num) - {"tol", "N", "horizon", "grids"}
    if unknown:
        raise SpecValidationError(f"config.numeric: unknown keys {sorted(unknown)}")
    tol = _require_number(num, "tol", "config.numeric") if "tol" in num else DEFAULT_TOL
    N = num.get("N", DEFAULT_N)
    horizon = (_require_number(num, "horizon", "config.numeric")
               if "horizon" in num else DEFAULT_HORIZON)
    grids_in = num.get("grids", {})
    if not isinstance(grids_in, dict):
        raise SpecValidationError("config.numeric.grids: expected an object")
    grids = {}
    for key, val in grids_in.items():
        if not isinstance(val, (list, tuple)) or not val:
            raise SpecValidationError(
                f"config.numeric.grids.{key}: expected a nonempty list"
            )
        try:
            grids[str(key)] = tuple(float(v) for v in val)
        except (TypeError, ValueError, OverflowError):
            raise SpecValidationError(
                f"config.numeric.grids.{key}: entries must be numbers"
            )
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
        numeric=NumericConfig(tol=tol, N=N, horizon=horizon, grids=grids),
        output=OutputConfig(
            dir=str(out.get("dir", ".")),
            formats=tuple(f for f in FORMATS if f in formats),
        ),
    )


def resolved_config(cfg: ExperimentConfig) -> dict:
    return {
        "system": system_to_config(cfg.system),
        "experiment": cfg.experiment,
        "numeric": {
            "tol": cfg.numeric.tol,
            "N": cfg.numeric.N,
            "horizon": cfg.numeric.horizon,
            "grids": {k: list(v) for k, v in sorted(cfg.numeric.grids.items())},
        },
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
    if I0 <= 0.0:
        raise SpecValidationError(f"grids.I0 must be positive, got {I0}")
    return PhaseState(x=math.sqrt(2.0 * I0 / cfg.system.n), y=0.0, t=t0)


def _initial_state(cfg: ExperimentConfig) -> PhaseState:
    grids = cfg.numeric.grids
    init = grids.get("initial")
    if init is not None:
        if len(init) != 3:
            raise SpecValidationError("grids.initial must be [x0, y0, t0]")
        return PhaseState(x=init[0], y=init[1], t=init[2])
    return _start(cfg, grids.get("I0", (100.0,))[0], grids.get("t0", (0.0,))[0])


@contextmanager
def _naming_grid(key: str):
    """Report a window the library refuses (ValueError) as a config error."""
    try:
        yield
    except ValueError as exc:
        raise SpecValidationError(f"grids.{key}: {exc}") from None


def _count(key: str, value: float) -> int:
    """A point count from the grids, refused before anything is allocated."""
    if value != int(value) or value > MAX_GRID_POINTS:
        raise SpecValidationError(
            f"grids.{key}: points must be a whole number of at most "
            f"{MAX_GRID_POINTS}, got {value!r}")
    return int(value)


def _window(cfg: ExperimentConfig, key: str, default=None):
    """(lo, hi, points, geometric grid) of a [lo, hi, points] grid entry."""
    spec = cfg.numeric.grids.get(key, default)
    if len(spec) != 3:
        raise SpecValidationError(f"grids.{key} must be [lo, hi, points]")
    lo, hi, points = spec
    points = _count(key, points)
    with _naming_grid(key):
        return lo, hi, points, geometric_grid(lo, hi, points)


def _run_conditions(cfg: ExperimentConfig):
    report = cond.lazer_leach_report(cfg.system)
    artifacts = [("conditions.json", report.to_json_dict())]
    if "beta_window" in cfg.numeric.grids:
        lo, hi, points, grid = _window(cfg, "beta_window")
        with _naming_grid("beta_window"):
            est = cond.critical_d_estimate(
                cfg.system, h_min=lo, h_max=hi, points=points)
        payload = est.to_json_dict()
        payload["predicted_with_d"] = cond.classify_theorem(cfg.system, est).value
        artifacts.append(("dfit.json", payload))
        profile = cond.beta_profile(cfg.system, grid)
        artifacts.append(
            ("beta.csv", ("h", "beta"), [(h, b) for h, b in profile]))
    return artifacts


def _run_averages(cfg: ExperimentConfig):
    grid = cfg.numeric.grids.get("I")
    if grid is None:
        raise SpecValidationError("averages needs grids.I (list of actions)")
    rows = []
    for I in grid:
        value = averaged_potential(cfg.system, I)
        scaled = value / math.sqrt(I) if I > 0.0 else 0.0
        rows.append((I, value, scaled))
    artifacts = [("averages.csv", ("I", "avg_f1", "scaled"), rows)]
    if cfg.numeric.grids.get("check_asymptotics"):
        check = averaged_potential_slope_check(cfg.system)
        artifacts.append(("asymptotics.json", {
            "slope": check.fit.slope,
            "measured_level": check.measured_level,
            "predicted_level": check.predicted_level,
            "rms_residual": check.fit.rms_residual,
        }))
    return artifacts


def _run_oscillatory(cfg: ExperimentConfig):
    grid = _window(cfg, "h_window", (1.0e4, 1.0e8, 65))[3]
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


def _run_sweep(cfg: ExperimentConfig):
    I0_grid = cfg.numeric.grids.get("I0")
    if I0_grid is None:
        raise SpecValidationError("sweep needs grids.I0 (list of actions)")
    t0 = cfg.numeric.grids.get("t0", (0.0,))[0]
    initials = [_start(cfg, I0, t0) for I0 in I0_grid]
    verdicts = dyn.sweep(cfg.system, initials, cfg.numeric.N, cfg.numeric.tol)
    rows = []
    counts: dict = {}
    for I0, v in zip(I0_grid, verdicts):
        counts[v.verdict] = counts.get(v.verdict, 0) + 1
        rows.append((
            I0, v.verdict, v.max_I, v.min_I,
            None if v.growth_fit is None else v.growth_fit.slope,
            v.horizon_strobes, v.error,
        ))
    return [
        ("sweep.csv",
         ("I0", "verdict", "max_I", "min_I", "growth_slope",
          "horizon_strobes", "error"), rows),
        ("sweep.json", {"counts": counts, "n_orbits": len(rows)}),
    ]


def _run_escape_scan(cfg: ExperimentConfig):
    I0 = cfg.numeric.grids.get("I0", (1.0e4,))[0]
    phases = _count("phases", cfg.numeric.grids.get("phases", (64,))[0])
    scan = dyn.critical_escape_scan(
        cfg.system, I0, phases, cfg.numeric.N, cfg.numeric.tol)
    rows = [
        (k, TWO_PI * k / phases, v.verdict, v.max_I, v.min_I,
         None if v.growth_fit is None else v.growth_fit.slope, v.error)
        for k, v in enumerate(scan.verdicts)
    ]
    return [
        ("escape_scan.csv",
         ("phase_index", "t0", "verdict", "max_I", "min_I",
          "growth_slope", "error"), rows),
        ("escape_scan.json", scan.to_json_dict()),
    ]


def _run_normalform(cfg: ExperimentConfig):
    h = cfg.numeric.grids.get("h", (1.0e4,))[0]
    if h < 0.0:
        raise SpecValidationError(f"grids.h must be nonnegative, got {h}")
    return [("normalform.json", normal_form_residuals(cfg.system, h))]


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

    The resolved config echo is always written.  A numeric failure writes
    errors.json with the failure details and re-raises for the caller to
    map onto an exit status.
    """
    out_dir = cfg.output.dir
    os.makedirs(out_dir, exist_ok=True)
    written = []
    echo = os.path.join(out_dir, "config.json")
    write_json(echo, resolved_config(cfg))
    written.append(echo)
    try:
        artifacts = _RUNNERS[cfg.experiment](cfg)
    except NumericFailureError as exc:
        err_path = os.path.join(out_dir, "errors.json")
        write_json(err_path, {
            "error": type(exc).__name__,
            "message": str(exc),
            "details": {k: _fmt(v) for k, v in sorted(exc.details.items())},
        })
        written.append(err_path)
        raise
    for artifact in artifacts:
        name = artifact[0]
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            if "csv" not in cfg.output.formats:
                continue
            _, header, rows = artifact
            write_csv(path, header, rows)
        else:
            if "json" not in cfg.output.formats:
                continue
            write_json(path, artifact[1])
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------

def _ding_system() -> DuffingSystem:
    return make_system(1, Arctan(), p=TrigPoly(TWO_PI, (4.0,), ()))


def _ll_bounded_system() -> DuffingSystem:
    return make_system(
        1, Arctan(),
        psi=TrigPoly(TWO_PI, (), (1.0,)),
        p=TrigPoly(TWO_PI, (1.0,), ()),
    )


# critical pair: both members sit exactly on the Lazer-Leach equality
# (restoring gap pi against forcing 2 cos t).  The tail of the first adds
# a growing potential correction (fitted d < 1, confining); the second
# mirrors the arctan + x/(1+x^2) trick, cancelling the 1/x tail so the
# correction decays (fitted d > 1, escape channel open).
_PAIR_D_BELOW = 1.0 / 3.0
_PAIR_C_BELOW = 32.0


def _critical_below_system() -> DuffingSystem:
    d = _PAIR_D_BELOW
    return make_system(
        1,
        Sum((Arctan(), AlgebraicTail(_PAIR_C_BELOW * (1.0 - d), 0.5 * (1.0 + d)))),
        p=TrigPoly(TWO_PI, (2.0,), ()),
    )


def _critical_above_system() -> DuffingSystem:
    return make_system(
        1,
        Sum((Arctan(), Rational1(1.0), AlgebraicTail(1.0, 1.5))),
        p=TrigPoly(TWO_PI, (2.0,), ()),
    )


def _linear_system() -> DuffingSystem:
    return make_system(1, Constant(0.0))


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    # rows of (slug, system alias, experiment, default tol, default N, grids)
    runs: tuple


_BETA_WINDOW = {"beta_window": (1.0e4, 1.0e9, 12.0)}
_SCAN_GRIDS = {"I0": (1.0e4,), "phases": (64.0,)}

SCENARIOS = (
    Scenario(
        name="ding",
        description=(
            "Resonant forcing strong enough to beat the restoring gap "
            "(strictly above the Lazer-Leach equality); every orbit "
            "climbs, reproduced as an Escaping verdict from I0=25."
        ),
        runs=(
            ("conditions", "ding", "conditions", DEFAULT_TOL, 500, {}),
            ("classify", "ding", "classify", DEFAULT_TOL, 500, {"I0": (25.0,)}),
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
            ("conditions", "ll-bounded", "conditions", DEFAULT_TOL, 500, {}),
            ("sweep", "ll-bounded", "sweep", DEFAULT_TOL, 2000,
             {"I0": tuple(geometric_grid(50.0, 500.0, 20))}),
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
             DEFAULT_TOL, 500, _BETA_WINDOW),
            ("below-escape", "critical-pair-below", "escape_scan",
             DEFAULT_TOL, 2000, _SCAN_GRIDS),
            ("above-conditions", "critical-pair-above", "conditions",
             DEFAULT_TOL, 500, _BETA_WINDOW),
            ("above-escape", "critical-pair-above", "escape_scan",
             DEFAULT_TOL, 2000, _SCAN_GRIDS),
        ),
    ),
    Scenario(
        name="linear",
        description=(
            "Free linear oscillator baseline: strobe map is the identity, "
            "action is conserved, classification is BoundedEvidence."
        ),
        runs=(
            ("conditions", "linear", "conditions", DEFAULT_TOL, 500, {}),
            ("classify", "linear", "classify", 1.0e-12, 100, {"I0": (100.0,)}),
        ),
    ),
)

_SCENARIO_INDEX = {s.name: s for s in SCENARIOS}

# system aliases for `--scenario` on single-system subcommands
_SCENARIO_SYSTEMS = {
    "ding": _ding_system,
    "ll-bounded": _ll_bounded_system,
    "critical-pair-below": _critical_below_system,
    "critical-pair-above": _critical_above_system,
    "linear": _linear_system,
}


def scenario_system(name: str) -> DuffingSystem:
    if name in _SCENARIO_SYSTEMS:
        return _SCENARIO_SYSTEMS[name]()
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
    scenario = _SCENARIO_INDEX[name]
    written = []
    for slug, alias, experiment, default_tol, default_N, grids in scenario.runs:
        written.extend(run(ExperimentConfig(
            system=scenario_system(alias),
            experiment=experiment,
            numeric=NumericConfig(
                tol=default_tol if tol is None else tol,
                N=default_N if strobes is None else strobes, grids=grids),
            output=OutputConfig(dir=os.path.join(out_dir, slug)),
        )))
    return written

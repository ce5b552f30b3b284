"""Command line front end.

Grammar: duffinglab <subcommand> [--system FILE | --scenario NAME]
[--out DIR] [--format csv,json] plus per-subcommand knobs; the subcommands
that integrate orbits (simulate, poincare, classify, sweep, escape-scan)
also take [--tol V] [--strobes N].  Exit status 0 on success, 2 on config
or validation errors, 3 on numeric failures (which also leave errors.json
in the output directory).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import (
    NotApplicableError,
    NumericFailureError,
    SpecValidationError,
)
from .functions import system_from_config


def _float_list(text: str):
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _window_arg(text: str):
    values = _float_list(text)
    if len(values) != 3:
        raise argparse.ArgumentTypeError("expected LO,HI,POINTS")
    return values


def _format_arg(text: str):
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    bad = [p for p in parts if p not in harness.FORMATS]
    if bad or not parts:
        raise argparse.ArgumentTypeError(
            f"expected a subset of {','.join(harness.FORMATS)}, got {text!r}")
    return parts


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="duffinglab",
        description="Numerical laboratory for resonant semilinear oscillators.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    src = common.add_mutually_exclusive_group()
    src.add_argument("--system", metavar="FILE",
                     help="JSON file describing the system")
    src.add_argument("--scenario", metavar="NAME",
                     help="builtin scenario system alias")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    common.add_argument("--format", type=_format_arg, default=harness.FORMATS,
                        help="artifact formats, e.g. csv,json")

    # knobs of the subcommands that integrate orbits; the others reject them
    integrating = argparse.ArgumentParser(add_help=False, parents=[common])
    integrating.add_argument("--tol", type=float, default=None,
                             help="integration tolerance")
    integrating.add_argument("--strobes", type=int, default=None,
                             help="iterate count for map-based experiments")

    p = sub.add_parser("conditions", parents=[common],
                       help="resonance balance report, optional tail fit")
    p.add_argument("--beta-window", type=_window_arg, default=None,
                   metavar="LO,HI,POINTS",
                   help="energy window for the correction-decay fit")

    p = sub.add_parser("averages", parents=[common],
                       help="averaged potential over an action grid")
    p.add_argument("--I", type=_float_list, required=True, metavar="LIST",
                   help="comma-separated action values")
    p.add_argument("--check-asymptotics", action="store_true",
                   help="also fit the sqrt growth law and report levels")

    p = sub.add_parser("oscillatory", parents=[common],
                       help="periodic-perturbation average decay scan")
    p.add_argument("--h-window", type=_window_arg, default=(1.0e4, 1.0e8, 65.0),
                   metavar="LO,HI,POINTS", help="energy window for the scan")

    p = sub.add_parser("simulate", parents=[integrating],
                       help="dense trajectory samples over a time horizon")
    p.add_argument("--I0", type=float, default=100.0, help="initial action")
    p.add_argument("--t0", type=float, default=0.0, help="initial time")
    p.add_argument("--horizon", type=float, default=harness.DEFAULT_HORIZON,
                   help="time span to cover")

    for name, blurb in (("poincare", "period-strobe orbit samples"),
                        ("classify", "strobe orbit plus growth verdict")):
        p = sub.add_parser(name, parents=[integrating], help=blurb)
        p.add_argument("--I0", type=float, default=100.0, help="initial action")
        p.add_argument("--t0", type=float, default=0.0, help="initial time")

    p = sub.add_parser("sweep", parents=[integrating],
                       help="verdicts over a grid of initial actions")
    p.add_argument("--I0", type=_float_list, required=True, metavar="LIST",
                   help="comma-separated initial actions")
    p.add_argument("--t0", type=float, default=0.0, help="initial time")

    p = sub.add_parser("escape-scan", parents=[integrating],
                       help="verdicts over a grid of strobe phases")
    p.add_argument("--I0", type=float, default=1.0e4, help="initial action")
    p.add_argument("--phases", type=int, default=64,
                   help="number of strobe phases to scan")

    p = sub.add_parser("normalform-check", parents=[common],
                       help="averaging-generator closure residuals")
    p.add_argument("--h", type=float, default=1.0e4, help="energy level")

    p = sub.add_parser("scenarios", help="list builtin scenarios")
    p.add_argument("--json", action="store_true", help="machine readable")

    p = sub.add_parser("run", help="execute a scenario bundle or config file")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--scenario", metavar="NAME", help="builtin scenario")
    grp.add_argument("--config", metavar="FILE",
                     help="full experiment config JSON")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output directory override")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--strobes", type=int, default=None)

    return top


def _load_system(args):
    if args.scenario:
        return harness.scenario_system(args.scenario)
    if args.system:
        try:
            with open(args.system) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise SpecValidationError(f"cannot read system file: {exc}")
        except ValueError as exc:  # also ints past the digit limit
            raise SpecValidationError(f"system file is not valid JSON: {exc}")
        return system_from_config(obj)
    raise SpecValidationError("provide --system FILE or --scenario NAME")


def _collect_grids(args) -> dict:
    grids = {}
    cmd = args.command
    if cmd == "conditions" and args.beta_window is not None:
        grids["beta_window"] = args.beta_window
    elif cmd == "averages":
        grids["I"] = args.I
        if args.check_asymptotics:
            grids["check_asymptotics"] = (1.0,)
    elif cmd == "oscillatory":
        grids["h_window"] = args.h_window
    elif cmd in ("simulate", "poincare", "classify"):
        grids["I0"] = (args.I0,)
        grids["t0"] = (args.t0,)
    elif cmd == "sweep":
        grids["I0"] = args.I0
        grids["t0"] = (args.t0,)
    elif cmd == "escape-scan":
        grids["I0"] = (args.I0,)
        grids["phases"] = (float(args.phases),)
    elif cmd == "normalform-check":
        grids["h"] = (args.h,)
    return grids


_DEFAULT_STROBES = {
    "simulate": 256,
    "poincare": 500,
    "classify": 500,
    "sweep": 2000,
    "escape-scan": 2000,
}


def _run_experiment(args) -> int:
    system = _load_system(args)
    N = getattr(args, "strobes", None)
    if N is None:
        N = _DEFAULT_STROBES.get(args.command, harness.DEFAULT_N)
    tol = getattr(args, "tol", None)
    horizon = getattr(args, "horizon", harness.DEFAULT_HORIZON)
    cfg = harness.ExperimentConfig(
        system=system,
        experiment=args.command.replace("-", "_"),
        numeric=harness.NumericConfig(
            tol=tol if tol is not None else harness.DEFAULT_TOL,
            N=N,
            horizon=horizon,
            grids=_collect_grids(args),
        ),
        output=harness.OutputConfig(dir=args.out, formats=args.format),
    )
    for path in harness.run(cfg):
        print(f"wrote {path}")
    return 0


def _run_scenarios_listing(args) -> int:
    catalog = harness.list_scenarios()
    if args.json:
        print(json.dumps(catalog, sort_keys=True, indent=2))
        return 0
    for entry in catalog:
        print(f"{entry['name']}: {entry['description']}")
        print(f"  runs: {', '.join(entry['runs'])}")
    return 0


def _run_bundle(args) -> int:
    if args.config is not None:
        for knob, value in (("--tol", args.tol), ("--strobes", args.strobes)):
            if value is not None:
                raise SpecValidationError(
                    f"{knob} does not apply to run --config; set it in the "
                    "config's numeric block (numeric.tol, numeric.N)")
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise SpecValidationError(f"cannot read config file: {exc}")
        except ValueError as exc:  # also ints past the digit limit
            raise SpecValidationError(f"config file is not valid JSON: {exc}")
        cfg = harness.parse_config(obj)
        if args.out is not None:
            cfg = harness.ExperimentConfig(
                system=cfg.system,
                experiment=cfg.experiment,
                numeric=cfg.numeric,
                output=harness.OutputConfig(
                    dir=args.out, formats=cfg.output.formats),
            )
        written = harness.run(cfg)
    else:
        out = args.out if args.out is not None else args.scenario + "-out"
        written = harness.run_scenario(
            args.scenario, out, tol=args.tol, strobes=args.strobes)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "scenarios":
            return _run_scenarios_listing(args)
        if args.command == "run":
            return _run_bundle(args)
        return _run_experiment(args)
    except SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotApplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Grammar: duffinglab <subcommand> [--system FILE | --scenario NAME]
[--out DIR] [--format csv,json] plus the knobs of the subcommand's
experiment, built from `harness.TABLE` with their defaults (see --help)
and bounds, so a knob on the command line runs as the same knob in a
`run --config` document.  Exit status 0 on success, 2 on config or
validation errors (nothing is written), 3 on numeric failures (which also
leave errors.json in the output directory).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness
from .errors import NumericFailureError, SpecValidationError
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


_ARGS_OF_KIND = {
    "actions": dict(type=_float_list, required=True, metavar="LIST"),
    "window": dict(type=_window_arg, metavar="LO,HI,POINTS"),
    "count": dict(type=int),
    "flag": dict(action="store_true", default=None),
    "scalar": dict(type=float),
}


def _help(knob: harness.Knob) -> str:
    if knob.default is None or knob.kind == "flag":
        return knob.help
    values = knob.default if isinstance(knob.default, tuple) else (knob.default,)
    return f"{knob.help} (default: {','.join(f'{v:g}' for v in values)})"


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

    for experiment, row in harness.TABLE.items():
        p = sub.add_parser(experiment.replace("_", "-"), parents=[common],
                           help=row.help)
        for key, knob in {**row.numeric, **row.grids}.items():
            if knob.kind == "initial":  # a config-file key only
                continue
            flag = "--strobes" if key == "N" else "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, help=_help(knob),
                           **_ARGS_OF_KIND[knob.kind])

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


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecValidationError(f"cannot read {what} file: {exc}")
    except ValueError as exc:  # also ints past the digit limit
        raise SpecValidationError(f"{what} file is not valid JSON: {exc}")


def _load_system(args):
    if args.scenario:
        return harness.scenario_system(args.scenario)
    if args.system:
        return system_from_config(_read_json(args.system, "system"))
    raise SpecValidationError("provide --system FILE or --scenario NAME")


def _run_experiment(args) -> int:
    system = _load_system(args)
    experiment = args.command.replace("-", "_")
    row = harness.TABLE[experiment]
    # the knobs given, in the shape of a config file's numeric block
    given = {key: value for key, value in vars(args).items() if value is not None}
    numeric = {key: given[key] for key in row.numeric if key in given}
    numeric["grids"] = {key: list(v) if isinstance(v, tuple) else [v]
                        for key, v in given.items() if key in row.grids}
    cfg = harness.ExperimentConfig(
        system=system,
        experiment=experiment,
        numeric=harness.numeric_config(experiment, numeric),
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
        cfg = harness.parse_config(_read_json(args.config, "config"))
        if args.out is not None:
            cfg = replace(cfg, output=replace(cfg.output, dir=args.out))
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
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Edge values through the whole command line, run in-process.

Every subcommand, and `run --config` documents, get their knobs from an
edge pool: 0, -1, nan, inf, 1e308, an integer past the float range,
non-numbers and missing keys.  Whatever the input, the exit status is 0, 2
or 3, and errors.json is written exactly when it is 3; an uncaught
exception (a traceback, exit 1) fails the test.  One usable CPU is
reported, so nothing forks, and strobe counts stay at or below 3.
"""
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from duffinglab import cli
from duffinglab.functions import system_to_config
from duffinglab.harness import EXPERIMENTS, list_scenarios, scenario_system

HUGE = 10 ** 400  # an int that float() cannot hold

# command-line spellings of the edge pool; "x" is the non-number
EDGE_ARGS = ("0", "-1", "nan", "inf", "1e308", str(HUGE), "x")
# JSON values of the edge pool; missing keys are drawn separately
EDGE_JSON = (0, -1, math.nan, math.inf, 1e308, HUGE, "x", None, [], True)
# a larger strobe count or N is honoured, so it costs time and shows nothing
STROBES = ("0", "-1", "x", "nan", "1e308")
N_JSON = (0, -1, 2.5, math.nan, math.inf, 1e308, "x", None, True)
# a finite huge horizon is honoured too: the integrator spends its whole
# step budget (about 5 s) before it exits 3
HORIZONS = ("0", "-1", "nan", "inf", str(HUGE), "x")
HORIZONS_JSON = (0, -1, math.nan, math.inf, HUGE, "x", None)

DING = system_to_config(scenario_system("ding"))
SCENARIOS = tuple(entry["name"] for entry in list_scenarios())


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _exit_status(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        return exc.code


def _run(argv):
    """(exit status, whether errors.json was written) of argv, with dicts in
    argv passed as JSON files and a fresh output directory."""
    with tempfile.TemporaryDirectory() as root:
        out = os.path.join(root, "out")
        argv = list(argv)
        for i, arg in enumerate(argv):
            if isinstance(arg, dict):  # a document to pass as a file
                argv[i] = os.path.join(root, f"input{i}.json")
                with open(argv[i], "w") as fh:
                    json.dump(arg, fh)  # writes NaN and Infinity as such
        if argv[0] != "scenarios":  # the listing writes no files
            argv += ["--out", out]
        rc = _exit_status(argv)
        return rc, any("errors.json" in names for _, _, names in os.walk(out))


def _check(argv):
    rc, wrote_errors = _run(argv)
    assert rc in (0, 2, 3), argv
    assert wrote_errors == (rc == 3), argv


def _value(pool, *valid):
    """A valid value half of the time, an edge value otherwise."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(pool))


def _knobs(draw, knobs):
    """Flags from (flag, strategy) pairs, each one left out or drawn."""
    argv = []
    for flag, values in knobs:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


def _csv(values, max_size=3):
    return st.lists(values, min_size=1, max_size=max_size).map(",".join)


def _window(lo, hi, points):
    return st.tuples(_value(EDGE_ARGS, lo), _value(EDGE_ARGS, hi),
                     _value(EDGE_ARGS, points)).map(",".join)


ORBIT_KNOBS = (("--tol", _value(EDGE_ARGS, "1e-9")),
               ("--t0", _value(EDGE_ARGS, "0.5")))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from((
        "conditions", "averages", "oscillatory", "simulate", "poincare",
        "classify", "sweep", "escape-scan", "normalform-check", "scenarios",
        "run", "system-file")))
    source = ["--scenario", "ding"]
    strobes = ["--strobes", draw(_value(STROBES, "1", "3"))]
    if command == "conditions":
        return [command, *source, *_knobs(draw, [
            ("--beta-window", _window("1e4", "1e9", "12"))])]
    if command == "averages":
        argv = [command, *source, "--I", draw(_csv(_value(EDGE_ARGS, "1e4")))]
        return argv + draw(st.sampled_from(([], ["--check-asymptotics"])))
    if command == "oscillatory":
        # ding has no periodic term, so no circle mean runs at any h
        return [command, *source, *_knobs(draw, [
            ("--h-window", _window("1e4", "1e8", "9"))])]
    if command in ("poincare", "classify"):
        return [command, *source, *strobes, *_knobs(draw, [
            ("--I0", _value(EDGE_ARGS, "25")), *ORBIT_KNOBS])]
    if command == "simulate":
        return [command, *source, *strobes, *_knobs(draw, [
            ("--I0", _value(EDGE_ARGS, "25")),
            ("--horizon", _value(HORIZONS, "50")), *ORBIT_KNOBS])]
    if command == "sweep":
        return [command, *source, *strobes,
                "--I0", draw(_csv(_value(EDGE_ARGS, "25", "1e4"))),
                *_knobs(draw, ORBIT_KNOBS)]
    if command == "escape-scan":
        return [command, *source, *strobes, *_knobs(draw, [
            ("--I0", _value(EDGE_ARGS, "1e4")),
            ("--phases", _value(EDGE_ARGS, "32")),
            ("--tol", _value(EDGE_ARGS, "1e-9"))])]
    if command == "normalform-check":
        return [command, *source, *_knobs(draw, [
            ("--h", _value(EDGE_ARGS, "1e4"))])]
    if command == "scenarios":
        return [command] + draw(st.sampled_from(([], ["--json"])))
    if command == "run":
        name = draw(st.sampled_from(SCENARIOS + ("nope",)))
        return ["run", "--scenario", name, *strobes, *_knobs(draw, [
            ("--tol", _value(EDGE_ARGS, "1e-9"))])]
    system = {"n": draw(_value(EDGE_JSON, 1)),
              "g": {"kind": "arctan", "scale": draw(_value(EDGE_JSON, 1.0))}}
    if draw(st.integers(0, 4)) == 0:
        del system[draw(st.sampled_from(("n", "g")))]
    command = draw(st.sampled_from(("conditions", "classify")))
    return [command, "--system", system] + (
        strobes if command == "classify" else [])


GRIDS = {
    "I0": (25.0, 1.0e4), "t0": (0.0,), "h": (1.0e4,), "phases": (32.0,),
    "I": (1.0e4,), "h_window": (1.0e4, 1.0e8, 9.0),
    "beta_window": (1.0e4, 1.0e9, 12.0), "initial": (5.0, 0.0, 0.0),
}


@st.composite
def config_documents(draw):
    doc = {"system": DING,
           "experiment": draw(st.sampled_from(EXPERIMENTS + ("bogus",)))}
    numeric = {"N": draw(_value(N_JSON, 1, 3))}
    for key, values in (("tol", _value(EDGE_JSON, 1.0e-9)),
                        ("horizon", _value(HORIZONS_JSON, 50.0))):
        if draw(st.booleans()):
            numeric[key] = draw(values)
    grids = {}
    for key in draw(st.sets(st.sampled_from(sorted(GRIDS)))):
        entries = list(GRIDS[key])
        if draw(st.integers(0, 3)) == 0:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(
                st.sampled_from(EDGE_JSON))
        grids[key] = entries
    if draw(st.booleans()):
        numeric["grids"] = grids
    doc["numeric"] = numeric
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(("system", "experiment")))]
    return doc


_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture,
                                            HealthCheck.too_slow])


@_SETTINGS
@given(argv=command_lines())
def test_fuzzed_command_lines_exit_0_2_or_3(argv, monkeypatch):
    _one_cpu(monkeypatch)
    _check(argv)


@_SETTINGS
@given(doc=config_documents())
def test_fuzzed_config_documents_exit_0_2_or_3(doc, monkeypatch):
    _one_cpu(monkeypatch)
    _check(["run", "--config", doc])


@pytest.mark.parametrize("argv, named", [
    (["sweep", "--scenario", "ding", "--I0=-5"], "grids.I0"),
    (["normalform-check", "--scenario", "ding", "--h=-1"], "grids.h"),
    (["simulate", "--scenario", "ding", "--strobes", "0"], "config.numeric.N"),
    (["conditions", "--system", {"n": HUGE, "g": {"kind": "arctan"}}],
     "system.n"),
    (["sweep", "--scenario", "ding", "--I0", "5", "--strobes", "0"],
     "config.numeric.N"),
    (["escape-scan", "--scenario", "ding", "--phases", "32", "--tol", "0"],
     "config.numeric.tol"),
    (["run", "--scenario", "ding", "--strobes", "0"], "config.numeric.N"),
    (["escape-scan", "--scenario", "ding", "--phases", "10001",
      "--strobes", "1"], "grids.phases"),
])
def test_bad_input_exits_2_naming_its_path(argv, named, capsys, monkeypatch):
    _one_cpu(monkeypatch)
    assert _run(argv) == (2, False)
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["conditions", "--system"],
                                  ["run", "--config"]])
def test_json_int_past_the_digit_limit_exits_2(argv, tmp_path):
    # json refuses ints of more than 4300 digits with a ValueError
    path = tmp_path / "input.json"
    path.write_text('{"n": 1' + "0" * 5000 + "}")
    rc = _exit_status(argv + [str(path), "--out", str(tmp_path / "out")])
    assert rc == 2

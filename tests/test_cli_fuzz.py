"""Edge values through the whole command line, run in-process.

Every subcommand, and `run --config` documents, get their knobs from an
edge pool: 0, -1, nan, inf, 1e308, an integer past the float range,
non-numbers and missing keys.  Whatever the input, the exit status is 0, 2
or 3, errors.json is written exactly when it is 3, and nothing at all is
written when it is 2; an uncaught exception (a traceback, exit 1) fails
the test.  A last property gives the same valid knobs once as argv and
once as a `run --config` document and requires byte-identical trees.  One
usable CPU is reported, so nothing forks; fuzzed strobe counts stay at or
below 3.
"""
import json
import math
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from duffinglab import cli
from duffinglab.functions import system_to_config
from duffinglab.harness import (
    EXPERIMENTS, MAX_STROBES, TABLE, list_scenarios, scenario_system)

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
        files = [name for _, _, names in os.walk(out) for name in names]
        if rc == 2:  # refused inputs are refused before anything is written
            assert files == [], argv
        return rc, "errors.json" in files


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
    "I0": (25.0,), "t0": (0.0,), "h": (1.0e4,), "phases": (32.0,),
    "I": (1.0e4,), "h_window": (1.0e4, 1.0e8, 9.0),
    "beta_window": (1.0e4, 1.0e9, 12.0), "initial": (5.0, 0.0, 0.0),
    "check_asymptotics": (1,),
}


def _rarely(draw):
    # hypothesis leans towards small integers, so 9 is the rare draw
    return draw(st.integers(0, 9)) == 9


@st.composite
def config_documents(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS + ("bogus",)))
    doc = {"system": DING, "experiment": experiment}
    row = TABLE.get(experiment)
    # mostly the knobs and grid keys the experiment reads, required ones
    # included, so that most documents reach a runner; N always where it is
    # read, which keeps orbits short
    numeric = {}
    for key, values in (("N", _value(N_JSON, 1, 3)),
                        ("tol", _value(EDGE_JSON, 1.0e-9)),
                        ("horizon", _value(HORIZONS_JSON, 50.0))):
        reads = row is not None and key in row.numeric
        if (reads and (key == "N" or draw(st.booleans()))) or _rarely(draw):
            numeric[key] = draw(values)
    if row is None or _rarely(draw):
        keys = draw(st.sets(st.sampled_from(sorted(GRIDS))))
    else:
        keys = draw(st.sets(st.sampled_from(sorted(row.grids))))
        if not _rarely(draw):
            keys |= {k for k, knob in row.grids.items() if knob.kind == "actions"}
    grids = {}
    for key in sorted(keys):
        entries = list(GRIDS[key])
        if draw(st.integers(0, 3)) == 3:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(
                st.sampled_from(EDGE_JSON))
        grids[key] = entries
    if not _rarely(draw):
        numeric["grids"] = grids
    doc["numeric"] = numeric
    if _rarely(draw):
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


ARCTAN = {"kind": "arctan", "scale": 1.0}


def _trig(cos1, period=2.0 * math.pi):
    return {"kind": "trig_poly", "period": period, "cos": [cos1], "sin": []}


def _system(**pieces):
    return {"n": 1, "g": ARCTAN, **pieces}


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
    (["averages", "--scenario", "ding", "--I", "-1"], "grids.I"),
    (["escape-scan", "--scenario", "ding", "--I0", "-1"], "grids.I0"),
    (["escape-scan", "--scenario", "ding", "--phases", "2"], "grids.phases"),
    (["run", "--config", {"system": DING, "experiment": "classify", "numeric": {
        "grids": {"I00": [25.0], "phases": [64], "beta_window": [1e4, 1e9, 12]}}}],
     "config.numeric.grids.I00"),
    (["run", "--config", {"system": DING, "experiment": "conditions",
                          "numeric": {"horizon": 200.0}}],
     "config.numeric.horizon"),
    (["conditions", "--system", {"n": 10 ** 6,
                                 "g": {"kind": "arctan", "scale": 1.0}}],
     "system.n"),
    (["simulate", "--scenario", "ding", "--strobes", str(MAX_STROBES + 1)],
     "config.numeric.N"),
    (["conditions", "--system", _system(g={"kind": "sum", "terms": [
        ARCTAN, _trig(1.0)]})], "system.g.terms[1]:"),
    (["conditions", "--system", _system(g={"kind": "scaled", "k": 2.0,
                                          "child": _trig(1.0)})],
     "system.g.child:"),
    (["conditions", "--system", _system(psi={"kind": "sum", "terms": [
        _trig(0.5), ARCTAN]})], "system.psi.terms[1]:"),
    (["conditions", "--system", _system(psi={"kind": "sum", "terms": [
        _trig(0.5), _trig(0.5, period=1.0)]})], "system.psi.terms[1].period:"),
    (["conditions", "--system", _system(psi=_trig(0.5, period=-1.0))],
     "system.psi:"),
    (["conditions", "--system", _system(
        g={"kind": "algebraic_tail", "c": 1.0, "e": 0.25})], "system.g:"),
    (["conditions", "--system", _system(g={"kind": "sum", "terms": [
        ARCTAN, {"kind": "algebraic_tail", "c": 1.0, "e": 1.0}]})],
     "system.g.terms[1]:"),
    (["conditions", "--system", _system(p=_trig(4.0, period=3.0))],
     "system.p.period:"),
    (["conditions", "--system", _system(p=dict(_trig(4.0), constant=1.0))],
     "system.p.constant:"),
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


def _tree(root):
    """{relative path: bytes} of every file under root."""
    tree = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


# valid values of each knob; "I0" is a list where the experiment scans it
KNOB_VALUES = {
    "N": (1, 3), "tol": (1.0e-9, 1.0e-8), "horizon": (50.0,), "t0": (0.5,),
    "I0": (25.0, 1.0e4), "I": ((1.0e4, 1.0e5),), "phases": (32,), "h": (1.0e4,),
    "check_asymptotics": (True,), "h_window": ((1.0e4, 1.0e8, 9),),
    "beta_window": ((1.0e4, 1.0e9, 12),),
}


@st.composite
def knob_sets(draw):
    """(experiment, {knob: typed value}).  Required knobs are always given,
    and so is N where its default of 2000 strobes per orbit costs seconds."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    row = TABLE[experiment]
    knobs = {}
    for key, knob in {**row.numeric, **row.grids}.items():
        always = knob.kind == "actions" or (key == "N" and knob.default > 500)
        if knob.kind == "initial" or not (always or draw(st.booleans())):
            continue
        value = draw(st.sampled_from(KNOB_VALUES[key]))
        if knob.kind == "actions" and not isinstance(value, tuple):
            value = (value,)
        knobs[key] = value
    return experiment, knobs


def _spell(value):
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return repr(value)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=knob_sets())
@example(case=("simulate", {}))  # every default, N included
@example(case=("classify", {}))
def test_argv_and_config_document_write_identical_trees(case, monkeypatch):
    _one_cpu(monkeypatch)
    experiment, knobs = case
    row = TABLE[experiment]
    argv = [experiment.replace("_", "-"), "--scenario", "ding"]
    numeric = {"grids": {}}
    for key, value in knobs.items():
        if key in row.numeric:
            numeric[key] = value
            argv += ["--strobes" if key == "N" else f"--{key}", _spell(value)]
        else:
            numeric["grids"][key] = list(value) if isinstance(value, tuple) else [value]
            flag = "--" + key.replace("_", "-")
            argv += [flag] if value is True else [flag, _spell(value)]
    document = {"system": DING, "experiment": experiment, "numeric": numeric}
    with tempfile.TemporaryDirectory() as root:
        out = os.path.join(root, "out")
        path = os.path.join(root, "config.json")
        with open(path, "w") as fh:
            json.dump(document, fh)
        rc = _exit_status(argv + ["--out", out])
        tree = _tree(out)
        shutil.rmtree(out, ignore_errors=True)
        assert _exit_status(["run", "--config", path, "--out", out]) == rc
        assert _tree(out) == tree
    assert rc in (0, 3) and "config.json" in tree

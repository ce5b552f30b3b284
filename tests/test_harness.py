import json
import math
import os
import subprocess
import sys

import pytest

from duffinglab import cli
from duffinglab import conditions as cond
from duffinglab.errors import NumericFailureError, SpecValidationError
from duffinglab.functions import system_to_config
from duffinglab.harness import (
    DEFAULT_HORIZON,
    DEFAULT_N,
    DEFAULT_TOL,
    ExperimentConfig,
    NumericConfig,
    OutputConfig,
    list_scenarios,
    parse_config,
    resolved_config,
    run,
    run_scenario,
    scenario_system,
    write_csv,
    write_json,
)

DING_SYSTEM = system_to_config(scenario_system("ding"))
LL_SYSTEM = system_to_config(scenario_system("ll-bounded"))


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _snapshot(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            p = os.path.join(base, name)
            out[os.path.relpath(p, root)] = _read(p)
    return out


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_defaults():
    cfg = parse_config({"system": DING_SYSTEM, "experiment": "conditions"})
    assert cfg.experiment == "conditions"
    assert cfg.numeric.tol == DEFAULT_TOL
    assert cfg.numeric.N == DEFAULT_N
    assert cfg.numeric.horizon == DEFAULT_HORIZON
    assert cfg.numeric.grids == {}
    assert cfg.output.dir == "."
    assert cfg.output.formats == ("csv", "json")


def test_parse_config_full():
    cfg = parse_config({
        "system": DING_SYSTEM,
        "experiment": "simulate",
        "numeric": {"tol": 1e-10, "N": 64, "horizon": 50.0,
                    "grids": {"I0": [25.0], "t0": [0.5]}},
        "output": {"dir": "somewhere", "formats": ["json"]},
    })
    assert cfg.numeric.tol == 1e-10
    assert cfg.numeric.grids == {"I0": 25.0, "t0": 0.5}
    assert cfg.output.formats == ("json",)


@pytest.mark.parametrize("mutate", [
    lambda c: c.update(bogus=1),
    lambda c: c.pop("system"),
    lambda c: c.pop("experiment"),
    lambda c: c.update(experiment="frobnicate"),
    lambda c: c.update(numeric={"weird": 1}),
    lambda c: c.update(numeric={"N": 0}),
    lambda c: c.update(numeric={"N": True}),
    lambda c: c.update(numeric={"N": 2.5}),
    lambda c: c.update(numeric={"horizon": -1.0}),
    lambda c: c.update(numeric={"grids": {"I0": []}}),
    lambda c: c.update(numeric={"grids": {"I0": ["abc"]}}),
    lambda c: c.update(numeric={"grids": "nope"}),
    lambda c: c.update(output={"formats": ["yaml"]}),
    lambda c: c.update(output={"formats": []}),
    lambda c: c.update(output={"surprise": 1}),
    # conditions reads no N or horizon, so the bounds need experiments that do
    lambda c: c.update(experiment="classify", numeric={"N": 2.5}),
    lambda c: c.update(experiment="classify", numeric={"N": True}),
    lambda c: c.update(experiment="simulate", numeric={"horizon": -1.0}),
    lambda c: c.update(experiment=["classify"]),
])
def test_parse_config_rejects_bad_shapes(mutate):
    base = {"system": DING_SYSTEM, "experiment": "conditions"}
    mutate(base)
    with pytest.raises(SpecValidationError):
        parse_config(base)


def test_parse_config_error_names_the_path():
    with pytest.raises(SpecValidationError, match="config.numeric.grids.I0"):
        parse_config({"system": DING_SYSTEM, "experiment": "classify",
                      "numeric": {"grids": {"I0": []}}})


def test_resolved_config_round_trips():
    obj = {
        "system": LL_SYSTEM,
        "experiment": "sweep",
        "numeric": {"tol": 1e-8, "N": 10,
                    "grids": {"I0": [50.0, 100.0], "t0": [0.0]}},
        "output": {"dir": "x", "formats": ["csv", "json"]},
    }
    cfg = parse_config(obj)
    again = parse_config(resolved_config(cfg))
    assert again == cfg


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def test_write_csv_format(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ("a", "b", "c"),
              [(0.1, None, True), (2, 'says "hi", twice', False)])
    raw = _read(path)
    assert raw == (
        b"a,b,c\r\n"
        b"0.10000000000000001,,true\r\n"
        b'2,"says ""hi"", twice",false\r\n'
    )


def test_csv_floats_round_trip(tmp_path):
    values = (math.pi, 1.0 / 3.0, 6.02e23, 1.0e-300, -0.0)
    path = str(tmp_path / "f.csv")
    write_csv(path, ("v",), [(v,) for v in values])
    lines = _read(path).decode().splitlines()[1:]
    assert tuple(float(s) for s in lines) == values


def test_write_json_stable(tmp_path):
    path = str(tmp_path / "t.json")
    write_json(path, {"b": 1, "a": {"z": 2.5, "y": [1, 2]}})
    raw = _read(path).decode()
    assert raw.endswith("\n")
    assert raw.index('"a"') < raw.index('"b"')
    assert json.loads(raw) == {"b": 1, "a": {"z": 2.5, "y": [1, 2]}}


def test_writers_leave_no_temp_files(tmp_path):
    write_csv(str(tmp_path / "a.csv"), ("x",), [(1,)])
    write_json(str(tmp_path / "a.json"), {})
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "a.json"]


# ---------------------------------------------------------------------------
# run()
# ---------------------------------------------------------------------------

def _conditions_cfg(out_dir, formats=("csv", "json")):
    return parse_config({
        "system": DING_SYSTEM,
        "experiment": "conditions",
        "output": {"dir": str(out_dir), "formats": list(formats)},
    })


def test_run_writes_echo_and_artifacts(tmp_path):
    cfg = _conditions_cfg(tmp_path / "out")
    written = run(cfg)
    names = [os.path.basename(p) for p in written]
    assert names == ["config.json", "conditions.json"]
    echo = json.loads(_read(written[0]))
    assert echo == resolved_config(cfg)
    report = json.loads(_read(written[1]))
    assert report["regime"] == "StrictlyAbove"


def test_run_is_byte_deterministic(tmp_path):
    cfg = _conditions_cfg(tmp_path / "out")
    run(cfg)
    first = _snapshot(tmp_path / "out")
    run(cfg)
    assert _snapshot(tmp_path / "out") == first


def test_run_formats_filter(tmp_path):
    cfg = parse_config({
        "system": DING_SYSTEM,
        "experiment": "classify",
        "numeric": {"N": 8, "grids": {"I0": [25.0]}},
        "output": {"dir": str(tmp_path / "j"), "formats": ["json"]},
    })
    written = run(cfg)
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["classify.json", "config.json"]

    cfg = parse_config({
        "system": DING_SYSTEM,
        "experiment": "classify",
        "numeric": {"N": 8, "grids": {"I0": [25.0]}},
        "output": {"dir": str(tmp_path / "c"), "formats": ["csv"]},
    })
    written = run(cfg)
    names = sorted(os.path.basename(p) for p in written)
    # the config echo is part of the determinism contract, never filtered
    assert names == ["config.json", "orbit.csv"]


def test_conditions_computes_the_beta_profile_once(tmp_path, monkeypatch):
    calls = []
    profile = cond.beta_profile

    def counted(system, h_grid):
        calls.append(len(h_grid))
        return profile(system, h_grid)

    monkeypatch.setattr(cond, "beta_profile", counted)
    run(parse_config({
        "system": system_to_config(cond.beta_calibration_family(0.5)),
        "experiment": "conditions",
        "numeric": {"grids": {"beta_window": [1.0e4, 1.0e8, 9]}},
        "output": {"dir": str(tmp_path)},
    }))
    assert calls == [9]
    rows = _read(str(tmp_path / "beta.csv")).decode().split("\r\n")
    assert rows[0] == "h,beta" and len([r for r in rows[1:] if r]) == 9


def test_run_missing_grid_is_validation_error(tmp_path):
    with pytest.raises(SpecValidationError, match="grids.I"):
        run(parse_config({
            "system": DING_SYSTEM,
            "experiment": "averages",
            "output": {"dir": str(tmp_path)},
        }))
    assert os.listdir(tmp_path) == []


def test_run_numeric_failure_writes_errors_json(tmp_path):
    # sin-only periodic term averages to exactly zero at every energy, so
    # the envelope fit has nothing to hold on to; the run must fail with
    # code-3 semantics and leave a machine-readable trace
    cfg = parse_config({
        "system": LL_SYSTEM,
        "experiment": "oscillatory",
        "numeric": {"grids": {"h_window": [1.0e4, 1.0e8, 16]}},
        "output": {"dir": str(tmp_path)},
    })
    with pytest.raises(NumericFailureError):
        run(cfg)
    payload = json.loads(_read(str(tmp_path / "errors.json")))
    assert payload["error"] == "FitDegenerateError"
    assert "message" in payload and "details" in payload


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_scenario_catalog_stable():
    catalog = list_scenarios()
    assert len(catalog) >= 4
    names = [s["name"] for s in catalog]
    assert names == ["ding", "ll-bounded", "critical-pair", "linear"]
    for entry in catalog:
        assert entry["description"]
        assert entry["runs"]
    assert list_scenarios() == catalog


def test_scenario_system_aliases():
    for name in ("ding", "ll-bounded", "critical-pair-below",
                 "critical-pair-above", "linear"):
        system = scenario_system(name)
        assert system.n >= 1
    with pytest.raises(SpecValidationError):
        scenario_system("does-not-exist")


def test_run_scenario_unknown_name():
    with pytest.raises(SpecValidationError):
        run_scenario("does-not-exist", "out")


def test_run_scenario_linear_bundle(tmp_path):
    written = run_scenario("linear", str(tmp_path))
    rel = sorted(os.path.relpath(p, tmp_path) for p in written)
    assert rel == [
        os.path.join("classify", "classify.json"),
        os.path.join("classify", "config.json"),
        os.path.join("classify", "orbit.csv"),
        os.path.join("conditions", "conditions.json"),
        os.path.join("conditions", "config.json"),
    ]
    verdict = json.loads(_read(str(tmp_path / "classify" / "classify.json")))
    assert verdict["verdict"] == "BoundedEvidence"
    echo = json.loads(_read(str(tmp_path / "classify" / "config.json")))
    assert echo["numeric"]["tol"] == 1.0e-12


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_scenarios_listing(capsys):
    assert cli.main(["scenarios"]) == 0
    text = capsys.readouterr().out
    assert "ding" in text and "critical-pair" in text

    assert cli.main(["scenarios", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == list_scenarios()


def test_cli_conditions_run(tmp_path, capsys):
    rc = cli.main(["conditions", "--scenario", "linear",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == 2
    assert (tmp_path / "conditions.json").exists()


def test_cli_unknown_scenario_exits_2(tmp_path, capsys):
    rc = cli.main(["conditions", "--scenario", "nope", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_source_exits_2(tmp_path, capsys):
    rc = cli.main(["conditions", "--out", str(tmp_path)])
    assert rc == 2


def test_cli_bad_system_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "sys.json"
    bad.write_text("{not json")
    rc = cli.main(["conditions", "--system", str(bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


def test_cli_numeric_failure_exits_3(tmp_path, capsys):
    rc = cli.main(["oscillatory", "--scenario", "ll-bounded",
                   "--h-window", "1e4,1e8,16", "--out", str(tmp_path)])
    assert rc == 3
    assert (tmp_path / "errors.json").exists()
    assert "numeric failure" in capsys.readouterr().err


def test_cli_argparse_failures_exit_2(tmp_path):
    for argv in (["frobnicate"],
                 ["classify", "--scenario", "linear", "--format", "yaml"],
                 ["oscillatory", "--scenario", "linear", "--h-window", "1,2"],
                 ["averages", "--scenario", "linear"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


_NAN_SCALE = {"n": 1, "g": {"kind": "arctan", "scale": math.nan}}
_INF_FORCING = {"n": 1, "g": {"kind": "arctan", "scale": 1.0},
                "p": {"kind": "trig_poly", "period": 2.0 * math.pi,
                      "cos": [math.inf], "sin": []}}


@pytest.mark.parametrize("argv, document, named", [
    (["classify", "--scenario", "ding", "--I0", "nan"], None, "grids.I0"),
    (["sweep", "--scenario", "ding", "--I0", "100,inf"], None, "grids.I0"),
    (["simulate", "--scenario", "ding", "--horizon", "inf"], None,
     "numeric.horizon"),
    (["simulate", "--scenario", "ding", "--horizon", "nan"], None,
     "numeric.horizon"),
    (["classify", "--system"], _NAN_SCALE, "system.g.scale"),
    (["classify", "--system"], _INF_FORCING, "system.p.cos"),
    (["run", "--config"], {"system": DING_SYSTEM, "experiment": "classify",
                           "numeric": {"tol": math.nan}}, "config.numeric.tol"),
    (["run", "--config"], {"system": DING_SYSTEM, "experiment": "classify",
                           "numeric": {"grids": {"I0": [math.inf]}}},
     "grids.I0"),
])
def test_cli_rejects_non_finite_numbers(argv, document, named, tmp_path, capsys):
    if document is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))  # json writes NaN / Infinity
        argv = argv + [str(path)]
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["conditions", "--scenario", "ding", "--beta-window", "1e4,1e5,12"],
     "grids.beta_window"),
    (["conditions", "--scenario", "ding", "--beta-window", "1e4,1e9,3"],
     "grids.beta_window"),
    (["oscillatory", "--scenario", "ll-bounded", "--h-window", "1e8,1e4,65"],
     "grids.h_window"),
    # point counts past the cap are refused before any grid is allocated
    (["oscillatory", "--scenario", "ll-bounded", "--h-window", "1e4,1e8,1e12"],
     "grids.h_window"),
    (["oscillatory", "--scenario", "ll-bounded", "--h-window", "1e4,1e8,10001"],
     "grids.h_window"),
    (["conditions", "--scenario", "ding", "--beta-window", "1e4,1e9,12.5"],
     "grids.beta_window"),
])
def test_cli_bad_window_exits_2_without_traceback(argv, named, tmp_path):
    proc = _run_module(argv + ["--out", str(tmp_path)])
    assert proc.returncode == 2
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run_module(argv):
    """`python -m duffinglab argv` from this checkout's src."""
    return subprocess.run([sys.executable, "-m", "duffinglab", *argv],
                          env=_src_env(), capture_output=True, text=True,
                          timeout=120)


def test_cli_float_overflow_exits_3_without_traceback(tmp_path):
    # c = 1e200 squares past the float range in the integrator's error norm
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "g": {"kind": "rational1", "c": 1e200}}))
    out = tmp_path / "out"
    proc = _run_module(["classify", "--system", str(path), "--I0", "50",
                        "--out", str(out)])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    payload = json.loads(_read(str(out / "errors.json")))
    assert payload["error"] == "ArithmeticFailureError"
    assert "OverflowError" in payload["message"]


@pytest.mark.parametrize("command", [
    ["conditions"], ["averages", "--I", "1e4"], ["oscillatory"],
    ["normalform-check"],
])
@pytest.mark.parametrize("knob", [["--tol", "1e-3"], ["--strobes", "7"]])
def test_cli_rejects_knobs_the_subcommand_ignores(command, knob, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--scenario", "ding", "--out", str(out)] + knob)
    assert exc.value.code == 2
    assert knob[0] in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_config_file(tmp_path, capsys):
    config = {
        "system": DING_SYSTEM,
        "experiment": "classify",
        "numeric": {"N": 8, "grids": {"I0": [25.0]}},
        "output": {"dir": str(tmp_path / "ignored")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["run", "--config", str(path),
                   "--out", str(tmp_path / "real")])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "real" / "classify.json").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("knob", [["--tol", "1e-3"], ["--strobes", "7"]])
def test_cli_run_config_rejects_numeric_knobs(knob, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": DING_SYSTEM, "experiment": "classify",
                                "numeric": {"N": 5, "grids": {"I0": [25.0]}}}))
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(path), "--out", str(out)] + knob)
    assert rc == 2
    err = capsys.readouterr().err
    assert knob[0] in err and "numeric block" in err
    assert not out.exists()


def test_cli_run_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": DING_SYSTEM,
                                "experiment": "mystery"}))
    assert cli.main(["run", "--config", str(path)]) == 2


def test_cli_classify_csv_is_rfc4180(tmp_path, capsys):
    rc = cli.main(["classify", "--scenario", "linear", "--I0", "100",
                   "--strobes", "8", "--tol", "1e-12",
                   "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    raw = _read(str(tmp_path / "orbit.csv"))
    lines = raw.split(b"\r\n")
    assert lines[0] == b"k,t,x,y,I,theta_lift"
    assert len(lines) == 11  # header + 9 iterates + trailing empty
    # every float field carries 17 significant digits
    x_field = lines[1].split(b",")[2].decode()
    assert float(x_field) == pytest.approx(math.sqrt(200.0), rel=1e-15)


@pytest.mark.parametrize("argv", [
    ["conditions", "--scenario", "ding"],
    ["run", "--scenario", "ding"],
    ["run", "--config", {"system": DING_SYSTEM, "experiment": "conditions"}],
])
def test_cli_out_naming_a_file_exits_2_and_writes_nothing(argv, tmp_path, capsys):
    if isinstance(argv[-1], dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(path)]
    afile = tmp_path / "afile"
    afile.write_text("kept")
    before = _snapshot(str(tmp_path))
    assert cli.main(argv + ["--out", str(afile)]) == 2
    assert "config.output.dir" in capsys.readouterr().err
    assert _snapshot(str(tmp_path)) == before


def test_config_initial_at_the_origin_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "system": DING_SYSTEM, "experiment": "classify",
        "numeric": {"N": 3, "grids": {"initial": [0, 0, 0]}}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "config.numeric.grids.initial" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux")
def test_normalform_check_peak_memory_is_bounded(tmp_path):
    # at h = 1e10 the potential generator takes all 2^20 panels; evaluated
    # one block at a time the command peaks near 66 MB, in one pass ~690 MB
    script = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'duffinglab', "
        "'normalform-check', '--scenario', 'ding', '--h', '1e10', "
        "'--out', sys.argv[1]], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                          env=_src_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    peak_mb = int(proc.stdout) / 1024.0
    assert peak_mb < 150.0

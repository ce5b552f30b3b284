"""Fan-out of independent strobe orbits over forked children.

`dynamics._orbit_slots` runs serially with one usable CPU and forks one
child per usable CPU otherwise.  The worker count comes from
`os.sched_getaffinity`, so patching it selects either path on any host.
"""
import math
import os
import pickle
import time

import pytest

from duffinglab import dynamics
from duffinglab.actionangle import PhaseState
from duffinglab.errors import SpecValidationError
from duffinglab.fitting import DecayFit
from duffinglab.harness import scenario_system

from test_harness import _run_module

TWO_PI = 2.0 * math.pi


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _initials():
    x0 = math.sqrt(2.0e4)
    states = [PhaseState(x=x0, y=0.0, t=TWO_PI * k / 7) for k in range(7)]
    # the origin is an error slot: DegenerateStateError, no tail fit
    states.insert(3, PhaseState(x=0.0, y=0.0, t=0.0))
    return states


@pytest.mark.parametrize("cpus", [2, 3])
def test_fanned_slots_equal_serial_slots(cpus, monkeypatch):
    initials = _initials()
    _cpus(monkeypatch, 1)
    serial = dynamics._orbit_slots(
        scenario_system("critical-pair-above"), initials, 12, 1.0e-9)
    _cpus(monkeypatch, cpus)
    fanned = dynamics._orbit_slots(
        scenario_system("critical-pair-above"), initials, 12, 1.0e-9)
    _assert_no_children()
    # one pickle per slot: objects shared across slots (the verdict
    # strings) come back as one copy per child, which only moves memo refs
    assert [pickle.dumps(s) for s in fanned] == [pickle.dumps(s) for s in serial]
    assert serial[3].tail_fit is None
    assert "DegenerateStateError" in serial[3].error
    assert math.isnan(serial[3].max_I)
    assert all(isinstance(v.tail_fit, DecayFit) for v in serial[:3] + serial[4:])


def test_orbits_are_dealt_back_and_forth():
    assert dynamics._deal(8, 2) == [[0, 3, 4, 7], [1, 2, 5, 6]]
    assert dynamics._deal(7, 3) == [[0, 5, 6], [1, 4], [2, 3]]
    for count, workers in ((1, 1), (5, 2), (64, 3), (20, 7)):
        shares = dynamics._deal(count, workers)
        assert len(shares) == workers
        assert sorted(i for share in shares for i in share) == list(range(count))
        assert max(map(len, shares)) - min(map(len, shares)) <= 1


def test_bad_knobs_raise_before_any_fork(monkeypatch):
    _cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for N, tol in ((0, 1.0e-9), (3, 0.0)):
        with pytest.raises(SpecValidationError):
            dynamics._orbit_slots(
                scenario_system("ding"), _initials(), N, tol)


def test_scan_leaves_no_child_behind(monkeypatch):
    _cpus(monkeypatch, 2)
    system = scenario_system("critical-pair-above")
    scan = dynamics.critical_escape_scan(system, 1.0e4, 32, 4, 1.0e-9)
    assert len(scan.verdicts) == 32
    _assert_no_children()
    # the best phase's tail slope is that of its orbit recomputed here
    best = PhaseState(x=math.sqrt(2.0e4), y=0.0, t=scan.best_t0)
    fit = dynamics._tail_fit(dynamics.orbit(system, best, 4, 1.0e-9))
    assert scan.best_tail_slope == fit.slope


def _raise_runtime_error(system, s0, N, tol):
    raise RuntimeError("boom in a child")


def _exit_silently(system, s0, N, tol):
    os._exit(7)


@pytest.mark.parametrize("slot, message", [
    (_raise_runtime_error, "RuntimeError: boom in a child"),
    (_exit_silently, "exited with status 7"),
])
def test_failing_child_makes_parent_raise(slot, message, monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(dynamics, "_orbit_slot", slot)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=message):
        dynamics.sweep(scenario_system("ding"), _initials(), 40, 1.0e-9)
    assert time.monotonic() - start < 30.0
    _assert_no_children()


def _bulky_slot(system, s0, N, tol):
    return bytes(45_000)


def test_interrupted_parent_reaps_children_blocked_on_full_pipes(monkeypatch):
    # each child pickles two 45 kB slots, more than a pipe holds, so the
    # second child is still blocked writing when the parent stops
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(dynamics, "_orbit_slot", _bulky_slot)

    def interrupted(data):
        raise KeyboardInterrupt

    monkeypatch.setattr(pickle, "loads", interrupted)
    initials = [PhaseState(x=1.0, y=0.0, t=0.1 * k) for k in range(4)]
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        dynamics._orbit_slots(scenario_system("linear"), initials, 1, 1.0e-6)
    assert time.monotonic() - start < 60.0
    _assert_no_children()


def test_cli_prints_each_written_path_once(tmp_path):
    out = tmp_path / "scan"
    proc = _run_module(["escape-scan", "--scenario", "critical-pair-above",
                        "--phases", "32", "--strobes", "3", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sorted(lines) == sorted(
        f"wrote {out / name}"
        for name in ("config.json", "escape_scan.csv", "escape_scan.json"))

"""duffinglab benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh single-threaded
child processes that drive ``duffinglab.cli.main(argv)`` in-process, so
the cli -> harness -> module path is the one users hit.  With --trace 0
the end-to-end metrics come from an untraced run; with --trace 1 the
per-layer metrics come from a traced run plus untraced layer probes.
Artifacts are checked against the paper's closed forms, every metric is
printed with its unit, and the last line of stdout is one JSON object.
The exit status is 0 only when the outputs are correct.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

SETUP_STARTS = 15
CHILD_TIMEOUT_S = 170
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


def _spawn(mode, spec_path, result_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PERFBENCH_LAUNCH_NS"] = str(time.monotonic_ns())
    subprocess.run([sys.executable, CHILD, mode, spec_path, result_path],
                   env=env, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    with open(result_path) as fh:
        return json.load(fh)


def _gate(workload, spec, repeats):
    """Problems with the outputs, and (attempted, failed) operations.

    An operation is one experiment or one orbit slot.  The artifact tree
    must be byte-identical across repeats, so the slots of the last repeat
    stand for every repeat."""
    problems = []
    n_exp = len(spec["experiments"])
    failed = 0
    for rep in repeats:
        for (slug, _), code in zip(spec["experiments"], rep["codes"]):
            if code != 0:
                failed += 1
                problems.append(f"{slug}: exit status {code}")
    digests = {rep["digest"] for rep in repeats}
    if len(digests) != 1:
        problems.append(f"artifact trees differ across {len(repeats)} repeats")
    if failed:
        return problems, n_exp * len(repeats), failed
    try:
        slots, slot_errors = workload.orbit_slots(spec["out_root"])
        problems.extend(workload.check(spec["out_root"]))
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"artifacts missing or malformed: {exc!r}")
        return problems, n_exp * len(repeats), 0
    if slot_errors:
        problems.append(f"{slot_errors} of {slots} orbit slots hold an error")
    attempted = (n_exp + slots) * len(repeats)
    return problems, attempted, slot_errors * len(repeats)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "duffinglab", "cli.py")):
        print("perfbench: src/duffinglab not found; run from the repository root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = os.path.join(".perfbench_work", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    out_root = os.path.join(work, "out")
    spec = {
        "src": "src",
        "work": work,
        "out_root": out_root,
        "seconds": args.seconds,
        "experiments": workload.experiments(args.seed, inputs, out_root),
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh, indent=2)
    result_path = os.path.join(work, "result.json")

    if args.trace:
        result = _spawn("trace", spec_path, result_path)
        repeats = result["repeats"]
        problems, attempted, failed = _gate(workload, spec, repeats)
        problems.extend(result["problems"])
        layer = result["layer"]
        plain = statistics.median(
            r["wall_s"] for r in repeats[1:] if not r["traced"])
        traced = statistics.median(r["wall_s"] for r in repeats if r["traced"])
        layer["trace.overhead_ratio"] = traced / plain
        layer["run.strobes_per_s"] = layer["dynamics.strobes"] / plain
        layer["run.fail_ratio"] = failed / attempted
        layer["run.operations"] = attempted
        metrics = {name: _metric(layer[name], unit)
                   for name, unit in _units("per_layer").items()}
    else:
        setups = [_spawn("setup", spec_path, result_path)["setup_s"]
                  for _ in range(SETUP_STARTS)]
        result = _spawn("run", spec_path, result_path)
        repeats = result["repeats"]
        problems, attempted, failed = _gate(workload, spec, repeats)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in repeats[1:]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: _metric(values[name], unit)
                   for name, unit in _units("end_to_end").items()}

    for problem in problems:
        print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} repeats={len(repeats)} "
          f"attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def _units(section):
    """{metric: unit} for one metric list of BENCHMARK.json."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "BENCHMARK.json")
    with open(path) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())

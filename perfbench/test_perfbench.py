"""Self-test of the benchmark.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# counts that must repeat exactly for one seed
EXACT = ("dynamics.steps", "dynamics.rejected", "dynamics.strobes",
         "dynamics.lift_fallbacks", "functions.rhs_evals", "quadrature.nodes",
         "harness.write_bytes")


def _bench(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", ["sweep-wide", "averaging"])
def test_two_traced_runs_of_one_seed_give_identical_counts(workload):
    counts = []
    for _ in range(2):
        proc = _bench(ROOT, workload, 7, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({k: result["metrics"][k]["value"] for k in EXACT})
    assert counts[0] == counts[1]
    if workload == "sweep-wide":
        assert counts[0]["dynamics.strobes"] == 10 * 200
    else:
        assert counts[0]["quadrature.nodes"] > 0 and counts[0]["dynamics.steps"] == 0


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "escape-scan", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

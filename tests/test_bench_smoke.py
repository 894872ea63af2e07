"""Smoke test of the benchmark harness: three units of each workload."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["entropy-free", "metric-bfs", "quotient-surface"])
def test_worker_runs_three_units(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--mode", "units", "--units", "3", "--gate", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(result["unit_s"]) == 3
    assert result["failed"] == 0, result["errors"]

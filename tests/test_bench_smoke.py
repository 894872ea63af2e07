"""Smoke test of the benchmark harness: three units of each workload, and
the pinned band and fit outputs of the first metric-bfs units."""

import importlib.util
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


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# band and fit of the first three metric-bfs units of seed 101, as computed
# by the per-element loops before the box lengths went column by column
METRIC_BFS_101 = (
    ("KaridiBand(lower=0.003616264052230466, upper=4.242640687119286, "
     "constant=276.5284795459592, radius=7, size=6692)",
     "PolyFit(degree=1.5973316188841504, correlation=0.09967228964441195)"),
    ("KaridiBand(lower=0.010540789604254166, upper=6.0, "
     "constant=94.8695531875913, radius=6, size=13864)",
     "PolyFit(degree=0.0, correlation=-0.13509275954222916)"),
    ("KaridiBand(lower=0.0010931410157327508, upper=5.0, "
     "constant=914.7950590159525, radius=5, size=12652)",
     "PolyFit(degree=12.924507443750112, correlation=0.38854018269768553)"),
)


def test_metric_bfs_band_and_fit_are_pinned():
    import nilentropy as ne

    workload = _load_workloads().MetricBfs()
    workload.renew()
    for i, (band_repr, fit_repr) in enumerate(METRIC_BFS_101):
        inp = workload.inputs(101, i)
        spec, radius, genset = workload.specs[inp["group"]], inp["radius"], inp["genset"]
        assert repr(ne.karidi_band(spec, radius, genset=genset)) == band_repr
        fit = ne.distortion_profile(spec, spec.nilpotency_class, radius=radius,
                                    genset=genset)
        assert repr(fit) == fit_repr

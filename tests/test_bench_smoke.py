"""Smoke test of the benchmark harness: three units of each workload, and
the pinned outputs of the first units of each workload."""

import contextlib
import hashlib
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


# band and fit of the first nine metric-bfs units of seed 101 (each group
# three times, within one set of specs), as computed by the per-element
# loops before the box lengths went column by column and, for the last six,
# before the band went sphere by sphere; the fits are the exact least-squares
# solutions, rounded once
METRIC_BFS_101 = (
    ("KaridiBand(lower=0.003616264052230466, upper=4.242640687119286, "
     "constant=276.5284795459592, radius=7, size=6692)",
     "PolyFit(degree=1.5973316188841484, correlation=0.09967228964441192)"),
    ("KaridiBand(lower=0.010540789604254166, upper=6.0, "
     "constant=94.8695531875913, radius=6, size=13864)",
     "PolyFit(degree=0.0, correlation=-0.13509275954222927)"),
    ("KaridiBand(lower=0.0010931410157327508, upper=5.0, "
     "constant=914.7950590159525, radius=5, size=12652)",
     "PolyFit(degree=12.924507443750091, correlation=0.3885401826976854)"),
    ("KaridiBand(lower=0.001430940281369189, upper=4.242640687119286, "
     "constant=698.8411836748032, radius=7, size=6692)",
     "PolyFit(degree=1.787455862580476, correlation=0.09543054906038347)"),
    ("KaridiBand(lower=0.012393200586831814, upper=6.0, "
     "constant=80.68940650105615, radius=6, size=13864)",
     "PolyFit(degree=0.0, correlation=-0.13437223650702218)"),
    ("KaridiBand(lower=0.001184698586885906, upper=5.0, "
     "constant=844.0965584576209, radius=5, size=12652)",
     "PolyFit(degree=12.77205036858419, correlation=0.3885401826976758)"),
    ("KaridiBand(lower=0.006240014217264587, upper=4.242640687119286, "
     "constant=160.25604512778924, radius=7, size=6692)",
     "PolyFit(degree=1.4854554350303861, correlation=0.10290075502521606)"),
    ("KaridiBand(lower=0.010925762589937795, upper=6.0, "
     "constant=91.52679199902818, radius=6, size=13864)",
     "PolyFit(degree=0.0, correlation=-0.13493766170113386)"),
    ("KaridiBand(lower=0.0010784957898211107, upper=5.0, "
     "constant=927.2173423744837, radius=5, size=12652)",
     "PolyFit(degree=12.950073154743908, correlation=0.38854018269768675)"),
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


class _NoTimer:
    def phase(self, name, opaque=False):
        return contextlib.nullcontext()


def _series_pin(series):
    """sha256 of the ``repr`` of the lengths, and the ``repr`` of the entropy estimate."""
    import nilentropy as ne

    return (hashlib.sha256(repr(series.lengths()).encode()).hexdigest(),
            repr(ne.entropy_estimate(series)))


# series lengths and entropy estimates of the first three entropy-free and
# quotient-surface units of seed 101, as computed when every step of an orbit
# packed afresh and unpacked at the scale denominator * log_scale; the
# estimates are the exact least-squares solutions, rounded once
ENTROPY_FREE_101 = (
    ("3f3b6aae327647a66932cd38df30f39675d1ef6a97b8970db122a0cffbfa6a11",
     "EntropyEstimate(value=1.6180339877771168, residual=9.190912831256502e-10, "
     "window=(20, 40), poly_exponent=1.8818171608679413e-08)"),
    ("260d028cc5190df12a04f8f6f4eb8fc4d8827caabe6f36abe2e89090b7131d36",
     "EntropyEstimate(value=3.3027756377319912, residual=3.1965023014011157e-15, "
     "window=(20, 40), poly_exponent=2.6770608085976436e-14)"),
    ("34c32ccfbf8bb1cadc533f82aa5c94c62ddb153e7f109d65acc2bec3474810af",
     "EntropyEstimate(value=2.4142135623730945, residual=1.5505313672007927e-15, "
     "window=(20, 40), poly_exponent=9.58591180089131e-15)"),
)
QUOTIENT_SURFACE_101 = (
    ("d7032cff522d0e18a251a1d71277e61c15be8384c9616ac1cb3c23481aa2813d",
     "EntropyEstimate(value=2.618033988749893, residual=2.1927824883802588e-15, "
     "window=(20, 40), poly_exponent=1.935914385323215e-14)"),
    ("488b7b6860044f47fdf4ab13052d2daa6ed28e8906092ae15b30c6085d2ea4b7",
     "EntropyEstimate(value=2.6180339887498945, residual=2.9007785717557725e-15, "
     "window=(20, 40), poly_exponent=3.739575531911045e-15)"),
    ("f73c766fb116b49be3708237aa654fe9d07dbd11c5e5474fd6ba76ae30d3e105",
     "EntropyEstimate(value=2.618033988749896, residual=2.6855991067210084e-15, "
     "window=(20, 40), poly_exponent=-1.2400768301989615e-14)"),
)


# sha256 of the ``repr`` of ``subgroup_closure(spec, [g1, g2]).rows`` for the
# first ten quotient-surface units of seed 101, as computed when the closure
# re-tested every commutator of its rows after the sift
QUOTIENT_CLOSURE_101 = (
    "6d63ed7433dfbc0e29247b8b6d40c72bed2309ef295126b5b8e02c00e241dd61",
    "870979e7d268fdaf39ef1cc2296db6ac8a6a05bd44843edb9b133dff840ef85d",
    "d3455d32274841530d6d2032e6c3aeea0317d592884eda7f96c87e9e8b217120",
    "8dd1c53f8c908c823abd5627c0595ac006d3595d0fa88d133a6939d092b1afe1",
    "acb15b83b15815dd0227faafc2f37762442245bc1f64eae58d0ef88a2a36d18d",
    "f951901ff94426f4be1847f28aa7374f16d0fbeb011b42ee3f3af0f85793d908",
    "945cb97ad694f916dfba16e74c81d912b47906438082cc6e4e310b0bf1b06966",
    "cecec78106b4290d5dbffbbfd8ff7b99361215e6678197141e8fcfda073855b3",
    "9c42b0b334a968f822c6e6787a36fd0e9b6dc23088762d5d4bb572d6e3a40088",
    "7a5dcc6b3541b1daa6eff95d40c888a53d4b29a9bde80cbabb8650e157d1a8de",
)


def test_entropy_free_series_are_pinned():
    import nilentropy as ne

    workload = _load_workloads().EntropyFree()
    workload.setup(_NoTimer())
    for i, pin in enumerate(ENTROPY_FREE_101):
        inp = workload.inputs(101, i)
        spec = workload.specs[inp["group"]]
        phi = ne.Endomorphism(spec, inp["images"])
        series = ne.growth_series(phi, spec.indicator(inp["subject"]), workload.n_max)
        assert _series_pin(series) == pin


def test_quotient_surface_series_are_pinned():
    import nilentropy as ne

    workload = _load_workloads().QuotientSurface()
    workload.setup(_NoTimer())
    phi = ne.Endomorphism(workload.spec, workload.images)
    for i, pin in enumerate(QUOTIENT_SURFACE_101):
        g = ne.eval_word(workload.inputs(101, i)["words"][0], workload.spec)
        assert _series_pin(ne.growth_series(phi, g, workload.n_max)) == pin


def test_quotient_surface_closures_are_pinned():
    import nilentropy as ne

    workload = _load_workloads().QuotientSurface()
    workload.setup(_NoTimer())
    for i, pin in enumerate(QUOTIENT_CLOSURE_101):
        g1, g2 = (ne.eval_word(w, workload.spec) for w in workload.inputs(101, i)["words"])
        rows = ne.subgroup_closure(workload.spec, [g1, g2]).rows
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == pin

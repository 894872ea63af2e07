"""One fresh interpreter of the benchmark: set-up, units, gate.

Prints one JSON object as its last line of standard output.  ``run.py``
starts it; it is not meant to be run by hand, but can be:

    PYTHONPATH=src python3 bench/worker.py --workload metric-bfs --seed 1 \
        --mode units --units 6
"""

import time

from calibration import kernel_ms

# calibration samples bracket the set-up; three before it starts
SETUP_CAL_MS = [kernel_ms() for _ in range(3)]
START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import PhaseTimer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DIGEST_UNITS = 30


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment():
    return {
        "python": platform.python_version(),
        # either may stop being imported at start-up
        "numpy": getattr(sys.modules.get("numpy"), "__version__", "not loaded"),
        "sympy": getattr(sys.modules.get("sympy"), "__version__", "not loaded"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_units(workload, seed, timer, seconds, units):
    """Closed loop: unit i+1 starts when unit i ends.

    Inputs are made, and the calibration kernel runs, outside the unit timings.
    """
    ops = [0]
    failed = 0
    errors = []
    times = []
    cal = []
    records = []
    loop_start = time.perf_counter()
    i = 0
    while (i < units) if units else (time.perf_counter() - loop_start < seconds):
        if i and workload.epoch and i % workload.epoch == 0:
            workload.renew()
            gc.collect()  # the old specs sit in reference cycles
        inp = workload.inputs(seed, i)
        timer.set_unit(i)
        t0 = time.perf_counter()
        try:
            out = workload.run(inp, ops)
        except Exception as exc:  # a failed library call is counted, not fatal
            failed += 1
            out = None
            errors.append(f"unit {i}: {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        timer.set_unit(None)
        cal.append(kernel_ms())
        records.append((inp, out))
        i += 1
    return {
        "unit_s": times,
        "cal_ms": cal,
        "attempted": ops[0],
        "failed": failed,
        "errors": errors[:5],
        "peak_rss_mb": peak_rss_mb(),
    }, records


def digest(records):
    h = hashlib.sha256()
    for _, out in records[:DIGEST_UNITS]:
        h.update(repr(out).encode())
        h.update(b"\n")
    return h.hexdigest()


def layer_metrics(tr):
    elements, probes = tr.bfs_elements, tr.bfs_probes
    bfs_s = tr.total("bfs")
    out = {
        "import.s": tr.total("import"),
        "derive.s": tr.total("derive"),
        "quotient.build_s": tr.total("quotient.build"),
    }
    for layer in ("mul", "pow", "inv", "apply"):
        out[f"{layer}.calls"] = tr.calls(layer)
        out[f"{layer}.self_s"] = tr.self_time(layer)
    out.update({
        "spectral.s": tr.self_time("spectral"),
        "bfs.s": bfs_s,
        "bfs.elements": elements,
        "bfs.elements_per_s": elements / bfs_s if bfs_s else 0.0,
        "bfs.new_per_probe": elements / probes if probes else 0.0,
        "band.s": tr.self_time("band"),
        "closure.calls": tr.calls("closure"),
        "closure.s": tr.total("closure"),
        "series.self_s": tr.self_time("series"),
        "fit.s": tr.total("fit"),
    })
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "units"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--units", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gate", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    timer = Tracer() if args.trace else PhaseTimer()
    with timer.phase("import", opaque=True):
        import nilentropy
    src = (ROOT / "src").resolve()
    if src not in Path(nilentropy.__file__).resolve().parents:
        sys.exit(f"error: imported nilentropy from {nilentropy.__file__}, not from {src}")
    if args.trace:
        timer.install()

    import gate
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    with timer.phase("setup"):
        workload.setup(timer)
    result = {"setup_s": time.perf_counter() - START}
    SETUP_CAL_MS.extend(kernel_ms() for _ in range(3))
    result["setup_cal_ms"] = statistics.median(SETUP_CAL_MS)
    result["env"] = environment()
    if args.mode == "setup":
        result["phases"] = dict(timer.phases)
        print(json.dumps(result))
        return

    loop, records = run_units(workload, args.seed, timer, args.seconds, args.units)
    result.update(loop)
    result["digest"] = digest(records)
    result["digest_units"] = min(DIGEST_UNITS, len(records))
    if args.gate:
        with timer.phase("gate"):
            checks = []
            bad_units = []
            for i, (inp, out) in enumerate(records):
                problems = ["no output"] if out is None else workload.check(inp, out)
                if problems:
                    bad_units.append(f"unit {i}: {'; '.join(problems)}")
            checks.append((f"{len(records)} unit outputs", not bad_units,
                           "; ".join(bad_units[:3]) or "all pass"))
            try:
                checks += gate.common_checks(args.seed, timer)
                if args.workload == "metric-bfs":
                    checks += gate.metric_bfs_checks(workload, args.seed)
            except Exception as exc:  # a check that cannot run has failed
                checks.append(("gate ran to the end", False, f"{type(exc).__name__}: {exc}"))
        result["gate"] = checks
        if args.workload == "quotient-surface":
            with timer.phase("probes", opaque=True):
                result["probes"] = gate.torsion_probes()
    result["phases"] = dict(timer.phases)
    if args.trace:
        result["layers"] = layer_metrics(timer)
        result["layers"]["defect.torsion_detected"] = sum(
            outcome == "TorsionDetected" for _, outcome, _ in result.get("probes", ()))
        name = f"spans-{args.workload}.csv"
        timer.write_spans(ROOT / ".bench_out" / name)
        result["spans_file"] = f".bench_out/{name}"
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Seeded benchmark of nilentropy: one workload per call, from a source checkout.

    python3 bench/run.py --workload entropy-free --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout holding ``src/nilentropy``; nothing is
installed.  Every measurement happens in a fresh interpreter
(``bench/worker.py``) started one at a time: one process, one thread, a
closed loop in which each unit starts after the previous one ends.

``--trace 0`` measures the end-to-end metrics: set-up in several fresh
interpreters, then a timed loop of ``--seconds`` followed by the correctness
gate.  ``--trace 1`` runs a fixed number of units twice, untraced and then
traced, and reports the per-layer metrics with the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when a check failed, and 2 when the checkout or the
arguments are unusable (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from calibration import NOMINAL_MS, scale_factors

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("entropy-free", "metric-bfs", "quotient-surface")
# untraced units of each traced run's twin, and of the traced run itself
TRACE_UNITS = {"entropy-free": 60, "metric-bfs": 60, "quotient-surface": 45}
# fresh interpreters timed for setup_s, besides the one that runs the units
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def worker(args, env, timeout):
    cmd = [sys.executable, str(WORKER)] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed the child and waited for it
        raise BenchError(f"worker timed out after {timeout} s: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(workload, seed, seconds, env):
    common = ["--workload", workload, "--seed", seed]
    # untimed warm-up: writes bytecode caches, loads the interpreter's files
    worker(common + ["--mode", "setup"], env, CHILD_TIMEOUT_S)
    setups = [worker(common + ["--mode", "setup"], env, CHILD_TIMEOUT_S)
              for _ in range(SETUP_SAMPLES)]
    run = worker(common + ["--mode", "units", "--seconds", seconds, "--gate", 1],
                 env, seconds + CHILD_TIMEOUT_S)
    setups.append(run)
    raw = sorted(run["unit_s"])
    times = sorted(u * f for u, f in zip(run["unit_s"], scale_factors(run["cal_ms"])))
    n = len(times)
    p90 = percentile(times, 0.9)
    metrics = {
        "setup_s": metric(statistics.median(s["setup_s"] * NOMINAL_MS / s["setup_cal_ms"]
                                            for s in setups), "s", len(setups)),
        "unit_ms.p50": metric(1e3 * percentile(times, 0.5), "ms", n),
        "unit_ms.p90": metric(1e3 * p90, "ms", n),
        "units_per_s": metric(n / sum(times), "1/s", n),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB", 1),
    }
    phases = {}
    for name in ("import", "derive", "quotient.build", "setup"):
        phases[name] = statistics.median(s["phases"].get(name, 0.0) for s in setups)
    notes = [
        f"unit_ms.p90 has {sum(t > p90 for t in times)} samples beyond it",
        f"times scaled to a {NOMINAL_MS} ms calibration kernel "
        f"(median kernel in this run {statistics.median(run['cal_ms']):.3f} ms); raw wall: "
        f"setup_s {statistics.median(s['setup_s'] for s in setups):.4f}, "
        f"unit_ms.p50 {1e3 * percentile(raw, 0.5):.3f}, "
        f"unit_ms.p90 {1e3 * percentile(raw, 0.9):.3f}, "
        f"units_per_s {n / sum(raw):.4f}",
        "setup_s phases (median raw s): "
        + ", ".join(f"{k} {v:.4f}" for k, v in phases.items()),
    ]
    return run, metrics, notes


def per_layer(workload, seed, env):
    common = ["--workload", workload, "--seed", seed, "--mode", "units",
              "--units", TRACE_UNITS[workload]]
    twin = worker(common + ["--trace", 0], env, 2 * CHILD_TIMEOUT_S)
    run = worker(common + ["--trace", 1, "--gate", 1], env, 2 * CHILD_TIMEOUT_S)
    untraced, traced = (sum(u * f for u, f in zip(r["unit_s"], scale_factors(r["cal_ms"])))
                        for r in (twin, run))
    overhead = 100.0 * (traced / untraced - 1.0)
    units = len(run["unit_s"])
    scale = NOMINAL_MS / statistics.median(run["cal_ms"])
    metrics = {}
    for name, value in run["layers"].items():
        if name.endswith((".calls", ".elements", "_detected")):
            unit = "count"
        elif name.endswith("_per_s"):
            unit, value = "1/s", value / scale
        elif name.endswith("_per_probe"):
            unit = "ratio"
        else:
            unit, value = "s", value * scale
        metrics[name] = metric(value, unit, units)
    metrics["trace.overhead_pct"] = metric(overhead, "%", units)
    notes = [
        f"per-layer figures cover set-up, {units} units and the gate of one traced run; "
        f"times scaled by {scale:.4f} for the calibration kernel",
        f"tracing overhead: {traced:.3f} s traced vs {untraced:.3f} s untraced "
        f"over the same {units} units, scaled by the calibration kernel ({overhead:+.1f}%)",
        f"spans written to {run['spans_file']}",
    ]
    if twin["digest"] != run["digest"]:
        run["gate"].append(("traced and untraced outputs agree", False,
                            f"{twin['digest']} != {run['digest']}"))
    return run, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    src = ROOT / "src" / "nilentropy" / "__init__.py"
    if not src.is_file():
        print(f"error: {src} not found; run from a nilentropy source checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("NILENTROPY_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    try:
        if args.trace:
            run, metrics, notes = per_layer(args.workload, args.seed, env)
        else:
            run, metrics, notes = end_to_end(args.workload, args.seed, args.seconds, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env_info = run["env"]
    print(f"nilentropy benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env_info.items()))
    print("closed loop: 1 process, 1 thread, NILENTROPY_THREADS unset")
    width = max(map(len, metrics))
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    attempted, failed = run["attempted"], run["failed"]
    print(f"  {'failed_share':<{width}}  {failed / max(attempted, 1):>14.6g} ops    "
          f"{failed} of {attempted} attempted operations")
    for err in run["errors"]:
        print(f"  error: {err}")
    for note in notes:
        print("  " + note)
    for name, ok, detail in run["gate"]:
        print(f"  gate {'PASS' if ok else 'FAIL'}: {name}: {detail}")
    for name, outcome, detail in run.get("probes", ()):
        print(f"  known-defect probe: {name}: {outcome} ({detail})")
    print(f"  sha256 of the first {run['digest_units']} unit outputs: {run['digest']}")

    correct = failed == 0 and all(ok for _, ok, _ in run["gate"])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Re-measure the ROADMAP baseline rows the benchmark is cross-checked against.

    python3 bench/crosscheck.py

Prints ``multiply`` in microseconds per operation on F(2,4) and F(3,4) (500
seeded pairs of coordinate vectors, laws derived beforehand), ``bfs_ball`` on
a fresh F(2,3) at radius 10, and ``import nilentropy`` in fresh interpreters.
Each figure is the median of five repeats.
"""

import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nilentropy as ne  # noqa: E402

REPEATS = 5


def multiply_us(m, c):
    spec = ne.free_nilpotent(m, c)
    rng = random.Random(f"crosscheck:{m}:{c}")
    pairs = [tuple(tuple(rng.randint(-4, 4) for _ in range(spec.dim)) for _ in "gh")
             for _ in range(500)]
    ne.multiply(*pairs[0], spec)
    runs = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        for g, h in pairs:
            ne.multiply(g, h, spec)
        runs.append((time.perf_counter() - t) / len(pairs) * 1e6)
    return statistics.median(runs)


def bfs_s():
    runs = []
    for _ in range(REPEATS):
        spec = ne.GroupSpec(ne.HallBasis(2, 3))
        ne.multiply(spec.indicator(0), spec.indicator(1), spec)
        t = time.perf_counter()
        ball = ne.bfs_ball(spec, 10)
        runs.append(time.perf_counter() - t)
    return statistics.median(runs), len(ball)


def import_s():
    code = "import time; t = time.perf_counter(); import nilentropy; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(REPEATS + 1)][1:]
    return statistics.median(runs)


if __name__ == "__main__":
    print(f"multiply F(2,4): {multiply_us(2, 4):.1f} us/op")
    print(f"multiply F(3,4): {multiply_us(3, 4):.1f} us/op")
    seconds, size = bfs_s()
    print(f"bfs_ball F(2,3) r=10: {seconds:.3f} s ({size} elements)")
    print(f"import nilentropy: {import_s():.3f} s")

"""Calibration kernel that cancels the host's speed drift from reported times.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes, while the code under test stays the same.  The worker
runs this fixed pure-Python kernel after every unit and around every set-up,
and scales each measured time by ``NOMINAL_MS / kernel time`` measured next
to it.  The kernel is the geometric mean of three parts, each close to one
kind of work the package does: big-integer products (compiled-law
evaluation), tuple-keyed dict updates, and membership tests against a
table of several megabytes (BFS balls).  Scaled times are milliseconds on a
machine where the kernel takes ``NOMINAL_MS``; the raw wall times are printed
beside them.  The kernel never calls the package, so a change to the package
moves scaled and raw times alike.
"""

import statistics
import time

NOMINAL_MS = 3.0
# calibration samples on each side of a unit that its scale factor uses
WINDOW = 1

_TABLE_SIZE = 50_000
_TABLE = {(i, i * 7 % 13, i >> 3): i for i in range(_TABLE_SIZE)}


def _big_products():
    x = 3 ** 300
    acc = 0
    for i in range(5000):
        y = x * (i + 7) + acc
        acc = (y * y) >> 580


def _dict_updates():
    d = {}
    x = 3
    for i in range(8000):
        x = (x * 1103515245 + 12345) % (1 << 200)
        key = (i & 63, x & 1023, i >> 6)
        d[key] = d.get(key, 0) + 1


def _table_lookups():
    hits = 0
    for i in range(0, 400_000, 40):
        k = i % _TABLE_SIZE
        if (k, k * 7 % 13, k >> 3) in _TABLE:
            hits += 1


def kernel_ms():
    product = 1.0
    for part in (_big_products, _dict_updates, _table_lookups):
        start = time.perf_counter()
        part()
        product *= time.perf_counter() - start
    return product ** (1 / 3) * 1e3


def scale_factors(samples):
    """Per-unit ``NOMINAL_MS / median`` of the kernel times around the unit."""
    out = []
    for i in range(len(samples)):
        window = samples[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(NOMINAL_MS / statistics.median(window))
    return out

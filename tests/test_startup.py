"""Start-up cost and the result records.

``import nilentropy`` loads none of ``dataclasses``, ``typing``, ``inspect``
or ``csv``, and the result records are named tuples whose ``repr`` strings
and hashes are those the package has always printed and computed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilentropy import (
    EntropyEstimate,
    GrowthEntry,
    GrowthSeries,
    KaridiBand,
    KaridiEstimate,
    PolyFit,
    SpectralReport,
)

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_heavy_standard_modules():
    # -S keeps site's own imports from loading these first and masking one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, nilentropy; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "nilentropy.growth" in loaded
    assert not loaded & {"dataclasses", "typing", "inspect", "csv"}


RECORDS = [
    (SpectralReport(charpoly=(1, -3, 1), spectral_radius=2.618033988749895,
                    radius_error=1e-09, unipotent=False, quasi_unipotent=False,
                    radius_gap=1.618033988749895),
     "SpectralReport(charpoly=(1, -3, 1), spectral_radius=2.618033988749895, "
     "radius_error=1e-09, unipotent=False, quasi_unipotent=False, "
     "radius_gap=1.618033988749895)"),
    (SpectralReport((1, -2, 1), 1.0, 0.0, True, True, None),
     "SpectralReport(charpoly=(1, -2, 1), spectral_radius=1.0, radius_error=0.0, "
     "unipotent=True, quasi_unipotent=True, radius_gap=None)"),
    (GrowthEntry(3, 7.5, "karidi"), "GrowthEntry(n=3, length=7.5, mode='karidi')"),
    (GrowthSeries((GrowthEntry(1, 2, "exact-bfs"), GrowthEntry(2, 5, "exact-bfs"))),
     "GrowthSeries(entries=(GrowthEntry(n=1, length=2, mode='exact-bfs'), "
     "GrowthEntry(n=2, length=5, mode='exact-bfs')), subject=None, automorphism=None)"),
    (GrowthSeries((), subject=(1, 0, 0)),
     "GrowthSeries(entries=(), subject=(1, 0, 0), automorphism=None)"),
    (EntropyEstimate(value=1.618, residual=1e-10, window=(10, 20), poly_exponent=-0.5),
     "EntropyEstimate(value=1.618, residual=1e-10, window=(10, 20), poly_exponent=-0.5)"),
    (PolyFit(degree=2.0, correlation=0.99), "PolyFit(degree=2.0, correlation=0.99)"),
    (KaridiEstimate(value=3.0), "KaridiEstimate(value=3.0)"),
    (KaridiBand(lower=0.5, upper=2.0, constant=4.0, radius=3, size=25),
     "KaridiBand(lower=0.5, upper=2.0, constant=4.0, radius=3, size=25)"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[text.split("(")[0] + str(i)
                                                         for i, (_, text) in enumerate(RECORDS)])
def test_record_repr_hash_and_fields(record, text):
    # the repr strings are the ones the frozen dataclass records printed
    assert repr(record) == text
    fields = tuple(getattr(record, name) for name in record._fields)
    assert tuple(record) == fields
    assert record == fields
    assert len(record) == len(fields)
    assert hash(record) == hash(fields)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_growth_series_defaults_and_helpers():
    entries = (GrowthEntry(1, 2, "exact-bfs"), GrowthEntry(4, 5, "exact-bfs"))
    series = GrowthSeries(entries)
    assert (series.subject, series.automorphism) == (None, None)
    assert series == GrowthSeries(entries=entries, subject=None, automorphism=None)
    assert series.n_max == 4
    assert series.lengths() == [2, 5]
    assert GrowthSeries(()).n_max == 0

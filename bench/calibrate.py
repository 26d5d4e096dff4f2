"""Calibration that scales measured times to a reference CPU speed.

The cores this benchmark runs on change speed on a scale of seconds when
the other tenants of the host are busy: two-second medians of one fixed
pure-Python loop ranged from 19 to 33 ms within a minute (Intel Xeon, 2
vCPUs).  A run of 20 s catches a different mix of fast and slow periods
each time, which moved raw ops/s by up to 35% between runs of one seed.

So every timed op is bracketed by a unit: an exact hafnian of a fixed
six-insertion word, computed with ``fractions.Fraction`` by the
benchmark's own checker, which is the same kind of interpreter work the
engine does.  An op's time is scaled by ``REFERENCE_S`` over the mean of the
unit's times just before and just after it, giving seconds at the speed
where the unit takes ``REFERENCE_S``.  The unit is stdlib-only and lives in
the benchmark, so no change to freeboson can change it.
"""
from __future__ import annotations

import subprocess
import sys
import time

from checks import word_expectation

# Seconds of one unit on the reference core: the fast level of the host
# the benchmark was written on.
REFERENCE_S = 0.0015

# Set-up time is mostly process start and imports, which the slow periods
# stretch less than interpreter work (1.4x against 1.85x here), so it is
# scaled by a reference interpreter start instead: ``python3 -c "import
# fractions, json"``, which takes START_REFERENCE_S on the reference core.
# This cut the spread of set-up times on one host from 0.30 to 0.07.
START_REFERENCE_S = 0.065

_WORD = [
    [{"m": m, "re": f"{k}/3", "im": f"{(k * k) % 5}/2"}]
    for k, m in zip(range(1, 7), (1, 2, 3, 1, 2, 3))
]


def unit_seconds() -> float:
    """Seconds of one calibration unit now: the faster of two back-to-back
    runs, so a collector pause or an interrupt in one does not count."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        word_expectation(_WORD)
        best = min(best, time.perf_counter() - started)
    return best


def factor(before: float, after: float, reference: float = REFERENCE_S) -> float:
    """Scale for a time measured between two calibration measurements."""
    return reference / ((before + after) / 2)


def start_seconds() -> float:
    """Seconds of one reference interpreter start, now."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fractions, json"], check=True)
    return time.perf_counter() - started

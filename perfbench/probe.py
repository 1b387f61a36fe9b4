"""Host-speed probe: a fixed slice of work timed between ops.

The speed of a shared host drifts by tens of percent within seconds, and
that drift, not the program, set most of the run-to-run spread of the raw
times.  The worker times this probe (pure Python arithmetic plus 4x4
complex matrix products, the same mix as the program's inner loops) for
about ``PROBE_SHARE`` of the loop time, and ``run.py`` scales each op's
time by ``PROBE_REFERENCE_S`` over the probe time measured around it.  The
probe never touches the program, so a faster program still reads faster.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_REFERENCE_S = 3.3e-4  # probe median on the baseline machine, quiet
PROBE_SHARE = 0.02
PROBE_EVERY_S = 0.05
_MATRIX = np.eye(4, dtype=complex) * 0.5


def probe() -> float:
    """Time one run of the fixed probe work."""
    begin = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i % 7
    m = _MATRIX
    for _ in range(60):
        m = m @ _MATRIX + _MATRIX
    return time.perf_counter() - begin


def probe_burst(samples: list, busy_s: float) -> float:
    """Probe for about ``PROBE_SHARE`` of ``busy_s``; return the time spent."""
    begin = time.perf_counter()
    for _ in range(max(3, round(PROBE_SHARE * busy_s / PROBE_REFERENCE_S))):
        samples.append(probe())
    return time.perf_counter() - begin

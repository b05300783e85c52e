"""The host-speed probe: a fixed loop, timed next to every measured command.

The hosts this benchmark runs on share their cores, and the speed a process
gets changes by up to 2x in spells that last from seconds to minutes. A run of
25 s can fall wholly in a slow spell, so raw times of the same code spread by
20-35% from run to run. The probe does a fixed amount of the same kind of work
as ``adamlab``: interpreted Python and numpy calls on 9-element arrays. A slow
spell slows it about as much as the workload. It calls nothing from ``src/``,
so a change to the program does not change it.

A timing metric is reported at the reference speed: the measured time times
``REFERENCE_S`` over the mean time of the probes taken next to it. Both are
measured in the same process over the same stretch of time, so the spell
divides out. ``REFERENCE_S`` is what the probe takes on the host the benchmark
was tuned on, in a fast spell (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
"""
from __future__ import annotations

import time

import numpy as np

#: seconds one :func:`probe` takes at the reference speed
REFERENCE_S = 0.020
#: probes timed just before a child is started and again once it has set up;
#: together they give that child's ``setup_s`` at the reference speed
SETUP_PROBES = 3

_ROW = np.linspace(-1.0, 1.0, 9)
_ONES = np.ones(9)


def probe() -> float:
    """Seconds taken by a fixed loop of small numpy calls and Python arithmetic."""
    start = time.perf_counter()
    m = np.zeros(9)
    acc = 0.0
    for i in range(5_000):
        m = 0.9 * m + 0.1 * (_ROW * _ONES)
        acc += float(np.sign(m).sum()) + i % 3
    return time.perf_counter() - start


def factor(probes: list[float]) -> float:
    """Multiply a time taken next to ``probes`` by this to get it at the reference speed."""
    return REFERENCE_S * len(probes) / sum(probes)

"""The reference loop: a fixed piece of Python and small-array numpy work
that calls no code of ``multibeam_noma``.

On a shared machine other tenants slow every instruction of this process by
up to 2x for stretches of seconds to minutes, with no steal time reported.
A code change cannot make this loop faster or slower, so its duration tracks
how fast the machine runs at that moment.  ``run.py`` times the loop between
consecutive calls and rescales each call's duration by the loop's duration
either side of it, to the speed at which the loop takes REF_SECONDS:

    normalized = duration * REF_SECONDS / mean(loop before, loop after)

Over six 30 s runs of ``power_sweep`` the quartile spread of the median raw
call time was 0.22 of its median, that of the median normalized call time
0.03.
"""

from __future__ import annotations

import time

import numpy as np

REF_SECONDS = 0.010   # normalized times are at the speed where one loop takes this long
_ITERATIONS = 200
_ELEMENTS = np.arange(64)


def loop() -> float:
    """One pass of the reference work; returns a checksum so nothing is skipped."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(_ITERATIONS):
        gains = rng.standard_normal(155) + 1j * rng.standard_normal(155)
        angles = rng.uniform(-1.0, 1.0, 155)
        steer = np.exp(1j * np.pi * np.outer(angles[:16], _ELEMENTS))
        acc += float(np.abs(steer @ np.conj(steer[0])).sum()) + float(np.abs(gains).sum())
        acc += sum(x * 0.5 for x in range(200))
    return acc


def timed() -> float:
    """Wall seconds of one pass of ``loop``."""
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def normalized(duration: float, before: float, after: float) -> float:
    """``duration`` rescaled to the reference speed, given the loop times around it."""
    return duration * REF_SECONDS * 2.0 / (before + after)

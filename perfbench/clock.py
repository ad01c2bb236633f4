"""A wall clock corrected for the machine's speed while it runs.

On a shared machine the same single-threaded Python loop runs at times
twice as slow for seconds on end, because other tenants load the host's
cores.  No run short enough for the benchmark's time budget averages that
away.  ``RefClock`` samples the speed every 20 ms with a fixed calibration
loop (interpreted arithmetic plus numpy calls on short rows), run from a
SIGALRM handler in the measuring process itself (no thread, no other
process), and advances at ``REF_CAL_S / calibration time`` reference
seconds per wall second.  The handler's own time is left out.  One
reference second is a wall second on a machine where the calibration
loop takes ``REF_CAL_S``: a 2-core Intel Xeon virtual machine with its
neighbours idle.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from statistics import median

import numpy as np

REF_CAL_S = 250e-6
PERIOD_S = 0.02
WINDOW = 5  # the speed is the median of the last few calibrations

# lrc4 mixes interpreted loops with numpy calls on short uint8 rows; a
# calibration with both tracks its slow-downs better than either alone
_ROW = np.arange(30, dtype=np.uint8)
_MASK = _ROW[::-1].copy()


def calibrate() -> float:
    t = time.perf_counter()
    s = 0
    d = {}
    for j in range(2000):
        s += j * j
        d[j & 63] = s
    x = _ROW
    for _ in range(60):
        x = x ^ _MASK
        s += int(np.count_nonzero(x))
    return time.perf_counter() - t


class RefClock:
    def __init__(self) -> None:
        self._cals: deque[float] = deque(maxlen=WINDOW)
        # (reference time, wall time, rate) at the last speed sample, in one
        # attribute so that `now` never reads half of an update made by the
        # signal handler
        self._state = (0.0, 0.0, 1.0)

    def now(self) -> float:
        """Reference seconds since entering the clock's context."""
        ref, wall, rate = self._state
        return ref + (time.perf_counter() - wall) * rate

    def _sample(self, *_) -> None:
        ref = self.now()
        self._cals.append(calibrate())
        self._state = (ref, time.perf_counter(), REF_CAL_S / median(self._cals))

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._cals.append(calibrate())
        self._state = (0.0, time.perf_counter(), REF_CAL_S / self._cals[-1])
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

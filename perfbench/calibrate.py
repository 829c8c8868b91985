"""Host-speed reference timed beside the ops.

On a shared host the speed of one core drifts, by up to about 2x within
seconds, as other tenants load the machine; wall time and CPU time drift
together, so neither can be used raw to compare runs made minutes apart.
The runner therefore times a fixed block of interpreted arithmetic and
numpy expressions, which no change to ``photonlink`` can alter, just before
and just after ops, at most once per REF_EVERY_S, and scales each op time
by REF_NOMINAL_S over the median block time measured around it.  A timing
so scaled reads as it would on a machine where one block takes
REF_NOMINAL_S: it moves with the program and hardly with the host.  The raw
wall times are still reported, in the detail line.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

REF_NOMINAL_S = 2e-3
REF_EVERY_S = 0.02
REF_WINDOW_S = 0.1
REF_MIN_SAMPLES = 3
_ITERATIONS = 3000
# both halves are needed: in recorded runs, scaling by either half alone
# left spreads of up to 0.10 or 0.12 between runs on some workload, scaling
# by the whole block at most 0.05 (README, "Noise")
_ARRAY = np.linspace(0.0, 1.0, 4096)
_ARRAY_REPS = 30


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def block() -> float:
    """The reference work: interpreted float arithmetic and libm calls, then
    numpy expressions over a 4096-element array; about 2 ms in all."""
    s = 0.0
    for i in range(1, _ITERATIONS):
        x = i * 1e-4
        s += x * math.log(x) - math.expm1(-x)
    for _ in range(_ARRAY_REPS):
        s += float((np.exp(-_ARRAY) * _ARRAY[::-1] + np.sqrt(_ARRAY)).sum())
    return s


def time_block() -> float:
    t0 = time.perf_counter()
    block()
    return time.perf_counter() - t0


class SpeedTrack:
    """Reference samples (midpoint, duration) taken through one run."""

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.durs: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Time one block if REF_EVERY_S has passed since the last one."""
        now = time.perf_counter()
        if force or now - self._last >= REF_EVERY_S:
            dur = time_block()
            self.mids.append(now + dur / 2)
            self.durs.append(dur)
            self._last = now + dur

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the median block time around [start, end]."""
        lo = bisect.bisect_left(self.mids, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + REF_WINDOW_S)
        while hi - lo < REF_MIN_SAMPLES and (lo > 0 or hi < len(self.mids)):
            # widen toward the nearer side until enough samples are in
            before = start - self.mids[lo - 1] if lo > 0 else math.inf
            after = self.mids[hi] - end if hi < len(self.mids) else math.inf
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return REF_NOMINAL_S / median(self.durs[lo:hi])

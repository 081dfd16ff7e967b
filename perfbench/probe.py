"""Interpreter speed probe: turns wall times into reference seconds.

The machines this benchmark runs on share their cores with other virtual
machines, and the interpreter's speed swings by up to 1.8x in phases of one
to twenty seconds (a fixed loop took 34-62 ms), which no number of passes
in a run averages out. A daemon thread therefore times a short fixed loop
every PERIOD_S seconds while the benchmark runs. An interval's time is
scaled by the mean of PROBE_REF_S / (probe time) over the samples taken in
it, so it reads as seconds at the speed at which the loop takes PROBE_REF_S,
and the probe's own time in the interval is taken out. On a quiet machine
the scale stays near 1.

The probe holds the interpreter lock only while it times its loop, and the
loop (about 0.3 ms) is shorter than the lock's switch interval, so what it
measures is the interpreter's speed, not time spent waiting for the lock.
The loop runs between slices of the benchmark's own work, so it also slows
when that work leaves the caches cold; the scale treats that as machine
slowness.
"""

from __future__ import annotations

import bisect
import threading
import time

PERIOD_S = 0.03
PROBE_LOOPS = 600
PROBE_REF_S = 3.0e-4
MIN_SAMPLES = 3


def _loop(n: int = PROBE_LOOPS) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = i & 63
        table[k] = table.get(k, 0) + (i * 3) // 7
        acc += len((i, k, acc & 7))
    return acc


class SpeedProbe:
    def __init__(self):
        self.ends: list[float] = []
        self.durs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="speed-probe")

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            _loop()
            t1 = time.perf_counter()
            self.durs.append(t1 - t0)
            self.ends.append(t1)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """Multiplier from wall seconds in [t0, t1] to reference seconds."""
        n = len(self.ends)
        ends, durs = self.ends[:n], self.durs[:n]
        lo = bisect.bisect_left(ends, t0)
        hi = bisect.bisect_right(ends, t1)
        probe_s = sum(durs[lo:hi])
        # too short an interval: widen it to the nearest samples
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        if hi == lo:
            raise RuntimeError("the speed probe took no samples")
        speed = sum(PROBE_REF_S / d for d in durs[lo:hi]) / (hi - lo)
        busy = max(0.0, 1.0 - probe_s / (t1 - t0)) if t1 > t0 else 1.0
        return speed * busy

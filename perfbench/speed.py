"""Machine-speed calibration for the benchmark's timings.

On a shared host the same pure-Python loop runs up to 1.5x faster or slower
for stretches of seconds to minutes, long enough to move a whole run by
10-30%.  A fixed pure-Python kernel, independent of gravpulse, measures
that speed; a time multiplied by `Speed.factor` is in seconds at the
nominal speed at which one kernel run takes CAL_NOMINAL_S.
"""

from __future__ import annotations

import math
import statistics
import threading
import time

CAL_ITERS = 12_000
CAL_NOMINAL_S = 0.003
CAL_EVERY_S = 0.5
# Samples within this many seconds of a command normalize it: the median of
# several samples ignores a single noisy one and still follows drifts that
# last seconds.
CAL_WINDOW_S = 2.0


def _kernel() -> float:
    acc = 0.0
    for i in range(CAL_ITERS):
        acc += math.exp(-1e-5 * i) * math.cos(1e-3 * i)
    return acc


def kernel_seconds() -> float:
    """Median thread CPU time of three kernel runs (waits for the
    interpreter lock are not counted)."""
    runs = []
    for _ in range(3):
        c0 = time.thread_time()
        _kernel()
        runs.append(time.thread_time() - c0)
    return statistics.median(runs)


class Speed:
    """Kernel samples taken by a thread every CAL_EVERY_S while the workload
    runs; the thread holds the interpreter lock for about 2% of the run."""

    def __init__(self):
        self.points: list[tuple[float, float]] = []   # (perf_counter, kernel seconds)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        self.points.append((time.perf_counter(), kernel_seconds()))

    def _loop(self) -> None:
        while not self._stop.wait(CAL_EVERY_S):
            self.sample()

    def __enter__(self) -> "Speed":
        self.sample()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """CAL_NOMINAL_S over the median kernel time of the samples within
        CAL_WINDOW_S of [t0, t1]."""
        near = [c for t, c in self.points if t0 - CAL_WINDOW_S <= t <= t1 + CAL_WINDOW_S]
        return CAL_NOMINAL_S / statistics.median(near)

"""Machine-speed calibration for timings on a shared host.

The host this benchmark was built on changes speed by up to 1.7x for
minutes at a time, on both cores at once, whatever runs on it.  So each run
times a fixed pure-Python reference kernel between its operations and scales
every timing to a nominal machine, one on which the kernel runs
NOMINAL_STEPS_PER_S steps a second.  The kernel does not touch the package,
so no change to the package moves it; the raw wall-clock values are printed
next to the calibrated ones.

The kernel scans rows of small integers and updates one row by another, the
inner loop of the dense Smith normal form.  Contention on the host does not
slow all code alike: an earlier kernel of dict lookups on tuple keys slowed
about twice as much as verify-grid's operations did, while this one follows
them, and on chart-walk and deform-field the two kernels did about equally
well.
"""

from __future__ import annotations

import gc
import random
import time

NOMINAL_STEPS_PER_S = 180.0
SAMPLE_INTERVAL_S = 0.5
_ROWS = 300


class Calibration:
    """Reference-kernel samples taken during one run."""

    def __init__(self):
        rng = random.Random(12345)
        self._rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(_ROWS)] for _ in range(_ROWS)]
        self.steps = 0
        self.seconds = 0.0        # whole samples, the untimed steps included
        self.timed = 0.0          # the timed steps only
        self._next = 0.0

    def _step(self):
        """For each pair of rows, a scan of the first for its smallest
        nonzero entry and an update of the second by it, as one elimination
        step of a dense Smith normal form does."""
        a = [row[:] for row in self._rows]
        acc = 0
        for t in range(0, _ROWS - 1, 2):
            pivot_row = a[t]
            best = 0
            for v in pivot_row:
                if v and (best == 0 or abs(v) < abs(best)):
                    best = v
            a[t + 1] = [x - best * y for x, y in zip(a[t + 1], pivot_row)]
            acc += a[t + 1][t]
        return acc

    def sample(self):
        """Time one kernel step.  An untimed step first brings the kernel's
        data back into cache, so the sample does not depend on how much of
        the cache the package's last operation used; the collector is off so
        that no collection of the package's objects is charged to it.
        ``seconds`` counts the whole sample, so callers can take it out of
        their wall time."""
        enabled = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        try:
            self._step()
            t0 = time.perf_counter()
            self._step()
            self.timed += time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.steps += 1
        now = time.perf_counter()
        self.seconds += now - begin
        self._next = now + SAMPLE_INTERVAL_S

    def due(self):
        return time.perf_counter() >= self._next

    def mark(self):
        return self.steps, self.timed

    def factor(self, since=(0, 0.0)):
        """Machine speed over the nominal one, from the samples taken after
        ``since`` (a mark): above 1 on a faster machine.  A wall time times
        the factor is the time the nominal machine would have taken."""
        if self.steps == since[0]:
            self.sample()
        return (self.steps - since[0]) / (self.timed - since[1]) / NOMINAL_STEPS_PER_S

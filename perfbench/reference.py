"""The reference probe that puts every timing of a run on one machine speed.

The machine the benchmark was written on swings about 1.8x between speed
states that last from seconds to minutes, on each vCPU on its own, with CPU
time moving in step with wall time.  No number of repeats inside one run
removes that, so every end-to-end time is divided by the machine's speed at
the moment it was taken: ``probe()`` times a fixed piece of work shaped like a
qnops iteration (dense BFGS steps on a fixed n=50 quadratic: matrix-vector
products, a 50x50 solve and a rank-2 update, called from Python), and a time
``t`` taken next to a probe reading ``r`` is reported as ``t * REFERENCE_S / r``:
the seconds it would have taken had the probe read REFERENCE_S.

The probe lives here, outside the package, so no change to qnops can move it.
"""

import os
import time

import numpy as np

N = 50
# about the probe's time on the machine the benchmark was written on
# (Intel Xeon, 2 vCPUs, NumPy 2 with OpenBLAS), in its faster state
REFERENCE_S = 0.005

_rng = np.random.default_rng(20250810)
_q = _rng.standard_normal((N, N))
_A = _q @ _q.T / N + np.diag(np.linspace(1.0, 50.0, N))
_X0 = _rng.standard_normal(N)
_B0 = np.eye(N)


def probe(restarts=8, steps=10):
    """Seconds for ``restarts`` runs of ``steps`` exact-line-search BFGS steps."""
    start = time.perf_counter()
    for _ in range(restarts):
        x, b = _X0.copy(), _B0.copy()
        for _ in range(steps):
            g = _A @ x
            d = -np.linalg.solve(b, g)
            s = (-(g @ d) / (d @ (_A @ d))) * d
            x = x + s
            y = _A @ s
            bs = b @ s
            b = b + np.outer(y, y) / (y @ s) - np.outer(bs, bs) / (s @ bs)
    return time.perf_counter() - start


def reading(count=5):
    """The median of ``count`` probes after an untimed one, on this CPU: a
    process that has just waited reads slow on its first probe."""
    probe()
    readings = sorted(probe() for _ in range(count))
    return readings[count // 2]


def machine_reading():
    """The mean of ``reading()`` on every CPU this process may use, for work
    that runs in other processes, on any or all of them."""
    cpus = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            readings.append(reading())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(readings) / len(readings)


def normalized(seconds, probe_s):
    """A time taken next to a probe reading, at the reference speed."""
    return seconds * REFERENCE_S / probe_s


class ProbeClock:
    """Times work at the reference speed from inside the process doing it.

    A probe runs at every ``lap()`` and, through ``tick()``, which the work
    calls often, whenever PERIOD_S of work has passed since the last probe.
    Each stretch of work between two probes is scaled by their mean, so a
    speed change in the middle of a long call is followed; time spent in the
    probes is not counted.
    """

    PERIOD_S = 0.1

    def __init__(self):
        self.last = probe()
        self.mark = time.perf_counter()
        self.raw = self.scaled = 0.0

    def tick(self):
        if time.perf_counter() - self.mark >= self.PERIOD_S:
            self._probe()

    def _probe(self):
        now = time.perf_counter()
        reading = probe()
        self.raw += now - self.mark
        self.scaled += normalized(now - self.mark, (self.last + reading) / 2)
        self.last = reading
        self.mark = time.perf_counter()

    def lap(self):
        """(raw, scaled) seconds of work since the previous lap."""
        self._probe()
        out = (self.raw, self.scaled)
        self.raw = self.scaled = 0.0
        return out

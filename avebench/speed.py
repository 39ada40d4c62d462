"""Machine-speed sampling, so that timings taken on a shared host can be compared.

The benchmark runs on a few vCPUs of a shared host whose speed, for the same
single-threaded work, swings by up to 2x over seconds to minutes. A 30 s run
averages the fast swings away but not the slow ones, so raw times of the same
code spread by 20-30 % between runs.

While a :class:`SpeedProbe` is active, a timer interrupts the benchmark
process every `INTERVAL_S` seconds and runs a fixed calibration loop in its
main thread, between two bytecodes of whatever runs there. The loop runs
twice, so that its code and data are back in the caches, and each sample is
the wall time of the second run: the speed of the machine, not of a cache
the workload has just filled with its own data. The probe still shares the
process with the workload, so a workload that keeps BLAS threads spinning on
the other vCPUs while the loop runs reads a little slower. A measurement takes a :meth:`SpeedProbe.mark` before and
calls :meth:`SpeedProbe.since` after, which gives

- the raw wall and CPU time minus the time spent in the calibration loop, and
- the mean relative speed over the samples taken in between, `REFERENCE_S`
  divided by each sample's time: 1 at the reference speed, 0.5 when the
  machine runs at half of it.

A raw time multiplied by that speed is the time the same work takes at the
reference speed: the reference-speed seconds that the benchmark reports.
`REFERENCE_S` is the loop's typical time on a 2-vCPU Xeon KVM guest, so on
such a machine the scaled times read close to the raw ones.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp

INTERVAL_S = 0.05
REFERENCE_S = 0.00028  # the loop's typical wall time on the reference machine

# The loop does what the package's iterations do, with numpy and scipy only, so
# that a change to the package leaves it alone: a small sparse matrix-vector
# product, vector ufuncs, a norm and a banded Cholesky solve, driven from Python.
# Of the loops tried (this one, a sparse product with pure-Python arithmetic,
# and pure-Python arithmetic alone), this one tracked the lattice-8 bench best
# on a 2-vCPU Xeon KVM guest: over 8 bench jobs whose raw times ranged from
# 13.4 to 19.4 s, the scaled times ranged over 9 %.
_N = 64
_A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(_N, _N), format="csr")
_BAND = np.vstack([np.full(_N, 4.0), np.r_[np.full(_N - 1, -1.0), 0.0]])
_CHOL = (scipy.linalg.cholesky_banded(_BAND, lower=True), True)
_B = np.ones(_N)
_X0 = np.linspace(0.0, 1.0, _N)


def calibration_loop() -> float:
    x, res = _X0, 0.0
    for _ in range(8):
        res += float(np.linalg.norm(_A @ x - np.abs(x) - _B))
        x = scipy.linalg.cho_solve_banded(_CHOL, np.abs(x) + _B)
    return res


@contextlib.contextmanager
def _no_sample():
    """Hold the timer's signal back, so that no sample falls between two clock reads."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class Mark:
    __slots__ = ("samples", "wall", "cpu", "spent_wall", "spent_cpu")


class SpeedProbe:
    """Context manager: samples the machine's speed while active."""

    def __init__(self):
        self.samples = []  # calibration loop wall times, in the order taken
        self.spent_wall = 0.0  # total wall and CPU time spent in the handler
        self.spent_cpu = 0.0
        self._previous = None

    def __enter__(self):
        calibration_loop()  # warm-up: first-call costs do not count as a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        calibration_loop()  # brings the loop's code and data back into the caches
        t1 = time.perf_counter()
        calibration_loop()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent_wall += t2 - t0
        self.spent_cpu += time.process_time() - c0

    def mark(self) -> Mark:
        with _no_sample():
            m = Mark()
            m.samples, m.spent_wall, m.spent_cpu = len(self.samples), self.spent_wall, self.spent_cpu
            m.cpu, m.wall = time.process_time(), time.perf_counter()
        return m

    def since(self, m: Mark):
        """(wall s, CPU s, speed or None) of the work since the mark, the loop's time excluded."""
        with _no_sample():
            wall, cpu = time.perf_counter() - m.wall, time.process_time() - m.cpu
            wall -= self.spent_wall - m.spent_wall
            cpu -= self.spent_cpu - m.spent_cpu
            taken = self.samples[m.samples :]
        speed = sum(REFERENCE_S / s for s in taken) / len(taken) if taken else None
        return wall, cpu, speed

    def speed(self) -> float:
        """Mean relative speed over every sample taken so far."""
        if not self.samples:
            raise RuntimeError("no speed sample was taken")
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)

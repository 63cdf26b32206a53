"""Host-speed sampling, so that timings are comparable across runs.

The benchmark's hosts are shared. The same code runs up to 1.6x slower for
seconds to minutes at a time, whatever this process does, and the slowdown
shows in CPU time as much as in wall time: a 30-second run's median call
time moved by 30-60% between runs of the same code. A separate process on
the other CPU does not see the same slowdowns, and calibration work run
between calls misses the changes within a call.

`SpeedProbe` samples the speed of the CPU the measured code runs on. While
it samples, a SIGALRM every `PERIOD_S` runs one unit of fixed work in the
measured process, between two bytecodes of the measured code, and records
how long the unit took. A measured time is then the wall time minus the
time spent in units, scaled by the unit's reference time over its mean
time during the measurement: seconds at the host speed at which a unit
takes its reference time.

Two units are used:

- `MixedUnit`, for driver calls: work of the kinds the package does, a
  Python-level loop, small numpy array calls and a sparse matrix product.
- `python_unit`, for the set-up probe, which must not import numpy before
  it starts timing: a Python-level loop.

Python runs signal handlers only between bytecodes, so no samples fall
inside one long C call (a factorization, say); the samples after it still
cover the time around it.

This module imports only the standard library; `MixedUnit` imports numpy
and scipy when it is made.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from collections.abc import Callable, Iterator
from typing import TypeVar

T = TypeVar("T")

PERIOD_S = 0.01
# Median time of each unit, sampled during the benchmark on a 2-vCPU Intel
# Xeon (2.0 GHz, shared host) with Python 3.11, numpy 2 and scipy 1. They
# only set the scale of normalized times.
MIXED_REFERENCE_S = 4.2e-4
PYTHON_REFERENCE_S = 1.4e-4


def python_unit() -> float:
    """Seconds taken by a fixed Python-level loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += i * 0.5
    elapsed = time.perf_counter() - t0
    if acc != 562125.0:
        raise ArithmeticError(f"speed-probe loop gave {acc}")
    return elapsed


class MixedUnit:
    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp

        self.np = np
        self.nodes = np.linspace(0.0, 1.0, 7)
        self.points = [float(x) for x in self.nodes]
        self.block = np.eye(4) + 0.1
        n = 40
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self.matrix = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsr()
        self.vector = np.ones(n * n)

    def __call__(self) -> float:
        """Seconds taken by one unit of the fixed work."""
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(1500):
            acc += i * 0.5
        for _ in range(8):
            vander = np.vander(self.nodes, 4)
            acc += float((np.stack([vander, vander]) @ self.block).sum())
            acc += sum(p * 2.0 for p in self.points)
        for _ in range(2):
            acc += float((self.matrix @ self.vector)[0])
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise ArithmeticError("speed-probe work gave a non-finite result")
        return elapsed


class SpeedProbe:
    def __init__(self, unit: Callable[[], float], reference_s: float) -> None:
        self.unit = unit
        self.reference_s = reference_s
        self.units: list[float] = []
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # an alarm that arrives during a unit is dropped
            return
        self._busy = True
        try:
            self.units.append(self.unit())
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self) -> Iterator[SpeedProbe]:
        """Sample while the block runs; restore the previous handler after."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def normalize(self, elapsed: float, units: list[float]) -> tuple[float, float]:
        """(own seconds, normalized seconds) of a measurement that took
        `elapsed` wall seconds and ran `units`."""
        own = elapsed - sum(units)
        if not units:  # shorter than one period: sample right after it
            units = [self.unit()]
        return own, own * self.reference_s / statistics.fmean(units)

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """Run `fn` inside `sampling()`; return its result, its own seconds
        and its normalized seconds."""
        first = len(self.units)
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        return (result, *self.normalize(elapsed, self.units[first:]))

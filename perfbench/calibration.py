"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed swings by a third or
more for seconds to minutes at a time, as neighbours contend for the same
cores and caches. So every timed interval is rescaled by
``REFERENCE_S / c``, where ``c`` is the time of a fixed calibration kernel
(benchmark code, independent of evgrid) measured at the start of the
interval. A rescaled time is the time the interval would have taken had the
kernel run in ``REFERENCE_S``, close to the kernel's median time on the host
the first baseline was taken on, so the figures stay near that host's wall
times while its swings cancel.

The kernel mixes the kinds of work the workloads do: Python attribute and
dict updates over small objects, network-sized numpy calls, power-flow-sized
dense products and solves, and gathers from a table larger than the private
caches. On a 2-vCPU Xeon, five 30-second runs of train_reduced_opsrl in a
noisy period had an interquartile range of 20% of the median in raw
episodes per second and 2.3% rescaled; in earlier tests with a smaller
kernel, 20-second blocks of greedy case_a episodes went from 21% to 4-5%
in a noisy period and from 9% to 5% in a quiet one.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 12.0e-3
RECALIBRATE_AFTER_S = 0.1    # timed seconds between calibrations


class _Item:
    __slots__ = ("key", "pos", "route")

    def __init__(self, i):
        self.key = i
        self.pos = 0.0
        self.route = [i, i + 1]


_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((40, 40)) + 40.0 * np.eye(40)
_WEIGHTS = _RNG.standard_normal((64, 64))
_VECTOR = _RNG.standard_normal(64)
_FEEDER = _RNG.standard_normal((69, 69))
_JACOBIAN = _RNG.standard_normal((136, 136)) + 136.0 * np.eye(136)
_RHS = _RNG.standard_normal(136)
_TABLE = _RNG.standard_normal(1 << 20)              # 8 MB, past private caches
_GATHER = _RNG.integers(0, 1 << 20, size=1 << 16)


def kernel() -> float:
    """The calibration work: a fixed mix of Python object updates, small
    numpy calls (network-sized), dense solves (power-flow-sized) and
    gathers from an 8 MB table."""
    items = [_Item(i) for i in range(200)]
    counts = {}
    for r in range(60):
        for it in items:
            it.pos += it.key * 0.5
            k = it.route[r & 1]
            counts[k] = counts.get(k, 0) + 1
    acc = float(len(counts))
    for _ in range(75):
        acc += float(np.tanh(_WEIGHTS @ _VECTOR).sum())
        acc += float(np.linalg.solve(_SMALL, _VECTOR[:40])[0])
    for _ in range(10):
        acc += float((_FEEDER @ _FEEDER)[0, 0])
        acc += float(np.linalg.solve(_JACOBIAN, _RHS)[0])
    for _ in range(4):
        acc += float(_TABLE[_GATHER].sum())
    return acc


def measure_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class CalibratedClock:
    """Accumulates timed intervals both as wall seconds (``raw_s``) and as
    rescaled seconds (``scaled_s``); calibration time counts in neither.

    ``start`` and ``stop`` bracket a timed interval. ``start`` and
    ``checkpoint``, which may be called inside one, recalibrate once
    ``RECALIBRATE_AFTER_S`` of timed wall time have passed since the last
    calibration.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.factor = 1.0
        self._mark = None
        self._since_calibration = float("inf")

    def start(self):
        if self._since_calibration >= RECALIBRATE_AFTER_S:
            self.factor = REFERENCE_S / measure_kernel()
            self._since_calibration = 0.0
        self._mark = time.perf_counter()

    def stop(self):
        dt = time.perf_counter() - self._mark
        self.raw_s += dt
        self.scaled_s += dt * self.factor
        self._since_calibration += dt
        self._mark = None

    def checkpoint(self):
        """Recalibrate if due; cheap enough to call once per decision."""
        if self._mark is None:
            return
        due = self._since_calibration + time.perf_counter() - self._mark
        if due >= RECALIBRATE_AFTER_S:
            self.stop()
            self.start()

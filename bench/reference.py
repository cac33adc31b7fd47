"""Fixed reference computations that track the machine's current speed.

On a shared machine the processor's speed can change every second or two,
by up to 2x, and in-process timers cannot tell that apart from the
program's own cost: thread CPU time rises with wall time. The benchmark
therefore runs a reference kernel, which shares no code with the library,
between operations, and reports its gated times scaled to the reference
speed:

    scaled = measured * nominal / (kernel time measured around it)

A change to the library leaves the kernel's time alone, so it moves the
scaled time as it moves the measured one. Kinds of work slow down by
different amounts, so each workload uses the kernel whose work is most like
its own: on the 2-core machine the benchmark was written on, the ratio of
an operation to the better-matched kernel varied by 4-6% from second to
second, where the operation's own time varied by 10-25%.
"""
from __future__ import annotations

import functools
import statistics
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(12345)
_TINY = _rng.standard_normal((5, 5))
_TINY = _TINY @ _TINY.T
_SPD = _rng.standard_normal((48, 48))
_SPD = _SPD @ _SPD.T
_DENSE = _rng.standard_normal((160, 160))


def small_kernel():
    """Interpreted loops, object and array allocation, tiny and small eigh,
    and a dense matmul, in fixed amounts of roughly equal time: the mix of
    work in operations on matrices of width up to 128."""
    s = 0
    for i in range(1000):
        s += i * i
    table = {i: [i, str(i)] for i in range(500)}
    for _ in range(30):
        np.linalg.eigh(_TINY)
    for _ in range(2):
        np.linalg.eigh(_SPD)
        _DENSE @ _DENSE
    for _ in range(100):
        np.zeros((64, 64)).sum()
    return s + len(table)


@functools.cache
def _wide_inputs():
    """Made on first use, so that workloads without it do not hold 4 MB."""
    x = np.random.default_rng(12345).standard_normal((2048, 256))
    return x, x.T @ x / len(x)


def wide_kernel():
    """One 256-wide eigh and one Gram matrix of 2048 rows: the two kinds of
    work that dominate operations on 2048x256 features."""
    x, spd = _wide_inputs()
    np.linalg.eigh(spd)
    return x.T @ x


# kernel -> (its time on that 2-core machine at its faster speed, so that
# scaled times read close to seconds measured there; seconds between probes,
# a few percent of the run)
KERNELS = {small_kernel: (1.7e-3, 0.05), wide_kernel: (9.5e-3, 0.25)}


class Speedometer:
    """Probes a kernel between operations and scales measured times by it.
    `run` is the kernel as called, so a tracer can wrap it in a span."""

    def __init__(self, kernel=small_kernel):
        self.kernel = self.run = kernel
        self.nominal_s, self.every_s = KERNELS[kernel]
        self.starts, self.probes = [], []   # each probe's start and seconds
        self.spent = 0.0                    # seconds spent probing
        for _ in range(3):
            self.probe()

    def probe(self) -> float:
        t0 = perf_counter()
        self.run()
        dt = perf_counter() - t0
        self.starts.append(t0)
        self.probes.append(dt)
        self.spent += dt
        return dt

    def maybe_probe(self):
        """Probe when the last probe started at least every_s ago."""
        if perf_counter() - self.starts[-1] >= self.every_s:
            self.probe()

    def scale(self, starts, seconds) -> list:
        """Times measured from `starts`, each scaled by the median of the two
        probes before it and the two after it. Probe once more after the
        last operation, so that it has probes on both sides."""
        after = np.searchsorted(self.starts, starts)
        return [s * self.nominal_s / statistics.median(self.probes[max(i - 2, 0):i + 2])
                for i, s in zip(after, seconds)]

    def timed(self, fn) -> float:
        """Run fn() between two probes; its time scaled by their mean."""
        before = self.probe()
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        return dt * self.nominal_s / ((before + self.probe()) / 2.0)

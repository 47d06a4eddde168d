"""Time on a shared host, scaled by the machine's speed measured alongside.

On a few vCPUs of a shared host the speed of the machine drifts by +-25%
within seconds and by more over minutes, so raw wall times of the same code
spread past any useful bound.  A fixed reference kernel (an interpreter
loop, a numpy sort, a batch of small eigensolves and a random gather from a
4 MB table, as the package mixes them) is timed right before and right
after each measured call, and every
``INTERVAL_S`` during it from a ``SIGALRM`` handler.  Each stretch of the
call between two kernel samples is scaled by ``REFERENCE_S`` over the mean
of the two samples' kernel times, raised to ``EXPONENT``.  A slower program
still reads slower; a slower machine does not.

The handler runs only between bytecodes of the main thread, so a long C call
delays the next sample but is never interrupted; the stretch that holds it
is scaled by the samples on either side.  The kernel's own time is left out
of the measured time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median kernel time on the machine the benchmark was defined on (2 vCPUs of
# a shared x86-64 host, Python 3, numpy, one BLAS thread); calibrated times
# are seconds of that machine
REFERENCE_S = 0.0030
INTERVAL_S = 0.1
# the package slows down more than the kernel when the host is busy: over
# 200 s stretches of lifebar-mix and lifebar-deep, the calibrated passes
# varied least (CV 3.8% and 2.9%, against 4.7% and 4.4% at 1, 15% and 13%
# raw) with the kernel's slowdown raised to this power
EXPONENT = 1.2
SETUP_SAMPLES = 24

_rng = np.random.default_rng(0)
_VALUES = _rng.random(50_000)
_MATS = _rng.random((64, 3, 3))
_MATS = _MATS + _MATS.transpose(0, 2, 1)
# a table larger than a core's cache share; with this gather the kernel
# tracked lifebar-mix's slowdowns more closely (passes: CV 4.7%, not 6.4%)
_TABLE = _rng.random(512_000)
_PICKS = _rng.integers(0, len(_TABLE), 100_000)


def kernel() -> float:
    """Run the reference kernel once; its wall time in seconds."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(10_000):
        table[i % 97] = table.get(i % 97, 0) + i
    np.argsort(_VALUES)
    np.linalg.eigh(_MATS)
    _TABLE[_PICKS].sum()
    return time.perf_counter() - start


def scale(kernel_s: float) -> float:
    """Factor from this machine's seconds to the reference machine's, given
    a kernel time measured now."""
    return (REFERENCE_S / kernel_s) ** EXPONENT


def speed_factor() -> float:
    """The scale, from the mean of ``SETUP_SAMPLES`` kernel times taken now."""
    return scale(statistics.fmean(kernel() for _ in range(SETUP_SAMPLES)))


class Sampler:
    """Samples the kernel while installed; ``measure`` times one call."""

    def __init__(self) -> None:
        self.samples: list = []  # (start, end) of each kernel run
        self._busy = False
        self._saved = None

    def sample(self) -> None:
        if self._busy:  # a signal that lands inside a sample is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            self.samples.append((start, time.perf_counter()))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def measure(self, fn, *args):
        """Call fn(*args); returns (result, raw seconds, calibrated seconds).

        Raw seconds leave out the kernel samples taken during the call.
        """
        first = len(self.samples)
        self.sample()
        try:
            result = fn(*args)
        finally:
            self.sample()
        taken = self.samples[first:]
        raw = calibrated = 0.0
        for (s0, e0), (s1, e1) in zip(taken, taken[1:]):
            stretch = s1 - e0
            raw += stretch
            calibrated += stretch * scale(((e0 - s0) + (e1 - s1)) / 2)
        return result, raw, calibrated

"""Wall time rescaled to a fixed machine speed, for a shared host.

On a shared host the speed of a virtual CPU drifts by a third or more
within seconds, as other tenants load the same cores, caches and memory;
process CPU time drifts with it.  A raw wall time then says more about the
neighbours than about the program.  ``SpeedClock`` cancels that drift: while
it runs, an interval timer interrupts the program every ``PERIOD_S``
seconds and runs a fixed reference kernel in the signal handler, in the
same thread.  The kernel mixes the kinds of work the library does
(interpreted arithmetic, numpy calls on short arrays, passes over arrays
of one simulator block and scipy's Nelder-Mead driver), so it slows when
the program slows.

Each stretch of program time between two interrupts is scaled by
``NOMINAL_S / k``, where ``k`` is the kernel's time measured at the end of
that stretch.  The sum is the time the program would have taken on a
machine where the kernel takes ``NOMINAL_S`` seconds.  The kernel's own
time is excluded from both the raw and the scaled program time.

The kernel is frozen here, independent of the library, so that a change
to the library moves the scaled time and leaves the scale alone.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

PERIOD_S = 0.05
# seconds one kernel takes at the reference speed: about its median on a
# 2-vCPU Xeon (2.0 GHz) between library calls
NOMINAL_S = 2.5e-3

# numpy and scipy are imported on first use, not with this module, so that
# a timed set-up can still pay for their import
_parts = None


def _prepare():
    global _parts
    if _parts is None:
        import numpy as np
        from scipy.optimize import minimize

        short = np.linspace(0.01, 4.0, 200)
        long_in = np.linspace(0.0, 3.0, 1 << 16)
        _parts = np, minimize, short, long_in, np.empty_like(long_in)
        kernel()


def _bowl(p):
    return (p[0] - 1.0) ** 2 + 3.0 * (p[1] + 0.5) ** 2 + abs(p[2])


def kernel():
    """The fixed reference work, in four parts of comparable time.

    Returns a value so that nothing is elided.
    """
    np, minimize, short, long_in, long_out = _parts
    acc = 0.0
    for i in range(1, 2400):
        acc += math.sqrt(i) * 1.0001 - acc * 1e-6
    for i in range(24):
        acc += float(np.max(np.abs(1.0 / (1.0 + np.exp(-short * (1.0 + i)))
                                   - short)))
    np.exp(long_in, out=long_out)
    np.log1p(long_out, out=long_out)
    acc += float(np.sum(np.where(long_out > 1.5, long_out, 0.0)))
    res = minimize(_bowl, (0.2, 0.3, 0.4), method="Nelder-Mead",
                   options={"maxiter": 30})
    return acc + float(res.fun)


class SpeedClock:
    """Times one stretch of program run; ``stop`` returns (raw_s, scaled_s)."""

    def __init__(self):
        self.kernel_s = []
        self._raw = 0.0
        self._scaled = 0.0
        self._mark = 0.0
        self._carried = 0.0
        self._previous = None

    def _tick(self, *_):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        k = t1 - t0
        self.kernel_s.append(k)
        self._raw += t0 - self._mark
        self._scaled += (t0 - self._mark + self._carried) * NOMINAL_S / k
        self._carried = 0.0
        self._mark = t1

    def start(self, carried=0.0):
        """Start timing.

        ``carried`` is program time that ran before the clock could, such as
        numpy's and scipy's imports; it is scaled by the first kernel.
        """
        _prepare()
        self._raw = carried
        self._carried = carried
        self._scaled = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._tick()
        signal.signal(signal.SIGALRM, self._previous)
        return self._raw, self._scaled

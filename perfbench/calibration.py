"""A gauge of the machine's current speed, sampled while the operations run.

On a shared host the same work can take up to twice as long from one
moment to the next, for seconds or minutes: other tenants' load slows
this process without showing as steal time or in its CPU time.
`SpeedGauge` therefore times a small, fixed piece of reference work from a
timer signal every ``PERIOD_S`` of wall time, also while an operation
runs, and once just before and after each operation. The worker scales
each operation's latency by ``REFERENCE_S`` over the median of the samples
taken over it. A change to the program moves the scaled latency as much
as the raw one; a slow stretch of the machine slows the operation and the
samples taken during it alike, and so largely cancels out.

The reference work mimics the program's own mix, in the same process and
with the same single-threaded BLAS: small-array NumPy updates in a Python
loop (the Jacobi eigensolver), a matrix product (scattering and ridge) and
float formatting (the CSV writers). It never calls the program, so no
change to the program can change it. The time the samples take is
subtracted from the operation's latency. The handler runs between Python
bytecodes, so a sample never interrupts a BLAS call, and system calls it
interrupts are retried.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median of one sample of reference work on a quiet 2-core Intel Xeon VM at
# 2.0 GHz (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
# Scaled latencies are in seconds of that machine; only their ratios
# between runs matter.
REFERENCE_S = 0.0020
PERIOD_S = 0.2

_rng = np.random.default_rng(12345)
_SYMMETRIC = _rng.standard_normal((68, 68))
_SYMMETRIC = _SYMMETRIC @ _SYMMETRIC.T
_SQUARE = _rng.standard_normal((120, 120))
_FLOATS = (_rng.standard_normal(1500) * 1e3).tolist()


def _reference_work():
    a = _SYMMETRIC.copy()
    c, s = 0.6, 0.8
    for q in range(1, 25):
        rp = a[0, :].copy()
        rq = a[q, :].copy()
        a[0, :] = c * rp - s * rq
        a[q, :] = s * rp + c * rq
    _SQUARE @ _SQUARE
    ",".join(format(v, ".17g") for v in _FLOATS)


class SpeedGauge:
    """Samples of the reference work's wall time, taken every ``PERIOD_S`` while started."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # wall time spent sampling, to subtract from latencies

    def sample(self, *_signal_args):
        start = time.perf_counter()
        _reference_work()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale_since(self, index):
        """``REFERENCE_S`` over the median of the samples from ``index`` on."""
        return REFERENCE_S / statistics.median(self.samples[index:])

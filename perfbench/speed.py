"""Machine-speed probe: puts a run's timings on one reference speed.

On a machine shared with other jobs, the same ``analyze`` call takes 1.3 s
in one stretch of seconds and 2.0 s a few seconds later, and the process's
CPU time moves with its wall time: the slowdown is contention for the core
and its caches, not time spent descheduled.  A run's median then says as
much about the neighbours as about netred.

The probe is one fixed dense complex solve, ``(M + iI) X = B`` with 240
states and 4 right-hand sides: the operation that dominates the large
workloads' H-infinity sweeps.  It is sampled after every measured
interval: one untimed solve refills the caches that the interval evicted,
then the median of timed solves, about one per 2% of the interval's length.
Each interval is multiplied by ``REFERENCE_S`` over the mean of the samples
taken right before and right after it.

Over ten 30-second runs with different seeds on a 2-core shared VM, the
spread (IQR over median) of ``analyze_p50_s`` was 0.090 as measured and
0.056 scaled on ladder-small, 0.124 and 0.081 on aep-symmetric-large, and
0.138 and 0.052 on triangle-si-large; that of ``instances_per_s`` was
0.093 and 0.051, 0.096 and 0.043, and 0.090 and 0.040.  In ten 25-second
windows of back-to-back calls, a probe of interpreted Python and tiny
LAPACK calls tracked the machine worse than this solve on every workload.

The probe uses NumPy only, never netred, so a change to the package cannot
change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on the machine the benchmark was defined on (2-core
# Intel Xeon VM, OpenBLAS on one thread).  A scaled time is "seconds at
# that machine's speed"; only the ratio between commits matters.
REFERENCE_S = 1.4e-3
# Probe time per second of measured interval.
SHARE = 0.02
_WARM_UP = 30
# The error realization of aep-symmetric-large has 240 states.
_SIZE = 240


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20161007)
        self._matrix = rng.normal(size=(_SIZE, _SIZE)) + 1j * np.eye(_SIZE)
        self._rhs = np.ones((_SIZE, 4))
        for _ in range(_WARM_UP):
            self()

    def __call__(self) -> float:
        """Wall time of one probe, in seconds."""
        start = time.perf_counter()
        np.linalg.solve(self._matrix, self._rhs)
        return time.perf_counter() - start

    def sample(self, interval: float) -> float:
        """Median probe time after a measured interval of ``interval`` seconds.

        The first solve after a call finds the caches full of the call's
        data and takes about 1.6 times as long; it is not timed, so that
        the probe does not depend on how much memory netred touches.
        """
        self()
        return statistics.median(
            self() for _ in range(max(1, int(SHARE * interval / REFERENCE_S)))
        )


def scale(before: float, after: float) -> float:
    """Factor that puts an interval between these two probe samples on the reference speed."""
    return REFERENCE_S / (0.5 * (before + after))

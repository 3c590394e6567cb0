"""Host-speed calibration: fixed work whose time tracks how fast the host runs now.

The benchmark runs on hosts shared with other tenants, whose speed drifts
by 15-30% over seconds to minutes: the same op, repeated in one process,
runs at 0.22 s for a while and at 0.35 s a little later, and its CPU time
moves with its wall time.  Reported times are therefore scaled to a fixed
reference speed.  Every quarter of a second, before an op, the benchmark
times one calibration sample and multiplies the times of the following
ops by ``REFERENCE_S / sample``: the time an op would take on this host
when the calibration takes ``REFERENCE_S``.

The calibration is code of this directory alone and calls nothing in
``csmark``, so a change to the program scales the reported time exactly as
it scales the raw time; only the host's share of the variation cancels.
The raw times are reported next to the scaled ones (``run.py`` prints them
as comments and stores them with each result).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# About the sample's median time on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4) with glibc's malloc thresholds fixed as ``run.py`` fixes them,
# so that scaled times read close to raw ones.
REFERENCE_S = 0.030

_VALUES = np.random.default_rng(1102_1875).random(200_000)


def _sample() -> None:
    """Kernel weights, a cumulative sum and a sort over 200 000 values.

    Of the kinds of work tried (this, pure interpreter work, numpy calls on
    100 values, and mixes of them), this one tracked the ops of every
    workload best, the interpreter-bound ``bootstrap-select`` ones too.
    """
    for _ in range(5):
        u = (_VALUES - 0.5) / 0.13
        w = np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u), 0.0)
        np.cumsum(w)
        np.sort(_VALUES)
        np.exp(-u, out=u)


class Calibration:
    """``scale()`` times one sample and returns ``REFERENCE_S`` over its time.

    With ``threads`` > 1 that many threads each run the sample at once, as
    the replications of a threaded op run on every core, so a sample takes
    as long as its slowest core allows; numpy releases the GIL for these
    arrays, so the threads do not take turns.
    """

    def __init__(self, threads: int = 1) -> None:
        self.threads = threads

    def scale(self) -> float:
        start = time.perf_counter()
        if self.threads == 1:
            _sample()
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                for future in [pool.submit(_sample) for _ in range(self.threads)]:
                    future.result()
        return REFERENCE_S / (time.perf_counter() - start)

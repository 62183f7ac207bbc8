"""A fixed reference kernel that tracks how fast the machine runs right now.

Shared small machines drift between fast and slow phases that last from
seconds to minutes; in one run the same design took 3.9 s and 6.1 s.  The
drift slows this kernel and the workloads alike, so the benchmark times
the kernel between operations and reports every time at reference speed:

    reference seconds = measured seconds * REFERENCE_US / kernel us

where ``kernel us`` is the mean of the kernel timings just before and just
after the measured interval.  Over 14 identical designs this cut the
quartile spread from 0.20 to 0.06 of the median.

The kernel is shaped like one objective evaluation (a 12x12 symmetric
eigendecomposition, small matrix products and Python overhead) and uses
only numpy, never the package, so no change to the package can change it.
It stays single-threaded: OpenBLAS does not split matrices this small.
"""

from __future__ import annotations

import time

#: kernel iteration time, in microseconds, that reference speed is defined by
REFERENCE_US = 60.0
#: how long one calibration runs
CALIBRATION_S = 0.3


def kernel_us() -> float:
    """Mean wall time of one kernel iteration, in microseconds."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    a = a @ a.T
    p = rng.standard_normal((12, 12))
    n = 0
    start = time.perf_counter()
    while True:
        for _ in range(50):
            d = a.copy()
            d[np.diag_indices_from(d)] += 0.1
            lam, u = np.linalg.eigh(d)
            w = p @ u
            j = (w / (2.0 - lam)) @ w.T
            np.fill_diagonal(j, 0.0)
            float(np.linalg.norm(j))
        n += 50
        elapsed = time.perf_counter() - start
        if elapsed >= CALIBRATION_S:
            return elapsed / n * 1e6


def speed_factor(before_us: float, after_us: float) -> float:
    """Multiplier from measured seconds to reference seconds."""
    return REFERENCE_US / (0.5 * (before_us + after_us))

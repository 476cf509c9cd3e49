"""Host-speed calibration: wall times scaled to a reference host speed.

The benchmark runs on a few vCPUs of a shared host.  There, the speed of
the same code drifts by up to 2x over minutes as the neighbours' load
changes, while CPU time stays equal to wall time, so no measurement of
the program alone can tell a slow program from a slow host.  A fixed
NumPy computation that lives here, and that no change to the program
touches, is therefore timed between iterations.  Each wall time is
multiplied by ``REFERENCE_S`` over the mean of the calibrations just
before and just after it: the result is the wall time on a host where
one calibration takes ``REFERENCE_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: About the calibration's wall time on an uncontended host, so scaled
#: times read close to the raw ones there.
REFERENCE_S = 0.0125

_N = 1 << 17
_RNG = np.random.default_rng(0)
_VALUES = _RNG.random(_N)
_INDEX = _RNG.integers(0, _N, _N)


def calibrate() -> float:
    """Wall seconds of one run of the fixed computation: elementwise
    maths, a gather and a scatter-add over 1 MiB arrays, as the kernels do."""
    t0 = perf_counter()
    for _ in range(6):
        b = np.sin(_VALUES) * _VALUES
        c = b[_INDEX]
        np.add.at(c, _INDEX[:2048], 1.0)
        c.sum()
    return perf_counter() - t0


class Scaler:
    """Scales successive wall times by the calibrations either side of each."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.factors: list = []

    def scale(self, wall: float) -> float:
        """Scale ``wall``, measured since the previous call (or since
        construction), and calibrate again for the next one."""
        following = calibrate()
        factor = REFERENCE_S / ((self.last + following) / 2)
        self.last = following
        self.factors.append(factor)
        return wall * factor

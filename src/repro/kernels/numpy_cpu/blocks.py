"""Cache-sized detector blocks for the batched CPU kernels.

:func:`det_blocks` splits ``[0, n_det)`` into contiguous detector blocks
small enough that a kernel's temporaries stay in cache.  Every block
writes its own detector rows and each lane's arithmetic is unchanged, so
results are bitwise identical for any block size.
"""

from __future__ import annotations

from typing import Callable

#: Target (detector, sample) lanes per block: 16k float64 lanes are 128 KiB
#: per temporary, so a block's working set stays in a 2 MiB L2.  Measured
#: inside the host_numpy benchmark (38 detectors x ~1.9k samples), 16k
#: beat 8k and 32k lanes; one block holding all 38 detectors was slower.
BLOCK_LANES = 16384


def det_blocks(n_det: int, n_lanes: int, body: Callable[[int, int], None]) -> None:
    """Run ``body(lo, hi)`` over contiguous detector blocks of ``[0, n_det)``.

    ``n_lanes`` is the per-detector sample count; blocks hold about
    ``BLOCK_LANES`` lanes, and at least one detector.
    """
    per = max(1, BLOCK_LANES // max(n_lanes, 1))
    for lo in range(0, n_det, per):
        body(lo, min(lo + per, n_det))

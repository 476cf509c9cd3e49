"""Cache-sized detector blocks for the batched CPU kernels.

:func:`det_blocks` splits ``[0, n_det)`` into contiguous detector blocks
small enough that a kernel's temporaries stay in cache (the tile size is
``repro.utils.blocking.BLOCK_LANES``).  Every block writes its own
detector rows and each lane's arithmetic is unchanged, so results are
bitwise identical for any block size.
"""

from __future__ import annotations

from typing import Callable

from ...utils.blocking import rows_per_block


def det_blocks(n_det: int, n_lanes: int, body: Callable[[int, int], None]) -> None:
    """Run ``body(lo, hi)`` over contiguous detector blocks of ``[0, n_det)``.

    ``n_lanes`` is the per-detector sample count; blocks hold about
    ``BLOCK_LANES`` lanes, and at least one detector.
    """
    per = rows_per_block(n_lanes)
    for lo in range(0, n_det, per):
        body(lo, min(lo + per, n_det))

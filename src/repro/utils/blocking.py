"""Cache-sized row blocks, shared by the batched CPU kernels, jaxshim and ompshim.

The ``numpy`` kernels (detector blocks), jaxshim's compiled executables
(row tiles of a fusion group) and the OMP collapse(3) launchers (row
passes over a launch grid) all walk their leading axis in blocks of
about :data:`BLOCK_LANES` lanes.  Callers read the constant through
:func:`rows_per_block` at call time, so one patch of ``BLOCK_LANES``
changes the block size everywhere.
"""

from __future__ import annotations

from typing import Callable

#: Target lanes per tile: 16k float64 lanes are 128 KiB per temporary, so a
#: tile's working set stays in a 2 MiB L2.  Measured inside the host_numpy
#: benchmark (38 detectors x ~1.9k samples), 16k beat 8k and 32k lanes; one
#: block holding all 38 detectors was slower.
BLOCK_LANES = 16384


def rows_per_block(lanes_per_row: int) -> int:
    """Rows per tile when each row holds ``lanes_per_row`` lanes (at least 1)."""
    return max(1, BLOCK_LANES // max(lanes_per_row, 1))


def det_blocks(n_rows: int, n_lanes: int, body: Callable[[int, int], None]) -> None:
    """Run ``body(lo, hi)`` over contiguous row blocks of ``[0, n_rows)``, in order.

    ``n_lanes`` is the lane count of one row (a detector's samples); blocks
    hold about ``BLOCK_LANES`` lanes, and at least one row.  Every block
    writes its own rows and each lane's arithmetic is unchanged, so
    results are bitwise identical for any block size.
    """
    per = rows_per_block(n_lanes)
    for lo in range(0, n_rows, per):
        body(lo, min(lo + per, n_rows))

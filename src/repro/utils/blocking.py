"""Cache-sized row tiles, shared by the batched CPU kernels and jaxshim.

Both the ``numpy`` kernels (detector blocks) and jaxshim's compiled
executables (row tiles of a fusion group) walk their leading axis in
tiles of about :data:`BLOCK_LANES` lanes.  Callers read the constant
through :func:`rows_per_block` at call time, so one patch of
``BLOCK_LANES`` changes the tile size everywhere.
"""

from __future__ import annotations

#: Target lanes per tile: 16k float64 lanes are 128 KiB per temporary, so a
#: tile's working set stays in a 2 MiB L2.  Measured inside the host_numpy
#: benchmark (38 detectors x ~1.9k samples), 16k beat 8k and 32k lanes; one
#: block holding all 38 detectors was slower.
BLOCK_LANES = 16384


def rows_per_block(lanes_per_row: int) -> int:
    """Rows per tile when each row holds ``lanes_per_row`` lanes (at least 1)."""
    return max(1, BLOCK_LANES // max(lanes_per_row, 1))

"""pointing_detector, batched CPU implementation.

One quaternion multiply per detector block of the ``(n_det, n_flat)``
working set; the quaternion algebra is elementwise, so blocking keeps
results bitwise identical to the per-sample reference.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math import qa
from ..common import flatten_intervals
from ...utils.blocking import det_blocks


@kernel("pointing_detector", ImplementationType.NUMPY)
def pointing_detector(
    fp_quats,
    boresight,
    quats_out,
    starts,
    stops,
    shared_flags=None,
    mask=0,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    bore = np.take(boresight, flat, axis=0)[None, :, :]
    flagged = None
    if shared_flags is not None and mask:
        flagged = np.flatnonzero(shared_flags[flat] & mask)

    def body(lo, hi):
        fp = fp_quats[lo:hi, None, :]
        rotated = qa.mult(bore, fp)
        if flagged is not None:
            rotated[:, flagged] = fp
        quats_out[lo:hi, flat] = rotated

    det_blocks(len(fp_quats), flat.size, body)

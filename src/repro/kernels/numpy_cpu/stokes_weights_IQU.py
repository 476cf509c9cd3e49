"""stokes_weights_IQU, batched CPU implementation.

Position angles are recovered one detector block at a time; the I/Q/U
weight products keep the reference's left-to-right multiplication order so
results match bitwise.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...math import qa
from ..common import flatten_intervals
from .blocks import det_blocks


@kernel("stokes_weights_IQU", ImplementationType.NUMPY)
def stokes_weights_IQU(
    quats,
    weights_out,
    hwp_angle,
    epsilon,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    eta = (1.0 - epsilon) / (1.0 + epsilon)
    hwp = None if hwp_angle is None else 2.0 * hwp_angle[flat]

    def body(lo, hi):
        _, _, angle = qa.to_angles(np.take(quats[lo:hi], flat, axis=1))
        if hwp is not None:
            angle = angle + hwp
        weights_out[lo:hi, flat, 0] = cal
        weights_out[lo:hi, flat, 1] = cal * eta[lo:hi, None] * np.cos(2.0 * angle)
        weights_out[lo:hi, flat, 2] = cal * eta[lo:hi, None] * np.sin(2.0 * angle)

    det_blocks(len(quats), flat.size, body)

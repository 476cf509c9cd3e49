"""build_noise_weighted, batched CPU implementation.

One flattened scatter-accumulation: flagged and invalid samples are
filtered out (not zero-padded) by a boolean compress of the sample-major
(detector inner) contribution stream -- exactly the order the scalar
reference visits.  Each Stokes column is then scattered with its own 1-D
``np.add.at``, which applies colliding updates in stream order, so
duplicate-pixel accumulation is bitwise identical to the reference, and
windowed streaming over the sample axis reproduces the full-observation
sum for any window size.

The scatter stays on one thread: ``np.add.at`` holds the GIL, and
partitioning it by pixel ownership across threads measured slower than
the serial call.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import flatten_intervals


@kernel("build_noise_weighted", ImplementationType.NUMPY)
def build_noise_weighted(
    zmap,
    pixels,
    weights,
    tod,
    det_scale,
    starts,
    stops,
    shared_flags=None,
    mask=0,
    det_flags=None,
    det_mask=0,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    pix = pixels[:, flat]
    good = pix >= 0
    if shared_flags is not None and mask:
        good &= ((shared_flags[flat] & mask) == 0)[None, :]
    if det_flags is not None and det_mask:
        good &= (det_flags[:, flat] & det_mask) == 0
    if not good.any():
        # Fully flag-masked: no scatter work to build.
        return
    # Transposing before the compress enumerates lanes sample-major
    # (detector inner), the canonical scatter order.
    keep = good.T.ravel()
    pix = pix.T.ravel()[keep]
    z = det_scale[:, None] * tod[:, flat]
    w = np.take(weights, flat, axis=1)
    for k in range(zmap.shape[1]):
        np.add.at(zmap[:, k], pix, (z * w[..., k]).T.ravel()[keep])

"""pixels_healpix, batched CPU implementation.

The branch-heavy kernel the paper singles out (§4.2): here the branches
become one masked write per detector block of the ``(n_det, n_flat)``
working set.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ...healpix import ang2pix
from ...math import qa
from ..common import flatten_intervals
from ...utils.blocking import det_blocks


@kernel("pixels_healpix", ImplementationType.NUMPY)
def pixels_healpix(
    quats,
    pixels_out,
    nside,
    nest,
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
    flagged = None
    if shared_flags is not None and mask:
        flagged = np.flatnonzero(shared_flags[flat] & mask)

    def body(lo, hi):
        theta, phi = qa.to_position(np.take(quats[lo:hi], flat, axis=1))
        pix = ang2pix(nside, theta, phi, nest=nest)
        if flagged is not None:
            pix[:, flagged] = -1
        pixels_out[lo:hi, flat] = pix

    det_blocks(len(quats), flat.size, body)

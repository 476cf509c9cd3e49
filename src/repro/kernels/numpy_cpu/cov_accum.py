"""cov_accum_diag_hits / cov_accum_diag_invnpp, batched CPU.

Both accumulate with filtered 1-D ``np.add.at`` scatters in detector-major,
sample order (the reference order); the invnpp outer-product triangle
keeps the reference's ``(g * w_i) * w_j`` multiplication order and is
scattered one triangle column at a time.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import flatten_intervals


@kernel("cov_accum_diag_hits", ImplementationType.NUMPY)
def cov_accum_diag_hits(
    hits,
    pixels,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    pix = pixels[:, flat]
    good = pix >= 0
    if not good.any():
        return
    np.add.at(hits, pix[good], 1)


@kernel("cov_accum_diag_invnpp", ImplementationType.NUMPY)
def cov_accum_diag_invnpp(
    invnpp,
    pixels,
    weights,
    det_scale,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    nnz = weights.shape[2]
    pix = pixels[:, flat]
    good = pix >= 0
    if not good.any():
        return
    # Boolean compress of the row-major (detector-major) lanes keeps the
    # reference's scatter order.
    keep = good.ravel()
    pix = pix.ravel()[keep]
    w = np.take(weights, flat, axis=1)
    col = 0
    for i in range(nnz):
        gw = det_scale[:, None] * w[..., i]
        for j in range(i, nnz):
            np.add.at(invnpp[:, col], pix, (gw * w[..., j]).ravel()[keep])
            col += 1

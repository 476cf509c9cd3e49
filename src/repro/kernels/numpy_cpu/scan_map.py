"""scan_map, batched CPU implementation.

Row-gathers the map at every (detector, sample) pixel, one detector block
at a time.  The Stokes contraction accumulates component by component in
the reference order, and flagged lanes are excluded with ``where=`` so
untouched samples keep their exact bits.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import flatten_intervals
from .blocks import det_blocks


@kernel("scan_map", ImplementationType.NUMPY)
def scan_map(
    map_data,
    pixels,
    weights,
    tod,
    starts,
    stops,
    data_scale=1.0,
    should_zero=False,
    should_subtract=False,
    accel=None,
    use_accel=False,
):
    flat = flatten_intervals(starts, stops)
    if flat.size == 0:
        return
    nnz = map_data.shape[1]
    pix = pixels[:, flat]
    good = pix >= 0
    if not good.any():
        # Every in-interval sample is invalid: no map gather to do.  The
        # zeroing side effect still applies to in-interval lanes.
        if should_zero:
            tod[:, flat] = 0.0
        return

    def body(lo, hi):
        g = good[lo:hi]
        gathered = np.take(map_data, np.where(g, pix[lo:hi], 0), axis=0)
        w = np.take(weights[lo:hi], flat, axis=1)
        sampled = np.zeros(g.shape, dtype=np.float64)
        for k in range(nnz):
            sampled += gathered[..., k] * w[..., k]
        value = sampled * data_scale

        out = tod[lo:hi, flat]
        if should_zero:
            out[...] = 0.0
        if should_subtract:
            np.subtract(out, value, out=out, where=g)
        else:
            np.add(out, value, out=out, where=g)
        tod[lo:hi, flat] = out

    det_blocks(len(tod), flat.size, body)

"""build_noise_weighted, OpenMP Target Offload implementation.

Each row block computes its detectors' contributions into private rows of
a scratch buffer -- write-disjoint, so block order is free, as it is on
the device.  The map commit after the launch scatters the kept lanes with
unbuffered 1-D ``np.add.at`` calls, one per Stokes column, in
sample-major (detector inner) order, standing in for the device kernel's
atomic adds with the repo-wide canonical accumulation order -- the order
that makes windowed streaming over the sample axis bitwise identical to a
full-observation run.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import flatten_intervals, launcher_for, resolve_view


def row_body(zmap, pixels, weights, tod, det_scale, flat, flagged, det_flags, det_mask):
    """``(body, commit)`` for one observation.

    ``body(lo, hi)`` fills the scratch rows of detectors ``[lo, hi)``;
    ``commit()`` then scatters the whole observation into ``zmap``.
    ``flagged`` (or None) marks the in-interval samples the shared flags
    cut.
    """
    shape = (pixels.shape[0], flat.size)
    nnz = zmap.shape[1]
    pix_buf = np.empty(shape, dtype=np.int64)
    good_buf = np.empty(shape, dtype=bool)
    contrib_buf = np.empty(shape + (nnz,), dtype=zmap.dtype)

    def body(lo, hi):
        pix = pixels[lo:hi, flat]
        good = pix >= 0
        if flagged is not None:
            good &= ~flagged
        if det_flags is not None and det_mask:
            good &= (det_flags[lo:hi, flat] & det_mask) == 0
        pix_buf[lo:hi] = pix
        good_buf[lo:hi] = good
        # In place: this body's temporaries peak the workflow's memory.
        z = tod[lo:hi, flat]
        z *= det_scale[lo:hi, None]
        w = np.take(weights[lo:hi], flat, axis=1)
        np.multiply(z[..., None], w, out=contrib_buf[lo:hi])

    def commit():
        # Transposing before the compress enumerates lanes sample-major
        # (detector inner): intervals are sorted and lanes ascend within each.
        keep = good_buf.T.ravel()
        pix = pix_buf.T.ravel()[keep]
        for k in range(nnz):
            np.add.at(zmap[:, k], pix, contrib_buf[..., k].T.ravel()[keep])

    return body, commit


@kernel("build_noise_weighted", ImplementationType.OMP_TARGET)
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
    n_det = pixels.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_zmap = resolve_view(accel, zmap, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)
    d_scale = resolve_view(accel, det_scale, use_accel)
    d_flags = resolve_view(accel, shared_flags, use_accel) if shared_flags is not None else None
    d_det_flags = resolve_view(accel, det_flags, use_accel) if det_flags is not None else None

    flat = flatten_intervals(starts, stops)
    flagged = (d_flags[flat] & mask) != 0 if d_flags is not None and mask else None
    body, commit = row_body(
        d_zmap, d_pix, d_wts, d_tod, d_scale, flat, flagged, d_det_flags, det_mask
    )
    launcher_for(accel, use_accel)(
        "build_noise_weighted",
        (n_det, n_ivl, max_len),
        body,
        flops_per_iteration=10.0,
        bytes_per_iteration=96.0,
    )
    commit()

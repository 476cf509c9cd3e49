"""cov_accum_diag_hits / cov_accum_diag_invnpp, OpenMP Target Offload.

Row blocks run in ascending detector order and scatter their kept lanes
detector-major, in sample order, so every pixel sees its updates in the
per-(detector, interval) loop's order.
"""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import flatten_intervals, launcher_for, resolve_view


def hits_body(hits, pixels, flat):
    """``body(lo, hi)`` over detector rows of one observation."""

    def body(lo, hi):
        pix = pixels[lo:hi, flat]
        np.add.at(hits, pix[pix >= 0], 1)

    return body


def invnpp_body(invnpp, pixels, weights, det_scale, flat):
    """``body(lo, hi)`` over detector rows of one observation.

    The outer-product triangle keeps the ``(g * w_i) * w_j`` order and is
    scattered one triangle column at a time.
    """
    nnz = weights.shape[-1]

    def body(lo, hi):
        pix = pixels[lo:hi, flat]
        keep = (pix >= 0).ravel()
        pix = pix.ravel()[keep]
        w = np.take(weights[lo:hi], flat, axis=1)
        col = 0
        for i in range(nnz):
            gw = det_scale[lo:hi, None] * w[..., i]
            for j in range(i, nnz):
                np.add.at(invnpp[:, col], pix, (gw * w[..., j]).ravel()[keep])
                col += 1

    return body


@kernel("cov_accum_diag_hits", ImplementationType.OMP_TARGET)
def cov_accum_diag_hits(
    hits,
    pixels,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    n_det = pixels.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_hits = resolve_view(accel, hits, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)

    launcher_for(accel, use_accel)(
        "cov_accum_diag_hits",
        (n_det, n_ivl, max_len),
        hits_body(d_hits, d_pix, flatten_intervals(starts, stops)),
        flops_per_iteration=2.0,
        bytes_per_iteration=24.0,
    )


@kernel("cov_accum_diag_invnpp", ImplementationType.OMP_TARGET)
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
    n_det = pixels.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_inv = resolve_view(accel, invnpp, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_scale = resolve_view(accel, det_scale, use_accel)

    launcher_for(accel, use_accel)(
        "cov_accum_diag_invnpp",
        (n_det, n_ivl, max_len),
        invnpp_body(d_inv, d_pix, d_wts, d_scale, flatten_intervals(starts, stops)),
        flops_per_iteration=18.0,
        bytes_per_iteration=104.0,
    )

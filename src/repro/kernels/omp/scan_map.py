"""scan_map, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import flatten_intervals, launcher_for, resolve_view


def row_body(map_data, pixels, weights, tod, flat, data_scale, should_zero, should_subtract):
    """``body(lo, hi)`` over detector rows of one observation."""

    def body(lo, hi):
        pix = pixels[lo:hi, flat]
        good = pix >= 0
        value = np.einsum(
            "...k,...k->...",
            np.take(map_data, np.where(good, pix, 0), axis=0),
            np.take(weights[lo:hi], flat, axis=1),
        )
        value = np.where(good, value, 0.0) * data_scale
        out = tod[lo:hi, flat]
        if should_zero:
            out[...] = 0.0
        if should_subtract:
            out -= value
        else:
            out += value
        tod[lo:hi, flat] = out

    return body


@kernel("scan_map", ImplementationType.OMP_TARGET)
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
    n_det = pixels.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_map = resolve_view(accel, map_data, use_accel)
    d_pix = resolve_view(accel, pixels, use_accel)
    d_wts = resolve_view(accel, weights, use_accel)
    d_tod = resolve_view(accel, tod, use_accel)

    launcher_for(accel, use_accel)(
        "scan_map",
        (n_det, n_ivl, max_len),
        row_body(
            d_map, d_pix, d_wts, d_tod, flatten_intervals(starts, stops),
            data_scale, should_zero, should_subtract,
        ),
        flops_per_iteration=8.0,
        bytes_per_iteration=72.0,
    )

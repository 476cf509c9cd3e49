"""stokes_weights_I, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import flatten_intervals, launcher_for, resolve_view


def row_body(weights_out, cal, flat):
    """``body(lo, hi)`` over detector rows of one observation."""

    def body(lo, hi):
        weights_out[lo:hi, flat] = cal

    return body


@kernel("stokes_weights_I", ImplementationType.OMP_TARGET)
def stokes_weights_I(
    weights_out,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    n_det = weights_out.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_out = resolve_view(accel, weights_out, use_accel)

    launcher_for(accel, use_accel)(
        "stokes_weights_I",
        (n_det, n_ivl, max_len),
        row_body(d_out, cal, flatten_intervals(starts, stops)),
        flops_per_iteration=1.0,
        bytes_per_iteration=8.0,
    )

"""pointing_detector, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import flatten_intervals, launcher_for, resolve_view


def _qa_mult(p, q):
    """Scalar-style quaternion product ``p * q``, over broadcast lanes."""
    px, py, pz, pw = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qx, qy, qz, qw = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), dtype=np.float64)
    out[..., 0] = pw * qx + px * qw + py * qz - pz * qy
    out[..., 1] = pw * qy - px * qz + py * qw + pz * qx
    out[..., 2] = pw * qz + px * qy - py * qx + pz * qw
    out[..., 3] = pw * qw - px * qx - py * qy - pz * qz
    return out


def row_body(fp_quats, boresight, quats_out, flat, flagged):
    """``body(lo, hi)`` over detector rows of one observation.

    ``flat`` lists the in-interval samples; ``flagged`` (or None) marks
    which of them the shared flags cut.
    """
    bore = boresight[flat]

    def body(lo, hi):
        fp = fp_quats[lo:hi, None]
        rotated = _qa_mult(bore, fp)
        if flagged is not None:
            rotated = np.where(flagged[:, None], fp, rotated)
        quats_out[lo:hi, flat] = rotated

    return body


@kernel("pointing_detector", ImplementationType.OMP_TARGET)
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
    n_det = fp_quats.shape[0]
    n_ivl = len(starts)
    max_len = int(np.max(stops - starts)) if n_ivl else 0
    if max_len == 0:
        return

    d_fp = resolve_view(accel, fp_quats, use_accel)
    d_bore = resolve_view(accel, boresight, use_accel)
    d_out = resolve_view(accel, quats_out, use_accel)
    d_flags = resolve_view(accel, shared_flags, use_accel) if shared_flags is not None else None

    flat = flatten_intervals(starts, stops)  # the interval guard
    flagged = (d_flags[flat] & mask) != 0 if d_flags is not None and mask else None
    launcher_for(accel, use_accel)(
        "pointing_detector",
        (n_det, n_ivl, max_len),
        row_body(d_fp, d_bore, d_out, flat, flagged),
        flops_per_iteration=28.0,
        bytes_per_iteration=72.0,
    )

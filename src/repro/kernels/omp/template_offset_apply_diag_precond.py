"""template_offset_apply_diag_precond, OpenMP Target Offload implementation."""

import numpy as np

from ...core.dispatch import ImplementationType, kernel
from ..common import launcher_for, resolve_view


@kernel("template_offset_apply_diag_precond", ImplementationType.OMP_TARGET)
def template_offset_apply_diag_precond(
    offset_var,
    amp_in,
    amp_out,
    accel=None,
    use_accel=False,
):
    n_amp = amp_in.shape[0]
    if n_amp == 0:
        return

    d_var = resolve_view(accel, offset_var, use_accel)
    d_in = resolve_view(accel, amp_in, use_accel)
    d_out = resolve_view(accel, amp_out, use_accel)

    def body(lo, hi):
        np.multiply(d_in, d_var, out=d_out)

    launcher_for(accel, use_accel)(
        "template_offset_apply_diag_precond",
        (1, 1, n_amp),
        body,
        flops_per_iteration=1.0,
        bytes_per_iteration=24.0,
    )

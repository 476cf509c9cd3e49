"""OpenMP Target Offload kernel implementations (the paper's OMP port).

Each kernel keeps the compiled-CPU loop structure and adds the offload
machinery (paper §3.1.2): the triple (detector, interval, sample) loop is
collapsed and launched over the device through
``target_teams_distribute_parallel_for``, which charges the grid padded to
the precomputed maximum interval size; the guard cutting out-of-interval
work is evaluated once per launch (``flatten_intervals``), and the body
runs over blocks of detector rows, touching only in-interval samples;
data is dereferenced through mapped device pointers.  Each body keeps its
reference's accumulation order, so results do not depend on the blocks.

Without a runtime (``use_accel=False``) the kernels run on the host --
OpenMP's fallback behaviour when no device is available.
"""

from . import (  # noqa: F401  (registration side effects)
    pointing_detector,
    stokes_weights_I,
    stokes_weights_IQU,
    pixels_healpix,
    scan_map,
    noise_weight,
    build_noise_weighted,
    template_offset_add_to_signal,
    template_offset_project_signal,
    template_offset_apply_diag_precond,
    cov_accum,
)
from . import megabatch  # noqa: F401  (stacked registration side effects)

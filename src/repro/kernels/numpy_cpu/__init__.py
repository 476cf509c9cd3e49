"""Vectorized NumPy implementations: the "compiled CPU" baseline.

These stand in for the original OpenMP-parallel C++ kernels.  Every kernel
works on the ``(n_det, n_flat_samples)`` working set produced by
:func:`repro.kernels.common.flatten_intervals`: the sample and interval
loops are vectorized, and results are bitwise identical to the ``python``
oracle.

* **Cache-sized detector blocks.**  ``pointing_detector``,
  ``pixels_healpix``, ``stokes_weights_IQU`` and ``scan_map`` write
  disjoint per-detector rows through full-size temporaries, so
  :func:`~.blocks.det_blocks` runs them over detector blocks that keep
  those temporaries in cache.  Per-sample terms -- flags, the
  ``2 * hwp`` angle, boresight rows -- are computed once, outside the
  blocks.  Each lane's arithmetic is unchanged, so the bytes do not
  depend on how the blocks fall.
* **Ordered 1-D scatters.**  ``build_noise_weighted``, ``cov_accum_*``
  and ``template_offset_project_signal`` accumulate with ``np.add.at``.
  Each builds its contribution stream with a boolean compress in the
  reference order -- sample-major for ``build_noise_weighted``,
  detector-major for the others -- and scatters one 1-D column at a
  time, so every output element sees its updates in exactly the
  oracle's order and windowed streaming stays bitwise.
* **One thread.**  ``np.add.at`` holds the GIL: split across two threads
  by pixel ownership, the three Stokes scatters of one
  ``build_noise_weighted`` call (73k samples, nside 64) took 1.33 ms
  against 0.84 ms serially.  Threading the blocked kernels measured no
  end-to-end gain on a 2-CPU host, so every kernel runs on the calling
  thread.
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

"""Megabatch (observation-stacked) OpenMP Target Offload kernels.

One launcher call covers the whole observation group: the collapse(3)
grid's outer dimension becomes ``n_obs * n_det`` -- the OpenMP way of
stacking a batch axis without changing the loop nest (cf. the paper's
collapse clauses).  Intervals arrive as ``(n_obs, n_ivl)`` padded slabs
whose degenerate ``(0, 0)`` rows contribute no lanes, so observations
with fewer (or zero) intervals cost nothing.

Each observation runs the eager kernel's row body over its own slice of
the stacked arrays and its own in-interval samples; a row block of the
stacked grid that spans several observations hands each one its rows
(:func:`_stacked`).  Blocks run in ascending row order, so scatter
kernels keep the eager accumulation sequence: observation-major with
each observation's canonical order inside (``build_noise_weighted``
commits observation by observation after the launch, sample-major,
detector-inner), and stacking is bitwise identical to running the group
members one at a time.
"""

import numpy as np

from ...core.dispatch import ImplementationType, megabatch_kernel
from ..common import flatten_intervals, launcher_for, resolve_view
from . import (
    build_noise_weighted as _bnw,
    cov_accum as _cov,
    noise_weight as _nw,
    pixels_healpix as _pix,
    pointing_detector as _pd,
    scan_map as _scan,
    stokes_weights_I as _swi,
    stokes_weights_IQU as _swiqu,
)

OMP = ImplementationType.OMP_TARGET


def _grid(starts, stops, n_det):
    """(n_obs*n_det, n_ivl, max_len) launch grid over the stacked slabs."""
    starts = np.asarray(starts)
    n_obs, n_ivl = starts.shape
    max_len = int(np.max(stops - starts)) if starts.size else 0
    max_len = max(max_len, 0)
    return n_obs, (n_obs * n_det, n_ivl, max_len)


def _flats(starts, stops, n_obs):
    """Each observation's in-interval samples (the interval guard)."""
    return [flatten_intervals(starts[o], stops[o]) for o in range(n_obs)]


def _flagged(shared_flags, mask, flats):
    """Per-observation masks of the samples in ``flats`` the shared flags cut.

    None per observation when the flags are unused.
    """
    if shared_flags is None or not mask:
        return [None] * len(flats)
    return [(shared_flags[o, flat] & mask) != 0 for o, flat in enumerate(flats)]


def _stacked(bodies, n_det):
    """``body(lo, hi)`` over stacked ``(obs, det)`` rows.

    Rows ``[lo, hi)`` may span several observations; each gets its own
    detector rows, in ascending order.
    """

    def body(lo, hi):
        for iobs in range(lo // n_det, (hi - 1) // n_det + 1):
            base = iobs * n_det
            bodies[iobs](max(lo - base, 0), min(hi - base, n_det))

    return body


@megabatch_kernel("pointing_detector", OMP)
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
    n_det = fp_quats.shape[1]
    n_obs, grid = _grid(starts, stops, n_det)
    if grid[2] == 0:
        return
    flats = _flats(starts, stops, n_obs)
    flagged = _flagged(shared_flags, mask, flats)
    bodies = [
        _pd.row_body(fp_quats[o], boresight[o], quats_out[o], flats[o], flagged[o])
        for o in range(n_obs)
    ]
    launcher_for(accel, use_accel)(
        "pointing_detector.megabatch",
        grid,
        _stacked(bodies, n_det),
        flops_per_iteration=28.0,
        bytes_per_iteration=72.0,
    )


@megabatch_kernel("stokes_weights_I", OMP)
def stokes_weights_I(
    weights_out,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    n_det = weights_out.shape[1]
    n_obs, grid = _grid(starts, stops, n_det)
    if grid[2] == 0:
        return
    flats = _flats(starts, stops, n_obs)
    bodies = [_swi.row_body(weights_out[o], cal, flats[o]) for o in range(n_obs)]
    launcher_for(accel, use_accel)(
        "stokes_weights_I.megabatch",
        grid,
        _stacked(bodies, n_det),
        flops_per_iteration=1.0,
        bytes_per_iteration=8.0,
    )


@megabatch_kernel("stokes_weights_IQU", OMP)
def stokes_weights_IQU(
    quats,
    weights_out,
    hwp_angle,
    epsilon,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    n_det = quats.shape[1]
    n_obs, grid = _grid(starts, stops, n_det)
    if grid[2] == 0:
        return
    flats = _flats(starts, stops, n_obs)
    bodies = [
        _swiqu.row_body(
            quats[o],
            weights_out[o],
            None if hwp_angle is None else hwp_angle[o],
            epsilon[o],
            cal,
            flats[o],
        )
        for o in range(n_obs)
    ]
    launcher_for(accel, use_accel)(
        "stokes_weights_IQU.megabatch",
        grid,
        _stacked(bodies, n_det),
        flops_per_iteration=60.0,
        bytes_per_iteration=64.0,
    )


@megabatch_kernel("pixels_healpix", OMP)
def pixels_healpix(
    quats,
    pixels_out,
    nside,
    nest,
    starts,
    stops,
    shared_flags=None,
    mask=0,
    accel=None,
    use_accel=False,
):
    n_det = quats.shape[1]
    n_obs, grid = _grid(starts, stops, n_det)
    if grid[2] == 0:
        return
    flats = _flats(starts, stops, n_obs)
    flagged = _flagged(shared_flags, mask, flats)
    bodies = [
        _pix.row_body(quats[o], pixels_out[o], nside, nest, flats[o], flagged[o])
        for o in range(n_obs)
    ]
    launcher_for(accel, use_accel)(
        "pixels_healpix.megabatch",
        grid,
        _stacked(bodies, n_det),
        flops_per_iteration=80.0,
        bytes_per_iteration=48.0,
    )


@megabatch_kernel("scan_map", OMP)
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
    n_det = pixels.shape[1]
    n_obs, grid = _grid(starts, stops, n_det)
    if grid[2] == 0:
        return
    d_map = resolve_view(accel, map_data, use_accel)
    flats = _flats(starts, stops, n_obs)
    bodies = [
        _scan.row_body(
            d_map, pixels[o], weights[o], tod[o], flats[o],
            data_scale, should_zero, should_subtract,
        )
        for o in range(n_obs)
    ]
    launcher_for(accel, use_accel)(
        "scan_map.megabatch",
        grid,
        _stacked(bodies, n_det),
        flops_per_iteration=8.0,
        bytes_per_iteration=72.0,
    )


@megabatch_kernel("noise_weight", OMP)
def noise_weight(
    tod,
    det_weights,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    n_det = tod.shape[1]
    n_obs, grid = _grid(starts, stops, n_det)
    if grid[2] == 0:
        return
    flats = _flats(starts, stops, n_obs)
    bodies = [_nw.row_body(tod[o], det_weights[o], flats[o]) for o in range(n_obs)]
    launcher_for(accel, use_accel)(
        "noise_weight.megabatch",
        grid,
        _stacked(bodies, n_det),
        flops_per_iteration=1.0,
        bytes_per_iteration=16.0,
    )


@megabatch_kernel("build_noise_weighted", OMP)
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
    n_det = pixels.shape[1]
    n_obs, grid = _grid(starts, stops, n_det)
    if grid[2] == 0:
        return
    d_zmap = resolve_view(accel, zmap, use_accel)
    flats = _flats(starts, stops, n_obs)
    flagged = _flagged(shared_flags, mask, flats)
    pairs = [
        _bnw.row_body(
            d_zmap, pixels[o], weights[o], tod[o], det_scale[o], flats[o],
            flagged[o], None if det_flags is None else det_flags[o], det_mask,
        )
        for o in range(n_obs)
    ]
    launcher_for(accel, use_accel)(
        "build_noise_weighted.megabatch",
        grid,
        _stacked([body for body, _ in pairs], n_det),
        flops_per_iteration=10.0,
        bytes_per_iteration=96.0,
    )
    # Ordered commit: observation-major, then each observation's
    # canonical sample-major detector-inner sequence.
    for _, commit in pairs:
        commit()


@megabatch_kernel("cov_accum_diag_hits", OMP)
def cov_accum_diag_hits(
    hits,
    pixels,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    n_det = pixels.shape[1]
    n_obs, grid = _grid(starts, stops, n_det)
    if grid[2] == 0:
        return
    d_hits = resolve_view(accel, hits, use_accel)
    flats = _flats(starts, stops, n_obs)
    bodies = [_cov.hits_body(d_hits, pixels[o], flats[o]) for o in range(n_obs)]
    launcher_for(accel, use_accel)(
        "cov_accum_diag_hits.megabatch",
        grid,
        _stacked(bodies, n_det),
        flops_per_iteration=2.0,
        bytes_per_iteration=24.0,
    )


@megabatch_kernel("cov_accum_diag_invnpp", OMP)
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
    n_det = pixels.shape[1]
    n_obs, grid = _grid(starts, stops, n_det)
    if grid[2] == 0:
        return
    d_inv = resolve_view(accel, invnpp, use_accel)
    flats = _flats(starts, stops, n_obs)
    bodies = [
        _cov.invnpp_body(d_inv, pixels[o], weights[o], det_scale[o], flats[o])
        for o in range(n_obs)
    ]
    launcher_for(accel, use_accel)(
        "cov_accum_diag_invnpp.megabatch",
        grid,
        _stacked(bodies, n_det),
        flops_per_iteration=18.0,
        bytes_per_iteration=104.0,
    )

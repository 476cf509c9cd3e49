"""Shared helpers for the kernel implementations."""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..utils.blocking import det_blocks

__all__ = [
    "check_intervals",
    "pad_intervals",
    "pad_intervals_grouped",
    "pad_intervals_stacked",
    "flatten_intervals",
    "resolve_view",
    "host_parallel_for_collapse3",
    "launcher_for",
]


def check_intervals(starts: np.ndarray, stops: np.ndarray, n_samples: int) -> None:
    """Validate interval arrays against the sample count."""
    starts = np.asarray(starts)
    stops = np.asarray(stops)
    if starts.shape != stops.shape or starts.ndim != 1:
        raise ValueError("interval starts/stops must be matching 1-D arrays")
    if len(starts) and (
        np.any(starts < 0) or np.any(stops < starts) or np.any(stops > n_samples)
    ):
        raise ValueError("intervals out of range")


def pad_intervals(
    starts: np.ndarray,
    stops: np.ndarray,
    max_len: Optional[int] = None,
    n_intervals: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pad variable-length intervals to the maximum length (paper §3.1.3).

    Returns ``(sample_index, valid_mask, max_length)`` where
    ``sample_index`` has shape (n_intervals, max_length).  Out-of-interval
    lanes are *clamped to the last valid sample* of their interval, so
    non-accumulating kernels can let the padding lanes do "dummy work"
    (recomputing the last sample's value) exactly as the paper describes;
    accumulating kernels must zero their contribution using ``valid_mask``.

    ``max_len`` / ``n_intervals`` pad the slab out to a caller-imposed
    shape (megabatch stacking pads every group member to a common
    ``(n_intervals, max_len)``).  Padding rows and lanes are all-masked
    and index sample 0, which is always in range; an observation with an
    *empty* interval list therefore contributes an all-masked slab rather
    than a (0, 0)-shaped error.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    n_ivl = len(starts) if n_intervals is None else int(n_intervals)
    if n_ivl < len(starts):
        raise ValueError("n_intervals smaller than the interval list")
    if len(starts) == 0:
        forced = 0 if max_len is None else int(max_len)
        return (
            np.zeros((n_ivl, forced), dtype=np.int64),
            np.zeros((n_ivl, forced), dtype=bool),
            forced,
        )
    # Degenerate (empty or inverted) intervals contribute no valid lanes,
    # mirroring the scalar reference's empty range().
    lengths = np.maximum(stops - starts, 0)
    out_len = int(lengths.max()) if max_len is None else int(max_len)
    if out_len < int(lengths.max()):
        raise ValueError("max_len smaller than the longest interval")
    lanes = np.arange(out_len, dtype=np.int64)
    raw = starts[:, None] + lanes[None, :]
    valid = lanes[None, :] < lengths[:, None]
    clamped = np.minimum(raw, np.maximum(stops[:, None] - 1, starts[:, None]))
    # Clamp degenerate rows (start == stop at the sample-count boundary)
    # into range: every lane there is masked anyway.
    np.clip(clamped, 0, None, out=clamped)
    if n_ivl > len(starts):
        pad_rows = n_ivl - len(starts)
        clamped = np.concatenate(
            (clamped, np.zeros((pad_rows, out_len), dtype=np.int64)), axis=0
        )
        valid = np.concatenate(
            (valid, np.zeros((pad_rows, out_len), dtype=bool)), axis=0
        )
    return clamped, valid, out_len


def pad_intervals_grouped(
    starts: np.ndarray, stops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pad already-stacked ``(n_obs, n_ivl)`` interval slabs.

    The megabatch collector hands kernels their group's starts/stops as
    rectangular slabs with degenerate ``(0, 0)`` padding rows; this is
    the stacked analogue of :func:`pad_intervals`, returning
    ``(sample_index, valid_mask, max_length)`` with a leading ``n_obs``
    axis and one group-wide ``max_length``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if starts.ndim != 2 or starts.shape != stops.shape:
        raise ValueError("grouped starts/stops must be matching 2-D slabs")
    n_obs, n_ivl = starts.shape
    idx, valid, max_len = pad_intervals(starts.reshape(-1), stops.reshape(-1))
    return (
        idx.reshape(n_obs, n_ivl, max_len),
        valid.reshape(n_obs, n_ivl, max_len),
        max_len,
    )


def pad_intervals_stacked(
    starts_list, stops_list
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pad a *group* of per-observation interval lists to one common slab.

    Returns ``(sample_index, valid_mask, max_length)`` with shape
    ``(n_obs, n_intervals_max, max_length)``.  Every member is padded to
    the group-wide interval count and interval length; observations with
    fewer (or zero) intervals contribute all-masked rows, so a megabatch
    launch can iterate one rectangular grid and mask rather than branch.
    """
    if len(starts_list) != len(stops_list):
        raise ValueError("starts/stops group lists must have equal length")
    if len(starts_list) == 0:
        return (
            np.zeros((0, 0, 0), dtype=np.int64),
            np.zeros((0, 0, 0), dtype=bool),
            0,
        )
    starts_list = [np.asarray(s, dtype=np.int64) for s in starts_list]
    stops_list = [np.asarray(s, dtype=np.int64) for s in stops_list]
    n_ivl = max(len(s) for s in starts_list)
    max_len = 0
    for starts, stops in zip(starts_list, stops_list):
        if len(starts):
            max_len = max(max_len, int(np.maximum(stops - starts, 0).max()))
    idx_rows = []
    valid_rows = []
    for starts, stops in zip(starts_list, stops_list):
        idx, valid, _ = pad_intervals(
            starts, stops, max_len=max_len, n_intervals=n_ivl
        )
        idx_rows.append(idx)
        valid_rows.append(valid)
    return np.stack(idx_rows, axis=0), np.stack(valid_rows, axis=0), max_len


def flatten_intervals(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated sample indices of every interval, in interval order.

    The batched CPU kernels use this to collapse the per-detector and
    per-interval Python loops into a single NumPy pass: gathering a
    ``(n_det, n_samples)`` array at ``[:, flatten_intervals(...)]`` yields
    the ``(n_det, n_flat)`` working set covering exactly the in-interval
    samples, with lanes ascending in sample order.  Each scatter kernel
    then enumerates this working set in the same order as its scalar
    reference, so ordered scatter-accumulations (``np.add.at``) stay
    bitwise identical to it -- most references are detector-major, while
    ``build_noise_weighted`` is sample-major (detector inner) so windowed
    streaming over the sample axis reproduces the full-run accumulation.

    The construction itself is vectorized (no Python loop over intervals);
    zero-length intervals contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if len(starts) == 0:
        return np.zeros(0, dtype=np.int64)
    # Empty (start == stop) and inverted (stop < start) intervals both
    # flatten to nothing, exactly like the reference's ``range(start, stop)``.
    lengths = np.maximum(stops - starts, 0)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    # Lane j of the flat index lives in interval k at in-interval offset
    # j - cum[k]; its sample index is starts[k] + (j - cum[k]).
    cum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1]))
    return np.repeat(starts - cum, lengths) + np.arange(total, dtype=np.int64)


def resolve_view(accel, arr: np.ndarray, use_accel: bool) -> np.ndarray:
    """The array a kernel should operate on.

    With acceleration, mapped host arrays resolve to their device views
    (dereferencing the device pointer); otherwise the host array is used
    directly (OpenMP's host-fallback behaviour).
    """
    if use_accel and accel is not None and accel.is_present(arr):
        return accel.device_view(arr)
    return arr


def host_parallel_for_collapse3(
    name: str,
    grid: Tuple[int, int, int],
    body: Callable[[int, int], None],
    flops_per_iteration: float = 10.0,
    bytes_per_iteration: float = 24.0,
) -> None:
    """Host fallback of the collapse(3) launcher (no device, no charge).

    Runs ``body(lo, hi)`` over cache-sized blocks of outer rows, exactly
    as the device launcher does; an empty grid runs nothing.
    """
    n_outer, n_middle, n_inner = (int(g) for g in grid)
    if n_outer > 0 and n_middle > 0 and n_inner > 0:
        det_blocks(n_outer, n_middle * n_inner, body)


def launcher_for(accel, use_accel: bool) -> Callable:
    """Pick the device or host collapse(3) launcher."""
    if use_accel and accel is not None:
        return accel.target_teams_distribute_parallel_for
    return host_parallel_for_collapse3

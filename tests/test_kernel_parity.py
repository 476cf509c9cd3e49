"""Bitwise parity: batched ``numpy`` kernels vs the ``python`` oracle.

The numpy backend rewrites every per-detector/per-interval Python loop as
one batched pass over flattened interval samples.  The contract is not
"numerically close" -- it is **bit-identical**: same operation order on the
same lanes, so ``tobytes()`` matches.  The suite sweeps detector counts
(including 1 and a prime), interval shapes (irregular, one full span, and
no spans at all), and flag masks on/off.
"""

import numpy as np
import pytest

from repro.core.dispatch import ImplementationType
from repro.kernels import kernel_registry
from repro.utils import blocking
from repro.workflows.microbench import kernel_cases, make_intervals, run_kernel_case

# Registry-driven, not hand-enumerated: every registered kernel whose spec
# opts into parity is swept.  Computed at collection time, before any test
# can register synthetic kernels.
KERNELS = [
    name for name in kernel_registry.kernels() if kernel_registry.spec(name).parity
]

DET_COUNTS = [1, 3, 17]
INTERVAL_KINDS = ["irregular", "full", "empty"]


def _assert_bitwise(name, py_outs, np_outs):
    assert len(py_outs) == len(np_outs)
    for a, b in zip(py_outs, np_outs):
        assert a.shape == b.shape, f"{name}: shape {a.shape} != {b.shape}"
        assert a.dtype == b.dtype, f"{name}: dtype {a.dtype} != {b.dtype}"
        if not np.array_equal(a, b):
            bad = np.flatnonzero(a.ravel() != b.ravel())
            raise AssertionError(
                f"{name}: {bad.size} of {a.size} elements differ "
                f"(first at flat index {bad[0]})"
            )
        # array_equal treats -0.0 == 0.0; the real contract is the bytes.
        assert a.tobytes() == b.tobytes(), f"{name}: bit pattern differs"


@pytest.mark.parametrize("intervals", INTERVAL_KINDS)
@pytest.mark.parametrize("n_det", DET_COUNTS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_numpy_matches_python_bitwise(kernel, n_det, intervals):
    factory = kernel_cases(n_det=n_det, n_samp=120, intervals=intervals)[kernel]
    py = run_kernel_case(kernel, ImplementationType.PYTHON, factory)
    npy = run_kernel_case(kernel, ImplementationType.NUMPY, factory)
    _assert_bitwise(kernel, py, npy)


@pytest.mark.parametrize("kernel", KERNELS)
def test_numpy_matches_python_without_flags(kernel):
    factory = kernel_cases(n_det=3, n_samp=96, with_flags=False)[kernel]
    py = run_kernel_case(kernel, ImplementationType.PYTHON, factory)
    npy = run_kernel_case(kernel, ImplementationType.NUMPY, factory)
    _assert_bitwise(kernel, py, npy)


@pytest.mark.parametrize("with_flags", [True, False])
@pytest.mark.parametrize("intervals", INTERVAL_KINDS)
@pytest.mark.parametrize("n_det", DET_COUNTS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_numpy_bitwise_at_every_block_size(
    kernel, n_det, intervals, with_flags, monkeypatch
):
    """Cache blocking never changes a bit, even when the last block is short.

    The default blocks hold more lanes than any case here, so the sweep
    shrinks them to one detector, to about two and three (uneven against
    17 detectors), and keeps the default single block.
    """
    factory = kernel_cases(
        n_det=n_det, n_samp=120, intervals=intervals, with_flags=with_flags
    )[kernel]
    py = run_kernel_case(kernel, ImplementationType.PYTHON, factory)
    whole = run_kernel_case(kernel, ImplementationType.NUMPY, factory)
    _assert_bitwise(kernel, py, whole)
    for lanes in (1, 240, 360):
        monkeypatch.setattr(blocking, "BLOCK_LANES", lanes)
        split = run_kernel_case(kernel, ImplementationType.NUMPY, factory)
        _assert_bitwise(kernel, whole, split)
        _assert_bitwise(kernel, py, split)


@pytest.mark.parametrize("with_flags", [True, False])
@pytest.mark.parametrize("intervals", INTERVAL_KINDS)
@pytest.mark.parametrize("n_det", DET_COUNTS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_jax_bitwise_at_every_block_size(
    kernel, n_det, intervals, with_flags, monkeypatch
):
    """jaxshim's row tiles never change a bit, even when the last tile is short.

    The default tiles hold every row of these cases, so each fusion group
    runs as one tile.  The sweep shrinks the tiles to one row and to a
    few rows (2 to 12 by group width, uneven against 17 detectors), and
    grows them past any group.
    """
    factory = kernel_cases(
        n_det=n_det, n_samp=120, intervals=intervals, with_flags=with_flags
    )[kernel]
    whole = run_kernel_case(kernel, ImplementationType.JAX, factory)
    for lanes in (1, 240, 360, 960, 1440, 1 << 40):
        monkeypatch.setattr(blocking, "BLOCK_LANES", lanes)
        tiled = run_kernel_case(kernel, ImplementationType.JAX, factory)
        _assert_bitwise(kernel, whole, tiled)


def test_empty_intervals_leave_outputs_untouched():
    """With no intervals every in-place kernel must be a strict no-op."""
    cases = kernel_cases(n_det=2, n_samp=64, intervals="empty")
    for name, factory in cases.items():
        if name == "template_offset_apply_diag_precond":
            continue  # operates on amplitudes, not on interval samples
        args, outputs = factory()
        before = {k: np.copy(args[k]) for k in outputs}
        out_arrays = run_kernel_case(name, ImplementationType.NUMPY, factory)
        for key, arr in zip(outputs, out_arrays):
            assert arr.tobytes() == before[key].tobytes(), (
                f"{name}: wrote to {key} despite empty interval list"
            )


def test_flatten_intervals_orders_samples():
    from repro.kernels.common import flatten_intervals

    starts = np.array([0, 10, 20], dtype=np.int64)
    stops = np.array([3, 12, 21], dtype=np.int64)
    flat = flatten_intervals(starts, stops)
    assert flat.tolist() == [0, 1, 2, 10, 11, 20]
    e = np.zeros(0, dtype=np.int64)
    assert flatten_intervals(e, e).size == 0


def test_flatten_intervals_degenerate_spans():
    """Zero-length and inverted spans flatten to nothing, like range()."""
    from repro.kernels.common import flatten_intervals, pad_intervals

    starts = np.array([5, 10, 30, 40], dtype=np.int64)
    stops = np.array([5, 13, 25, 40], dtype=np.int64)  # empty, ok, inverted, empty
    assert flatten_intervals(starts, stops).tolist() == [10, 11, 12]
    # All-degenerate lists produce an empty flat index, not an error.
    assert flatten_intervals(starts, starts).size == 0
    idx, valid, max_len = pad_intervals(starts, starts)
    assert not valid.any() and max_len == 0


@pytest.mark.parametrize(
    "kernel", ["build_noise_weighted", "cov_accum_diag_hits", "cov_accum_diag_invnpp", "scan_map"]
)
def test_fully_masked_observation_is_parity_noop(kernel):
    """Every sample flagged/invalid: no scatter work, outputs match oracle.

    Regression for the batched kernels allocating full contribution
    arrays (and issuing zero-length scatters) when an observation is
    fully flag-masked.
    """
    factory = kernel_cases(n_det=3, n_samp=64)[kernel]

    def masked_factory():
        args, outputs = factory()
        if "shared_flags" in args and args["shared_flags"] is not None:
            args["shared_flags"][:] = 0xFF
            args["mask"] = 0xFF
        # Invalidate every pixel as well: covers kernels without flags.
        if "pixels" in args:
            args["pixels"][:] = -1
        return args, outputs

    py = run_kernel_case(kernel, ImplementationType.PYTHON, masked_factory)
    npy = run_kernel_case(kernel, ImplementationType.NUMPY, masked_factory)
    _assert_bitwise(kernel, py, npy)
    # Accumulating outputs stay exactly zero.
    args, outputs = masked_factory()
    for key, arr in zip(outputs, run_kernel_case(kernel, ImplementationType.NUMPY, masked_factory)):
        if key in ("zmap", "hits", "invnpp"):
            assert not arr.any(), f"{kernel}: accumulated into {key} despite full mask"


def test_make_intervals_kinds():
    starts, stops = make_intervals(128, "full")
    assert starts.tolist() == [0] and stops.tolist() == [128]
    starts, stops = make_intervals(128, "irregular")
    assert np.all(stops > starts) and np.all(stops <= 128)
    starts, stops = make_intervals(128, "empty")
    assert starts.size == 0 and stops.size == 0

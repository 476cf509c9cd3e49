"""Workloads of the benchmark and what one iteration of each does.

One iteration is what a user of the paper's workflow pays for one map:
simulate the data, run the GPU-portable chain
(``satellite_processing_pipeline``: pointing, pixels, Stokes weights, scan
map, noise weight, noise-weighted map), then run the destriping
``MapMaker``.  Every iteration gets a fresh ``OmpTargetRuntime`` (so the
virtual clock is per iteration); only process-wide caches such as the
jaxshim JIT cache carry over from one iteration to the next.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.accel import SimulatedDevice
from repro.compilepipe import transfer_seconds
from repro.core import ImplementationType
from repro.core.dispatch import use_implementation
from repro.healpix import npix as healpix_npix
from repro.jaxshim.api import JitFunction
from repro.ompshim import OmpTargetRuntime
from repro.ops import MapMaker
from repro.workflows.satellite import (
    SizeSpec,
    make_satellite_data,
    satellite_processing_pipeline,
)

#: The repository's cross-backend tolerance, relative to the map's largest
#: magnitude.
REL_TOL = 1e-12

MAP_KEYS = ("zmap", "destriped_map")


@dataclass(frozen=True)
class Workload:
    name: str
    size: SizeSpec
    smoke_size: SizeSpec
    impl: ImplementationType
    device: bool
    plan: str
    #: Backend of the set-up reference run (host, eager): never ``impl``,
    #: so the correctness check is not circular.
    ref_impl: ImplementationType


# Why each workload is measured is recorded in BENCHMARK.json.
# medium_scaled's geometry (4 observations x 38 detectors, nside 64) at an
# eighth of its samples per observation, so that one run holds enough
# iterations for a median and a tail.
_MEDIUM_EIGHTH = SizeSpec("medium_scaled_eighth", 4, 19, 2048, 64)
_TINY = SizeSpec("tiny", 2, 2, 1024, 16)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "host_numpy",
            _MEDIUM_EIGHTH,
            _TINY,
            ImplementationType.NUMPY,
            device=False,
            plan="eager",
            ref_impl=ImplementationType.OMP_TARGET,
        ),
        Workload(
            "jax_compiled_device",
            _MEDIUM_EIGHTH,
            _TINY,
            ImplementationType.JAX,
            device=True,
            plan="compiled",
            ref_impl=ImplementationType.NUMPY,
        ),
        Workload(
            "omp_hybrid_many_obs",
            SizeSpec("many_short_obs", 64, 2, 512, 32),
            SizeSpec("many_short_obs_smoke", 8, 2, 256, 16),
            ImplementationType.OMP_TARGET,
            device=True,
            plan="eager",
            ref_impl=ImplementationType.NUMPY,
        ),
    )
}


def run_iteration(
    size: SizeSpec,
    realization: int,
    impl: ImplementationType,
    device: bool,
    plan: str,
) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
    """One map, scan to destriped map; returns the maps and exact counts."""
    runtime = OmpTargetRuntime(SimulatedDevice()) if device else None
    data = make_satellite_data(size, realization=realization)
    pipe = satellite_processing_pipeline(
        size.nside, implementation=impl, accel=runtime, plan=plan
    )
    pipe.apply(data)
    mapper = MapMaker(
        n_pix=healpix_npix(size.nside),
        nnz=3,
        step_length=max(64, size.n_samples // 64),
        max_iterations=10,
    )
    with use_implementation(impl):
        mapper.apply(data)
    counts: Dict[str, float] = {"mapmaker.iterations": mapper.n_iterations_run}
    if runtime is not None:
        dev = runtime.device
        counts.update(
            {
                "virtual_s": dev.clock.now,
                "accel.launches": dev.kernels_launched,
                "accel.pool_high_water_bytes": dev.pool.high_water_bytes,
                "accel.transfer_exposed_vs": transfer_seconds(dev.clock),
            }
        )
    return {k: data[k] for k in MAP_KEYS}, counts


def reference_maps(w: Workload, size: SizeSpec, realization: int) -> Dict[str, np.ndarray]:
    """The same realization through another kernel backend, on the host."""
    maps, _ = run_iteration(size, realization, w.ref_impl, device=False, plan="eager")
    return maps


def clear_jit_caches() -> None:
    """Empty every jaxshim JIT cache, so the next call traces again."""
    for obj in gc.get_objects():
        if isinstance(obj, JitFunction):
            obj._cache.clear()


def _relative_error(a: np.ndarray, ref: np.ndarray) -> float:
    if a.shape != ref.shape:
        return np.inf
    nan_a, nan_r = np.isnan(a), np.isnan(ref)
    if not np.array_equal(nan_a, nan_r):
        return np.inf
    a, ref = a[~nan_a], ref[~nan_r]
    if a.size == 0:
        return 0.0
    scale = float(np.max(np.abs(ref))) or 1.0
    return float(np.max(np.abs(a - ref))) / scale


def check_maps(
    maps: Dict[str, np.ndarray],
    reference: Dict[str, np.ndarray],
    anchor: Optional[Dict[str, np.ndarray]],
    ref_name: str,
) -> List[str]:
    """Problems with one iteration's maps; empty when they are correct.

    Each map must match the other backend's ``reference`` to ``REL_TOL``
    and, when given, the run's first output ``anchor`` bit for bit.
    """
    problems = []
    for key in MAP_KEYS:
        a = np.asarray(maps[key])
        err = _relative_error(a, reference[key])
        if not err <= REL_TOL:
            problems.append(
                f"{key}: relative error {err:.3g} against the {ref_name} "
                f"reference exceeds {REL_TOL:g}"
            )
        if anchor is not None:
            b = anchor[key]
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                problems.append(f"{key}: not bitwise equal to the run's first map")
    return problems

"""The benchmark's metric catalogue: every name with its unit and clock.

Each metric carries exactly one clock, and the clock follows from the
unit, so a unit alone (as recorded in ``BENCHMARK.json``) names it:

* ``wall``     -- measured on the host while the program runs (seconds,
  throughput, resident memory); the end-to-end times are scaled to the
  reference host speed (``calibration.py``);
* ``virtual``  -- seconds on the simulated A100's ``accel.VirtualClock``,
  a model output, deterministic for a given size;
* ``count``    -- an exact count of events (calls, copies, bytes copied);
* ``computed`` -- derived from declarations rather than observed (bytes a
  kernel call moves according to its ``KernelSpec``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

CLOCK_OF_UNIT: Dict[str, str] = {
    "s": "wall",
    "1/s": "wall",
    "MB": "wall",
    "s_virtual": "virtual",
    "count": "count",
    "B": "count",
    "B_computed": "computed",
}

#: End-to-end metrics, measured with tracing off (``--trace 0``).  Their
#: wall times are scaled to the reference host speed (``calibration.py``).
END_TO_END: List[Tuple[str, str]] = [
    ("wall_s.p50", "s"),
    ("wall_s.tail", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

#: The twelve registered kernels, named as the dispatch registry names them.
KERNELS: Tuple[str, ...] = (
    "build_noise_weighted",
    "cov_accum_diag_hits",
    "cov_accum_diag_invnpp",
    "noise_weight",
    "pixels_healpix",
    "pointing_detector",
    "scan_map",
    "stokes_weights_I",
    "stokes_weights_IQU",
    "template_offset_add_to_signal",
    "template_offset_apply_diag_precond",
    "template_offset_project_signal",
)

#: Per-layer metrics of the traced run (``--trace 1``), per iteration.
PER_LAYER: List[Tuple[str, str]] = (
    [
        ("sim.busy_s", "s"),
        ("pipeline.busy_s", "s"),
        ("pipeline.self_s", "s"),
        ("dispatch.calls", "count"),
        ("dispatch.self_s", "s"),
    ]
    + [
        (f"kernels.{k}.{suffix}", unit)
        for k in KERNELS
        for suffix, unit in (("busy_s", "s"), ("calls", "count"), ("bytes_computed", "B_computed"))
    ]
    + [
        ("jaxshim.exec_s", "s"),
        ("jaxshim.exec_calls", "count"),
        ("jaxshim.trace_s", "s"),
        ("jaxshim.cache_hits", "count"),
        ("jaxshim.cache_misses", "count"),
        ("compilepipe.plan_s", "s"),
        ("compilepipe.transfers_elided", "count"),
        ("compilepipe.launches_elided", "count"),
        ("compilepipe.fused_groups", "count"),
        ("ompshim.regions", "count"),
        ("ompshim.region_s", "s"),
        ("accel.h2d_copies", "count"),
        ("accel.d2h_copies", "count"),
        ("accel.h2d_bytes", "B"),
        ("accel.d2h_bytes", "B"),
        ("accel.launches", "count"),
        ("accel.alloc_calls", "count"),
        ("accel.pool_high_water_bytes", "B"),
        ("accel.transfer_exposed_vs", "s_virtual"),
        ("accel.host_s", "s"),
        ("mapmaker.busy_s", "s"),
        ("mapmaker.iterations", "count"),
        ("virtual_s", "s_virtual"),
        ("tracing.overhead_s", "s"),
    ]
)

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)


def clock_of(name: str) -> str:
    return CLOCK_OF_UNIT[UNITS[name]]


def is_exact(name: str) -> bool:
    """Metrics that must repeat exactly for the same code, size and seed."""
    return clock_of(name) in ("virtual", "count", "computed")

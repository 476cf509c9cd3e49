"""ompshim -- a miniature OpenMP Target Offload runtime.

The paper's second porting route keeps the C++ kernels and annotates them
with ``#pragma omp target teams distribute parallel for collapse(3)``,
managing device memory manually through ``omp_target_alloc`` and a
hand-written pool.  This package reproduces that programming model over the
simulated device:

* :class:`~repro.ompshim.runtime.OmpTargetRuntime` -- ``omp_target_alloc``/
  ``omp_target_free``/``omp_target_memcpy`` over the device memory pool;
* :mod:`~repro.ompshim.datamap` -- the present table and ``map(to/from/
  tofrom/alloc)`` clause semantics with OpenMP reference counting;
* ``OmpTargetRuntime.target_teams_distribute_parallel_for`` -- the
  collapsed triple-loop launcher.  The device is charged for the whole
  padded (detector, interval, sample) grid, as a GPU runs it; the host
  runs it as ``body(lo, hi)`` passes over cache-sized blocks of detector
  rows, each covering every in-interval sample of its rows (the paper's
  guard for variable-length intervals, evaluated once per launch).

Kernels written against this API mutate device views in place (the OpenMP
style), in contrast to jaxshim's pure-functional model -- the exact
contrast the paper studies.
"""

from .errors import OmpError, NotPresentError, MappingError
from .runtime import OmpTargetRuntime
from .datamap import MapClause

__all__ = [
    "OmpError",
    "NotPresentError",
    "MappingError",
    "OmpTargetRuntime",
    "MapClause",
]

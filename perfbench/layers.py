"""Per-layer spans for the traced run, recorded from the benchmark's side.

``LayerRecorder.installed()`` wraps the public entry points of each layer
(the simulation operators, ``Pipeline.exec``, ``BoundKernel.__call__``,
the kernel bodies the dispatch registry resolves, jaxshim's JIT and
executable calls, the pipeline compiler's planning, ompshim target
regions, the simulated device's memory/copy/launch API, and
``MapMaker.exec``) and restores them on exit.  No program code changes.

Spans nest.  A layer's busy time is the wall time of its outermost spans;
its self time is busy time minus the spans of *other* layers running
inside it (a span re-entering its own layer stays part of the outer one).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List

from repro.accel import SimulatedDevice
from repro.compilepipe import executor as compilepipe_executor
from repro.core import Pipeline
from repro.core.dispatch import BoundKernel, kernel_registry
from repro.jaxshim.api import JitFunction
from repro.jaxshim.compile import CompiledFunction
from repro.ompshim import OmpTargetRuntime
from repro.ops import DefaultNoiseModel, MapMaker, SimNoise, SimSatellite

from metrics import KERNELS

_H2D = ("update_device", "update_device_async")
_D2H = ("update_host", "update_host_async")
_DEVICE_API = _H2D + _D2H + (
    "alloc",
    "free",
    "reset",
    "launch",
    "launch_async",
    "begin_fused",
    "end_fused",
    "synchronize",
    "wait_transfers",
)


class _Span:
    __slots__ = ("layer", "start", "tare", "child_s", "outermost")

    def __init__(self, layer: str, start: float, tare: float, outermost: bool):
        self.layer = layer
        self.start = start
        self.tare = tare
        self.child_s = 0.0
        self.outermost = outermost


class LayerRecorder:
    """Busy/self seconds and counts per layer for one traced iteration."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[_Span] = []
        self._depth: Dict[str, int] = defaultdict(int)
        #: Seconds spent on the recorder's own bookkeeping inside spans;
        #: subtracted from every span open while it ran.
        self._tare = 0.0

    # -- spans -------------------------------------------------------------

    def enter(self, layer: str) -> _Span:
        span = _Span(layer, perf_counter(), self._tare, self._depth[layer] == 0)
        self._depth[layer] += 1
        self._stack.append(span)
        return span

    def exit(self, span: _Span) -> float:
        dur = perf_counter() - span.start - (self._tare - span.tare)
        self._stack.pop()
        self._depth[span.layer] -= 1
        parent = self._stack[-1] if self._stack else None
        if span.outermost:
            self.busy[span.layer] += dur
            self.self_s[span.layer] += dur - span.child_s
            if parent is not None:
                parent.child_s += dur
        elif parent is not None:
            # Same-layer nesting: the inner span is part of the outer one,
            # but its other-layer children still leave the outer's self.
            parent.child_s += span.child_s
        return dur

    def wrap(self, fn: Callable, layer: str, on_exit: Callable = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = self.exit(span)
            if on_exit is not None:
                t0 = perf_counter()
                on_exit(span, dur, args, kwargs, out)
                self._tare += perf_counter() - t0
            return out

        return wrapper

    # -- what each layer counts --------------------------------------------

    def _kernel_body(self, name: str, spec, fn: Callable) -> Callable:
        if name not in KERNELS:
            return fn

        def on_exit(span, dur, args, kwargs, out):
            self.counts[f"kernels.{name}.calls"] += 1
            if spec is not None:
                read, written = spec.bytes_moved(args, kwargs)
                self.counts[f"kernels.{name}.bytes_computed"] += read + written

        return self.wrap(fn, f"kernels.{name}", on_exit)

    def _plan_executed(self, span, dur, args, kwargs, plan) -> None:
        self.counts["compilepipe.transfers_elided"] += plan.executed.get("transfers_elided", 0)
        self.counts["compilepipe.launches_elided"] += plan.executed.get("launches_elided", 0)
        self.counts["compilepipe.fused_groups"] += plan.fused_groups

    def _device_call(self, method: str) -> Callable:
        def on_exit(span, dur, args, kwargs, out):
            if method in _H2D:
                self.counts["accel.h2d_copies"] += 1
                self.counts["accel.h2d_bytes"] += args[2].nbytes
            elif method in _D2H:
                self.counts["accel.d2h_copies"] += 1
                self.counts["accel.d2h_bytes"] += args[2].nbytes
            elif method == "alloc":
                self.counts["accel.alloc_calls"] += 1

        return on_exit

    def _count(self, key: str) -> Callable:
        def on_exit(span, dur, args, kwargs, out):
            self.counts[key] += 1

        return on_exit

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["LayerRecorder"]:
        patches = []

        def patch(owner, attr: str, replacement) -> None:
            patches.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, replacement)

        for op in (SimSatellite, DefaultNoiseModel, SimNoise):
            patch(op, "apply", self.wrap(op.apply, "sim"))
        patch(Pipeline, "exec", self.wrap(Pipeline.exec, "pipeline"))
        patch(MapMaker, "exec", self.wrap(MapMaker.exec, "mapmaker"))
        patch(
            BoundKernel,
            "__call__",
            self.wrap(BoundKernel.__call__, "dispatch", self._count("dispatch.calls")),
        )
        resolve = kernel_registry.resolve

        def traced_resolve(name, impl):
            fn, resolved = resolve(name, impl)
            return self._kernel_body(name, kernel_registry.spec(name), fn), resolved

        patch(kernel_registry, "resolve", traced_resolve)

        jit_call = JitFunction.__call__

        def counted_jit_call(jit_fn, *args, **kwargs):
            traces = jit_fn.n_traces
            span = self.enter("jaxshim.jit")
            try:
                return jit_call(jit_fn, *args, **kwargs)
            finally:
                dur = self.exit(span)
                # A JIT call nested in another is inlined by the outer trace.
                if span.outermost:
                    if jit_fn.n_traces != traces:
                        self.counts["jaxshim.cache_misses"] += 1
                        self.busy["jaxshim.trace"] += dur - span.child_s
                    else:
                        self.counts["jaxshim.cache_hits"] += 1

        patch(JitFunction, "__call__", counted_jit_call)
        patch(
            CompiledFunction,
            "__call__",
            self.wrap(CompiledFunction.__call__, "jaxshim.exec", self._count("jaxshim.exec_calls")),
        )
        for name in ("lower_workflow", "build_plan"):
            fn = getattr(compilepipe_executor, name)
            patch(compilepipe_executor, name, self.wrap(fn, "compilepipe.plan"))
        run = compilepipe_executor.CompiledRun
        # The executor's own bookkeeping counts as pipeline time.
        patch(run, "execute", self.wrap(run.execute, "pipeline", self._plan_executed))
        patch(
            OmpTargetRuntime,
            "target_teams_distribute_parallel_for",
            self.wrap(
                OmpTargetRuntime.target_teams_distribute_parallel_for,
                "ompshim",
                self._count("ompshim.regions"),
            ),
        )
        for method in _DEVICE_API:
            fn = getattr(SimulatedDevice, method)
            patch(SimulatedDevice, method, self.wrap(fn, "accel", self._device_call(method)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer values of this iteration (the device counts come from
        the iteration itself, see ``workloads.run_iteration``)."""
        out = dict(self.counts)
        out.update(
            {
                "sim.busy_s": self.busy["sim"],
                "pipeline.busy_s": self.busy["pipeline"],
                "pipeline.self_s": self.self_s["pipeline"],
                "dispatch.self_s": self.self_s["dispatch"],
                "jaxshim.exec_s": self.busy["jaxshim.exec"],
                "jaxshim.trace_s": self.busy["jaxshim.trace"],
                "compilepipe.plan_s": self.busy["compilepipe.plan"],
                "ompshim.region_s": self.busy["ompshim"],
                "accel.host_s": self.busy["accel"],
                "mapmaker.busy_s": self.busy["mapmaker"],
            }
        )
        for k in KERNELS:
            out[f"kernels.{k}.busy_s"] = self.busy[f"kernels.{k}"]
        return out

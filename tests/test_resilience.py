"""Tests for repro.resilience: deterministic injection + recovery.

The contract under test: same plan + same seed = same faults, bit for
bit; and under the recovery plane the satellite workflow's maps come out
**bitwise identical** to a fault-free run whenever recovery keeps
execution on the device.
"""

import numpy as np
import pytest

from repro import obs, resilience
from repro.accel import MemoryPool, OutOfDeviceMemoryError, SimulatedDevice
from repro.accel.errors import (
    DeviceLostError,
    KernelLaunchError,
    TransferCorruptionError,
    TransferError,
)
from repro.core.dispatch import (
    ImplementationType,
    FALLBACK_ORDER,
    fallback_chain,
    get_kernel,
    kernel_registry,
    use_implementation,
)
from repro.core.data import Data
from repro.core.observation import Observation
from repro.core.pipeline import MovementPolicy, Pipeline
from repro.core.operator import Operator
from repro.core import fake_hexagon_focalplane
from repro.obs.events import EventType
from repro.ompshim import OmpTargetRuntime
from repro.ompshim.errors import TargetRegionError
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    RetryPolicy,
    named_plan,
    plan_names,
)
from repro.workflows.satellite import SIZES, run_fault_injection_benchmark


TINY = SIZES["tiny"]


# ---------------------------------------------------------------------------
# Fault plans and the injector


class TestFaultSpecs:
    def test_nth_is_one_based_and_exact(self):
        plan = FaultPlan(
            "p", (FaultSpec(site="device.launch", kind=FaultKind.LAUNCH_FAIL, nth=(3,)),)
        )
        inj = FaultInjector(plan)
        fired = [inj.poll("device.launch") is not None for _ in range(5)]
        assert fired == [False, False, True, False, False]

    def test_every_fires_periodically(self):
        plan = FaultPlan(
            "p", (FaultSpec(site="device.launch", kind=FaultKind.DEVICE_STALL, every=2),)
        )
        inj = FaultInjector(plan)
        fired = [inj.poll("device.launch") is not None for _ in range(6)]
        assert fired == [False, True, False, True, False, True]

    def test_max_fires_caps_a_spec(self):
        plan = FaultPlan(
            "p",
            (
                FaultSpec(
                    site="device.launch",
                    kind=FaultKind.LAUNCH_FAIL,
                    every=1,
                    max_fires=2,
                ),
            ),
        )
        inj = FaultInjector(plan)
        fired = sum(inj.poll("device.launch") is not None for _ in range(10))
        assert fired == 2

    def test_wrong_site_kind_pairing_rejected(self):
        with pytest.raises(ValueError, match="cannot fire at site"):
            FaultSpec(site="pool.allocate", kind=FaultKind.LAUNCH_FAIL, nth=(1,))

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultSpec(site="nope", kind=FaultKind.OOM, nth=(1,))

    def test_spec_that_never_fires_rejected(self):
        with pytest.raises(ValueError, match="never fires"):
            FaultSpec(site="pool.allocate", kind=FaultKind.OOM)

    def test_probabilistic_replay_is_exact(self):
        plan = FaultPlan(
            "p",
            (
                FaultSpec(
                    site="transfer.h2d", kind=FaultKind.TRANSFER_FAIL, probability=0.3
                ),
            ),
            seed=7,
        )
        runs = []
        for _ in range(2):
            inj = FaultInjector(plan)
            runs.append([inj.poll("transfer.h2d") is not None for _ in range(200)])
        assert runs[0] == runs[1]
        assert any(runs[0])  # p=0.3 over 200 calls fires

    def test_different_seed_different_stream(self):
        base = FaultPlan(
            "p",
            (
                FaultSpec(
                    site="transfer.h2d", kind=FaultKind.TRANSFER_FAIL, probability=0.3
                ),
            ),
        )
        a = FaultInjector(base.with_seed(1))
        b = FaultInjector(base.with_seed(2))
        sa = [a.poll("transfer.h2d") is not None for _ in range(200)]
        sb = [b.poll("transfer.h2d") is not None for _ in range(200)]
        assert sa != sb

    def test_rng_stream_survives_earlier_spec_firing(self):
        # A deterministic nth spec firing must not skip the probability
        # draw of a later spec, or replay desynchronises.
        prob = FaultSpec(
            site="transfer.h2d", kind=FaultKind.TRANSFER_CORRUPT, probability=0.5
        )
        with_nth = FaultPlan(
            "a",
            (
                FaultSpec(
                    site="transfer.h2d", kind=FaultKind.TRANSFER_FAIL, nth=(1,)
                ),
                prob,
            ),
            seed=3,
        )
        without = FaultPlan("b", (prob,), seed=3)
        ia, ib = FaultInjector(with_nth), FaultInjector(without)
        ia.poll("transfer.h2d")
        ib.poll("transfer.h2d")
        sa = [ia.poll("transfer.h2d") is not None for _ in range(50)]
        sb = [ib.poll("transfer.h2d") is not None for _ in range(50)]
        assert sa == sb

    def test_named_plans_exist_and_unknown_is_helpful(self):
        for name in ("oom-then-recover", "transient-transfer", "device-loss"):
            assert name in plan_names()
            assert named_plan(name, seed=5).seed == 5
        with pytest.raises(KeyError, match="oom-then-recover"):
            named_plan("no-such-plan")


# ---------------------------------------------------------------------------
# Recovery primitives


class TestRetryPolicy:
    def test_exponential_growth_within_jitter(self):
        import random

        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0, jitter=0.5)
        rng = random.Random(0)
        for attempt, nominal in [(1, 1.0), (2, 2.0), (3, 4.0)]:
            d = policy.delay(attempt, rng)
            assert 0.5 * nominal <= d <= 1.5 * nominal

    def test_no_jitter_is_deterministic(self):
        import random

        policy = RetryPolicy(base_delay_s=1.0, multiplier=3.0, jitter=0.0)
        assert policy.delay(3, random.Random(0)) == pytest.approx(9.0)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_open_probe(self):
        br = CircuitBreaker("k", failure_threshold=2, cooldown_s=1.0)
        assert br.allow(0.0)
        assert br.record_failure(0.0) is None
        assert br.record_failure(0.0) == "opened"
        assert br.state is BreakerState.OPEN
        assert not br.allow(0.5)  # still cooling down
        assert br.allow(1.5)  # the half-open probe
        assert br.state is BreakerState.HALF_OPEN
        assert not br.allow(1.5)  # only one probe in flight
        assert br.record_success() == "closed"
        assert br.state is BreakerState.CLOSED

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        br = CircuitBreaker("k", failure_threshold=1, cooldown_s=1.0)
        br.record_failure(0.0)
        assert br.allow(1.5)
        assert br.record_failure(1.5) == "opened"
        assert not br.allow(2.0)
        assert br.allow(2.6)


class TestBackoffVirtualClock:
    def test_backoff_charges_virtual_time_not_real(self):
        import time

        dev = SimulatedDevice(memory_bytes=1 << 20)
        t0 = time.monotonic()
        with resilience.resilient(seed=1) as ctrl:
            ctrl.bind_clock(dev.clock)
            for attempt in range(1, 4):
                ctrl.backoff("site", attempt, RuntimeError("x"))
        assert time.monotonic() - t0 < 0.5  # no real sleeping
        assert dev.clock.region_time("resilience_backoff") > 0


# ---------------------------------------------------------------------------
# Device-layer injection


class TestDeviceFaults:
    def _device(self):
        return SimulatedDevice(memory_bytes=1 << 20)

    def test_transient_transfer_retries_to_success(self):
        plan = FaultPlan(
            "t",
            (
                FaultSpec(
                    site="transfer.h2d",
                    kind=FaultKind.TRANSFER_FAIL,
                    nth=(1,),
                    max_fires=1,
                ),
            ),
        )
        dev = self._device()
        host = np.arange(64, dtype=np.float64)
        out = np.zeros_like(host)
        with resilience.resilient(plan) as ctrl:
            ctrl.bind_clock(dev.clock)
            buf = dev.alloc(host.nbytes)
            dev.update_device(buf, host)
            dev.update_host(buf, out)
        assert np.array_equal(host, out)
        assert ctrl.counters["retries"] == 1
        assert dev.clock.region_time("resilience_backoff") > 0

    def test_corruption_detected_by_checksum_and_retried(self):
        plan = FaultPlan(
            "c",
            (
                FaultSpec(
                    site="transfer.h2d",
                    kind=FaultKind.TRANSFER_CORRUPT,
                    nth=(1,),
                    max_fires=1,
                ),
            ),
        )
        dev = self._device()
        host = np.arange(64, dtype=np.float64)
        with resilience.resilient(plan) as ctrl:
            ctrl.bind_clock(dev.clock)
            buf = dev.alloc(host.nbytes)
            dev.update_device(buf, host)
            out = np.zeros_like(host)
            dev.update_host(buf, out)
        assert np.array_equal(host, out)
        assert ctrl.counters["retries"] == 1

    def test_persistent_transfer_failure_exhausts_and_raises(self):
        plan = FaultPlan(
            "t",
            (
                FaultSpec(
                    site="transfer.h2d", kind=FaultKind.TRANSFER_FAIL, every=1
                ),
            ),
        )
        dev = self._device()
        host = np.arange(8, dtype=np.float64)
        with resilience.resilient(plan) as ctrl:
            ctrl.bind_clock(dev.clock)
            buf = dev.alloc(host.nbytes)
            with pytest.raises(TransferError, match="injected fault"):
                dev.update_device(buf, host)
        assert ctrl.counters["retries"] == ctrl.config.retry.max_attempts - 1

    def test_device_loss_guards_and_revive(self):
        plan = FaultPlan(
            "l",
            (
                FaultSpec(
                    site="device.launch",
                    kind=FaultKind.DEVICE_LOST,
                    nth=(1,),
                    max_fires=1,
                ),
            ),
        )
        dev = self._device()
        host = np.arange(16, dtype=np.float64)
        with resilience.resilient(plan) as ctrl:
            ctrl.bind_clock(dev.clock)
            buf = dev.alloc(host.nbytes)
            dev.update_device(buf, host)
            with pytest.raises(DeviceLostError):
                dev.launch("k", 1e-6)
            assert dev.lost
            # Scrambled device data must not leak back to the host.
            with pytest.raises(DeviceLostError):
                dev.update_host(buf, np.zeros_like(host))
            dev.revive()
            assert not dev.lost
            assert dev.allocated_bytes == 0
            dev.launch("k", 1e-6)  # fresh device works

    def test_stall_charges_virtual_time_only(self):
        plan = FaultPlan(
            "s",
            (
                FaultSpec(
                    site="device.launch",
                    kind=FaultKind.DEVICE_STALL,
                    every=1,
                    stall_seconds=2e-3,
                ),
            ),
        )
        dev = self._device()
        with resilience.resilient(plan) as ctrl:
            ctrl.bind_clock(dev.clock)
            dev.launch("k", 1e-6)
        assert dev.clock.region_time("fault_stall") == pytest.approx(2e-3)

    def test_injected_pool_oom_and_fragmentation_pressure(self):
        plan = FaultPlan(
            "o",
            (
                FaultSpec(site="pool.allocate", kind=FaultKind.OOM, nth=(1,)),
                FaultSpec(site="pool.allocate", kind=FaultKind.FRAGMENT, nth=(2,)),
            ),
        )
        pool = MemoryPool(1 << 20)
        with resilience.resilient(plan):
            with pytest.raises(OutOfDeviceMemoryError, match="external memory"):
                pool.allocate(64)
            with pytest.raises(OutOfDeviceMemoryError, match="fragmentation"):
                pool.allocate(64)
            assert pool.allocate(64) == 0  # plan exhausted; normal service

    def test_target_region_failure_is_transient_kernel_error(self):
        plan = FaultPlan(
            "tr",
            (
                FaultSpec(
                    site="ompshim.target_region", kind=FaultKind.TARGET_FAIL, nth=(1,)
                ),
            ),
        )
        rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 20))
        with resilience.resilient(plan) as ctrl:
            ctrl.bind_clock(rt.device.clock)
            with pytest.raises(TargetRegionError) as e:
                rt.target_teams_distribute_parallel_for(
                    "k", (1, 1, 4), lambda lo, hi: None
                )
        assert isinstance(e.value, KernelLaunchError)  # classifies transient


# ---------------------------------------------------------------------------
# Dispatch-level fallback chain


def _register_synthetic(name, impls):
    from repro.kernels import ArgSpec, KernelSpec

    if kernel_registry.spec(name) is None:
        # Synthetic kernels: one plain argument, excluded from the parity
        # sweep, and all implementations waived for coverage purposes.
        kernel_registry.register_spec(
            KernelSpec(
                name,
                args=(ArgSpec("x"),),
                interval_batched=False,
                parity=False,
                waive_impls=("python", "numpy", "jax", "omp_target"),
            )
        )
    for impl, fn in impls.items():
        if not kernel_registry.has(name, impl):
            kernel_registry.register(name, impl, fn)


class TestDispatchFallback:
    def test_fallback_order_constant(self):
        assert FALLBACK_ORDER == (
            ImplementationType.JAX,
            ImplementationType.OMP_TARGET,
            ImplementationType.NUMPY,
            ImplementationType.PYTHON,
        )

    def test_chain_filters_to_registered(self):
        chain = fallback_chain("scan_map", ImplementationType.JAX)
        assert chain[0] is ImplementationType.JAX
        assert all(kernel_registry.has("scan_map", i) for i in chain)

    def test_get_kernel_unwraps_to_raw_impl_when_everything_off(self):
        fn = get_kernel("scan_map", ImplementationType.NUMPY)
        # The BoundKernel wrapper carries the raw implementation untouched:
        # no resilience chain, no tracing closure.
        assert fn.fn is kernel_registry.get("scan_map", ImplementationType.NUMPY)
        assert fn._tracer is None

    def test_transient_failure_retries_in_place(self):
        calls = {"n": 0}

        def flaky(x, accel=None, use_accel=False):
            calls["n"] += 1
            if calls["n"] < 3:
                raise KernelLaunchError("synthetic transient")
            return x + 1

        _register_synthetic(
            "__res_flaky",
            {
                ImplementationType.JAX: flaky,
                ImplementationType.NUMPY: lambda x, accel=None, use_accel=False: x + 1,
            },
        )
        with resilience.resilient(FaultPlan("none", ())) as ctrl:
            assert get_kernel("__res_flaky", ImplementationType.JAX)(41) == 42
        assert calls["n"] == 3
        assert ctrl.counters["retries"] == 2
        assert "fallbacks" not in ctrl.counters

    def test_persistent_failure_falls_back_down_the_chain(self):
        def broken(x, accel=None, use_accel=False):
            raise KernelLaunchError("permanently flaky")

        _register_synthetic(
            "__res_broken",
            {
                ImplementationType.JAX: broken,
                ImplementationType.NUMPY: lambda x, accel=None, use_accel=False: x + 1,
            },
        )
        with resilience.resilient(FaultPlan("none", ())) as ctrl:
            assert get_kernel("__res_broken", ImplementationType.JAX)(41) == 42
        assert ctrl.counters["fallbacks"] == 1
        assert ctrl.counters["breaker_opens"] == 1
        assert ctrl.report()["breakers"]["__res_broken:jax"] == "open"

    def test_open_breaker_skips_straight_to_fallback(self):
        calls = {"jax": 0, "numpy": 0}

        def broken(x, accel=None, use_accel=False):
            calls["jax"] += 1
            raise KernelLaunchError("permanently flaky")

        def solid(x, accel=None, use_accel=False):
            calls["numpy"] += 1
            return x

        _register_synthetic(
            "__res_skip",
            {ImplementationType.JAX: broken, ImplementationType.NUMPY: solid},
        )
        with resilience.resilient(FaultPlan("none", ())) as ctrl:
            get_kernel("__res_skip", ImplementationType.JAX)(0)
            jax_calls_first_round = calls["jax"]
            get_kernel("__res_skip", ImplementationType.JAX)(0)
        # Open breaker: the second resolution never touched the jax impl.
        assert calls["jax"] == jax_calls_first_round
        assert calls["numpy"] == 2
        assert ctrl.counters["breaker_skips"] >= 1

    def test_exhausted_chain_raises_last_error(self):
        def broken(x, accel=None, use_accel=False):
            raise KernelLaunchError("nothing works")

        _register_synthetic("__res_dead", {ImplementationType.JAX: broken})
        with resilience.resilient(FaultPlan("none", ())):
            with pytest.raises(KernelLaunchError, match="nothing works"):
                get_kernel("__res_dead", ImplementationType.JAX)(0)


# ---------------------------------------------------------------------------
# Pipeline-level recovery (eviction, host fallback, checkpoint/resume)


class _AddOne(Operator):
    """Synthetic accelerated operator: key += 1 on every observation."""

    def __init__(self, key: str, name=None):
        super().__init__(name=name or f"AddOne[{key}]")
        self.key = key

    def requires(self):
        return {"shared": [self.key], "detdata": [], "meta": []}

    def provides(self):
        return {"shared": [self.key], "detdata": [], "meta": []}

    def supports_accel(self):
        return True

    def exec(self, data, use_accel=False, accel=None):
        for ob in data.obs:
            if use_accel:
                accel.device_view(ob.shared[self.key])[:] += 1.0
                accel.device.launch("add_one", 1e-7)
            else:
                ob.shared[self.key][:] += 1.0


def _tiny_data(n_samples=256, keys=("a", "b"), fill=1.0):
    fp = fake_hexagon_focalplane(n_pixels=1)
    ob = Observation(fp, n_samples=n_samples, name="synth")
    for key in keys:
        ob.create_shared(key, (n_samples,))
        ob.shared[key][:] = fill
    data = Data()
    data.obs = [ob]
    return data


class TestPipelineRecovery:
    def test_real_oom_evicts_lru_and_retries(self):
        # Device fits one array (plus alignment), not two: entering stage 2
        # must evict stage 1's array, which is outside the working set.
        n = 1024
        nbytes = n * 8
        data = _tiny_data(n_samples=n)
        rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=nbytes + 512))
        pipe = Pipeline(
            [_AddOne("a"), _AddOne("b")],
            implementation=ImplementationType.OMP_TARGET,
            accel=rt,
        )
        with resilience.resilient(seed=0) as ctrl:
            ctrl.bind_clock(rt.device.clock)
            pipe.apply(data)
        assert ctrl.counters["evictions"] >= 1
        ob = data.obs[0]
        assert np.all(ob.shared["a"] == 2.0)
        assert np.all(ob.shared["b"] == 2.0)
        assert rt.device.allocated_bytes == 0  # pipeline cleaned up

    def test_oversized_working_set_falls_back_to_host(self):
        n = 1024
        data = _tiny_data(n_samples=n, keys=("a",))
        rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=1024))  # too small
        pipe = Pipeline(
            [_AddOne("a")],
            implementation=ImplementationType.OMP_TARGET,
            accel=rt,
        )
        with resilience.resilient(seed=0) as ctrl:
            ctrl.bind_clock(rt.device.clock)
            pipe.apply(data)
        assert ctrl.counters["fallbacks"] >= 1
        assert ctrl.counters["retries"] >= 1  # backed off before giving up
        assert np.all(data.obs[0].shared["a"] == 2.0)

    def test_device_loss_resumes_from_checkpoint(self):
        plan = FaultPlan(
            "loss",
            (
                FaultSpec(
                    site="device.launch",
                    kind=FaultKind.DEVICE_LOST,
                    nth=(2,),
                    max_fires=1,
                ),
            ),
        )
        data = _tiny_data(n_samples=256)
        rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 20))
        pipe = Pipeline(
            [_AddOne("a"), _AddOne("b")],
            implementation=ImplementationType.OMP_TARGET,
            accel=rt,
        )
        with resilience.resilient(plan) as ctrl:
            ctrl.bind_clock(rt.device.clock)
            pipe.apply(data)
        # Stage 2's launch was lost; the stage re-ran exactly once -- no
        # double-increment, no lost stage-1 work.
        assert ctrl.counters["device_recoveries"] == 1
        assert np.all(data.obs[0].shared["a"] == 2.0)
        assert np.all(data.obs[0].shared["b"] == 2.0)
        report = ctrl.report()
        assert report["checkpoints"] == 2
        assert report["last_checkpoint"]["fields"] == ["b"]

    def test_checkpoint_manifest_records_stages(self):
        data = _tiny_data(n_samples=64)
        rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 20))
        pipe = Pipeline(
            [_AddOne("a"), _AddOne("b")],
            implementation=ImplementationType.OMP_TARGET,
            accel=rt,
        )
        with resilience.resilient(seed=0) as ctrl:
            ctrl.bind_clock(rt.device.clock)
            pipe.apply(data)
        ops = [c["op"] for c in ctrl.checkpoints]
        assert ops == ["AddOne[a]", "AddOne[b]"]
        assert [c["stage"] for c in ctrl.checkpoints] == [0, 1]


# ---------------------------------------------------------------------------
# End-to-end: the satellite workflow under named plans


class TestSatelliteRecoveryBitwise:
    @pytest.mark.parametrize(
        "plan_name", ["oom-then-recover", "transient-transfer", "corrupt-transfer"]
    )
    def test_jax_recovery_is_bitwise_identical(self, plan_name):
        report = run_fault_injection_benchmark(
            TINY, ImplementationType.JAX, plan_name=plan_name, seed=1, mapmaking=False
        )
        assert report["counters"]["faults_injected"] >= 1
        assert report["all_identical"]
        cmp = report["maps"]["zmap"]
        assert cmp["max_abs_diff"] == 0.0
        assert cmp["crc32_clean"] == cmp["crc32_faulted"]

    def test_omp_target_region_failure_recovers(self):
        report = run_fault_injection_benchmark(
            TINY,
            ImplementationType.OMP_TARGET,
            plan_name="target-flaky",
            seed=1,
            mapmaking=False,
        )
        assert report["counters"]["faults_injected"] == 1
        assert report["counters"]["retries"] >= 1
        assert report["all_identical"]

    def test_device_loss_resume_end_to_end(self):
        report = run_fault_injection_benchmark(
            TINY,
            ImplementationType.JAX,
            plan_name="device-loss",
            seed=1,
            mapmaking=False,
        )
        assert report["counters"]["device_recoveries"] == 1
        assert report["all_identical"]

    def test_replay_is_deterministic(self):
        a = run_fault_injection_benchmark(
            TINY, ImplementationType.JAX, plan_name="flaky-launch", seed=9,
            mapmaking=False,
        )
        b = run_fault_injection_benchmark(
            TINY, ImplementationType.JAX, plan_name="flaky-launch", seed=9,
            mapmaking=False,
        )
        assert a["faults"] == b["faults"]
        assert a["counters"] == b["counters"]

    def test_recovery_decisions_visible_in_trace(self):
        tracer = obs.Tracer()
        run_fault_injection_benchmark(
            TINY,
            ImplementationType.JAX,
            plan_name="oom-then-recover",
            seed=0,
            mapmaking=False,
            tracer=tracer,
        )
        faults = tracer.events_of(EventType.FAULT_INJECTED)
        retries = tracer.events_of(EventType.RETRY)
        checkpoints = tracer.events_of(EventType.CHECKPOINT)
        assert len(faults) == 1
        assert faults[0].name == "pool.allocate"
        assert faults[0].attrs["kind"] == "oom"
        assert len(retries) >= 1
        assert len(checkpoints) >= 1
        assert tracer.metrics.counters["resilience.faults_injected"].value == 1


# ---------------------------------------------------------------------------
# Zero cost when off


class TestZeroCostWhenOff:
    def test_no_controller_installed_by_default(self):
        assert resilience.active_controller() is None

    def test_context_restores_previous_state(self):
        with resilience.resilient() as outer:
            assert resilience.active_controller() is outer
            with resilience.resilient() as inner:
                assert resilience.active_controller() is inner
            assert resilience.active_controller() is outer
        assert resilience.active_controller() is None

    def test_device_paths_identical_when_off(self):
        dev = SimulatedDevice(memory_bytes=1 << 20)
        host = np.arange(32, dtype=np.float64)
        buf = dev.alloc(host.nbytes)
        dev.update_device(buf, host)
        out = np.zeros_like(host)
        dev.update_host(buf, out)
        dev.launch("k", 1e-6)
        assert np.array_equal(host, out)
        assert dev.clock.region_time("resilience_backoff") == 0.0
        assert dev.clock.region_time("fault_stall") == 0.0

    def test_recovery_only_mode_runs_clean_workloads_untouched(self):
        # A controller with no plan injects nothing and leaves the result
        # of a healthy run alone.
        data = _tiny_data(n_samples=64, keys=("a",))
        rt = OmpTargetRuntime(SimulatedDevice(memory_bytes=1 << 20))
        pipe = Pipeline(
            [_AddOne("a")], implementation=ImplementationType.OMP_TARGET, accel=rt
        )
        with resilience.resilient() as ctrl:
            ctrl.bind_clock(rt.device.clock)
            pipe.apply(data)
        assert ctrl.counters.get("faults_injected", 0) == 0
        assert np.all(data.obs[0].shared["a"] == 2.0)

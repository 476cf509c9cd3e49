"""Tests for jit: tracing, caching, purity errors, donation, fusion."""

import numpy as np
import pytest

from repro.jaxshim import config, jit, jnp
from repro.jaxshim.errors import (
    ConcretizationError,
    ShapeError,
    TracerArrayConversionError,
    TracerError,
)
from repro.utils import blocking


@pytest.fixture(autouse=True)
def x64_mode():
    with config.temporarily(enable_x64=True):
        yield


class TestJitBasics:
    def test_matches_eager(self):
        def f(a, b):
            return jnp.sum(jnp.sin(a) * b + jnp.where(a > 1.0, a, 0.0))

        x = np.linspace(0, 3, 50)
        assert np.isclose(jit(f)(x, x), f(x, x))

    def test_multiple_outputs_pytree(self):
        @jit
        def f(a):
            return {"double": a * 2, "pair": (a + 1, a - 1)}

        out = f(np.arange(3.0))
        assert np.allclose(out["double"], [0, 2, 4])
        assert np.allclose(out["pair"][0], [1, 2, 3])

    def test_pytree_inputs(self):
        @jit
        def f(d):
            return d["x"] + d["y"]

        out = f({"x": np.ones(3), "y": np.full(3, 2.0)})
        assert np.allclose(out, 3.0)

    def test_constant_output(self):
        @jit
        def f(a):
            return np.float64(7.0)

        assert f(np.zeros(2)) == 7.0

    def test_scalar_arg_traced(self):
        @jit
        def f(a, s):
            return a * s

        assert np.allclose(f(np.arange(3.0), 2.0), [0, 2, 4])
        assert f.n_traces == 1
        f(np.arange(3.0), 5.0)  # same shapes: no retrace
        assert f.n_traces == 1

    def test_kwargs_rejected(self):
        @jit
        def f(a):
            return a

        with pytest.raises(TypeError):
            f(a=np.zeros(2))


class TestJitCache:
    def test_retrace_per_shape(self):
        @jit
        def f(a):
            return a * 2

        f(np.zeros(3))
        f(np.zeros(3))
        assert f.n_traces == 1
        f(np.zeros(4))
        assert f.n_traces == 2
        f(np.zeros((3, 1)))
        assert f.n_traces == 3
        assert f.cache_size == 3

    def test_retrace_per_dtype(self):
        @jit
        def f(a):
            return a + a

        f(np.zeros(3, dtype=np.float64))
        f(np.zeros(3, dtype=np.int64))
        assert f.n_traces == 2

    def test_static_args_in_key(self):
        @jit
        def f(a, n):
            return a * n

        f2 = jit(f.fn, static_argnums=(1,))
        f2(np.zeros(3), 2)
        f2(np.zeros(3), 2)
        assert f2.n_traces == 1
        f2(np.zeros(3), 3)  # different static value: retrace
        assert f2.n_traces == 2

    def test_static_arg_enables_python_control_flow(self):
        @jit
        def f(a):
            # This would raise ConcretizationError on a traced value...
            return a

        g = jit(lambda a, flag: a * 2 if flag else a, static_argnums=(1,))
        assert np.allclose(g(np.ones(2), True), 2.0)
        assert np.allclose(g(np.ones(2), False), 1.0)
        assert g.n_traces == 2

    def test_compiled_for_introspection(self):
        @jit
        def f(a):
            return jnp.exp(a) * 2 + 1

        x = np.zeros(8)
        assert f.compiled_for(x) is None
        f(x)
        exe = f.compiled_for(x)
        assert exe is not None
        assert exe.n_calls == 1
        assert exe.n_eqns >= 3

    def test_called_with_tracers_inlines(self):
        inner = jit(lambda a: a * 2)

        @jit
        def outer(a):
            return inner(a) + 1

        assert np.allclose(outer(np.ones(2)), 3.0)
        # inner was inlined into outer's trace, not compiled separately.
        assert inner.n_traces == 0

    def test_x64_flag_in_key(self):
        @jit
        def f(a):
            return a * 1.5

        f(np.zeros(3))
        with config.temporarily(enable_x64=False):
            out = f(np.zeros(3))
            assert out.dtype == np.float32
        assert f.n_traces == 2


class TestPurityAndErrors:
    def test_mutation_raises(self):
        @jit
        def f(a):
            a[0] = 1.0
            return a

        with pytest.raises(TracerError, match="at\\[idx\\]|immutable"):
            f(np.zeros(3))

    def test_bool_concretization(self):
        @jit
        def f(a):
            if a[0] > 0:
                return a
            return -a

        with pytest.raises(ConcretizationError):
            f(np.ones(3))

    def test_int_float_concretization(self):
        @jit
        def f(a):
            return float(a[0])

        with pytest.raises(ConcretizationError):
            f(np.ones(3))

    def test_boolean_mask_raises_shape_error(self):
        @jit
        def f(a):
            return a[a > 0]

        with pytest.raises(ShapeError, match="data-dependent"):
            f(np.arange(4.0))

    def test_array_conversion_raises(self):
        @jit
        def f(a):
            return np.asarray(a).sum()

        with pytest.raises(TracerArrayConversionError):
            f(np.ones(3))

    def test_iteration_over_leading_axis_allowed(self):
        @jit
        def f(a):
            total = jnp.zeros(())
            for row in a:  # static length: fine
                total = total + jnp.sum(row)
            return total

        assert np.isclose(f(np.ones((3, 4))), 12.0)

    def test_closure_leak_detected(self):
        leaked = []

        @jit
        def f(a):
            leaked.append(a)
            return a * 2

        f(np.ones(2))

        @jit
        def g(b):
            return leaked[0] + b  # tracer from f's (finished) trace

        with pytest.raises(TracerError):
            g(np.ones(2))


class TestFunctionalUpdates:
    def test_at_set_dynamic(self):
        @jit
        def f(a, idx, v):
            return a.at[idx].set(v)

        out = f(np.zeros(5), np.array([1, 3]), np.array([7.0, 8.0]))
        assert np.allclose(out, [0, 7, 0, 8, 0])

    def test_at_add_duplicates(self):
        @jit
        def f(a, idx):
            return a.at[idx].add(1.0)

        out = f(np.zeros(3), np.array([0, 0, 0, 2]))
        assert np.allclose(out, [3, 0, 1])

    def test_at_static_slice(self):
        @jit
        def f(a):
            return a.at[1:3].set(9.0)

        assert np.allclose(f(np.zeros(5)), [0, 9, 9, 0, 0])

    def test_at_static_add(self):
        @jit
        def f(a):
            return a.at[0].add(1.0)

        assert np.allclose(f(np.zeros(2)), [1, 0])

    def test_at_2d_dynamic(self):
        @jit
        def f(z, i, j, v):
            return z.at[i, j].add(v)

        z = np.zeros((2, 3))
        out = f(z, np.array([0, 1, 0]), np.array([2, 1, 2]), np.ones(3))
        expect = np.zeros((2, 3))
        expect[0, 2] = 2
        expect[1, 1] = 1
        assert np.allclose(out, expect)

    def test_at_min_max(self):
        @jit
        def f(a, idx, v):
            return a.at[idx].min(v), a.at[idx].max(v)

        lo, hi = f(np.full(3, 5.0), np.array([0, 1]), np.array([1.0, 9.0]))
        assert np.allclose(lo, [1, 5, 5])
        assert np.allclose(hi, [5, 9, 5])

    def test_input_not_mutated(self):
        base = np.zeros(3)

        @jit
        def f(a):
            return a.at[0].set(1.0)

        f(base)
        assert np.all(base == 0)


class TestDonation:
    def test_donated_bytes_tracked(self):
        @jit
        def f(a, b):
            return a + b

        g = jit(f.fn, donate_argnums=(0,))
        x = np.zeros(1000)
        g(x, x)
        exe = g.compiled_for(x, x)
        assert exe.donated_bytes_last_call == x.nbytes

    def test_static_and_donated_conflict(self):
        with pytest.raises(ValueError):
            jit(lambda a: a, static_argnums=(0,), donate_argnums=(0,))


class TestGraphOptimization:
    def test_dce_removes_dead_code(self):
        @jit
        def f(a):
            dead = jnp.exp(a) * 123.0  # noqa: F841 - intentionally unused
            return a + 1

        f(np.zeros(4))
        exe = f.compiled_for(np.zeros(4))
        names = [e.prim.name for e in exe.graph.eqns]
        assert "exp" not in names

    def test_cse_merges_duplicates(self):
        @jit
        def f(a):
            return jnp.sin(a) + jnp.sin(a)

        f(np.zeros(4))
        exe = f.compiled_for(np.zeros(4))
        names = [e.prim.name for e in exe.graph.eqns]
        assert names.count("sin") == 1

    def test_fusion_reduces_launches(self):
        @jit
        def f(a):
            return jnp.sum(jnp.sqrt(a * a + 1.0) - jnp.cos(a))

        f(np.zeros(16))
        exe = f.compiled_for(np.zeros(16))
        # Elementwise chain + reduction fuse into a single kernel.
        assert exe.n_kernels == 1
        assert exe.n_eqns > 1

    def test_scatter_breaks_fusion(self):
        @jit
        def f(a, idx):
            b = a * 2
            c = b.at[idx].add(1.0)
            return c * 3

        f(np.zeros(8), np.array([0, 1]))
        exe = f.compiled_for(np.zeros(8), np.array([0, 1]))
        assert exe.n_kernels >= 3

    def test_optimized_graph_still_correct(self):
        def f(a):
            dead = jnp.exp(a)  # noqa: F841
            s = jnp.sin(a)
            return s + s + jnp.sum(a)

        x = np.linspace(0, 1, 9)
        assert np.allclose(jit(f)(x), f(x))


def _chain(x):
    """An elementwise chain long enough that its group is worth tiling."""
    return jnp.cos(jnp.sin(x) * 2.0 + x) * jnp.exp(-x * x)


class TestBlockedExecution:
    """Fusion groups run as row tiles of their leading axis; a group that
    breaks the tiling rules runs as a single tile.  Either way the result
    is bitwise the eager one at every tile size."""

    X = np.random.default_rng(0).standard_normal((7, 5))

    def _check(self, fn, args, monkeypatch):
        expect = np.asarray(fn(*args))
        jf = jit(fn)
        # 1 row, 2 rows (short last tile), 3 rows, and one tile of all rows.
        for lanes in (1, 10, 15, 1 << 40):
            monkeypatch.setattr(blocking, "BLOCK_LANES", lanes)
            assert np.asarray(jf(*args)).tobytes() == expect.tobytes()
        monkeypatch.setattr(blocking, "BLOCK_LANES", 10)
        return jf.compiled_for(*args)

    def test_chain_runs_in_row_tiles(self, monkeypatch):
        plans = self._check(_chain, (self.X,), monkeypatch).plans
        assert len(plans) == 1
        assert plans[0].n_rows == 7 and plans[0].rows_per_tile() == 2
        assert len(plans[0].steps) > 4

    def test_non_leading_transpose_and_reduction_stay_tiled(self, monkeypatch):
        x3 = np.random.default_rng(1).standard_normal((7, 4, 5))

        def f(x):
            y = jnp.transpose(_chain(x), (0, 2, 1))
            return jnp.sum(y * y, axis=2) + jnp.max(y, axis=(1, 2))[:, None]

        plans = self._check(f, (x3,), monkeypatch).plans
        assert any(p.rows_per_tile() < p.n_rows for p in plans)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: jnp.sum(_chain(x), axis=0),
            lambda x: jnp.transpose(_chain(x)) * 3.0,
            lambda x: jnp.take(_chain(x), np.array([6, 0, 3, 3, 1, 2, 5]), axis=0) * 3.0,
        ],
        ids=["axis0_reduction", "transpose_moving_axis0", "in_group_gather_table"],
    )
    def test_rule_breaking_group_runs_as_one_tile(self, fn, monkeypatch):
        plans = self._check(fn, (self.X,), monkeypatch).plans
        assert len(plans) == 1 and len(plans[0].steps) > 4
        assert plans[0].rows_per_tile() == plans[0].n_rows

    def test_escaping_values_are_released_once(self, monkeypatch):
        def f(x, idx):
            y = _chain(x)
            z = jnp.scatter_add(y, idx, 1.0)  # a scatter: its own group
            return jnp.sin(z) + y

        exe = self._check(f, (self.X, np.array([0, 3])), monkeypatch)
        assert len(exe.plans) == 3
        released = [k for p in exe.plans for k in p.release]
        outs = {a.uid for a in exe.graph.out_atoms}
        materialized = {s.out for p in exe.plans for s in p.steps if s.escapes}
        assert len(released) == len(set(released))
        assert set(released) == materialized - outs

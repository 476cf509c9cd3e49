"""Property-based tests of the jaxshim transformation semantics.

Hypothesis generates random programs from the primitive set and checks
the core contracts:

* ``jit(f)(x) == f(x)``        (compilation preserves semantics)
* ``vmap(f)(xs) == stack(map(f, xs))``   (batching preserves semantics)
* graph optimization passes never change results.
* blocked execution: ``jit`` is bitwise un-jitted evaluation at any tile
  size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jaxshim import config, jit, jnp, vmap
from repro.utils import blocking

N = 6  # vector length of generated programs
B = 4  # vmap batch size


@pytest.fixture(autouse=True)
def x64_mode():
    with config.temporarily(enable_x64=True):
        yield


# A little expression language: each op maps (a, b) -> array, built only
# from total functions (no division by data, no log of data).
_BINOPS = [
    lambda a, b: jnp.add(a, b),
    lambda a, b: jnp.subtract(a, b),
    lambda a, b: jnp.multiply(a, b),
    lambda a, b: jnp.minimum(a, b),
    lambda a, b: jnp.maximum(a, b),
    lambda a, b: jnp.arctan2(a, b),
    lambda a, b: jnp.where(a > b, a, b),
]
_UNOPS = [
    lambda a: jnp.sin(a),
    lambda a: jnp.cos(a),
    lambda a: jnp.abs(a),
    lambda a: jnp.sqrt(jnp.abs(a) + 1.0),
    lambda a: jnp.exp(jnp.clip(a, -3.0, 3.0)),
    lambda a: jnp.negative(a),
    lambda a: a * 2.0 + 1.0,
    lambda a: jnp.floor(a),
]


@st.composite
def programs(draw):
    """A random closed expression over two vector inputs."""
    n_steps = draw(st.integers(2, 8))
    steps = []
    for _ in range(n_steps):
        if draw(st.booleans()):
            steps.append(("bin", draw(st.integers(0, len(_BINOPS) - 1))))
        else:
            steps.append(("un", draw(st.integers(0, len(_UNOPS) - 1))))
    reduce_at_end = draw(st.booleans())

    def f(x, y):
        vals = [x, y]
        for kind, idx in steps:
            if kind == "bin":
                vals.append(_BINOPS[idx](vals[-1], vals[-2]))
            else:
                vals.append(_UNOPS[idx](vals[-1]))
        out = vals[-1]
        return jnp.sum(out) if reduce_at_end else out

    return f


finite_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=N, max_size=N
).map(lambda v: np.array(v))


class TestJitEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(f=programs(), x=finite_vectors, y=finite_vectors)
    def test_jit_matches_eager(self, f, x, y):
        eager = f(x, y)
        compiled = jit(f)(x, y)
        np.testing.assert_allclose(compiled, eager, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(f=programs(), x=finite_vectors, y=finite_vectors)
    def test_jit_is_idempotent_across_calls(self, f, x, y):
        jf = jit(f)
        first = jf(x, y)
        second = jf(x, y)
        np.testing.assert_array_equal(np.asarray(first), np.asarray(second))
        assert jf.n_traces == 1

    @settings(max_examples=30, deadline=None)
    @given(f=programs(), x=finite_vectors, y=finite_vectors)
    def test_optimized_graph_has_no_dead_or_duplicate_eqns(self, f, x, y):
        jf = jit(f)
        jf(x, y)
        exe = jf.compiled_for(x, y)
        graph = exe.graph
        # DCE: every equation's output reaches the outputs.
        from repro.jaxshim.core import Var

        used = {a.uid for a in graph.out_atoms if isinstance(a, Var)}
        for eqn in reversed(graph.eqns):
            assert eqn.out.uid in used
            used.update(a.uid for a in eqn.inputs if isinstance(a, Var))
        # Fusion groups tile the equation list exactly once.
        covered = sorted(i for g in exe.groups for i in g)
        assert covered == list(range(len(graph.eqns)))


class TestVmapEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        f=programs(),
        data=st.lists(
            st.tuples(finite_vectors, finite_vectors), min_size=B, max_size=B
        ),
    )
    def test_vmap_matches_loop(self, f, data):
        xs = np.stack([d[0] for d in data])
        ys = np.stack([d[1] for d in data])
        batched = vmap(f)(xs, ys)
        looped = np.stack([np.asarray(f(x, y)) for x, y in data])
        np.testing.assert_allclose(np.asarray(batched), looped, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        f=programs(),
        data=st.lists(
            st.tuples(finite_vectors, finite_vectors), min_size=B, max_size=B
        ),
    )
    def test_vmap_inside_jit_matches_loop(self, f, data):
        xs = np.stack([d[0] for d in data])
        ys = np.stack([d[1] for d in data])
        compiled = jit(lambda a, b: vmap(f)(a, b))(xs, ys)
        looped = np.stack([np.asarray(f(x, y)) for x, y in data])
        np.testing.assert_allclose(np.asarray(compiled), looped, rtol=1e-12, atol=1e-12)


class TestScatterGatherProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        idx=st.lists(st.integers(0, N - 1), min_size=1, max_size=12),
        base=finite_vectors,
        vals=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
    )
    def test_scatter_add_matches_numpy(self, idx, base, vals):
        k = min(len(idx), len(vals))
        idx_arr = np.array(idx[:k])
        val_arr = np.array(vals[:k])
        expect = base.copy()
        np.add.at(expect, idx_arr, val_arr)

        eager = jnp.scatter_add(base, idx_arr, val_arr)
        compiled = jit(lambda b, i, v: b.at[i].add(v))(base, idx_arr, val_arr)
        np.testing.assert_allclose(eager, expect, rtol=1e-12)
        np.testing.assert_allclose(compiled, expect, rtol=1e-12)

        # 2-D operands scatter column by column: bitwise equal to the 2-D
        # ``ufunc.at`` in every mode, duplicate rows included.
        rows = np.concatenate([idx_arr, idx_arr[:1]])  # at least one duplicate
        base_2d = np.stack([base, -base, 0.5 * base], axis=1)
        upd_2d = np.concatenate([val_arr, val_arr[:1]])[:, None] * np.array([1.0, -2.0, 0.25])
        for mode, ufunc in [
            ("add", np.add),
            ("multiply", np.multiply),
            ("min", np.minimum),
            ("max", np.maximum),
        ]:
            update = jit(lambda b, i, v: getattr(b.at[i], mode)(v))
            # Updates that broadcast along rows take the same path.
            for upd in (upd_2d, upd_2d[0]):
                expect = base_2d.copy()
                ufunc.at(expect, rows, upd)
                got = np.asarray(update(base_2d, rows, upd))
                assert got.tobytes() == expect.tobytes(), mode

    @settings(max_examples=60, deadline=None)
    @given(
        idx=st.lists(st.integers(-2, N + 2), min_size=1, max_size=8),
        base=finite_vectors,
    )
    def test_take_clips_out_of_range(self, idx, base):
        idx_arr = np.array(idx)
        out = jnp.take(base, idx_arr)
        clipped = np.clip(idx_arr, 0, N - 1)
        np.testing.assert_array_equal(np.asarray(out), base[clipped])

    @settings(max_examples=40, deadline=None)
    @given(base=finite_vectors, idx=st.integers(0, N - 1), v=st.floats(-5, 5))
    def test_set_then_get_roundtrip(self, base, idx, v):
        @jit
        def set_get(b, i, val):
            updated = b.at[i].set(val)
            return jnp.take(updated, i)

        out = set_get(base, np.array([idx]), np.array([v]))
        np.testing.assert_allclose(np.asarray(out), [v])

    @settings(max_examples=40, deadline=None)
    @given(base=finite_vectors)
    def test_functional_update_never_mutates(self, base):
        snapshot = base.copy()
        jnp.scatter_set(base, np.array([0]), np.array([99.0]))
        jit(lambda b: b.at[0].set(99.0))(base)
        np.testing.assert_array_equal(base, snapshot)


R = 7  # rows of the blocked-execution programs: uneven against 2 and 3
_PERM = np.array([3, 0, 5, 1, 4, 2])

# Per-row steps (v, w) -> length-N vector, one per op family the row
# tiles handle (elementwise, gather, slice, reshape, concatenate,
# broadcast); under vmap each becomes a chain over a leading row axis.
_ROW_STEPS = [
    lambda v, w: jnp.sin(v) * w + 1.0,
    lambda v, w: jnp.where(v > w, jnp.cos(v), jnp.clip(w, -1.0, 1.0)),
    lambda v, w: jnp.take(v, _PERM) - w,
    lambda v, w: jnp.concatenate([v[2:], w[:2]]) * 0.5,
    lambda v, w: jnp.reshape(
        jnp.reshape(v, (2, N // 2)) * 0.5 + jnp.reshape(w, (2, N // 2))[::-1], (N,)
    ),
    lambda v, w: jnp.sum(
        jnp.broadcast_to(v, (3, N)) * jnp.reshape(jnp.arange(1.0, 4.0), (3, 1)), axis=0
    )
    - w,
    lambda v, w: jnp.astype(jnp.astype(v * 10.0, jnp.int64), jnp.float64) + jnp.max(w),
]


@st.composite
def row_programs(draw):
    """A random per-row chain over two vector inputs; returns its last
    value and one intermediate, so groups have more than one output."""
    steps = draw(st.lists(st.integers(0, len(_ROW_STEPS) - 1), min_size=2, max_size=8))

    def f(x, y):
        vals = [x, y]
        for i in steps:
            vals.append(_ROW_STEPS[i](vals[-1], vals[-2]))
        return vals[-1], vals[len(vals) // 2]

    return f


class TestBlockedExecution:
    @settings(max_examples=40, deadline=None)
    @given(
        f=row_programs(),
        data=st.lists(st.tuples(finite_vectors, finite_vectors), min_size=R, max_size=R),
    )
    def test_vmap_jit_is_bitwise_eager_at_every_block_size(self, f, data):
        xs = np.stack([d[0] for d in data])
        ys = np.stack([d[1] for d in data])
        eager = vmap(f)(xs, ys)
        jf = jit(vmap(f))
        # 1 row, 2 and 3 rows (short last tiles), and one tile of all rows.
        for lanes in (1, 2 * N, 3 * N, 1 << 40):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blocking, "BLOCK_LANES", lanes)
                got = jf(xs, ys)
            for a, b in zip(eager, got):
                assert np.asarray(b).tobytes() == np.asarray(a).tobytes()

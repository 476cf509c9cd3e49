"""Primitive registry: implementations, shape rules, batching rules, costs.

Primitives are the nodes of the static graph (paper §2.3.1: kernels "can be
expressed as a static data dependency graph whose nodes are taken from a
set of primitives").  Each primitive carries:

* a NumPy ``impl`` (eager execution and compiled-graph evaluation),
* a ``shape_rule`` for abstract evaluation while tracing,
* a ``batch_rule`` for :func:`~repro.jaxshim.api.vmap`, written purely in
  terms of :func:`~repro.jaxshim.core.bind` so vmap composes with jit,
* a fusion ``kind`` and per-element flop cost for the device model.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .config import config
from .core import Primitive, ShapedArray, aval_of, bind
from .errors import ShapeError

__all__ = ["registry", "get_primitive", "batching_coverage", "BATCHING_WAIVERS"]

registry: Dict[str, Primitive] = {}

#: Primitives intentionally shipped without a vmap batching rule.  Empty:
#: every registered primitive batches.  A name added here silences the
#: coverage gate (``repro-bench kernels``) for that primitive only.
BATCHING_WAIVERS: frozenset = frozenset()


def batching_coverage() -> Dict[str, bool]:
    """Primitive name -> whether it carries a vmap batching rule."""
    return {
        name: prim.batch_rule is not None
        for name, prim in sorted(registry.items())
    }


def _register(prim: Primitive) -> Primitive:
    if prim.name in registry:
        raise ValueError(f"duplicate primitive {prim.name}")
    registry[prim.name] = prim
    return prim


def get_primitive(name: str) -> Primitive:
    return registry[name]


def _ndim(x: Any) -> int:
    return getattr(x, "ndim", np.ndim(x))


def _shape(x: Any) -> Tuple[int, ...]:
    return tuple(getattr(x, "shape", np.shape(x)))


# --------------------------------------------------------------------------- #
# Shape-rule helpers
# --------------------------------------------------------------------------- #


def _broadcast_shape(*avals: ShapedArray) -> Tuple[int, ...]:
    try:
        return tuple(np.broadcast_shapes(*(a.shape for a in avals)))
    except ValueError as e:
        raise ShapeError(
            f"incompatible shapes {[a.shape for a in avals]}: {e}"
        ) from None


def _promote_dtype(*avals: ShapedArray) -> np.dtype:
    return np.result_type(*(a.dtype for a in avals))


def _reshape_impl(x, *, shape):
    return np.reshape(x, shape)


def _reshape_batch(args, bdims, *, shape):
    (x,), (d,) = args, bdims
    assert d == 0
    b = _shape(x)[0]
    # Resolve a single -1 against the logical size before prepending batch.
    shape = tuple(shape)
    out = bind(reshape_p, x, shape=(b,) + shape)
    return out, 0


# --------------------------------------------------------------------------- #
# Elementwise primitives
# --------------------------------------------------------------------------- #


def _elementwise_shape_rule(dtype_rule: Callable[..., np.dtype]):
    def rule(*avals: ShapedArray, **params) -> ShapedArray:
        return ShapedArray(_broadcast_shape(*avals), dtype_rule(*avals))

    return rule


def _elementwise_batch_rule(prim_name: str):
    def rule(args: Sequence[Any], bdims: Sequence[Optional[int]], **params):
        prim = registry[prim_name]
        # Logical (unbatched) output rank.
        lr = 0
        for a, d in zip(args, bdims):
            r = _ndim(a) - (1 if d is not None else 0)
            lr = max(lr, r)
        new_args = []
        for a, d in zip(args, bdims):
            if d is None:
                new_args.append(a)
                continue
            assert d == 0, "batch dims are normalized to 0"
            r = _ndim(a) - 1
            if r < lr:
                s = _shape(a)
                a = bind(reshape_p, a, shape=(s[0],) + (1,) * (lr - r) + s[1:])
            new_args.append(a)
        return bind(prim, *new_args, **params), 0

    return rule


def _same_dtype(*avals):
    return _promote_dtype(*avals)


def _bool_dtype(*avals):
    return np.dtype(bool)


def _float_dtype(*avals):
    dt = _promote_dtype(*avals)
    if np.issubdtype(dt, np.floating):
        return dt
    return config.default_float()


def defelementwise(
    name: str,
    impl: Callable[..., np.ndarray],
    dtype_rule: Callable[..., np.dtype] = _same_dtype,
    flops: float = 1.0,
) -> Primitive:
    prim = Primitive(
        name=name,
        impl=impl,
        shape_rule=_elementwise_shape_rule(dtype_rule),
        kind="elementwise",
        flops_per_element=flops,
    )
    prim.batch_rule = _elementwise_batch_rule(name)
    return _register(prim)


# Arithmetic.
add_p = defelementwise("add", np.add)
subtract_p = defelementwise("subtract", np.subtract)
multiply_p = defelementwise("multiply", np.multiply)
divide_p = defelementwise("divide", np.true_divide, dtype_rule=_float_dtype, flops=4.0)
floor_divide_p = defelementwise("floor_divide", np.floor_divide, flops=4.0)
remainder_p = defelementwise("remainder", np.remainder, flops=4.0)
power_p = defelementwise("power", np.power, flops=10.0)
negative_p = defelementwise("negative", np.negative)
abs_p = defelementwise("abs", np.abs)
sign_p = defelementwise("sign", np.sign)
minimum_p = defelementwise("minimum", np.minimum)
maximum_p = defelementwise("maximum", np.maximum)

# Transcendentals (costed heavier for the roofline model).
sqrt_p = defelementwise("sqrt", np.sqrt, dtype_rule=_float_dtype, flops=4.0)
exp_p = defelementwise("exp", np.exp, dtype_rule=_float_dtype, flops=10.0)
log_p = defelementwise("log", np.log, dtype_rule=_float_dtype, flops=10.0)
sin_p = defelementwise("sin", np.sin, dtype_rule=_float_dtype, flops=10.0)
cos_p = defelementwise("cos", np.cos, dtype_rule=_float_dtype, flops=10.0)
tan_p = defelementwise("tan", np.tan, dtype_rule=_float_dtype, flops=12.0)
arcsin_p = defelementwise("arcsin", np.arcsin, dtype_rule=_float_dtype, flops=15.0)
arccos_p = defelementwise("arccos", np.arccos, dtype_rule=_float_dtype, flops=15.0)
arctan_p = defelementwise("arctan", np.arctan, dtype_rule=_float_dtype, flops=15.0)
arctan2_p = defelementwise("arctan2", np.arctan2, dtype_rule=_float_dtype, flops=20.0)
floor_p = defelementwise("floor", np.floor)
ceil_p = defelementwise("ceil", np.ceil)
round_p = defelementwise("round", np.round)

# Comparisons and logic.
less_p = defelementwise("less", np.less, dtype_rule=_bool_dtype)
less_equal_p = defelementwise("less_equal", np.less_equal, dtype_rule=_bool_dtype)
greater_p = defelementwise("greater", np.greater, dtype_rule=_bool_dtype)
greater_equal_p = defelementwise("greater_equal", np.greater_equal, dtype_rule=_bool_dtype)
equal_p = defelementwise("equal", np.equal, dtype_rule=_bool_dtype)
not_equal_p = defelementwise("not_equal", np.not_equal, dtype_rule=_bool_dtype)
logical_and_p = defelementwise("logical_and", np.logical_and, dtype_rule=_bool_dtype)
logical_or_p = defelementwise("logical_or", np.logical_or, dtype_rule=_bool_dtype)
logical_not_p = defelementwise("logical_not", np.logical_not, dtype_rule=_bool_dtype)

# Bit manipulation (the NESTED HEALPix kernel interleaves bits).
bitwise_and_p = defelementwise("bitwise_and", np.bitwise_and)
bitwise_or_p = defelementwise("bitwise_or", np.bitwise_or)
bitwise_xor_p = defelementwise("bitwise_xor", np.bitwise_xor)
bitwise_not_p = defelementwise("bitwise_not", np.bitwise_not)
left_shift_p = defelementwise("left_shift", np.left_shift)
right_shift_p = defelementwise("right_shift", np.right_shift)

# Ternary select: the JAX substitute for in-loop branching (paper §3.1.3:
# the padded out-of-interval lanes do "dummy work" selected away by where).
where_p = defelementwise(
    "where", lambda c, x, y: np.where(c, x, y), dtype_rule=lambda c, x, y: _promote_dtype(x, y)
)

clip_p = defelementwise(
    "clip",
    lambda x, lo, hi: np.clip(x, lo, hi),
    dtype_rule=lambda x, lo, hi: _promote_dtype(x, lo, hi),
    flops=2.0,
)


# --------------------------------------------------------------------------- #
# dtype conversion
# --------------------------------------------------------------------------- #


def _astype_impl(x, *, dtype):
    return np.asarray(x).astype(dtype)


def _astype_shape(aval, *, dtype):
    return ShapedArray(aval.shape, np.dtype(dtype))


def _astype_batch(args, bdims, *, dtype):
    return bind(astype_p, args[0], dtype=dtype), 0


astype_p = _register(
    Primitive(
        "convert",
        impl=_astype_impl,
        shape_rule=_astype_shape,
        batch_rule=_astype_batch,
        kind="elementwise",
        flops_per_element=1.0,
    )
)


# --------------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------------- #


def _normalize_axis(axis, ndim: int) -> Tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    out = []
    for a in axis:
        a = int(a)
        if a < 0:
            a += ndim
        if not 0 <= a < ndim:
            raise ShapeError(f"reduction axis {a} out of range for rank {ndim}")
        out.append(a)
    return tuple(sorted(set(out)))


def _reduce_shape_rule(dtype_rule):
    def rule(aval: ShapedArray, *, axis) -> ShapedArray:
        axes = _normalize_axis(axis, aval.ndim)
        shape = tuple(s for i, s in enumerate(aval.shape) if i not in axes)
        return ShapedArray(shape, dtype_rule(aval))

    return rule


def _reduce_batch_rule(prim_name):
    def rule(args, bdims, *, axis):
        (x,), (d,) = args, bdims
        assert d == 0
        axes = _normalize_axis(axis, _ndim(x) - 1)
        shifted = tuple(a + 1 for a in axes)
        return bind(registry[prim_name], x, axis=shifted), 0

    return rule


def defreduction(name, np_fn, dtype_rule=lambda a: a.dtype, flops=1.0):
    prim = Primitive(
        name=name,
        impl=lambda x, *, axis: np_fn(x, axis=axis),
        shape_rule=_reduce_shape_rule(dtype_rule),
        kind="reduction",
        flops_per_element=flops,
    )
    prim.batch_rule = _reduce_batch_rule(name)
    return _register(prim)


reduce_sum_p = defreduction("reduce_sum", np.sum)
reduce_prod_p = defreduction("reduce_prod", np.prod)
reduce_min_p = defreduction("reduce_min", np.min)
reduce_max_p = defreduction("reduce_max", np.max)
reduce_mean_p = defreduction(
    "reduce_mean", np.mean, dtype_rule=lambda a: a.dtype
    if np.issubdtype(a.dtype, np.floating)
    else config.default_float(),
    flops=2.0,
)
reduce_any_p = defreduction("reduce_any", np.any, dtype_rule=lambda a: np.dtype(bool))
reduce_all_p = defreduction("reduce_all", np.all, dtype_rule=lambda a: np.dtype(bool))


# --------------------------------------------------------------------------- #
# Shape manipulation
# --------------------------------------------------------------------------- #


def _reshape_shape(aval: ShapedArray, *, shape) -> ShapedArray:
    shape = tuple(int(s) for s in shape)
    negs = [i for i, s in enumerate(shape) if s == -1]
    if len(negs) > 1:
        raise ShapeError("at most one -1 in a reshape target")
    if negs:
        known = 1
        for s in shape:
            if s != -1:
                known *= s
        if known == 0 or aval.size % known != 0:
            raise ShapeError(f"cannot reshape {aval.shape} into {shape}")
        shape = tuple(aval.size // known if s == -1 else s for s in shape)
    size = 1
    for s in shape:
        size *= s
    if size != aval.size:
        raise ShapeError(f"cannot reshape {aval.shape} (size {aval.size}) into {shape}")
    return ShapedArray(shape, aval.dtype)


reshape_p = _register(
    Primitive(
        "reshape",
        impl=_reshape_impl,
        shape_rule=_reshape_shape,
        batch_rule=_reshape_batch,
        kind="shape",
        flops_per_element=0.0,
    )
)


def _transpose_impl(x, *, perm):
    return np.transpose(x, perm)


def _transpose_shape(aval: ShapedArray, *, perm) -> ShapedArray:
    if sorted(perm) != list(range(aval.ndim)):
        raise ShapeError(f"bad permutation {perm} for rank {aval.ndim}")
    return ShapedArray(tuple(aval.shape[p] for p in perm), aval.dtype)


def _transpose_batch(args, bdims, *, perm):
    (x,), (d,) = args, bdims
    assert d == 0
    new_perm = (0,) + tuple(p + 1 for p in perm)
    return bind(transpose_p, x, perm=new_perm), 0


transpose_p = _register(
    Primitive(
        "transpose",
        impl=_transpose_impl,
        shape_rule=_transpose_shape,
        batch_rule=_transpose_batch,
        kind="shape",
        flops_per_element=0.0,
    )
)


def _broadcast_to_impl(x, *, shape):
    # Materialize: graph values are independent buffers, not views.
    return np.ascontiguousarray(np.broadcast_to(x, shape))


def _broadcast_to_shape(aval: ShapedArray, *, shape) -> ShapedArray:
    out = tuple(int(s) for s in shape)
    if np.broadcast_shapes(aval.shape, out) != out:
        raise ShapeError(f"cannot broadcast {aval.shape} to {out}")
    return ShapedArray(out, aval.dtype)


def _broadcast_to_batch(args, bdims, *, shape):
    (x,), (d,) = args, bdims
    assert d == 0
    b = _shape(x)[0]
    lr = len(shape)
    r = _ndim(x) - 1
    if r < lr:
        s = _shape(x)
        x = bind(reshape_p, x, shape=(b,) + (1,) * (lr - r) + s[1:])
    return bind(broadcast_to_p, x, shape=(b,) + tuple(shape)), 0


broadcast_to_p = _register(
    Primitive(
        "broadcast_to",
        impl=_broadcast_to_impl,
        shape_rule=_broadcast_to_shape,
        batch_rule=_broadcast_to_batch,
        kind="elementwise",
        flops_per_element=0.0,
    )
)


def _concatenate_impl(*xs, axis):
    return np.concatenate(xs, axis=axis)


def _concatenate_shape(*avals: ShapedArray, axis) -> ShapedArray:
    ndim = avals[0].ndim
    axis = axis + ndim if axis < 0 else axis
    if not 0 <= axis < ndim:
        raise ShapeError(f"concatenate axis {axis} out of range")
    base = list(avals[0].shape)
    total = 0
    for a in avals:
        if a.ndim != ndim:
            raise ShapeError("concatenate rank mismatch")
        for i in range(ndim):
            if i != axis and a.shape[i] != base[i]:
                raise ShapeError("concatenate shape mismatch off-axis")
        total += a.shape[axis]
    base[axis] = total
    return ShapedArray(tuple(base), _promote_dtype(*avals))


def _concatenate_batch(args, bdims, *, axis):
    b = None
    for a, d in zip(args, bdims):
        if d is not None:
            b = _shape(a)[0]
            break
    assert b is not None
    new_args = []
    for a, d in zip(args, bdims):
        if d is None:
            a = bind(broadcast_to_p, a, shape=(b,) + _shape(a))
        new_args.append(a)
    ax = axis if axis < 0 else axis + 1
    return bind(concatenate_p, *new_args, axis=ax), 0


concatenate_p = _register(
    Primitive(
        "concatenate",
        impl=_concatenate_impl,
        shape_rule=_concatenate_shape,
        batch_rule=_concatenate_batch,
        kind="shape",
        flops_per_element=0.0,
    )
)


# --------------------------------------------------------------------------- #
# Gather / scatter
# --------------------------------------------------------------------------- #


def _take_impl(operand, indices, *, axis, mode):
    return np.take(operand, indices, axis=axis, mode=mode)


def _take_shape(op_aval: ShapedArray, idx_aval: ShapedArray, *, axis, mode) -> ShapedArray:
    if not np.issubdtype(idx_aval.dtype, np.integer):
        raise ShapeError(f"take indices must be integers, got {idx_aval.dtype}")
    axis = axis + op_aval.ndim if axis < 0 else axis
    if not 0 <= axis < op_aval.ndim:
        raise ShapeError(f"take axis {axis} out of range")
    shape = op_aval.shape[:axis] + idx_aval.shape + op_aval.shape[axis + 1 :]
    return ShapedArray(shape, op_aval.dtype)


def _take_batch(args, bdims, *, axis, mode):
    (op, idx), (dop, didx) = args, bdims
    if axis != 0:
        raise NotImplementedError("vmap of take is implemented for axis=0")
    if dop is None and didx is not None:
        # Unbatched table, batched indices: plain take keeps batch in front.
        return bind(take_p, op, idx, axis=0, mode=mode), 0
    if dop is not None and didx is None:
        b = _shape(op)[0]
        idx_b = bind(broadcast_to_p, idx, shape=(b,) + _shape(idx))
        return _take_batch((op, idx_b), (0, 0), axis=axis, mode=mode)
    # Both batched: flatten the batch into the take axis.
    b = _shape(op)[0]
    n = _shape(op)[1]
    rest = _shape(op)[2:]
    flat_op = bind(reshape_p, op, shape=(b * n,) + rest)
    offs = np.arange(b, dtype=np.int64).reshape((b,) + (1,) * (_ndim(idx) - 1)) * n
    flat_idx = bind(add_p, idx, offs)
    out = bind(take_p, flat_op, flat_idx, axis=0, mode=mode)
    return out, 0


take_p = _register(
    Primitive(
        "gather",
        impl=_take_impl,
        shape_rule=_take_shape,
        batch_rule=_take_batch,
        kind="gather",
        flops_per_element=1.0,
    )
)

_SCATTER_MODES = ("set", "add", "multiply", "min", "max")
_SCATTER_UFUNCS = {
    "add": np.add,
    "multiply": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}


def _scatter_impl(operand, indices, updates, *, mode):
    out = np.array(operand, copy=True)
    idx = np.asarray(indices)
    if mode == "set":
        out[idx] = updates
        return out
    ufunc = _SCATTER_UFUNCS[mode]
    if out.ndim == 2 and idx.ndim == 1:
        # One column at a time takes NumPy's fast 1-D ``ufunc.at`` path
        # (several times faster than the 2-D call).  Each column still
        # sees its updates in stream order, so results are bitwise equal.
        upd = np.broadcast_to(updates, idx.shape + out.shape[1:])
        for k in range(out.shape[1]):
            ufunc.at(out[:, k], idx, upd[:, k])
    else:
        ufunc.at(out, idx, updates)
    return out


def _scatter_shape(
    op_aval: ShapedArray, idx_aval: ShapedArray, upd_aval: ShapedArray, *, mode
) -> ShapedArray:
    if mode not in _SCATTER_MODES:
        raise ShapeError(f"unknown scatter mode {mode!r}; one of {_SCATTER_MODES}")
    if not np.issubdtype(idx_aval.dtype, np.integer):
        raise ShapeError(f"scatter indices must be integers, got {idx_aval.dtype}")
    expected = idx_aval.shape + op_aval.shape[1:]
    if np.broadcast_shapes(upd_aval.shape, expected) != expected:
        raise ShapeError(
            f"scatter updates {upd_aval.shape} do not broadcast to {expected}"
        )
    return ShapedArray(op_aval.shape, op_aval.dtype)


def _scatter_batch(args, bdims, *, mode):
    (op, idx, upd), (dop, didx, dupd) = args, bdims
    # Normalize: batch everything, then flatten batch into the scatter axis.
    bs = [
        _shape(a)[0] for a, d in zip((op, idx, upd), (dop, didx, dupd)) if d is not None
    ]
    b = bs[0]
    if dop is None:
        op = bind(broadcast_to_p, op, shape=(b,) + _shape(op))
    if didx is None:
        idx = bind(broadcast_to_p, idx, shape=(b,) + _shape(idx))
    if dupd is None:
        upd = bind(broadcast_to_p, upd, shape=(b,) + _shape(upd))
    n = _shape(op)[1]
    rest = tuple(_shape(op)[2:])
    flat_op = bind(reshape_p, op, shape=(b * n,) + rest)
    offs = np.arange(b, dtype=np.int64).reshape((b,) + (1,) * (_ndim(idx) - 1)) * n
    flat_idx_shape = (int(np.prod((b,) + _shape(idx)[1:], dtype=np.int64)),)
    flat_idx = bind(reshape_p, bind(add_p, idx, offs), shape=flat_idx_shape)
    # Updates must fill (batch, *idx_logical, *operand_rest) before the
    # batch and index axes are flattened together.
    target = (b,) + tuple(_shape(idx)[1:]) + rest
    if _shape(upd) != target:
        if _ndim(upd) < len(target):
            # Insert singleton axes after the batch axis so the trailing
            # dims right-align under broadcasting.
            s = _shape(upd)
            upd = bind(reshape_p, upd, shape=(b,) + (1,) * (len(target) - _ndim(upd)) + s[1:])
        upd = bind(broadcast_to_p, upd, shape=target)
    flat_upd = bind(reshape_p, upd, shape=flat_idx_shape + rest)
    out = bind(scatter_p, flat_op, flat_idx, flat_upd, mode=mode)
    return bind(reshape_p, out, shape=(b, n) + rest), 0


scatter_p = _register(
    Primitive(
        "scatter",
        impl=_scatter_impl,
        shape_rule=_scatter_shape,
        batch_rule=_scatter_batch,
        kind="scatter",
        flops_per_element=2.0,
    )
)


# --------------------------------------------------------------------------- #
# Static indexing (slices etc.)
# --------------------------------------------------------------------------- #


def _slice_impl(x, *, idx):
    out = x[idx]
    return np.ascontiguousarray(out)


def _slice_shape(aval: ShapedArray, *, idx) -> ShapedArray:
    # Evaluate the indexing expression on a stride-0 dummy of the right
    # shape: no allocation proportional to the operand.
    dummy = np.broadcast_to(np.empty((), dtype=np.int8), aval.shape)
    try:
        out_shape = dummy[idx].shape
    except IndexError as e:
        raise ShapeError(f"bad static index {idx!r} for shape {aval.shape}: {e}") from None
    return ShapedArray(out_shape, aval.dtype)


def _slice_batch(args, bdims, *, idx):
    (x,), (d,) = args, bdims
    assert d == 0
    if not isinstance(idx, tuple):
        idx = (idx,)
    return bind(slice_p, x, idx=(slice(None),) + idx), 0


slice_p = _register(
    Primitive(
        "slice",
        impl=_slice_impl,
        shape_rule=_slice_shape,
        batch_rule=_slice_batch,
        kind="gather",
        flops_per_element=0.0,
    )
)


# --------------------------------------------------------------------------- #
# Contraction
# --------------------------------------------------------------------------- #


def _matmul_shape(a: ShapedArray, b: ShapedArray, **params) -> ShapedArray:
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError("matmul does not accept scalars")
    if a.ndim == 1 and b.ndim == 1:
        if a.shape[0] != b.shape[0]:
            raise ShapeError(f"matmul contraction mismatch {a.shape} @ {b.shape}")
        return ShapedArray((), _promote_dtype(a, b))
    if a.ndim == 1:
        if a.shape[0] != b.shape[-2]:
            raise ShapeError(f"matmul contraction mismatch {a.shape} @ {b.shape}")
        return ShapedArray(b.shape[:-2] + b.shape[-1:], _promote_dtype(a, b))
    if b.ndim == 1:
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul contraction mismatch {a.shape} @ {b.shape}")
        return ShapedArray(a.shape[:-1], _promote_dtype(a, b))
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul contraction mismatch {a.shape} @ {b.shape}")
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return ShapedArray(batch + (a.shape[-2], b.shape[-1]), _promote_dtype(a, b))


def _matmul_batch(args, bdims, **params):
    (a, b), (da, db) = args, bdims
    a_lr = _ndim(a) - (1 if da is not None else 0)  # logical ranks
    b_lr = _ndim(b) - (1 if db is not None else 0)
    if a_lr == 0 or b_lr == 0:
        raise ShapeError("matmul does not accept scalars")

    if a_lr == 1 and b_lr == 1:
        # Batched inner product: elementwise multiply + reduce.
        batch = _shape(a)[0] if da is not None else _shape(b)[0]
        if da is None:
            a = bind(broadcast_to_p, a, shape=(batch,) + _shape(a))
        if db is None:
            b = bind(broadcast_to_p, b, shape=(batch,) + _shape(b))
        return bind(reduce_sum_p, bind(multiply_p, a, b), axis=(1,)), 0

    if da is not None and db is not None:
        if a_lr == 1:
            s = _shape(a)
            a = bind(reshape_p, a, shape=(s[0], 1, s[1]))
            out, _ = _matmul_batch((a, b), (0, 0), **params)
            os = _shape(out)
            return bind(reshape_p, out, shape=os[:-2] + os[-1:]), 0
        if b_lr == 1:
            s = _shape(b)
            b = bind(reshape_p, b, shape=(s[0], s[1], 1))
            out, _ = _matmul_batch((a, b), (0, 0), **params)
            os = _shape(out)
            return bind(reshape_p, out, shape=os[:-1]), 0
        return bind(matmul_p, a, b), 0

    if da is not None:  # b unbatched
        if a_lr == 1 and b_lr > 2:
            raise NotImplementedError(
                "vmap of matmul with a batched vector against an unbatched "
                "stack of matrices is not supported"
            )
        # (B, ..., m, n) @ (..., n, k), (B, m, n) @ (n,), or (B, n) @ (n, k):
        # NumPy matmul semantics line the batch axis up correctly.
        return bind(matmul_p, a, b), 0

    # a unbatched, b batched.
    if b_lr >= 2:
        return bind(matmul_p, a, b), 0
    # b logical 1-D: promote to a stack of column vectors.
    s = _shape(b)
    b = bind(reshape_p, b, shape=(s[0], s[1], 1))
    out = bind(matmul_p, a, b)
    os = _shape(out)
    return bind(reshape_p, out, shape=os[:-1]), 0


matmul_p = _register(
    Primitive(
        "dot_general",
        impl=lambda a, b: np.matmul(a, b),
        shape_rule=_matmul_shape,
        batch_rule=_matmul_batch,
        kind="contraction",
        flops_per_element=2.0,
    )
)


# --------------------------------------------------------------------------- #
# Counter-based randomness (Threefry, like JAX's own PRNG)
# --------------------------------------------------------------------------- #


def _random_bits_impl(key, *, shape, dist):
    from ..rng import gaussian, uniform01

    key = np.asarray(key, dtype=np.uint64)
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    fn = gaussian if dist == "normal" else uniform01
    draws = fn(n, key=(int(key[0]), int(key[1])))
    return draws.reshape(shape)


def _random_bits_shape(key_aval: ShapedArray, *, shape, dist) -> ShapedArray:
    if key_aval.shape != (2,):
        raise ShapeError(f"PRNG keys have shape (2,), got {key_aval.shape}")
    return ShapedArray(tuple(shape), np.dtype(np.float64))


def _random_bits_batch(args, bdims, *, shape, dist):
    # Counter-based draws are keyed per row: slicing out each key and
    # binding the primitive again reproduces exactly the bits the
    # unbatched calls would have produced, so vmap(random) is a pure
    # reordering -- not a different stream.
    (keys,), (d,) = args, bdims
    assert d == 0
    n = _shape(keys)[0]
    shape = tuple(shape)
    rows = []
    for i in range(n):
        key = bind(slice_p, keys, idx=(i,))
        draw = bind(random_bits_p, key, shape=shape, dist=dist)
        rows.append(bind(reshape_p, draw, shape=(1,) + shape))
    if len(rows) == 1:
        return rows[0], 0
    return bind(concatenate_p, *rows, axis=0), 0


random_bits_p = _register(
    Primitive(
        "rng_bits",
        impl=_random_bits_impl,
        shape_rule=_random_bits_shape,
        batch_rule=_random_bits_batch,
        kind="random",
        flops_per_element=40.0,
    )
)


# --------------------------------------------------------------------------- #
# Static-index scatter (functional update with slice/int indices)
# --------------------------------------------------------------------------- #


def _scatter_static_impl(operand, updates, *, idx, mode):
    out = np.array(operand, copy=True)
    if mode == "set":
        out[idx] = updates
    elif mode == "add":
        out[idx] += updates
    elif mode == "multiply":
        out[idx] *= updates
    else:  # pragma: no cover - guarded by the shape rule
        raise ValueError(f"unknown static scatter mode {mode}")
    return out


def _scatter_static_shape(op_aval: ShapedArray, upd_aval: ShapedArray, *, idx, mode):
    if mode not in ("set", "add", "multiply"):
        raise ShapeError(f"unknown static scatter mode {mode!r}")
    dummy = np.broadcast_to(np.empty((), np.int8), op_aval.shape)
    try:
        target_shape = dummy[idx].shape
    except IndexError as e:
        raise ShapeError(f"bad static index {idx!r} for shape {op_aval.shape}: {e}") from None
    if np.broadcast_shapes(upd_aval.shape, target_shape) != target_shape:
        raise ShapeError(
            f"updates {upd_aval.shape} do not broadcast to target {target_shape}"
        )
    return ShapedArray(op_aval.shape, op_aval.dtype)


def _scatter_static_batch(args, bdims, *, idx, mode):
    (op, upd), (dop, dupd) = args, bdims
    b = _shape(op)[0] if dop is not None else _shape(upd)[0]
    if dop is None:
        op = bind(broadcast_to_p, op, shape=(b,) + _shape(op))
    if not isinstance(idx, tuple):
        idx = (idx,)
    new_idx = (slice(None),) + idx
    if dupd is None:
        # Unbatched updates broadcast across the batch axis naturally.
        return bind(scatter_static_p, op, upd, idx=new_idx, mode=mode), 0
    # Batched updates: the update target gains a leading batch axis, and the
    # batched updates already carry theirs at axis 0, so shapes line up.
    return bind(scatter_static_p, op, upd, idx=new_idx, mode=mode), 0


scatter_static_p = _register(
    Primitive(
        "scatter_static",
        impl=_scatter_static_impl,
        shape_rule=_scatter_static_shape,
        batch_rule=_scatter_static_batch,
        kind="scatter",
        flops_per_element=1.0,
    )
)


# --------------------------------------------------------------------------- #
# Remaining elementwise predicates
# --------------------------------------------------------------------------- #

isfinite_p = defelementwise("isfinite", np.isfinite, dtype_rule=_bool_dtype)
isnan_p = defelementwise("isnan", np.isnan, dtype_rule=_bool_dtype)


# --------------------------------------------------------------------------- #
# Prefix operations
# --------------------------------------------------------------------------- #


def _cumsum_impl(x, *, axis):
    return np.cumsum(x, axis=axis)


def _cumsum_shape(aval: ShapedArray, *, axis) -> ShapedArray:
    ax = axis + aval.ndim if axis < 0 else axis
    if not 0 <= ax < max(aval.ndim, 1):
        raise ShapeError(f"cumsum axis {axis} out of range for rank {aval.ndim}")
    return ShapedArray(aval.shape, aval.dtype)


def _cumsum_batch(args, bdims, *, axis):
    (x,), (d,) = args, bdims
    assert d == 0
    ax = axis if axis < 0 else axis + 1
    return bind(cumsum_p, x, axis=ax), 0


cumsum_p = _register(
    Primitive(
        "cumsum",
        impl=_cumsum_impl,
        shape_rule=_cumsum_shape,
        batch_rule=_cumsum_batch,
        # A scan breaks elementwise fusion like a reduction does.
        kind="reduction",
        flops_per_element=1.0,
    )
)

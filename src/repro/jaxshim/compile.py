"""Compiled executables: blocked execution of fusion groups plus device
cost accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs import state as obs_state
from ..utils import blocking
from .core import Eqn, Graph, Var, aval_of
from .devices import current_device
from .fusion import escaping_outputs, fusion_groups, group_cost
from .primitives import _normalize_axis

__all__ = ["CompiledFunction", "estimate_compile_time"]

# Where a step reads an operand from: the current tile's values, rows
# ``[lo, hi)`` of a full-size value, or a full-size value used whole.
_TILE, _ROWS, _WHOLE = range(3)


def estimate_compile_time(n_eqns: int) -> float:
    """Modeled XLA compile time: a fixed front-end cost plus per-op work.

    Real XLA compiles of TOAST-sized kernels take tens to hundreds of
    milliseconds; the paper includes this JIT time in every reported
    runtime, so the model must charge it on first trace.
    """
    return 0.080 + 0.004 * n_eqns


@dataclass(slots=True)
class _Step:
    """One equation of a group plan."""

    impl: Any
    args: Tuple[Tuple[int, Any], ...]  # (source, env key or tile uid)
    params: Dict[str, Any]
    #: ``shape`` param tail for reshape/broadcast_to, rewritten per tile.
    tail: Optional[Tuple[int, ...]]
    out: int
    escapes: bool  # written to a full-size value in ``env``
    keep: bool  # a later step of the tile reads it
    drop: Tuple[int, ...]  # tile values whose last reader is this step


@dataclass
class _GroupPlan:
    """How one fusion group runs: its steps, in program order, over row
    tiles ``[lo, hi)`` of its leading axis."""

    steps: List[_Step]
    n_rows: int
    #: Lanes per row that size the tiles; 0 runs a single tile of all rows.
    lanes_per_row: int
    #: ``env`` entries no later group reads, dropped after this group.
    release: Tuple[int, ...]

    def rows_per_tile(self) -> int:
        """Rows per tile at the current ``BLOCK_LANES``."""
        if not self.lanes_per_row:
            return max(self.n_rows, 1)
        return blocking.rows_per_block(self.lanes_per_row)


def _row_operands(eqn: Eqn, n_rows: int) -> Optional[List[bool]]:
    """Per operand, whether a row tile of the output reads it row-sliced
    (True) or whole (False); None when the equation cannot run on row
    tiles of its leading axis."""
    out = eqn.out.aval
    if out.ndim == 0 or out.shape[0] != n_rows:
        return None
    avals = [a.aval if isinstance(a, Var) else aval_of(a) for a in eqn.inputs]
    leads = [a.ndim >= 1 and a.shape[0] == n_rows for a in avals]
    name, kind, params = eqn.prim.name, eqn.prim.kind, eqn.params
    if name == "broadcast_to":
        (a,) = avals
        if a.ndim == out.ndim and leads[0]:
            return [True]
        return [False] if a.ndim < out.ndim or a.shape[0] == 1 else None
    if kind == "elementwise":
        rows = []
        for a, lead in zip(avals, leads):
            if a.ndim == out.ndim and lead:
                rows.append(True)
            elif a.ndim < out.ndim or a.shape[0] == 1:
                rows.append(False)
            else:
                return None
        return rows
    if name == "gather":
        axis = params["axis"] + (avals[0].ndim if params["axis"] < 0 else 0)
        return [False, True] if axis == 0 and leads[1] else None
    if not leads[0]:
        return None
    if name in ("reshape", "concatenate"):
        if name == "concatenate" and _normalize_axis(params["axis"], out.ndim) == (0,):
            return None
        return [True] * len(avals)
    if name == "transpose":
        return [True] if params["perm"][0] == 0 else None
    if name == "slice":
        idx = params["idx"] if isinstance(params["idx"], tuple) else (params["idx"],)
        basic = all(
            i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice))
            for i in idx
        )
        return [True] if basic and idx and idx[0] == slice(None) else None
    if kind == "reduction":
        return None if 0 in _normalize_axis(params["axis"], avals[0].ndim) else [True]
    return None


#: A group is cut into row tiles only when the full-size intermediates
#: that tiling elides outweigh, by this factor in bytes, the tiled values
#: it must still copy out whole.  Short chains whose values mostly escape
#: ran slower tiled (per-tile call overhead plus the copy-out).  On the
#: jax_compiled_device benchmark the tileable groups' ratios are at most
#: 2 or at least 8, so any factor in (2, 8] tiles the same groups.
_MIN_ELIDED_PER_ESCAPING = 4


def _leading_rows(graph: Graph, group: Sequence[int]) -> int:
    """Leading dimension of the group's widest output (0 if none)."""
    best = None
    for i in group:
        aval = graph.eqns[i].out.aval
        if aval.ndim and aval.shape[0] and (best is None or aval.size > best.size):
            best = aval
    return best.shape[0] if best is not None else 0


def _tile_lanes(steps: List[_Step], avals: Dict[int, Any], n_rows: int) -> int:
    """Lanes per row that size the tiles: the median row width of the
    group's values, or 0 (a single tile) when tiling would not pay."""
    elided = sum(avals[s.out].nbytes for s in steps if not s.escapes)
    copied = sum(avals[s.out].nbytes for s in steps if s.escapes)
    if not n_rows or elided < _MIN_ELIDED_PER_ESCAPING * copied:
        return 0
    widths = sorted(avals[s.out].size // n_rows for s in steps)
    return widths[len(widths) // 2]


def _plan_group(
    graph: Graph, group: Sequence[int], key_of: Dict[int, Any]
) -> _GroupPlan:
    """Plan one fusion group; ``key_of`` maps constant ids to env keys.

    When every equation can run on row tiles of the group's leading axis
    (:func:`_row_operands`) and reads the group's own values row-sliced,
    the group is tiled.  Otherwise it runs as a single tile of all its
    rows, every step reading its operands whole.
    """
    eqns = [graph.eqns[i] for i in group]
    escaping = escaping_outputs(graph, list(group))
    n_rows = _leading_rows(graph, group)
    produced = {e.out.uid for e in eqns}

    def in_group(atom) -> bool:
        return isinstance(atom, Var) and atom.uid in produced

    rows = [_row_operands(e, n_rows) for e in eqns]
    tiled = all(
        r is not None and all(ok or not in_group(a) for a, ok in zip(e.inputs, r))
        for e, r in zip(eqns, rows)
    )
    if not tiled:
        rows = [[False] * len(e.inputs) for e in eqns]

    args = [
        tuple(
            (_TILE, a.uid) if in_group(a)
            else (_ROWS if ok else _WHOLE, a.uid if isinstance(a, Var) else key_of[id(a)])
            for a, ok in zip(e.inputs, r)
        )
        for e, r in zip(eqns, rows)
    ]
    # Last reader of each group value, by step index.
    last: Dict[int, int] = {}
    for j, step_args in enumerate(args):
        for src, k in step_args:
            if src == _TILE:
                last[k] = j
    drops: Dict[int, List[int]] = {}
    for uid, j in last.items():
        drops.setdefault(j, []).append(uid)

    resized = ("reshape", "broadcast_to") if tiled else ()
    steps = [
        _Step(
            e.prim.impl,
            args[j],
            e.params,
            e.out.aval.shape[1:] if e.prim.name in resized else None,
            e.out.uid,
            e.out.uid in escaping,
            e.out.uid in last,
            tuple(drops.get(j, ())),
        )
        for j, e in enumerate(eqns)
    ]
    avals = {e.out.uid: e.out.aval for e in eqns}
    lanes = _tile_lanes(steps, avals, n_rows) if tiled else 0
    return _GroupPlan(steps, n_rows, lanes, ())


def _run_group(plan: _GroupPlan, env: Dict[Any, Any]) -> None:
    n = plan.n_rows
    per = plan.rows_per_tile()
    for lo in range(0, max(n, 1), per):
        hi = min(lo + per, n)
        whole = lo == 0 and hi >= n
        tile: Dict[int, Any] = {}
        for s in plan.steps:
            args = [
                tile[k] if src == _TILE else env[k][lo:hi] if src == _ROWS else env[k]
                for src, k in s.args
            ]
            params = s.params if s.tail is None else {"shape": (hi - lo,) + s.tail}
            val = s.impl(*args, **params)
            if s.escapes:
                if whole:
                    env[s.out] = val
                else:
                    if lo == 0:
                        env[s.out] = np.empty((n,) + val.shape[1:], val.dtype)
                    env[s.out][lo:hi] = val
            if s.keep:
                tile[s.out] = val
            for k in s.drop:
                del tile[k]
    for k in plan.release:
        del env[k]


class CompiledFunction:
    """An executable compiled graph.

    Runs each fusion group as one blocked pass, the host counterpart of
    XLA fusing a kernel and eliding its intermediates.  A group's leading
    axis (the ``vmap``/detector axis) is cut into row tiles of about
    ``repro.utils.blocking.BLOCK_LANES`` lanes and every equation runs on
    one tile at a time, so intermediates live one cache-sized tile at a
    time and only values read outside the group are written to full-size
    arrays.  A group that breaks the tiling rules, or whose values mostly
    escape anyway, runs as a single tile of all its rows.  Every lane's
    arithmetic is unchanged, so results are bitwise identical at any tile
    size.  Plans are built here, once per trace; each value is dropped
    after its last reader.

    When a simulated device is attached, each call charges modeled kernel
    time: one launch per fusion group, each costed with a roofline
    ``max(flops / peak, bytes / bandwidth)``.
    """

    def __init__(
        self,
        graph: Graph,
        name: str = "jit_fn",
        donated_in_idx: Optional[Set[int]] = None,
    ):
        self.graph = graph
        self.name = name
        self.donated_in_idx = donated_in_idx or set()
        self.groups = fusion_groups(graph)
        self.costs = [group_cost(graph, g) for g in self.groups]
        self.n_calls = 0
        self.donated_bytes_last_call = 0
        self._consts: Dict[Any, Any] = {}
        key_of: Dict[int, Any] = {}
        for atom in [a for e in graph.eqns for a in e.inputs] + list(graph.out_atoms):
            if not isinstance(atom, Var) and id(atom) not in key_of:
                key_of[id(atom)] = ("const", len(key_of))
                self._consts[key_of[id(atom)]] = atom
        self._in_uids = [v.uid for v in graph.in_vars]
        self._out_keys = [
            a.uid if isinstance(a, Var) else key_of[id(a)] for a in graph.out_atoms
        ]
        self.plans = [_plan_group(graph, g, key_of) for g in self.groups]
        self._set_releases()

    def _set_releases(self) -> None:
        """Drop each full-size value after the last group that reads it."""
        keep = set(self._in_uids) | set(self._out_keys) | set(self._consts)
        last: Dict[Any, int] = {}
        for gi, plan in enumerate(self.plans):
            for s in plan.steps:
                if s.escapes:
                    last.setdefault(s.out, gi)
                for src, k in s.args:
                    if src != _TILE:
                        last[k] = gi
        for gi, plan in enumerate(self.plans):
            plan.release = tuple(k for k, g in last.items() if g == gi and k not in keep)

    @property
    def n_kernels(self) -> int:
        """Kernel launches per call (after fusion)."""
        return len(self.groups)

    @property
    def n_eqns(self) -> int:
        return self.graph.n_eqns

    def modeled_execution_time(self, device) -> float:
        """Roofline seconds for one call on ``device`` (excl. launch cost)."""
        spec = device.spec
        total = 0.0
        for flops, nbytes in self.costs:
            total += max(flops / spec.peak_fp64_flops, nbytes / spec.memory_bandwidth_bps)
        return total

    def modeled_execution_time_unfused(self, device) -> float:
        """The counterfactual without fusion: one kernel per equation,
        every intermediate written to and read back from device memory.

        Quantifies what the paper credits the XLA compiler with ("fuse
        kernels and elide intermediate results", §2.3).
        """
        spec = device.spec
        total = 0.0
        for i, _ in enumerate(self.graph.eqns):
            flops, nbytes = group_cost(self.graph, [i])
            total += (
                max(flops / spec.peak_fp64_flops, nbytes / spec.memory_bandwidth_bps)
                + spec.kernel_launch_overhead_s
            )
        return total

    def __call__(self, *leaf_values: np.ndarray) -> List[np.ndarray]:
        if len(leaf_values) != len(self.graph.in_vars):
            raise TypeError(
                f"{self.name} expects {len(self.graph.in_vars)} array leaves, "
                f"got {len(leaf_values)}"
            )
        self.n_calls += 1

        device = current_device()
        if device is not None:
            device.launch(
                self.name,
                self.modeled_execution_time(device),
                n_launches=max(1, self.n_kernels),
            )

        if self.donated_in_idx:
            self.donated_bytes_last_call = sum(
                leaf_values[i].nbytes
                for i in self.donated_in_idx
                if i < len(leaf_values)
            )
        else:
            # Most compiled functions donate nothing; skip the per-call
            # generator walk entirely on that hot path.
            self.donated_bytes_last_call = 0

        tr = obs_state.active
        if tr is not None:
            # The launch itself was already traced by the device hook under
            # this executable's name; add the compiler-side aggregates.
            tr.metrics.count("jit.calls")
            if self.donated_bytes_last_call:
                tr.metrics.count("jit.donated_bytes", self.donated_bytes_last_call)

        env: Dict[Any, Any] = dict(self._consts)
        env.update(zip(self._in_uids, leaf_values))
        for plan in self.plans:
            _run_group(plan, env)
        return [env[k] for k in self._out_keys]

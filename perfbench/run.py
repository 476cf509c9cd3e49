#!/usr/bin/env python3
"""The repository's benchmark: the satellite workflow, one map per iteration.

Run from the root of a checkout::

    python3 perfbench/run.py --workload host_numpy --seed 1 --seconds 25 --trace 0

Workloads are listed in ``workloads.py``.  The loop is closed with one
caller: the next iteration starts when the previous one returns.  Set-up
(imports, a reference run through another kernel backend, and the warm-up
iteration, repeated) happens before the timed loop.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations and prints the per-layer metrics of the traced ones plus the
tracing overhead.  Every iteration's maps are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Warm-up iterations in set-up; ``setup_s`` uses their median.
SETUP_REPEATS = 3
#: ``wall_s.tail`` is the slowest sample with this many samples beyond it.
TAIL_BEYOND = 10
#: Timed iterations at least run, whatever ``--seconds`` says.
MIN_ITERATIONS = TAIL_BEYOND + 1
#: The timed loop stops here even short of ``MIN_ITERATIONS``.
DEADLINE_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class NoSuccess(RuntimeError):
    """Every timed iteration failed, so there is no timing to report."""


def cap_threads() -> None:
    """Cap BLAS/OpenMP thread pools at the CPUs this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or int(cur) > n:
            os.environ[var] = str(n)


def proc_status_mb(field: str) -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/self/status")


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark (VmHWM) to the current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def code_digest() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def tail(walls: List[float]) -> float:
    """The slowest sample with ``TAIL_BEYOND`` samples beyond it (or the
    slowest, when there are too few)."""
    ordered = sorted(walls)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def varying_counts(iterations: List[Dict[str, float]], exact: List[str]) -> List[str]:
    """Self-check: every exact metric repeats across iterations."""
    problems = []
    for name in exact:
        values = [it[name] for it in iterations if name in it]
        if len(set(values)) > 1:
            problems.append(f"{name} varies across iterations: {sorted(set(values))}")
    return problems


def persist_counts(path: Path, counts: Dict[str, float]) -> List[str]:
    """Self-check across runs: compare with the counts an earlier run of
    the same code, workload and seed recorded, then record the union."""
    earlier = json.loads(path.read_text()) if path.exists() else {}
    problems = [
        f"{name} differs from an earlier run: {earlier[name]!r} then {value!r}"
        for name, value in counts.items()
        if name in earlier and earlier[name] != value
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**earlier, **counts}, sort_keys=True))
    os.replace(tmp, path)
    return problems


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    min_iterations: int = MIN_ITERATIONS,
    import_s: float = 0.0,
    state_dir: Optional[Path] = None,
    tamper: Optional[Callable[[int, Dict], None]] = None,
) -> Dict:
    """Set up, run the timed loop, check, and return the report.

    ``tamper(i, maps)`` may alter iteration ``i``'s maps before the check
    (the benchmark's own test uses it to prove the check fires).
    """
    from calibration import Scaler
    from layers import LayerRecorder
    from metrics import END_TO_END, PER_LAYER, UNITS, is_exact
    from workloads import WORKLOADS, check_maps, clear_jit_caches, reference_maps, run_iteration

    w = WORKLOADS[workload]
    size = w.smoke_size if smoke else w.size
    realization = seed % 2**31

    def run():
        return run_iteration(size, realization, w.impl, w.device, w.plan)

    reference = reference_maps(w, size, realization)
    ref_name = w.ref_impl.value
    problems: List[str] = []
    scaler = Scaler()
    import_scaled = scaler.scale(import_s)
    warm, warm_scaled, anchor = [], [], None
    for _ in range(SETUP_REPEATS):
        clear_jit_caches()
        gc.collect()
        t0 = perf_counter()
        maps, _ = run()
        warm.append(perf_counter() - t0)
        warm_scaled.append(scaler.scale(warm[-1]))
        problems += [f"set-up: {p}" for p in check_maps(maps, reference, anchor, ref_name)]
        anchor = anchor or maps
    setup_s = import_scaled + statistics.median(warm_scaled)
    del maps
    gc.collect()
    reset_peak_rss()

    plain: List[tuple] = []
    scaled: List[float] = []
    traced: List[tuple] = []
    rss: List[tuple] = []
    attempts = {False: 0, True: 0}
    failed = 0
    layer_names = [n for n, _ in PER_LAYER if n != "tracing.overhead_s"]
    t_start = perf_counter()
    while perf_counter() - t_start < DEADLINE_S:
        short = attempts[False] < min_iterations or (trace and attempts[True] < min_iterations)
        if perf_counter() - t_start >= seconds and not short:
            break
        with_trace = trace and attempts[False] > attempts[True]
        attempts[with_trace] += 1
        gc.collect()
        before = proc_status_mb("VmRSS")
        rec = LayerRecorder() if with_trace else None
        try:
            with rec.installed() if rec is not None else nullcontext():
                t0 = perf_counter()
                maps, counts = run()
                wall = perf_counter() - t0
            wall_scaled = scaler.scale(wall)
            if tamper is not None:
                tamper(sum(attempts.values()) - 1, maps)
            bad = check_maps(maps, reference, anchor, ref_name)
        except Exception:
            bad = [traceback.format_exc()]
        maps = None
        rss.append((before, proc_status_mb("VmRSS")))
        if bad:
            failed += 1
            print(f"iteration {sum(attempts.values())} failed: " + "; ".join(bad), file=sys.stderr)
        elif rec is not None:
            counts.update(rec.metrics())
            traced.append((wall, {n: counts.get(n, 0.0) for n in layer_names}))
        else:
            plain.append((wall, counts))
            scaled.append(wall_scaled)
    peak_rss_mb = proc_status_mb("VmHWM")
    if not plain or (trace and not traced):
        raise NoSuccess(f"{workload}: no iteration succeeded; nothing to report")

    exact = [n for n in UNITS if is_exact(n)]
    iteration_counts = [c for _, c in plain + traced]
    problems += varying_counts(iteration_counts, exact)
    if trace and traced[0][1]["jaxshim.cache_misses"]:
        problems.append("jaxshim.cache_misses > 0 in timed iterations")
    exact_counts = {n: v for c in iteration_counts for n, v in c.items() if is_exact(n)}
    if state_dir is not None:
        key = f"{workload}-{seed}-{'smoke' if smoke else 'full'}-{code_digest()}.json"
        problems += persist_counts(state_dir / key, exact_counts)

    walls = [wall for wall, _ in plain]
    if trace:
        metrics = {
            n: statistics.median(c[n] for _, c in traced) for n in layer_names
        }
        metrics["tracing.overhead_s"] = statistics.median(
            wall for wall, _ in traced
        ) - statistics.median(walls)
        names = [n for n, _ in PER_LAYER]
    else:
        metrics = {
            "wall_s.p50": statistics.median(scaled),
            "wall_s.tail": tail(scaled),
            "samples_per_s": size.total_samples * len(scaled) / sum(scaled),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        names = [n for n, _ in END_TO_END]
    return {
        "workload": workload,
        "size": size,
        "correct": failed == 0 and not problems,
        "attempted": sum(attempts.values()),
        "failed": failed,
        "problems": problems,
        "metrics": {n: metrics[n] for n in names},
        "iterations": len(walls),
        "raw_wall_s": {"min": min(walls), "p50": statistics.median(walls), "tail": tail(walls)},
        "speed_factor": statistics.median(scaler.factors),
        "traced_iterations": len(traced),
        "counts": exact_counts,
        "rss_mb": rss,
        "setup": {"import_s": import_s, "warmup_s": warm, "scaled_s": setup_s},
    }


def print_report(report: Dict) -> None:
    from metrics import UNITS, clock_of

    size = report["size"]
    n = report["iterations"]
    print(
        f"perfbench {report['workload']}: {size.n_observations} obs x "
        f"{size.n_detectors} det x {size.n_samples} samples (nside {size.nside}) = "
        f"{size.total_samples} detector samples per iteration; closed loop, 1 caller"
    )
    print(
        f"iterations: {n} untraced, {report['traced_iterations']} traced; "
        f"wall_s.tail = slowest with {min(TAIL_BEYOND, max(n - 1, 0))} beyond "
        f"(p{100.0 * (n - min(TAIL_BEYOND, n - 1)) / n:.0f} of {n})"
    )
    raw = report["raw_wall_s"]
    print(
        f"wall times are scaled to the reference host speed (calibration.py); median "
        f"factor {report['speed_factor']:.3f}; unscaled untraced min {raw['min']:.4f} s, "
        f"p50 {raw['p50']:.4f} s, tail {raw['tail']:.4f} s (wall)"
    )
    print(
        f"fail_frac = {report['failed']}/{report['attempted']} "
        f"(count); setup {report['setup']['scaled_s']:.3f} s scaled; unscaled imports "
        f"{report['setup']['import_s']:.3f} s + warm-ups "
        + ", ".join(f"{s:.3f}" for s in report["setup"]["warmup_s"])
        + " s (wall)"
    )
    rss = report["rss_mb"]
    print(
        f"rss_mb before/after iteration: first {rss[0][0]:.1f}/{rss[0][1]:.1f}, "
        f"last {rss[-1][0]:.1f}/{rss[-1][1]:.1f}, growth {rss[-1][1] - rss[0][0]:+.1f} MB"
        f" over {len(rss)} iterations (wall)"
    )
    for name, value in sorted(report["counts"].items()):
        if name not in report["metrics"]:
            print(f"  {name:<46} {value:>16.10g} {UNITS[name]:<10} {clock_of(name)}")
    print(f"  {'metric':<46} {'value':>16} {'unit':<10} clock")
    for name, value in report["metrics"].items():
        print(f"  {name:<46} {value:>16.10g} {UNITS[name]:<10} {clock_of(name)}")
    verdict = "passed" if not report["problems"] else "FAILED: " + "; ".join(report["problems"])
    print(f"self-check (maps vs reference, bitwise repeat, exact counts): {verdict}")


def main(argv: Optional[List[str]] = None) -> int:
    t_import = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="run at the small smoke size"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2

    cap_threads()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import layers  # noqa: F401  (imports the program: part of set-up)
    import workloads

    import_s = perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    try:
        report = measure(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            smoke=args.smoke,
            import_s=import_s,
            state_dir=HERE / ".state",
        )
    except NoSuccess as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print_report(report)
    from metrics import UNITS

    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    n: {"value": v, "unit": UNITS[n]} for n, v in report["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

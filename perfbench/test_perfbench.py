"""The benchmark's own test: one-iteration smokes of each workload at a small size.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibration  # noqa: E402
import run  # noqa: E402
from metrics import CLOCK_OF_UNIT, UNITS, clock_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SECTION = {0: "end_to_end", 1: "per_layer"}


def smoke(workload: str, trace: bool, **kwargs):
    kwargs.setdefault("min_iterations", 1)
    return run.measure(workload, seed=7, seconds=0, trace=trace, smoke=True, **kwargs)


@pytest.fixture(scope="module")
def traced():
    return {w: smoke(w, True) for w in WORKLOADS}


def test_benchmark_json_matches_the_catalogue():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert m["unit"] == UNITS[m["name"]], m["name"]
        assert m["unit"] in CLOCK_OF_UNIT, m["name"]
    for section in SECTION.values():
        assert {m["name"] for m in BENCH[section]} <= set(UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_unit_and_clock(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[SECTION[trace]]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    table = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.startswith("  ")}
    for name, unit in expected.items():
        assert table[name][1:] == [unit, clock_of(name)], name


def test_layer_split(traced):
    for report in traced.values():
        assert report["correct"], report["problems"]
        assert report["metrics"]["dispatch.calls"] > 0
        assert report["metrics"]["mapmaker.iterations"] > 0
    host, jax, omp = (traced[w]["metrics"] for w in WORKLOADS)
    assert jax["jaxshim.exec_s"] > 0 and jax["jaxshim.exec_calls"] > 0
    assert host["jaxshim.exec_s"] == 0 and omp["jaxshim.exec_s"] == 0
    assert omp["ompshim.regions"] > 0
    assert host["ompshim.regions"] == 0 and jax["ompshim.regions"] == 0
    assert jax["compilepipe.plan_s"] > 0 and omp["compilepipe.plan_s"] == 0
    assert jax["jaxshim.cache_misses"] == 0
    accel = [n for n in host if n.startswith("accel.")] + ["virtual_s"]
    assert all(host[n] == 0 for n in accel)
    assert all(jax[n] > 0 and omp[n] > 0 for n in accel)


def _bump_largest(maps, key, new_value):
    maps[key] = maps[key].copy()
    flat = maps[key].reshape(-1)
    i = int(np.nanargmax(np.abs(flat)))
    flat[i] = new_value(flat[i])


@pytest.mark.parametrize(
    "perturb",
    [lambda v: v * (1 + 1e-9), lambda v: np.nextafter(v, np.inf)],
    ids=["beyond-tolerance", "one-ulp"],
)
@pytest.mark.parametrize("key", ["zmap", "destriped_map"])
def test_a_perturbed_map_is_a_failed_iteration(key, perturb):
    def tamper(i, maps):
        if i == 1:
            _bump_largest(maps, key, perturb)

    report = smoke("host_numpy", False, min_iterations=3, tamper=tamper)
    assert report["attempted"] == 3
    assert report["failed"] == 1
    assert report["correct"] is False


def test_count_self_check_names_the_metric(tmp_path):
    problems = run.varying_counts([{"virtual_s": 1.0}, {"virtual_s": 2.0}], ["virtual_s"])
    assert len(problems) == 1 and "virtual_s" in problems[0]
    state = tmp_path / "counts.json"
    assert run.persist_counts(state, {"dispatch.calls": 70}) == []
    assert run.persist_counts(state, {"dispatch.calls": 70}) == []
    problems = run.persist_counts(state, {"dispatch.calls": 71})
    assert len(problems) == 1 and "dispatch.calls" in problems[0]


def test_scaling_uses_the_calibrations_either_side(monkeypatch):
    times = iter([0.0125, 0.025, 0.025, 0.0125])
    monkeypatch.setattr(calibration, "calibrate", lambda: next(times))
    scaler = calibration.Scaler()
    assert scaler.scale(3.0) == pytest.approx(3.0 * 0.0125 / 0.01875)
    assert scaler.scale(3.0) == pytest.approx(1.5)
    assert scaler.scale(3.0) == pytest.approx(2.0)

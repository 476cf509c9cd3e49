"""Tests for the repro-bench command-line interface."""

import pytest

from repro.workflows.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "tiny", "numpy", "--naive"])
        assert args.size == "tiny"
        assert args.backend == "numpy"
        assert args.naive

    def test_paper_sizes_not_runnable(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "paper_medium", "numpy"])

    def test_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "tiny", "cuda"])

    def test_seed_flag_on_run_and_trace_and_faults(self):
        assert build_parser().parse_args(["run", "tiny", "numpy", "--seed", "3"]).seed == 3
        assert build_parser().parse_args(["trace", "tiny", "jax", "--seed", "4"]).seed == 4
        args = build_parser().parse_args(
            ["faults", "tiny", "jax", "--plan", "transient-transfer", "--seed", "5"]
        )
        assert args.seed == 5
        assert args.plan == "transient-transfer"

    def test_unknown_fault_plan_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "tiny", "jax", "--plan", "nope"])

    def test_ingest_args(self):
        args = build_parser().parse_args(
            ["ingest", "--smoke", "--procs", "1,4", "--budget", "4096"]
        )
        assert args.smoke
        assert args.procs == "1,4"
        assert args.budget == 4096
        assert args.size == "tiny"
        assert args.backend == "numpy"


class TestCommands:
    def test_figures(self, capsys, tmp_path):
        assert main(["figures", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig 4" in out and "Fig 6" in out
        assert (tmp_path / "fig5_full_benchmark.txt").exists()

    def test_run_numpy(self, capsys):
        assert main(["run", "tiny", "numpy", "--no-mapmaking"]) == 0
        out = capsys.readouterr().out
        assert "wall time" in out

    def test_run_accel(self, capsys):
        assert main(["run", "tiny", "omp_target", "--no-mapmaking"]) == 0
        out = capsys.readouterr().out
        assert "virtual device time" in out
        assert "kernel launches" in out

    def test_sweep(self, capsys):
        assert main(["sweep"]) == 0
        assert "OOM" in capsys.readouterr().out

    def test_sweep_no_mps(self, capsys):
        assert main(["sweep", "--no-mps"]) == 0
        assert "MPS OFF" in capsys.readouterr().out

    def test_loc(self, capsys):
        assert main(["loc"]) == 0
        out = capsys.readouterr().out
        assert "Fig 2" in out and "Fig 3" in out

    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "pixels_healpix" in out
        assert "omp_target" in out
        assert "cov_accum_diag_hits" in out
        assert "MISSING" not in out
        assert "no spec" not in out

    def test_kernels_json(self, capsys):
        import json

        assert main(["kernels", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-kernels/1"
        by_name = {k["name"]: k for k in doc["kernels"]}
        # The 12 paper + extension kernels are all spec'd and complete;
        # synthetic kernels registered by other tests may add more rows.
        assert len(by_name) >= 12
        for name in ("scan_map", "build_noise_weighted", "cov_accum_diag_hits"):
            rec = by_name[name]
            assert rec["complete"]
            assert rec["spec"] is not None
            assert rec["missing"] == []
            assert set(rec["implementations"]) == {
                "python", "numpy", "jax", "omp_target"
            }
            assert rec["fallback_order"][0] == "jax"
        assert by_name["scan_map"]["spec"]["outputs"] == ["tod"]

    def test_run_with_seed_changes_realization(self, capsys):
        assert main(["run", "tiny", "numpy", "--no-mapmaking", "--seed", "2"]) == 0
        assert "wall time" in capsys.readouterr().out

    def test_kernels_reports_batching_coverage(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "megabatch" in out
        assert "batching rules:" in out
        assert "UNWAIVED" not in out

    def test_kernels_json_batching_rules(self, capsys):
        import json

        assert main(["kernels", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        br = doc["batching_rules"]
        assert len(br["primitives"]) >= 60
        assert all(br["primitives"].values())
        assert br["holes"] == []
        by_name = {k["name"]: k for k in doc["kernels"]}
        assert "omp_target" in by_name["pointing_detector"]["megabatch"]
        assert "jax" in by_name["build_noise_weighted"]["megabatch"]
        assert by_name["pointing_detector"]["spec"]["megabatch"] is True

    def test_megabatch_smoke(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "mb.json"
        assert main(["megabatch", "--smoke", "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "launch reduction" in out
        assert "maps bitwise identical across plans: yes" in out
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == "repro-megabatch/1"
        assert doc["identical"] is True
        assert doc["launch_reduction"] > 1.0
        assert doc["launches"]["megabatch"] < doc["launches"]["compiled"]
        assert doc["launches"]["megabatch"] < doc["launches"]["eager"]
        assert doc["batching_rules"]["holes"] == []
        assert set(doc["virtual_seconds"]) == {
            "naive", "hybrid", "compiled", "megabatch"
        }

    def test_megabatch_bench_record_names_its_clocks(self):
        """No ``wall_*`` field of the sweep's megabatch record is virtual time.

        Two records built from policies that differ only in their
        ``virtual_seconds`` may differ only in ``virtual_*`` fields.
        """
        from types import SimpleNamespace

        from repro.workflows.cli import _megabatch_record

        modes = ("naive", "hybrid", "compiled", "megabatch")
        modeled = {
            m: SimpleNamespace(launch_seconds=1e-5 * (i + 1))
            for i, m in enumerate(modes)
        }

        def record(scale):
            policies = {
                m: {
                    "virtual_seconds": scale * (i + 1),
                    "launches_elided": 4,
                    "launch_reduction": 2.0,
                }
                for i, m in enumerate(modes)
            }
            return _megabatch_record(policies, modeled)

        a, b = record(1.0), record(7.0)
        moved = {k for k in a if a[k] != b[k]}
        assert moved == {"virtual_delta_vs_eager_s", "virtual_delta_vs_compiled_s"}
        assert not any(k.startswith("wall_") for k in a)


class TestFaultsCommand:
    def test_faults_recovers_and_exits_zero(self, capsys):
        rc = main(
            ["faults", "tiny", "jax", "--plan", "oom-then-recover", "--no-mapmaking"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "bitwise identical" in out
        assert "oom at pool.allocate" in out
        assert "crc32" in out

    def test_faults_exports_trace(self, capsys, tmp_path):
        rc = main(
            [
                "faults",
                "tiny",
                "omp_target",
                "--plan",
                "transient-transfer",
                "--no-mapmaking",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        traces = list(tmp_path.glob("trace_*transient-transfer.json"))
        assert len(traces) == 1
        assert "retries" in capsys.readouterr().out


class TestFailureExitCode:
    def test_workflow_failure_exits_nonzero_with_stderr(self, capsys, monkeypatch):
        from repro.workflows import cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("simulated workflow failure")

        monkeypatch.setattr(cli_mod, "run_satellite_benchmark", boom)
        rc = main(["run", "tiny", "numpy"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "simulated workflow failure" in captured.err

    def test_faults_failure_exits_nonzero(self, capsys, monkeypatch):
        from repro.workflows import cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injection gone wrong")

        monkeypatch.setattr(cli_mod, "run_fault_injection_benchmark", boom)
        rc = main(["faults", "tiny", "jax"])
        assert rc == 1
        assert "injection gone wrong" in capsys.readouterr().err

    def test_ingest_bad_procs_rejected(self, capsys):
        rc = main(["ingest", "--smoke", "--procs", "zero"])
        assert rc == 1
        assert "--procs" in capsys.readouterr().err

    def test_ingest_parity_mismatch_exits_nonzero(self, capsys, monkeypatch):
        from repro.workflows import ingest as ingest_mod

        fake = {
            "chunk_samples": 128,
            "host_budget_bytes": 4096,
            "stream_windows": 8,
            "scrub": {"chunks_checked": 10, "in_flight": [], "quarantined": []},
            "eager_identical": False,
            "elastic": {},
            "identical": False,
        }
        monkeypatch.setattr(
            ingest_mod, "run_ingest_benchmark", lambda **kw: fake
        )
        rc = main(["ingest", "--smoke"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "DIFFERS" in captured.out
        assert "diverged" in captured.err

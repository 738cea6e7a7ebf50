"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["process"])
        assert args.n == 16
        assert args.beta == 1.0
        assert args.seed == 1


class TestCommands:
    def test_process(self, capsys):
        assert main(["process", "--n", "8", "--prefill", "2000", "--steps", "2000"]) == 0
        out = capsys.readouterr().out
        assert "mean_rank" in out
        assert "rank cost over time" in out

    def test_process_with_bias(self, capsys):
        main(
            [
                "process",
                "--n",
                "8",
                "--gamma",
                "0.3",
                "--prefill",
                "2000",
                "--steps",
                "2000",
            ]
        )
        assert "gamma" in capsys.readouterr().out

    def test_divergence(self, capsys):
        main(["divergence", "--n", "8", "--prefill", "4000", "--steps", "4000"])
        out = capsys.readouterr().out
        assert "single-choice max rank" in out
        assert "max top rank over time" in out

    def test_potential(self, capsys):
        main(["potential", "--n", "8", "--steps", "4000"])
        out = capsys.readouterr().out
        assert "Gamma" in out

    def test_throughput(self, capsys):
        main(
            [
                "throughput",
                "--threads",
                "1",
                "2",
                "--ops",
                "40",
                "--prefill",
                "400",
                "--contenders",
                "mq1.0",
                "lj",
            ]
        )
        out = capsys.readouterr().out
        assert "ops/Mcycle" in out
        assert "mq1.0" in out

    def test_throughput_unknown_contender(self):
        with pytest.raises(SystemExit):
            main(["throughput", "--threads", "1", "--ops", "5", "--contenders", "zzz"])

    def test_rank(self, capsys):
        main(
            [
                "rank",
                "--betas",
                "1.0",
                "0.5",
                "--prefill",
                "2000",
                "--ops",
                "100",
                "--threads",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert "mean rank" in out
        assert "[log y]" in out

    def test_sssp(self, capsys):
        main(["sssp", "--threads", "1", "2", "--graph-size", "300"])
        out = capsys.readouterr().out
        assert "parallel SSSP" in out

    def test_graph_choice(self, capsys):
        main(["graph-choice", "--n", "12", "--prefill", "1000", "--steps", "1000"])
        out = capsys.readouterr().out
        assert "cycle" in out and "complete" in out

    def test_sweep_vector_backend(self, capsys):
        assert (
            main(
                [
                    "sweep", "--backend", "vector", "--n", "8", "--replicas", "4",
                    "--prefill", "500", "--steps", "500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "replica sweep" in out
        assert "ops_per_sec" in out

    def test_sweep_both_backends_with_json(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep", "--backend", "both", "--n", "8", "--replicas", "4",
                    "--prefill", "800", "--steps", "1000", "--json", str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup" in out and "ks_p" in out
        import json

        payload = json.loads(path.read_text())
        assert payload[0]["parity_ok"]
        assert payload[0]["vector"]["backend"] == "vector"

    def test_sweep_orchestrated_cache_resume(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cells")
        manifest1 = tmp_path / "m1.json"
        manifest2 = tmp_path / "m2.json"
        argv = [
            "sweep", "--backend", "vector", "--n", "8", "--replicas", "4",
            "--prefill", "400", "--steps", "400", "--betas", "1.0", "0.5",
            "--workers", "2", "--cache-dir", cache_dir,
        ]
        assert main(argv + ["--manifest", str(manifest1)]) == 0
        out1 = capsys.readouterr().out
        assert "cache 0/2 hits" in out1
        assert main(argv + ["--manifest", str(manifest2)]) == 0
        out2 = capsys.readouterr().out
        assert "cache 2/2 hits" in out2

        import json

        m1 = json.loads(manifest1.read_text())
        m2 = json.loads(manifest2.read_text())
        assert m1["cache_misses"] == 2 and m2["cache_hits"] == 2
        assert m2["cache_misses"] == 0 and m2["hit_ratio"] == 1.0
        assert m2["workers"] == 2
        assert m2["grid"] == {"beta": [1.0, 0.5]}

        # Identical tables modulo wall-clock columns: same ranks/rows.
        def stable(out):
            return [
                [f for f in line.split() if "." not in f or "rank" in line]
                for line in out.splitlines()
                if line.strip().startswith("vector")
            ]

        assert "mean_rank" in out1 and stable(out1) == stable(out2)

    def test_sweep_manifest_defaults_next_to_json(self, capsys, tmp_path):
        path = tmp_path / "rows.json"
        assert (
            main(
                [
                    "sweep", "--backend", "vector", "--n", "8", "--replicas", "2",
                    "--prefill", "300", "--steps", "300", "--json", str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "manifest:" in out
        import json

        manifest = json.loads((tmp_path / "rows.json.manifest.json").read_text())
        assert manifest["n_cells"] == 1
        assert manifest["fn"].endswith("sweep_cell_backend")

    def test_sweep_multiple_seeds(self, capsys):
        assert (
            main(
                [
                    "sweep", "--backend", "vector", "--n", "8", "--replicas", "2",
                    "--prefill", "300", "--steps", "300", "--seeds", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count(" vector ") >= 2  # one row per seed cell

    def test_sweep_quarantine_exits_nonzero_with_summary(self, capsys, tmp_path):
        # One cell fails all its attempts; the sweep finishes, archives
        # the surviving rows, and exits 1 with a one-line summary.
        from repro.orchestrate import CellFault, SweepFaultPlan

        plan = SweepFaultPlan(
            (CellFault("raise", seed=1, params={"beta": 0.5}, attempts=(1, 2, 3)),)
        )
        plan_path = plan.save(tmp_path / "plan.json")
        rows_path = tmp_path / "rows.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep", "--backend", "vector", "--n", "8", "--replicas", "2",
                    "--prefill", "300", "--steps", "300", "--betas", "1.0", "0.5",
                    "--seeds", "2", "--retries", "2", "--on-error", "quarantine",
                    "--fault-plan", str(plan_path), "--json", str(rows_path),
                ]
            )
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert "1 cell(s) failed, first:" in captured.err
        assert "InjectedFault" in captured.err
        assert "3 attempt(s)" in captured.err
        # Partial results were still archived, with the hole visible in
        # the manifest's failures section.
        import json

        rows = json.loads(rows_path.read_text())
        assert len(rows) == 3
        manifest = json.loads((tmp_path / "rows.json.manifest.json").read_text())
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["params"]["beta"] == 0.5
        assert manifest["failures"][0]["seed"] == 1
        assert manifest["failures"][0]["attempts"] == 3
        assert manifest["retries"] == 2
        assert "quarantined" in captured.out

    def test_sweep_chaos_completes_with_exact_counters(self, capsys, tmp_path):
        # A SIGKILLed worker plus a transient exception: with retries the
        # 8-cell sweep still completes 8/8 and the manifest records
        # exactly the injected faults.
        from repro.orchestrate import CellFault, SweepFaultPlan

        plan = SweepFaultPlan(
            (
                CellFault(
                    "kill", seed=2, params={"beta": 1.0},
                    once_marker=str(tmp_path / "kill.marker"),
                ),
                CellFault("raise", seed=3, params={"beta": 0.5}),
            )
        )
        plan_path = plan.save(tmp_path / "plan.json")
        manifest_path = tmp_path / "chaos.manifest.json"
        assert (
            main(
                [
                    "sweep", "--backend", "vector", "--n", "8", "--replicas", "2",
                    "--prefill", "300", "--steps", "300", "--betas", "1.0", "0.5",
                    "--seeds", "4", "--workers", "2", "--retries", "2",
                    "--fault-plan", str(plan_path), "--manifest", str(manifest_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count(" vector ") == 8
        import json

        manifest = json.loads(manifest_path.read_text())
        assert manifest["n_cells"] == 8
        assert len(manifest["cells"]) == 8
        assert manifest["failures"] == []
        assert manifest["takeovers"] == 1
        assert manifest["retries"] == 1

    def test_sweep_biased_insertion(self, capsys):
        assert (
            main(
                [
                    "sweep", "--backend", "reference", "--n", "8", "--gamma", "0.3",
                    "--replicas", "2", "--prefill", "400", "--steps", "400",
                ]
            )
            == 0
        )
        assert "mean_rank" in capsys.readouterr().out

    def test_chaos(self, capsys):
        assert main(["chaos", "--steps", "400", "--prefill", "800"]) == 0
        out = capsys.readouterr().out
        assert "chaos run under fault injection" in out
        assert "PASS" in out
        assert "all checks passed" in out

    def test_chaos_with_lease_and_both_locking(self, capsys):
        main(
            [
                "chaos",
                "--steps",
                "400",
                "--prefill",
                "800",
                "--delete-locking",
                "both",
                "--lease",
                "100000",
            ]
        )
        out = capsys.readouterr().out
        assert "lease=100000" in out
        assert "PASS" in out

    def test_experiments(self, capsys):
        main(["experiments"])
        out = capsys.readouterr().out
        assert "fig1" in out and "t6-diverge" in out
        assert "ext-chaos" in out

    def test_report_selected(self, capsys):
        main(["report", "--ids", "fig1"])
        out = capsys.readouterr().out
        assert "===== fig1" in out

    def test_report_all(self, capsys):
        main(["report"])
        out = capsys.readouterr().out
        assert "===== fig2" in out


class TestWorkerCommand:
    ARGS = [
        "--backend", "vector", "--n", "8", "--replicas", "2",
        "--prefill", "300", "--steps", "300", "--betas", "1.0", "0.5",
    ]

    def test_single_worker_drains_queue_and_matches_sweep(self, capsys, tmp_path):
        import json

        sweep_rows = tmp_path / "sweep.json"
        assert main(["sweep", *self.ARGS, "--json", str(sweep_rows)]) == 0
        capsys.readouterr()

        worker_rows = tmp_path / "worker.json"
        merged = tmp_path / "merged.json"
        assert (
            main(
                [
                    "worker", *self.ARGS,
                    "--queue-dir", str(tmp_path / "q"),
                    "--lease-ttl", "10", "--worker-id", "w0",
                    "--json", str(worker_rows), "--manifest", str(merged),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worker w0: claimed 2, committed 2" in out
        assert "merged manifest:" in out

        from repro.orchestrate import strip_volatile

        assert strip_volatile(json.loads(worker_rows.read_text())) == strip_volatile(
            json.loads(sweep_rows.read_text())
        )
        manifest = json.loads(merged.read_text())
        assert manifest["n_cells"] == 2
        assert len(manifest["cells"]) == 2
        assert manifest["takeovers"] == 0
        assert manifest["extra"]["workers"][0]["worker_id"] == "w0"

    def test_second_worker_invocation_resumes_with_cache_hits(self, capsys, tmp_path):
        queue_dir = str(tmp_path / "q")
        base = ["worker", *self.ARGS, "--queue-dir", queue_dir, "--lease-ttl", "10"]
        assert main(base + ["--worker-id", "w0"]) == 0
        capsys.readouterr()
        # The queue is already drained: a late worker claims nothing and
        # reports the same completed table.
        assert main(base + ["--worker-id", "w1"]) == 0
        out = capsys.readouterr().out
        assert "worker w1: claimed 0, committed 0" in out
        assert out.count(" vector ") >= 2

    def test_mismatched_grid_rejected(self, tmp_path):
        from repro.orchestrate import QueueSpecMismatch

        queue_dir = str(tmp_path / "q")
        assert main(
            ["worker", *self.ARGS, "--queue-dir", queue_dir, "--lease-ttl", "10"]
        ) == 0
        with pytest.raises(QueueSpecMismatch):
            main(
                [
                    "worker", *self.ARGS, "--queue-dir", queue_dir,
                    "--lease-ttl", "10", "--seeds", "3",
                ]
            )

    def test_quarantine_exits_nonzero_with_summary(self, capsys, tmp_path):
        from repro.orchestrate import CellFault, SweepFaultPlan

        plan = SweepFaultPlan(
            (CellFault("raise", seed=1, params={"beta": 0.5}, attempts=(1,)),)
        )
        plan_path = plan.save(tmp_path / "plan.json")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "worker", *self.ARGS,
                    "--queue-dir", str(tmp_path / "q"),
                    "--lease-ttl", "10", "--max-attempts", "1",
                    "--fault-plan", str(plan_path), "--worker-id", "w0",
                ]
            )
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert "quarantined=1 cell(s) failed, first:" in captured.err
        assert "InjectedFault" in captured.err
        # The surviving cell's row is still printed.
        assert " vector " in captured.out

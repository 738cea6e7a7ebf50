"""Run manifests: field inference, archiving, the audit round trip."""

import json
from pathlib import Path

from repro.orchestrate import (
    JobQueue,
    ResultCache,
    RunManifest,
    expand_grid,
    git_sha,
    run_cells,
)

from tests.orchestrate.cellfns import affine_cell


class TestManifestContents:
    def test_grid_and_fixed_inferred(self):
        run = run_cells(affine_cell, expand_grid("x", [1, 2], [0, 1]))
        m = run.manifest
        assert m.grid == {"x": [1, 2]}
        assert m.seeds == [0, 1]
        assert m.n_cells == 4
        assert m.workers == 0
        assert m.cache_dir is None
        assert m.fn.endswith("cellfns.affine_cell")

    def test_fixed_params_separated_from_grid(self):
        run = run_cells(affine_cell, expand_grid("x", [1, 2], [0]))
        assert "x" in run.manifest.grid
        cells = expand_grid("x", [5], [0])  # nothing varies
        assert run_cells(affine_cell, cells).manifest.fixed == {"x": 5}

    def test_per_cell_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        run = run_cells(affine_cell, expand_grid("x", [1], [0, 1]), cache=cache)
        records = run.manifest.cells
        assert len(records) == 2
        assert all(set(r) == {"params", "seed", "key", "cached", "wall_s", "attempts"}
                   for r in records)
        assert all(r["cached"] is False and r["wall_s"] >= 0 for r in records)
        assert all(r["attempts"] == 1 for r in records)
        assert all(len(r["key"]) == 64 for r in records)

    def test_git_sha_recorded_in_checkout(self):
        run = run_cells(affine_cell, expand_grid("x", [1], [0]))
        # This repo's tests always run from a checkout.
        assert run.manifest.git_sha == git_sha()
        assert run.manifest.git_sha and len(run.manifest.git_sha) == 40

    def test_describe_mentions_cache_only_when_caching(self, tmp_path):
        plain = run_cells(affine_cell, expand_grid("x", [1], [0]))
        assert "cache" not in plain.manifest.describe()
        cached = run_cells(
            affine_cell, expand_grid("x", [1], [0]), cache=ResultCache(tmp_path)
        )
        assert "cache 0/1 hits" in cached.manifest.describe()


class TestManifestIO:
    def test_write_read_roundtrip(self, tmp_path):
        run = run_cells(affine_cell, expand_grid("x", [1, 2], [0]))
        path = run.manifest.write(tmp_path / "run.manifest.json")
        data = json.loads(path.read_text())
        assert data["n_cells"] == 2
        assert data["hit_ratio"] == 0.0
        assert "started_at" in data and "python" in data
        back = RunManifest.read(path)
        assert back.grid == {"x": [1, 2]}
        assert back.cache_misses == 2

    def test_archived_manifest_with_pool_restarts_still_loads(self, tmp_path):
        archived = Path(__file__).resolve().parents[2] / (
            "benchmarks/results/orchestrate_distributed.manifest.json"
        )
        data = json.loads(archived.read_text())
        data.setdefault("pool_restarts", 0)  # the retired counter archives carry
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(data))
        back = RunManifest.read(old)
        assert back.n_cells == data["n_cells"] and back.takeovers == data["takeovers"]
        assert not hasattr(back, "pool_restarts")
        # A queue's shard loader used to skip such a shard without a word.
        queue = JobQueue(tmp_path / "q", affine_cell, expand_grid("x", [1], [0]))
        (queue.root / "manifests" / "old.json").write_text(json.dumps(data))
        assert [m.takeovers for m in queue.load_shard_manifests()] == [data["takeovers"]]

    def test_hit_ratio(self):
        m = RunManifest(fn="f", n_cells=4, cache_hits=3)
        assert m.hit_ratio == 0.75
        assert RunManifest(fn="f").hit_ratio == 0.0


class TestManifestMerge:
    def shard(self, worker_id, cells, **overrides):
        kwargs = dict(
            fn="tests.orchestrate.cellfns.affine_cell",
            grid={"x": [1, 2]},
            seeds=[0, 1],
            n_cells=4,
            workers=1,
            cells=cells,
            cache_hits=0,
            cache_misses=len(cells),
            elapsed_s=1.0,
            started_at="2026-08-07T00:00:00+00:00",
            extra={"worker_id": worker_id, "host": "h", "pid": 1,
                   "cells_claimed": len(cells)},
        )
        kwargs.update(overrides)
        return RunManifest(**kwargs)

    def row(self, x, seed, key, attempts=1):
        return {"params": {"x": x}, "seed": seed, "key": key,
                "cached": False, "wall_s": 0.1, "attempts": attempts}

    def test_merge_restores_grid_order_and_sums_counters(self):
        a = self.shard("a", [self.row(1, 0, "k0"), self.row(2, 1, "k3")],
                       takeovers=1, elapsed_s=2.0)
        b = self.shard("b", [self.row(1, 1, "k1"), self.row(2, 0, "k2")],
                       zombie_writes_fenced=1, retries=2)
        merged = RunManifest.merge([a, b], cell_order=["k0", "k1", "k2", "k3"])
        assert [r["key"] for r in merged.cells] == ["k0", "k1", "k2", "k3"]
        assert merged.workers == 2
        assert merged.takeovers == 1
        assert merged.zombie_writes_fenced == 1
        assert merged.retries == 2
        assert merged.elapsed_s == 2.0  # makespan, not sum
        assert merged.n_cells == 4
        assert merged.extra["merged_from"] == 2

    def test_merge_carries_per_worker_provenance(self):
        a = self.shard("a", [self.row(1, 0, "k0")], takeovers=1)
        b = self.shard("b", [self.row(1, 1, "k1")])
        merged = RunManifest.merge([a, b])
        prov = {p["worker_id"]: p for p in merged.extra["workers"]}
        assert prov["a"]["takeovers"] == 1
        assert prov["b"]["takeovers"] == 0
        assert prov["a"]["cells_committed"] == 1

    def test_merge_dedups_rows_by_key(self):
        # A torn shard must not double-count a cell another shard owns.
        a = self.shard("a", [self.row(1, 0, "k0")])
        b = self.shard("b", [self.row(1, 0, "k0"), self.row(1, 1, "k1")])
        merged = RunManifest.merge([a, b])
        assert len(merged.cells) == 2

    def test_merge_dedups_failures_by_key(self):
        failure = {"params": {"x": 2}, "seed": 0, "key": "kf",
                   "exc_type": "RuntimeError", "message": "boom",
                   "attempts": 3, "wall_s_per_attempt": [], "traceback": ""}
        a = self.shard("a", [], failures=[failure])
        b = self.shard("b", [], failures=[dict(failure)])
        merged = RunManifest.merge([a, b])
        assert len(merged.failures) == 1

    def test_merge_rejects_mismatched_functions(self):
        import pytest

        a = self.shard("a", [])
        b = self.shard("b", [], fn="other.fn")
        with pytest.raises(ValueError, match="disagree"):
            RunManifest.merge([a, b])
        with pytest.raises(ValueError, match="at least one"):
            RunManifest.merge([])

    def test_merged_describe_mentions_distributed_counters(self):
        a = self.shard("a", [self.row(1, 0, "k0")],
                       takeovers=1, zombie_writes_fenced=1, cache_tmp_reaped=2)
        merged = RunManifest.merge([a])
        text = merged.describe()
        assert "1 lease takeover(s)" in text
        assert "1 fenced zombie write(s)" in text
        assert "2 tmp file(s) reaped" in text

    def test_quarantined_count_in_describe(self):
        failure = {"params": {"x": 2}, "seed": 0, "key": "kf",
                   "exc_type": "RuntimeError", "message": "boom",
                   "attempts": 3, "wall_s_per_attempt": [], "traceback": ""}
        m = RunManifest(fn="f", n_cells=2, failures=[failure])
        assert "quarantined=1" in m.describe()


class TestGitShaCache:
    def test_two_sweeps_start_one_git_subprocess(self, monkeypatch):
        from repro.orchestrate import manifest

        calls = []
        real_run = manifest.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(manifest.subprocess, "run", counting_run)
        manifest._rev_parse_head.cache_clear()
        first = run_cells(affine_cell, expand_grid("x", [1], [0]))
        second = run_cells(affine_cell, expand_grid("x", [2], [0]))
        assert len(calls) == 1
        assert first.manifest.git_sha == second.manifest.git_sha == git_sha()

    def test_cache_is_keyed_on_directory(self, tmp_path):
        from repro.orchestrate import manifest

        manifest._rev_parse_head.cache_clear()
        assert git_sha(tmp_path) is None  # not a checkout
        assert git_sha() is not None  # a different key, asked separately
        assert manifest._rev_parse_head.cache_info().misses == 2

"""Structured run manifests: what a sweep did, archived next to results.

A manifest is the audit record of one orchestrated run — the grid, the
seeds, cache hit/miss counts, per-cell wall time, worker count, and the
git SHA of the code that produced it — written as JSON so tooling and CI
can assert on it (e.g. "the second run must be 100% cache hits").
"""

from __future__ import annotations

import datetime
import functools
import json
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.orchestrate.cache import jsonify
from repro.orchestrate.cells import Cell


def git_sha(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The commit SHA of the *code under measurement*, or ``None``.

    Defaults to the checkout containing this package (not the caller's
    working directory — sweeps are routinely launched from scratch
    dirs); returns ``None`` for installed, non-git deployments.  Each
    directory is asked once per process, so a sweep's manifest does not
    start a ``git`` subprocess inside its wall time.
    """
    return _rev_parse_head(str(cwd) if cwd else str(Path(__file__).resolve().parent))


@functools.lru_cache(maxsize=None)
def _rev_parse_head(cwd: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass
class RunManifest:
    """Everything needed to audit (and re-run) one orchestrated sweep."""

    fn: str
    grid: Dict[str, List] = field(default_factory=dict)
    seeds: List[int] = field(default_factory=list)
    fixed: Dict[str, Any] = field(default_factory=dict)
    workers: int = 0
    cache_dir: Optional[str] = None
    n_cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_s: float = 0.0
    #: One record per cell, in grid order:
    #: ``{"params", "seed", "key", "cached", "wall_s", "attempts"}``.
    cells: List[Dict] = field(default_factory=list)
    #: Failure-triggered re-executions across the whole run (a cell that
    #: succeeded on its third attempt contributes 2).
    retries: int = 0
    #: Cache entries found corrupt/truncated at lookup (treated as misses).
    cache_corrupt: int = 0
    #: Corrupt entries overwritten by a subsequent successful compute.
    cache_repairs: int = 0
    #: Leases handed on from a worker that died holding them (taken over
    #: once stale, or released by the ``workers > 1`` supervisor).
    takeovers: int = 0
    #: Distributed queue only: late writes discarded because the
    #: writer's fencing token had been superseded by a takeover.
    zombie_writes_fenced: int = 0
    #: Orphaned cache temp files (left by SIGKILLed writers) reaped by
    #: :meth:`repro.orchestrate.cache.ResultCache.gc_stale_tmp`.
    cache_tmp_reaped: int = 0
    #: Quarantined cells, in grid order: one
    #: :meth:`repro.orchestrate.policy.CellFailure.to_dict` record each.
    #: Non-empty only with ``on_error="quarantine"`` — these cells have
    #: no row in ``cells`` and must be reported alongside any results.
    failures: List[Dict] = field(default_factory=list)
    git_sha: Optional[str] = None
    started_at: Optional[str] = None
    python: str = field(default_factory=platform.python_version)
    extra: Dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def now() -> str:
        return datetime.datetime.now(datetime.timezone.utc).isoformat()

    @property
    def hit_ratio(self) -> float:
        return self.cache_hits / self.n_cells if self.n_cells else 0.0

    def to_dict(self) -> Dict:
        return jsonify(
            {
                "fn": self.fn,
                "grid": self.grid,
                "seeds": self.seeds,
                "fixed": self.fixed,
                "workers": self.workers,
                "cache_dir": self.cache_dir,
                "n_cells": self.n_cells,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "hit_ratio": self.hit_ratio,
                "elapsed_s": self.elapsed_s,
                "cells": self.cells,
                "retries": self.retries,
                "cache_corrupt": self.cache_corrupt,
                "cache_repairs": self.cache_repairs,
                "takeovers": self.takeovers,
                "zombie_writes_fenced": self.zombie_writes_fenced,
                "cache_tmp_reaped": self.cache_tmp_reaped,
                "failures": self.failures,
                "git_sha": self.git_sha,
                "started_at": self.started_at,
                "python": self.python,
                "extra": self.extra,
            }
        )

    def write(self, path: Union[str, Path]) -> Path:
        """Archive the manifest as indented JSON at ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        data.pop("hit_ratio", None)
        data.pop("pool_restarts", None)  # a retired counter, still in archived manifests
        return cls(**data)

    @classmethod
    def merge(
        cls,
        shards: Sequence["RunManifest"],
        cell_order: Optional[Sequence[str]] = None,
    ) -> "RunManifest":
        """Combine per-worker shard manifests into one queue-wide record.

        Each distributed worker archives a shard manifest covering only
        the cells *it* committed; ``merge`` reassembles the full sweep:
        cell rows deduplicated by cache key (the fencing protocol makes
        duplicates impossible in a healthy queue, but a torn shard must
        not double-count), counters summed, failures deduplicated, and
        ``extra["workers"]`` carrying per-worker provenance — cells
        claimed, leases taken over, zombie writes fenced, temp files
        reaped — so a takeover is attributable to the worker that
        performed it.  ``cell_order`` (the queue's key order) restores
        grid order; without it cells keep shard order.
        """
        if not shards:
            raise ValueError("need at least one shard manifest to merge")
        fns = sorted({s.fn for s in shards})
        if len(fns) > 1:
            raise ValueError(f"shard manifests disagree on the sweep function: {fns}")
        cells: Dict[str, Dict] = {}
        for shard in shards:
            for row in shard.cells:
                cells.setdefault(row.get("key") or id(row), row)
        if cell_order is not None:
            rank = {key: i for i, key in enumerate(cell_order)}
            ordered = sorted(cells.values(), key=lambda r: rank.get(r.get("key"), len(rank)))
        else:
            ordered = list(cells.values())
        failures: Dict[Any, Dict] = {}
        for shard in shards:
            for rec in shard.failures:
                failures.setdefault(rec.get("key") or id(rec), rec)
        provenance = []
        for shard in shards:
            prov = {
                "worker_id": shard.extra.get("worker_id"),
                "host": shard.extra.get("host"),
                "pid": shard.extra.get("pid"),
                "cells_claimed": shard.extra.get("cells_claimed", len(shard.cells)),
                "cells_committed": len(shard.cells),
                "cache_hits": shard.cache_hits,
                "takeovers": shard.takeovers,
                "zombie_writes_fenced": shard.zombie_writes_fenced,
                "cache_tmp_reaped": shard.cache_tmp_reaped,
                "failures_recorded": shard.retries,
                "elapsed_s": shard.elapsed_s,
            }
            provenance.append(prov)
        first = shards[0]
        return cls(
            fn=first.fn,
            grid=dict(first.grid),
            seeds=sorted({s for shard in shards for s in shard.seeds}),
            fixed=dict(first.fixed),
            workers=len(shards),
            cache_dir=first.cache_dir,
            n_cells=max(s.n_cells for s in shards),
            cache_hits=sum(s.cache_hits for s in shards),
            cache_misses=sum(s.cache_misses for s in shards),
            elapsed_s=max(s.elapsed_s for s in shards),
            cells=ordered,
            retries=sum(s.retries for s in shards),
            cache_corrupt=sum(s.cache_corrupt for s in shards),
            cache_repairs=sum(s.cache_repairs for s in shards),
            takeovers=sum(s.takeovers for s in shards),
            zombie_writes_fenced=sum(s.zombie_writes_fenced for s in shards),
            cache_tmp_reaped=sum(s.cache_tmp_reaped for s in shards),
            failures=list(failures.values()),
            git_sha=first.git_sha,
            started_at=min((s.started_at for s in shards if s.started_at), default=None),
            extra={"merged_from": len(shards), "workers": provenance},
        )

    def describe(self) -> str:
        """One-line human summary (what the CLI prints after a sweep)."""
        where = f", cache {self.cache_hits}/{self.n_cells} hits" if self.cache_dir else ""
        fault_parts = []
        if self.retries:
            fault_parts.append(f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}")
        if self.cache_repairs:
            fault_parts.append(f"{self.cache_repairs} cache repair(s)")
        if self.takeovers:
            fault_parts.append(f"{self.takeovers} lease takeover(s)")
        if self.zombie_writes_fenced:
            fault_parts.append(f"{self.zombie_writes_fenced} fenced zombie write(s)")
        if self.cache_tmp_reaped:
            fault_parts.append(f"{self.cache_tmp_reaped} tmp file(s) reaped")
        if self.failures:
            fault_parts.append(f"quarantined={len(self.failures)}")
        faults = f" [{', '.join(fault_parts)}]" if fault_parts else ""
        return (
            f"orchestrated {self.n_cells} cell(s) in {self.elapsed_s:.2f}s "
            f"with {self.workers or 1} worker(s){where}{faults}"
        )


def _infer_grid(cells: Sequence[Cell]) -> Dict[str, List]:
    """Params that vary across cells, with their distinct values in order."""
    varying: Dict[str, List] = {}
    for cell in cells:
        for name, value in cell.params.items():
            values = varying.setdefault(name, [])
            if value not in values:
                values.append(value)
    return {k: v for k, v in varying.items() if len(v) > 1}


def _infer_fixed(cells: Sequence[Cell]) -> Dict:
    """Params held constant across every cell."""
    if not cells:
        return {}
    fixed = dict(cells[0].params)
    for cell in cells[1:]:
        for name in list(fixed):
            if name not in cell.params or cell.params[name] != fixed[name]:
                del fixed[name]
    return fixed

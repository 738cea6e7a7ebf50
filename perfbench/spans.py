"""Span recording around the program's public calls, from outside ``src/``.

Tracing patches public methods and functions of ``repro`` with thin
timing wrappers and restores them afterwards.  Each process keeps its
spans in memory as per-name totals (calls and nanoseconds) plus counts
and a few raw samples, and writes them out when it ends:

* the workload process returns its ledger directly;
* forked service children (shard owners, loadgen) leave through
  ``os._exit`` and skip ``atexit``, so their process entry points are
  wrapped to dump the ledger to a file in ``finally``;
* sweep pool workers return their ledger inside the cell's row.

Service children inherit the patched classes through ``fork``.  The
vector patches are installed inside each pool worker by the traced cell,
so they do not depend on the pool's start method.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

_clock = time.perf_counter_ns


class Ledger:
    """One process's span totals, counts and samples."""

    def __init__(self) -> None:
        self.role = "parent"
        self.spans: Dict[str, List[int]] = {}
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, array] = {}

    def reset(self, role: str) -> None:
        self.role = role
        self.spans = {}
        self.counts = {}
        self.samples = {}

    def add(self, name: str, ns: int) -> None:
        span = self.spans.get(name)
        if span is None:
            self.spans[name] = [1, ns]
        else:
            span[0] += 1
            span[1] += ns

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def sample(self, name: str, value: int) -> None:
        buf = self.samples.get(name)
        if buf is None:
            buf = self.samples[name] = array("q")
        buf.append(value)

    def snapshot(self) -> dict:
        """JSON-safe totals; samples are reduced to their count and p99."""
        return {
            "role": self.role,
            "pid": os.getpid(),
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "p99": {
                k: [len(v), float(np.quantile(np.frombuffer(v, dtype=np.int64), 0.99))]
                for k, v in self.samples.items() if len(v)
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Add another process's span totals and counts into this ledger."""
        for name, (calls, ns) in snapshot["spans"].items():
            span = self.spans.setdefault(name, [0, 0])
            span[0] += calls
            span[1] += ns
        for name, k in snapshot["counts"].items():
            self.count(name, k)

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0])[0]

    def ns(self, name: str) -> int:
        return self.spans.get(name, [0, 0])[1]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _timed(ledger: Ledger, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        t = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            ledger.add(name, _clock() - t)

    return wrapper


def install_service(patches: Patches, ledger: Ledger, dump_dir: Path) -> None:
    """Time the service's op path, collector, metrics and set-up calls."""
    from repro.service import metrics, server
    from repro.service.shm import (
        JournalRing,
        ServiceSegment,
        ShardHeader,
        ShardSnapshot,
        SlotRing,
    )

    try_push = SlotRing.try_push
    try_peek = SlotRing.try_peek
    try_pop = SlotRing.try_pop

    def push(self, op, label, clock=0, t0_ns=0, t1_ns=0):
        t = _clock()
        ok = try_push(self, op, label, clock, t0_ns, t1_ns)
        ledger.add("ring.push", _clock() - t)
        if not ok:
            ledger.count("ring.push_full")
        elif t0_ns and ledger.role == "loadgen":
            ledger.sample("loadgen.lateness_ns", time.monotonic_ns() - t0_ns)
        return ok

    def peek(self):
        t = _clock()
        out = try_peek(self)
        ledger.add("ring.peek", _clock() - t)
        if out is None:
            ledger.count("ring.peek_empty")
        return out

    def pop(self):
        t = _clock()
        out = try_pop(self)
        ledger.add("ring.pop", _clock() - t)
        if out is None:
            ledger.count("ring.pop_empty")
        return out

    patches.set(SlotRing, "try_push", push)
    patches.set(SlotRing, "try_peek", peek)
    patches.set(SlotRing, "try_pop", pop)
    patches.set(JournalRing, "try_append", _timed(ledger, "journal.append", JournalRing.try_append))
    patches.set(ShardHeader, "publish", _timed(ledger, "header.publish", ShardHeader.publish))
    patches.set(ShardSnapshot, "write", _timed(ledger, "snapshot.write", ShardSnapshot.write))
    patches.set(server.Router, "insert_shard", _timed(ledger, "router.route", server.Router.insert_shard))
    patches.set(server.Router, "delete_shard", _timed(ledger, "router.route", server.Router.delete_shard))
    patches.set(
        ServiceSegment, "create",
        classmethod(_timed(ledger, "segment.create", ServiceSegment.create.__func__)),
    )
    patches.set(server.ServiceCluster, "start", _timed(ledger, "cluster.start", server.ServiceCluster.start))
    patches.set(metrics, "merge_events", _timed(ledger, "metrics.merge", metrics.merge_events))
    patches.set(metrics, "replay_ranks", _timed(ledger, "metrics.replay", metrics.replay_ranks))
    patches.set(metrics, "conservation_audit", _timed(ledger, "metrics.audit", metrics.conservation_audit))
    for name, role in (("shard_owner_main", "owner"), ("loadgen_main", "loadgen")):
        patches.set(server, name, _dumping_entry(ledger, role, getattr(server, name), dump_dir))


def _dumping_entry(ledger: Ledger, role: str, entry: Callable, dump_dir: Path) -> Callable:
    """Wrap a forked child's entry point so its ledger reaches a file."""

    def child_main(*args, **kwargs):
        ledger.reset(role)
        try:
            return entry(*args, **kwargs)
        finally:
            path = dump_dir / f"{role}-{os.getpid()}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(ledger.snapshot()))
            os.replace(tmp, path)

    return child_main


def collect_dumps(dump_dir: Path) -> List[dict]:
    """Read and remove every child ledger written so far."""
    out = []
    for path in sorted(dump_dir.glob("*.json")):
        out.append(json.loads(path.read_text()))
        path.unlink()
    return out


def install_vector(patches: Patches, ledger: Ledger) -> None:
    """Time the vector engine's chooser, rank-index flushes and whole run."""
    from repro.vector.chooser import BatchedChooser
    from repro.vector.index import BatchedRankIndex
    from repro.vector.labelled import VectorSequentialProcess

    redraws = BatchedChooser.removal_redraws

    def removal_redraws(self, rows):
        ledger.count("chooser.redraw_rows", rows if isinstance(rows, int) else len(rows))
        t = _clock()
        try:
            return redraws(self, rows)
        finally:
            ledger.add("chooser.draw", _clock() - t)

    patches.set(BatchedChooser, "removal_draws", _timed(ledger, "chooser.draw", BatchedChooser.removal_draws))
    patches.set(BatchedChooser, "insert_queues", _timed(ledger, "chooser.draw", BatchedChooser.insert_queues))
    patches.set(BatchedChooser, "removal_redraws", removal_redraws)
    patches.set(BatchedRankIndex, "count_leq_grid", _timed(ledger, "index.flush", BatchedRankIndex.count_leq_grid))
    patches.set(BatchedRankIndex, "apply_chunk", _timed(ledger, "index.flush", BatchedRankIndex.apply_chunk))
    patches.set(
        VectorSequentialProcess, "run_steady_state",
        _timed(ledger, "engine.run", VectorSequentialProcess.run_steady_state),
    )

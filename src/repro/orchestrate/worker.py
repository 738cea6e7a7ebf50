"""The distributed sweep worker: claim, heartbeat, compute, commit.

One :class:`QueueWorker` drains cells from a :class:`~repro.orchestrate
.queue.JobQueue` until every cell is settled (committed or quarantined).
Run several — as processes on one host or across hosts sharing the queue
directory — and they divide the grid dynamically with no coordinator:
the lease protocol in :mod:`repro.orchestrate.queue` is the only
synchronisation.

Per claimed cell the worker:

1. probes the shared result cache (an orphaned entry from a worker that
   crashed *after* the cache write but *before* the done marker is
   committed as a hit, self-healing the half-commit);
2. starts a heartbeat thread renewing the lease every ``heartbeat_s``;
3. executes the cell through :func:`_execute_attempt`, which the
   serial runner shares (so fault hooks, payload canonicalisation, and
   failure records are identical on both paths);
4. stops the heartbeat and commits — or, on failure, records the
   attempt under ``failed/`` and releases the lease for another worker.

The fencing-token-as-attempt-number convention: the cell's token is
passed to the fault hook as the attempt number, so one
:class:`~repro.orchestrate.policy.SweepFaultPlan` addresses distributed
attempts exactly like in-process retries — ``attempts=(1,)`` hits the
first claim, and a takeover (token 2) is naturally exempt.  Any other
``fault_hook(cell, attempt)`` callable is called the same way.

Lease-layer fault kinds interpreted here when the hook is a
:class:`~repro.orchestrate.policy.SweepFaultPlan` (no-ops in-process):

* ``"kill"`` — die immediately after claiming, *before* the first
  heartbeat, holding the lease: the crash-takeover scenario.  Real
  ``SIGKILL`` when ``allow_sigkill=True`` (the CLI and ``run_cells``
  workers — each is its own process); otherwise an
  :class:`InjectedWorkerCrash` unwinds this worker's run loop, which is
  what thread-hosted test workers need.
* ``"zombie"`` — compute, stop heartbeating, oversleep the lease TTL,
  *then* try to commit: exercises write fencing end to end.
* ``"pause_heartbeat"`` — suppress heartbeats for ``sleep_s`` while the
  cell computes, so the lease goes stale under a live worker.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.orchestrate.cache import jsonify, qualname_of
from repro.orchestrate.cells import Cell
from repro.orchestrate.manifest import RunManifest, _infer_fixed, _infer_grid, git_sha
from repro.orchestrate.policy import CellFailure, SweepFaultPlan, describe_exception
from repro.orchestrate.queue import Claim, JobQueue, LeaseLost

__all__ = ["InjectedWorkerCrash", "QueueWorker", "WorkerReport"]


def _execute_attempt(
    fn: Callable[..., Dict],
    cell: Cell,
    attempt: int,
    fault_hook: Optional[Callable[[Cell, int], None]],
    keep_exception: bool = False,
) -> Tuple:
    """Run one cell attempt; report failure as data, never by raising.

    Shared by the serial runner and every queue worker.  Returns
    ``("ok", payload, wall_s)`` or ``("fail", info)`` where ``info`` is
    :func:`~repro.orchestrate.policy.describe_exception` output, plain
    data a failure record can carry.  ``keep_exception`` (serial mode
    only) attaches the live exception for ``raise ... from`` chaining.
    """
    start = time.perf_counter()
    try:
        if fault_hook is not None:
            fault_hook(cell, attempt)
        payload = fn(**cell.kwargs())
        if not isinstance(payload, Mapping):
            raise TypeError(
                f"sweep function {qualname_of(fn)} returned "
                f"{type(payload).__name__}, expected a dict"
            )
        return ("ok", jsonify(payload), time.perf_counter() - start)
    except Exception as err:
        info = describe_exception(err)
        info["wall"] = time.perf_counter() - start
        if keep_exception:
            info["exception"] = err
        return ("fail", info)


class InjectedWorkerCrash(RuntimeError):
    """A ``"kill"`` fault fired with ``allow_sigkill=False``: the worker's
    run loop unwinds immediately, leaving its lease held and un-renewed —
    from the queue's point of view, indistinguishable from a SIGKILL."""


class _Heartbeat(threading.Thread):
    """Renews one lease every ``interval`` seconds until stopped.

    ``initial_pause_s`` (the ``pause_heartbeat`` fault) delays the
    *first* renewal, so a lease can be driven stale while its cell is
    mid-compute.  A renewal that finds the lease taken over sets
    ``lost`` and exits — the owner's eventual commit will be fenced.
    """

    def __init__(
        self,
        queue: JobQueue,
        claim: Claim,
        interval: float,
        initial_pause_s: float = 0.0,
    ) -> None:
        super().__init__(name=f"heartbeat-{claim.key[:8]}", daemon=True)
        self._queue = queue
        self._claim = claim
        self._interval = interval
        self._initial_pause_s = initial_pause_s
        self._stop_event = threading.Event()
        self.lost = threading.Event()

    def run(self) -> None:
        if self._initial_pause_s > 0:
            if self._stop_event.wait(self._initial_pause_s):
                return
        while not self._stop_event.wait(self._interval):
            try:
                self._queue.renew(self._claim)
            except LeaseLost:
                self.lost.set()
                return
            except OSError:
                continue  # transient shared-fs hiccup; try again next beat

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=self._interval + 5.0)


@dataclass
class WorkerReport:
    """What one worker did to the queue, plus its shard manifest."""

    worker_id: str
    cells_claimed: int = 0
    cells_committed: int = 0
    cache_hits: int = 0
    takeovers: int = 0
    zombie_writes_fenced: int = 0
    failures_recorded: int = 0
    cache_tmp_reaped: int = 0
    elapsed_s: float = 0.0
    quarantined: List[CellFailure] = field(default_factory=list)
    manifest: Optional[RunManifest] = None


class QueueWorker:
    """One worker process (or thread, in tests) draining a job queue."""

    def __init__(
        self,
        queue: JobQueue,
        fn: Callable[..., Dict],
        worker_id: Optional[str] = None,
        fault_plan: Optional[Callable[[Cell, int], None]] = None,
        poll_s: float = 0.1,
        allow_sigkill: bool = False,
        gc_tmp_age_s: float = 3600.0,
    ) -> None:
        self.queue = queue
        self.fn = fn
        self.worker_id = worker_id or (
            f"{socket.gethostname().split('.')[0]}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self.fault_plan = fault_plan
        self.poll_s = poll_s
        self.allow_sigkill = allow_sigkill
        self.gc_tmp_age_s = gc_tmp_age_s
        self._own_failed: set = set()
        self._rows: List[Dict] = []
        self._report = WorkerReport(worker_id=self.worker_id)

    # -- the drain loop -----------------------------------------------------

    def run(self) -> WorkerReport:
        """Claim and process cells until the queue is fully settled.

        Never hangs on another worker's lease: a crashed owner's lease
        goes stale within ``lease_ttl_s`` and is taken over, and a
        poison cell is quarantined queue-wide once its failure budget is
        spent.  Cells this worker *itself* failed are deferred to other
        workers first (so a poison cell's attempts land on distinct
        workers when there are several) but retried by this one when
        nothing else is claimable — a lone worker still drains the
        queue.
        """
        started = RunManifest.now()
        t0 = time.perf_counter()
        self._report.cache_tmp_reaped = self.queue.cache.gc_stale_tmp(self.gc_tmp_age_s)
        idle_passes = 0
        while True:
            progressed = self._pass(skip_own_failed=True)
            if self.queue.drained():
                break
            if progressed:
                idle_passes = 0
                continue
            # Nothing fresh to claim.  Idle a few polls before falling
            # back to cells this worker already failed — the grace
            # window gives *other* workers first refusal, so a poison
            # cell's attempts land on distinct workers when any exist;
            # a lone worker still drains the queue after the grace.
            idle_passes += 1
            if idle_passes >= 3 and self._pass(skip_own_failed=False):
                idle_passes = 0
                continue
            time.sleep(self.poll_s)
        self._report.elapsed_s = time.perf_counter() - t0
        self._report.manifest = self._shard_manifest(started)
        self.queue.shard_manifest_path(self.worker_id).parent.mkdir(
            parents=True, exist_ok=True
        )
        self._report.manifest.write(self.queue.shard_manifest_path(self.worker_id))
        return self._report

    def _pass(self, skip_own_failed: bool) -> bool:
        """One sweep over the grid; True if any cell was claimed."""
        progressed = False
        for key in self.queue.keys:
            if self.queue.is_settled(key):
                continue
            if skip_own_failed and key in self._own_failed:
                continue
            claim = self.queue.try_claim(key, self.worker_id)
            if claim is None:
                continue
            progressed = True
            self._report.cells_claimed += 1
            if claim.takeover:
                self._report.takeovers += 1
            self._process(claim)
        return progressed

    # -- one cell -----------------------------------------------------------

    def _first_fault(self, cell: Cell, token: int, kinds) -> Optional[object]:
        # Only a plan has lease-layer faults; other hooks just run per attempt.
        if not isinstance(self.fault_plan, SweepFaultPlan):
            return None
        return self.fault_plan.first_matching(cell, token, kinds)

    def _crash(self, fault) -> None:
        if self.allow_sigkill:
            os.kill(os.getpid(), signal.SIGKILL)
        raise InjectedWorkerCrash(fault.message)

    def _process(self, claim: Claim) -> None:
        cell = self.queue.by_key[claim.key]

        # Self-heal a half-commit: a predecessor that died between the
        # cache write and the done marker left a valid payload behind.
        payload, status = self.queue.cache.probe(claim.key)
        if payload is not None:
            if self.queue.commit(claim, cell, payload, wall_s=0.0, cached=True) == "committed":
                self._report.cells_committed += 1
                self._report.cache_hits += 1
                self._rows.append(self._row(cell, claim, cached=True, wall_s=0.0))
            else:
                self._report.zombie_writes_fenced += 1
            return

        # The crash-takeover fault: die holding the lease, before the
        # heartbeat thread exists, so the lease is never renewed.
        kill = self._first_fault(cell, claim.token, ("kill",))
        if kill is not None and kill.claim_once():
            self._crash(kill)

        pause = self._first_fault(cell, claim.token, ("pause_heartbeat",))
        initial_pause = (
            pause.sleep_s if pause is not None and pause.claim_once() else 0.0
        )
        heartbeat = _Heartbeat(
            self.queue, claim, self.queue.heartbeat_s, initial_pause_s=initial_pause
        )
        heartbeat.start()
        try:
            outcome = _execute_attempt(self.fn, cell, claim.token, self.fault_plan)
        finally:
            heartbeat.stop()

        # The zombie fault: heartbeats are already stopped, so sleeping
        # past the TTL guarantees a takeover; the commit below must then
        # be fenced, not applied.
        zombie = self._first_fault(cell, claim.token, ("zombie",))
        if zombie is not None and zombie.claim_once():
            time.sleep(zombie.sleep_s)

        if outcome[0] == "ok":
            _, payload, wall = outcome
            if self.queue.commit(claim, cell, payload, wall_s=wall) == "committed":
                self._report.cells_committed += 1
                self._rows.append(self._row(cell, claim, cached=False, wall_s=wall))
            else:
                self._report.zombie_writes_fenced += 1
        else:
            self.queue.record_failure(claim, outcome[1], self.worker_id)
            self._report.failures_recorded += 1
            failure = self.queue.maybe_quarantine(claim.key)
            if failure is not None:
                self._report.quarantined.append(failure)
            self.queue.release(claim)
            self._own_failed.add(claim.key)

    def _row(self, cell: Cell, claim: Claim, cached: bool, wall_s: float) -> Dict:
        return {
            "params": dict(cell.params),
            "seed": cell.seed,
            "key": claim.key,
            "cached": cached,
            "wall_s": round(wall_s, 6),
            "attempts": claim.token,
        }

    # -- the shard manifest -------------------------------------------------

    def _shard_manifest(self, started: str) -> RunManifest:
        """This worker's slice of the run, in the standard manifest shape.

        ``cells`` holds only the rows *this* worker committed;
        ``RunManifest.merge`` reassembles the full grid from all shards.
        ``retries`` counts failure records (each is one failed attempt),
        mirroring the in-process runner's accounting.
        """
        report = self._report
        return RunManifest(
            fn=self.queue.fn_name,
            grid=_infer_grid(self.queue.cells),
            seeds=sorted({c.seed for c in self.queue.cells}),
            fixed=_infer_fixed(self.queue.cells),
            workers=1,
            cache_dir=str(self.queue.cache.root),
            n_cells=len(self.queue.cells),
            cache_hits=report.cache_hits,
            cache_misses=report.cells_committed - report.cache_hits,
            elapsed_s=report.elapsed_s,
            cells=list(self._rows),
            retries=report.failures_recorded,
            takeovers=report.takeovers,
            zombie_writes_fenced=report.zombie_writes_fenced,
            cache_tmp_reaped=report.cache_tmp_reaped,
            failures=[f.to_dict() for f in report.quarantined],
            git_sha=git_sha(),
            started_at=started,
            extra={
                "worker_id": self.worker_id,
                "host": socket.gethostname().split(".")[0],
                "pid": os.getpid(),
                "cells_claimed": report.cells_claimed,
                "queue_dir": str(self.queue.root),
            },
        )

"""The concurrent (1+beta) MultiQueue model.

Faithful to the algorithm of Rihani–Sanders–Dementiev plus the paper's
beta relaxation:

* ``insert``: pick a uniformly random queue, ``try_lock`` it; on failure
  re-pick (never wait);
* ``deleteMin``: with probability ``beta``, read the tops of two random
  queues *without locking* (each top lives in its own cache line —
  modelled by a :class:`~repro.sim.primitives.SimCell` per queue), lock
  the queue with the better top, re-validate, pop; with probability
  ``1 - beta``, use a single random queue.  If the lock attempt fails or
  validation shows the top changed, restart the whole operation.

Real per-queue heaps hold real ``(priority, eid)`` elements, so rank
errors come out of the actual interleaving, not a synthetic error model.

Graceful degradation (chaos-engine hooks):

* failed try-locks back off exponentially (``cost.backoff_base``
  doubling per consecutive failure, capped), and deletions give up and
  report "empty" after ``max_delete_retries`` attempts instead of
  spinning forever against dead-held locks;
* with ``lock_lease`` set, queue locks run in lease mode: a stalled or
  crashed holder loses the lock after the lease expires, and critical
  sections re-validate holdership (``GuardedWrite``/``Release`` results)
  before publishing tops — element conservation holds even when locks
  are revoked mid-operation, because heap mutations are atomic at their
  instants and each element is popped exactly once.

Fault injection lives in :mod:`repro.sim.faults` (engine-level, with a
dedicated fault RNG); the ``preempt_prob``/``preempt_cycles`` knobs kept
here are the legacy in-model version of
:class:`~repro.sim.faults.LockHolderPreempt` and are deprecated.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.concurrent.recorder import OpRecorder
from repro.pqueues import BinaryHeap
from repro.sanitizer.annotations import guarded_by, shared_state
from repro.sim.engine import Engine
from repro.sim.primitives import SimCell, SimLock
from repro.sim.syscalls import Acquire, Delay, GuardedWrite, Read, Release, TryAcquire
from repro.utils.rngtools import SeedLike, as_generator

#: Sentinel stored in a top cell when its queue is empty.
EMPTY = None

#: Default seed of the dedicated fault RNG (kept fixed so runs remain
#: reproducible when the caller does not provide one).
_DEFAULT_FAULT_SEED = 0xFA017


@shared_state(
    # The published top of queue i (``_tops[i]``) is owned by queue i's
    # lock (``_locks[i]``): writes only under the lock (GuardedWrite, so
    # lease revocation is revalidated), lock-free reads blessed — the
    # algorithm's unsynchronized peeks re-validate under the lock.
    cells={"_tops": guarded_by("_locks", atomic_reads=True, lease_guarded=True)},
    lock_order="ascending-index",
)
class ConcurrentMultiQueue:
    """Simulated concurrent MultiQueue with (1+beta) deletion.

    Parameters
    ----------
    engine:
        The simulation engine (provides the clock and cost model).
    n_queues:
        Number of lock-protected sequential queues (the paper uses
        ``2 * threads``).
    beta:
        Two-choice probability for deletions.
    rng:
        Seed/generator for queue choices (model-internal randomness).
    recorder:
        Optional :class:`OpRecorder`; when provided, every operation is
        recorded at its linearization point.
    stickiness:
        Operations a thread keeps reusing its random queue choices for.
    delete_locking:
        ``'better'`` or ``'both'`` (Appendix C's simple strategy).
    preempt_prob / preempt_cycles:
        .. deprecated::
            Legacy in-model preemption; superseded by
            :class:`~repro.sim.faults.LockHolderPreempt`, which injects
            at engine level.  Still honoured, but drawing from the
            dedicated fault RNG (``fault_rng``), so enabling it no
            longer perturbs the queue-choice sequence.
    fault_rng:
        Seed/generator for fault randomness only (default: a fixed
        constant, so fault coin flips are reproducible and independent
        of the model RNG).
    max_delete_retries:
        Attempts before ``deleteMin`` reports the structure empty
        (default ``8 * n_queues``, the historical spin cap — now paired
        with exponential backoff rather than a bare spin).
    lock_lease:
        Optional lease (cycles) on every queue lock; see
        :class:`~repro.sim.primitives.SimLock`.
    """

    def __init__(
        self,
        engine: Engine,
        n_queues: int,
        beta: float = 1.0,
        rng: SeedLike = None,
        recorder: Optional[OpRecorder] = None,
        stickiness: int = 1,
        delete_locking: str = "better",
        preempt_prob: float = 0.0,
        preempt_cycles: float = 0.0,
        fault_rng: SeedLike = None,
        max_delete_retries: Optional[int] = None,
        lock_lease: Optional[float] = None,
    ) -> None:
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        if stickiness < 1:
            raise ValueError(f"stickiness must be >= 1, got {stickiness}")
        if delete_locking not in ("better", "both"):
            raise ValueError(f"delete_locking must be 'better' or 'both', got {delete_locking!r}")
        if not 0.0 <= preempt_prob <= 1.0:
            raise ValueError(f"preempt_prob must be in [0, 1], got {preempt_prob}")
        if preempt_cycles < 0:
            raise ValueError(f"preempt_cycles must be non-negative, got {preempt_cycles}")
        if max_delete_retries is not None and max_delete_retries < 1:
            raise ValueError(f"max_delete_retries must be >= 1, got {max_delete_retries}")
        if lock_lease is not None and lock_lease <= 0:
            raise ValueError(f"lock_lease must be positive, got {lock_lease}")
        self.engine = engine
        self.n_queues = n_queues
        self.beta = beta
        #: Operations a thread keeps reusing its random queue choices for
        #: (1 = re-randomize every op, the paper's algorithm; larger
        #: values trade rank quality for cache locality, as in follow-up
        #: MultiQueue work).
        self.stickiness = stickiness
        #: 'better' locks only the queue with the smaller observed top
        #: (Rihani et al.); 'both' locks both sampled queues in index
        #: order and compares under the locks — Appendix C's "simple
        #: locking strategy".
        self.delete_locking = delete_locking
        self._rng = as_generator(rng)
        #: Dedicated fault randomness (legacy preemption coin flips) —
        #: kept separate from the model RNG so fault settings never
        #: perturb queue choices and A/B runs stay paired.
        self._fault_rng = as_generator(
            fault_rng if fault_rng is not None else _DEFAULT_FAULT_SEED
        )
        self._recorder = recorder
        self.max_delete_retries = (
            max_delete_retries if max_delete_retries is not None else 8 * n_queues
        )
        self.lock_lease = lock_lease
        self._heaps: List[BinaryHeap] = [BinaryHeap() for _ in range(n_queues)]
        self._locks: List[SimLock] = [
            SimLock(name=f"mq-lock-{i}", lease=lock_lease) for i in range(n_queues)
        ]
        #: Published top priority of each queue (lock-free peek target).
        self._tops: List[SimCell] = [SimCell(EMPTY, name=f"mq-top-{i}") for i in range(n_queues)]
        #: Per-thread sticky state: tid -> [queue, ops_remaining].
        self._sticky_insert: dict = {}
        #: Per-thread sticky state: tid -> [i, j, ops_remaining].
        self._sticky_delete: dict = {}
        #: Appendix C generalized: with probability ``preempt_prob`` a
        #: thread is descheduled for ``preempt_cycles`` *while holding
        #: its queue lock(s)*.  Deprecated — see class docstring.
        self.preempt_prob = preempt_prob
        self.preempt_cycles = preempt_cycles

    # -- setup -----------------------------------------------------------

    def prefill(self, priorities) -> None:
        """Bulk-load elements before the clock starts (zero sim cost)."""
        for priority in priorities:
            priority = int(priority)
            eid = self._new_eid(priority)
            q = int(self._rng.integers(self.n_queues))
            self._heaps[q].push(priority, eid)
            self._publish_top(q)
            if self._recorder is not None:
                self._recorder.record_insert(0.0, eid)

    def _new_eid(self, priority: int) -> int:
        if self._recorder is not None:
            return self._recorder.new_element(priority)
        return -1

    def _publish_top(self, q: int) -> None:
        """Refresh queue ``q``'s top cell from its heap (direct, used at
        prefill time and under the queue's lock)."""
        heap = self._heaps[q]
        # staticcheck: allow(SAN104) prefill runs before the clock starts
        self._tops[q].value = heap.peek().priority if len(heap) else EMPTY

    # -- metrics -------------------------------------------------------------

    def lock_failure_ratio(self) -> float:
        """Aggregate failed-try ratio across all queue locks."""
        acq = sum(l.acquisitions for l in self._locks)
        fail = sum(l.failed_tries for l in self._locks)
        total = acq + fail
        return fail / total if total else 0.0

    def lock_revocations(self) -> int:
        """Total lease revocations across all queue locks."""
        return sum(l.revocations for l in self._locks)

    def total_size(self) -> int:
        """Elements currently stored (direct inspection)."""
        return sum(len(h) for h in self._heaps)

    # -- operations -------------------------------------------------------------

    def _maybe_preempt(self) -> Generator:
        """Possibly stall here (while holding locks) per the legacy
        preemption injection parameters (fault RNG, not model RNG)."""
        if self.preempt_prob > 0.0 and self._fault_rng.random() < self.preempt_prob:
            yield Delay(self.preempt_cycles)

    def _backoff_cycles(self, failures: int) -> float:
        """Exponential backoff after ``failures`` consecutive failed
        tries: ``backoff_base * 2^(failures-1)``, capped at 64x."""
        base = self.engine.cost.backoff_base
        return base * (2 ** min(failures - 1, 6))

    def insert_op(self, tid: int, priority: int) -> Generator:
        """One concurrent insert (generator to run on the engine)."""
        cost = self.engine.cost
        eid = self._new_eid(priority)
        sticky = self._sticky_insert.get(tid)
        failures = 0
        while True:
            if sticky is not None and sticky[1] > 0:
                q = sticky[0]
            else:
                yield Delay(cost.rng_draw)
                q = int(self._rng.integers(self.n_queues))
                sticky = [q, self.stickiness]
            ok = yield TryAcquire(self._locks[q])
            if ok:
                sticky[1] -= 1
                self._sticky_insert[tid] = sticky
                break
            sticky = None  # lock failure: re-randomize immediately
            failures += 1
            yield Delay(self._backoff_cycles(failures))
        heap = self._heaps[q]
        heap.push(priority, eid)
        if self._recorder is not None:
            self._recorder.record_insert(self.engine.now, eid)
        yield Delay(cost.pq_op_cost(len(heap)))
        yield from self._maybe_preempt()
        yield GuardedWrite(self._tops[q], heap.peek().priority, self._locks[q])
        yield Release(self._locks[q])
        return eid

    def delete_min_op(self, tid: int) -> Generator:
        """One concurrent (1+beta) deleteMin; returns ``(priority, eid)``
        or ``None`` if the structure appears empty (or stays unreachable
        for ``max_delete_retries`` attempts — graceful degradation under
        dead-held locks)."""
        if self.delete_locking == "both":
            result = yield from self._delete_lock_both(tid)
            return result
        cost = self.engine.cost
        rng = self._rng
        sticky = self._sticky_delete.get(tid)
        attempts = 0
        failures = 0
        while True:
            attempts += 1
            if attempts > self.max_delete_retries:
                # Too many failures: the structure is likely (nearly)
                # empty or its queues are unreachable.  Report empty
                # rather than spin forever.
                return None
            two = self.beta >= 1.0 or (self.beta > 0.0 and rng.random() < self.beta)
            if sticky is not None and sticky[2] > 0:
                i, j = sticky[0], sticky[1]
            else:
                yield Delay(cost.rng_draw)
                i = int(rng.integers(self.n_queues))
                j = int(rng.integers(self.n_queues))
                sticky = [i, j, self.stickiness]
            if two:
                top_i = yield Read(self._tops[i])
                top_j = yield Read(self._tops[j])
                if top_i is EMPTY and top_j is EMPTY:
                    sticky = None
                    continue
                if top_j is EMPTY:
                    chosen = i
                elif top_i is EMPTY:
                    chosen = j
                else:
                    chosen = i if top_i <= top_j else j
            else:
                top_i = yield Read(self._tops[i])
                if top_i is EMPTY:
                    sticky = None
                    continue
                chosen = i
            ok = yield TryAcquire(self._locks[chosen])
            if not ok:
                sticky = None  # restart with fresh queues, per the algorithm
                failures += 1
                yield Delay(self._backoff_cycles(failures))
                continue
            failures = 0
            heap = self._heaps[chosen]
            if not len(heap):
                # Stale top: republish emptiness so later peeks don't
                # keep chasing a value that is no longer there.
                yield GuardedWrite(self._tops[chosen], EMPTY, self._locks[chosen])
                yield Release(self._locks[chosen])
                sticky = None
                continue
            entry = heap.pop()
            if self._recorder is not None and entry.item != -1:
                self._recorder.record_remove(self.engine.now, entry.item)
            yield Delay(cost.pq_op_cost(len(heap)))
            yield from self._maybe_preempt()
            yield GuardedWrite(
                self._tops[chosen],
                heap.peek().priority if len(heap) else EMPTY,
                self._locks[chosen],
            )
            yield Release(self._locks[chosen])
            sticky[2] -= 1
            self._sticky_delete[tid] = sticky
            return (entry.priority, entry.item)

    def _delete_lock_both(self, tid: int) -> Generator:
        """Appendix C's 'simple locking strategy': lock both sampled
        queues (in index order, try-lock with full restart on failure),
        compare the true tops under the locks, pop the better one."""
        cost = self.engine.cost
        rng = self._rng
        attempts = 0
        failures = 0
        while True:
            attempts += 1
            if attempts > self.max_delete_retries:
                return None
            yield Delay(cost.rng_draw)
            two = self.beta >= 1.0 or (self.beta > 0.0 and rng.random() < self.beta)
            i = int(rng.integers(self.n_queues))
            j = int(rng.integers(self.n_queues)) if two else i
            first, second = min(i, j), max(i, j)
            ok = yield TryAcquire(self._locks[first])
            if not ok:
                failures += 1
                yield Delay(self._backoff_cycles(failures))
                continue
            if second != first:
                ok = yield TryAcquire(self._locks[second])
                if not ok:
                    yield Release(self._locks[first])
                    failures += 1
                    yield Delay(self._backoff_cycles(failures))
                    continue
            failures = 0
            heap_i, heap_j = self._heaps[i], self._heaps[j]
            if len(heap_i) and (not len(heap_j) or heap_i.peek() <= heap_j.peek()):
                chosen = i
            elif len(heap_j):
                chosen = j
            else:
                # Both sampled queues empty: republish emptiness so the
                # lock-free peeks stop seeing stale tops.
                yield GuardedWrite(self._tops[i], EMPTY, self._locks[i])
                if second != first:
                    yield GuardedWrite(self._tops[j], EMPTY, self._locks[j])
                    yield Release(self._locks[second])
                yield Release(self._locks[first])
                continue
            heap = self._heaps[chosen]
            entry = heap.pop()
            if self._recorder is not None and entry.item != -1:
                self._recorder.record_remove(self.engine.now, entry.item)
            yield Delay(cost.pq_op_cost(len(heap)))
            yield from self._maybe_preempt()
            yield GuardedWrite(
                self._tops[chosen],
                heap.peek().priority if len(heap) else EMPTY,
                self._locks[chosen],
            )
            if second != first:
                yield Release(self._locks[second])
            yield Release(self._locks[first])
            return (entry.priority, entry.item)

    # -- adversary hooks (Appendix C counterexample) -----------------------------

    def hold_locks_op(self, queue_indices, duration: float) -> Generator:
        """Adversary: grab the given queue locks (in index order, blocking)
        and sit on them for ``duration`` cycles.

        This reproduces Appendix C's counterexample: while two queues are
        locked, no removal can touch them, so their top elements age and
        the rank error of the rest of the system grows without bound.

        **Ordering contract.**  Blocking acquisition is deadlock-free
        only because *every* blocking acquirer takes queue locks in
        ascending index order (this op sorts and deduplicates its
        targets).  The MultiQueue's own operations use ``TryAcquire``
        with full restart, so they can never participate in a wait
        cycle; but a second blocking acquirer that disobeys the order —
        or a worker whose lock is dead-held by a crashed thread — parks
        forever, and the engine's :class:`~repro.sim.engine.DeadlockError`
        then reports the holders, the waiters, and the cycle by name
        (see ``tests/concurrent/test_chaos.py``).

        Under lock leases the hold is best-effort: the engine may revoke
        a lease-expired lock mid-stall, in which case the final release
        observes the revocation (result ``False``) and is a no-op.
        """
        indices = sorted(set(int(q) for q in queue_indices))
        for q in indices:
            yield Acquire(self._locks[q])
        yield Delay(duration)
        for q in reversed(indices):
            yield Release(self._locks[q])

    def __repr__(self) -> str:
        return (
            f"ConcurrentMultiQueue(n_queues={self.n_queues}, beta={self.beta}, "
            f"size={self.total_size()})"
        )

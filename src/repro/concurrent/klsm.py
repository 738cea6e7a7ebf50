"""Model of the k-LSM relaxed priority queue (Wimmer et al.).

The k-LSM composes a *distributed* LSM — per-thread log-structured merge
components, accessed without synchronization — with a *shared* LSM that
bounds global staleness.  ``deleteMin`` may legally return any element
among the ``k * P + k`` smallest, which is the relaxation the paper
benchmarks against (with relaxation factor 256).

Model structure:

* each thread owns a local heap; inserts go there (cheap, contention
  free) until the local component exceeds ``k``, at which point it is
  *merged* into the shared component under a lock (amortized, but the
  merge pays the full cross-thread transfer);
* ``deleteMin`` compares the local minimum against the shared top (one
  contended read) and pops the smaller; popping from shared requires the
  shared lock.

Rank slack comes from real hiding: elements sitting in other threads'
local components are invisible, exactly the k-LSM semantics (bounded by
``k * (P - 1)``).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.concurrent.recorder import OpRecorder
from repro.pqueues import BinaryHeap
from repro.sanitizer.annotations import guarded_by, shared_state
from repro.sim.engine import Engine
from repro.sim.primitives import SimCell, SimLock
from repro.sim.syscalls import Acquire, Delay, Read, Release, Write
from repro.utils.rngtools import SeedLike, as_generator

#: Sentinel published when the shared component is empty.
EMPTY = None


@shared_state(
    # The shared component's published top: written only under the
    # shared lock (plain Write — the lock never runs in lease mode);
    # read lock-free by every deleteMin's local-vs-shared comparison.
    cells={"_shared_top": guarded_by("_shared_lock", atomic_reads=True)},
)
class KLSMPQ:
    """Simulated k-LSM relaxed priority queue.

    Parameters
    ----------
    relaxation:
        The ``k`` parameter: local components hold at most ``k`` elements
        before being merged into the shared component.  The paper's
        evaluation uses 256.
    """

    def __init__(
        self,
        engine: Engine,
        relaxation: int = 256,
        rng: SeedLike = None,
        recorder: Optional[OpRecorder] = None,
    ) -> None:
        if relaxation <= 0:
            raise ValueError(f"relaxation must be positive, got {relaxation}")
        self.engine = engine
        self.relaxation = relaxation
        self._rng = as_generator(rng)
        self._recorder = recorder
        self._shared = BinaryHeap()
        self._shared_lock = SimLock(name="klsm-shared-lock")
        self._shared_top = SimCell(EMPTY, name="klsm-shared-top")
        self._locals: Dict[int, BinaryHeap] = {}

    def prefill(self, priorities) -> None:
        """Bulk-load the shared component before the clock starts."""
        for priority in priorities:
            priority = int(priority)
            eid = self._new_eid(priority)
            self._shared.push(priority, eid)
            if self._recorder is not None:
                self._recorder.record_insert(0.0, eid)
        # staticcheck: allow(SAN104) prefill runs before the clock starts
        self._shared_top.value = (
            self._shared.peek().priority if len(self._shared) else EMPTY
        )

    def _new_eid(self, priority: int) -> int:
        if self._recorder is not None:
            return self._recorder.new_element(priority)
        return -1

    def _local(self, tid: int) -> BinaryHeap:
        if tid not in self._locals:
            self._locals[tid] = BinaryHeap()
        return self._locals[tid]

    def total_size(self) -> int:
        """Elements currently stored (shared + all locals)."""
        return len(self._shared) + sum(len(h) for h in self._locals.values())

    def lock_failure_ratio(self) -> float:
        """Failed-try ratio of the shared lock (blocking acquires don't
        fail, so this is 0; present for interface uniformity)."""
        return self._shared_lock.failure_ratio()

    # -- operations ---------------------------------------------------------

    def insert_op(self, tid: int, priority: int) -> Generator:
        """Insert into the thread-local component; merge when full."""
        cost = self.engine.cost
        eid = self._new_eid(priority)
        local = self._local(tid)
        local.push(priority, eid)
        if self._recorder is not None:
            # The element is logically in the structure immediately (the
            # k-LSM's relaxation hides it from other threads, but it is
            # inserted).
            self._recorder.record_insert(self.engine.now, eid)
        yield Delay(cost.pq_op_cost(len(local)))
        if len(local) > self.relaxation:
            yield from self._merge_local(tid)
        return eid

    def _merge_local(self, tid: int) -> Generator:
        """Drain the local component into the shared one, under lock."""
        cost = self.engine.cost
        local = self._local(tid)
        yield Acquire(self._shared_lock)
        merged = 0
        while len(local):
            entry = local.pop()
            self._shared.push(entry.priority, entry.item)
            merged += 1
        # LSM merges are sequential scans: amortized cost per element is
        # small, but the whole batch is paid here.
        yield Delay(cost.local_work + 0.5 * cost.pq_per_level * merged)
        yield Write(
            self._shared_top,
            self._shared.peek().priority if len(self._shared) else EMPTY,
        )
        yield Release(self._shared_lock)

    def delete_min_op(self, tid: int) -> Generator:
        """Pop the smaller of (local min, shared top); spy when starved.

        Returns ``None`` only when the whole structure is empty (modulo
        a benign race where concurrent deleters drain it mid-operation).
        """
        cost = self.engine.cost
        local = self._local(tid)
        while True:
            local_top = local.peek().priority if len(local) else None
            shared_top = yield Read(self._shared_top)
            if local_top is not None and (shared_top is EMPTY or local_top <= shared_top):
                if not len(local):
                    continue  # a spy stole our last local element mid-read
                entry = local.pop()
                if self._recorder is not None and entry.item != -1:
                    self._recorder.record_remove(self.engine.now, entry.item)
                yield Delay(cost.pq_op_cost(len(local)))
                return (entry.priority, entry.item)
            if shared_top is EMPTY:
                # Own views empty: *spy* on other threads' local
                # components (the real k-LSM's spy copies a remote local;
                # the model takes its minimum, preserving conservation).
                result = yield from self._spy_op(tid)
                return result
            yield Acquire(self._shared_lock)
            if not len(self._shared):
                # Stale top: the shared component drained since the read.
                yield Write(self._shared_top, EMPTY)
                yield Release(self._shared_lock)
                continue
            entry = self._shared.pop()
            if self._recorder is not None and entry.item != -1:
                self._recorder.record_remove(self.engine.now, entry.item)
            yield Delay(cost.pq_op_cost(len(self._shared)))
            yield Write(
                self._shared_top,
                self._shared.peek().priority if len(self._shared) else EMPTY,
            )
            yield Release(self._shared_lock)
            return (entry.priority, entry.item)

    def _spy_op(self, tid: int) -> Generator:
        """Steal the best element from some other thread's local component.

        Pays a cross-thread scan cost per peeked component; returns
        ``None`` only when every component is genuinely empty (modulo a
        benign race with concurrent deleters).
        """
        cost = self.engine.cost
        for _attempt in range(4):
            best_tid = None
            best_priority = None
            for other, heap in list(self._locals.items()):
                if other == tid:
                    continue
                yield Delay(cost.read + cost.cache_transfer)
                if not len(heap):  # re-check: it may have drained mid-scan
                    continue
                top = heap.peek().priority
                if best_priority is None or top < best_priority:
                    best_tid, best_priority = other, top
            if best_tid is not None:
                heap = self._locals[best_tid]
                if not len(heap):
                    continue  # lost a race to its owner; rescan
                entry = heap.pop()
                if self._recorder is not None and entry.item != -1:
                    self._recorder.record_remove(self.engine.now, entry.item)
                yield Delay(cost.pq_op_cost(len(heap)))
                return (entry.priority, entry.item)
            # Nothing visible in locals; double-check the shared component
            # under the lock before declaring the structure empty.
            yield Acquire(self._shared_lock)
            if len(self._shared):
                entry = self._shared.pop()
                if self._recorder is not None and entry.item != -1:
                    self._recorder.record_remove(self.engine.now, entry.item)
                yield Delay(cost.pq_op_cost(len(self._shared)))
                yield Write(
                    self._shared_top,
                    self._shared.peek().priority if len(self._shared) else EMPTY,
                )
                yield Release(self._shared_lock)
                return (entry.priority, entry.item)
            yield Release(self._shared_lock)
            return None
        return None

    def __repr__(self) -> str:
        return f"KLSMPQ(relaxation={self.relaxation}, size={self.total_size()})"

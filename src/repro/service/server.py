"""Shard owners, d-choice routing, and whole-service orchestration.

The service is a sharded (1+beta) MultiQueue made of real processes:
each *shard owner* process owns one binary heap and drains its request
lanes; clients route each request with the same policy family as the
paper's process — inserts via a (possibly gamma-biased) distribution
over shards, deletes via a beta-mixed one/two-choice on the seqlock-
published shard tops.  :func:`run_service` wires the whole thing up:
segment, owners, prefill, loadgen workers, event collection, teardown,
and the post-mortem ring audit that proves no crash tore shared state.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import multiprocessing
import multiprocessing.connection
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies import biased_insert_probs
from repro.service.loadgen import ArrivalSchedule, ScheduleSpec, loadgen_main
from repro.service.shm import (
    EV_DELETE,
    EV_EMPTY,
    EV_INSERT,
    J_BYE,
    J_STOP,
    JournalEntry,
    FencedOwnerError,
    OP_DELETE,
    OP_INSERT,
    OP_STOP,
    ServiceSegment,
    TOP_EMPTY,
    TornSlotError,
)
from repro.utils.rngtools import SeedLike, as_generator, spawn_seeds

_NS = 1_000_000_000

#: Requests drained per lane per sweep.  Every insert and delete
#: publishes its post-op top at its commit, so this does not bound top
#: staleness: it bounds how long one lane holds the owner while the
#: others wait, the longest chunk, and the skew between a chunk's one
#: ``t1_ns`` stamp and its last commit.
OWNER_BATCH = 64

#: Seconds the collector sleeps after each pass over the journals.  A
#: pass reads every committed entry up to the ring end, so at this pace
#: an 8192-slot journal fills only at over 1.6M ops/s per shard, far
#: beyond an owner's rate; a shorter interval would spend the collector's
#: CPU on more, smaller passes.
COLLECTOR_POLL_S = 0.005

#: Exit code of an owner that discovered it was fenced (a zombie): its
#: successor already took over, so dying is the correct behaviour.
EXIT_FENCED = 3

#: Uniform floats a :class:`Router` draws per generator call.
ROUTER_DRAW_BLOCK = 1024

#: A two-choice probe whose heartbeat trails the other probe's by more
#: than this share of ``dead_after_s`` loses the comparison.  Its owner
#: has stopped publishing, so its top is stale, and a low stale top would
#: otherwise win every delete that probes it until the shard is declared
#: dead — deletes a successor later applies to a heap they can empty.
STALE_SHARE = 0.25

#: Routing policies, mirroring the process variants in ``repro.core``:
#: ``mq`` is the paper's (1+beta) MultiQueue, ``single`` funnels
#: everything to one shard (the sequential-heap baseline), ``rr`` is
#: deterministic round-robin (the d=1-without-randomness strawman).
POLICIES = ("mq", "single", "rr")


class AllShardsDeadError(RuntimeError):
    """Every shard looked dead to a router: nowhere left to route.

    ``ages`` maps shard -> seconds since its last heartbeat, or ``None``
    for a shard that never published one — enough for an operator to
    tell "the cluster never came up" from "the cluster just died".
    Subclasses :class:`RuntimeError` so pre-existing handlers keep
    working.
    """

    def __init__(self, ages: Dict[int, Optional[float]]) -> None:
        self.ages = dict(ages)
        detail = ", ".join(
            f"shard {s}: "
            + ("never published" if age is None else f"heartbeat {age:.3f}s stale")
            for s, age in sorted(self.ages.items())
        )
        super().__init__(f"every shard is dead; nowhere to route ({detail})")


class Router:
    """Client-side shard choice for inserts and deletes.

    Deletes under ``mq`` flip a beta-coin: tails probes one shard top,
    heads probes two (with replacement, matching the paper's ``p_i``
    law) and takes the smaller, a tie going to the first probe.  Tops
    come from the shard headers' seqlock snapshots — advisory, never
    locked.  A probe whose heartbeat trails the other's by more than
    ``STALE_SHARE * dead_after_s`` loses (see :data:`STALE_SHARE`).
    Shards marked dead are excluded from every subsequent draw.

    Randomness is drawn in blocks of uniform floats ``u`` in [0, 1) and
    spent one float per draw: an index is ``alive[int(u * len(alive))]``,
    scaled at use time so a shard marked dead mid-block is never drawn;
    the coin is ``u < beta``; a gamma-biased insert inverts the
    cumulative insert probabilities of the alive shards at ``u * total``.
    Both products stay below their bound (``u <= 1 - 2**-53``).
    """

    def __init__(
        self,
        segment: ServiceSegment,
        beta: float,
        gamma: float = 0.0,
        policy: str = "mq",
        rng: SeedLike = None,
        dead_after_s: float = 2.0,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}: expected one of {POLICIES}")
        if not 0 <= beta <= 1:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self.n = segment.shards
        self._stale_ns = int(STALE_SHARE * dead_after_s * _NS)
        self.beta = float(beta)
        self.policy = policy
        self._rng = as_generator(rng)
        self._draws: List[float] = []
        self._headers = [segment.header(s) for s in range(self.n)]
        self._alive: List[int] = list(range(self.n))
        self._insert_probs = biased_insert_probs(self.n, gamma) if gamma else None
        self._insert_cdf: Optional[List[float]] = None
        self._alive_changed()
        self._rr = 0

    def alive_shards(self) -> Tuple[int, ...]:
        return tuple(self._alive)

    def dead_shards(self) -> Tuple[int, ...]:
        alive = set(self._alive)
        return tuple(s for s in range(self.n) if s not in alive)

    def heartbeat_ages(self, now_ns: Optional[int] = None) -> Dict[int, Optional[float]]:
        """Seconds since each shard's last heartbeat (None: never published)."""
        now = time.monotonic_ns() if now_ns is None else now_ns
        ages: Dict[int, Optional[float]] = {}
        for s, header in enumerate(self._headers):
            heartbeat_ns = header.read()[3]
            ages[s] = None if heartbeat_ns == 0 else (now - heartbeat_ns) / _NS
        return ages

    def mark_dead(self, shard: int) -> None:
        if shard in self._alive:
            self._alive.remove(shard)
            self._alive_changed()
        if not self._alive:
            raise AllShardsDeadError(self.heartbeat_ages())

    def mark_alive(self, shard: int) -> None:
        """Re-admit a recovered shard so traffic stops herding onto survivors."""
        if not 0 <= shard < self.n:
            raise IndexError(f"shard {shard} outside [0, {self.n})")
        if shard not in self._alive:
            bisect.insort(self._alive, shard)
            self._alive_changed()

    def _alive_changed(self) -> None:
        if self._insert_probs is not None and self._alive:
            self._insert_cdf = list(
                itertools.accumulate(self._insert_probs[self._alive].tolist())
            )

    def _refill(self) -> List[float]:
        """A fresh block of draws; callers refill below three, the most
        one decision spends."""
        self._draws = self._rng.random(ROUTER_DRAW_BLOCK).tolist()
        return self._draws

    def _fixed_shard(self) -> int:
        """The ``single``/``rr`` choice: no randomness, no tops."""
        if self.policy == "single":
            return self._alive[0]
        shard = self._alive[self._rr % len(self._alive)]
        self._rr += 1
        return shard

    def insert_shard(self) -> int:
        if self.policy != "mq":
            return self._fixed_shard()
        draws = self._draws
        if len(draws) < 3:
            draws = self._refill()
        alive = self._alive
        cdf = self._insert_cdf
        if cdf is None:
            return alive[int(draws.pop() * len(alive))]
        return alive[bisect.bisect_right(cdf, draws.pop() * cdf[-1])]

    def delete_shard(self) -> int:
        if self.policy != "mq":
            return self._fixed_shard()
        draws = self._draws
        if len(draws) < 3:
            draws = self._refill()
        alive = self._alive
        k = len(alive)
        i = alive[int(draws.pop() * k)]
        beta = self.beta
        if not (beta >= 1.0 or (beta > 0.0 and draws.pop() < beta)):
            return i
        j = alive[int(draws.pop() * k)]
        if i == j:
            return i
        _, top_i, _, beat_i = self._headers[i].read()
        _, top_j, _, beat_j = self._headers[j].read()
        if beat_j - beat_i > self._stale_ns:
            return j
        if beat_i - beat_j > self._stale_ns:
            return i
        return i if top_i <= top_j else j


# -- the shard-owner process --------------------------------------------------


@dataclass
class RecoveredState:
    """Everything a (re)starting owner rebuilds from snapshot + journal."""

    heap: List[int]
    clock: int
    stopped: List[bool]
    watermarks: List[int]  # per lane: lowest request position not yet applied
    cum_inserts: int
    cum_deletes: int
    cum_empties: int
    fenced_entries: int  # journal entries skipped for a regressed epoch
    replayed: int  # journal entries applied on top of the snapshot
    monotone: bool  # no replayed request position dips below its lane's watermark


def replay_journal(snap, entries: Sequence[JournalEntry]) -> RecoveredState:
    """Fold journal ``entries`` past the snapshot's fold point into state.

    Pure function of shm content so the conservation auditor can run the
    identical replay out-of-process.  Entries below the fold point are
    already in the snapshot (the journal keeps them until the collector
    has read them).  Entries whose epoch regresses below an already-seen
    epoch are zombie commits and are skipped (they could only exist if
    fencing failed; the auditor counts them).  ``monotone`` is false if a
    replayed request position is below its lane's watermark — a request
    applied twice.
    """
    heap = [int(x) for x in snap.labels]
    heapq.heapify(heap)
    watermarks = list(snap.watermarks)
    stopped = [bool(snap.stopped_mask >> lane & 1) for lane in range(len(watermarks))]
    clock = snap.clock
    cum_inserts, cum_deletes, cum_empties = (
        snap.cum_inserts, snap.cum_deletes, snap.cum_empties,
    )
    max_epoch = snap.epoch
    fenced = replayed = 0
    monotone = True
    for e in entries:
        if e.pos < snap.fold_pos:
            continue  # already folded into the snapshot labels
        if e.epoch < max_epoch:
            fenced += 1
            continue
        max_epoch = max(max_epoch, e.epoch)
        replayed += 1
        clock = max(clock, e.clock)
        if e.op == J_BYE:
            continue  # carries no request: leaves the watermarks alone
        monotone = monotone and e.reqpos >= watermarks[e.lane]
        watermarks[e.lane] = max(watermarks[e.lane], e.reqpos + 1)
        if e.op == EV_INSERT:
            heapq.heappush(heap, e.label)
            cum_inserts += 1
        elif e.op == EV_DELETE:
            if not heap or heap[0] != e.label:
                raise TornSlotError(
                    f"journal replay diverged: entry {e.pos} deletes {e.label}, "
                    f"heap top is {heap[0] if heap else 'empty'}"
                )
            heapq.heappop(heap)
            cum_deletes += 1
        elif e.op == EV_EMPTY:
            cum_empties += 1
        elif e.op == J_STOP:
            stopped[e.lane] = True
    return RecoveredState(
        heap=heap, clock=clock, stopped=stopped, watermarks=watermarks,
        cum_inserts=cum_inserts, cum_deletes=cum_deletes, cum_empties=cum_empties,
        fenced_entries=fenced, replayed=replayed, monotone=monotone,
    )


def recover_shard_state(segment: ServiceSegment, shard: int) -> RecoveredState:
    """Reconstruct a shard's full owner state from its snapshot + journal."""
    snap = segment.snapshot(shard).read()
    journal = segment.journal(shard)
    journal.recover()
    return replay_journal(snap, journal.scan())


class ShardOwner:
    """One shard's owner: its private heap and op path over a segment.

    Construction is the boot: bump the header epoch (fencing any
    predecessor), rebuild state from snapshot + journal, recycle request
    slots a predecessor applied but never recycled, publish, and fold
    the replayed suffix into a fresh snapshot.  :meth:`sweep` passes
    over every lane once; :meth:`run` sweeps until every lane has sent
    ``OP_STOP``, then says a durable goodbye.  ``sleep`` is the idle
    wait, so a test can drive an owner step by step.

    Each lane pass drains up to :data:`OWNER_BATCH` requests in
    *chunks*.  A chunk is the lane's committed run, decoded in one
    vectorized pass (:meth:`~repro.service.shm.SlotRing.read_run`) and
    cut after ``OP_STOP``, at the next snapshot boundary and at the
    journal's free slots.  One Python pass applies it to the heap, which
    is private to this process (only the journal and the snapshot are
    durable, and a snapshot is only taken between chunks).  Then the
    chunk is journaled in one :meth:`~repro.service.shm.JournalRing.append_chunk`,
    which still commits entry by entry, in one loop of word stores: a
    fence check (one word load of the header epoch), the commit store,
    the recycle store of the request slot, and the publish of the
    post-op ``(top, size)`` of every insert and delete.  So a SIGKILL at any
    instruction leaves each op either committed or replayable, and a
    fenced zombie commits nothing after the fence moved.
    """

    def __init__(
        self, segment: ServiceSegment, shard: int, poll_s: float = 0.0002,
        snapshot_every: int = 1024, sleep=time.sleep,
    ) -> None:
        self.shard = shard
        self.snapshot_every = snapshot_every
        self._poll_s = poll_s
        self._sleep = sleep
        self._parent = os.getppid()
        self.header = segment.header(shard)
        self.epoch = self.header.bump_epoch()
        self._fenced = self.header.fence(self.epoch)
        state = recover_shard_state(segment, shard)
        self.lanes = [segment.request_ring(shard, lane) for lane in range(segment.lanes)]
        for lane_id, ring in enumerate(self.lanes):
            ring.recover()
            # Recycle slots a predecessor applied (journaled) but died
            # before recycling — including on lanes already stopped,
            # which the drain loop never visits again.
            while ring.tail < state.watermarks[lane_id] and ring.try_peek() is not None:
                ring.advance()
        self.journal = segment.journal(shard)
        self.journal.recover()
        self.snapshot = segment.snapshot(shard)
        self.heap = state.heap
        self.stopped = state.stopped
        self.watermarks = state.watermarks
        self.clock = state.clock
        self.cum_inserts = state.cum_inserts
        self.cum_deletes = state.cum_deletes
        self.cum_empties = state.cum_empties
        self.fold_pos = self.journal.tail
        self.since_snapshot = 0
        # A successor first re-publishes ownership, then folds the
        # replayed suffix: recovery is idempotent.
        self._publish()
        self._take_snapshot()

    # -- the drain loop -----------------------------------------------------

    def run(self) -> int:
        """Sweep until every lane stopped, then journal ``J_BYE``, wait
        until the collector has read the whole journal, and fold it
        away.  Returns the residual heap size."""
        while not all(self.stopped):
            if not self.sweep():
                self._wait()
        # Durable goodbye: the collector reads J_BYE last, then the whole
        # journal folds away (nothing left pending).
        while not self._room():
            self._make_room()
        bye = self._rows(([J_BYE], len(self.heap), self.clock + 1, 0, 0, 0), time.monotonic_ns())
        if not self.journal.append_run(bye, self._fenced):
            self._not_free()
        while self.journal.cursor() < self.journal.head:
            self._wait()
        self._take_snapshot()
        self._publish()
        return len(self.heap)

    def sweep(self) -> int:
        """One pass over the unstopped lanes; returns the ops applied.

        Publishes the header once more after a pass that applied
        anything, so routers and liveness probes see fresh state —
        unless the fence moved meanwhile.
        """
        self._check_fence()
        applied = 0
        for lane_id in range(len(self.lanes)):
            if not self.stopped[lane_id]:
                applied += self._drain_lane(lane_id)
        if applied:
            self._check_fence()
            self._publish()
        return applied

    def _drain_lane(self, lane_id: int) -> int:
        """Apply up to ``OWNER_BATCH`` requests of one lane, chunk by chunk."""
        ring = self.lanes[lane_id]
        budget = OWNER_BATCH
        applied = 0
        while budget and not self.stopped[lane_id]:
            run = ring.read_run(ring.tail, budget)
            if not len(run):
                break
            limit = min(self._room(), self.snapshot_every - self.since_snapshot)
            taken, rows = self._apply_chunk(lane_id, run.view(np.int64), limit)
            budget -= taken
            applied += rows
            if self.since_snapshot >= self.snapshot_every:
                self._take_snapshot()
                self.since_snapshot = 0
            elif taken < len(run) and not rows:
                self._make_room()  # the journal is full
        return applied

    def _apply_chunk(self, lane_id: int, run: np.ndarray, limit: int) -> Tuple[int, int]:
        """Apply and journal one decoded chunk: ``(slots taken, ops applied)``.

        ``run`` is the lane's committed run as int64 slot words.  Its
        leading slots below the lane's watermark were journaled by a
        predecessor that died before recycling them: they are recycled
        with no journal entry.  Then at most ``limit`` requests are
        applied to the heap, stopping after ``OP_STOP``, and journaled
        with one ``t1_ns`` by :meth:`~repro.service.shm.JournalRing.append_chunk`,
        which also recycles their slots and publishes each post-op top.
        """
        ring = self.lanes[lane_id]
        skipped = max(0, min(len(run), self.watermarks[lane_id] - ring.tail))
        for _ in range(skipped):
            ring.advance()
        heap = self.heap
        heappush, heappop = heapq.heappush, heapq.heappop
        clock = self.clock
        evs: List[int] = []
        labels: List[int] = []
        clocks: List[int] = []
        # Post-op (top, size), published per op: stale tops make two-choice herd.
        posts: List[Optional[Tuple[int, int]]] = []
        for op, label, req_clock in run[skipped : skipped + limit, 1:4].tolist():
            clock = (clock if clock > req_clock else req_clock) + 1
            clocks.append(clock)
            if op == OP_INSERT:
                heappush(heap, label)
                evs.append(EV_INSERT)
                labels.append(label)
                posts.append((heap[0], len(heap)))
            elif op == OP_DELETE and heap:
                evs.append(EV_DELETE)
                labels.append(heappop(heap))
                posts.append((heap[0] if heap else TOP_EMPTY, len(heap)))
            elif op == OP_DELETE:
                evs.append(EV_EMPTY)
                labels.append(-1)
                posts.append(None)
            elif op == OP_STOP:
                evs.append(J_STOP)
                labels.append(0)
                posts.append(None)
                self.stopped[lane_id] = True
                break
            else:
                pos = ring.tail + len(evs)
                raise TornSlotError(f"request slot position {pos} carries opcode {op}", pos)
        self.clock = clock
        k = len(evs)
        if not k:
            return skipped, 0
        self.cum_inserts += evs.count(EV_INSERT)
        self.cum_deletes += evs.count(EV_DELETE)
        self.cum_empties += evs.count(EV_EMPTY)
        first = ring.tail  # the chunk's request positions: first, first + 1, ...
        self.watermarks[lane_id] = first + k
        self.since_snapshot += k
        now = time.monotonic_ns()
        t0s = run[skipped : skipped + k, 4]
        reqpos = np.arange(first, first + k)
        entries = self._rows((evs, labels, clocks, t0s, lane_id, reqpos), now)
        if not self.journal.append_chunk(entries, ring, self.header, posts, now):
            self._not_free()
        return skipped + k, k

    def _rows(self, columns, t1_ns: int) -> np.ndarray:
        """Journal rows of ``(ev, label, clock, t0_ns, lane, reqpos)``
        columns (sequences, or scalars for every row), stamped with
        ``t1_ns`` and this owner's epoch: the ``(k, 9)`` uint64 transpose
        of one ``(9, k)`` array, checksum row left for the append."""
        fields = np.empty((9, len(columns[0])), dtype=np.int64)
        for j, column in enumerate(columns):
            fields[j] = column
        fields[6] = t1_ns
        fields[7] = self.epoch
        return fields.view(np.uint64).T

    def _not_free(self) -> None:
        raise TornSlotError(
            f"shard {self.shard} journal position {self.journal.head} is not free",
            self.journal.head,
        )

    # -- journal room, snapshots and waiting ---------------------------------

    def _room(self) -> int:
        """Free journal slots: exact, since this owner is the only
        appender and truncator."""
        return self.journal.capacity - (self.journal.head - self.journal.tail)

    def _make_room(self) -> None:
        """One step towards a free journal slot: fold what is unfolded,
        else wait for the collector and truncate what it has read."""
        if self.fold_pos < self.journal.head:
            self._take_snapshot()  # fold, freeing whatever was collected
        else:
            self._wait()  # folded but not yet collected: the collector lags
            self._truncate()

    def _take_snapshot(self) -> None:
        self._check_fence()
        head = self.journal.head
        self.snapshot.write(
            epoch=self.epoch, clock=self.clock, fold_pos=head,
            cum_inserts=self.cum_inserts, cum_deletes=self.cum_deletes,
            cum_empties=self.cum_empties,
            stopped_mask=sum(1 << i for i, s in enumerate(self.stopped) if s),
            watermarks=self.watermarks, labels=self.heap,
        )
        self.fold_pos = head
        self._truncate()

    def _truncate(self) -> None:
        # Recycle only what is both folded and collected.
        self.journal.truncate_to(min(self.fold_pos, self.journal.cursor()))

    def _check_fence(self) -> None:
        if self._fenced():
            raise FencedOwnerError(
                f"shard {self.shard} owner epoch {self.epoch} superseded by "
                f"epoch {self.header.epoch()}"
            )

    def _publish(self) -> None:
        heap = self.heap
        self.header.publish(
            top=heap[0] if heap else TOP_EMPTY,
            size=len(heap),
            heartbeat_ns=time.monotonic_ns(),
        )

    def _wait(self) -> None:
        # Idle or backpressured: keep the heartbeat fresh so the wait
        # is not mistaken for death — but a fenced zombie must not
        # refresh a header it no longer owns, and an orphan must not
        # spin forever.
        self._check_fence()
        if os.getppid() != self._parent:
            raise SystemExit(
                f"shard {self.shard} owner orphaned: parent {self._parent} exited"
            )
        self._publish()
        self._sleep(self._poll_s)


def run_shard_owner(
    segment_name: str, shard: int, poll_s: float = 0.0002, snapshot_every: int = 1024
) -> int:
    """Own one shard: drain request lanes into a heap, journal every op.

    Every applied request is journaled (commit = the op's linearization
    point, and the collector's only source of events) *before* its
    request slot is recycled, and the heap is snapshotted every
    ``snapshot_every`` ops — so a successor can rebuild this owner's
    exact state after a SIGKILL at any instruction.  A virgin start is
    just recovery of the empty snapshot.  The owner re-checks the header
    epoch at every commit point; observing a newer epoch means a
    successor already took over, and the owner dies with
    :class:`FencedOwnerError` without committing anything further.

    Exits when every lane has sent ``OP_STOP`` (see
    :meth:`ShardOwner.run`); also exits (``SystemExit``) when its parent
    process is gone.  Returns the residual heap size.
    """
    segment = ServiceSegment.attach(segment_name)
    try:
        return ShardOwner(segment, shard, poll_s, snapshot_every).run()
    finally:
        segment.close()


def shard_owner_main(
    segment_name: str, shard: int, poll_s: float, snapshot_every: int = 1024
) -> None:
    """``multiprocessing.Process`` target wrapper."""
    try:
        run_shard_owner(segment_name, shard, poll_s, snapshot_every)
    except FencedOwnerError:
        sys.exit(EXIT_FENCED)


def _mp_context():
    """Fork where available (fast, COW schedule rebuild), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass
class ServiceCluster:
    """Lifecycle of the shard-owner processes over one segment.

    ``processes[shard]`` is always the *current* generation; respawned
    predecessors (dead or fenced zombies) move to ``retired`` so their
    exit codes stay observable.
    """

    segment: ServiceSegment
    poll_s: float = 0.0002
    snapshot_every: int = 1024
    processes: List[multiprocessing.Process] = field(default_factory=list)
    retired: List[Tuple[int, multiprocessing.Process]] = field(default_factory=list)

    def _spawn(self, shard: int, generation: int) -> multiprocessing.Process:
        ctx = _mp_context()
        proc = ctx.Process(
            target=shard_owner_main,
            args=(self.segment.name, shard, self.poll_s, self.snapshot_every),
            name=f"shard-owner-{shard}.g{generation}",
            daemon=True,
        )
        proc.start()
        return proc

    def start(self) -> None:
        for shard in range(self.segment.shards):
            self.processes.append(self._spawn(shard, generation=0))

    def kill(self, shard: int) -> None:
        """SIGKILL one owner — the crash-safety test's hammer."""
        proc = self.processes[shard]
        proc.kill()
        proc.join()

    def respawn(self, shard: int) -> multiprocessing.Process:
        """Retire the current owner generation and start the next one.

        The caller (the supervisor) is responsible for having killed or
        fenced the predecessor first; a fenced zombie is retired while
        still running and joined at :meth:`join` time, after it has
        noticed the fence and exited.
        """
        old = self.processes[shard]
        self.retired.append((shard, old))
        generation = sum(1 for s, _ in self.retired if s == shard)
        proc = self._spawn(shard, generation)
        self.processes[shard] = proc
        return proc

    def alive(self) -> List[bool]:
        """Which current owners are still running, read from each process
        sentinel: unlike ``Process.is_alive`` this never reaps, so a
        thread polling it cannot steal the exit code :meth:`join` reports.
        """
        exited = multiprocessing.connection.wait(
            [p.sentinel for p in self.processes], timeout=0
        )
        return [p.sentinel not in exited for p in self.processes]

    def retired_exitcodes(self) -> List[dict]:
        return [
            {"shard": shard, "exitcode": proc.exitcode}
            for shard, proc in self.retired
        ]

    def join(self, timeout_s: float = 30.0) -> List[Optional[int]]:
        deadline = time.monotonic() + timeout_s
        for proc in list(self.processes) + [p for _, p in self.retired]:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # wedged: don't hang the parent
                proc.kill()
                proc.join()
        return [p.exitcode for p in self.processes]


# -- event collection ---------------------------------------------------------

#: ``JSLOT`` columns of an event row: op, label, clock, t0_ns, t1_ns.
_EVENT_COLUMNS = [1, 2, 3, 4, 7]


class EventCollector(threading.Thread):
    """The single reader of every shard's commit journal.

    Runs in the parent while the service is live.  Each pass takes one
    :meth:`~repro.service.shm.JournalRing.read_run` per live shard from
    its shm cursor, applies it with array operations, publishes the
    cursor once so the owner can truncate what was read, and then sleeps
    :data:`COLLECTOR_POLL_S`.  Because the owner never recycles an
    unread entry, every committed op is collected exactly once, across
    any number of takeovers.  Zombie entries (epoch regressed) are
    skipped by the same running-max rule as :func:`replay_journal`, and
    ``J_STOP`` entries are dropped.  A shard is finished at its first
    kept ``J_BYE`` (the cursor stops right after it and its label is the
    residual) or when its owner died with nothing left to read — unless
    a supervisor is active, in which case a dead owner is about to be
    respawned and the shard stays live until its eventual BYE.

    When the thread ends, ``events_by_shard[s]`` is one ``(N, 5)`` int64
    array of ``(ev, label, clock, t0_ns, t1_ns)`` rows.  An exception
    ends the thread too: it is kept in :attr:`error`, with the shard it
    was reading in :attr:`error_shard`, for :func:`run_service` to raise.
    """

    def __init__(
        self,
        segment: ServiceSegment,
        cluster: ServiceCluster,
        supervisor=None,
    ) -> None:
        super().__init__(name="service-collector", daemon=True)
        self._segment = segment
        self._cluster = cluster
        self._supervisor = supervisor
        self.events_by_shard: List[np.ndarray] = [
            np.empty((0, 5), dtype=np.int64) for _ in range(segment.shards)
        ]
        self.residual_sizes: List[Optional[int]] = [None] * segment.shards
        self.error: Optional[BaseException] = None
        self.error_shard: Optional[int] = None

    def _supervised(self) -> bool:
        return self._supervisor is not None and self._supervisor.active

    def run(self) -> None:
        shards = self._segment.shards
        chunks: List[List[np.ndarray]] = [[] for _ in range(shards)]
        try:
            self._collect(chunks)
        except Exception as exc:  # kept for run_service; the thread just ends
            self.error = exc
        finally:
            self.events_by_shard = [
                np.concatenate(c) if c else np.empty((0, 5), dtype=np.int64)
                for c in chunks
            ]

    def _collect(self, chunks: List[List[np.ndarray]]) -> None:
        shards = self._segment.shards
        journals = [self._segment.journal(s) for s in range(shards)]
        cursors = [journal.cursor() for journal in journals]
        max_epoch = [0] * shards
        live = [True] * shards
        while True:
            owners_alive = self._cluster.alive()
            for s in range(shards):
                if not live[s]:
                    continue
                self.error_shard = s
                run = journals[s].read_run(cursors[s], journals[s].capacity)
                if not len(run):
                    if not owners_alive[s] and not self._supervised():
                        live[s] = False  # killed owner, journal fully read, no respawn coming
                    continue
                words = run.view(np.int64)
                ops = words[:, 1]
                # An entry is a zombie commit iff its epoch is below the
                # running max of every entry before it.
                seen = np.maximum.accumulate(
                    np.concatenate(([max_epoch[s]], words[:, 8]))
                )
                kept = words[:, 8] >= seen[:-1]
                byes = np.flatnonzero(kept & (ops == J_BYE))
                end = len(run)
                if byes.size:
                    end = int(byes[0]) + 1
                    self.residual_sizes[s] = int(words[end - 1, 2])
                    live[s] = False
                keep = kept[:end] & (ops[:end] != J_STOP) & (ops[:end] != J_BYE)
                if keep.any():
                    chunks[s].append(words[:end][keep][:, _EVENT_COLUMNS])
                max_epoch[s] = int(seen[end])
                cursors[s] += end
                journals[s].set_cursor(cursors[s])
            self.error_shard = None
            if not any(live):
                return
            time.sleep(COLLECTOR_POLL_S)


# -- whole-service runs -------------------------------------------------------


def _prefill(
    segment: ServiceSegment,
    schedule: ArrivalSchedule,
    router: Router,
    timeout_s: float,
) -> None:
    """Load the initial population through the parent's control lane."""
    lane = segment.lanes - 1
    rings = [segment.request_ring(s, lane) for s in range(segment.shards)]
    clock = 0
    for label in schedule.prefill_labels:
        shard = router.insert_shard()
        clock += 1
        deadline = time.monotonic() + timeout_s
        while not rings[shard].try_push(OP_INSERT, int(label), clock, 0, 0):
            if time.monotonic() > deadline:
                raise RuntimeError(f"prefill stalled: shard {shard} not draining")
            time.sleep(0.0002)
    deadline = time.monotonic() + timeout_s
    want = len(schedule.prefill_labels)
    while True:
        total = sum(segment.header(s).read()[2] for s in range(segment.shards))
        if total >= want:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"prefill incomplete: {total}/{want} after {timeout_s:.0f}s")
        time.sleep(0.001)


def _stop_owners(
    segment: ServiceSegment, cluster: ServiceCluster, timeout_s: float = 10.0
) -> None:
    """STOP every lane of every shard whose owner is still running.

    The parent is the only process that sends STOPs, and it does so once
    the loadgens have exited: each lane ring then has a single producer
    again, so the parent recovers the producer position and pushes.
    Only an owner the parent sees dead is skipped, never one whose
    heartbeat merely looks stale — a live owner that misses one STOP
    never exits.  ``timeout_s`` caps the cluster-wide wait.
    """
    deadline = time.monotonic() + timeout_s
    for s in range(segment.shards):
        for lane in range(segment.lanes):
            ring = segment.request_ring(s, lane)
            ring.recover()
            while cluster.alive()[s] and not ring.try_push(OP_STOP, 0, 0, 0, 0):
                if time.monotonic() > deadline:
                    break
                time.sleep(0.0002)


def run_service(
    shards: int,
    workers: int,
    spec: ScheduleSpec,
    beta: float = 0.5,
    gamma: float = 0.0,
    policy: str = "mq",
    seed: int = 0,
    req_capacity: int = 2048,
    journal_capacity: int = 8192,
    state_capacity: Optional[int] = None,
    snapshot_every: int = 1024,
    rank_sample_every: int = 16,
    dead_after_s: float = 2.0,
    chaos_spec=None,
    supervise: bool = False,
    poll_s: float = 0.0002,
) -> dict:
    """Run one complete service experiment and summarize it.

    Starts ``shards`` owner processes and ``workers`` loadgen processes,
    prefills, replays the schedule, tears down, audits every ring, and
    returns the metrics summary (throughput, tail latency, sampled rank
    quality) plus the audit.  ``supervise=True`` runs a
    :class:`~repro.service.supervisor.Supervisor` that respawns crashed
    owners via snapshot+journal recovery and fences zombies.
    ``chaos_spec`` (a :class:`~repro.service.supervisor.ChaosSpec`)
    fires a deterministic seeded kill/stall/zombie schedule at the live
    cluster and puts its manifest under ``"chaos"``.  Without a
    supervisor a killed owner stays dead (degraded mode: the loadgens
    fail over to the survivors), so a spec with zombies, which only a
    supervisor wakes, is refused before anything starts.
    """
    from repro.service.metrics import conservation_audit, summarize

    zombies = chaos_spec is not None and chaos_spec.zombies > 0
    if zombies and not supervise:
        raise ValueError(
            "a ChaosSpec with zombies needs supervise=True: "
            "only a supervisor wakes a SIGSTOPped owner"
        )
    if supervise or chaos_spec is not None:
        # Imported only when used, so a plain run's setup time never
        # includes it.
        from repro.service.supervisor import ChaosInjector, Supervisor

    schedule = spec.build()
    if state_capacity is None:
        # The heap can never outgrow prefill + every scheduled insert.
        state_capacity = spec.prefill + (spec.ops + 1) // 2 + 8
    segment = ServiceSegment.create(
        shards, lanes=workers + 1, req_capacity=req_capacity,
        journal_capacity=journal_capacity,
        state_capacity=state_capacity,
    )
    cluster = ServiceCluster(segment, poll_s=poll_s, snapshot_every=snapshot_every)
    supervisor = None
    injector = None
    try:
        cluster.start()
        if supervise:
            supervisor = Supervisor(
                segment,
                cluster,
                dead_after_s=dead_after_s,
                stall_action="fence" if zombies else "kill",
                # Successor boot (journal replay) is quick relative to the
                # death threshold; a long grace just stretches the window
                # in which a SIGSTOPped successor goes undiagnosed.
                respawn_grace_s=max(2.0, 8.0 * dead_after_s),
            )
        collector = EventCollector(segment, cluster, supervisor)
        collector.start()
        if supervisor is not None:
            supervisor.start()
        control_router = Router(
            segment, beta=beta, gamma=gamma, policy=policy, rng=seed,
            dead_after_s=dead_after_s,
        )
        _prefill(segment, schedule, control_router, timeout_s=30.0)

        ctx = _mp_context()
        start_ns = time.monotonic_ns() + int(0.05 * _NS)
        loadgens = []
        for w in range(workers):
            proc = ctx.Process(
                target=loadgen_main,
                name=f"loadgen-{w}",
                args=(
                    dict(
                        segment_name=segment.name,
                        worker_id=w,
                        n_workers=workers,
                        spec=spec,
                        start_ns=start_ns,
                        beta=beta,
                        gamma=gamma,
                        policy=policy,
                        routing_seed=seed + 1,
                        dead_after_s=dead_after_s,
                    ),
                ),
                daemon=True,
            )
            proc.start()
            loadgens.append(proc)
        if chaos_spec is not None:
            injector = ChaosInjector(cluster, segment, chaos_spec, start_ns=start_ns)
            injector.start()

        wall_start = time.monotonic_ns()
        for proc in loadgens:
            proc.join(timeout=120.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        if injector is not None:
            injector.join(timeout=60.0)
        if supervisor is not None:
            # Let in-flight recoveries land, then stand down *before*
            # STOPs go out so nobody respawns a cleanly-exited owner.
            supervisor.await_healthy(timeout_s=30.0)
            supervisor.stop()
            supervisor.join(timeout=30.0)
        _stop_owners(segment, cluster)
        # Owners exit once the collector has read their BYE.  A collector
        # that failed, or still waits after 30 s, never will: its owners
        # are stopped at once instead of waited for.
        collector.join(timeout=30.0)
        finished = collector.error is None and not collector.is_alive()
        owner_exits = cluster.join(timeout_s=30.0 if finished else 0.0)
        collector.join(timeout=30.0)
        wall_s = (time.monotonic_ns() - wall_start) / _NS
        if collector.error is not None:
            raise RuntimeError(
                f"event collector failed on shard {collector.error_shard}: "
                f"{collector.error}"
            ) from collector.error

        audit = segment.audit()
        conservation = conservation_audit(segment, collector.events_by_shard)
        result = summarize(
            collector.events_by_shard,
            schedule,
            wall_s=wall_s,
            rank_sample_every=rank_sample_every,
        )
        result.update(
            {
                "shards": shards,
                "workers": workers,
                "beta": beta,
                "gamma": gamma,
                "policy": policy,
                "seed": seed,
                "mode": spec.mode,
                "audit": audit,
                "conservation": conservation,
                "owner_exitcodes": owner_exits,
                "loadgen_exitcodes": [p.exitcode for p in loadgens],
                "residual_sizes": collector.residual_sizes,
            }
        )
        if supervisor is not None:
            result["supervision"] = {
                "incidents": [inc.as_dict() for inc in supervisor.incidents],
                "takeovers": supervisor.takeovers,
                "retired_exitcodes": cluster.retired_exitcodes(),
            }
            last_recovered = max(
                (
                    inc.recovered_ns
                    for inc in supervisor.incidents
                    if inc.recovered_ns is not None
                ),
                default=None,
            )
            if last_recovered is not None:
                # Post-recovery convergence: score only deletes completed
                # after the last takeover against the exact stationary law.
                from repro.analysis.exact import oracle_row
                from repro.service.metrics import merge_events, replay_ranks

                # Ranks depend on all prior state, so the whole stream is
                # replayed; only deletes completed after the takeover count.
                merged = merge_events(collector.events_by_shard)
                done_ns = merged[merged[:, 1] == EV_DELETE, 5]
                recovered_ranks = replay_ranks(merged, schedule.label_universe, 1)[
                    done_ns > last_recovered
                ]
                block = {"after_ns": last_recovered, "n_ranks": int(recovered_ranks.size)}
                if recovered_ranks.size:
                    block.update(oracle_row(shards, beta, recovered_ranks, gamma=gamma))
                else:
                    block.update(
                        {"oracle_mean": None, "oracle_ks": None, "oracle_mean_err": None}
                    )
                result["post_recovery"] = block
        if injector is not None:
            # staticcheck: allow(DET102) fault manifest; spec/planned are seed-determined, wall-clock taint lands only in the declared-volatile fired_at_s/pid fields
            result["chaos"] = injector.manifest()
        return result
    finally:
        if injector is not None and injector.is_alive():
            injector.abort()
            injector.join(timeout=10.0)
        if supervisor is not None and supervisor.is_alive():
            supervisor.stop()
            supervisor.join(timeout=10.0)
        for proc in cluster.processes + [p for _, p in cluster.retired]:
            if proc.is_alive():
                proc.kill()
        segment.close()
        segment.unlink()

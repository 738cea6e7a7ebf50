"""Router policies, shard-owner loop, and small end-to-end service runs."""

import heapq
import itertools
import multiprocessing
import os
import signal
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.policies import biased_insert_probs
from repro.service.loadgen import ScheduleSpec, run_loadgen
from repro.service.metrics import conservation_audit, merge_events, replay_ranks, summarize
from repro.service.server import (
    OWNER_BATCH,
    ROUTER_DRAW_BLOCK,
    EventCollector,
    Router,
    ServiceCluster,
    ShardOwner,
    _stop_owners,
    recover_shard_state,
    run_service,
    run_shard_owner,
    shard_owner_main,
)
from repro.service import shm
from repro.service.shm import (
    EV_DELETE,
    EV_EMPTY,
    EV_INSERT,
    J_BYE,
    J_STOP,
    JSLOT,
    OP_DELETE,
    OP_INSERT,
    OP_STOP,
    FencedOwnerError,
    JournalEntry,
    ServiceSegment,
    TOP_EMPTY,
    TornSlotError,
    journal_checksum,
)


@pytest.fixture
def segment():
    seg = ServiceSegment.create(shards=3, lanes=2, req_capacity=64, journal_capacity=256)
    yield seg
    seg.close()
    seg.unlink()


def _collector(segment, running):
    """A running collector over ``segment``; only the ``running`` shards'
    owners look alive, so the others finish once their journal is read."""
    cluster = SimpleNamespace(alive=lambda: [s in running for s in range(segment.shards)])
    collector = EventCollector(segment, cluster)
    collector.start()
    return collector


class TestRouter:
    def test_single_policy_pins_first_alive(self, segment):
        router = Router(segment, beta=1.0, policy="single", rng=0)
        assert {router.insert_shard() for _ in range(10)} == {0}
        router.mark_dead(0)
        assert {router.delete_shard() for _ in range(10)} == {1}

    def test_rr_policy_cycles(self, segment):
        router = Router(segment, beta=0.0, policy="rr", rng=0)
        assert [router.insert_shard() for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_mq_two_choice_prefers_smaller_top(self, segment):
        segment.header(0).publish(top=100, size=5, heartbeat_ns=1)
        segment.header(1).publish(top=5, size=5, heartbeat_ns=1)
        segment.header(2).publish(top=50, size=5, heartbeat_ns=1)
        router = Router(segment, beta=1.0, policy="mq", rng=0)
        picks = [router.delete_shard() for _ in range(200)]
        # Shard 1 holds the smallest top: it wins every probe pair it
        # appears in, i.e. 1 - (2/3)^2 = 5/9 of deletes in expectation.
        assert picks.count(1) > picks.count(0)
        assert picks.count(1) > picks.count(2)

    def test_mq_beta_zero_is_uniform_single_choice(self, segment):
        segment.header(0).publish(top=1, size=5, heartbeat_ns=1)  # best top
        router = Router(segment, beta=0.0, policy="mq", rng=1)
        picks = [router.delete_shard() for _ in range(300)]
        # One-choice never compares tops, so the best shard gets ~1/3.
        assert 50 < picks.count(0) < 150

    def test_empty_top_loses_two_choice(self, segment):
        segment.header(0).publish(top=TOP_EMPTY, size=0, heartbeat_ns=1)
        segment.header(1).publish(top=7, size=1, heartbeat_ns=1)
        segment.header(2).publish(top=TOP_EMPTY, size=0, heartbeat_ns=1)
        router = Router(segment, beta=1.0, policy="mq", rng=2)
        picks = [router.delete_shard() for _ in range(100)]
        assert picks.count(1) > 50

    def test_gamma_biases_inserts(self, segment):
        router = Router(segment, beta=0.5, gamma=0.8, policy="mq", rng=3)
        picks = [router.insert_shard() for _ in range(600)]
        # two-point bias: shard 0 cold, shard 2 hot.
        assert picks.count(2) > picks.count(0)

    def test_all_dead_raises(self, segment):
        router = Router(segment, beta=0.5, rng=0)
        router.mark_dead(0)
        router.mark_dead(1)
        with pytest.raises(RuntimeError, match="every shard is dead"):
            router.mark_dead(2)

    def test_unknown_policy_rejected(self, segment):
        with pytest.raises(ValueError, match="unknown policy"):
            Router(segment, beta=0.5, policy="lifo", rng=0)


#: Every routing frequency must land within this many binomial standard
#: deviations of its exact probability (fixed before any run).
LAW_SIGMAS = 5.0
LAW_DECISIONS = 30_000


def _assert_law(picks, expected):
    """Each shard's pick count within ``LAW_SIGMAS`` binomial sds."""
    n = len(picks)
    for shard, p in expected.items():
        sd = np.sqrt(n * p * (1.0 - p))
        count = picks.count(shard)
        assert abs(count - n * p) <= LAW_SIGMAS * sd, (shard, count / n, p)
    assert set(picks) <= set(expected)


class TestRoutingLaw:
    """The block-drawn router samples the paper's exact routing law."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_delete_law_over_best_middle_worst(self, segment, beta):
        segment.header(0).publish(top=30, size=5, heartbeat_ns=1)  # worst
        segment.header(1).publish(top=10, size=5, heartbeat_ns=1)  # best
        segment.header(2).publish(top=20, size=5, heartbeat_ns=1)  # middle
        router = Router(segment, beta=beta, policy="mq", rng=7)
        picks = [router.delete_shard() for _ in range(LAW_DECISIONS)]
        # Two probes with replacement: the best wins unless both miss it
        # (1 - 4/9), the worst only when both hit it (1/9).
        one = (1.0 - beta) / 3.0
        _assert_law(picks, {1: one + beta * 5 / 9, 2: one + beta * 3 / 9, 0: one + beta / 9})

    def test_tie_goes_to_the_first_probe(self, segment):
        for s in range(3):
            segment.header(s).publish(top=10, size=5, heartbeat_ns=1)
        for first, second in ((0, 2), (2, 0)):
            router = Router(segment, beta=1.0, policy="mq", rng=8)
            # Draws are spent from the end of the block: first probe, then second.
            router._draws = [0.5, (second + 0.5) / 3, (first + 0.5) / 3]
            assert router.delete_shard() == first

    @pytest.mark.parametrize("lag_s, expected", [
        (0.4, {0: 5 / 9, 1: 3 / 9, 2: 1 / 9}),  # within a quarter of dead_after: tops decide
        (0.6, {0: 1 / 9, 1: 5 / 9, 2: 3 / 9}),  # past it: the stalled shard loses to both
    ])
    def test_a_probe_whose_heartbeat_stopped_loses(self, segment, lag_s, expected):
        now = time.monotonic_ns()
        segment.header(0).publish(top=1, size=5, heartbeat_ns=now - int(lag_s * 1e9))
        segment.header(1).publish(top=50, size=5, heartbeat_ns=now)
        segment.header(2).publish(top=60, size=5, heartbeat_ns=now)
        router = Router(segment, beta=1.0, policy="mq", rng=11, dead_after_s=2.0)
        _assert_law([router.delete_shard() for _ in range(LAW_DECISIONS)], expected)

    def test_gamma_inserts_follow_biased_probs_on_the_alive_set(self):
        seg = ServiceSegment.create(shards=4, lanes=1, req_capacity=8, journal_capacity=8)
        try:
            router = Router(seg, beta=0.5, gamma=0.8, policy="mq", rng=9)
            probs = biased_insert_probs(4, 0.8)
            picks = [router.insert_shard() for _ in range(LAW_DECISIONS)]
            _assert_law(picks, dict(enumerate(probs)))
            router.mark_dead(2)
            alive = [0, 1, 3]
            restricted = probs[alive] / probs[alive].sum()
            picks = [router.insert_shard() for _ in range(LAW_DECISIONS)]
            _assert_law(picks, dict(zip(alive, restricted)))
        finally:
            seg.close()
            seg.unlink()

    @pytest.mark.parametrize("gamma", [0.0, 0.6])
    def test_mark_dead_mid_block_never_yields_the_dead_shard(self, segment, gamma):
        router = Router(segment, beta=0.5, gamma=gamma, policy="mq", rng=10)
        for _ in range(ROUTER_DRAW_BLOCK // 3):  # leave the block part-spent
            router.delete_shard()
        router.mark_dead(1)
        picks = [router.delete_shard() for _ in range(2000)]
        picks += [router.insert_shard() for _ in range(2000)]
        assert 1 not in picks and set(picks) == {0, 2}
        router.mark_alive(1)
        assert 1 in {router.insert_shard() for _ in range(200)}


class TestShardOwner:
    def _run_owner(self, segment, shard):
        thread = threading.Thread(
            target=run_shard_owner, args=(segment.name, shard, 0.0002), daemon=True
        )
        thread.start()
        return thread

    def test_owner_serves_heap_order_and_stops(self, segment):
        thread = self._run_owner(segment, 0)
        collector = _collector(segment, running=(0,))
        lane0 = segment.request_ring(0, 0)
        lane1 = segment.request_ring(0, 1)
        for label in (30, 10, 20):
            assert lane0.try_push(OP_INSERT, label, 1, 0, 0)
        for _ in range(3):
            assert lane1.try_push(OP_DELETE, -1, 2, 0, 0)
        assert lane1.try_push(OP_DELETE, -1, 3, 0, 0)  # heap now empty
        lane0.try_push(OP_STOP, 0, 4, 0, 0)
        lane1.try_push(OP_STOP, 0, 4, 0, 0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        collector.join(timeout=10.0)
        assert not collector.is_alive()
        assert collector.residual_sizes[0] == 0  # from the journaled BYE
        events = collector.events_by_shard[0]
        kinds = [e[0] for e in events]
        assert kinds == [EV_INSERT] * 3 + [EV_DELETE] * 3 + [EV_EMPTY]
        assert [e[1] for e in events[3:6]] == [10, 20, 30]  # min-heap order
        clocks = [e[2] for e in events]
        assert clocks == sorted(clocks) and len(set(clocks)) == len(clocks)

    def test_owner_publishes_header(self, segment):
        thread = self._run_owner(segment, 1)
        # One producer view per lane: a second view of the same lane would
        # restart at position 0 and find its slot already recycled.
        lanes = [segment.request_ring(1, lane) for lane in range(segment.lanes)]
        lanes[0].try_push(OP_INSERT, 77, 1, 0, 0)
        deadline = threading.Event()
        for _ in range(5000):
            epoch, top, size, heartbeat = segment.header(1).read()
            if size == 1 and top == 77:
                break
            deadline.wait(0.001)
        assert (top, size) == (77, 1)
        assert epoch == 1  # first owner generation
        assert heartbeat > 0
        collector = _collector(segment, running=(1,))
        for lane in lanes:
            assert lane.try_push(OP_STOP, 0, 9, 0, 0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        collector.join(timeout=10.0)
        assert not collector.is_alive()
        assert collector.residual_sizes[1] == 1


class TestMetricsPieces:
    def test_merge_orders_by_clock_then_shard(self):
        by_shard = [
            [(EV_INSERT, 1, 5, 0, 0), (EV_DELETE, 1, 9, 0, 0)],
            [(EV_INSERT, 2, 5, 0, 0), (EV_INSERT, 3, 7, 0, 0)],
        ]
        merged = merge_events(by_shard)
        assert [(r[3], r[0]) for r in merged] == [(5, 0), (5, 1), (7, 1), (9, 0)]

    def test_replay_ranks_scores_global_rank(self):
        # Shard 0 holds {10}, shard 1 holds {5}; deleting 10 while 5 is
        # present costs rank 2, then deleting 5 costs rank 1.
        by_shard = [
            [(EV_INSERT, 10, 1, 0, 0), (EV_DELETE, 10, 4, 0, 0)],
            [(EV_INSERT, 5, 2, 0, 0), (EV_DELETE, 5, 6, 0, 0)],
        ]
        ranks = replay_ranks(merge_events(by_shard), label_universe=11, sample_every=1)
        assert ranks.tolist() == [2, 1]

    def test_summarize_counts_and_filters_prefill_latency(self):
        spec = ScheduleSpec(mode="poisson", ops=2, prefill=1, rate=0.0, seed=0)
        schedule = spec.build()
        pre = int(schedule.prefill_labels[0])
        ins = int(schedule.insert_labels[0])
        by_shard = [[
            (EV_INSERT, pre, 1, 0, 500),  # prefill: t0 == 0, excluded
            (EV_INSERT, ins, 2, 1000, 3000),
            (EV_DELETE, min(pre, ins), 3, 2000, 7000),
        ]]
        out = summarize(by_shard, schedule, wall_s=2.0, rank_sample_every=1)
        assert out["inserts"] == 2 and out["deletes"] == 1
        assert out["ops_processed"] == 2
        # 2 offered ops between the first intended start (1000) and the
        # last completion (7000); prefill and wall_s play no part.
        assert out["throughput_ops_s"] == pytest.approx(2 / 6e-6)
        assert out["insert_p50_ms"] == pytest.approx(0.002)
        assert out["delete_p50_ms"] == pytest.approx(0.005)
        assert out["rank"]["removals"] == 1
        assert out["rank_values"] == [1]

    def test_summarize_throughput_is_offered_ops_over_their_own_span(self):
        spec = ScheduleSpec(mode="poisson", ops=4, prefill=2, rate=0.0, seed=0)
        schedule = spec.build()
        p0, p1 = (int(x) for x in schedule.prefill_labels)
        i0, i1 = (int(x) for x in schedule.insert_labels[:2])
        by_shard = [
            [
                (EV_INSERT, p0, 1, 0, 100),  # prefill: t0 == 0, not offered
                (EV_INSERT, i0, 3, 10_000, 12_000),  # first intended start
                (EV_DELETE, min(p0, i0), 5, 20_000, 25_000),
                (EV_EMPTY, -1, 6, 21_000, 22_000),
            ],
            [
                (EV_INSERT, p1, 2, 0, 200),
                (EV_INSERT, i1, 4, 11_000, 30_000),  # last completion
            ],
        ]
        out = summarize(by_shard, schedule, wall_s=5.0, rank_sample_every=1)
        assert out["ops_processed"] == 4
        # 4 offered ops in the 20 us from t0 = 10_000 to t1 = 30_000.
        assert out["throughput_ops_s"] == pytest.approx(4 / 20e-6)
        assert out["per_shard_ops_s"] == pytest.approx([3 / 20e-6, 1 / 20e-6])
        assert out["wall_s"] == 5.0

    def test_summarize_without_offered_ops_reports_zero_throughput(self):
        spec = ScheduleSpec(mode="poisson", ops=2, prefill=1, rate=0.0, seed=0)
        schedule = spec.build()
        pre = int(schedule.prefill_labels[0])
        out = summarize([[(EV_INSERT, pre, 1, 0, 5)]], schedule, wall_s=1.0)
        assert out["throughput_ops_s"] == 0.0
        assert out["per_shard_ops_s"] == [0.0]


def _wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def _owner_thread(segment, snapshot_every=1024):
    """Shard 0's owner in a thread; a FencedOwnerError lands in the list."""
    fenced = []

    def target():
        try:
            run_shard_owner(segment.name, 0, 0.0002, snapshot_every)
        except FencedOwnerError as exc:
            fenced.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, fenced


def _journal_bounds(segment):
    journal = segment.journal(0)
    journal.recover()
    return journal.tail, journal.head


@pytest.fixture
def one_shard():
    seg = ServiceSegment.create(
        shards=1, lanes=2, req_capacity=16, journal_capacity=8, state_capacity=64
    )
    yield seg
    seg.close()
    seg.unlink()


class TestJournalCursor:
    """The collector cursor rule, driven deterministically (no SIGKILL timing):
    the owner recycles a journal entry only once it is both folded into a
    snapshot and read by the collector."""

    def test_uncollected_entries_survive_snapshot_and_takeover(self, one_shard):
        seg = one_shard
        lane0 = seg.request_ring(0, 0)
        owner, fenced = _owner_thread(seg, snapshot_every=2)
        for label in (7, 3, 9, 1):
            assert lane0.try_push(OP_INSERT, label, 1, 0, 0)
        assert lane0.try_push(OP_DELETE, -1, 2, 0, 0)
        _wait_for(lambda: _journal_bounds(seg)[1] == 5)
        # Snapshots folded the first four ops, but no collector has read
        # anything yet, so every entry is still in the journal.
        assert seg.snapshot(0).read().fold_pos == 4
        assert _journal_bounds(seg) == (0, 5)
        # Takeover: fence the first owner, boot a successor over the
        # same shm.  Its boot snapshot folds the whole journal, which
        # still keeps every uncollected entry.
        seg.header(0).bump_epoch()
        owner.join(timeout=10.0)
        assert fenced and not owner.is_alive()
        successor, fenced2 = _owner_thread(seg, snapshot_every=2)
        _wait_for(lambda: seg.snapshot(0).read().epoch == 3)
        assert seg.snapshot(0).read().fold_pos == 5
        assert _journal_bounds(seg) == (0, 5)

        collector = _collector(seg, running=(0,))
        assert lane0.try_push(OP_INSERT, 5, 3, 0, 0)
        assert lane0.try_push(OP_STOP, 0, 4, 0, 0)
        assert seg.request_ring(0, 1).try_push(OP_STOP, 0, 4, 0, 0)
        successor.join(timeout=10.0)
        collector.join(timeout=10.0)
        assert not collector.is_alive()
        assert not successor.is_alive() and not fenced2
        events = collector.events_by_shard[0]
        assert [(e[0], e[1]) for e in events] == [
            (EV_INSERT, 7), (EV_INSERT, 3), (EV_INSERT, 9), (EV_INSERT, 1),
            (EV_DELETE, 1), (EV_INSERT, 5),
        ]
        assert collector.residual_sizes == [4]
        conservation = conservation_audit(seg, collector.events_by_shard)
        assert conservation["ok"] and conservation["events_match"]
        assert seg.audit()["pending"] == 0

    def test_full_journal_with_lagging_collector_blocks_the_owner(self, one_shard):
        seg = one_shard
        lane0 = seg.request_ring(0, 0)
        labels = list(range(100, 112))  # 12 inserts; the journal holds 8
        owner, fenced = _owner_thread(seg)
        for label in labels:
            assert lane0.try_push(OP_INSERT, label, 1, 0, 0)
        _wait_for(lambda: _journal_bounds(seg) == (0, 8))
        heartbeat = seg.header(0).read()[3]
        time.sleep(0.05)
        # Blocked, not overwriting: the first eight ops are intact and
        # nothing past them was applied, while the owner keeps its
        # heartbeat fresh.
        journal = seg.journal(0)
        journal.recover()
        assert [e.label for e in journal.scan()] == labels[:8]
        _epoch, top, size, later_heartbeat = seg.header(0).read()
        assert (top, size) == (100, 8)
        assert later_heartbeat > heartbeat
        assert owner.is_alive()

        collector = _collector(seg, running=(0,))
        assert lane0.try_push(OP_STOP, 0, 2, 0, 0)
        assert seg.request_ring(0, 1).try_push(OP_STOP, 0, 2, 0, 0)
        owner.join(timeout=10.0)
        collector.join(timeout=10.0)
        assert not collector.is_alive()
        assert not owner.is_alive() and not fenced
        assert [e[1] for e in collector.events_by_shard[0]] == labels
        assert conservation_audit(seg, collector.events_by_shard)["events_match"]
        assert seg.audit()["pending"] == 0


def _read_entry(journal, pos):
    """The per-entry decode the collector used before ``read_run``."""
    seq, *fields, checksum = JSLOT.unpack_from(journal._buf, journal._slot_offset(pos))
    if seq != pos + 1:
        return None
    if checksum != journal_checksum(*fields):
        raise TornSlotError(f"journal position {pos} committed with a bad checksum")
    return JournalEntry(pos, *fields)


class _ReferenceCollector:
    """The per-entry loop :class:`EventCollector` ran before its run
    decoder, one pass per :meth:`one_pass`: the executable spec of the
    columnar collector."""

    def __init__(self, segment):
        self.journals = [segment.journal(s) for s in range(segment.shards)]
        self.cursors = [journal.cursor() for journal in self.journals]
        self.max_epoch = [0] * segment.shards
        self.live = [True] * segment.shards
        self.events_by_shard = [[] for _ in range(segment.shards)]
        self.residual_sizes = [None] * segment.shards

    def one_pass(self, owners_alive):
        progressed = False
        for s, journal in enumerate(self.journals):
            if not self.live[s]:
                continue
            start = self.cursors[s]
            for _ in range(4 * OWNER_BATCH):
                e = _read_entry(journal, self.cursors[s])
                if e is None:
                    break
                self.cursors[s] += 1
                if e.epoch < self.max_epoch[s]:
                    continue  # unfenced zombie commit
                self.max_epoch[s] = e.epoch
                if e.op == J_BYE:
                    self.residual_sizes[s] = e.label
                    self.live[s] = False
                    break
                if e.op != J_STOP:
                    self.events_by_shard[s].append((e.op, e.label, e.clock, e.t0_ns, e.t1_ns))
            if self.cursors[s] != start:
                journal.set_cursor(self.cursors[s])
                progressed = True
            elif not owners_alive[s]:
                self.live[s] = False
        return progressed


def _script_journal(seg, drain):
    """Append a scripted journal to shard 0, letting ``drain`` collect
    it before each truncation.  Positions 8..11 wrap the 8-slot ring."""
    journal = seg.journal(0)

    def append(ev, label, epoch, clock):
        assert journal.try_append(ev, label, clock, 10 * clock, 0, clock, 10 * clock + 1, epoch)

    append(EV_INSERT, 5, 1, 1)
    append(EV_INSERT, 3, 1, 2)
    append(EV_DELETE, 3, 1, 3)
    append(EV_EMPTY, -1, 1, 4)
    append(J_STOP, 0, 1, 5)
    drain()
    journal.truncate_to(journal.cursor())
    # A successor at epoch 2, with its zombie predecessor's late commits
    # (a delete, a STOP and a BYE at epoch 1) in between.
    append(EV_INSERT, 8, 2, 6)
    append(EV_DELETE, 5, 1, 7)
    append(EV_INSERT, 2, 2, 8)
    append(J_STOP, 0, 1, 9)
    append(J_BYE, 99, 1, 10)
    append(EV_DELETE, 2, 2, 11)
    append(J_STOP, 0, 2, 12)
    drain()
    journal.truncate_to(journal.cursor())
    append(J_BYE, 1, 2, 13)  # position 12
    append(EV_INSERT, 77, 2, 14)  # past the BYE: must stay unread
    append(EV_INSERT, 78, 3, 15)


class TestColumnarCollector:
    def test_matches_the_per_entry_reference(self, one_shard):
        reference_seg = ServiceSegment.create(
            shards=1, lanes=2, req_capacity=16, journal_capacity=8, state_capacity=64
        )
        try:
            reference = _ReferenceCollector(reference_seg)

            def drain_reference():
                while reference.one_pass([True]):
                    pass

            _script_journal(reference_seg, drain_reference)
            drain_reference()

            collector = _collector(one_shard, running=(0,))
            cursor = one_shard.journal(0).cursor
            drained_at = iter((5, 12))

            def drain():
                want = next(drained_at)
                _wait_for(lambda: cursor() == want)

            _script_journal(one_shard, drain)
            collector.join(timeout=10.0)
            assert not collector.is_alive() and collector.error is None

            events = collector.events_by_shard[0]
            assert events.dtype == np.int64 and events.shape == (7, 5)
            assert events.tolist() == [list(e) for e in reference.events_by_shard[0]]
            assert [(e[0], e[1]) for e in events] == [
                (EV_INSERT, 5), (EV_INSERT, 3), (EV_DELETE, 3), (EV_EMPTY, -1),
                (EV_INSERT, 8), (EV_INSERT, 2), (EV_DELETE, 2),
            ]
            assert collector.residual_sizes == reference.residual_sizes == [1]
            assert cursor() == reference_seg.journal(0).cursor() == 13  # BYE + 1
        finally:
            reference_seg.close()
            reference_seg.unlink()

    def test_a_torn_entry_ends_the_collector_with_its_position(self, one_shard):
        journal = one_shard.journal(0)
        cap = journal.capacity
        for i in range(cap):
            assert journal.try_append(EV_INSERT, i, i + 1, 0, 0, i, 0, 1)
        journal.set_cursor(cap)
        journal.truncate_to(cap)
        for i in range(3):
            assert journal.try_append(EV_INSERT, i, cap + i + 1, 0, 0, i, 0, 1)
        journal._buf[journal._slot_offset(cap + 1) + 16] ^= 0xFF  # label of position cap+1
        collector = _collector(one_shard, running=(0,))  # its owner looks alive
        collector.join(timeout=10.0)
        assert not collector.is_alive()
        assert isinstance(collector.error, TornSlotError)
        assert collector.error.pos == cap + 1 and collector.error_shard == 0
        assert journal.cursor() == cap  # nothing past the tear was taken
        assert collector.events_by_shard[0].shape == (0, 5)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the owners must inherit the patched checksum",
    )
    def test_run_service_raises_a_collector_failure(self, monkeypatch):
        real = shm.journal_checksums
        parent = os.getpid()

        def corrupt_deletes(fields):
            sums = real(fields)
            if os.getpid() != parent:  # an owner journaling, not the collector checking
                sums ^= (fields[:, 0] == EV_DELETE).astype(np.uint64)
            return sums

        # Owners are forked, so they journal every delete with a bad checksum.
        monkeypatch.setattr(shm, "journal_checksums", corrupt_deletes)
        spec = ScheduleSpec(mode="poisson", ops=400, prefill=64, rate=0.0, seed=13)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=r"event collector failed on shard \d") as info:
            run_service(shards=2, workers=1, spec=spec, beta=0.5, seed=2)
        assert isinstance(info.value.__cause__, TornSlotError)
        assert f"position {info.value.__cause__.pos} " in str(info.value)
        assert time.monotonic() - started < 20.0  # owners were not waited out


class _ReferenceOwner(ShardOwner):
    """The per-op lane loop :class:`ShardOwner` ran before chunked
    drains: one request at a time through ``try_peek``, ``try_append``,
    ``advance`` and ``publish``.  The executable spec of the chunked
    owner; boot, snapshots and waits are the shared ones.

    Two of its snapshots differ from the chunked owner's, and neither
    changes what a successor recovers: it skips the snapshot check after
    an ``OP_STOP``, so a STOP that reaches ``snapshot_every`` is folded
    one op later; and it advances its Lamport clock before it finds the
    journal full, so a snapshot taken to make room records the pending
    op's clock (replay takes the max with the journal's clocks anyway).
    """

    def _journal_op(self, ev, label, op_clock, t0_ns, lane_id, reqpos):
        while not self.journal.try_append(
            ev, label, op_clock, t0_ns, lane_id, reqpos, time.monotonic_ns(),
            self.epoch, fence=self._fenced,
        ):
            self._make_room()

    def _drain_lane(self, lane_id):
        ring = self.lanes[lane_id]
        processed = 0
        for _ in range(OWNER_BATCH):
            reqpos = ring.tail
            req = ring.try_peek()
            if req is None:
                break
            if reqpos < self.watermarks[lane_id]:
                ring.advance()  # applied by a predecessor that died before recycling
                continue
            op, label, req_clock, t0_ns, _ = req
            self.clock = max(self.clock, req_clock) + 1
            processed += 1
            self.since_snapshot += 1
            if op == OP_INSERT:
                self._journal_op(EV_INSERT, label, self.clock, t0_ns, lane_id, reqpos)
                heapq.heappush(self.heap, label)
                self.cum_inserts += 1
                self.watermarks[lane_id] = reqpos + 1
                ring.advance()
                self._publish()
            elif op == OP_DELETE and self.heap:
                self._journal_op(EV_DELETE, self.heap[0], self.clock, t0_ns, lane_id, reqpos)
                heapq.heappop(self.heap)
                self.cum_deletes += 1
                self.watermarks[lane_id] = reqpos + 1
                ring.advance()
                self._publish()
            elif op == OP_DELETE:
                self._journal_op(EV_EMPTY, -1, self.clock, t0_ns, lane_id, reqpos)
                self.cum_empties += 1
                self.watermarks[lane_id] = reqpos + 1
                ring.advance()
            elif op == OP_STOP:
                self._journal_op(J_STOP, 0, self.clock, t0_ns, lane_id, reqpos)
                self.stopped[lane_id] = True
                self.watermarks[lane_id] = reqpos + 1
                ring.advance()
                break
            if self.since_snapshot >= self.snapshot_every:
                self._take_snapshot()
                self.since_snapshot = 0
        return processed


class _RecordingWords:
    """A segment's word view that logs every store and can run a hook after one."""

    def __init__(self, view):
        self.view = view
        self.stores = []
        self.after_store = None

    def __getitem__(self, index):
        return self.view[index]

    def __setitem__(self, index, value):
        self.view[index] = value
        self.stores.append((index, value))
        if self.after_store is not None:
            self.after_store(index, value)

    def release(self):
        self.view.release()


@pytest.fixture
def recorded():
    """A one-shard, three-lane segment whose word stores are logged."""
    segments = []

    def make(journal_capacity=32):
        seg = ServiceSegment.create(
            shards=1, lanes=3, req_capacity=16,
            journal_capacity=journal_capacity, state_capacity=64,
        )
        seg._words = _RecordingWords(seg._words)
        segments.append(seg)
        return seg

    yield make
    for seg in segments:
        seg.close()
        seg.unlink()


def _run_script(seg, owner_cls, script, snapshot_every=1024, lagging=False):
    """Drive an ``owner_cls`` owner of ``seg``'s shard through ``script``.

    A step is ``(lane, op, label)`` (a push), ``"sweep"``, or a callable
    taking the owner.  The collector reads the journal after every sweep,
    or, when ``lagging``, only while the owner waits.  At the end every
    lane is stopped and the owner runs to its goodbye.  Returns the
    journal rows (slot words without ``t1_ns`` and
    its checksum), every snapshot written, the request
    slots recycled, the ``(top, size)`` publishes, and the whole word
    store log with heartbeats blanked.
    """
    journal = seg.journal(0)
    rows, snapshots = [], []

    def collect():
        while len(run := journal.read_run(journal.cursor(), journal.capacity)):
            rows.extend(np.delete(run.view(np.int64), [7, 9], axis=1).tolist())  # t1 and its checksum
            journal.set_cursor(journal.cursor() + len(run))

    write = shm.ShardSnapshot.write

    def record(self, **state):
        snapshots.append(dict(state, watermarks=list(state["watermarks"]), labels=list(state["labels"])))
        write(self, **state)

    producers = [seg.request_ring(0, lane) for lane in range(seg.lanes)]
    stamp = itertools.count(1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shm.ShardSnapshot, "write", record)
        owner = owner_cls(seg, 0, snapshot_every=snapshot_every, sleep=lambda _s: collect())
        for step in script:
            if step == "sweep":
                owner.sweep()
                if not lagging:
                    collect()
            elif callable(step):
                step(owner)
            else:
                lane, op, label = step
                clock = next(stamp)
                assert producers[lane].try_push(op, label, clock, 1000 + clock, 0)
        for lane, ring in enumerate(producers):
            if not owner.stopped[lane]:
                assert ring.try_push(OP_STOP, 0, next(stamp), 0, 0)
        assert owner.run() == len(owner.heap)
        collect()

    header = seg.header(0)._offset >> 3
    lane_slots = {}
    for lane in range(seg.lanes):
        base = seg.request_ring(0, lane)._slots >> 3
        lane_slots.update({base + s * (shm.SLOT.size // 8): (lane, s) for s in range(16)})
    log = [(i, None if i == header + 4 else v) for i, v in seg._words.stores]
    recycles = [
        (lane_slots[i][0], v - 16) for i, v in log
        if i in lane_slots and v % 16 == lane_slots[i][1]  # a commit stores p + 1
    ]
    tops = [v for i, v in log if i == header + 2]
    sizes = [v for i, v in log if i == header + 3]
    return SimpleNamespace(
        rows=rows, snapshots=snapshots, recycles=recycles,
        publishes=list(zip(tops, sizes)), log=log, state=recover_shard_state(seg, 0),
    )


def _pushes(lane, *ops):
    return [(lane, op, label) for op, label in ops]


I, D, S = OP_INSERT, OP_DELETE, OP_STOP

#: Scripts with what they exercise; every one ends with all lanes stopped.
_SCRIPTS = {
    # Inserts, deletes and EV_EMPTY on two lanes, then a STOP in the
    # middle of lane 1's run: the insert pushed after it is never applied.
    "mixed-and-mid-chunk-stop": (
        _pushes(0, (I, 50), (I, 30), (D, -1), (I, 70), (D, -1), (D, -1), (D, -1))
        + _pushes(1, (I, 20), (I, 10), (D, -1))
        + ["sweep"]
        + _pushes(1, (I, 40), (S, 0), (I, 99))
        + _pushes(0, (I, 5), (D, -1))
        + ["sweep", "sweep"]
    ),
    # Slots below a lane's watermark (journaled by a predecessor that died
    # before recycling them) are recycled, never applied.
    "below-the-watermark": (
        _pushes(0, (I, 8), (I, 6), (I, 4), (D, -1))
        + [lambda owner: owner.watermarks.__setitem__(0, 2), "sweep"]
        + _pushes(2, (I, 3), (D, -1))
        + ["sweep"]
    ),
}


class TestChunkedOwner:
    """:class:`ShardOwner` against the per-op loop it replaced, over
    scripted lanes, plus the fence between two commits of one chunk."""

    def _compare(self, recorded, script, snapshot_every=1024, journal_capacity=32, lagging=False):
        ref = _run_script(recorded(journal_capacity), _ReferenceOwner, script, snapshot_every, lagging)
        got = _run_script(recorded(journal_capacity), ShardOwner, script, snapshot_every, lagging)
        assert got.rows == ref.rows
        assert got.recycles == ref.recycles
        assert got.publishes == ref.publishes
        assert got.log == ref.log
        assert got.state == ref.state
        return got, ref

    @pytest.mark.parametrize("name", sorted(_SCRIPTS))
    def test_matches_the_per_op_reference(self, recorded, name):
        got, ref = self._compare(recorded, _SCRIPTS[name])
        assert got.snapshots == ref.snapshots
        assert {row[1] for row in got.rows} >= {EV_INSERT, EV_DELETE, J_STOP, J_BYE}

    def test_mid_chunk_stop_and_empty_deletes(self, recorded):
        got, _ = self._compare(recorded, _SCRIPTS["mixed-and-mid-chunk-stop"])
        ops = [row[1] for row in got.rows]
        assert ops.count(EV_EMPTY) == 1 and ops.count(J_STOP) == 3
        assert 99 not in [row[2] for row in got.rows]  # pushed after its lane's STOP

    def test_below_the_watermark_is_recycled_unapplied(self, recorded):
        got, _ = self._compare(recorded, _SCRIPTS["below-the-watermark"])
        assert [row[2] for row in got.rows if row[5] == 0][:2] == [4, 4]  # insert 4, delete 4
        assert got.recycles[:2] == [(0, 0), (0, 1)]

    def test_chunks_are_cut_at_the_snapshot_boundary(self, recorded):
        # 12 ops, then the three STOPs stay clear of the next boundary.
        script = (
            _pushes(0, *[(I, 100 - i) for i in range(7)], (D, -1), (D, -1))
            + _pushes(1, (I, 7), (D, -1), (D, -1))
            + ["sweep"]
        )
        got, ref = self._compare(recorded, script, snapshot_every=4)
        assert got.snapshots == ref.snapshots
        folds = [s["fold_pos"] for s in got.snapshots]
        assert folds == [0, 4, 8, 12, 16]  # boot, every 4 ops (two mid-lane), after BYE

    def test_a_full_journal_waits_for_a_lagging_collector(self, recorded):
        script = _pushes(0, *[(I, 50 + i) for i in range(12)], (D, -1)) + ["sweep"]
        got, ref = self._compare(recorded, script, journal_capacity=8, lagging=True)
        # Room-making snapshots differ in clock only (see _ReferenceOwner).
        assert [dict(s, clock=0) for s in got.snapshots] == [dict(s, clock=0) for s in ref.snapshots]
        assert got.snapshots[-1] == ref.snapshots[-1]
        assert len(got.rows) == 12 + 1 + 3 + 1  # ops, STOPs, BYE

    @pytest.mark.parametrize("i", [0, 2, 5])
    def test_an_epoch_bump_between_commits_fences_the_rest_of_the_chunk(self, recorded, i):
        seg = recorded()
        owner = ShardOwner(seg, 0, sleep=lambda _s: None)
        producer = seg.request_ring(0, 0)
        for label in range(10, 16):  # one chunk of six inserts
            assert producer.try_push(OP_INSERT, label, 1, 0, 0)
        words = seg._words
        seqlock = (seg.header(0)._offset >> 3) + 1
        published, bumped_at = [], []

        def bump_after_publish_i(index, value):
            if index == seqlock and value % 2 == 0:
                published.append(value)
                if len(published) == i + 1:
                    words.view[seqlock - 1] += 1  # a successor's epoch
                    bumped_at.append(len(words.stores))

        words.after_store = bump_after_publish_i
        with pytest.raises(FencedOwnerError):
            owner.sweep()
        journal = seg.journal(0)
        journal.recover()
        assert [e.label for e in journal.scan()] == list(range(10, 11 + i))
        assert journal.audit().free == journal.capacity - (i + 1)  # the rest stay free
        assert producer.audit().committed == 6 - (i + 1)  # and their requests pending
        header_words = range(seqlock - 1, seqlock + 4)
        assert not [s for s in words.stores[bumped_at[0]:] if s[0] in header_words]
        assert seg.header(0).read()[1:3] == (10, i + 1)  # the last publish is op i's


def _drain_loadgen_stripes(owner_cls, spec, workers=2, snapshot_every=100):
    """``owner_cls`` draining ``workers`` real loadgen stripes, without processes.

    Every stripe is pushed by ``run_loadgen`` in process (its own attach
    of the segment, so its stores are not in the log), then each lane
    gets its STOP and the owner is stepped through sweeps with a
    collector that reads after every sweep and whenever the owner waits.
    """
    seg = ServiceSegment.create(
        shards=1, lanes=workers + 1, req_capacity=1024, journal_capacity=32, state_capacity=1024,
    )
    seg._words = _RecordingWords(seg._words)

    def fill(owner):
        for worker in range(workers):
            run_loadgen(seg.name, worker, workers, spec, 1 << 40, beta=1.0, dead_after_s=600.0)

    def stop(owner):
        for lane in range(workers):
            ring = seg.request_ring(0, lane)
            ring.recover()  # the loadgen's producer position
            assert ring.try_push(OP_STOP, 0, 0, 0, 0)

    sweeps = -(-spec.ops // (workers * OWNER_BATCH)) + 2
    try:
        return _run_script(seg, owner_cls, [fill, stop] + ["sweep"] * sweeps, snapshot_every)
    finally:
        seg.close()
        seg.unlink()


class TestLoadgenToOwner:
    """The whole op path in one process: lanes filled by the loadgen's
    block-folded pushes, drained by the chunked owner as by the per-op
    reference."""

    def test_journal_matches_the_per_op_reference(self):
        spec = ScheduleSpec(mode="poisson", ops=700, prefill=0, rate=1e9, seed=8)
        ref = _drain_loadgen_stripes(_ReferenceOwner, spec)
        got = _drain_loadgen_stripes(ShardOwner, spec)
        assert got.rows == ref.rows  # every field but t1 and its checksum
        assert got.publishes == ref.publishes
        assert got.log == ref.log
        assert got.state == ref.state
        assert [s["fold_pos"] for s in got.snapshots] == [s["fold_pos"] for s in ref.snapshots]
        applied = [row for row in got.rows if row[1] in (EV_INSERT, EV_DELETE, EV_EMPTY)]
        assert len(applied) == spec.ops
        clocks = [row[3] for row in got.rows]
        assert clocks == sorted(set(clocks))  # the owner's Lamport clock only rises
        assert {row[4] >> 40 for row in applied} == {1}  # loadgen-stamped intended starts


def _proc_gone(pid):
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            state = f.read().rpartition(b")")[2].split()[0]
    except FileNotFoundError:
        return True
    return state in (b"Z", b"X")


def _start_owner_then_sleep(segment_name, conn):
    owner = multiprocessing.get_context("fork").Process(
        target=shard_owner_main, args=(segment_name, 0, 0.0002)
    )
    owner.start()
    conn.send(owner.pid)
    time.sleep(60.0)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestOwnerProcesses:
    def test_alive_reads_sentinels_without_reaping(self, one_shard):
        cluster = ServiceCluster(one_shard)
        cluster.start()
        proc = cluster.processes[0]
        try:
            assert cluster.alive() == [True]
            os.kill(proc.pid, signal.SIGKILL)
            _wait_for(lambda: cluster.alive() == [False])
            # The liveness check left the exit status in place.
            pid, status = os.waitpid(proc.pid, os.WNOHANG)
            assert pid == proc.pid and os.WTERMSIG(status) == signal.SIGKILL
            # Reaped here, not by multiprocessing: tell it the outcome.
            proc._popen.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.exitcode is None:
                proc.kill()
                proc.join()

    def test_stalled_owner_still_gets_every_stop(self, one_shard):
        """An owner whose heartbeat looks stale (SIGSTOPped past
        run_service's default dead_after_s of 2 s) during shutdown is still
        alive, so it must still get the STOP of every lane."""
        cluster = ServiceCluster(one_shard)
        cluster.start()
        collector = EventCollector(one_shard, cluster)
        collector.start()
        proc = cluster.processes[0]
        try:
            _wait_for(lambda: one_shard.header(0).read()[3] > 0)
            os.kill(proc.pid, signal.SIGSTOP)
            try:
                time.sleep(2.3)
                _stop_owners(one_shard, cluster)
            finally:
                os.kill(proc.pid, signal.SIGCONT)
            assert cluster.join(timeout_s=10.0) == [0]
            collector.join(timeout=10.0)
            assert not collector.is_alive()
            assert collector.residual_sizes == [0]
            assert recover_shard_state(one_shard, 0).stopped == [True, True]
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()

    def test_owner_exits_when_its_parent_dies(self, one_shard):
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        parent = ctx.Process(target=_start_owner_then_sleep, args=(one_shard.name, send))
        parent.start()
        owner_pid = None
        try:
            owner_pid = receive.recv()
            _wait_for(lambda: one_shard.header(0).read()[3] > 0)
            os.kill(parent.pid, signal.SIGKILL)
            parent.join()
            killed = time.monotonic()
            _wait_for(lambda: _proc_gone(owner_pid), timeout_s=5.0)
            assert time.monotonic() - killed < 2.0
        finally:
            if parent.is_alive():
                parent.kill()
                parent.join()
            if owner_pid is not None and not _proc_gone(owner_pid):
                os.kill(owner_pid, signal.SIGKILL)


class TestEndToEnd:
    def test_small_run_is_clean_and_conserves_labels(self):
        spec = ScheduleSpec(mode="poisson", ops=1200, prefill=128, rate=0.0, seed=11)
        res = run_service(shards=2, workers=2, spec=spec, beta=0.5, seed=5)
        assert res["audit"] == {"rings": 8, "torn": 0, "pending": 0}
        assert res["conservation"]["events_match"]
        assert res["owner_exitcodes"] == [0, 0]
        assert res["loadgen_exitcodes"] == [0, 0]
        assert res["ops_processed"] == spec.ops
        assert res["throughput_ops_s"] > 0
        # Conservation: every insert (prefill included) either got deleted
        # or is still in a heap at shutdown.
        assert sum(res["residual_sizes"]) == res["inserts"] - res["deletes"]
        assert res["rank"] is not None and res["rank"]["mean_rank"] >= 1.0

    def test_closed_throttle_heap_drift_stays_in_flight(self):
        """Two loadgens at closed throttle hold the heap at prefill.

        Each loadgen offers alternating insert/delete pairs, so inserts
        minus deletes committed so far (empty deletes included) can only
        exceed prefill by the requests in flight plus one unpaired insert
        per loadgen.  A stripe with one loadgen inserting and the other
        deleting lets the heap random-walk far past that with their race.
        """
        shards, workers, req_capacity = 2, 2, 2048
        spec = ScheduleSpec(mode="poisson", ops=400_000, prefill=512, rate=0.0, seed=0)
        res = run_service(
            shards=shards, workers=workers, spec=spec, beta=1.0, seed=0,
            req_capacity=req_capacity,
        )
        assert res["ops_processed"] == spec.ops
        assert res["conservation"]["events_match"]
        assert 0 <= res["heap_drift_peak"] <= workers * shards * req_capacity + workers

    def test_single_policy_serves_exact_heap_order(self):
        spec = ScheduleSpec(mode="poisson", ops=400, prefill=64, rate=0.0, seed=13)
        res = run_service(
            shards=2, workers=1, spec=spec, beta=0.0, policy="single", seed=2,
            rank_sample_every=1,
        )
        assert res["audit"]["torn"] == 0
        # Everything funnels through shard 0: one global heap, so with a
        # single client every delete removes the true minimum (rank 1).
        assert res["per_shard"][1]["inserts"] == 0
        assert res["rank"]["max_rank"] == 1

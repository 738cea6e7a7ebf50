"""Slot protocol, seqlock header, and segment layout tests (in-process)."""

import multiprocessing
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import shm
from repro.service.shm import (
    EV_DELETE,
    EV_INSERT,
    FencedOwnerError,
    JSLOT,
    JournalRing,
    OP_DELETE,
    OP_INSERT,
    RingAudit,
    SLOT,
    ServiceSegment,
    ShardHeader,
    SlotRing,
    TOP_EMPTY,
    TornSlotError,
    journal_checksum,
    journal_checksums,
    slot_checksum,
    slot_checksums,
)


@pytest.fixture
def segment():
    seg = ServiceSegment.create(shards=2, lanes=3, req_capacity=8, journal_capacity=16)
    yield seg
    seg.close()
    seg.unlink()


class TestSlotRing:
    def test_roundtrip(self, segment):
        ring = segment.request_ring(0, 0)
        assert ring.try_push(OP_INSERT, 42, clock=7, t0_ns=100, t1_ns=0)
        reader = segment.request_ring(0, 0)  # fresh view, same region
        assert reader.try_pop() == (OP_INSERT, 42, 7, 100, 0)
        assert reader.try_pop() is None

    def test_fifo_order(self, segment):
        ring = segment.request_ring(0, 1)
        for i in range(5):
            assert ring.try_push(OP_INSERT, i)
        got = [ring.try_pop()[1] for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_full_rejects_push(self, segment):
        ring = segment.request_ring(0, 0)
        for i in range(ring.capacity):
            assert ring.try_push(OP_INSERT, i)
        assert not ring.try_push(OP_INSERT, 999)

    def test_wraparound_many_times(self, segment):
        producer = segment.request_ring(1, 2)
        consumer = segment.request_ring(1, 2)
        for i in range(10 * producer.capacity):
            assert producer.try_push(OP_DELETE, i)
            assert consumer.try_pop() == (OP_DELETE, i, 0, 0, 0)

    def test_negative_labels_and_timestamps_roundtrip(self, segment):
        ring = segment.request_ring(0, 0)
        assert ring.try_push(OP_INSERT, -5, clock=1, t0_ns=-1, t1_ns=-2)
        assert ring.try_pop() == (OP_INSERT, -5, 1, -1, -2)

    def test_recover_resumes_mid_stream(self, segment):
        producer = segment.request_ring(0, 0)
        consumer = segment.request_ring(0, 0)
        for i in range(11):  # wraps the 8-slot ring
            producer.try_push(OP_INSERT, i)
            if i < 6:
                consumer.try_pop()
        # A brand-new attachment must find the same positions.
        recovered = segment.request_ring(0, 0)
        recovered.recover()
        got = []
        while (item := recovered.try_pop()) is not None:
            got.append(item[1])
        assert got == list(range(6, 11))
        # ... and the recovered producer position accepts new pushes.
        producer2 = segment.request_ring(0, 0)
        producer2.recover()
        assert producer2.try_push(OP_INSERT, 77)
        assert recovered.try_pop()[1] == 77

    def test_recover_on_fresh_ring(self, segment):
        ring = segment.request_ring(0, 0)
        ring.recover()
        assert ring.try_pop() is None
        assert ring.try_push(OP_INSERT, 1)

    def test_audit_clean(self, segment):
        ring = segment.request_ring(0, 0)
        for i in range(5):
            ring.try_push(OP_DELETE, i)
        ring.try_pop()
        audit = ring.audit()
        assert audit.ok
        assert audit.committed == 4
        assert audit.free == ring.capacity - 4

    def test_audit_detects_corrupted_checksum(self, segment):
        ring = segment.request_ring(0, 0)
        ring.try_push(OP_INSERT, 42)
        # Flip a payload byte *after* commit: simulated torn write.
        off = ring._slot_offset(0) + 16  # label field
        ring._buf[off] ^= 0xFF
        audit = ring.audit()
        assert audit.torn == 1
        assert not audit.ok

    def test_pop_raises_on_torn_slot(self, segment):
        ring = segment.request_ring(0, 0)
        ring.try_push(OP_INSERT, 42)
        ring._buf[ring._slot_offset(0) + 16] ^= 0xFF
        with pytest.raises(TornSlotError):
            ring.try_pop()

    def test_uncommitted_write_is_invisible(self, segment):
        """A payload written without the seq publish must not be consumed."""
        ring = segment.request_ring(0, 0)
        off = ring._slot_offset(0)
        # Write payload bytes but keep seq at its free value (0): this is
        # exactly the state a SIGKILL between payload and commit leaves.
        SLOT.pack_into(
            ring._buf, off, 0, OP_INSERT, 123, 0, 0, 0,
            slot_checksum(OP_INSERT, 123, 0, 0, 0),
        )
        assert ring.try_pop() is None
        assert ring.audit().ok  # free slot, not torn

    def test_checksum_is_deterministic_and_nonzero(self):
        a = slot_checksum(OP_INSERT, 5, 1, 2, 3)
        assert a == slot_checksum(OP_INSERT, 5, 1, 2, 3)
        assert a != slot_checksum(OP_INSERT, 6, 1, 2, 3)
        assert slot_checksum(0, 0, 0, 0, 0) != 0


class TestShardHeader:
    def test_initial_state(self, segment):
        epoch, top, size, hb = segment.header(0).read()
        assert (epoch, top, size, hb) == (0, TOP_EMPTY, 0, 0)

    def test_publish_read_roundtrip(self, segment):
        hdr = segment.header(1)
        hdr.publish(top=17, size=4, heartbeat_ns=123456)
        epoch, top, size, hb = segment.header(1).read()
        assert (top, size, hb) == (17, 4, 123456)

    def test_epoch_fencing(self, segment):
        hdr = segment.header(0)
        assert hdr.bump_epoch() == 1
        assert hdr.bump_epoch() == 2
        assert segment.header(0).epoch() == 2

    def test_read_survives_writer_died_mid_publish(self, segment):
        hdr = segment.header(0)
        hdr.publish(top=9, size=1, heartbeat_ns=5)
        # Simulate a writer killed after the odd seqlock store.
        (seq,) = struct.unpack_from("<Q", hdr._buf, hdr._offset + 8)
        struct.pack_into("<Q", hdr._buf, hdr._offset + 8, seq + 1)
        epoch, top, size, hb = hdr.read(max_tries=4)
        assert top == 9  # stale-but-usable snapshot, no hang


def _publish(seg, i):
    seg.header(0).publish(top=5, size=1, heartbeat_ns=i)


def _published(seg):
    _epoch, top, size, heartbeat = seg.header(0).read()
    return (top, size) == (5, 1) and heartbeat > 0


def _set_cursor(seg, i):
    seg.journal(0).set_cursor(i)


def _cursor_set(seg):
    return seg.journal(0).cursor() > 0


def _write_many(name, write):
    seg = ServiceSegment.attach(name)
    for i in range(1, 200_000):
        write(seg, i)
    seg.close()


@pytest.mark.parametrize(
    "write, intact", [(_publish, _published), (_set_cursor, _cursor_set)],
    ids=["header", "cursor"],
)
def test_racing_reader_never_sees_zero_fill(segment, write, intact):
    """``struct.pack_into`` zero-fills a field before storing it.  A
    reader in another process racing such a store could take a zeroed
    seqlock for a stable one and read heartbeat 0 ("never published"),
    or read the collector cursor as 0; the stores must never expose it."""
    write(segment, 1)
    proc = multiprocessing.get_context("fork").Process(
        target=_write_many, args=(segment.name, write)
    )
    proc.start()
    torn = reads = 0
    while proc.is_alive():
        for _ in range(1000):
            torn += not intact(segment)
            reads += 1
    proc.join(timeout=10.0)
    assert proc.exitcode == 0 and reads > 0
    assert torn == 0, f"{torn} of {reads} reads saw a zero-filled field"


class TestServiceSegment:
    @pytest.mark.parametrize(
        "req_capacity, journal_capacity", [(1, 16), (8, 1), (0, 16), (8, 0)]
    )
    def test_rejects_ring_capacities_below_two(self, req_capacity, journal_capacity):
        with pytest.raises(ValueError, match="at least 2"):
            ServiceSegment.create(
                shards=1, lanes=1, req_capacity=req_capacity,
                journal_capacity=journal_capacity,
            )

    def test_two_slot_lane_recovers_its_pending_request(self):
        seg = ServiceSegment.create(shards=1, lanes=1, req_capacity=2, journal_capacity=2)
        try:
            producer = seg.request_ring(0, 0)
            assert producer.try_push(OP_INSERT, 5)
            assert producer.try_pop()[1] == 5
            assert producer.try_push(OP_INSERT, 6)  # pending at a crash
            recovered = seg.request_ring(0, 0)
            recovered.recover()
            assert (recovered.head, recovered.tail) == (2, 1)
            assert recovered.try_pop()[1] == 6
            assert recovered.try_pop() is None
        finally:
            seg.close()
            seg.unlink()

    def test_attach_sees_creator_geometry_and_data(self, segment):
        segment.request_ring(1, 2).try_push(OP_INSERT, 314)
        other = ServiceSegment.attach(segment.name)
        try:
            assert (other.shards, other.lanes) == (2, 3)
            assert (other.req_capacity, other.journal_capacity) == (8, 16)
            assert other.request_ring(1, 2).try_pop()[1] == 314
        finally:
            other.close()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=64)
        try:
            with pytest.raises(ValueError, match="not a repro.service segment"):
                ServiceSegment.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_rings_do_not_overlap(self, segment):
        # Fill every ring with distinct labels, then verify each reads back
        # its own — any layout overlap would cross-contaminate.
        tag = 0
        for s in range(segment.shards):
            for lane in range(segment.lanes):
                segment.request_ring(s, lane).try_push(OP_INSERT, tag)
                tag += 1
            assert segment.journal(s).try_append(EV_DELETE, tag, 0, 0, 0, 0, 0, 1)
            segment.journal(s).set_cursor(tag)
            tag += 1
            segment.header(s).publish(top=tag, size=tag, heartbeat_ns=tag)
            tag += 1
        tag = 0
        for s in range(segment.shards):
            for lane in range(segment.lanes):
                assert segment.request_ring(s, lane).try_pop()[1] == tag
                tag += 1
            assert segment.journal(s).read_run(0, 1)[0, 2] == tag
            assert segment.journal(s).cursor() == tag
            tag += 1
            assert segment.header(s).read()[1] == tag
            tag += 1

    def test_bad_indices_raise(self, segment):
        with pytest.raises(IndexError):
            segment.header(2)
        with pytest.raises(IndexError):
            segment.request_ring(0, 3)
        with pytest.raises(IndexError):
            segment.journal(-1)

    def test_audit_counts_all_rings(self, segment):
        audit = segment.audit()
        # 2 shards x (3 request lanes + 1 journal ring)
        assert audit == {"rings": 8, "torn": 0, "pending": 0}

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            ServiceSegment.create(shards=0, lanes=1)
        with pytest.raises(ValueError, match="at most 64 lanes"):
            ServiceSegment.create(shards=1, lanes=65)


class TestCrashEdges:
    """The exact crash windows the recovery protocol leans on."""

    def test_header_read_falls_back_on_odd_seqlock(self, segment):
        """A writer SIGKILLed mid-seqlock (odd seq forever) must not hang
        readers: after max_tries the stale snapshot is returned."""
        hdr = segment.header(0)
        hdr.publish(top=41, size=3, heartbeat_ns=99)
        # Kill "mid-publish": odd seqlock, half-updated fields.
        (seq,) = struct.unpack_from("<Q", hdr._buf, hdr._offset + 8)
        struct.pack_into("<Q", hdr._buf, hdr._offset + 8, seq + 1)  # odd
        struct.pack_into("<q", hdr._buf, hdr._offset + 16, 77)  # torn top
        epoch, top, size, hb = hdr.read(max_tries=8)
        # The fallback returns whatever the fields hold — usable for
        # routing (tops are advisory), never a hang.
        assert (top, size, hb) == (77, 3, 99)

    def test_recover_at_exact_wraparound_boundary(self, segment):
        """Producer exactly one full lap ahead of the consumer: every slot
        committed, head == tail + capacity."""
        ring = segment.request_ring(0, 0)
        cap = ring.capacity
        consumer = segment.request_ring(0, 0)
        # Advance a full lap first so absolute positions exceed capacity.
        for i in range(cap):
            assert ring.try_push(OP_INSERT, i)
            assert consumer.try_pop()[1] == i
        for i in range(cap):
            assert ring.try_push(OP_INSERT, 100 + i)
        recovered = segment.request_ring(0, 0)
        recovered.recover()
        assert recovered.head == 2 * cap
        assert recovered.tail == cap
        got = [recovered.try_pop()[1] for _ in range(cap)]
        assert got == [100 + i for i in range(cap)]

    def test_recover_with_maximally_torn_final_slot(self, segment):
        """Writer killed between the final slot's payload write and its
        commit store: the payload (checksum included) is fully present
        but seq still reads free — recovery must treat it as free and
        hand the producer that exact position back."""
        ring = segment.request_ring(0, 0)
        for i in range(3):
            assert ring.try_push(OP_INSERT, i)
        # Hand-craft the "maximally torn" 4th push: complete payload and
        # valid checksum, seq left at the free value 3.
        off = ring._slot_offset(3)
        SLOT.pack_into(
            ring._buf, off, 3, OP_INSERT, 999, 7, 8, 9,
            slot_checksum(OP_INSERT, 999, 7, 8, 9),
        )
        recovered = segment.request_ring(0, 0)
        recovered.recover()
        assert recovered.head == 3  # the torn slot is invisible
        assert recovered.tail == 0
        audit = recovered.audit()
        assert audit.torn == 0 and audit.committed == 3
        # The successor's next push lands exactly there and reads back.
        assert recovered.try_push(OP_INSERT, 1000)
        for want in (0, 1, 2, 1000):
            assert recovered.try_pop()[1] == want

    def test_recover_torn_slot_at_wraparound_position(self, segment):
        """Same torn-final-slot window, but with the torn slot at the ring's
        physical index 0 after a wraparound — the modular arithmetic edge."""
        ring = segment.request_ring(0, 0)
        cap = ring.capacity
        consumer = segment.request_ring(0, 0)
        for i in range(cap):  # one full lap
            assert ring.try_push(OP_INSERT, i)
            assert consumer.try_pop()[1] == i
        # Torn write at absolute position `cap` (physical slot 0): payload
        # stored, seq still at the recycled/free value `cap`.
        off = ring._slot_offset(cap)
        SLOT.pack_into(
            ring._buf, off, cap, OP_INSERT, 555, 0, 0, 0,
            slot_checksum(OP_INSERT, 555, 0, 0, 0),
        )
        recovered = segment.request_ring(0, 0)
        recovered.recover()
        assert recovered.head == cap and recovered.tail == cap
        assert recovered.try_pop() is None
        assert recovered.audit().torn == 0

    def test_recover_rescans_when_a_commit_lands_mid_scan(self, segment):
        """recover() racing a live producer can observe an earlier slot
        free (pre-commit) while a later slot is already committed — no
        quiescent ring looks like that.  Accepting the scan would place
        the consumer tail past the earlier commit and silently drop its
        request (a respawned owner recovers request lanes under live
        loadgen traffic); recover must rescan until consistent."""
        ring = segment.request_ring(0, 0)
        assert ring.try_push(OP_INSERT, 7)
        assert ring.try_push(OP_INSERT, 8)
        off = ring._slot_offset(0)
        # Freeze the racy observation: rewind slot 0's seq to its
        # pre-commit (free) residue while slot 1 stays committed...
        struct.pack_into("<Q", ring._buf, off, 0)
        # ...and let "the producer's commit store" land mid-recover.
        repair = threading.Timer(
            0.01, struct.pack_into, ("<Q", ring._buf, off, 1)
        )
        repair.start()
        recovered = segment.request_ring(0, 0)
        recovered.recover()
        repair.join()
        assert recovered.tail == 0 and recovered.head == 2
        assert recovered.try_pop()[1] == 7  # nothing dropped
        assert recovered.try_pop()[1] == 8

    def test_recover_raises_when_no_scan_is_consistent(self, segment):
        """A *permanently* inconsistent ring (free below committed, with
        nobody finishing the commit) is corruption, not a race in
        flight: recover must fail loudly, never drop the slot."""
        ring = segment.request_ring(0, 0)
        assert ring.try_push(OP_INSERT, 7)
        assert ring.try_push(OP_INSERT, 8)
        struct.pack_into("<Q", ring._buf, ring._slot_offset(0), 0)
        fresh = segment.request_ring(0, 0)
        with pytest.raises(TornSlotError):
            fresh.recover()


@pytest.fixture
def small_segment():
    seg = ServiceSegment.create(
        shards=1, lanes=1, req_capacity=8,
        journal_capacity=8, state_capacity=16,
    )
    yield seg
    seg.close()
    seg.unlink()


class TestJournalRing:
    def test_append_scan_roundtrip(self, small_segment):
        journal = small_segment.journal(0)
        for i in range(3):
            assert journal.try_append(
                OP_INSERT, 10 + i, clock=i, t0_ns=100 + i,
                lane=0, reqpos=i, t1_ns=i, epoch=1,
            )
        entries = journal.scan()
        assert [e.label for e in entries] == [10, 11, 12]
        assert [e.pos for e in entries] == [0, 1, 2]
        assert all(e.epoch == 1 for e in entries)

    def test_full_rejects_append(self, small_segment):
        journal = small_segment.journal(0)
        for i in range(journal.capacity):
            assert journal.try_append(OP_INSERT, i, 0, 0, 0, i, i, 1)
        assert not journal.try_append(OP_INSERT, 99, 0, 0, 0, 99, 99, 1)

    def test_truncate_recycles_and_wraps(self, small_segment):
        journal = small_segment.journal(0)
        cap = journal.capacity
        for i in range(cap):
            assert journal.try_append(OP_INSERT, i, 0, 0, 0, i, i, 1)
        journal.truncate_to(cap - 2)  # snapshot folded all but the last 2
        assert [e.label for e in journal.scan()] == [cap - 2, cap - 1]
        for i in range(cap - 2):  # refill the recycled slots (wraps)
            assert journal.try_append(OP_INSERT, 100 + i, 0, 0, 0, i, i, 2)
        assert [e.label for e in journal.scan()] == (
            [cap - 2, cap - 1] + [100 + i for i in range(cap - 2)]
        )

    def test_fence_raises_with_slot_still_free(self, small_segment):
        """A fenced zombie must not commit: the append raises *after* the
        payload write but the slot seq never flips, so a successor reusing
        the position sees a free slot."""
        journal = small_segment.journal(0)
        assert journal.try_append(OP_INSERT, 1, 0, 0, 0, 0, 0, 1)
        with pytest.raises(FencedOwnerError):
            journal.try_append(OP_DELETE, 2, 0, 0, 0, 1, 1, 1, fence=lambda: True)
        # The fenced payload is invisible: scan sees only the first entry...
        successor = small_segment.journal(0)
        successor.recover()
        assert [e.label for e in successor.scan()] == [1]
        # ... and the successor commits over the same position.
        assert successor.try_append(OP_DELETE, 3, 0, 0, 0, 1, 1, 2)
        assert [(e.label, e.epoch) for e in successor.scan()] == [(1, 1), (3, 2)]

    def test_scan_raises_on_torn_committed_slot(self, small_segment):
        journal = small_segment.journal(0)
        journal.try_append(OP_INSERT, 42, 0, 0, 0, 0, 0, 1)
        off = journal._slot_offset(0) + 16  # label field
        journal._buf[off] ^= 0xFF
        with pytest.raises(TornSlotError):
            journal.scan()
        assert journal.audit().torn == 1

    def test_recover_after_truncate_and_wrap(self, small_segment):
        journal = small_segment.journal(0)
        cap = journal.capacity
        for i in range(cap + 3):
            assert journal.try_append(OP_INSERT, i, 0, 0, 0, i, i, 1)
            if journal.head - journal.tail > 2:
                journal.truncate_to(journal.head - 2)
        recovered = small_segment.journal(0)
        recovered.recover()
        assert recovered.head == journal.head
        assert recovered.tail == journal.tail
        assert [e.label for e in recovered.scan()] == [
            e.label for e in journal.scan()
        ]

    def test_checksum_covers_every_field(self):
        base = journal_checksum(1, 2, 3, 4, 5, 6, 7, 8)
        for i in range(8):
            args = [1, 2, 3, 4, 5, 6, 7, 8]
            args[i] += 1
            assert journal_checksum(*args) != base

    def test_read_tails_committed_entries_only(self, small_segment):
        """The collector's read: committed entries in order, an empty run
        at a free, torn-but-uncommitted or recycled position."""
        journal = small_segment.journal(0)
        assert len(journal.read_run(0, 8)) == 0  # nothing committed yet
        assert journal.try_append(OP_INSERT, 5, 1, 2, 0, 0, 3, 1)
        run = journal.read_run(0, 8)
        assert run.shape == (1, JSLOT.size // 8)
        assert tuple(run[0, 1:9]) == tuple(journal.scan()[0][1:])
        assert run[0, 7] == 3  # t1_ns
        # A payload written without its commit store stays invisible.
        off = journal._slot_offset(1)
        JSLOT.pack_into(
            journal._buf, off, 1, OP_INSERT, 6, 0, 0, 0, 1, 0, 1,
            journal_checksum(OP_INSERT, 6, 0, 0, 0, 1, 0, 1),
        )
        assert len(journal.read_run(1, 8)) == 0
        assert len(journal.read_run(0, 8)) == 1
        journal.truncate_to(1)
        assert len(journal.read_run(0, 8)) == 0  # recycled for the next lap

    def test_read_run_stops_before_an_uncommitted_slot_unchecked(self, small_segment):
        """The first uncommitted slot ends the run, and its payload (here
        garbage with a wrong checksum) is never copied or checksummed."""
        journal = small_segment.journal(0)
        for i in range(3):
            assert journal.try_append(OP_INSERT, i, i, 0, 0, i, 0, 1)
        JSLOT.pack_into(journal._buf, journal._slot_offset(3), 3, *range(7, 16))
        run = journal.read_run(0, 8)
        assert run[:, 2].tolist() == [0, 1, 2]
        assert run[:, 0].tolist() == [1, 2, 3]  # seq = position + 1
        assert journal.read_run(1, 1)[:, 2].tolist() == [1]  # limit honoured

    def test_read_run_stops_at_the_ring_end_and_resumes_at_slot_zero(self):
        cap = 8
        buf = bytearray(JournalRing.region_size(cap))  # nothing past the ring end
        journal = JournalRing(buf, 0, cap, memoryview(buf).cast("Q"))
        journal.initialize()
        for i in range(cap - 2):
            assert journal.try_append(OP_INSERT, i, 0, 0, 0, i, 0, 1)
        journal.truncate_to(cap - 2)
        for i in range(5):  # positions cap-2 .. cap+2 straddle the ring end
            assert journal.try_append(OP_INSERT, 100 + i, 0, 0, 0, i, 0, 1)
        first = journal.read_run(cap - 2, cap)
        assert first[:, 2].tolist() == [100, 101]
        second = journal.read_run(cap, cap)
        assert second[:, 2].tolist() == [102, 103, 104]
        assert (second[:, 0] - 1).tolist() == [cap, cap + 1, cap + 2]

    @pytest.mark.parametrize("committed", [255, 256, 257, 700, 1024])
    def test_read_run_spans_its_seq_probe_windows(self, committed):
        """Runs longer than one seq window (256, then 512, ...) come back
        whole, and still end at the first uncommitted slot."""
        cap = 1024
        buf = bytearray(JournalRing.region_size(cap))
        journal = JournalRing(buf, 0, cap, memoryview(buf).cast("Q"))
        journal.initialize()
        for i in range(committed):
            assert journal.try_append(OP_INSERT, i, i, 0, 0, i, 0, 1)
        if committed < cap:
            JSLOT.pack_into(buf, journal._slot_offset(committed), committed, *range(7, 16))
        run = journal.read_run(0, cap)
        assert run[:, 2].tolist() == list(range(committed))
        assert len(journal.read_run(0, 300)) == min(300, committed)  # limit honoured

    def test_read_run_names_the_absolute_torn_position(self, small_segment):
        journal = small_segment.journal(0)
        cap = journal.capacity
        for i in range(cap):
            assert journal.try_append(OP_INSERT, i, 0, 0, 0, i, 0, 1)
        journal.truncate_to(cap)
        for i in range(3):
            assert journal.try_append(OP_INSERT, i, 0, 0, 0, i, 0, 2)
        journal._buf[journal._slot_offset(cap + 1) + 16] ^= 0xFF  # label of position cap+1
        with pytest.raises(TornSlotError, match=f"position {cap + 1} ") as info:
            journal.read_run(cap, cap)
        assert info.value.pos == cap + 1
        assert journal.read_run(cap, 1)[:, 2].tolist() == [0]  # the good prefix
        assert journal.audit().torn == 1 and journal.audit().committed == 2

    def test_cursor_is_shared_and_starts_at_zero(self, small_segment):
        journal = small_segment.journal(0)
        assert journal.cursor() == 0
        journal.set_cursor(5)
        assert small_segment.journal(0).cursor() == 5  # fresh view, same word
        # The cursor word sits outside the slots: recovery ignores it.
        fresh = small_segment.journal(0)
        fresh.recover()
        assert (fresh.head, fresh.tail) == (0, 0)


class TestShardSnapshot:
    def test_initialized_snapshot_is_empty_and_valid(self, small_segment):
        state = small_segment.snapshot(0).read()
        assert state.epoch == 0 and state.fold_pos == 0
        assert state.labels.size == 0
        assert state.watermarks == (0,)
        assert state.stopped_mask == 0

    def test_write_read_roundtrip(self, small_segment):
        snap = small_segment.snapshot(0)
        snap.write(
            epoch=3, clock=17, fold_pos=9, cum_inserts=12,
            cum_deletes=5, cum_empties=1, stopped_mask=0b1,
            watermarks=[7], labels=np.array([5, 2, 9], dtype=np.int64),
        )
        state = small_segment.snapshot(0).read()
        assert (state.epoch, state.clock, state.fold_pos) == (3, 17, 9)
        assert (state.cum_inserts, state.cum_deletes, state.cum_empties) == (12, 5, 1)
        assert state.stopped_mask == 0b1 and state.watermarks == (7,)
        assert list(state.labels) == [5, 2, 9]

    def test_reader_falls_back_when_writer_died_mid_write(self, small_segment):
        """A writer killed mid-way through the inactive buffer leaves the
        previously committed snapshot readable."""
        snap = small_segment.snapshot(0)
        snap.write(
            epoch=1, clock=5, fold_pos=2, cum_inserts=3,
            cum_deletes=1, cum_empties=0, stopped_mask=0,
            watermarks=[3], labels=np.array([8], dtype=np.int64),
        )
        # Scribble over the *inactive* buffer: a partially-written header
        # with a checksum that cannot validate.
        (active, _pad) = struct.unpack_from("<QQ", snap._buf, snap._offset)
        garbage = snap._buffer_offset(1 - int(active))
        snap._buf[garbage : garbage + 32] = b"\xde\xad" * 16
        state = small_segment.snapshot(0).read()
        assert state.epoch == 1 and list(state.labels) == [8]

    def test_reader_falls_back_when_flip_preceded_valid_data(self, small_segment):
        """Corrupt the *active* buffer (torn flip / bad checksum): the reader
        must fall back to the sibling instead of raising."""
        snap = small_segment.snapshot(0)
        snap.write(
            epoch=2, clock=1, fold_pos=0, cum_inserts=1,
            cum_deletes=0, cum_empties=0, stopped_mask=0,
            watermarks=[1], labels=np.array([4], dtype=np.int64),
        )
        snap.write(
            epoch=2, clock=2, fold_pos=1, cum_inserts=2,
            cum_deletes=0, cum_empties=0, stopped_mask=0,
            watermarks=[2], labels=np.array([4, 6], dtype=np.int64),
        )
        (active, _pad) = struct.unpack_from("<QQ", snap._buf, snap._offset)
        bad = snap._buffer_offset(int(active))
        snap._buf[bad + 8] ^= 0xFF  # corrupt the active header
        state = small_segment.snapshot(0).read()
        assert state.clock == 1 and list(state.labels) == [4]  # the older one

    def test_capacity_overflow_rejected(self, small_segment):
        snap = small_segment.snapshot(0)
        with pytest.raises(ValueError, match="exceeds state capacity"):
            snap.write(
                epoch=1, clock=0, fold_pos=0, cum_inserts=0,
                cum_deletes=0, cum_empties=0, stopped_mask=0,
                watermarks=[0],
                labels=np.arange(snap.state_capacity + 1, dtype=np.int64),
            )


# -- checksum folds against the reference loops ------------------------------

_MASK64 = (1 << 64) - 1
_FNV_PRIME = 0x100000001B3


def _reference_fold(values):
    """The per-step-masked FNV loop the straight-line folds must equal."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = ((h ^ v) * _FNV_PRIME) & _MASK64
    return h


def _reference_slot_checksum(op, label, clock, t0_ns, t1_ns):
    return _reference_fold(
        (op, label & _MASK64, clock, t0_ns & _MASK64, t1_ns & _MASK64)
    ) or 1


def _reference_journal_checksum(op, label, clock, t0_ns, lane, reqpos, t1_ns, epoch):
    return _reference_fold(
        (op, label & _MASK64, clock, t0_ns & _MASK64, lane, reqpos, t1_ns & _MASK64, epoch)
    ) or 1


_unsigned = st.integers(min_value=0, max_value=_MASK64)
_signed = st.integers(min_value=-(1 << 63), max_value=_MASK64)  # negatives and >= 2**63


class TestChecksumFolds:
    @settings(max_examples=500, deadline=None)
    @given(_unsigned, _signed, _unsigned, _signed, _signed)
    def test_slot_fold_matches_reference_loop(self, op, label, clock, t0_ns, t1_ns):
        assert slot_checksum(op, label, clock, t0_ns, t1_ns) == _reference_slot_checksum(
            op, label, clock, t0_ns, t1_ns
        )

    @settings(max_examples=500, deadline=None)
    @given(_unsigned, _signed, _unsigned, _signed, _unsigned, _unsigned, _signed, _unsigned)
    def test_journal_fold_matches_reference_loop(
        self, op, label, clock, t0_ns, lane, reqpos, t1_ns, epoch
    ):
        args = (op, label, clock, t0_ns, lane, reqpos, t1_ns, epoch)
        assert journal_checksum(*args) == _reference_journal_checksum(*args)

    def test_a_zero_fold_maps_to_one(self):
        # The last step is (h ^ v) * prime mod 2**64 with an odd prime,
        # so it is 0 exactly when v equals the running fold h.
        slot_head = (OP_INSERT, -5 & _MASK64, 7, (1 << 63) + 3)
        slot_args = (OP_INSERT, -5, 7, (1 << 63) + 3, _reference_fold(slot_head))
        assert _reference_fold(slot_head + (slot_args[-1],)) == 0
        assert slot_checksum(*slot_args) == 1 == _reference_slot_checksum(*slot_args)

        journal_head = (EV_INSERT, 9, 4, -2 & _MASK64, 1, 42, -1 & _MASK64)
        journal_args = (EV_INSERT, 9, 4, -2, 1, 42, -1, _reference_fold(journal_head))
        assert _reference_fold(journal_head + (journal_args[-1],)) == 0
        assert journal_checksum(*journal_args) == 1 == _reference_journal_checksum(*journal_args)
        other = (EV_DELETE, -7 & _MASK64, 5, 6, 0, 3, 8, 2)
        fields = np.array([journal_head + (journal_args[-1],), other], dtype=np.uint64)
        assert journal_checksums(fields).tolist() == [1, _reference_fold(other)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(_unsigned, _signed, _unsigned, _signed, _unsigned, _unsigned, _signed, _unsigned),
            max_size=20,
        )
    )
    def test_vectorized_journal_fold_matches_scalar(self, rows):
        fields = np.array(
            [[v & _MASK64 for v in row] for row in rows], dtype=np.uint64
        ).reshape(len(rows), 8)
        assert journal_checksums(fields).tolist() == [journal_checksum(*row) for row in rows]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_unsigned, _signed, _unsigned, _signed, _signed), max_size=20))
    def test_vectorized_slot_fold_matches_scalar(self, rows):
        fields = np.array(
            [[v & _MASK64 for v in row] for row in rows], dtype=np.uint64
        ).reshape(len(rows), 5)
        assert slot_checksums(fields).tolist() == [slot_checksum(*row) for row in rows]


# -- run decoding, position recovery and audit against scalar references -----


def _scalar_recover_positions(buf, offset, slot_size, capacity):
    """The per-slot census ``_recover_positions`` ran before it read the
    seqs in one strided copy (one scan; the rescan rule is unchanged)."""
    free_positions, committed_positions = [], []
    for i in range(capacity):
        (seq,) = struct.unpack_from("<Q", buf, offset + i * slot_size)
        if (seq - i) % capacity == 0:
            free_positions.append(seq)
        elif (seq - i - 1) % capacity == 0:
            committed_positions.append(seq - 1)
    if free_positions and committed_positions:
        assert min(free_positions) > max(committed_positions)  # a consistent ring
    if free_positions:
        head = min(free_positions)
    elif committed_positions:
        head = min(committed_positions) + capacity
    else:
        head = 0
    return head, min(committed_positions) if committed_positions else head


def _scalar_audit(ring):
    """The per-slot census ``SlotRing.audit`` ran before the run decoder."""
    committed = free = torn = 0
    for i in range(ring.capacity):
        seq, op, label, clock, t0_ns, t1_ns, checksum = SLOT.unpack_from(
            ring._buf, ring._slot_offset(i)
        )
        if (seq - i) % ring.capacity == 0:
            free += 1
        elif (seq - i - 1) % ring.capacity == 0:
            if checksum == slot_checksum(op, label, clock, t0_ns, t1_ns):
                committed += 1
            else:
                torn += 1
        else:
            torn += 1
    return RingAudit(capacity=ring.capacity, committed=committed, free=free, torn=torn)


def _random_ring(rng, cap, laps):
    """A request ring of ``cap`` slots after a random run of pushes and
    pops: empty, partial, wrapped or full.  Returns it and its true
    ``(head, tail)``."""
    buf = bytearray(SlotRing.region_size(cap))
    ring = SlotRing(buf, 0, cap, memoryview(buf).cast("Q"))
    ring.initialize()
    consumed = int(rng.integers(0, laps * cap + 1))
    pending = int(rng.choice([0, cap, rng.integers(0, cap + 1)]))
    for k in range(consumed + pending):
        assert ring.try_push(OP_INSERT, k, k, -k, k)
        if k < consumed:
            assert ring.try_pop()[1] == k
    return ring, (consumed + pending, consumed)


class TestVectorizedRings:
    @pytest.mark.parametrize("seed", range(40))
    def test_recover_matches_the_scalar_census(self, seed):
        rng = np.random.default_rng(seed)
        cap = int(rng.choice([2, 3, 5, 8, 16]))
        ring, truth = _random_ring(rng, cap, laps=3)
        got = shm._recover_positions(ring._buf, 0, SLOT.size, cap)
        assert got == _scalar_recover_positions(ring._buf, 0, SLOT.size, cap) == truth
        journal_buf = bytearray(JournalRing.region_size(cap))
        journal = JournalRing(journal_buf, 0, cap, memoryview(journal_buf).cast("Q"))
        journal.initialize()
        appended = int(rng.integers(0, 3 * cap))
        for k in range(appended):
            full = journal.head - journal.tail == cap
            if full or rng.random() < 0.3:
                journal.truncate_to(int(rng.integers(journal.tail + full, journal.head + 1)))
            assert journal.try_append(EV_INSERT, k, k, 0, 0, k, 0, 1)
        slots = journal._slot_offset(0)
        assert shm._recover_positions(journal_buf, slots, JSLOT.size, cap) == (
            _scalar_recover_positions(journal_buf, slots, JSLOT.size, cap)
        ) == (journal.head, journal.tail)

    @pytest.mark.parametrize("seed", range(40))
    def test_audit_matches_the_scalar_census(self, seed):
        rng = np.random.default_rng(seed)
        cap = int(rng.choice([2, 3, 5, 8, 16]))
        ring, _ = _random_ring(rng, cap, laps=2)
        for _ in range(int(rng.integers(0, 3))):  # tear payloads and seqs at random
            off = ring._slot_offset(int(rng.integers(0, cap)))
            ring._buf[off + int(rng.choice([0, 16, 48]))] ^= 0x5A
        assert ring.audit() == _scalar_audit(ring)

    def test_read_run_decodes_the_committed_prefix_up_to_the_ring_end(self):
        cap = 8
        buf = bytearray(SlotRing.region_size(cap))
        ring = SlotRing(buf, 0, cap, memoryview(buf).cast("Q"))
        ring.initialize()
        for k in range(6):
            assert ring.try_push(OP_INSERT, k, k, -k, k)
        for _ in range(6):
            ring.advance()
        for k in range(6, 11):  # positions 6..10 straddle the ring end
            assert ring.try_push(OP_DELETE, -k, k, -k, k)
        first = ring.read_run(6, 64)
        assert first.view(np.int64)[:, :6].tolist() == [
            [k + 1, OP_DELETE, -k, k, -k, k] for k in (6, 7)
        ]
        assert ring.read_run(8, 2)[:, 0].tolist() == [9, 10]  # limit honoured
        assert len(ring.read_run(11, 64)) == 0  # nothing committed there
        buf[ring._slot_offset(9) + 16] ^= 0xFF  # label of position 9
        with pytest.raises(TornSlotError, match="position 9 ") as info:
            ring.read_run(8, 64)
        assert info.value.pos == 9


# -- single-store seq and epoch words ----------------------------------------


class _LoggedBuffer(bytearray):
    """A bytearray that records every slice store (buffer-protocol writes
    such as ``struct.pack_into`` bypass ``__setitem__``)."""

    def __init__(self, size):
        super().__init__(size)
        self.stores = []

    def __setitem__(self, key, value):
        self.stores.append((key, bytes(value)))
        super().__setitem__(key, value)


class _LoggedWords:
    """A native-u64 view of a buffer that records every word store."""

    def __init__(self, buf):
        self._view = memoryview(buf).cast("Q")
        self.stores = []

    def __getitem__(self, index):
        return self._view[index]

    def __setitem__(self, index, value):
        self.stores.append((index, value))
        self._view[index] = value


def _word(buf, offset):
    return struct.unpack_from("<Q", buf, offset)[0]


class TestSingleStoreWords:
    """After ``initialize``, every change to a slot ``seq`` or header
    word arrives as one 8-byte word store: never ``pack_into`` (it
    zero-fills first, so a racing reader could read the word as 0) and
    never a slice store (``memcpy`` may store the word twice, and a late
    second store can revert the other side's turn)."""

    def _check(self, buf, words, offsets, action):
        before = {o: _word(buf, o) for o in offsets}
        buf.stores.clear()
        words.stores.clear()
        action()
        for o in offsets:
            after = _word(buf, o)
            if after != before[o]:
                assert (o >> 3, after) in words.stores, (o, words.stores)
        assert {i for i, _ in words.stores} <= {o >> 3 for o in offsets}
        for key, _value in buf.stores:
            assert not [o for o in offsets if key.start < o + 8 and o < key.stop], key

    def test_slot_ring_claim_commit_and_recycle(self):
        cap = 4
        buf = _LoggedBuffer(SlotRing.region_size(cap))
        words = _LoggedWords(buf)
        ring = SlotRing(buf, 0, cap, words)
        ring.initialize()
        offsets = [i * SLOT.size for i in range(cap)]
        for k in range(3 * cap):  # wraps the ring several times
            self._check(buf, words, offsets, lambda: ring.try_push(OP_INSERT, -k, k, -k, k))
            self._check(buf, words, offsets, ring.try_peek)
            self._check(buf, words, offsets, ring.advance)
        assert len(words.stores) == 1 and ring.audit().ok

    def test_journal_append_and_truncate(self):
        cap = 4
        buf = _LoggedBuffer(JournalRing.region_size(cap))
        words = _LoggedWords(buf)
        journal = JournalRing(buf, 0, cap, words)
        journal.initialize()
        offsets = [journal._slot_offset(i) for i in range(cap)]
        for k in range(3 * cap):
            self._check(
                buf, words, offsets,
                lambda: journal.try_append(EV_INSERT, k, k, -k, 0, k, -k, 1, fence=lambda: False),
            )
            self._check(buf, words, offsets, lambda: journal.truncate_to(journal.head))
        assert journal.audit().ok

    def test_header_epoch_bump(self):
        buf = _LoggedBuffer(ShardHeader.region_size())
        words = _LoggedWords(buf)
        header = ShardHeader(buf, 0, words)
        header.initialize()
        offsets = list(range(0, ShardHeader.region_size(), 8))  # epoch, seqlock, fields
        for k in range(3):
            self._check(buf, words, offsets, header.bump_epoch)
            self._check(buf, words, offsets, lambda: header.publish(k, k, k + 1))
        assert header.read() == (3, 2, 2, 3)

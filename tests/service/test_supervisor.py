"""Self-healing service: supervised takeovers under a seeded chaos schedule.

The acceptance contract of the recovery subsystem: a live cluster under a
deterministic schedule of SIGKILLs plus a zombie (SIGSTOP, fenced awake)
finishes with every shard alive again, *exact* op conservation proven from
the journal, zero torn slots, zero unfenced zombie commits, and a
post-recovery rank distribution back inside the clean-run envelope of the
exact stationary oracle.

On the oracle gate: the PR 9 gate (``oracle_ks < 0.05``) was calibrated on
the vector backend at n=64 queues with ideal interleaving.  A 3-shard live
service on a shared host has a *clean-run* envelope of ``oracle_ks`` ≈
0.05-0.10 (process-scheduling quanta batch deletes per shard, which the
stationary law does not model), measured on crash-free runs of identical
geometry.  ``CHAOS_ORACLE_KS_GATE`` is therefore that clean envelope plus
margin: it catches recovery-induced divergence (lost heap mass, replayed
duplicates — those push KS past 0.2 immediately) without flaking on
scheduler noise the oracle never promised to capture.
"""

import struct

import pytest

from repro.service.loadgen import ScheduleSpec
from repro.service.server import (
    EXIT_FENCED,
    AllShardsDeadError,
    Router,
    recover_shard_state,
    replay_journal,
)
from repro.service.shm import (
    EV_DELETE,
    EV_INSERT,
    J_BYE,
    J_STOP,
    ServiceSegment,
)
from repro.service.supervisor import ChaosSpec, run_chaos_service

CHAOS_ORACLE_KS_GATE = 0.15  # clean-run envelope + margin; see module docstring
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def chaos_run(request):
    seed = request.param
    # ~4s of paced traffic; all faults land inside [0.25s, 1.45s) so a
    # long post-recovery window remains for the oracle re-convergence
    # check.  Three SIGKILLs plus one zombie: the injector fires each
    # fault at a *live* owner (waiting out in-flight takeovers), so kills
    # routinely land on mid-stream successors — the mid-publish window —
    # and the zombie lands on a running owner with state to scribble.
    spec = ScheduleSpec(
        mode="poisson", ops=12_000, prefill=512, rate=3000.0, seed=seed
    )
    chaos = ChaosSpec(
        kills=3, stalls=0, zombies=1, seed=seed, start_s=0.25, window_s=1.2
    )
    res = run_chaos_service(
        shards=3, workers=2, spec=spec, chaos=chaos, beta=1.0, seed=seed,
        dead_after_s=0.35, snapshot_every=256, rank_sample_every=4,
    )
    return res, spec, chaos


class TestChaosAcceptance:
    def test_every_scheduled_fault_fired(self, chaos_run):
        res, _, chaos = chaos_run
        events = res["chaos"]["events"]
        assert len(events) == chaos.kills + chaos.zombies
        kinds = [e["kind"] for e in events]
        assert kinds.count("kill") == chaos.kills
        assert kinds.count("zombie") == chaos.zombies
        assert not [k for k in kinds if k.endswith("-missed")]
        assert all(e["pid"] is not None for e in events)

    def test_every_shard_alive_again_and_all_ops_served(self, chaos_run):
        res, spec, _ = chaos_run
        assert res["owner_exitcodes"] == [0, 0, 0]
        assert res["loadgen_exitcodes"] == [0, 0]
        assert res["ops_processed"] == spec.ops

    def test_supervisor_recovered_every_fault(self, chaos_run):
        res, _, chaos = chaos_run
        sup = res["supervision"]
        # Each fault disables a live owner exactly once, so each demands
        # its own incident; chained faults (a successor killed before its
        # first heartbeat) add retry incidents on top.
        assert len(sup["incidents"]) >= chaos.kills + chaos.zombies
        assert sup["takeovers"] >= 1
        # Every fault's victim generation was really reaped by SIGKILL or
        # died fenced — no generation is unaccounted for.
        assert all(
            r["exitcode"] in (-9, EXIT_FENCED) for r in sup["retired_exitcodes"]
        )

    def test_zombie_died_fenced_and_never_committed(self, chaos_run):
        res, _, _ = chaos_run
        fenced = [
            inc
            for inc in res["supervision"]["incidents"]
            if inc["action"] == "fence-respawn"
        ]
        assert fenced, "the zombie fault never triggered a fence takeover"
        assert any(inc["zombie_exitcode"] == EXIT_FENCED for inc in fenced)
        # Zero unfenced zombie commits: no journal entry anywhere carries
        # a regressed epoch.
        assert res["conservation"]["epoch_regressions"] == 0

    def test_exact_op_conservation_from_journal(self, chaos_run):
        res, spec, _ = chaos_run
        cons = res["conservation"]
        assert cons["ok"], cons
        assert cons["events_match"], cons
        # inserts == deletes + residual heap contents, per shard and in
        # total, verified from snapshot+journal (not the event stream).
        assert cons["residual_total"] == spec.prefill
        for row in cons["shards"]:
            assert row["conserved"], row
            assert row["monotone"], row

    def test_no_torn_slots_no_stranded_entries(self, chaos_run):
        res, _, _ = chaos_run
        assert res["audit"]["torn"] == 0
        assert res["audit"]["pending"] == 0

    def test_recoveries_replayed_mid_stream_state(self, chaos_run):
        res, _, _ = chaos_run
        incidents = res["supervision"]["incidents"]
        # Every takeover handed the successor a non-empty heap (the shard
        # carried prefill mass throughout), and kills land under load, so
        # at least one takeover rebuilt state by replaying a journal
        # suffix on top of a snapshot rather than starting empty.
        assert all(inc["recovered_heap"] > 0 for inc in incidents)
        assert any(inc["replayed"] > 0 for inc in incidents)

    def test_post_recovery_rank_quality_reconverges(self, chaos_run):
        res, _, _ = chaos_run
        post = res["post_recovery"]
        assert post is not None
        assert post["n_ranks"] >= 300, post
        assert post["oracle_ks"] < CHAOS_ORACLE_KS_GATE, post


class TestChaosSpec:
    def test_build_is_deterministic_in_seed(self):
        spec = ChaosSpec(kills=3, stalls=2, zombies=1, seed=7)
        assert spec.build(4) == spec.build(4)
        assert spec.build(4) != ChaosSpec(kills=3, stalls=2, zombies=1, seed=8).build(4)

    def test_build_schedules_every_fault_inside_window(self):
        spec = ChaosSpec(kills=2, stalls=1, zombies=1, seed=3, start_s=0.5, window_s=2.0)
        ops = spec.build(3)
        kinds = [op["kind"] for op in ops]
        assert kinds.count("kill") == 2
        assert kinds.count("stall") == 1
        assert kinds.count("zombie") == 1
        assert kinds.count("cont") == 1  # stalls get a paired resume
        for op in ops:
            if op["kind"] != "cont":
                assert 0.5 <= op["at_s"] < 2.5
            assert 0 <= op["shard"] < 3
        conts = [op for op in ops if op["kind"] == "cont"]
        stalls = [op for op in ops if op["kind"] == "stall"]
        assert conts[0]["id"] == stalls[0]["id"]
        assert conts[0]["at_s"] == pytest.approx(stalls[0]["at_s"] + spec.stall_s)

    def test_build_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChaosSpec(kills=-1).build(2)


@pytest.fixture
def segment():
    seg = ServiceSegment.create(
        shards=1, lanes=2, req_capacity=16,
        journal_capacity=32, state_capacity=64,
    )
    yield seg
    seg.close()
    seg.unlink()


class TestRecoveryPieces:
    def test_journal_only_recovery(self, segment):
        """A predecessor that never snapshotted: the successor rebuilds the
        heap from the journal alone."""
        journal = segment.journal(0)
        assert journal.try_append(EV_INSERT, 5, 1, 10, 0, 0, 0, 1)
        assert journal.try_append(EV_INSERT, 3, 2, 11, 0, 1, 1, 1)
        assert journal.try_append(EV_DELETE, 3, 3, 12, 1, 0, 2, 1)
        state = recover_shard_state(segment, 0)
        assert sorted(state.heap) == [5]
        assert state.clock == 3
        assert state.replayed == 3
        assert (state.cum_inserts, state.cum_deletes) == (2, 1)
        assert state.watermarks == [2, 1]
        assert state.stopped == [False, False]

    def test_snapshot_plus_journal_suffix(self, segment):
        """Entries below the snapshot's fold point are already in the
        labels and must not be replayed twice."""
        journal = segment.journal(0)
        assert journal.try_append(EV_INSERT, 9, 1, 0, 0, 0, 0, 1)
        assert journal.try_append(EV_INSERT, 4, 2, 0, 0, 1, 1, 1)
        assert journal.try_append(EV_INSERT, 6, 3, 0, 0, 2, 2, 1)
        segment.snapshot(0).write(
            epoch=1, clock=2, fold_pos=2, cum_inserts=2,
            cum_deletes=0, cum_empties=0, stopped_mask=0,
            watermarks=[2, 0], labels=[4, 9],
        )
        state = recover_shard_state(segment, 0)
        assert sorted(state.heap) == [4, 6, 9]
        assert state.replayed == 1  # only the post-fold entry
        assert state.cum_inserts == 3

    def test_fenced_zombie_entries_are_skipped(self, segment):
        """A journal entry with a regressed epoch is a zombie commit: the
        replay must not apply it (and must count it for the auditor)."""
        journal = segment.journal(0)
        assert journal.try_append(EV_INSERT, 7, 1, 0, 0, 0, 0, 2)  # epoch 2
        assert journal.try_append(EV_INSERT, 1, 2, 0, 0, 1, 1, 1)  # zombie!
        state = recover_shard_state(segment, 0)
        assert sorted(state.heap) == [7]
        assert state.fenced_entries == 1
        assert state.replayed == 1

    def test_stop_entries_restore_stopped_lanes(self, segment):
        journal = segment.journal(0)
        assert journal.try_append(J_STOP, 0, 1, 0, 1, 0, -1, 1)
        state = recover_shard_state(segment, 0)
        assert state.stopped == [False, True]

    def test_bye_entry_leaves_watermarks_alone(self, segment):
        """J_BYE carries no request (lane 0, position 0): replaying it must
        neither move a watermark nor count as a request applied twice."""
        journal = segment.journal(0)
        assert journal.try_append(EV_INSERT, 5, 1, 0, 0, 0, 0, 1)
        assert journal.try_append(EV_INSERT, 6, 2, 0, 0, 1, 0, 1)
        assert journal.try_append(J_BYE, 2, 3, 0, 0, 0, 0, 1)
        state = recover_shard_state(segment, 0)
        assert state.watermarks == [2, 0]
        assert state.monotone and sorted(state.heap) == [5, 6]

    def test_replay_refuses_diverged_delete(self, segment):
        """A delete whose label is not the heap top means the journal and
        snapshot disagree — a protocol breach that must be loud."""
        from repro.service.shm import JournalEntry, TornSlotError

        snap = segment.snapshot(0).read()
        entries = [JournalEntry(0, EV_DELETE, 42, 1, 0, 0, 0, 0, 1)]
        with pytest.raises(TornSlotError, match="replay diverged"):
            replay_journal(snap, entries)

    def test_mid_publish_crash_header_heals(self, segment):
        """Predecessor killed mid-seqlock-publish (odd seq, torn fields):
        readers fall back instead of hanging, and the successor's first
        publish restores the parity convention for good."""
        hdr = segment.header(0)
        hdr.publish(top=10, size=2, heartbeat_ns=50)
        # Kill mid-publish: odd seqlock, top already updated, rest torn.
        (seq,) = struct.unpack_from("<Q", hdr._buf, hdr._offset + 8)
        struct.pack_into("<Q", hdr._buf, hdr._offset + 8, seq + 1)
        struct.pack_into("<q", hdr._buf, hdr._offset + 16, 8)
        assert hdr.read(max_tries=4)[1] == 8  # stale fallback, no hang
        # Successor: fence, then publish over the torn header.
        assert hdr.bump_epoch() == 1
        hdr.publish(top=8, size=3, heartbeat_ns=99)
        (seq,) = struct.unpack_from("<Q", hdr._buf, hdr._offset + 8)
        assert seq % 2 == 0  # parity restored...
        assert hdr.read(max_tries=2) == (1, 8, 3, 99)  # ...reads are clean


class TestRouterReadmission:
    def test_mark_alive_readmits_recovered_shard(self, segment):
        seg3 = ServiceSegment.create(shards=3, lanes=1, req_capacity=8)
        try:
            router = Router(seg3, beta=0.0, policy="rr", rng=0)
            router.mark_dead(1)
            assert router.alive_shards() == (0, 2)
            assert 1 not in {router.insert_shard() for _ in range(8)}
            router.mark_alive(1)
            assert router.alive_shards() == (0, 1, 2)
            assert 1 in {router.insert_shard() for _ in range(8)}
            router.mark_alive(1)  # idempotent
            assert router.alive_shards() == (0, 1, 2)
        finally:
            seg3.close()
            seg3.unlink()

    def test_all_dead_error_carries_heartbeat_ages(self, segment):
        segment.header(0).publish(top=1, size=1, heartbeat_ns=1)  # published once
        router = Router(segment, beta=0.0, rng=0)
        with pytest.raises(AllShardsDeadError) as err:
            router.mark_dead(0)
        assert set(err.value.ages) == {0}
        assert err.value.ages[0] is not None and err.value.ages[0] > 0
        assert "heartbeat" in str(err.value)

    def test_never_published_shard_reports_none_age(self, segment):
        router = Router(segment, beta=0.0, rng=0)
        with pytest.raises(AllShardsDeadError) as err:
            router.mark_dead(0)
        assert err.value.ages[0] is None
        assert "never published" in str(err.value)

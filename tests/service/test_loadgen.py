"""Arrival-schedule construction (modes, determinism, striping) and the worker push loop."""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import loadgen
from repro.service.loadgen import ArrivalSchedule, ScheduleSpec
from repro.service.server import Router
from repro.service.shm import OP_DELETE, OP_INSERT, ServiceSegment, SlotRing, slot_checksum


class TestSpecValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown arrival mode"):
            ScheduleSpec(mode="warp")

    def test_trace_requires_path(self):
        with pytest.raises(ValueError, match="requires trace_path"):
            ScheduleSpec(mode="trace")

    def test_bursty_requires_rate(self):
        with pytest.raises(ValueError, match="requires a positive rate"):
            ScheduleSpec(mode="onoff", rate=0.0)

    def test_bad_burst_factor(self):
        with pytest.raises(ValueError, match="burst_factor"):
            ScheduleSpec(mode="diurnal", rate=10.0, burst_factor=1.0)

    def test_bad_burst_factor_onoff(self):
        with pytest.raises(ValueError, match="burst_factor"):
            ScheduleSpec(mode="onoff", rate=10.0, burst_factor=0.5)

    @pytest.mark.parametrize("mode", ["poisson", "trace"])
    def test_burst_factor_ignored_outside_bursty_modes(self, mode, tmp_path):
        """Regression: modes that never read burst_factor must not reject it.

        A trace replayed through the default spec (burst_factor unset by the
        caller, or <= 1 from a sweep grid) used to explode in __post_init__
        even though poisson/trace schedules ignore the field entirely.
        """
        kwargs = {"mode": mode, "ops": 10, "burst_factor": 1.0}
        if mode == "trace":
            trace = tmp_path / "arrivals.txt"
            trace.write_text("0.0\n0.001\n")
            kwargs["trace_path"] = str(trace)
        spec = ScheduleSpec(**kwargs)
        assert spec.build().ops == 10


class TestModes:
    def test_max_speed_is_all_zero(self):
        sched = ScheduleSpec(mode="poisson", ops=100, rate=0.0, seed=1).build()
        assert (sched.times_ns == 0).all()

    def test_poisson_rate_is_respected(self):
        sched = ScheduleSpec(mode="poisson", ops=20_000, rate=1000.0, seed=2).build()
        assert (np.diff(sched.times_ns) >= 0).all()
        # 20k arrivals at 1k/s should span ~20s.
        assert sched.span_s == pytest.approx(20.0, rel=0.1)

    def test_onoff_bursts(self):
        spec = ScheduleSpec(
            mode="onoff", ops=40_000, rate=1000.0, seed=3,
            on_s=0.5, off_s=0.5, burst_factor=8.0,
        )
        sched = spec.build()
        t = sched.times_ns / 1e9
        assert (np.diff(t) >= 0).all()
        phase = t % (spec.on_s + spec.off_s)
        on_count = int((phase < spec.on_s).sum())
        off_count = sched.ops - on_count
        # ON intensity is burst_factor^2 times OFF intensity.
        assert on_count > 10 * off_count

    def test_diurnal_wave(self):
        spec = ScheduleSpec(mode="diurnal", ops=40_000, rate=2000.0, seed=4, period_s=4.0)
        sched = spec.build()
        t = sched.times_ns / 1e9
        assert (np.diff(t) >= 0).all()
        # Rising half-period draws more arrivals than the falling one.
        phase = t % spec.period_s
        first_half = int((phase < spec.period_s / 2).sum())
        assert first_half > 1.3 * (sched.ops - first_half)

    def test_trace_mode_replays_and_tiles(self, tmp_path):
        trace = tmp_path / "arrivals.txt"
        trace.write_text("# burst of three\n0.0\n0.001\n0.002\n")
        spec = ScheduleSpec(mode="trace", ops=9, trace_path=str(trace))
        sched = spec.build()
        assert sched.ops == 9
        assert (np.diff(sched.times_ns) >= 0).all()
        # The 3-arrival burst shape repeats three times.
        gaps = np.diff(sched.times_ns / 1e9)
        assert gaps[[0, 1, 3, 4, 6, 7]] == pytest.approx(0.001, rel=0.01)

    def test_empty_trace_rejected(self, tmp_path):
        trace = tmp_path / "empty.txt"
        trace.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no arrival times"):
            ScheduleSpec(mode="trace", ops=4, trace_path=str(trace)).build()


class TestDeterminismAndStriping:
    def test_rebuild_is_byte_identical(self):
        spec = ScheduleSpec(mode="onoff", ops=5000, prefill=512, rate=500.0, seed=42)
        a, b = spec.build(), spec.build()
        assert a.times_ns.tobytes() == b.times_ns.tobytes()
        assert a.insert_labels.tobytes() == b.insert_labels.tobytes()
        assert a.prefill_labels.tobytes() == b.prefill_labels.tobytes()

    def test_seed_changes_schedule(self):
        base = ScheduleSpec(mode="poisson", ops=1000, rate=100.0, seed=1).build()
        other = ScheduleSpec(mode="poisson", ops=1000, rate=100.0, seed=2).build()
        assert base.times_ns.tobytes() != other.times_ns.tobytes()

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 7])
    def test_stripes_partition_the_schedule(self, n_workers):
        sched = ScheduleSpec(mode="poisson", ops=1001, rate=0.0, seed=5).build()
        stripes = [sched.stripe(w, n_workers) for w in range(n_workers)]
        merged = np.sort(np.concatenate(stripes))
        assert (merged == np.arange(sched.ops)).all()

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
    def test_every_stripe_alternates_insert_delete(self, n_workers):
        """Workers own insert/delete pairs, so each stripe runs the
        schedule's alternation and no worker only inserts or only deletes."""
        sched = ScheduleSpec(mode="poisson", ops=1001, rate=0.0, seed=5).build()
        for w in range(n_workers):
            stripe = sched.stripe(w, n_workers)
            assert (np.diff(stripe) > 0).all()
            kinds = sched.ops_columns(stripe)[0]
            assert (kinds[0::2] == OP_INSERT).all()
            assert (kinds[1::2] == OP_DELETE).all()
        assert (sched.stripe(0, 1) == np.arange(sched.ops)).all()

    def test_schedule_independent_of_worker_count(self):
        """The offered traffic (op -> time, label) never depends on n_workers.

        Striping only selects *who* sends an op; rebuilding the schedule
        under any worker count yields the same global op table.
        """
        spec = ScheduleSpec(mode="diurnal", ops=2000, prefill=64, rate=800.0, seed=9)
        table = [spec.build().op(g) for g in range(spec.ops)]
        again = [spec.build().op(g) for g in range(spec.ops)]
        assert table == again

    def test_labels_are_a_compact_permutation(self):
        sched = ScheduleSpec(mode="poisson", ops=101, prefill=50, rate=0.0, seed=6).build()
        allocated = np.concatenate([sched.prefill_labels, sched.insert_labels])
        assert sorted(allocated.tolist()) == list(range(sched.label_universe))
        assert sched.n_inserts == 51  # ceil(101 / 2)

    def test_ops_alternate_insert_delete(self):
        sched = ScheduleSpec(mode="poisson", ops=6, rate=0.0, seed=0).build()
        kinds = [sched.op(g)[0] for g in range(6)]
        assert kinds == [OP_INSERT, OP_DELETE] * 3
        assert sched.op(1)[1] == -1  # deletes carry no label

    def test_stripe_bounds_checked(self):
        sched = ScheduleSpec(ops=10, seed=0).build()
        with pytest.raises(ValueError):
            sched.stripe(2, 2)


class TestLoadgenLoop:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_ops_block_matches_op(self, n_workers):
        sched = ScheduleSpec(mode="poisson", ops=1001, prefill=16, rate=500.0, seed=4).build()
        for w in range(n_workers):
            stripe = sched.stripe(w, n_workers)
            ops, labels, offsets = (col.tolist() for col in sched.ops_columns(stripe))
            assert list(zip(ops, labels, offsets)) == [sched.op(int(g)) for g in stripe]
            assert all(type(v) is int for v in ops + labels + offsets)

    def test_push_succeeding_first_time_reads_no_clock(self, monkeypatch):
        reads = []
        monkeypatch.setattr(loadgen.time, "monotonic", lambda: reads.append(1) or 0.0)
        ring = SimpleNamespace(try_push=lambda *args: True)
        shard = loadgen._push_with_failover(
            None, None, OP_INSERT, 7, 1, 0, [ring], lambda: 0, 1, 1.0, 0
        )
        assert shard == 0 and reads == []

    def test_full_ring_with_stale_owner_fails_over(self):
        seg = ServiceSegment.create(shards=2, lanes=1, req_capacity=4, journal_capacity=8)
        try:
            seg.header(0).publish(top=1, size=1, heartbeat_ns=1)  # long stale
            seg.header(1).publish(top=1, size=1, heartbeat_ns=time.monotonic_ns())
            rings = [seg.request_ring(s, 0) for s in range(2)]
            while rings[0].try_push(OP_INSERT, 1):
                pass
            router = Router(seg, beta=1.0, rng=0)
            picks = iter([0, 1])
            headers = [seg.header(s) for s in range(2)]
            shard = loadgen._push_with_failover(
                headers, router, OP_INSERT, 5, 1, 0, rings, lambda: next(picks),
                loadgen._NS, 1.0, time.monotonic_ns(),
            )
            assert shard == 1 and router.alive_shards() == (1,)
            assert rings[1].try_pop()[:2] == (OP_INSERT, 5)
        finally:
            seg.close()
            seg.unlink()


_block = st.lists(
    st.tuples(
        st.sampled_from([OP_INSERT, OP_DELETE]),
        st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),  # labels, -1 included
        st.integers(min_value=0, max_value=(1 << 63) - 1),  # intended start ns
    ),
    min_size=1,
    max_size=40,
)


class TestBlockFold:
    """The loadgen folds a block's slot checksums at once; every push
    must still carry exactly :func:`slot_checksum` of its payload."""

    @settings(max_examples=300, deadline=None)
    @given(_block, st.integers(min_value=1, max_value=(1 << 62)))
    def test_equals_the_scalar_fold_per_op(self, block, first_clock):
        ops, labels, t0s = (list(column) for column in zip(*block))
        got = loadgen.block_checksums(ops, labels, first_clock, t0s)
        want = [
            slot_checksum(op, label, first_clock + i, t0, 0)
            for i, (op, label, t0) in enumerate(block)
        ]
        assert got == want

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=1 << 61))
    def test_consecutive_blocks_continue_the_clock(self, size, start_ns):
        sched = ScheduleSpec(mode="poisson", ops=40, prefill=4, rate=1e4, seed=size).build()
        stripe = sched.stripe(0, 1)
        sums = []
        for b in range(0, len(stripe), size):  # the run_loadgen loop, one fold per block
            ops, labels, offsets = sched.ops_columns(stripe[b : b + size])
            sums += loadgen.block_checksums(ops, labels, b + 1, offsets + start_ns)
        want = []
        for clock, g in enumerate(stripe.tolist(), start=1):
            op, label, offset = sched.op(g)
            want.append(slot_checksum(op, label, clock, start_ns + offset, 0))
        assert sums == want


def _plain_try_push(monkeypatch):
    """Replace ``SlotRing.try_push`` with a wrapper of the plain field
    signature, as an instrumenting tracer does."""
    real = SlotRing.try_push

    def push(self, op, label, clock=0, t0_ns=0, t1_ns=0):
        return real(self, op, label, clock, t0_ns, t1_ns)

    monkeypatch.setattr(SlotRing, "try_push", push)


class TestLoadgenStripe:
    """A real ``run_loadgen`` stripe, in process, into lanes with no owner."""

    @pytest.mark.parametrize("block", [loadgen.STRIPE_BLOCK, 97])
    @pytest.mark.parametrize("plain", [False, True], ids=["sealed", "plain-try-push"])
    def test_every_slot_decodes_to_its_scheduled_op(self, monkeypatch, block, plain):
        monkeypatch.setattr(loadgen, "STRIPE_BLOCK", block)
        if plain:
            _plain_try_push(monkeypatch)
        spec = ScheduleSpec(mode="poisson", ops=1500, prefill=16, rate=2e9, seed=3)
        sched = spec.build()
        n_workers, worker = 2, 1
        seg = ServiceSegment.create(shards=2, lanes=n_workers + 1, req_capacity=1024, journal_capacity=8)
        try:
            start_ns = 5 << 40  # long past, so nothing waits
            offered = loadgen.run_loadgen(
                seg.name, worker, n_workers, spec, start_ns, beta=1.0, dead_after_s=600.0,
            )
            stripe = sched.stripe(worker, n_workers).tolist()
            assert offered == len(stripe)
            pushed = {}
            for shard in range(seg.shards):
                run = seg.request_ring(shard, worker).read_run(0, 1024)  # checks every checksum
                for _seq, op, label, clock, t0, t1, _sum in run.view(np.int64).tolist():
                    assert t1 == 0
                    pushed[clock] = (op, label, t0 - start_ns)
            assert sorted(pushed) == list(range(1, len(stripe) + 1))
            assert [pushed[c] for c in range(1, len(stripe) + 1)] == [sched.op(g) for g in stripe]
        finally:
            seg.close()
            seg.unlink()

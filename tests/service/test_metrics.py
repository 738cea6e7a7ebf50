"""Vectorized event merge / rank replay vs their per-event references.

The vectorized paths in ``repro.service.metrics`` must be *drop-in*
replacements: byte-identical outputs on any valid stream, including
cross-shard Lamport-clock ties and EV_EMPTY noise.
"""

import numpy as np
import pytest

from repro.analysis.exact import oracle_row
from repro.core.rank import RankOracle
from repro.service import metrics
from repro.service.loadgen import ScheduleSpec
from repro.service.metrics import merge_events, replay_ranks, replay_ranks_reference
from repro.service.server import run_service
from repro.service.shm import EV_DELETE, EV_EMPTY, EV_INSERT
from repro.service.supervisor import ChaosSpec


def merge_events_reference(events_by_shard):
    """The old per-row merge loop, kept inline as the executable spec."""
    rows = []
    for shard, events in enumerate(events_by_shard):
        for ev, label, clock, t0, t1 in events:
            rows.append((shard, ev, label, clock, t0, t1))
    if not rows:
        return np.empty((0, 6), dtype=np.int64)
    arr = np.asarray(rows, dtype=np.int64)
    order = np.lexsort((arr[:, 0], arr[:, 3]))
    return arr[order]


def random_stream(seed, n_shards=4, n_ops=3000, tie_width=3, empty_rate=0.05):
    """A valid multi-shard stream: global linearization with clock ties.

    Ops are generated in one global order (every delete removes a label
    already present), then scattered to shards; ``tie_width`` consecutive
    ops share a Lamport clock, with shard ids ascending inside each tie
    group so the merged ``(clock, shard)`` order reproduces the
    generation order and the replay references stay valid.
    """
    rng = np.random.default_rng(seed)
    events_by_shard = [[] for _ in range(n_shards)]
    present = []
    next_label = 0
    g = 0
    while g < n_ops:
        group = min(tie_width, n_ops - g)
        clock = g // tie_width
        shards = np.sort(rng.integers(n_shards, size=group))
        for shard in shards:
            r = rng.random()
            if r < empty_rate:
                ev, label = EV_EMPTY, -1
            elif present and rng.random() < 0.5:
                ev = EV_DELETE
                label = present.pop(rng.integers(len(present)))
            else:
                ev, label = EV_INSERT, next_label
                present.append(next_label)
                next_label += 1
            t0 = 0 if rng.random() < 0.2 else int(rng.integers(1, 10**9))
            t1 = t0 + int(rng.integers(0, 10**6))
            events_by_shard[shard].append((ev, label, clock, t0, t1))
            g += 1
    return events_by_shard, next_label


class TestMergeEvents:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_byte_identical_to_reference(self, seed):
        events, _ = random_stream(seed)
        fast = merge_events(events)
        slow = merge_events_reference(events)
        assert fast.dtype == slow.dtype == np.int64
        assert fast.tobytes() == slow.tobytes()

    def test_empty_and_partially_empty(self):
        assert merge_events([]).shape == (0, 6)
        assert merge_events([[], []]).shape == (0, 6)
        events = [[], [(EV_INSERT, 0, 1, 0, 5)], []]
        fast = merge_events(events)
        assert fast.tobytes() == merge_events_reference(events).tobytes()
        assert fast[0, 0] == 1  # shard ids survive empty predecessors


class TestReplayRanks:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("sample_every", [1, 7, 16])
    def test_byte_identical_to_reference(self, seed, sample_every):
        events, universe = random_stream(seed)
        merged = merge_events(events)
        fast = replay_ranks(merged, universe, sample_every)
        slow = replay_ranks_reference(merged, universe, sample_every)
        assert fast.dtype == slow.dtype == np.int64
        assert fast.tobytes() == slow.tobytes()

    def test_many_chunks(self):
        # A stream several times the minimum chunk size crosses chunk
        # boundaries; ranks must still match the one-event-at-a-time spec.
        events, universe = random_stream(9, n_shards=2, n_ops=6000, tie_width=1)
        merged = merge_events(events)
        fast = replay_ranks(merged, universe, 4)
        slow = replay_ranks_reference(merged, universe, 4)
        assert fast.tobytes() == slow.tobytes()

    def test_empty_stream(self):
        merged = np.empty((0, 6), dtype=np.int64)
        assert replay_ranks(merged, 8).size == 0

    def test_bad_sample_every(self):
        merged = np.empty((0, 6), dtype=np.int64)
        with pytest.raises(ValueError, match="sample_every"):
            replay_ranks(merged, 8, 0)

    def test_label_outside_universe(self):
        events = [[(EV_INSERT, 5, 0, 0, 1)]]
        with pytest.raises(ValueError, match="label universe"):
            replay_ranks(merge_events(events), 4)

    def test_rank_is_one_based_global_minimum(self):
        # Insert 3 labels, delete the smallest: rank 1.  Delete the
        # largest of the remaining two: rank 2.
        events = [
            [
                (EV_INSERT, 2, 0, 0, 1),
                (EV_INSERT, 0, 1, 0, 1),
                (EV_INSERT, 1, 2, 0, 1),
                (EV_DELETE, 0, 3, 0, 1),
                (EV_DELETE, 2, 4, 0, 1),
            ]
        ]
        ranks = replay_ranks(merge_events(events), 3, sample_every=1)
        assert ranks.tolist() == [1, 2]


class TestHeapDrift:
    def test_peak_counts_empty_deletes_as_deletes(self):
        # Prefill labels 0 and 1, then insert, empty delete, insert,
        # delete, empty delete, insert.  Drift net of prefill after each
        # event: -1 0 | 1 0 1 0 -1 0; it would peak at 2 if the empty
        # deletes were not counted.
        schedule = ScheduleSpec(ops=6, prefill=2, seed=0).build()
        events = [
            [
                (EV_INSERT, 0, 1, 0, 1),
                (EV_INSERT, 1, 2, 0, 1),
                (EV_INSERT, 2, 3, 5, 6),
                (EV_EMPTY, -1, 4, 5, 6),
                (EV_INSERT, 3, 5, 5, 6),
                (EV_DELETE, 0, 6, 5, 6),
                (EV_EMPTY, -1, 7, 5, 6),
                (EV_INSERT, 4, 8, 5, 6),
            ]
        ]
        assert metrics.summarize(events, schedule, wall_s=1.0)["heap_drift_peak"] == 1


def ranks_after_reference(merged, label_universe, after_t1_ns):
    """The per-event loop that scored post-recovery deletes before
    ``run_service`` reused ``replay_ranks``: the rank of every delete
    completed after ``after_t1_ns``, replaying the whole stream."""
    oracle = RankOracle(label_universe)
    ranks = []
    for row in merged:
        ev, label = int(row[1]), int(row[2])
        if ev == EV_INSERT:
            oracle.insert(label)
        elif ev == EV_DELETE:
            rank = oracle.remove(label)
            if int(row[5]) > after_t1_ns:
                ranks.append(rank)
    return np.asarray(ranks, dtype=np.int64)


class TestPostRecoveryRanks:
    def test_block_matches_the_old_per_event_loop(self, monkeypatch):
        # Record the merged stream of a supervised run with one kill,
        # then score it the old way at the run's own takeover time.
        recorded = {}
        summarize = metrics.summarize

        def recording(events_by_shard, schedule, *args, **kwargs):
            recorded["merged"] = merge_events(events_by_shard)
            recorded["universe"] = schedule.label_universe
            return summarize(events_by_shard, schedule, *args, **kwargs)

        monkeypatch.setattr(metrics, "summarize", recording)
        res = run_service(
            shards=2, workers=1,
            spec=ScheduleSpec(ops=4000, prefill=256, rate=2000.0, seed=4),
            beta=1.0, seed=4, dead_after_s=0.35, snapshot_every=256,
            rank_sample_every=4, supervise=True,
            chaos_spec=ChaosSpec(kills=1, zombies=0, seed=4, start_s=0.2, window_s=0.3),
        )
        post = res["post_recovery"]
        want = ranks_after_reference(recorded["merged"], recorded["universe"], post["after_ns"])
        assert want.size > 0
        expected = {"after_ns": post["after_ns"], "n_ranks": int(want.size)}
        expected.update(oracle_row(2, 1.0, want, gamma=0.0))
        assert post == expected

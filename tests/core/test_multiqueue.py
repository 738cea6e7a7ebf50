"""Tests for the user-facing MultiQueue data structure."""

import numpy as np
import pytest

from repro.core.multiqueue import MultiQueue
from repro.pqueues import QueueEmptyError


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiQueue(0)
        with pytest.raises(ValueError):
            MultiQueue(4, beta=1.5)
        with pytest.raises(ValueError):
            MultiQueue(4, insert_probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            MultiQueue(2, insert_probs=np.array([0.9, 0.9]))

    def test_properties(self):
        mq = MultiQueue(4, beta=0.7)
        assert mq.n_queues == 4
        assert mq.beta == 0.7
        assert len(mq) == 0
        assert not mq


class TestOperations:
    def test_insert_returns_valid_queue_index(self):
        mq = MultiQueue(4, rng=1)
        idx = mq.insert(5)
        assert 0 <= idx < 4
        assert len(mq) == 1

    def test_delete_min_empty_raises(self):
        with pytest.raises(QueueEmptyError):
            MultiQueue(4, rng=1).delete_min()

    def test_insert_then_delete_returns_inserted(self):
        mq = MultiQueue(4, rng=2)
        mq.insert(42, "payload")
        entry = mq.delete_min()
        assert entry.priority == 42
        assert entry.item == "payload"
        assert len(mq) == 0

    def test_drains_all_elements(self):
        mq = MultiQueue(8, rng=3)
        values = list(range(100))
        for v in values:
            mq.insert(v)
        out = sorted(mq.delete_min().priority for _ in range(100))
        assert out == values
        assert len(mq) == 0

    def test_delete_min_traced_reports_queue(self):
        mq = MultiQueue(4, rng=4)
        mq.insert(1)
        entry, queue_idx = mq.delete_min_traced()
        assert entry.priority == 1
        assert 0 <= queue_idx < 4

    def test_peek_best_is_global_min(self):
        mq = MultiQueue(8, rng=5)
        for v in (9, 4, 7, 2, 8):
            mq.insert(v)
        assert mq.peek_best().priority == 2
        assert len(mq) == 5  # non-destructive

    def test_peek_best_empty_raises(self):
        with pytest.raises(QueueEmptyError):
            MultiQueue(2, rng=0).peek_best()

    def test_queue_sizes_and_top_entries(self):
        mq = MultiQueue(3, rng=6)
        for v in range(30):
            mq.insert(v)
        sizes = mq.queue_sizes()
        assert sum(sizes) == 30
        tops = mq.top_entries()
        assert len(tops) == 3
        for top, size in zip(tops, sizes):
            assert (top is None) == (size == 0)

    def test_progresses_when_nearly_empty(self):
        """A single element among many queues is still found (fallback scan)."""
        mq = MultiQueue(64, beta=1.0, rng=7)
        mq.insert(5)
        assert mq.delete_min().priority == 5

    def test_relaxation_quality_two_choice(self):
        """Mean rank error stays O(n_queues) on a big drain."""
        mq = MultiQueue(8, beta=1.0, rng=8)
        n = 4000
        perm = np.random.default_rng(0).permutation(n)
        for v in perm:
            mq.insert(int(v))
        total_rank = 0
        present = sorted(range(n))
        for _ in range(n):
            got = mq.delete_min().priority
            total_rank += present.index(got) + 1
            present.remove(got)
        mean_rank = total_rank / n
        assert mean_rank < 8 * 8  # generous c * n envelope

    def test_biased_insertion_prefers_hot_queues(self):
        pi = np.array([0.7, 0.1, 0.1, 0.1])
        mq = MultiQueue(4, insert_probs=pi, rng=9)
        for v in range(2000):
            mq.insert(v)
        sizes = mq.queue_sizes()
        assert sizes[0] > 1000  # ~1400 expected

    def test_deterministic_given_seed(self):
        def run():
            mq = MultiQueue(4, beta=0.5, rng=11)
            for v in range(50):
                mq.insert(v)
            return [mq.delete_min().priority for _ in range(50)]

        assert run() == run()

    def test_repr(self):
        mq = MultiQueue(4, rng=1)
        assert "n_queues=4" in repr(mq)

    def test_insert_many_and_delete_many(self):
        mq = MultiQueue(4, rng=12)
        mq.insert_many(range(20))
        assert len(mq) == 20
        out = mq.delete_min_many(5)
        assert len(out) == 5
        assert len(mq) == 15

    def test_delete_many_stops_at_empty(self):
        mq = MultiQueue(4, rng=13)
        mq.insert_many([1, 2])
        out = mq.delete_min_many(10)
        assert sorted(e.priority for e in out) == [1, 2]
        assert len(mq) == 0

    def test_delete_many_validation(self):
        with pytest.raises(ValueError):
            MultiQueue(2, rng=0).delete_min_many(-1)

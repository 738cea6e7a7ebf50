"""Per-implementation unit tests, parameterized across both queues."""

import pytest

from repro.pqueues import BinaryHeap, Entry, QueueEmptyError, SortedListPQ


@pytest.fixture(params=[BinaryHeap, SortedListPQ], ids=["binary", "sorted"])
def queue(request):
    return request.param()


class TestCommonBehaviour:
    def test_empty_pop_raises(self, queue):
        with pytest.raises(QueueEmptyError):
            queue.pop()

    def test_empty_peek_raises(self, queue):
        with pytest.raises(QueueEmptyError):
            queue.peek()

    def test_len_and_bool(self, queue):
        assert len(queue) == 0
        assert not queue
        queue.push(1)
        assert len(queue) == 1
        assert queue

    def test_push_pop_single(self, queue):
        queue.push(5, "payload")
        entry = queue.pop()
        assert entry == Entry(5, "payload")
        assert len(queue) == 0

    def test_item_defaults_to_priority(self, queue):
        queue.push(7)
        assert queue.pop() == Entry(7, 7)

    def test_peek_does_not_remove(self, queue):
        queue.push(3)
        assert queue.peek().priority == 3
        assert len(queue) == 1

    def test_sorted_output(self, queue):
        values = [5, 3, 8, 1, 9, 2, 7, 4, 6, 0]
        for v in values:
            queue.push(v)
        assert [e.priority for e in queue.drain()] == sorted(values)

    def test_fifo_among_equal_priorities(self, queue):
        for tag in ("first", "second", "third"):
            queue.push(1, tag)
        assert [e.item for e in queue.drain()] == ["first", "second", "third"]

    def test_interleaved_push_pop(self, queue):
        queue.push(5)
        queue.push(2)
        assert queue.pop().priority == 2
        queue.push(7)
        queue.push(6)
        assert queue.pop().priority == 5
        assert queue.pop().priority == 6
        assert queue.pop().priority == 7

    def test_top_or_none(self, queue):
        assert queue.top_or_none() is None
        queue.push(4)
        assert queue.top_or_none().priority == 4

    def test_peek_priority(self, queue):
        queue.push(9)
        assert queue.peek_priority() == 9

    def test_is_empty(self, queue):
        assert queue.is_empty()
        queue.push(1)
        assert not queue.is_empty()

    def test_repr_nonempty(self, queue):
        queue.push(2)
        assert "len=1" in repr(queue)

    def test_large_sequence(self, queue):
        import random

        rnd = random.Random(99)
        values = [rnd.randrange(1000) for _ in range(500)]
        for v in values:
            queue.push(v)
        assert [e.priority for e in queue.drain()] == sorted(values)


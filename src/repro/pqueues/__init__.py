"""Sequential priority queues — the per-queue substrate of a MultiQueue.

The paper's MultiQueue composes ``n`` *sequential* priority queues (the
C++ implementation uses boost heaps).  Its rank cost depends only on
which queues the inserts and deletes pick, not on how each heap is
built, so one heap serves every model:

==================  =============================  =========================
Class               push / pop                      Notes
==================  =============================  =========================
BinaryHeap          O(log n) / O(log n)            array-based, used by every
                                                   model and by Dijkstra
SortedListPQ        O(n) / O(1)                    bisect reference impl
==================  =============================  =========================

Both are **min**-queues over ``(priority, item)`` entries; ties broken by
insertion order (FIFO among equal priorities), making each a *stable*
priority queue with identical observable behaviour — property tests in
``tests/pqueues`` check ``BinaryHeap`` against the ``SortedListPQ`` oracle.
"""

from repro.pqueues.protocol import Entry, PriorityQueue, QueueEmptyError
from repro.pqueues.binary_heap import BinaryHeap
from repro.pqueues.sorted_list import SortedListPQ

__all__ = [
    "Entry",
    "PriorityQueue",
    "QueueEmptyError",
    "BinaryHeap",
    "SortedListPQ",
]

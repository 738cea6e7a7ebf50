"""Sorted-list priority queue: the simple reference implementation.

O(n) insert, O(1) pop-min.  Slow at scale but trivially correct, so the
property tests use it as the oracle the binary heap must match.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.pqueues.protocol import Entry, PriorityQueue, QueueEmptyError


class SortedListPQ(PriorityQueue):
    """Keep entries in a descending-sorted list; the minimum is at the end.

    Storing descending makes ``pop`` a cheap ``list.pop()`` from the tail.
    Stability: tie-break on a *negated* insertion counter so that among
    equal priorities the earliest insertion sits closest to the tail.
    """

    __slots__ = ("_data", "_seq")

    def __init__(self) -> None:
        self._data: List[Tuple[Any, int, Any]] = []
        self._seq = 0

    def push(self, priority: Any, item: Any = None) -> None:
        if item is None:
            item = priority
        # Binary search on the descending (priority, seq) order.
        key = (priority, self._seq)
        lo, hi = 0, len(self._data)
        data = self._data
        while lo < hi:
            mid = (lo + hi) // 2
            if (data[mid][0], data[mid][1]) > key:
                lo = mid + 1
            else:
                hi = mid
        data.insert(lo, (priority, self._seq, item))
        self._seq += 1

    def pop(self) -> Entry:
        if not self._data:
            raise QueueEmptyError("pop from empty SortedListPQ")
        priority, _seq, item = self._data.pop()
        return Entry(priority, item)

    def peek(self) -> Entry:
        if not self._data:
            raise QueueEmptyError("peek on empty SortedListPQ")
        priority, _seq, item = self._data[-1]
        return Entry(priority, item)

    def __len__(self) -> int:
        return len(self._data)

"""The MultiQueue: a relaxed concurrent-style priority queue (sequential).

This is the user-facing data structure distilled from Rihani, Sanders
and Dementiev's MultiQueue and the paper's (1+beta) refinement:

* ``insert`` pushes into one of ``n`` underlying sequential priority
  queues chosen at random (optionally with a biased distribution);
* ``delete_min`` flips a beta-coin — on heads it inspects **two**
  uniformly random queues and pops the better top element, on tails it
  pops from a single random queue.

The semantics are *relaxed*: ``delete_min`` returns an element whose
rank among all present elements is small in expectation (``O(n/beta^2)``
by Theorem 1) but not necessarily 1.  Concurrency is modelled separately
in :mod:`repro.concurrent`; this class provides the exact sequential
semantics those models linearize to.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.core.policies import insert_cuts
from repro.pqueues import BinaryHeap, Entry, PriorityQueue, QueueEmptyError
from repro.utils.rngtools import SeedLike, as_generator

#: After this many failed random probes, delete_min falls back to a
#: linear scan for a non-empty queue (guarantees progress when the
#: structure is nearly empty).
_MAX_PROBES = 64


class MultiQueue:
    """Relaxed priority queue built from ``n`` sequential priority queues.

    Parameters
    ----------
    n_queues:
        Number of underlying queues.  Practical deployments use
        ``c * threads`` for a small constant ``c`` (the paper uses 2).
    beta:
        Probability that a removal uses two choices; ``beta=1`` is the
        original MultiQueue, ``beta=0`` the divergent single-choice
        strategy.
    insert_probs:
        Optional biased insertion distribution over queues (length
        ``n_queues``, sums to 1).  ``None`` means uniform.
    rng:
        Seed or generator for all random choices.

    Example
    -------
    >>> mq = MultiQueue(4, beta=1.0, rng=7)
    >>> for x in [5, 3, 9, 1]:
    ...     mq.insert(x)
    >>> entry = mq.delete_min()
    >>> entry.priority in (1, 3, 5, 9)
    True
    """

    def __init__(
        self,
        n_queues: int,
        beta: float = 1.0,
        insert_probs: Optional[np.ndarray] = None,
        rng: SeedLike = None,
    ) -> None:
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self._queues: List[PriorityQueue] = [BinaryHeap() for _ in range(n_queues)]
        self._beta = beta
        self._rng = as_generator(rng)
        self._size = 0
        if insert_probs is not None:
            probs = np.asarray(insert_probs, dtype=float)
            if len(probs) != n_queues:
                raise ValueError(
                    f"insert_probs has length {len(probs)}, expected {n_queues}"
                )
            if not np.isclose(probs.sum(), 1.0):
                raise ValueError(f"insert_probs must sum to 1, got {probs.sum()}")
            self._cuts: Optional[np.ndarray] = insert_cuts(probs)
        else:
            self._cuts = None

    # -- properties ------------------------------------------------------

    @property
    def n_queues(self) -> int:
        """Number of underlying sequential queues."""
        return len(self._queues)

    @property
    def beta(self) -> float:
        """The two-choice probability."""
        return self._beta

    @property
    def queues(self) -> List[PriorityQueue]:
        """The underlying queues (read-only by convention)."""
        return self._queues

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def queue_sizes(self) -> List[int]:
        """Sizes of each underlying queue."""
        return [len(q) for q in self._queues]

    def top_entries(self) -> List[Optional[Entry]]:
        """Top entry of each queue (``None`` for empty queues)."""
        return [q.top_or_none() for q in self._queues]

    # -- operations -------------------------------------------------------

    def insert(self, priority: Any, item: Any = None) -> int:
        """Insert ``(priority, item)`` into a randomly chosen queue.

        Returns the index of the queue inserted into.
        """
        idx = self._choose_insert_queue()
        self._queues[idx].push(priority, item)
        self._size += 1
        return idx

    def delete_min(self) -> Entry:
        """Remove a small-rank element per the (1+beta) two-choice rule.

        Raises
        ------
        QueueEmptyError
            If the whole MultiQueue is empty.
        """
        entry, _queue = self.delete_min_traced()
        return entry

    def delete_min_traced(self) -> "tuple[Entry, int]":
        """Like :meth:`delete_min` but also returns the queue index used."""
        if self._size == 0:
            raise QueueEmptyError("delete_min on empty MultiQueue")
        rng = self._rng
        n = len(self._queues)
        two = self._beta >= 1.0 or (self._beta > 0.0 and rng.random() < self._beta)
        for _ in range(_MAX_PROBES):
            i = int(rng.integers(n))
            if two:
                j = int(rng.integers(n))
                idx = self._better_of(i, j)
            else:
                idx = i if len(self._queues[i]) else None
            if idx is not None:
                self._size -= 1
                return self._queues[idx].pop(), idx
        # Nearly empty structure: scan deterministically for progress.
        for idx, q in enumerate(self._queues):
            if len(q):
                self._size -= 1
                return q.pop(), idx
        raise QueueEmptyError("delete_min on empty MultiQueue")  # pragma: no cover

    def insert_many(self, priorities) -> None:
        """Insert a batch of priorities (payloads default to priorities)."""
        for priority in priorities:
            self.insert(priority)

    def delete_min_many(self, count: int) -> "List[Entry]":
        """Perform ``count`` relaxed deletions; returns the entries.

        Stops early (shorter list) if the structure empties.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        out: List[Entry] = []
        for _ in range(count):
            if self._size == 0:
                break
            out.append(self.delete_min())
        return out

    def peek_best(self) -> Entry:
        """Exact minimum across all queues (a full scan; for inspection).

        Not part of the relaxed fast path — it exists so callers and
        tests can measure the rank error of :meth:`delete_min`.
        """
        best: Optional[Entry] = None
        for q in self._queues:
            top = q.top_or_none()
            if top is not None and (best is None or top.priority < best.priority):
                best = top
        if best is None:
            raise QueueEmptyError("peek_best on empty MultiQueue")
        return best

    # -- internals ---------------------------------------------------------

    def _choose_insert_queue(self) -> int:
        if self._cuts is None:
            return int(self._rng.integers(len(self._queues)))
        return int(np.searchsorted(self._cuts, self._rng.random(), side="right"))

    def _better_of(self, i: int, j: int) -> Optional[int]:
        """Index (of ``i``/``j``) with the smaller top; ``None`` if both empty."""
        qi, qj = self._queues[i], self._queues[j]
        ti = qi.top_or_none()
        tj = qj.top_or_none()
        if ti is None and tj is None:
            return None
        if ti is None:
            return j
        if tj is None:
            return i
        return i if ti.priority <= tj.priority else j

    def __repr__(self) -> str:
        return (
            f"MultiQueue(n_queues={self.n_queues}, beta={self._beta}, "
            f"size={self._size})"
        )

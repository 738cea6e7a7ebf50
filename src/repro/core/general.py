"""The process under *general* priority insertions (Section 5 discussion).

The analyzed process inserts strictly increasing labels (FIFO
semantics).  The paper notes the practical MultiQueue faces *general*
priorities and sketches why the guarantees should persist when inserts
do not create visible priority inversions.  This module implements the
general-insertion process so the question becomes measurable: priorities
arrive in any prescribed order (increasing, shuffled, decreasing,
clustered...), each queue is a real heap, removals follow the (1+beta)
rule, and every removal pays its exact present-rank.

The planned priority sequence is fixed up front, which lets rank
accounting stay O(log M): positions in the globally sorted order are
precomputed and tracked in a :class:`~repro.core.rank.RankOracle`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.policies import RemovalChooser, insert_cuts
from repro.core.rank import RankOracle
from repro.core.records import RankTrace, RemovalRecord
from repro.pqueues import BinaryHeap
from repro.utils.rngtools import SeedLike, as_generator


class GeneralPriorityProcess:
    """(1+beta) process over an arbitrary planned priority sequence.

    Parameters
    ----------
    priorities:
        The full sequence of priorities the run will insert, in arrival
        order.  Ties are broken by arrival index (stable).
    n_queues:
        Number of queues.
    beta:
        Two-choice probability.
    insert_probs:
        Optional biased insertion distribution.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        priorities: Sequence,
        n_queues: int,
        beta: float = 1.0,
        insert_probs: Optional[np.ndarray] = None,
        rng: SeedLike = None,
    ) -> None:
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        if len(priorities) == 0:
            raise ValueError("priority sequence must be non-empty")
        self.n_queues = n_queues
        self.beta = beta
        gen = as_generator(rng)
        self._rng = gen
        self._chooser = RemovalChooser(n_queues, beta, gen)
        if insert_probs is not None:
            probs = np.asarray(insert_probs, dtype=float)
            if len(probs) != n_queues:
                raise ValueError(
                    f"insert_probs has length {len(probs)}, expected {n_queues}"
                )
            self._cuts: Optional[np.ndarray] = insert_cuts(probs)
        else:
            self._cuts = None
        self._priorities = list(priorities)
        # Global sorted position of each arrival index, ties by index.
        order = sorted(range(len(self._priorities)), key=lambda k: (self._priorities[k], k))
        self._position = [0] * len(order)
        for pos, idx in enumerate(order):
            self._position[idx] = pos
        self._oracle = RankOracle(len(self._priorities))
        self._queues: List[BinaryHeap] = [BinaryHeap() for _ in range(n_queues)]
        self._next_index = 0
        self._removal_step = 0
        self.empty_redraws = 0

    # -- state ------------------------------------------------------------

    @property
    def present_count(self) -> int:
        """Elements currently in the system."""
        return self._oracle.present_count

    @property
    def inserted(self) -> int:
        """Arrivals consumed so far."""
        return self._next_index

    @property
    def remaining(self) -> int:
        """Arrivals not yet inserted."""
        return len(self._priorities) - self._next_index

    def queue_sizes(self) -> List[int]:
        """Current size of each queue."""
        return [len(q) for q in self._queues]

    # -- operations ---------------------------------------------------------

    def insert(self) -> int:
        """Insert the next planned priority; returns the queue index."""
        if self._next_index >= len(self._priorities):
            raise RuntimeError("priority sequence exhausted")
        idx = self._next_index
        self._next_index += 1
        if self._cuts is None:
            q = int(self._rng.integers(self.n_queues))
        else:
            q = int(np.searchsorted(self._cuts, self._rng.random(), side="right"))
        # Heap entries are (priority, arrival index); heap stability is
        # irrelevant because the pair is already unique and ordered.
        self._queues[q].push((self._priorities[idx], idx), idx)
        self._oracle.insert(self._position[idx])
        return q

    def prefill(self, m: int) -> None:
        """Insert the next ``m`` planned priorities."""
        for _ in range(m):
            self.insert()

    def remove(self) -> RemovalRecord:
        """One (1+beta) removal; cost = exact rank among present."""
        if self._oracle.present_count == 0:
            raise LookupError("remove from empty process")
        queues = self._queues
        while True:
            two, i, j = self._chooser.draw()
            if two:
                qi, qj = queues[i], queues[j]
                ti = qi.top_or_none()
                tj = qj.top_or_none()
                if ti is not None and (tj is None or ti.priority <= tj.priority):
                    chosen = i
                elif tj is not None:
                    chosen = j
                else:
                    self.empty_redraws += 1
                    continue
            else:
                if len(queues[i]):
                    chosen = i
                else:
                    self.empty_redraws += 1
                    continue
            break
        entry = queues[chosen].pop()
        arrival_idx = entry.item
        rank = self._oracle.remove(self._position[arrival_idx])
        record = RemovalRecord(
            step=self._removal_step,
            label=arrival_idx,
            rank=rank,
            queue=chosen,
            two_choice=two,
        )
        self._removal_step += 1
        return record

    def run_steady_state(self, prefill: int, steps: int) -> RankTrace:
        """Prefill, then alternate insert+remove while arrivals last."""
        if prefill + steps > len(self._priorities):
            raise ValueError(
                f"need {prefill + steps} priorities, have {len(self._priorities)}"
            )
        self.prefill(prefill)
        trace = RankTrace()
        for _ in range(steps):
            self.insert()
            trace.append(self.remove().rank)
        return trace

    def run_prefill_drain(self, prefill: int, removals: int) -> RankTrace:
        """Insert ``prefill`` then remove ``removals``."""
        if removals > prefill:
            raise ValueError(f"cannot remove {removals} of {prefill}")
        self.prefill(prefill)
        trace = RankTrace()
        for _ in range(removals):
            trace.append(self.remove().rank)
        return trace

    def __repr__(self) -> str:
        return (
            f"GeneralPriorityProcess(n={self.n_queues}, beta={self.beta}, "
            f"present={self.present_count}, remaining={self.remaining})"
        )


# -- canned priority orders for experiments ---------------------------------


def priority_sequence(kind: str, m: int, rng: SeedLike = None) -> np.ndarray:
    """Generate a planned priority sequence of a named shape.

    Kinds: ``increasing`` (the analyzed FIFO case), ``decreasing`` (every
    insert is a visible inversion — LIFO-adversarial), ``random``
    (i.i.d. uniform), ``zipf`` (heavy duplicate mass on small values),
    ``sawtooth`` (repeated increasing runs — Dijkstra-ish).
    """
    gen = as_generator(rng)
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if kind == "increasing":
        return np.arange(m)
    if kind == "decreasing":
        return np.arange(m)[::-1].copy()
    if kind == "random":
        return gen.integers(0, 2**40, size=m)
    if kind == "zipf":
        return np.minimum(gen.zipf(1.5, size=m), 10**6)
    if kind == "sawtooth":
        run = max(m // 20, 1)
        return np.concatenate(
            [np.arange(run) + (k * run) // 2 for k in range(-(-m // run))]
        )[:m]
    raise ValueError(f"unknown priority sequence kind {kind!r}")

"""The labelled (1+beta) sequential process of Section 3, instrumented.

This module drives the *exact* random process the paper analyzes:
consecutive integer labels are inserted into ``n`` queues according to an
insertion distribution ``pi``; removals flip a beta-coin and take the
better of two (or a single) random queue tops; every removal pays the
rank of the removed label among labels still present.

Because labels are inserted in strictly increasing order, each queue's
contents are already sorted — a deque per queue suffices, which keeps
simulation fast.  Exact rank accounting is delegated to
:class:`~repro.core.rank.RankOracle`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

import numpy as np

from repro.core.policies import RemovalChooser, insert_cuts, uniform_insert_probs
from repro.core.rank import RankOracle
from repro.core.records import RankTrace, RemovalRecord, SampledRun
from repro.utils.rngtools import SeedLike, as_generator


class SequentialProcess:
    """The (1+beta)-sequential process with exact rank-cost accounting.

    Parameters
    ----------
    n_queues:
        Number of queues ``n``.
    capacity:
        Upper bound on the total number of labels this run will insert
        (sizes the rank oracle).
    beta:
        Two-choice probability (``1.0`` = original MultiQueue rule).
    insert_probs:
        Insertion distribution ``pi`` (length ``n_queues``); ``None``
        means uniform.  Use :func:`repro.core.policies.biased_insert_probs`
        for gamma-bounded bias.
    rng:
        Seed or generator.  One generator drives the insert choices,
        beta-coins, and queue choices (in draw order), so runs are fully
        reproducible.

    Notes
    -----
    Removals that would inspect only empty queues are *redrawn* (and
    counted in :attr:`empty_redraws`); the paper's "prefixed execution"
    assumption says these events are negligible when the system holds a
    large buffer of elements, and benches prefill accordingly.
    """

    def __init__(
        self,
        n_queues: int,
        capacity: int,
        beta: float = 1.0,
        insert_probs: Optional[np.ndarray] = None,
        rng: SeedLike = None,
    ) -> None:
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.n_queues = n_queues
        self.beta = beta
        gen = as_generator(rng)
        self._chooser = RemovalChooser(n_queues, beta, gen)
        self._rng = gen
        if insert_probs is not None:
            probs = np.asarray(insert_probs, dtype=float)
            if len(probs) != n_queues:
                raise ValueError(
                    f"insert_probs has length {len(probs)}, expected {n_queues}"
                )
            self._cuts: Optional[np.ndarray] = insert_cuts(probs)
            self.insert_probs = probs
        else:
            self._cuts = None
            self.insert_probs = uniform_insert_probs(n_queues)
        self._queues: List[Deque[int]] = [deque() for _ in range(n_queues)]
        self._oracle = RankOracle(capacity)
        self._next_label = 0
        self._removal_step = 0
        #: Number of removal redraws forced by empty chosen queues.
        self.empty_redraws = 0

    # -- state inspection --------------------------------------------------

    @property
    def present_count(self) -> int:
        """Number of labels currently in the system."""
        return self._oracle.present_count

    @property
    def labels_inserted(self) -> int:
        """Total labels inserted so far."""
        return self._next_label

    @property
    def removal_steps(self) -> int:
        """Total removals performed so far."""
        return self._removal_step

    def queue_sizes(self) -> List[int]:
        """Current size of each queue."""
        return [len(q) for q in self._queues]

    def top_labels(self) -> List[Optional[int]]:
        """Label on top of each queue (``None`` for empty queues)."""
        return [q[0] if q else None for q in self._queues]

    def top_ranks(self) -> List[int]:
        """Rank of each non-empty queue's top label among present labels.

        This is the quantity bounded by Corollary 1: its maximum is
        ``O((n/beta)(log n + log 1/beta))`` in expectation, at any time.
        """
        oracle = self._oracle
        return [oracle.rank(q[0]) for q in self._queues if q]

    def max_top_rank(self) -> int:
        """Worst rank among queue tops (``max(top_ranks())``)."""
        ranks = self.top_ranks()
        if not ranks:
            raise LookupError("all queues are empty")
        return max(ranks)

    # -- operations ----------------------------------------------------------

    def insert(self) -> int:
        """Insert the next consecutive label; returns the queue index."""
        label = self._next_label
        if label >= self._oracle.capacity:
            raise RuntimeError(
                f"capacity {self._oracle.capacity} exhausted; size the process larger"
            )
        idx = self._choose_insert_queue(label)
        self._queues[idx].append(label)
        self._oracle.insert(label)
        self._next_label += 1
        return idx

    def _choose_insert_queue(self, label: int) -> int:
        """Random pi-distributed choice; subclasses may override (e.g.
        round-robin uses ``label % n``)."""
        if self._cuts is None:
            return int(self._rng.integers(self.n_queues))
        return int(np.searchsorted(self._cuts, self._rng.random(), side="right"))

    def prefill(self, m: int) -> None:
        """Insert ``m`` consecutive labels (the paper's initial buffer)."""
        for _ in range(m):
            self.insert()

    def remove(self) -> RemovalRecord:
        """Perform one (1+beta) removal and return its record.

        Raises
        ------
        LookupError
            If the whole system is empty.
        """
        if self._oracle.present_count == 0:
            raise LookupError("remove from empty process")
        queues = self._queues
        while True:
            two, i, j = self._chooser.draw()
            if two:
                qi, qj = queues[i], queues[j]
                if qi and qj:
                    idx = i if qi[0] <= qj[0] else j
                elif qi:
                    idx = i
                elif qj:
                    idx = j
                else:
                    self.empty_redraws += 1
                    continue
            else:
                if queues[i]:
                    idx = i
                else:
                    self.empty_redraws += 1
                    continue
            break
        label = queues[idx].popleft()
        rank = self._oracle.remove(label)
        record = RemovalRecord(
            step=self._removal_step, label=label, rank=rank, queue=idx, two_choice=two
        )
        self._removal_step += 1
        return record

    # -- run modes -------------------------------------------------------------

    def run_prefill_drain(self, prefill: int, removals: Optional[int] = None) -> RankTrace:
        """Insert ``prefill`` labels, then remove ``removals`` (default: half).

        Removing at most half the buffer keeps the execution prefixed
        (queues essentially never run empty), matching Section 3.
        """
        if removals is None:
            removals = prefill // 2
        if removals > prefill:
            raise ValueError(f"cannot remove {removals} of {prefill} inserted labels")
        self.prefill(prefill)
        trace = RankTrace()
        for _ in range(removals):
            trace.append(self.remove().rank)
        return trace

    def run_steady_state(self, prefill: int, steps: int) -> RankTrace:
        """Prefill, then alternate insert+remove for ``steps`` rounds.

        Keeps the population constant at ``prefill``; since inserted
        labels are strictly increasing, no priority inversions are
        visible and the execution stays prefixed.  This is the mode used
        for time-uniformity plots (rank cost vs ``t``).
        """
        self.prefill(prefill)
        trace = RankTrace()
        for _ in range(steps):
            self.insert()
            trace.append(self.remove().rank)
        return trace

    def run_steady_state_sampled(
        self, prefill: int, steps: int, sample_every: int = 1000
    ) -> SampledRun:
        """Steady-state run that also snapshots the top-rank profile.

        Every ``sample_every`` removals the ranks of all queue tops are
        recorded; their maximum is the Corollary 1 quantity
        (``E[max rank] = O((n/beta) log(n/beta))``) and their mean tracks
        the first-order behaviour behind Corollary 2.
        """
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.prefill(prefill)
        trace = RankTrace()
        sample_steps: List[int] = []
        max_ranks: List[int] = []
        mean_ranks: List[float] = []
        for step in range(steps):
            self.insert()
            trace.append(self.remove().rank)
            if (step + 1) % sample_every == 0:
                ranks = self.top_ranks()
                sample_steps.append(step + 1)
                max_ranks.append(max(ranks))
                mean_ranks.append(sum(ranks) / len(ranks))
        return SampledRun(
            trace=trace,
            sample_steps=np.asarray(sample_steps, dtype=np.int64),
            max_top_ranks=np.asarray(max_ranks, dtype=np.int64),
            mean_top_ranks=np.asarray(mean_ranks, dtype=float),
        )

    def __repr__(self) -> str:
        return (
            f"SequentialProcess(n={self.n_queues}, beta={self.beta}, "
            f"present={self.present_count}, inserted={self.labels_inserted})"
        )

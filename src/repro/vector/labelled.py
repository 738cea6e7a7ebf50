"""Replica-batched variants of the labelled processes.

Each class mirrors its counterpart in :mod:`repro.core` —
:class:`VectorSequentialProcess` is ``R`` independent
:class:`~repro.core.process.SequentialProcess` runs advancing in
lockstep, and likewise for single-choice (beta=0), best-of-d, and
round-robin insertion.  The labels inserted are the same consecutive
integers in every replica (only the queue receiving them differs), which
keeps the present-label sets equal across replicas and makes the insert
side of the rank index a trivial column write.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.policies import uniform_insert_probs
from repro.utils.rngtools import SeedLike
from repro.vector.chooser import BatchedChooser
from repro.vector.engine import CHUNK_STEPS, EMPTY, VectorProcessBase, queue_key_type
from repro.vector.records import VectorRunResult


class VectorSequentialProcess(VectorProcessBase):
    """``R`` lockstep copies of the (1+beta)-sequential process.

    Parameters mirror :class:`~repro.core.process.SequentialProcess`,
    plus ``replicas`` and an optional explicit ``source`` (a choice
    stream from :mod:`repro.vector.chooser`); when ``source`` is omitted
    a :class:`~repro.vector.chooser.BatchedChooser` seeded from ``rng``
    drives all replicas with i.i.d. choices.
    """

    def __init__(
        self,
        n_queues: int,
        capacity: int,
        replicas: int,
        beta: float = 1.0,
        insert_probs: Optional[np.ndarray] = None,
        rng: SeedLike = None,
        source=None,
    ) -> None:
        if insert_probs is not None:
            probs = np.asarray(insert_probs, dtype=float)
            if len(probs) != n_queues:
                raise ValueError(
                    f"insert_probs has length {len(probs)}, expected {n_queues}"
                )
            self.insert_probs = probs
        else:
            self.insert_probs = uniform_insert_probs(n_queues)
        if source is None:
            source = BatchedChooser(
                n_queues, beta, replicas, rng=rng, insert_probs=insert_probs
            )
        super().__init__(n_queues, capacity, replicas, source)
        self.beta = beta
        self._next_label = 0

    @property
    def labels_inserted(self) -> int:
        """Total labels inserted so far (per replica)."""
        return self._next_label

    def _draw_insert_queues(self, label: int) -> np.ndarray:
        """Per-replica queue for ``label``; round-robin overrides this."""
        return self._source.insert_queues()

    def _draw_insert_rows(self, label: int, b: int) -> np.ndarray:
        """Queues for up to ``b`` labels from ``label`` on, ``(k, R)``.

        Round-robin overrides this.  A source without block draws
        serves one row.
        """
        insert_block = getattr(self._source, "insert_block", None)
        if insert_block is None:
            return self._draw_insert_queues(label)[None]
        return insert_block(b)

    def _draw_block(self, b: int):
        """``(inserts, two, i, j)`` for up to ``b`` steps, each ``(k, R)``.

        ``None`` when the process or its source draws per step only.
        """
        step_block = getattr(self._source, "step_block", None)
        return None if step_block is None else step_block(b)

    def insert(self) -> np.ndarray:
        """Insert the next consecutive label everywhere; returns queues."""
        label = self._next_label
        if label >= self.capacity:
            raise RuntimeError(
                f"capacity {self.capacity} exhausted; size the process larger"
            )
        queues = self._draw_insert_queues(label)
        self._append(queues, label)
        self._index.insert_all(label)
        self._next_label += 1
        return queues

    def prefill(self, m: int) -> None:
        """Insert ``m`` consecutive labels (the paper's initial buffer).

        On a fresh process this takes a bulk path: the ``m`` per-replica
        queue choices are collected first, then the queues and the rank
        index are built in one shot.
        """
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        if self._next_label + m > self.capacity:
            raise RuntimeError(
                f"capacity {self.capacity} exhausted; size the process larger"
            )
        if self._next_label == 0:
            # Step-major, so each draw is one contiguous row write.
            choices = np.empty((m, self.replicas), dtype=queue_key_type(self.n_queues))
            t = 0
            while t < m:
                rows = self._draw_insert_rows(t, m - t)
                choices[t : t + len(rows)] = rows
                t += len(rows)
            self._alloc_from_assignment(choices.T)
            self._index.bulk_fill(m)
            self._next_label = m
        else:
            for _ in range(m):
                self.insert()

    # -- run modes -------------------------------------------------------

    def run_prefill_drain(
        self, prefill: int, removals: Optional[int] = None
    ) -> VectorRunResult:
        """Insert ``prefill`` labels, then remove ``removals`` (default: half)."""
        if removals is None:
            removals = prefill // 2
        if removals > prefill:
            raise ValueError(f"cannot remove {removals} of {prefill} inserted labels")
        self.prefill(prefill)
        return self.run_drain(removals)

    def run_steady_state(
        self, prefill: int, steps: int, sample_every: Optional[int] = None
    ) -> VectorRunResult:
        """Prefill, then alternate insert+remove for ``steps`` rounds.

        Per-replica semantics match
        :meth:`~repro.core.process.SequentialProcess.run_steady_state`
        (and the sampled variant when ``sample_every`` is set).
        """
        if sample_every is not None and sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.prefill(prefill)
        if self._next_label + steps > self.capacity:
            raise RuntimeError(
                f"capacity {self.capacity} exhausted; size the process larger"
            )
        ranks = np.empty((steps, self.replicas), dtype=np.int32)
        samples = [] if sample_every else None
        removed = np.empty((CHUNK_STEPS, self.replicas), dtype=np.int64)
        done = 0
        while done < steps:
            k = min(CHUNK_STEPS, steps - done)
            if sample_every:
                k = min(k, sample_every - done % sample_every)
            first_label = self._next_label
            s = 0
            while s < k:
                s += self._advance(removed[s:k])
            ranks[done : done + k] = self._flush_chunk(removed[:k], first_label, k)
            done += k
            if sample_every and done % sample_every == 0:
                samples.append((done, *self.top_rank_profile()))
        return self._package(ranks, samples)

    def _advance(self, out: np.ndarray) -> int:
        """Run up to ``len(out)`` insert+remove steps; return how many.

        The popped labels go to ``out``.  A block of draws runs through
        the block kernel when that is exact, else step by step on the
        same draws.
        """
        block = self._draw_block(len(out))
        if block is None:
            out[0] = self._step(self._draw_insert_queues(self._next_label))
            return 1
        ins, two, i, j = block
        base = self._row_base
        b = len(i)
        lin_ij = np.empty((2, b, self.replicas), dtype=np.int64)
        np.add(i, base, out=lin_ij[0])
        np.add(j, base, out=lin_ij[1])
        picks = self._block_step(out, self._next_label, base + ins, two, lin_ij)
        if picks is None:
            for t in range(b):
                out[t] = self._step(ins[t], (two[t], i[t], j[t]))
        else:
            self._next_label += b
            self._on_remove(picks - base)
        return b

    def _step(self, queues: np.ndarray, draws=None) -> np.ndarray:
        """Insert the next label into ``queues``, then pop; the popped labels."""
        label = self._next_label
        self._append(queues, label)
        self._next_label += 1
        labels, pick = self._pop_step(draws)
        self._on_remove(pick)
        return labels

    def run_steady_state_sampled(
        self, prefill: int, steps: int, sample_every: int = 1000
    ) -> VectorRunResult:
        """Steady-state run that snapshots the top-rank profile."""
        return self.run_steady_state(prefill, steps, sample_every=sample_every)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n_queues}, beta={self.beta}, "
            f"replicas={self.replicas}, present={self.present_count})"
        )


class VectorSingleChoiceProcess(VectorSequentialProcess):
    """Batched divergent single-choice process (Theorem 6; beta = 0)."""

    def __init__(
        self,
        n_queues: int,
        capacity: int,
        replicas: int,
        rng: SeedLike = None,
        source=None,
    ) -> None:
        super().__init__(
            n_queues, capacity, replicas, beta=0.0, rng=rng, source=source
        )

    def divergence_curve(
        self, prefill: int, steps: int, sample_every: int = 1000
    ) -> VectorRunResult:
        """Sampled steady-state run; ``max_top_ranks`` is the Thm 6 curve."""
        return self.run_steady_state_sampled(prefill, steps, sample_every)


class VectorDChoiceProcess(VectorSequentialProcess):
    """Batched best-of-d removal (d-choice ablation).

    Removal picks the smallest top among ``d`` uniform queue draws,
    first-drawn queue winning ties, exactly like
    :class:`~repro.core.dchoice.DChoiceProcess`.
    """

    def __init__(
        self,
        n_queues: int,
        capacity: int,
        replicas: int,
        d: int = 2,
        rng: SeedLike = None,
        source=None,
    ) -> None:
        if d <= 0:
            raise ValueError(f"d must be positive, got {d}")
        super().__init__(n_queues, capacity, replicas, beta=1.0, rng=rng, source=source)
        self.d = d

    def _draw_block(self, b: int):
        """Best-of-d removals draw per step."""
        return None

    def _choose_removal_queues(self, draws=None) -> np.ndarray:
        # ``draws`` is always None: _draw_block keeps best-of-d per step.
        rows = self._rows
        cand = self._source.dchoice_draws(self.d)
        tops = self._tops_at(rows[:, None], cand)
        # argmin returns the first index achieving the minimum, matching
        # the reference's strict-< scan over the d draws in order.
        pick = cand[rows, tops.argmin(axis=1)]
        empty = tops.min(axis=1) == EMPTY
        while empty.any():
            self.empty_redraws += empty
            sub = np.nonzero(empty)[0]
            cand_s = self._source.dchoice_redraws(sub, self.d)
            tops_s = self._tops_at(sub[:, None], cand_s)
            pick[sub] = cand_s[np.arange(len(sub)), tops_s.argmin(axis=1)]
            still = tops_s.min(axis=1) == EMPTY
            empty = np.zeros_like(empty)
            empty[sub] = still
        return pick


class VectorRoundRobinProcess(VectorSequentialProcess):
    """Batched round-robin insertion (Appendix A reduction).

    Inserts are deterministic (label ``t`` to queue ``t mod n``, no RNG
    consumed); removals follow the (1+beta) rule and are tallied per
    queue as the Appendix A 'virtual bin' loads.
    """

    def __init__(
        self,
        n_queues: int,
        capacity: int,
        replicas: int,
        beta: float = 1.0,
        rng: SeedLike = None,
        source=None,
    ) -> None:
        super().__init__(n_queues, capacity, replicas, beta=beta, rng=rng, source=source)
        self._removal_counts = np.zeros((replicas, n_queues), dtype=np.int64)

    def _draw_insert_queues(self, label: int) -> np.ndarray:
        return np.full(self.replicas, label % self.n_queues, dtype=np.int64)

    def _draw_insert_rows(self, label: int, b: int) -> np.ndarray:
        queues = np.arange(label, label + b, dtype=np.int64) % self.n_queues
        return np.broadcast_to(queues[:, None], (b, self.replicas))

    def _draw_block(self, b: int):
        removal_block = getattr(self._source, "removal_block", None)
        if removal_block is None:
            return None
        two, i, j = removal_block(b)
        return (self._draw_insert_rows(self._next_label, len(i)), two, i, j)

    def _on_remove(self, queues: np.ndarray) -> None:
        """Tally one step's ``(R,)`` or a block's ``(b, R)`` picks."""
        flat = self._removal_counts.reshape(-1)
        flat += np.bincount((self._row_base + queues).reshape(-1), minlength=flat.size)

    def removal_counts(self) -> np.ndarray:
        """``(R, n)`` removals per queue — the virtual bin loads."""
        return self._removal_counts.copy()

    def virtual_gap(self) -> np.ndarray:
        """Per-replica ``max - mean`` virtual load (two-choice gap)."""
        counts = self._removal_counts
        return counts.max(axis=1) - counts.mean(axis=1)

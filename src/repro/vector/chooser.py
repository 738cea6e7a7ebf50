"""Replica-batched choice streams for the vector engine.

The vector processes separate *what random choices are made* from *how
the state advances*: every process step asks a **choice source** for the
per-replica queue indices it needs.  Three sources cover the use cases:

* :class:`BatchedChooser` — the production source.  Pre-generates
  chunks of beta-coins, queue indices, and insertion choices with one
  RNG call per chunk, so the per-step cost is a slice.
* :class:`ArrayChoiceSource` — replays explicit choice arrays.  Used by
  the Appendix-A reduction tests, where the *same* stream must drive a
  round-robin process and a balls-into-bins allocation.
* :class:`ReferenceMirror` — byte-exact mirror of the RNG consumption
  of ``R`` independent reference processes
  (:class:`~repro.core.process.SequentialProcess` and friends).  Seeding
  replica ``r`` with the reference run's seed makes the vector engine
  consume *the same generator draws in the same order*, so the parity
  suite can assert trace equality label-for-label, redraws included.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies import RemovalChooser, insert_cuts
from repro.utils.rngtools import SeedLike, as_generator

Draws = Tuple[np.ndarray, np.ndarray, np.ndarray]


class BatchedChooser:
    """Chunked (1+beta) choice stream over ``R`` replicas.

    Per removal step, yields ``(two, i, j)`` arrays of shape ``(R,)``:
    the beta-coin, the first queue index, and the second (meaningful only
    where ``two`` is set; drawn unconditionally, which is distribution-
    equivalent and keeps the stream rectangular).
    """

    def __init__(
        self,
        n: int,
        beta: float,
        replicas: int,
        rng: SeedLike = None,
        insert_probs: Optional[np.ndarray] = None,
        chunk: int = 2048,
    ) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if not 0 <= beta <= 1:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self.n = n
        self.beta = beta
        self.replicas = replicas
        self._rng = as_generator(rng)
        self._chunk = chunk
        self._cuts = insert_cuts(insert_probs)
        self._ptr = chunk  # force refill on first use
        self._iptr = chunk
        self._two = np.empty((chunk, replicas), dtype=bool)
        self._i = np.empty((chunk, replicas), dtype=np.int64)
        self._j = np.empty((chunk, replicas), dtype=np.int64)
        self._ins = np.empty((chunk, replicas), dtype=np.int64)
        self._dchoice: dict = {}

    def _refill_removals(self) -> None:
        rng, shape = self._rng, (self._chunk, self.replicas)
        if self.beta >= 1.0:
            self._two.fill(True)
        elif self.beta <= 0.0:
            self._two.fill(False)
        else:
            self._two = rng.random(shape) < self.beta
        self._i = rng.integers(self.n, size=shape)
        self._j = rng.integers(self.n, size=shape)
        self._ptr = 0

    def removal_draws(self) -> Draws:
        """One removal step's ``(two, i, j)`` for every replica."""
        if self._ptr >= self._chunk:
            self._refill_removals()
        k = self._ptr
        self._ptr += 1
        return self._two[k], self._i[k], self._j[k]

    def removal_redraws(self, rows) -> Draws:
        """Fresh draws for the replicas in ``rows`` whose chosen queues
        were all empty.

        Mirrors the reference redraw semantics: a redraw repeats the full
        draw, beta-coin included.  Draws are i.i.d. across replicas, so
        which rows are being redrawn does not matter here — only how
        many (sources that own per-replica streams do use the rows).
        """
        count = rows if isinstance(rows, int) else len(rows)
        rng = self._rng
        if self.beta >= 1.0:
            two = np.ones(count, dtype=bool)
        elif self.beta <= 0.0:
            two = np.zeros(count, dtype=bool)
        else:
            two = rng.random(count) < self.beta
        return two, rng.integers(self.n, size=count), rng.integers(self.n, size=count)

    def _refill_inserts(self) -> None:
        shape = (self._chunk, self.replicas)
        if self._cuts is None:
            self._ins = self._rng.integers(self.n, size=shape)
        else:
            self._ins = np.searchsorted(self._cuts, self._rng.random(shape), side="right")
        self._iptr = 0

    def insert_queues(self) -> np.ndarray:
        """Per-replica queue index for the next inserted label."""
        if self._iptr >= self._chunk:
            self._refill_inserts()
        k = self._iptr
        self._iptr += 1
        return self._ins[k]

    # -- block draws -------------------------------------------------------
    #
    # A block is up to ``b`` consecutive steps' draws, step-major, taken
    # as slices of the current chunks.  A block never crosses a refill,
    # and it refills exactly where the per-step calls it replaces would
    # (inserts before removals), so drawing in blocks consumes the
    # generator in the same order as drawing step by step.

    def insert_block(self, b: int) -> np.ndarray:
        """Queue choices for up to ``b`` next labels, ``(k, R)`` with ``1 <= k <= b``."""
        if self._iptr >= self._chunk:
            self._refill_inserts()
        k = self._iptr
        self._iptr = min(k + b, self._chunk)
        return self._ins[k : self._iptr]

    def removal_block(self, b: int) -> Draws:
        """``(two, i, j)`` for up to ``b`` removal steps, each ``(k, R)``."""
        if self._ptr >= self._chunk:
            self._refill_removals()
        k = self._ptr
        self._ptr = min(k + b, self._chunk)
        return self._two[k : self._ptr], self._i[k : self._ptr], self._j[k : self._ptr]

    def step_block(self, b: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(inserts, two, i, j)`` for up to ``b`` insert+remove steps."""
        if self._iptr >= self._chunk:
            self._refill_inserts()
        if self._ptr >= self._chunk:
            self._refill_removals()
        b = min(b, self._chunk - self._iptr, self._chunk - self._ptr)
        return (self.insert_block(b), *self.removal_block(b))

    def dchoice_draws(self, d: int) -> np.ndarray:
        """``(R, d)`` uniform queue indices for a best-of-d removal."""
        buf, ptr = self._dchoice.get(d, (None, self._chunk))
        if ptr >= self._chunk:
            buf = self._rng.integers(self.n, size=(self._chunk, self.replicas, d))
            ptr = 0
        self._dchoice[d] = (buf, ptr + 1)
        return buf[ptr]

    def dchoice_redraws(self, rows, d: int) -> np.ndarray:
        """Fresh ``(len(rows), d)`` draws for replicas that saw only empties."""
        count = rows if isinstance(rows, int) else len(rows)
        return self._rng.integers(self.n, size=(count, d))


class ArrayChoiceSource:
    """Replays explicit choice arrays (for exact-coupling tests).

    Parameters are step-major: ``two/i/j`` have shape ``(steps, R)`` and
    ``insert_q`` shape ``(inserts, R)``.  Redraw requests raise — callers
    must set up prefixed executions (ample prefill) so no chosen pair of
    queues is ever empty, and assert ``empty_redraws == 0``.
    """

    def __init__(
        self,
        two: Optional[np.ndarray] = None,
        i: Optional[np.ndarray] = None,
        j: Optional[np.ndarray] = None,
        insert_q: Optional[np.ndarray] = None,
    ) -> None:
        self._two, self._i, self._j = two, i, j
        self._ins = insert_q
        self._ptr = 0
        self._iptr = 0

    def removal_draws(self) -> Draws:
        k = self._ptr
        self._ptr += 1
        return self._two[k], self._i[k], self._j[k]

    def removal_redraws(self, rows) -> Draws:
        raise RuntimeError(
            "explicit choice stream hit an empty-queue redraw; "
            "use a larger prefill so the execution stays prefixed"
        )

    def insert_queues(self) -> np.ndarray:
        k = self._iptr
        self._iptr += 1
        return self._ins[k]

    @staticmethod
    def _rows(arr: np.ndarray, start: int, b: int) -> np.ndarray:
        if start + b > len(arr):
            raise IndexError("explicit choice stream exhausted")
        return arr[start : start + b]

    def insert_block(self, b: int) -> np.ndarray:
        k = self._iptr
        self._iptr += b
        return self._rows(self._ins, k, b)

    def removal_block(self, b: int) -> Draws:
        k = self._ptr
        self._ptr += b
        return tuple(self._rows(a, k, b) for a in (self._two, self._i, self._j))

    def step_block(self, b: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.insert_block(b), *self.removal_block(b))


class ReferenceMirror:
    """Byte-exact mirror of ``R`` reference processes' RNG streams.

    Replica ``r`` owns one generator seeded like the reference run and
    one :class:`~repro.core.policies.RemovalChooser` sharing it — the
    same object layout :class:`~repro.core.process.SequentialProcess`
    builds — and every source method consumes draws in exactly the order
    the reference implementation does.  Driving the vector engine with
    this source therefore reproduces each reference replica's execution
    *exactly* (labels, queues, ranks, and redraw counts), which is the
    strongest form of parity the suite checks.
    """

    def __init__(
        self,
        n: int,
        beta: float,
        seeds: Sequence[SeedLike],
        insert_probs: Optional[np.ndarray] = None,
    ) -> None:
        self.n = n
        self.replicas = len(seeds)
        self._gens: List[np.random.Generator] = [as_generator(s) for s in seeds]
        self._choosers = [RemovalChooser(n, beta, g) for g in self._gens]
        self._cuts = insert_cuts(insert_probs)

    def insert_queues(self) -> np.ndarray:
        out = np.empty(self.replicas, dtype=np.int64)
        if self._cuts is None:
            for r, gen in enumerate(self._gens):
                out[r] = gen.integers(self.n)
        else:
            for r, gen in enumerate(self._gens):
                out[r] = np.searchsorted(self._cuts, gen.random(), side="right")
        return out

    def removal_draws(self) -> Draws:
        two = np.empty(self.replicas, dtype=bool)
        i = np.empty(self.replicas, dtype=np.int64)
        j = np.zeros(self.replicas, dtype=np.int64)
        for r, chooser in enumerate(self._choosers):
            t, a, b = chooser.draw()
            two[r], i[r] = t, a
            if t:
                j[r] = b
        return two, i, j

    def removal_redraws(self, count_or_rows) -> Draws:
        rows = (
            range(count_or_rows)
            if isinstance(count_or_rows, int)
            else list(count_or_rows)
        )
        two = np.empty(len(rows), dtype=bool)
        i = np.empty(len(rows), dtype=np.int64)
        j = np.zeros(len(rows), dtype=np.int64)
        for k, r in enumerate(rows):
            t, a, b = self._choosers[r].draw()
            two[k], i[k] = t, a
            if t:
                j[k] = b
        return two, i, j

    # One-step blocks: each replica's generator serves its insert draw,
    # then its removal draw, as in the reference step.  A redraw that
    # follows (the block kernel falls back per step) comes next in the
    # same generator, just as it would in the reference.

    def insert_block(self, b: int) -> np.ndarray:
        return self.insert_queues()[None]

    def removal_block(self, b: int) -> Draws:
        return tuple(a[None] for a in self.removal_draws())

    def step_block(self, b: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.insert_block(1), *self.removal_block(1))

    def dchoice_draws(self, d: int) -> np.ndarray:
        out = np.empty((self.replicas, d), dtype=np.int64)
        for r, gen in enumerate(self._gens):
            for k in range(d):
                out[r, k] = gen.integers(self.n)
        return out

    def dchoice_redraws(self, rows, d: int) -> np.ndarray:
        rows = range(rows) if isinstance(rows, int) else list(rows)
        out = np.empty((len(rows), d), dtype=np.int64)
        for k, r in enumerate(rows):
            for c in range(d):
                out[k, c] = self._gens[r].integers(self.n)
        return out

"""The replica-batched process engine.

``R`` independent copies of a paper process advance in *lockstep*: one
step of the batch performs step ``t`` of every replica at once, with all
per-replica state held in rectangular numpy arrays —

* ``buf``  — ``(R, n, cap)`` ring buffers, one FIFO of labels per
  (replica, queue).  Labels enter in increasing order (the labelled
  process inserts consecutive integers; the exponential process inserts
  global ranks), so each buffer is sorted by construction and its head
  is the queue's top element.
* ``head``/``size``/``tops`` — ``(R, n)`` ring positions, occupancies
  and top labels.
* a :class:`~repro.vector.index.BatchedRankIndex` holding the
  present-label sets of all replicas for exact rank-cost accounting.

Each state array also has a 1-D view, and the per-step kernel addresses
replica ``r``'s queue ``q`` as ``lin = r * n + q`` (and its ring slot as
``lin * cap + pos``): a 1-D gather or scatter of ``R`` elements costs
about half of the equivalent 2-D fancy index, and a lockstep step is
made of a few dozen such ``R``-element operations.

The (1+beta) removal kernel is fully vectorized: gather the two
candidate tops of every replica (empty queues read as ``+inf``), pick
the smaller where the beta-coin came up heads, and redraw only the
replicas whose chosen queues were all empty — mirroring the reference
semantics of :meth:`repro.core.process.SequentialProcess.remove`
decision-for-decision, so that a replica driven by the same RNG stream
removes the same label at every step.

The steady state advances in *blocks* of up to one rank chunk of steps
where that is provably exact (:meth:`VectorProcessBase._block_step`).
A block is exact when every queue's count as a removal candidate in it
(``i`` and ``j`` draws alike) is below the queue's size; an empty queue
always fails.  No queue can then run dry inside the block: no pop
redraws, no append changes a top, and every pop's successor is already
queued at block start.  So the block's appends go first, in one grouped
scatter, and its pops run in a short loop of gathers.  A block that
fails the test runs the per-step kernel on the *same* draws, so choice
sources never peek or rewind.  Sources serve block draws that consume
their generators exactly like the per-step calls they replace; the
:class:`~repro.vector.chooser.ReferenceMirror` serves one-step blocks,
which keeps the reference trace-parity suite on the block kernel.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.vector.index import BatchedRankIndex
from repro.vector.records import VectorRunResult

#: Sentinel top for an empty queue — larger than any real label.
EMPTY = np.iinfo(np.int64).max

#: Removal steps per deferred-rank chunk.  The kernel advances queue
#: state step by step, but rank costs are reconstructed one chunk at a
#: time (one batched index query per chunk), which amortizes the
#: per-call overhead of the rank index across CHUNK_STEPS steps.  At
#: most 64: :func:`_earlier_smaller` keeps a chunk's steps in one
#: uint64 bitmask.
CHUNK_STEPS = 64

#: ``_BELOW[t]`` has bits ``0..t-1`` set: the steps before step ``t``.
_BELOW = np.array([(1 << t) - 1 for t in range(64)], dtype=np.uint64)
_ONE = np.uint64(1)


def _pow2_at_least(x: int) -> int:
    return 1 << max(4, math.ceil(math.log2(max(1, x))))


def queue_key_type(n_queues: int) -> type:
    """Smallest dtype for queue ids: ``uint16`` (NumPy radix-sorts it
    stably) when they fit, else ``int64``."""
    return np.uint16 if n_queues <= 1 << 16 else np.int64


def _group_by_key(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stable grouping of ``keys`` by value.

    Returns ``(order, rank)``: ``order`` lists the element indices
    grouped by key, each group in index order, and ``rank[p]`` is how
    many earlier elements share element ``order[p]``'s key.  ``uint16``
    keys take NumPy's stable radix sort.
    """
    order = np.argsort(keys, kind="stable")
    grouped = keys[order]
    index = np.arange(len(keys), dtype=np.int64)
    starts = np.zeros(len(keys), dtype=np.int64)
    first = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    starts[first] = first
    np.maximum.accumulate(starts, out=starts)
    return order, index - starts


def _earlier_smaller(removed: np.ndarray) -> np.ndarray:
    """``out[t, r] = #{s < t : removed[s, r] < removed[t, r]}``.

    ``removed`` is ``(k, R)`` with ``k <= 64`` and distinct labels in
    each column.  Walk each column in label order, OR-ing step bits:
    before a label is reached, the mask holds exactly the steps with
    smaller labels, and the answer is the popcount of that mask
    restricted to the earlier steps — ``O(k R)`` work where the direct
    pairwise comparison is ``O(k^2 R)``.
    """
    order = np.argsort(removed, axis=0)
    step_bits = _ONE << order.astype(np.uint64)
    smaller = np.bitwise_or.accumulate(step_bits, axis=0)
    smaller ^= step_bits  # inclusive -> exclusive: labels strictly below
    smaller &= _BELOW[order]
    out = np.empty(removed.shape, dtype=np.int64)
    np.put_along_axis(out, order, np.bitwise_count(smaller), axis=0)
    return out


class VectorProcessBase:
    """Shared queue state and the batched (1+beta) removal kernel.

    Subclasses add their insertion rule (labelled, round-robin) or their
    generation phase (exponential).  ``source`` is a choice source from
    :mod:`repro.vector.chooser`.
    """

    def __init__(self, n_queues: int, capacity: int, replicas: int, source) -> None:
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.n_queues = n_queues
        self.capacity = capacity
        self.replicas = replicas
        self._source = source
        self._index = BatchedRankIndex(replicas, capacity)
        self._rows = np.arange(replicas, dtype=np.int64)
        #: Flat offset of each replica's row in the ``(R, n)`` arrays.
        self._row_base = self._rows * n_queues
        self._buf: Optional[np.ndarray] = None
        self._head: Optional[np.ndarray] = None
        self._size: Optional[np.ndarray] = None
        #: (R, n) current top label per queue, EMPTY where empty —
        #: maintained incrementally so the removal kernel compares tops
        #: with single gathers.
        self._tops = np.full((replicas, n_queues), EMPTY, dtype=np.int64)
        self._cap = 0
        self._capmask = 0
        self._capshift = 0
        self._bind_views()
        #: False only while every queue of every replica is known to be
        #: non-empty.  Then no top can be EMPTY, so the kernel skips the
        #: empty-queue checks: appends never change a top, and removal
        #: needs no redraw test.  Set by any pop that empties a queue;
        #: re-derived from the sizes once per chunk, and cleared by an
        #: exact block (which leaves every queue non-empty).
        self._may_have_empty = True
        #: Upper bound on the current max queue size (grows by the most
        #: labels an append or a block adds to one queue, re-tightened
        #: only when it reaches the ring capacity),
        #: so the append hot path checks a scalar instead of scanning.
        self._watermark = 0
        self._removal_steps = 0
        #: Per-replica count of removal redraws forced by empty queues.
        self.empty_redraws = np.zeros(replicas, dtype=np.int64)

    # -- state inspection ------------------------------------------------

    @property
    def present_count(self) -> int:
        """Labels currently present (equal across replicas, by lockstep)."""
        return self._index.present_count

    @property
    def removal_steps(self) -> int:
        """Removals performed so far (per replica)."""
        return self._removal_steps

    def queue_sizes(self) -> np.ndarray:
        """Current ``(R, n)`` queue occupancies (a copy)."""
        if self._size is None:
            return np.zeros((self.replicas, self.n_queues), dtype=np.int64)
        return self._size.copy()

    def top_labels(self) -> np.ndarray:
        """``(R, n)`` label on top of each queue (``EMPTY`` where empty)."""
        return self._tops.copy()

    def top_rank_profile(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-replica ``(max, mean)`` rank over all non-empty queue tops.

        The max is the Corollary 1 quantity; both are exact (computed
        against the current present-label sets).
        """
        tops = self._tops
        counts = self._index.count_leq_grid(np.where(tops == EMPTY, 0, tops))
        nonempty = self._size > 0 if self._size is not None else np.zeros_like(tops, bool)
        ranks = np.where(nonempty, counts, 0)
        occupied = np.maximum(nonempty.sum(axis=1), 1)
        return ranks.max(axis=1), ranks.sum(axis=1) / occupied

    # -- buffer management ----------------------------------------------

    def _bind_views(self) -> None:
        """Point the flat views at the state arrays.

        Every array is allocated C-contiguous, so each ``reshape(-1)`` is
        a view; call this again whenever an array is replaced.
        """
        self._tops_flat = self._tops.reshape(-1)
        if self._buf is not None:
            self._buf_flat = self._buf.reshape(-1)
            self._head_flat = self._head.reshape(-1)
            self._size_flat = self._size.reshape(-1)

    def _set_capacity(self, cap: int) -> None:
        self._cap = cap
        self._capmask = cap - 1
        self._capshift = cap.bit_length() - 1
        #: Flat slot of each ring's position 0.
        self._ring_base = np.arange(self._tops.size, dtype=np.int64) << self._capshift

    def _alloc_from_assignment(self, assign: np.ndarray) -> None:
        """Build the ring buffers from an ``(R, m)`` queue assignment.

        ``assign[r, t]`` is the queue receiving label ``t`` in replica
        ``r``; labels ``0..m-1`` are laid out in increasing order within
        each queue (a stable grouping sort per replica).  Queue ids sort
        as ``uint16`` keys when they fit, which takes NumPy's radix
        path; every temporary is one replica's ``(m,)`` row.
        """
        replicas, m = assign.shape
        n = self.n_queues
        counts = np.empty((replicas, n), dtype=np.int64)
        for r in range(replicas):
            counts[r] = np.bincount(assign[r], minlength=n)
        max_size = int(counts.max()) if m else 0
        cap = _pow2_at_least(max_size + 8 + 4 * math.isqrt(max_size + 1))
        self._buf = np.zeros((replicas, n, cap), dtype=np.int64)
        self._head = np.zeros((replicas, n), dtype=np.int64)
        self._size = counts
        self._set_capacity(cap)
        self._watermark = max_size
        queue_slots = np.arange(n, dtype=np.int64) * cap
        key_type = queue_key_type(n)
        for r in range(replicas):
            keys = np.ascontiguousarray(assign[r], dtype=key_type)
            # The rank-th label of queue q lands in slot q * cap + rank.
            order, rank = _group_by_key(keys)
            self._buf[r].reshape(-1)[np.repeat(queue_slots, counts[r]) + rank] = order
        self._tops = np.where(counts > 0, self._buf[:, :, 0], EMPTY)
        self._may_have_empty = bool(counts.min() == 0)
        self._bind_views()

    def _grow(self) -> None:
        """Double ring capacity, re-linearizing every queue to head 0."""
        cap = self._cap
        self._rotate_to_front(slice(None))
        new = np.zeros((self.replicas, self.n_queues, 2 * cap), dtype=np.int64)
        new[:, :, :cap] = self._buf
        self._buf = new
        self._set_capacity(2 * cap)
        self._bind_views()

    def _rotate_to_front(self, cells) -> None:
        """Re-linearize the rings of flat queues ``cells`` (an index
        array or a slice) to head 0."""
        rings = self._buf.reshape(-1, self._cap)
        order = (self._head_flat[cells, None] + np.arange(self._cap)) & self._capmask
        rings[cells] = np.take_along_axis(rings[cells], order, axis=1)
        self._head_flat[cells] = 0

    def _reserve(self, b: int) -> None:
        """Make room for ``b`` more labels in every queue."""
        if self._watermark + b > self._cap:
            actual = int(self._size.max())
            while actual + b > self._cap:
                self._grow()
            self._watermark = actual
        self._watermark += b

    def _append(self, queues: np.ndarray, label: int) -> None:
        """Append ``label`` to per-replica ``queues`` (one per replica)."""
        self._reserve(1)
        lin = self._row_base + queues
        sizes = self._size_flat[lin]
        pos = (self._head_flat[lin] + sizes) & self._capmask
        self._buf_flat[(lin << self._capshift) + pos] = label
        self._size_flat[lin] = sizes + 1
        # Labels enter in increasing order, so the top changes only when
        # the queue was empty (top EMPTY, the one value above label).
        if self._may_have_empty:
            tops = self._tops_flat
            tops[lin] = np.minimum(tops[lin], label)

    def _tops_at(self, rows: np.ndarray, queues: np.ndarray) -> np.ndarray:
        """Top label of ``queues[k]`` in replica ``rows[k]`` (EMPTY if none)."""
        return self._tops[rows, queues]

    # -- the batched (1+beta) removal kernel -----------------------------

    def _choose_removal_queues(self, draws=None) -> np.ndarray:
        """One (1+beta) queue choice per replica, redrawing on empties.

        ``draws`` is this step's ``(two, i, j)`` when already taken from
        a block; by default the step draws from the source.
        """
        base, tops = self._row_base, self._tops_flat
        two, i, j = self._source.removal_draws() if draws is None else draws
        ti = tops[base + i]
        tj = tops[base + j]
        better_j = two & (tj < ti)
        pick = np.where(better_j, j, i)
        if not self._may_have_empty:
            return pick
        # The chosen queue's top is EMPTY iff both candidates were empty
        # (or the single candidate was): tj < ti is false when both are
        # EMPTY, so where(better_j, tj, ti) is the chosen top.
        empty = np.where(better_j, tj, ti) == EMPTY
        while empty.any():
            self.empty_redraws += empty
            sub = np.nonzero(empty)[0]
            two_s, i_s, j_s = self._source.removal_redraws(sub)
            ti_s = self._tops_at(sub, i_s)
            tj_s = self._tops_at(sub, j_s)
            better_s = two_s & (tj_s < ti_s)
            pick[sub] = np.where(better_s, j_s, i_s)
            still = np.where(better_s, tj_s, ti_s) == EMPTY
            empty = np.zeros_like(empty)
            empty[sub] = still
        return pick

    def _pop_step(self, draws=None) -> Tuple[np.ndarray, np.ndarray]:
        """One (1+beta) pop in every replica — queue state only.

        Returns ``(labels, queues)``; the rank index is *not* updated
        (callers either update it immediately or defer a whole chunk).
        ``draws`` is passed on to :meth:`_choose_removal_queues`.
        """
        pick = self._choose_removal_queues(draws)
        lin = self._row_base + pick
        tops = self._tops_flat
        # A queue's head is its top, so the popped label is read from tops.
        labels = tops[lin]
        heads = self._head_flat[lin] + 1
        sizes = self._size_flat[lin] - 1
        self._head_flat[lin] = heads
        self._size_flat[lin] = sizes
        successor = self._buf_flat[(lin << self._capshift) + (heads & self._capmask)]
        if not self._may_have_empty and sizes.min() > 0:
            tops[lin] = successor
        else:
            tops[lin] = np.where(sizes > 0, successor, EMPTY)
            self._may_have_empty = True
        self._removal_steps += 1
        return labels, pick

    # -- the block kernel ------------------------------------------------

    def _block_step(
        self,
        out: np.ndarray,
        label: int,
        lin_ins: np.ndarray,
        two: np.ndarray,
        lin_i: np.ndarray,
        lin_j: np.ndarray,
    ) -> Optional[np.ndarray]:
        """``b`` insert+remove steps at once, when that is provably exact.

        Step ``t`` appends ``label + t`` to flat queue ``lin_ins[t, r]``
        and pops the better of ``lin_i[t, r]`` / ``lin_j[t, r]`` (the
        ``two`` coin gating ``j``); the popped labels go to ``out[t]``.

        The block is exact when every queue's count as a removal
        candidate in it is below the queue's size (an empty queue always
        fails).  Then no queue runs dry, so no pop redraws and no append
        changes a top, and every pop's successor is already queued at
        block start — so all ``b * R`` appends go first, in one grouped
        scatter, and the pops follow in a short loop that tracks each
        head as a flat buffer slot.  Sizes and heads are settled once at
        the end.  Returns the ``(b, R)`` flat queues popped, or ``None``
        — with nothing changed — when the block is not exact.
        """
        cells = self._size_flat.size
        seen = np.bincount(lin_i.reshape(-1), minlength=cells)
        seen += np.bincount(lin_j.reshape(-1), minlength=cells)
        if not (seen < self._size_flat).all():
            return None
        b, replicas = lin_ins.shape
        keys = lin_ins.reshape(-1)  # element t * R + r carries label + t
        order, rank = _group_by_key(keys.astype(queue_key_type(cells)))
        self._reserve(int(rank.max()) + 1)
        head, buf, tops = self._head_flat, self._buf_flat, self._tops_flat
        mask = self._capmask
        # A head slot may not step past its ring's end inside the block:
        # rotate each ring that could wrap so its head is at position 0.
        pos = head & mask
        wrap = np.flatnonzero(pos + seen > mask)
        if len(wrap):
            self._rotate_to_front(wrap)
            pos[wrap] = 0
        slots = self._ring_base + pos

        dest = keys[order]
        tail = (head[dest] + self._size_flat[dest] + rank) & mask
        buf[self._ring_base[dest] + tail] = label + order // replicas

        gated = not two.all()
        picks = []
        for t in range(b):
            li, lj = lin_i[t], lin_j[t]
            better = tops[lj] < tops[li]
            if gated:
                better &= two[t]
            lin = np.where(better, lj, li)
            picks.append(lin)
            out[t] = tops[lin]
            slot = slots[lin] + 1
            slots[lin] = slot
            tops[lin] = buf[slot]
        picks = np.stack(picks)
        taken = np.bincount(picks.reshape(-1), minlength=cells)
        head += taken
        self._size_flat += np.bincount(keys, minlength=cells) - taken
        self._may_have_empty = False
        self._removal_steps += b
        return picks

    def _removal_step(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove one element in every replica.

        Returns ``(labels, ranks, queues)``, each ``(R,)``.
        """
        if self._index.present_count == 0:
            raise LookupError("remove from empty process")
        labels, pick = self._pop_step()
        ranks = self._index.remove_trusted(labels)
        return labels, ranks, pick

    # -- deferred chunk rank accounting ----------------------------------

    def _flush_chunk(
        self, removed: np.ndarray, insert_start: int, insert_count: int
    ) -> np.ndarray:
        """Exact ranks for one chunk of deferred removals; syncs the index.

        ``removed`` is ``(k, R)`` — the labels popped at the chunk's
        steps, in order.  During the chunk the index still holds the
        chunk-*start* present sets, so the rank paid at step ``t`` is

            count_leq(start, x_t)                       (batched query)
          + #{chunk inserts before step t with label <= x_t}   (closed form:
              inserts are the consecutive labels insert_start + i, one
              per step, inserted *before* removal i)
          - #{chunk removals s < t with x_s < x_t}      (_earlier_smaller)

        which is exactly the rank :class:`~repro.core.rank.RankOracle`
        would have reported step by step.
        """
        k = removed.shape[0]
        ranks = self._index.count_leq_grid(removed.T).T
        if insert_count:
            limit = np.minimum(np.arange(1, k + 1), insert_count)[:, None]
            ranks += np.clip(removed - insert_start + 1, 0, limit)
        ranks -= _earlier_smaller(removed)
        if self._may_have_empty:
            self._may_have_empty = bool(self._size.min() == 0)
        self._index.apply_chunk(insert_start, insert_count, removed)
        return ranks

    def _on_remove(self, queues: np.ndarray) -> None:
        """Hook for subclasses (e.g. round-robin virtual-load counting)."""

    def run_drain(
        self, removals: int, sample_every: Optional[int] = None
    ) -> VectorRunResult:
        """Remove ``removals`` elements per replica; no inserts.

        With ``sample_every`` set, the top-rank profile is snapshotted
        every that many removals.
        """
        if removals < 0:
            raise ValueError(f"removals must be non-negative, got {removals}")
        ranks = np.empty((removals, self.replicas), dtype=np.int32)
        samples = [] if sample_every else None
        removed = np.empty((CHUNK_STEPS, self.replicas), dtype=np.int64)
        live = self._index.present_count
        done = 0
        while done < removals:
            k = min(CHUNK_STEPS, removals - done)
            if sample_every:
                # Align chunk ends with sample points so the index is
                # synced when the top-rank profile is taken.
                k = min(k, sample_every - done % sample_every)
            if live == 0:
                raise LookupError("remove from empty process")
            k = min(k, live)
            for s in range(k):
                removed[s], pick = self._pop_step()
                self._on_remove(pick)
            live -= k
            ranks[done : done + k] = self._flush_chunk(removed[:k], 0, 0)
            done += k
            if sample_every and done % sample_every == 0:
                samples.append((done, *self.top_rank_profile()))
        return self._package(ranks, samples)

    def _package(self, ranks: np.ndarray, samples) -> VectorRunResult:
        result = VectorRunResult(ranks=ranks, empty_redraws=self.empty_redraws.copy())
        if samples:
            result.sample_steps = np.asarray([s[0] for s in samples], dtype=np.int64)
            result.max_top_ranks = np.stack([s[1] for s in samples])
            result.mean_top_ranks = np.stack([s[2] for s in samples])
        return result

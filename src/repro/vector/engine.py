"""The replica-batched process engine.

``R`` independent copies of a paper process advance in *lockstep*: one
step of the batch performs step ``t`` of every replica at once, with all
per-replica state held in rectangular numpy arrays —

* ``next`` — ``(R, W)`` successor links, one label window per replica:
  ``next[r, x & (W-1)]`` is the label after ``x`` in its queue.  Labels
  enter in increasing order (the labelled processes insert consecutive
  integers), so each queue is a sorted chain from its top.  ``W`` is a
  power of two covering the live label span, from the oldest present
  label to the newest one being linked, so no two live labels share a
  slot; when that span outgrows ``W``, the live links move to a window
  twice as wide (or wider).
* ``tops``/``last``/``size`` — ``(R, n)`` top labels, newest labels and
  occupancies.
* a :class:`~repro.vector.index.BatchedRankIndex` holding the
  present-label sets of all replicas for exact rank-cost accounting.

Each state array also has a 1-D view, and the per-step kernel addresses
replica ``r``'s queue ``q`` as ``lin = r * n + q`` (and the link of its
label ``x`` as ``r * W + (x & (W-1))``): a 1-D gather or scatter of
``R`` elements costs about half of the equivalent 2-D fancy index, and a
lockstep step is made of a few dozen such ``R``-element operations.
A pop is ``top = next[top]``; an append links ``next[last]``.

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
redraws, no append changes a top, and no pop passes a queue's
pre-block labels.  So the block's links are written first, in one
grouped scatter, and its pops run in a short loop of gathers.  A block that
fails the test runs the per-step kernel on the *same* draws, so choice
sources never peek or rewind.  Sources serve block draws that consume
their generators exactly like the per-step calls they replace; the
:class:`~repro.vector.chooser.ReferenceMirror` serves one-step blocks,
which keeps the reference trace-parity suite on the block kernel.
"""

from __future__ import annotations

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


#: Largest capacity the int32 successor links can label.
MAX_CAPACITY = 2**31 - 1


def queue_key_type(n_queues: int) -> type:
    """Smallest dtype for queue ids: ``uint16`` (NumPy radix-sorts it
    stably) when they fit, else ``int64``."""
    return np.uint16 if n_queues <= 1 << 16 else np.int64


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
        if capacity > MAX_CAPACITY:
            raise ValueError(
                f"capacity {capacity} exceeds {MAX_CAPACITY} (2**31 - 1), "
                "the largest label an int32 successor link holds"
            )
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
        #: Block element ``t * R + r`` carries the block's ``t``-th label.
        self._elem_step = np.repeat(np.arange(CHUNK_STEPS, dtype=np.int64), replicas)
        self._removal_steps = 0
        #: Per-replica count of removal redraws forced by empty queues.
        self.empty_redraws = np.zeros(replicas, dtype=np.int64)
        self._alloc_from_assignment(np.empty((replicas, 0), dtype=np.int64))

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
        nonempty = self._size > 0
        ranks = np.where(nonempty, counts, 0)
        occupied = np.maximum(nonempty.sum(axis=1), 1)
        return ranks.max(axis=1), ranks.sum(axis=1) / occupied

    # -- queue state -----------------------------------------------------

    def _alloc_from_assignment(self, assign: np.ndarray) -> None:
        """Build the queues from an ``(R, m)`` queue assignment.

        ``assign[r, t]`` is the queue receiving label ``t`` in replica
        ``r``.  A stable sort of each replica's queue ids lists its
        labels queue by queue, each queue in increasing order, so every
        label links to the one after it in that listing.  Queue ids sort
        as ``uint16`` keys when they fit, which takes NumPy's radix
        path; every temporary is one replica's ``(m,)`` row.
        """
        replicas, m = assign.shape
        n = self.n_queues
        self._size = np.empty((replicas, n), dtype=np.int64)
        #: (R, n) current top label per queue, EMPTY where empty —
        #: maintained incrementally so the removal kernel compares tops
        #: with single gathers.
        self._tops = np.full((replicas, n), EMPTY, dtype=np.int64)
        #: (R, n) newest label per queue; stale where the queue is empty.
        self._last = np.zeros((replicas, n), dtype=np.int64)
        links = np.zeros((replicas, 1 << (m + CHUNK_STEPS - 1).bit_length()), dtype=np.int32)
        key_type = queue_key_type(n)
        for r in range(replicas):
            keys = np.ascontiguousarray(assign[r], dtype=key_type)
            counts = np.bincount(keys, minlength=n)
            self._size[r] = counts
            if not m:
                continue
            order = np.argsort(keys, kind="stable")
            # Labels 0..m-1 sit in the window unmasked.  A queue's newest
            # label links on to the next queue's top, a link no pop uses.
            links[r, order[:-1]] = order[1:]
            ends = np.cumsum(counts)
            filled = counts > 0
            self._tops[r, filled] = order[ends[filled] - counts[filled]]
            self._last[r, filled] = order[ends[filled] - 1]
        #: Lower bound on the oldest present label; it never decreases.
        self._oldest = 0
        #: False only while every queue of every replica is known to be
        #: non-empty.  Then no top can be EMPTY, so the kernel skips the
        #: empty-queue checks: appends never change a top, and removal
        #: needs no redraw test.  Set by any pop that empties a queue;
        #: re-derived from the sizes once per chunk, and cleared by an
        #: exact block (which leaves every queue non-empty).
        self._may_have_empty = bool(self._size.min() == 0)
        self._tops_flat = self._tops.reshape(-1)
        self._size_flat = self._size.reshape(-1)
        self._last_flat = self._last.reshape(-1)
        self._set_links(links)

    def _set_links(self, links: np.ndarray) -> None:
        """Install an ``(R, W)`` link window and its flat addressing."""
        self._next = links
        self._next_flat = links.reshape(-1)
        self._window = links.shape[1]
        self._wmask = self._window - 1
        #: Flat offset of each replica's window, and of each cell's.
        self._next_base = self._rows * self._window
        self._cell_base = np.repeat(self._next_base, self.n_queues)

    def _cover(self, label: int, count: int) -> None:
        """Make the window hold labels ``label .. label + count - 1``.

        Every present label lies in ``[_oldest, label)``.  The cached
        bound is refreshed from the tops only when it is too low to
        pass, and the window is widened only when the refreshed span
        still does not fit.
        """
        end = label + count
        if end - self._oldest <= self._window:
            return
        self._oldest = min(int(self._tops.min()), label)
        span = end - self._oldest
        if span <= self._window:
            return
        live = np.arange(self._oldest, label, dtype=np.int64)
        links = np.zeros((self.replicas, 1 << (span - 1).bit_length()), dtype=np.int32)
        links[:, live & (links.shape[1] - 1)] = self._next[:, live & self._wmask]
        self._set_links(links)

    def _append(self, queues: np.ndarray, label: int) -> None:
        """Append ``label`` to per-replica ``queues`` (one per replica)."""
        self._cover(label, 1)
        lin = self._row_base + queues
        sizes = self._size_flat[lin]
        if self._may_have_empty:
            # An empty queue has no label to link from; its write lands
            # on the new label's own slot, which its successor overwrites.
            prev = np.where(sizes > 0, self._last_flat[lin], label)
            # Labels enter in increasing order, so the top changes only
            # when the queue was empty (top EMPTY, the one value above label).
            tops = self._tops_flat
            tops[lin] = np.minimum(tops[lin], label)
        else:
            prev = self._last_flat[lin]
        self._next_flat[self._next_base + (prev & self._wmask)] = label
        self._last_flat[lin] = label
        self._size_flat[lin] = sizes + 1

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
        sizes = self._size_flat[lin] - 1
        self._size_flat[lin] = sizes
        successor = self._next_flat[self._next_base + (labels & self._wmask)]
        if not self._may_have_empty and sizes.min() > 0:
            tops[lin] = successor
        else:
            # Widened first: int32 links would wrap EMPTY to -1.
            tops[lin] = np.where(sizes > 0, successor.astype(np.int64), EMPTY)
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
        lin_ij: np.ndarray,
    ) -> Optional[np.ndarray]:
        """``b`` insert+remove steps at once, when that is provably exact.

        Step ``t`` appends ``label + t`` to flat queue ``lin_ins[t, r]``
        and pops the better of ``lin_ij[0, t, r]`` / ``lin_ij[1, t, r]``
        (the ``two`` coin gating the second); the popped labels go to
        ``out[t]``.

        The block is exact when every queue's count as a removal
        candidate in it is below the queue's size (an empty queue always
        fails).  Then no queue runs dry, so no pop redraws and no append
        changes a top, and no pop passes a queue's pre-block labels —
        so all ``b * R`` links are written first, in one grouped
        scatter, and the pops follow in a short loop of gathers.  Sizes
        are settled once at the end.  Returns the ``(b, R)`` flat
        queues popped, or ``None`` — with nothing changed — when the
        block is not exact.
        """
        cells = self._size_flat.size
        if not (np.bincount(lin_ij.reshape(-1), minlength=cells) < self._size_flat).all():
            return None
        b, replicas = lin_ins.shape
        self._cover(label, b)
        nxt, mask = self._next_flat, self._wmask
        # Group the appends by queue, each group in label order: every
        # label links from the one before it, a group's first from the
        # queue's newest label, and a group's last becomes the newest.
        keys = lin_ins.reshape(-1)  # element t * R + r carries label + t
        order = np.argsort(keys.astype(queue_key_type(cells)), kind="stable")
        dest = keys[order]
        labels = self._elem_step[order]
        labels += label
        starts = np.empty(len(dest), dtype=bool)
        starts[0] = True
        np.not_equal(dest[1:], dest[:-1], out=starts[1:])
        first = np.flatnonzero(starts)
        prev = np.empty_like(labels)
        prev[1:] = labels[:-1]
        prev[first] = self._last_flat[dest[first]]
        nxt[self._cell_base[dest] + (prev & mask)] = labels
        newest = np.append(first[1:], len(dest)) - 1
        self._last_flat[dest[newest]] = labels[newest]

        tops, base = self._tops_flat, self._next_base
        lin_i, lin_j = lin_ij
        gated = not two.all()
        picks = []
        for t in range(b):
            li, lj = lin_i[t], lin_j[t]
            better = tops[lj] < tops[li]
            if gated:
                better &= two[t]
            lin = np.where(better, lj, li)
            picks.append(lin)
            popped = tops[lin]
            out[t] = popped
            tops[lin] = nxt[base + (popped & mask)]
        picks = np.stack(picks)
        self._size_flat += np.bincount(keys, minlength=cells) - np.bincount(
            picks.reshape(-1), minlength=cells
        )
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

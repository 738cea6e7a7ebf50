"""Batched exact rank accounting across replicas.

:class:`BatchedRankIndex` is the replica-parallel counterpart of
:class:`repro.core.rank.RankOracle`: it tracks which labels of
``[0, capacity)`` are present in each of ``R`` independent replicas and
answers "how many present labels are <= x" for batches of per-replica
query labels in one shot.

The structure is a bit-packed counting hierarchy:

* a presence *bitmap*, ``(R, n_blocks, WORDS)`` uint64 with
  ``BLOCK = 128`` labels per block — a partial-block count is two
  masked popcounts;
* per-block counts ``(R, n_blocks)``;
* per-superblock counts (``~sqrt(n_blocks)`` blocks each).

Point queries (:meth:`remove`, :meth:`ranks_of`) walk all three levels
with bounded gathers.  The batched grid query (:meth:`count_leq_grid`),
which the vector engine calls once per deferred-rank chunk for
thousands of labels at a time, instead builds a fresh block prefix-sum
per call — one cumsum amortized over the whole batch — so each query
costs just two small gathers (its block's prefix plus a two-word
popcount).  Both paths compute exactly the prefix count a Fenwick tree
would, reorganized for replica-batched access.

The index assumes *lockstep* use — each :meth:`insert_all` inserts one
label into every replica, each :meth:`remove` removes one (per-replica)
label everywhere — which is how the vector engine drives it, and which
keeps the per-replica present counts equal by construction.
"""

from __future__ import annotations

import math

import numpy as np

#: Labels per presence block.  Must be a multiple of 64 (bit-packed).
BLOCK = 128
_BLOCK_SHIFT = 7
_BLOCK_MASK = BLOCK - 1
_WORDS = BLOCK // 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _prefix_masks() -> np.ndarray:
    """``masks[w]`` keeps bits for in-block offsets ``0..w`` (inclusive)."""
    masks = np.zeros((BLOCK, _WORDS), dtype=np.uint64)
    for within in range(BLOCK):
        for word in range(_WORDS):
            kept = min(64, max(0, within - word * 64 + 1))
            masks[within, word] = (
                _ALL_ONES if kept == 64 else np.uint64((1 << kept) - 1)
            )
    return masks


_PREFIX_MASKS = _prefix_masks()
#: The two word columns of ``_PREFIX_MASKS``, for 1-D gathers.
_PREFIX_LO = np.ascontiguousarray(_PREFIX_MASKS[:, 0])
_PREFIX_HI = np.ascontiguousarray(_PREFIX_MASKS[:, 1])


class BatchedRankIndex:
    """Present-label sets and rank queries over ``R`` replicas.

    Parameters
    ----------
    replicas:
        Number of independent replicas ``R``.
    capacity:
        Size of the integer label universe ``[0, capacity)``, shared by
        all replicas (the vector processes insert the same consecutive
        labels everywhere; only *removals* diverge between replicas).
    """

    def __init__(self, replicas: int, capacity: int) -> None:
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.replicas = replicas
        self.capacity = capacity
        n_blocks = -(-capacity // BLOCK)
        per_super = max(1, math.isqrt(n_blocks))
        n_super = -(-n_blocks // per_super)
        self._n_blocks = n_blocks
        self._per_super = per_super
        self._bits = np.zeros((replicas, n_blocks, _WORDS), dtype=np.uint64)
        self._blocks = np.zeros((replicas, n_super * per_super), dtype=np.int64)
        self._supers = np.zeros((replicas, n_super), dtype=np.int64)
        # View for the superblock-windowed point query.
        self._blocks3 = self._blocks.reshape(replicas, n_super, per_super)
        # 1-D views and per-replica row offsets for the chunk path, which
        # addresses every level with one flat index (``row_base + i``).
        self._word_flat = self._bits.reshape(-1)
        self._blocks_flat = self._blocks.reshape(-1)
        self._supers_flat = self._supers.reshape(-1)
        self._count = 0
        self._rows = np.arange(replicas, dtype=np.int64)
        self._word_base = self._rows * (n_blocks * _WORDS)
        self._block_base = self._rows * self._blocks.shape[1]
        self._super_base = self._rows * n_super
        self._prefix_base = (self._rows * (n_blocks + 1))[:, None]
        self._super_offsets = np.arange(per_super, dtype=np.int64)
        self._super_ids = np.arange(n_super, dtype=np.int64)

    @property
    def present_count(self) -> int:
        """Labels currently present (identical across replicas, by lockstep)."""
        return self._count

    # -- presence ----------------------------------------------------------

    def _contains(self, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
        words = self._bits[rows, labels >> _BLOCK_SHIFT, (labels >> 6) & 1]
        return (words >> (labels & np.int64(63)).astype(np.uint64)) & np.uint64(1)

    # -- updates -----------------------------------------------------------

    def insert_all(self, label: int) -> None:
        """Mark ``label`` present in every replica (a lockstep insert)."""
        if not 0 <= label < self.capacity:
            raise ValueError(f"label {label} outside capacity {self.capacity}")
        block = label >> _BLOCK_SHIFT
        word = (label >> 6) & 1
        bit = np.uint64(1 << (label & 63))
        if self._bits[0, block, word] & bit:
            raise ValueError(f"label {label} already present")
        self._bits[:, block, word] |= bit
        self._blocks[:, block] += 1
        self._supers[:, block // self._per_super] += 1
        self._count += 1

    def bulk_fill(self, m: int) -> None:
        """Mark labels ``0..m-1`` present in every replica (prefill).

        Only valid on an empty index.
        """
        if self._count:
            raise ValueError("bulk_fill requires an empty index")
        if not 0 <= m <= self.capacity:
            raise ValueError(f"m must be in [0, {self.capacity}], got {m}")
        if m == 0:
            return
        flat = self._bits.reshape(self.replicas, -1)
        full_words, rem = divmod(m, 64)
        flat[:, :full_words] = _ALL_ONES
        if rem:
            flat[:, full_words] = np.uint64((1 << rem) - 1)
        full_blocks, brem = divmod(m, BLOCK)
        self._blocks[:, :full_blocks] = BLOCK
        if brem:
            self._blocks[:, full_blocks] = brem
        self._supers[:] = self._blocks3.sum(axis=2)
        self._count = m

    def remove(self, labels: np.ndarray) -> np.ndarray:
        """Remove one (per-replica) label everywhere; return its ranks.

        ``labels`` is an ``(R,)`` integer array, ``labels[r]`` the label
        leaving replica ``r``.  Returns the 1-based rank each label had
        among the labels present in its replica at the moment of removal
        — exactly :meth:`repro.core.rank.RankOracle.remove`, batched.
        """
        labels = np.asarray(labels)
        rows = self._rows
        if labels.shape != rows.shape:
            raise ValueError(f"expected ({self.replicas},) labels, got {labels.shape}")
        if np.any((labels < 0) | (labels >= self.capacity)):
            raise ValueError("label out of range")
        held = self._contains(rows, labels)
        if held.min() == 0:
            missing = int(np.nonzero(held == 0)[0][0])
            raise KeyError(
                f"label {int(labels[missing])} not present in replica {missing}"
            )
        return self.remove_trusted(labels)

    def remove_trusted(self, labels: np.ndarray) -> np.ndarray:
        """:meth:`remove` without validation — the engine's hot path.

        Callers must guarantee ``labels`` are in range and present (the
        engine does: removed labels come straight off its queue buffers).
        """
        rows = self._rows
        ranks = self._count_leq(rows, labels)
        blocks = labels >> _BLOCK_SHIFT
        bits = np.uint64(1) << (labels & np.int64(63)).astype(np.uint64)
        words = (labels >> 6) & 1
        self._bits[rows, blocks, words] &= ~bits
        self._blocks[rows, blocks] -= 1
        self._supers[rows, blocks // self._per_super] -= 1
        self._count -= 1
        return ranks

    def apply_chunk(
        self, insert_start: int, insert_count: int, removed: np.ndarray
    ) -> None:
        """Batch-apply one deferred chunk of lockstep updates.

        ``insert_count`` consecutive labels from ``insert_start`` become
        present in every replica, and ``removed`` — a ``(k, R)`` array of
        per-replica labels, column ``r`` holding ``k`` distinct labels —
        leaves.  Equivalent to ``insert_count`` calls to
        :meth:`insert_all` plus ``k`` calls to :meth:`remove` (sans rank
        return), collapsed into a handful of array operations.  Trusted:
        presence/absence is not validated.
        """
        if insert_count:
            stop = insert_start + insert_count
            if not 0 <= insert_start <= stop <= self.capacity:
                raise ValueError(
                    f"insert range [{insert_start}, {stop}) outside capacity"
                )
            flat = self._bits.reshape(self.replicas, -1)
            first_word, first_bit = divmod(insert_start, 64)
            last_word, last_bit = divmod(stop - 1, 64)
            if first_word == last_word:
                pattern = ((1 << (last_bit + 1)) - 1) & ~((1 << first_bit) - 1)
                flat[:, first_word] |= np.uint64(pattern)
            else:
                flat[:, first_word] |= np.uint64(((1 << 64) - 1) & ~((1 << first_bit) - 1))
                if last_word - first_word > 1:
                    flat[:, first_word + 1 : last_word] = _ALL_ONES
                flat[:, last_word] |= np.uint64((1 << (last_bit + 1)) - 1)
            first_block, last_block = insert_start >> _BLOCK_SHIFT, (stop - 1) >> _BLOCK_SHIFT
            for block in range(first_block, last_block + 1):
                added = min(stop, (block + 1) * BLOCK) - max(insert_start, block * BLOCK)
                self._blocks[:, block] += added
                self._supers[:, block // self._per_super] += added
            self._count += insert_count
        if removed is not None and removed.size:
            k = removed.shape[0]
            # One replica may clear several bits of one word, block or
            # superblock: the words need an unbuffered ``ufunc.at``; the
            # counts are a bincount over flat (replica, block) cells.
            keep = ~(np.uint64(1) << (removed & np.int64(63)).astype(np.uint64))
            words = (removed >> 6) + self._word_base
            np.bitwise_and.at(self._word_flat, words.ravel(), keep.ravel())
            blocks = removed >> _BLOCK_SHIFT
            self._blocks_flat -= np.bincount(
                (blocks + self._block_base).ravel(), minlength=self._blocks_flat.size
            )
            self._supers_flat -= np.bincount(
                (blocks // self._per_super + self._super_base).ravel(),
                minlength=self._supers_flat.size,
            )
            self._count -= k

    # -- queries -----------------------------------------------------------

    def _partial_block_counts(
        self, rows: np.ndarray, blocks: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Count of present labels in each label's own block at or below it."""
        words = self._bits[rows, blocks]
        masked = words & _PREFIX_MASKS[labels & _BLOCK_MASK]
        return np.bitwise_count(masked).sum(axis=1, dtype=np.int64)

    def _count_leq(self, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Count of present labels ``<= labels[k]`` in replica ``rows[k]``.

        The point-query path: bounded windows at every level (used for
        single removals and presence-checked rank reads).
        """
        blocks = labels >> _BLOCK_SHIFT
        supers = blocks // self._per_super
        counts = self._partial_block_counts(rows, blocks, labels)
        # Whole blocks below, within the label's superblock.
        bvals = self._blocks3[rows, supers]
        counts += (
            bvals * (self._super_offsets < (blocks - supers * self._per_super)[:, None])
        ).sum(axis=1)
        # Whole superblocks below.
        counts += (self._supers[rows] * (self._super_ids < supers[:, None])).sum(axis=1)
        return counts

    def ranks_of(self, labels: np.ndarray) -> np.ndarray:
        """Rank of each (per-replica, present) label, without removing it."""
        labels = np.asarray(labels)
        rows = self._rows
        if self._contains(rows, labels).min() == 0:
            raise KeyError("label not present")
        return self._count_leq(rows, labels)

    def count_leq_grid(self, labels: np.ndarray) -> np.ndarray:
        """Count present labels ``<= labels[r, q]`` for an ``(R, Q)`` grid.

        Labels need not be present (this is the batched
        :meth:`~repro.core.rank.RankOracle.rank_of_value`).  The batch
        path: one block prefix-sum per call, then two flat gathers per
        query — what the engine's deferred-rank flush and the top-rank
        snapshots use.
        """
        labels = np.asarray(labels)
        if labels.ndim != 2 or labels.shape[0] != self.replicas:
            raise ValueError(f"expected ({self.replicas}, Q) labels, got {labels.shape}")
        labels = np.clip(labels, 0, self.capacity - 1)
        blocks = labels >> _BLOCK_SHIFT
        # blocks_before[r, b] = total present labels in blocks < b.
        blocks_before = np.zeros((self.replicas, self._n_blocks + 1), dtype=np.int64)
        np.cumsum(
            self._blocks[:, : self._n_blocks], axis=1, out=blocks_before[:, 1:]
        )
        counts = blocks_before.ravel()[blocks + self._prefix_base]
        # The label's block is words 2b and 2b+1 of its replica's bitmap.
        lo = (blocks << 1) + self._word_base[:, None]
        within = labels & _BLOCK_MASK
        counts += np.bitwise_count(self._word_flat[lo] & _PREFIX_LO[within])
        counts += np.bitwise_count(self._word_flat[lo + 1] & _PREFIX_HI[within])
        return counts

    def __repr__(self) -> str:
        return (
            f"BatchedRankIndex(replicas={self.replicas}, "
            f"capacity={self.capacity}, present={self._count})"
        )

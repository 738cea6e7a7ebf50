"""Exact rank bookkeeping for the labelled process.

At every removal the process pays the *rank* of the removed label among
labels still present anywhere in the system (1-based; the global minimum
has rank 1).  :class:`RankOracle` maintains the present-label multiset
over a fixed integer label universe and answers rank queries in
``O(log M)`` via a Fenwick tree; it is the online, one-event-at-a-time
counter and the executable reference.  :func:`offline_ranks` answers the
same question for a whole recorded insert/delete stream at once.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.fenwick import FenwickTree


class RankOracle:
    """Tracks which labels of ``[0, capacity)`` are present and ranks them.

    Labels are assumed distinct (each label inserted at most once while
    present) — exactly the setting of the paper, where labels are
    consecutive integers.

    Example
    -------
    >>> oracle = RankOracle(10)
    >>> for label in (2, 5, 7):
    ...     oracle.insert(label)
    >>> oracle.rank(5)
    2
    >>> oracle.remove(5)
    2
    >>> oracle.rank(7)
    2
    """

    __slots__ = ("_tree", "_present")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._tree = FenwickTree(capacity)
        self._present = bytearray(capacity)

    @property
    def capacity(self) -> int:
        """Size of the label universe."""
        return self._tree.size

    @property
    def present_count(self) -> int:
        """Number of labels currently present."""
        return self._tree.total

    def __contains__(self, label: int) -> bool:
        return bool(self._present[label])

    def insert(self, label: int) -> None:
        """Mark ``label`` present.

        Raises :class:`ValueError` when ``label`` falls outside the
        ``[0, capacity)`` universe — most commonly because a process
        inserted more labels than it was sized for.
        """
        if not 0 <= label < self.capacity:
            raise ValueError(
                f"label {label} outside label universe [0, {self.capacity}); "
                "size the oracle's capacity to the total number of inserts"
            )
        if self._present[label]:
            raise ValueError(f"label {label} already present")
        self._present[label] = 1
        self._tree.add(label, 1)

    def rank(self, label: int) -> int:
        """Rank of ``label`` among present labels (1-based, inclusive).

        ``label`` itself must be present.
        """
        if not self._present[label]:
            raise KeyError(f"label {label} not present")
        return self._tree.prefix_sum(label)

    def rank_of_value(self, label: int) -> int:
        """Count of present labels ``<= label`` (label need not be present)."""
        return self._tree.prefix_sum(label)

    def remove(self, label: int) -> int:
        """Remove ``label`` and return the rank it had when removed."""
        r = self.rank(label)
        self._present[label] = 0
        self._tree.add(label, -1)
        return r

    def kth_smallest(self, k: int) -> int:
        """Return the ``k``-th smallest present label (1-based)."""
        return self._tree.find_kth(k)

    def min_label(self) -> int:
        """The smallest present label."""
        if self.present_count == 0:
            raise LookupError("no labels present")
        return self.kth_smallest(1)

    def __repr__(self) -> str:
        return f"RankOracle(capacity={self.capacity}, present={self.present_count})"


def offline_ranks(
    kinds: np.ndarray,
    keys: np.ndarray,
    universe: int,
    sample_every: int = 1,
) -> np.ndarray:
    """Rank paid by every ``sample_every``-th delete of a recorded stream.

    ``kinds[t]`` is +1 for an insert, -1 for a delete and 0 for an event
    that changes nothing; ``keys[t]`` is the event's label in
    ``[0, universe)``.  The answer equals a :class:`RankOracle` replay of
    the stream, byte for byte, computed with array operations.
    """
    if sample_every <= 0:
        raise ValueError(f"sample_every must be positive, got {sample_every}")
    kinds = np.asarray(kinds, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    acted = kinds != 0
    if acted.any():
        bad = keys[acted]
        if int(bad.min()) < 0 or int(bad.max()) >= universe:
            raise ValueError(
                f"label outside label universe [0, {universe}); "
                "size the replay to the total number of inserts"
            )
    # The rank paid by a delete at stream position t removing label L is
    #   #{inserts before t with label <= L} - #{deletes before t with label <= L}
    # (1-based: L's own insert is counted, L itself is not yet deleted).
    # That is an offline dominance count: give inserts weight +1 and
    # deletes weight -1, then each query is a weighted prefix count over
    # (position < t, label <= L).  Sqrt-decomposed over positions: a
    # cheap per-label running total answers the "all chunks before t's"
    # part via one cumsum per chunk, and the query's own chunk is small
    # enough for a dense broadcast comparison.
    is_insert = kinds > 0
    is_delete = kinds < 0
    qpos_all = np.flatnonzero(is_delete)[::sample_every]
    qlab_all = keys[qpos_all]
    total = kinds.size
    # A chunk costs one O(universe) cumsum and each query one O(chunk)
    # row, so the chunk that balances them is sqrt(total * universe / queries).
    chunk = max(64, math.isqrt(total * universe // max(qpos_all.size, 1)))
    counts = np.zeros(universe, dtype=np.int64)
    out = np.empty(qpos_all.size, dtype=np.int64)
    qi = 0
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        hi = int(np.searchsorted(qpos_all, stop, side="left"))
        if hi > qi:
            prefix = np.cumsum(counts)  # labels folded from chunks before `start`
            qpos = qpos_all[qi:hi]
            qlab = qlab_all[qi:hi]
            cpos = np.arange(start, stop)
            clab = keys[start:stop]
            mask = (cpos[None, :] < qpos[:, None]) & (clab[None, :] <= qlab[:, None])
            out[qi:hi] = (
                prefix[qlab]
                + np.count_nonzero(mask & is_insert[None, start:stop], axis=1)
                - np.count_nonzero(mask & is_delete[None, start:stop], axis=1)
            )
            qi = hi
        live = acted[start:stop]
        np.add.at(counts, keys[start:stop][live], kinds[start:stop][live])
    return out

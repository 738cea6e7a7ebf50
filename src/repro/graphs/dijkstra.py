"""Sequential Dijkstra over an exact or a relaxed priority queue.

Uses lazy deletion (push duplicates, skip stale pops) so it works with
every queue in :mod:`repro.pqueues` and with the relaxed MultiQueue —
with a relaxed queue the algorithm silently degrades into a
label-correcting method: still correct, but nodes may be settled more
than once.  The result records how much extra work that caused, which is
the quantity the paper's Figure 3 trades against parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graphs.generators import Graph
from repro.pqueues import BinaryHeap, PriorityQueue


@dataclass
class DijkstraResult:
    """Outcome of one SSSP computation.

    Attributes
    ----------
    dist:
        Shortest distances from the source (``np.iinfo(int64).max`` for
        unreachable vertices).
    pops:
        Total queue removals performed.
    pushes:
        Total queue insertions performed.
    stale_pops:
        Pops whose recorded distance was already beaten — with an exact
        queue these are only lazy-deletion duplicates; with a relaxed
        queue they additionally count genuine priority-inversion rework.
    """

    dist: np.ndarray
    pops: int
    pushes: int
    stale_pops: int

    @property
    def useful_pops(self) -> int:
        """Pops that settled (or re-settled) a vertex."""
        return self.pops - self.stale_pops

    def reachable(self) -> int:
        """Number of vertices with a finite distance."""
        return int((self.dist < _INF).sum())


_INF = np.iinfo(np.int64).max


def dijkstra(
    graph: Graph,
    source: int,
    pq: Optional[PriorityQueue] = None,
) -> DijkstraResult:
    """Single-source shortest paths from ``source``.

    Parameters
    ----------
    graph:
        The weighted graph (positive integer weights).
    source:
        Source vertex.
    pq:
        The queue to run on, default a fresh
        :class:`~repro.pqueues.BinaryHeap`: any
        :class:`~repro.pqueues.PriorityQueue`, or a relaxed one such as
        :class:`~repro.core.multiqueue.MultiQueue`.

    Correctness holds for any queue, exact or relaxed: a popped entry is
    only used if it matches the vertex's current best distance, and every
    improvement is (re)pushed.
    """
    if not 0 <= source < graph.n_vertices:
        raise IndexError(f"source {source} out of range")
    queue = pq if pq is not None else BinaryHeap()
    dist = np.full(graph.n_vertices, _INF, dtype=np.int64)
    dist[source] = 0
    _push(queue, 0, source)
    pops = pushes = stale = 0
    pushes += 1
    adj = graph.adj
    while _nonempty(queue):
        d, u = _pop(queue)
        pops += 1
        if d != dist[u]:
            stale += 1
            continue
        du = dist[u]
        for v, w in adj[u]:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                _push(queue, nd, v)
                pushes += 1
    return DijkstraResult(dist=dist, pops=pops, pushes=pushes, stale_pops=stale)


def _push(queue, priority: int, item: int) -> None:
    # MultiQueue exposes insert(); the PriorityQueue protocol push().
    if hasattr(queue, "insert"):
        queue.insert(priority, item)
    else:
        queue.push(priority, item)


def _pop(queue):
    # MultiQueue returns Entry from delete_min(); PriorityQueue from pop().
    if hasattr(queue, "delete_min"):
        entry = queue.delete_min()
    else:
        entry = queue.pop()
    return entry.priority, entry.item


def _nonempty(queue) -> bool:
    return len(queue) > 0

"""Tests for sequential Dijkstra over exact and relaxed queues."""

import numpy as np
import pytest

from repro.core.multiqueue import MultiQueue
from repro.graphs.dijkstra import _INF, dijkstra
from repro.graphs.generators import Graph, cycle_graph, grid_graph, road_network
from repro.pqueues import BinaryHeap


class _RecordingHeap(BinaryHeap):
    """A binary heap that records the priority of every pop."""

    def __init__(self):
        super().__init__()
        self.popped = []

    def pop(self):
        entry = super().pop()
        self.popped.append(entry.priority)
        return entry


def _reference_distances(graph, source):
    """Bellman–Ford reference (O(V*E), fine at test sizes)."""
    dist = np.full(graph.n_vertices, _INF, dtype=np.int64)
    dist[source] = 0
    for _ in range(graph.n_vertices - 1):
        changed = False
        for u in range(graph.n_vertices):
            if dist[u] == _INF:
                continue
            for v, w in graph.adj[u]:
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    changed = True
        if not changed:
            break
    return dist


class TestCorrectness:
    def test_line_graph_distances(self):
        g = Graph(4)
        g.add_edge(0, 1, 2)
        g.add_edge(1, 2, 3)
        g.add_edge(2, 3, 4)
        res = dijkstra(g, 0)
        assert list(res.dist) == [0, 2, 5, 9]
        assert res.stale_pops == 0
        assert res.reachable() == 4

    def test_unreachable_vertices(self):
        g = Graph(3)
        g.add_edge(0, 1, 1)
        res = dijkstra(g, 0)
        assert res.dist[2] == _INF
        assert res.reachable() == 2

    def test_source_validation(self):
        with pytest.raises(IndexError):
            dijkstra(cycle_graph(4), 9)

    def test_default_heap_agrees_with_reference(self):
        g = grid_graph(6, 6, max_weight=9, rng=1)
        ref = _reference_distances(g, 0)
        res = dijkstra(g, 0)
        assert np.array_equal(res.dist, ref)

    def test_pops_are_monotone(self):
        """With an exact queue Dijkstra pops distances in non-decreasing
        order: every push is at least the distance just popped."""
        g = road_network(400, rng=2)
        heap = _RecordingHeap()
        res = dijkstra(g, 0, pq=heap)
        assert heap.popped == sorted(heap.popped)
        assert len(heap.popped) == res.pops

    def test_relaxed_multiqueue_still_exact(self):
        """With a MultiQueue the algorithm degrades to label-correcting
        but distances stay exact; extra work shows up as stale pops."""
        g = road_network(400, rng=3)
        ref = dijkstra(g, 0)
        mq = MultiQueue(8, beta=1.0, rng=4)
        res = dijkstra(g, 0, pq=mq)
        assert np.array_equal(res.dist, ref.dist)
        assert res.stale_pops >= ref.stale_pops

    def test_work_counters_consistent(self):
        g = grid_graph(8, 8, rng=5)
        res = dijkstra(g, 0)
        assert res.pops == res.pushes  # everything pushed is popped
        assert res.useful_pops == res.pops - res.stale_pops

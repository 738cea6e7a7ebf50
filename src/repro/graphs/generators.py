"""Graph data type and synthetic generators.

The central deliverable here is :func:`road_network`: the paper's SSSP
benchmark ran on the California road network, which we cannot ship; the
generator below produces graphs with the properties that matter for
relaxed-priority-queue Dijkstra — low average degree (2–4), large
diameter, strictly positive integer weights correlated with geometric
distance — at laptop-friendly sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from repro.utils.rngtools import SeedLike, as_generator


@dataclass
class Graph:
    """A weighted undirected graph as adjacency lists.

    ``adj[u]`` is a list of ``(v, weight)`` pairs; weights are positive
    integers.  Undirected edges appear in both endpoint lists.
    """

    n_vertices: int
    adj: List[List[Tuple[int, int]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_vertices <= 0:
            raise ValueError(f"n_vertices must be positive, got {self.n_vertices}")
        if not self.adj:
            self.adj = [[] for _ in range(self.n_vertices)]
        elif len(self.adj) != self.n_vertices:
            raise ValueError(
                f"adjacency list has {len(self.adj)} entries for {self.n_vertices} vertices"
            )

    def add_edge(self, u: int, v: int, weight: int = 1) -> None:
        """Add the undirected edge ``{u, v}`` with the given weight."""
        if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
            raise IndexError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if weight <= 0:
            raise ValueError(f"weights must be positive, got {weight}")
        self.adj[u].append((v, weight))
        self.adj[v].append((u, weight))

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self.adj):
            for v, _w in nbrs:
                if u < v:
                    yield (u, v)

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        return len(self.adj[u])

    def average_degree(self) -> float:
        """Mean vertex degree."""
        return 2.0 * self.n_edges / self.n_vertices

    def is_connected(self) -> bool:
        """BFS connectivity check."""
        if self.n_vertices == 0:
            return True
        seen = bytearray(self.n_vertices)
        stack = [0]
        seen[0] = 1
        count = 1
        while stack:
            u = stack.pop()
            for v, _w in self.adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count == self.n_vertices

    def __repr__(self) -> str:
        return f"Graph(n={self.n_vertices}, m={self.n_edges})"


def cycle_graph(n: int, max_weight: int = 1, rng: SeedLike = None) -> Graph:
    """A ring on ``n`` vertices — the worst expander, for Section 6."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    gen = as_generator(rng)
    g = Graph(n)
    for u in range(n):
        g.add_edge(u, (u + 1) % n, _weight(gen, max_weight))
    return g


def complete_graph(n: int, max_weight: int = 1, rng: SeedLike = None) -> Graph:
    """The complete graph — random edges recover classic two-choice."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    gen = as_generator(rng)
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v, _weight(gen, max_weight))
    return g


def grid_graph(rows: int, cols: int, max_weight: int = 10, rng: SeedLike = None) -> Graph:
    """A rows x cols grid with random positive integer weights."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid needs positive dimensions, got {rows}x{cols}")
    gen = as_generator(rng)
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                g.add_edge(u, u + 1, _weight(gen, max_weight))
            if r + 1 < rows:
                g.add_edge(u, u + cols, _weight(gen, max_weight))
    return g


def torus_graph(rows: int, cols: int, max_weight: int = 10, rng: SeedLike = None) -> Graph:
    """A grid with wraparound edges (4-regular, moderate expansion)."""
    if rows < 3 or cols < 3:
        raise ValueError(f"torus needs dimensions >= 3, got {rows}x{cols}")
    gen = as_generator(rng)
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            g.add_edge(u, r * cols + (c + 1) % cols, _weight(gen, max_weight))
            g.add_edge(u, ((r + 1) % rows) * cols + c, _weight(gen, max_weight))
    return g


def random_regular_graph(n: int, d: int, max_weight: int = 1, rng: SeedLike = None) -> Graph:
    """A random d-regular multigraph-free graph (configuration model with
    rejection) — an expander with high probability for ``d >= 3``."""
    if n * d % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise ValueError(f"degree {d} too large for {n} vertices")
    gen = as_generator(rng)
    # The probability a configuration-model matching is simple is about
    # exp(-(d^2-1)/4) — a few percent for d=4 — so allow many cheap
    # attempts before giving up.
    for _attempt in range(5000):
        stubs = np.repeat(np.arange(n), d)
        gen.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        seen = set()
        ok = True
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v or (min(u, v), max(u, v)) in seen:
                ok = False
                break
            seen.add((min(u, v), max(u, v)))
        if ok:
            g = Graph(n)
            for u, v in seen:
                g.add_edge(u, v, _weight(gen, max_weight))
            if g.is_connected():
                return g
    raise RuntimeError(f"failed to sample a simple connected {d}-regular graph on {n} vertices")


def road_network(
    n_target: int,
    max_weight: int = 1000,
    shortcut_fraction: float = 0.01,
    removal_fraction: float = 0.15,
    rng: SeedLike = None,
) -> Graph:
    """A synthetic road network standing in for the California graph.

    Construction: a near-square grid (roads meet at intersections of
    degree <= 4), with a ``removal_fraction`` of non-tree edges deleted
    (dead ends, irregular blocks) and a few long-range "highway"
    shortcuts added.  Weights grow with the grid distance an edge spans,
    mimicking travel times.  The result is connected, sparse (average
    degree ~2.5–3.5), and large-diameter — the regime where relaxed
    priority queues pay measurable extra relaxations in Dijkstra.
    """
    if n_target < 9:
        raise ValueError(f"n_target must be at least 9, got {n_target}")
    if not 0 <= removal_fraction < 1:
        raise ValueError(f"removal_fraction must be in [0, 1), got {removal_fraction}")
    gen = as_generator(rng)
    side = int(round(n_target**0.5))
    rows = cols = max(3, side)
    n = rows * cols
    g = Graph(n)

    def base_weight() -> int:
        return int(gen.integers(1, max(2, max_weight // 10)))

    # Grid edges; keep a deterministic spanning structure (all edges of
    # row 0 plus all vertical edges) so removals can't disconnect.
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                keep = r == 0 or gen.random() >= removal_fraction
                if keep:
                    g.add_edge(u, u + 1, base_weight())
            if r + 1 < rows:
                g.add_edge(u, u + cols, base_weight())

    # Highway shortcuts: connect random distant intersections with
    # weight proportional to the geometric distance they span (fast but
    # not free, as real highways are).
    n_shortcuts = max(1, int(shortcut_fraction * n))
    for _ in range(n_shortcuts):
        u = int(gen.integers(n))
        v = int(gen.integers(n))
        if u == v:
            continue
        ru, cu = divmod(u, cols)
        rv, cv = divmod(v, cols)
        dist = abs(ru - rv) + abs(cu - cv)
        if dist < 2:
            continue
        weight = max(1, int(dist * max(1, max_weight // 50) * 0.4))
        g.add_edge(u, v, weight)
    return g


def _weight(gen: np.random.Generator, max_weight: int) -> int:
    return 1 if max_weight <= 1 else int(gen.integers(1, max_weight + 1))

"""Property tests: every SSSP implementation agrees on random graphs.

Hypothesis generates small weighted graphs (connected by construction:
a random spanning chain plus random extra edges); sequential Dijkstra,
delta-stepping at three bucket widths, and both simulated-parallel
algorithms must produce identical distance vectors.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent.multiqueue import ConcurrentMultiQueue
from repro.graphs.delta_stepping import delta_stepping
from repro.graphs.dijkstra import dijkstra
from repro.graphs.generators import Graph
from repro.graphs.parallel_delta_stepping import parallel_delta_stepping
from repro.graphs.parallel_dijkstra import parallel_dijkstra


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    g = Graph(n)
    # Spanning chain over a random permutation guarantees connectivity.
    perm = draw(st.permutations(list(range(n))))
    for a, b in zip(perm, perm[1:]):
        g.add_edge(a, b, draw(st.integers(min_value=1, max_value=20)))
    # Random extra edges (duplicates between pairs are fine: parallel
    # edges just mean two weights between the same endpoints).
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(min_value=1, max_value=20),
            ),
            max_size=12,
        )
    )
    for u, v, w in extra:
        if u != v:
            g.add_edge(u, v, w)
    source = draw(st.integers(0, n - 1))
    return g, source


@settings(max_examples=25, deadline=None)
@given(case=connected_graphs())
def test_sequential_implementations_agree(case):
    g, source = case
    ref = dijkstra(g, source).dist
    assert np.array_equal(delta_stepping(g, source, delta=1).dist, ref)
    assert np.array_equal(delta_stepping(g, source, delta=7).dist, ref)
    assert np.array_equal(delta_stepping(g, source, delta=1000).dist, ref)


@settings(max_examples=12, deadline=None)
@given(case=connected_graphs(), seed=st.integers(0, 1000))
def test_simulated_parallel_implementations_agree(case, seed):
    g, source = case
    ref = dijkstra(g, source).dist

    def mq(engine, rng):
        return ConcurrentMultiQueue(engine, 4, beta=0.8, rng=rng)

    par = parallel_dijkstra(g, source, mq, n_threads=2, seed=seed)
    assert np.array_equal(par.dist, ref)
    ds = parallel_delta_stepping(g, source, delta=5, n_threads=2)
    assert np.array_equal(ds.dist, ref)

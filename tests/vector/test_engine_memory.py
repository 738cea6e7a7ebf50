"""A memory gate for the vector engine at the sweep cell's shape.

The queue state is one window of int32 successor links per replica, so
a steady-state run's allocation peak is set by that window, the rank
index, the chooser's draw chunks, the prefill's queue draws, the rank
matrix and a handful of ``(R, n)`` matrices.  The bound below adds up
exactly those arrays, with room for one temporary of each.  A state of
``R * n`` ring buffers sized by the largest queue (32 MiB of int64 at
this shape) does not fit in it.
"""

import tracemalloc

from repro.vector.engine import CHUNK_STEPS
from repro.vector.labelled import VectorSequentialProcess

N, PREFILL, STEPS, REPLICAS = 256, 16384, 2000, 64


def _allowed_bytes(proc) -> int:
    window = 1 << (PREFILL + CHUNK_STEPS - 1).bit_length()
    links = REPLICAS * window * 4
    index = proc._index
    # count_leq_grid builds one block prefix per call, as large as the counts.
    rank_index = index._bits.nbytes + 2 * (index._blocks.nbytes + index._supers.nbytes)
    source = proc._source
    # A refill draws a fresh chunk before the old one is released.
    draws = 2 * sum(a.nbytes for a in (source._two, source._i, source._j, source._ins))
    queue_draws = PREFILL * REPLICAS * 2  # uint16 queue keys, step-major
    prefill_rows = 4 * PREFILL * 8  # one replica's sort order and keys
    ranks = STEPS * REPLICAS * 4
    cells = 16 * REPLICAS * N * 8
    return links + rank_index + draws + queue_draws + prefill_rows + ranks + cells


def test_steady_state_peak_fits_the_link_window():
    tracemalloc.start()
    try:
        proc = VectorSequentialProcess(N, PREFILL + STEPS, REPLICAS, beta=1.0, rng=1)
        proc.run_steady_state(PREFILL, STEPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    allowed = _allowed_bytes(proc)
    assert peak <= allowed, f"peak {peak / 2**20:.1f} MiB > {allowed / 2**20:.1f} MiB"

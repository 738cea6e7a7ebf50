"""The vector engine's ring-buffer prefill against the per-replica loop
it replaced.

``_alloc_from_assignment`` groups each replica's labels by queue with a
stable sort of ``uint16`` keys (``int64`` above 65536 queues) and writes
them through flat slot indices.  The reference below is the earlier
implementation, kept verbatim: a stable ``int64`` argsort, a
``searchsorted`` for each queue's start, and a 3-D scatter.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vector.engine import (
    EMPTY,
    VectorProcessBase,
    _pow2_at_least,
    queue_key_type,
)


def _reference_alloc(assign: np.ndarray, n: int):
    """``(buf, counts, tops, cap, max_size)`` as the old loop built them."""
    replicas, m = assign.shape
    counts = np.zeros((replicas, n), dtype=np.int64)
    np.add.at(counts, (np.arange(replicas)[:, None], assign), 1)
    max_size = int(counts.max()) if m else 0
    cap = _pow2_at_least(max_size + 8 + 4 * math.isqrt(max_size + 1))
    buf = np.zeros((replicas, n, cap), dtype=np.int64)
    labels = np.arange(m, dtype=np.int64)
    queue_range = np.arange(n)
    for r in range(replicas):
        order = np.argsort(assign[r], kind="stable")
        grouped = assign[r][order]
        starts = np.searchsorted(grouped, queue_range)
        within = labels - starts[grouped]
        buf[r, grouped, within] = order
    tops = np.where(counts > 0, buf[:, :, 0], EMPTY)
    return buf, counts, tops, cap, max_size


@st.composite
def assignments(draw):
    """An ``(R, m)`` queue assignment plus the layout to pass it in.

    Labels go to a drawn subset of the queues, so most draws leave some
    queues without a label.  Above the ``uint16`` key limit the ring
    buffers are ``n * cap`` words per replica, so those draws stay tiny.
    """
    n = draw(st.sampled_from([1, 2, 7, 300, 1 << 16, (1 << 16) + 1]))
    large = n >= 1 << 16
    replicas = draw(st.integers(1, 2 if large else 4))
    m = draw(st.integers(0, 3 if large else 400))
    used = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    assign = rng.choice(np.asarray(used, dtype=np.int64), size=(replicas, m))
    layout = draw(st.sampled_from(["int64", "step-major"]))
    return n, assign, layout


@settings(max_examples=60, deadline=None)
@given(assignments())
def test_alloc_matches_reference_loop(case):
    n, assign, layout = case
    replicas, m = assign.shape
    if layout == "step-major":
        # What prefill passes: a transposed view of (m, R) queue keys.
        given_assign = np.ascontiguousarray(assign.T, dtype=queue_key_type(n)).T
    else:
        given_assign = assign
    proc = VectorProcessBase(n, max(m, 1), replicas, source=None)
    proc._alloc_from_assignment(given_assign)
    buf, counts, tops, cap, max_size = _reference_alloc(assign, n)
    assert proc._cap == cap
    assert proc._watermark == max_size
    np.testing.assert_array_equal(proc._buf, buf)
    np.testing.assert_array_equal(proc._size, counts)
    np.testing.assert_array_equal(proc._tops, tops)
    assert not proc._head.any()
    assert proc._may_have_empty == bool((counts == 0).any())
    # The flat views alias the rebuilt state arrays.
    for flat, full in (
        (proc._buf_flat, proc._buf),
        (proc._head_flat, proc._head),
        (proc._size_flat, proc._size),
        (proc._tops_flat, proc._tops),
    ):
        assert flat.ndim == 1 and np.shares_memory(flat, full)
